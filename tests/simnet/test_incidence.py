"""Unit tests for the flow-link index and congestion components."""

from random import Random

from repro.simnet.flows import Flow
from repro.simnet.flowtable import FlowTable
from repro.simnet.incidence import ArrayIncidence, split_components


def _flow(path, size=100.0):
    return Flow(src="server0", dst="server1", size=size, path=tuple(path))


def _indexed(flows):
    """An index over ``flows``, started in list order."""
    table = FlowTable()
    inc = ArrayIncidence(table)
    for seq, flow in enumerate(flows):
        table.bind(flow, seq, 0.0)
        inc.add(flow)
    return inc, table


def _ids(comps):
    return [[f.flow_id for f in comp] for comp in comps]


def test_add_and_remove_maintain_per_link_population():
    f1 = _flow(["a", "b"])
    f2 = _flow(["b", "c"])
    inc, table = _indexed([f1, f2])
    assert inc.links() == ["a", "b", "c"]
    assert inc.count("a") == 1
    assert inc.count("b") == 2
    assert [f.flow_id for f in inc.flows_on("b")] == [f1.flow_id, f2.flow_id]
    inc.remove(f1)
    table.unbind(f1)
    # Links with no remaining flows drop out of the populated set.
    assert inc.links() == ["b", "c"]
    assert inc.count("a") == 0
    assert inc.flows_on("a") == []
    inc.remove(f2)
    assert inc.links() == []


def test_remove_is_idempotent():
    f1 = _flow(["a"])
    inc, _ = _indexed([f1])
    inc.remove(f1)
    inc.remove(f1)  # no error on double-remove
    assert inc.count("a") == 0


def test_components_found_only_from_seed_links():
    f1 = _flow(["a", "b"])
    f2 = _flow(["b", "c"])
    f3 = _flow(["x"])  # disjoint component
    inc, _ = _indexed([f1, f2, f3])

    # Seeding from "c" reaches f2, then f1 via the shared link "b",
    # but never the disjoint component on "x".
    assert _ids(inc.discover(["c"])) == [[f1.flow_id, f2.flow_id]]

    # Seeding from all links reaches both components, ordered by their
    # earliest member; unknown seed links are ignored.
    expected = [[f1.flow_id, f2.flow_id], [f3.flow_id]]
    assert _ids(inc.discover(["x", "c", "nowhere"])) == expected
    assert _ids(inc.discover()) == expected


def test_components_independent_of_seed_order():
    flows = [_flow(["a"]), _flow(["b"]), _flow(["c"])]
    inc, _ = _indexed(flows)
    forward = inc.discover(["a", "b", "c"])
    backward = inc.discover(["c", "b", "a"])
    assert _ids(forward) == _ids(backward) == [[f.flow_id] for f in flows]


def test_split_components_partitions_by_shared_links():
    f1 = _flow(["a", "b"])
    f2 = _flow(["c"])
    f3 = _flow(["b", "c"])  # bridges f1 and f2
    f4 = _flow(["z"])
    groups = split_components([f1, f2, f3, f4])
    assert [[f.flow_id for f in g] for g in groups] == [
        [f1.flow_id, f2.flow_id, f3.flow_id],
        [f4.flow_id],
    ]


def test_split_components_trivial_inputs():
    assert split_components([]) == []
    f1 = _flow(["a"])
    assert split_components([f1]) == [[f1]]


def test_split_components_agrees_with_incidence_bfs():
    rng = Random(42)
    links = [f"l{i}" for i in range(12)]
    flows = [
        _flow(rng.sample(links, rng.randint(1, 4))) for _ in range(30)
    ]
    inc, _ = _indexed(flows)
    assert _ids(inc.discover()) == _ids(split_components(flows))
