"""Seeded inputs: deterministic per seed, different across seeds."""

import workloads
from repro.simnet.topology import spine_leaf
from repro.units import GBPS_56

SERVERS = spine_leaf(**workloads.DEFAULT_TOPOLOGY).servers


def test_churn_schedule_is_a_function_of_the_seed():
    assert workloads.churn_schedule(3, SERVERS) == workloads.churn_schedule(3, SERVERS)
    assert workloads.churn_schedule(3, SERVERS) != workloads.churn_schedule(4, SERVERS)


def test_churn_schedule_shape():
    schedule = workloads.churn_schedule(5, SERVERS)
    times = [t for t, _op, _args in schedule]
    assert times == sorted(times)
    ops = [op for _t, op, _args in schedule]
    assert ops[: workloads.CHURN_APPS] == ["register_app"] * workloads.CHURN_APPS
    creates = ops.count("conn_create")
    destroys = ops.count("conn_destroy")
    # p99 call latency needs 1,000 calls in one unit.
    assert len(schedule) >= 1000
    assert 0.1 * creates < destroys < 0.3 * creates
    for t, op, args in schedule:
        if op == "conn_destroy":
            created_at, created_op, _ = schedule[args[0]]
            assert created_op == "conn_create"
            assert t == created_at + workloads.CHURN_TEARDOWN_DELAY


def test_teardowns_always_race_a_live_connection():
    # No flow can finish before its teardown arrives, so the workload
    # offers no request the service must refuse.
    assert workloads.CHURN_TEARDOWN_DELAY < workloads.CHURN_SIZES.lo / GBPS_56


def test_incast_inputs_are_a_function_of_the_seed():
    assert workloads.incast_inputs(2) == workloads.incast_inputs(2)
    assert workloads.incast_inputs(2) != workloads.incast_inputs(3)
    # Seeds share the recorded reference variants.
    assert workloads.incast_inputs(2) == workloads.incast_inputs(2 + workloads.INCAST_VARIANTS)


def test_every_incast_variant_has_a_reference():
    reference = workloads.load_reference()
    assert sorted(reference["incast-waves"], key=int) == [
        str(v) for v in range(workloads.INCAST_VARIANTS)
    ]
    fig10 = reference["fig10-saba"]
    assert fig10["jobs"] == len(fig10["baseline"]) == 20
