"""Flow↔link incidence and congestion components.

The fabric keeps one persistent index of which flows traverse which
links, :class:`ArrayIncidence`, maintained on flow start, finish and
reroute.  It answers per-link membership and count queries, and
:meth:`ArrayIncidence.discover` finds the congestion components a
recompute must re-solve.  Transitive sharing of links partitions the
active flows into *congestion components*: max-min, WFQ and
strict-priority allocations all decompose exactly over link-disjoint
components (no capacity, queue or scheduler state crosses a component
boundary), so an event only requires re-solving the component it
disturbs.  DESIGN.md section 5d states the decomposition argument and
its exactness conditions.

:func:`split_components` is the index-free partition used by the
full-solve oracle (:func:`repro.simnet.fairness.network_rates`).

Determinism: every ordering here derives from insertion order (flow
start order) or an explicit sort key -- never from hash-randomised
``set`` iteration over strings -- so runs reproduce across processes.
"""

from __future__ import annotations

from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
)

import numpy as np

from repro.simnet.flows import Flow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simnet.flowtable import FlowTable

#: Start-sequence sort key: every "in start order" guarantee.
_start_order = attrgetter("_seq")


def _gather_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], starts[i] + counts[i])`` index ranges.

    Turns per-segment (start, count) descriptors into one flat fancy
    index without a Python loop; buffer compaction and
    :meth:`ArrayIncidence.remap` move whole segments with it.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.repeat(starts - offsets, counts) + np.arange(
        total, dtype=np.int64
    )


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(counts), dtype=np.int64)
    if len(counts) > 1:
        np.cumsum(counts[:-1], out=out[1:])
    return out


def split_components(flows: Sequence[Flow]) -> List[List[Flow]]:
    """Partition ``flows`` into link-connected components.

    Union-find keyed by link id; within a component flows keep their
    input order, and components are ordered by their earliest member,
    so the full solve visits flows exactly as a joint build would.
    """
    n = len(flows)
    if n <= 1:
        return [list(flows)] if flows else []
    parent = list(range(n))

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    owner_of_link: Dict[str, int] = {}
    for i, flow in enumerate(flows):
        for lid in flow.path:
            j = owner_of_link.setdefault(lid, i)
            if j == i:
                continue
            ri, rj = find(i), find(j)
            if ri != rj:
                # Root at the smaller index: component identity (and
                # hence output order) is first-member order.
                if ri < rj:
                    parent[rj] = ri
                else:
                    parent[ri] = rj
    groups: Dict[int, List[Flow]] = {}
    for i, flow in enumerate(flows):
        groups.setdefault(find(i), []).append(flow)
    return [groups[root] for root in sorted(groups)]


class ArrayIncidence:
    """Structure-of-arrays flow<->link index of the active flows.

    All state lives in flat numpy buffers keyed by interned link index
    and :class:`~repro.simnet.flowtable.FlowTable` slot.
    :meth:`discover` walks it to find the congestion components a
    recompute must re-solve.

    Layout.  Per interned link, a segment of the flat adjacency
    buffers ``_adj_slot`` / ``_adj_k`` (member slot, and that member's
    path position for this link) described by ``_adj_start`` /
    ``_adj_count`` / ``_adj_cap``; segments are unsorted and removal
    is O(path) swap-remove.  Per table slot, a segment of
    ``_path_buf`` / ``_path_pos`` (interned path link, and the slot's
    current position inside that link's segment) described by
    ``_path_start`` / ``_path_len``.  The two ``_adj_k`` /
    ``_path_pos`` columns index *each other*, which is what makes
    swap-remove O(1) per pair: moving a link segment's tail entry
    into a hole updates exactly one ``_path_pos`` cell.  Both flat
    buffers are bump-allocated and repacked (amortised) once garbage
    from removals and segment relocations dominates.

    Ordering contract: paths are simple (no repeated link -- BFS
    shortest paths guarantee this) and every ordering exposed --
    members in start-sequence order, links in first-use order over
    seq-sorted flows, components by earliest flow -- is a function of
    the active flows alone (never of slot numbers, seed order or
    removal history), so solver accumulation order and hence
    floating-point results are reproducible.
    """

    def __init__(self, table: "FlowTable") -> None:
        self.table = table
        self.link_ids: List[str] = []
        self._link_index: Dict[str, int] = {}
        # -- per interned link: adjacency segment descriptors ----------
        self._adj_start = np.zeros(64, dtype=np.int64)
        self._adj_count = np.zeros(64, dtype=np.int64)
        self._adj_cap = np.zeros(64, dtype=np.int64)
        self._adj_slot = np.zeros(1024, dtype=np.int64)
        self._adj_k = np.zeros(1024, dtype=np.int64)
        self._adj_tail = 0
        self._adj_live_cap = 0
        # -- per table slot: path segment descriptors ------------------
        cap = max(16, table.capacity)
        self._path_start = np.zeros(cap, dtype=np.int64)
        self._path_len = np.zeros(cap, dtype=np.int64)
        self._path_buf = np.zeros(1024, dtype=np.int64)
        self._path_pos = np.zeros(1024, dtype=np.int64)
        self._path_tail = 0
        self._path_live = 0

    # -- buffer management -------------------------------------------------

    def _sync_slots(self) -> None:
        """Grow per-slot arrays after the flow table expanded."""
        cap = self.table.capacity
        if cap <= len(self._path_start):
            return
        new = len(self._path_start)
        while new < cap:
            new *= 2
        for name in ("_path_start", "_path_len"):
            arr: np.ndarray = getattr(self, name)
            grown = np.zeros(new, dtype=np.int64)
            grown[: len(arr)] = arr
            setattr(self, name, grown)

    def _compact_adj(self, extra: int = 0) -> None:
        """Repack adjacency segments densely (dropping garbage).

        Sized so live capacity plus the pending reservation occupies
        at most half the buffer -- the amortisation invariant that
        keeps add/remove O(1) amortised.
        """
        n_links = len(self.link_ids)
        starts = self._adj_start[:n_links]
        counts = self._adj_count[:n_links]
        caps = self._adj_cap[:n_links]
        new_starts = _exclusive_cumsum(caps)
        total = self._adj_live_cap
        size = max(1024, len(self._adj_slot))
        while size < 2 * (total + extra):
            size *= 2
        while size > 1024 and size >= 4 * (total + extra):
            size //= 2
        new_slot = np.zeros(size, dtype=np.int64)
        new_k = np.zeros(size, dtype=np.int64)
        src = _gather_ranges(starts, counts)
        dst = _gather_ranges(new_starts, counts)
        new_slot[dst] = self._adj_slot[src]
        new_k[dst] = self._adj_k[src]
        self._adj_slot = new_slot
        self._adj_k = new_k
        self._adj_start[:n_links] = new_starts
        self._adj_tail = int(total)

    def _ensure_adj(self, extra: int) -> None:
        if self._adj_tail + extra > len(self._adj_slot):
            self._compact_adj(extra)

    def _compact_path(self, extra: int = 0) -> None:
        """Repack live path segments densely (dropping garbage)."""
        n_slots = len(self._path_start)
        lens = self._path_len[:n_slots]
        live = np.nonzero(lens > 0)[0]
        counts = lens[live]
        new_starts = _exclusive_cumsum(counts)
        total = self._path_live
        size = max(1024, len(self._path_buf))
        while size < 2 * (total + extra):
            size *= 2
        while size > 1024 and size >= 4 * (total + extra):
            size //= 2
        new_buf = np.zeros(size, dtype=np.int64)
        new_pos = np.zeros(size, dtype=np.int64)
        src = _gather_ranges(self._path_start[live], counts)
        dst = _gather_ranges(new_starts, counts)
        new_buf[dst] = self._path_buf[src]
        new_pos[dst] = self._path_pos[src]
        self._path_buf = new_buf
        self._path_pos = new_pos
        self._path_start[live] = new_starts
        self._path_tail = int(total)

    def _ensure_path(self, extra: int) -> None:
        if self._path_tail + extra > len(self._path_buf):
            self._compact_path(extra)

    def _intern(self, lid: str) -> int:
        idx = self._link_index.get(lid)
        if idx is not None:
            return idx
        idx = len(self.link_ids)
        self._link_index[lid] = idx
        self.link_ids.append(lid)
        if idx >= len(self._adj_start):
            new = 2 * len(self._adj_start)
            for name in ("_adj_start", "_adj_count", "_adj_cap"):
                arr: np.ndarray = getattr(self, name)
                grown = np.zeros(new, dtype=np.int64)
                grown[: len(arr)] = arr
                setattr(self, name, grown)
        self._ensure_adj(4)
        self._adj_start[idx] = self._adj_tail
        self._adj_count[idx] = 0
        self._adj_cap[idx] = 4
        self._adj_tail += 4
        self._adj_live_cap += 4
        return idx

    def _grow_segment(self, li: int) -> None:
        """Relocate a full link segment to the tail at double capacity."""
        cap = int(self._adj_cap[li])
        new_cap = 2 * cap
        self._ensure_adj(new_cap)
        start = int(self._adj_start[li])
        count = int(self._adj_count[li])
        new_start = self._adj_tail
        self._adj_slot[new_start : new_start + count] = self._adj_slot[
            start : start + count
        ]
        self._adj_k[new_start : new_start + count] = self._adj_k[
            start : start + count
        ]
        self._adj_start[li] = new_start
        self._adj_cap[li] = new_cap
        self._adj_tail += new_cap
        self._adj_live_cap += new_cap - cap

    # -- maintenance and queries -------------------------------------------

    def add(self, flow: Flow) -> None:
        """Index a table-bound flow under every link of its path."""
        slot = flow._slot
        if slot < 0:
            raise ValueError(
                f"flow {flow.flow_id} must be table-bound before indexing"
            )
        if self.table.capacity > len(self._path_start):
            self._sync_slots()
        if self._path_len.item(slot) != 0:
            self.remove(flow)
        path = flow.path
        k_len = len(path)
        if k_len == 0:
            return
        self._ensure_path(k_len)
        ps = self._path_tail
        # Localised hot loop: numpy scalar access dominates add(), so
        # reads go through ``item`` (no numpy scalar boxing).  The
        # locals must be re-fetched after _intern/_grow_segment, either
        # of which can compact or reallocate the adjacency buffers.
        path_buf = self._path_buf
        path_pos = self._path_pos
        link_get = self._link_index.get
        adj_start = self._adj_start
        adj_count = self._adj_count
        adj_cap = self._adj_cap
        adj_slot = self._adj_slot
        adj_k = self._adj_k
        for k, lid in enumerate(path):
            li = link_get(lid)
            if li is None:
                li = self._intern(lid)
                link_get = self._link_index.get
                adj_start = self._adj_start
                adj_count = self._adj_count
                adj_cap = self._adj_cap
                adj_slot = self._adj_slot
                adj_k = self._adj_k
            cnt = adj_count.item(li)
            if cnt == adj_cap.item(li):
                self._grow_segment(li)
                adj_start = self._adj_start
                adj_slot = self._adj_slot
                adj_k = self._adj_k
            pos = adj_start.item(li) + cnt
            adj_slot[pos] = slot
            adj_k[pos] = k
            adj_count[li] = cnt + 1
            path_buf[ps + k] = li
            path_pos[ps + k] = cnt
        self._path_start[slot] = ps
        self._path_len[slot] = k_len
        self._path_tail = ps + k_len
        self._path_live += k_len

    def remove(self, flow: Flow) -> None:
        """Drop a flow from every link of its (indexed) path.

        Uses the path as indexed at add time, so callers may mutate
        ``flow.path`` after removal (reroute) without confusing the
        index.  Idempotent.
        """
        slot = flow._slot
        if slot < 0 or slot >= len(self._path_len):
            return
        k_len = self._path_len.item(slot)
        if k_len == 0:
            return
        ps = self._path_start.item(slot)
        adj_start = self._adj_start
        adj_count = self._adj_count
        adj_slot = self._adj_slot
        adj_k = self._adj_k
        path_buf = self._path_buf
        path_pos = self._path_pos
        path_start = self._path_start
        for k in range(ps, ps + k_len):
            li = path_buf.item(k)
            p = path_pos.item(k)
            start = adj_start.item(li)
            last = adj_count.item(li) - 1
            adj_count[li] = last
            if p != last:
                moved_slot = adj_slot.item(start + last)
                moved_k = adj_k.item(start + last)
                adj_slot[start + p] = moved_slot
                adj_k[start + p] = moved_k
                path_pos[path_start.item(moved_slot) + moved_k] = p
        self._path_len[slot] = 0
        self._path_live -= k_len

    def links(self) -> List[str]:
        """Link ids currently carrying flows, in first-interned order
        (first use ever, not first use among the current flows)."""
        counts = self._adj_count
        return [
            lid
            for li, lid in enumerate(self.link_ids)
            if counts[li] > 0
        ]

    def flows_on(self, link_id: str) -> List[Flow]:
        """Flows traversing ``link_id``, in start order."""
        li = self._link_index.get(link_id)
        if li is None:
            return []
        count = int(self._adj_count[li])
        if count == 0:
            return []
        start = int(self._adj_start[li])
        slots = self._adj_slot[start : start + count]
        order = np.argsort(self.table.seq[slots])
        flow_of = self.table.flow_of
        out: List[Flow] = []
        for slot in slots[order]:
            flow = flow_of[slot]
            assert flow is not None
            out.append(flow)
        return out

    def count(self, link_id: str) -> int:
        """Number of active flows on ``link_id``."""
        li = self._link_index.get(link_id)
        return int(self._adj_count[li]) if li is not None else 0

    def remap(self, slot_map: np.ndarray) -> None:
        """Translate all slot references after a table compaction."""
        n_links = len(self.link_ids)
        live = _gather_ranges(
            self._adj_start[:n_links], self._adj_count[:n_links]
        )
        if live.size:
            self._adj_slot[live] = slot_map[self._adj_slot[live]]
        new_cap = max(16, self.table.capacity)
        new_start = np.zeros(new_cap, dtype=np.int64)
        new_len = np.zeros(new_cap, dtype=np.int64)
        old = np.nonzero(self._path_len[: len(slot_map)] > 0)[0]
        if old.size:
            tgt = slot_map[old]
            keep = tgt >= 0
            old, tgt = old[keep], tgt[keep]
            new_start[tgt] = self._path_start[old]
            new_len[tgt] = self._path_len[old]
        self._path_start = new_start
        self._path_len = new_len

    # -- component discovery ------------------------------------------------

    def discover(
        self, seed_links: Optional[Iterable[str]] = None
    ) -> List[List[Flow]]:
        """Congestion components reachable from ``seed_links``.

        ``None`` seeds the search with every populated link (a full
        solve).  Breadth-first search over shared links; each
        component's flows come back in start order and components are
        ordered by their earliest flow, so the result is independent
        of the seeds' order and of which seed reached a component.
        """
        index = self._link_index
        adj_start = self._adj_start
        adj_count = self._adj_count
        adj_slot = self._adj_slot
        flow_of = self.table.flow_of
        if seed_links is None:
            seeds: Iterable[int] = np.flatnonzero(
                adj_count[: len(self.link_ids)]
            ).tolist()
        else:
            seeds = [index[lid] for lid in seed_links if lid in index]
        seen_links: set = set()
        seen_slots: set = set()
        comps: List[List[Flow]] = []
        for seed in seeds:
            if seed in seen_links:
                continue
            seen_links.add(seed)
            comp: List[Flow] = []
            frontier = [seed]
            while frontier:
                li = frontier.pop()
                start = adj_start.item(li)
                for slot in adj_slot[
                    start : start + adj_count.item(li)
                ].tolist():
                    if slot in seen_slots:
                        continue
                    seen_slots.add(slot)
                    flow = flow_of[slot]
                    assert flow is not None
                    comp.append(flow)
                    for lid in flow.path:
                        lj = index[lid]
                        if lj not in seen_links:
                            seen_links.add(lj)
                            frontier.append(lj)
            if comp:
                comp.sort(key=_start_order)
                comps.append(comp)
        comps.sort(key=lambda comp: comp[0]._seq)
        return comps
