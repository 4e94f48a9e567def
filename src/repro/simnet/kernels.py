"""Vectorized solver kernels: batched component solves on flat arrays.

The object solver (:mod:`repro.simnet.fairness`) walks dicts of Flow
objects; at hyperscale the interpreter loop dominates.  This module
re-implements the two solve algorithms as numpy array programs over a
:class:`repro.simnet.incidence.BatchCSR` incidence:

* :func:`solve_maxmin_prepared` -- exact progressive filling (the
  ``max_min_rates`` fast path for all-:class:`FairScheduler`
  components): freeze-iteration over per-link fill levels.
* :func:`solve_residual_prepared` -- progressive residual filling
  (``solve_component``'s weighted grant rounds plus the mop-up
  phase) for mixed fair/WFQ/strict-priority components.

Numeric contract (see DESIGN.md 5i): the kernels mirror the object
solver's *round structure* -- the same offers, the same
``tol``-scaled early stopping, the same retirement rules -- rather
than jumping to the mathematical fixpoint, so per-flow rates agree
with the object solver to floating-point reassociation noise
(~1e-15 relative per round; completions within ~1e-12 relative).
Water levels are computed per segment with padded 2-D cumulative
sums, so every per-segment result is *bit-identical* whether a
component is solved alone or inside a larger batch -- the property
the batched quantum solve relies on.

Many congestion components are solved in ONE kernel invocation:
components are concatenated along the flow/link/pair axes and every
reduction is a segment reduction (``np.minimum.reduceat`` /
``np.add.reduceat`` over contiguous per-link, per-flow, per-queue
and per-component segments).  Per-component convergence is a boolean
mask, so early-converging components simply stop contributing.

:func:`solve_components` is the fabric's entry point: it takes a
:class:`~repro.simnet.incidence.ComponentBatch` straight from the
flow index, extracts the per-link disciplines into a
:class:`PreparedBatch` and dispatches each component to the kernel
its disciplines need.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.simnet.fairness import LinkScheduler
from repro.simnet.flows import Flow
from repro.simnet.incidence import BatchCSR, ComponentBatch, _gather_ranges

_EPS = 1e-9  # matches fairness._EPS

_BIG = np.iinfo(np.int64).max

#: Per-link discipline codes in a :class:`PreparedBatch`.
_KIND_FAIR, _KIND_WFQ, _KIND_PRIO = 0, 1, 2

#: Padded work-array cell budget; components whose (links x max
#: members-per-link) size exceeds it are left to the object solver
#: rather than allocating a huge 2-D array.
PAD_CELL_LIMIT = 32_000_000


@dataclass
class PreparedBatch:
    """A batch of components marshalled for one kernel invocation.

    ``csr`` is the flattened incidence; ``caps`` (per link axis entry)
    and ``limit`` (per flow axis entry) carry the derated usable
    capacities and demand limits.  For mixed-discipline batches,
    ``kind`` holds the per-link discipline (``_KIND_FAIR`` /
    ``_KIND_WFQ`` / ``_KIND_PRIO``), and ``qid`` / ``qweight`` the
    per-*pair* queue (or priority class) id and WFQ weight in the
    CSR's link-major pair order; all-fair batches leave them ``None``.
    """

    csr: BatchCSR
    caps: np.ndarray
    limit: np.ndarray
    kind: Optional[np.ndarray] = None
    qid: Optional[np.ndarray] = None
    qweight: Optional[np.ndarray] = None


def solve_components(
    batch: ComponentBatch,
    caps: np.ndarray,
    schedulers: Sequence[LinkScheduler],
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Solve a batch of congestion components on the kernels.

    ``caps`` (derated usable capacity) and ``schedulers`` run along
    the batch's link axis.  Components whose links are all
    uniform-fair take the exact progressive-filling kernel (mirroring
    ``max_min_rates``); the rest take the residual-filling kernel
    (mirroring ``solve_component``'s weighted rounds + mop-up) -- the
    split the object ``solve_component`` makes.  A component with a
    scheduler that has no kernel form, or whose padded work arrays
    would exceed :data:`PAD_CELL_LIMIT`, is not solved: it is left to
    the object solver.

    Returns the rates over the batch flow axis (zero on unsolved
    components), the per-component solved mask, and the wall seconds
    spent inside the kernels themselves.
    """
    csr = batch.csr
    n_comps = batch.n_comps
    solved = batch.padded_cells_per_comp() <= PAD_CELL_LIMIT
    kind = np.zeros(csr.n_links, dtype=np.int8)
    qid = np.zeros(csr.n_pairs, dtype=np.int64)
    qweight = np.zeros(csr.n_pairs)
    comp_fair = np.ones(n_comps, dtype=bool)
    nonfair = [
        (li, scheduler) for li, scheduler in enumerate(schedulers)
        if not getattr(scheduler, "uniform_fair", False)
    ]
    if nonfair:
        comp_fair[
            csr.comp_of_link[np.array([li for li, _ in nonfair])]
        ] = False
        _extract_specs(batch, nonfair, solved, kind, qid, qweight)
    limit = batch.incidence.table.limit[batch.slots]
    rates = np.zeros(csr.n_flows)
    seconds = 0.0
    for sel, disciplines in (
        (np.flatnonzero(solved & comp_fair), False),
        (np.flatnonzero(solved & ~comp_fair), True),
    ):
        if not len(sel):
            continue
        flow_idx: Optional[np.ndarray] = None
        if len(sel) == n_comps:
            prepared = PreparedBatch(
                csr=csr, caps=caps, limit=limit, kind=kind, qid=qid,
                qweight=qweight,
            )
        else:
            sub = batch.select(sel)
            assert sub.parent_flow_idx is not None
            assert sub.parent_link_idx is not None
            assert sub.parent_pair_idx is not None
            flow_idx = sub.parent_flow_idx
            prepared = PreparedBatch(
                csr=sub.csr,
                caps=caps[sub.parent_link_idx],
                limit=limit[flow_idx],
                kind=kind[sub.parent_link_idx],
                qid=qid[sub.parent_pair_idx],
                qweight=qweight[sub.parent_pair_idx],
            )
        t0 = time.perf_counter()
        out = (
            solve_residual_prepared(prepared)
            if disciplines
            else solve_maxmin_prepared(prepared)
        )
        seconds += time.perf_counter() - t0
        if flow_idx is None:
            rates = out
        else:
            rates[flow_idx] = out
    return rates, solved, seconds


def _elementwise_entry(
    scheduler: LinkScheduler, batch_flows: List[Flow],
) -> Optional[Tuple[int, Optional[np.ndarray], Optional[np.ndarray]]]:
    """One elementwise scheduler's spec over the batch flow axis.

    Returns ``(kind code, per-flow group ids, per-flow weights)``,
    or ``None`` when the scheduler has no kernel form.  Weight values
    are computed exactly as the per-link extraction does (``weights[q]``
    per member), so gathering sublists from these arrays reproduces
    the per-link arrays bit for bit.
    """
    extract = getattr(scheduler, "kernel_spec", None)
    if extract is None:
        return None
    spec = extract(batch_flows)
    if spec is None:
        return None
    skind, ids, weights = spec
    if skind == "fair":
        return (_KIND_FAIR, None, None)
    if skind == "wfq":
        assert ids is not None and weights is not None
        return (
            _KIND_WFQ,
            np.asarray(ids, dtype=np.int64),
            np.array([weights[q] for q in ids], dtype=np.float64),
        )
    if skind == "prio":
        assert ids is not None
        return (_KIND_PRIO, np.asarray(ids, dtype=np.int64), None)
    raise SimulationError(f"unknown kernel spec kind {skind!r}")


def _extract_specs(
    batch: ComponentBatch,
    nonfair: List[Tuple[int, LinkScheduler]],
    solved: np.ndarray,
    kind: np.ndarray,
    qid: np.ndarray,
    qweight: np.ndarray,
) -> None:
    """Fill the discipline arrays for non-uniform-fair links.

    Elementwise schedulers (``kernel_spec_elementwise``: group id and
    weight are pure functions of the flow) are extracted once per
    scheduler instance over the whole batch flow axis and gathered
    into the pair-axis arrays -- per-link group lists are sublists of
    the per-flow mapping, so the values are identical to per-link
    extraction.  Non-elementwise schedulers keep the per-link
    ``kernel_spec`` call; a scheduler with no kernel form clears its
    component's ``solved`` entry.
    """
    csr = batch.csr
    pair_flow = csr.pair_flow
    link_starts = csr.link_starts
    link_counts = csr.link_counts
    comp_of_link = csr.comp_of_link
    flow_of = batch.incidence.table.flow_of
    batch_flows: Optional[List[Flow]] = None

    def all_flows() -> List[Flow]:
        nonlocal batch_flows
        if batch_flows is None:
            batch_flows = []
            for slot in batch.slots.tolist():
                flow = flow_of[slot]
                assert flow is not None
                batch_flows.append(flow)
        return batch_flows

    # Fast path: every non-fair link shares one elementwise scheduler
    # (the common policy shape -- a single WFQ/priority instance
    # fabric-wide) -> whole-axis gathers, no per-link Python work.
    first = nonfair[0][1]
    if getattr(first, "kernel_spec_elementwise", False) and all(
        sched is first for _, sched in nonfair
    ):
        entry = _elementwise_entry(first, all_flows())
        if entry is None:
            for li, _ in nonfair:
                solved[int(comp_of_link[li])] = False
            return
        kcode, flow_qid, flow_qw = entry
        if kcode == _KIND_FAIR:
            return
        if len(nonfair) == csr.n_links:
            kind[:] = kcode
            assert flow_qid is not None
            qid[:] = flow_qid[pair_flow]
            if flow_qw is not None:
                qweight[:] = flow_qw[pair_flow]
        else:
            lis = np.array([li for li, _ in nonfair], dtype=np.int64)
            pos = _gather_ranges(link_starts[lis], link_counts[lis])
            kind[lis] = kcode
            assert flow_qid is not None
            sub_pf = pair_flow[pos]
            qid[pos] = flow_qid[sub_pf]
            if flow_qw is not None:
                qweight[pos] = flow_qw[sub_pf]
        return

    cache: Dict[
        int, Optional[Tuple[int, Optional[np.ndarray], Optional[np.ndarray]]]
    ] = {}
    for li, scheduler in nonfair:
        start = int(link_starts[li])
        n = int(link_counts[li])
        if getattr(scheduler, "kernel_spec_elementwise", False):
            sid = id(scheduler)
            if sid in cache:
                entry = cache[sid]
            else:
                entry = _elementwise_entry(scheduler, all_flows())
                cache[sid] = entry
            if entry is None:
                solved[int(comp_of_link[li])] = False
                continue
            kcode, flow_qid, flow_qw = entry
            if kcode == _KIND_FAIR:
                continue
            pf = pair_flow[start : start + n]
            kind[li] = kcode
            assert flow_qid is not None
            qid[start : start + n] = flow_qid[pf]
            if flow_qw is not None:
                qweight[start : start + n] = flow_qw[pf]
            continue
        extract = getattr(scheduler, "kernel_spec", None)
        spec = extract(batch.members(li)) if extract is not None else None
        if spec is None:
            # A scheduler without a kernel form: this component falls
            # back to the object solver.
            solved[int(comp_of_link[li])] = False
            continue
        skind, ids, weights = spec
        if skind == "fair":
            continue
        if skind == "wfq":
            assert ids is not None and weights is not None
            kind[li] = _KIND_WFQ
            qid[start : start + n] = ids
            qweight[start : start + n] = [weights[q] for q in ids]
        elif skind == "prio":
            assert ids is not None
            kind[li] = _KIND_PRIO
            qid[start : start + n] = ids
        else:  # pragma: no cover
            raise SimulationError(f"unknown kernel spec kind {skind!r}")


# ---------------------------------------------------------------------------
# shared water-level primitives (padded per-segment cumulative sums)
# ---------------------------------------------------------------------------


def _fill_levels(
    rows: np.ndarray,
    cols: np.ndarray,
    shape: Tuple[int, int],
    vals: np.ndarray,
    active: np.ndarray,
    caps_row: np.ndarray,
) -> np.ndarray:
    """Water level per row: the theta with ``sum_active min(v, theta)
    = min(cap, sum_active v)``.

    ``vals``/``active`` are flat element arrays scattered to
    ``(rows, cols)``; active elements must appear in ascending value
    order along each row (inactive elements may be interspersed --
    they contribute nothing).  Returns theta per row; ``+inf`` means
    every active element is satisfiable within ``cap``.  Rows with
    ``cap <= 0`` are the caller's job (object ``water_fill`` returns
    zeros there).  All arithmetic is row-local, so results are
    independent of which other rows share the batch.
    """
    n_rows = shape[0]
    act = active.astype(np.float64)
    V = np.zeros(shape)
    A = np.zeros(shape)
    Vraw = np.full(shape, np.inf)
    M = np.zeros(shape, dtype=bool)
    V[rows, cols] = np.where(active, vals, 0.0)
    A[rows, cols] = act
    Vraw[rows, cols] = vals
    M[rows, cols] = active
    cumV = np.cumsum(V, axis=1)
    cumA = np.cumsum(A, axis=1)
    totN = cumA[:, -1]
    # Exclusive prefix sums by shifting (not cumV - V: an infinite
    # demand would produce inf - inf = NaN at its own position).
    exclV = np.zeros(shape)
    exclV[:, 1:] = cumV[:, :-1]
    exclN = np.zeros(shape)
    exclN[:, 1:] = cumA[:, :-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = (caps_row[:, None] - exclV) / (totN[:, None] - exclN)
    valid = M & (theta < Vraw)
    any_valid = valid.any(axis=1)
    first = np.argmax(valid, axis=1)
    levels = np.where(any_valid, theta[np.arange(n_rows), first], np.inf)
    return levels


def _weighted_levels(
    rows: np.ndarray,
    cols: np.ndarray,
    shape: Tuple[int, int],
    demands: np.ndarray,
    weights: np.ndarray,
    norm: np.ndarray,
    caps_row: np.ndarray,
) -> np.ndarray:
    """Weighted water level per row: theta with ``sum min(D, theta*w)
    = min(cap, sum D)`` over positive-weight entries.

    ``norm`` is ``D / w`` (the normalized demand); entries must be
    scattered in ascending ``norm`` order along each row.  Returns
    theta per row (``+inf`` = all satisfiable).
    """
    n_rows = shape[0]
    D = np.zeros(shape)
    W = np.zeros(shape)
    Nraw = np.full(shape, np.inf)
    M = np.zeros(shape, dtype=bool)
    D[rows, cols] = demands
    W[rows, cols] = weights
    Nraw[rows, cols] = norm
    M[rows, cols] = True
    cumD = np.cumsum(D, axis=1)
    cumW = np.cumsum(W, axis=1)
    totW = cumW[:, -1]
    exclD = np.zeros(shape)
    exclD[:, 1:] = cumD[:, :-1]
    exclW = np.zeros(shape)
    exclW[:, 1:] = cumW[:, :-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = (caps_row[:, None] - exclD) / (totW[:, None] - exclW)
    valid = M & (theta < Nraw)
    any_valid = valid.any(axis=1)
    first = np.argmax(valid, axis=1)
    levels = np.where(any_valid, theta[np.arange(n_rows), first], np.inf)
    return levels


# ---------------------------------------------------------------------------
# exact progressive filling (all-FairScheduler components)
# ---------------------------------------------------------------------------


def solve_maxmin_prepared(prepared: PreparedBatch) -> np.ndarray:
    """Batched mirror of ``max_min_rates`` (unit weights).

    Freeze iteration: each pass computes every link's fill level
    (headroom / unfrozen flow count), picks per component the first
    link within ``_EPS`` of the minimum level (matching the object
    scan's hysteresis on ties), freezes demand-capped flows first
    and otherwise the bottleneck link's flows, then subtracts the
    frozen rates from link headrooms.  Every pass freezes at least
    one flow per live component, so at most ``n_flows`` passes run.
    Returns the rate array over the batch's flow axis.
    """
    csr = prepared.csr
    caps = prepared.caps
    limit = prepared.limit
    F, L = csr.n_flows, csr.n_links
    rates = np.zeros(F)
    unfrozen = np.ones(F, dtype=bool)
    headroom = caps.copy()
    link_arange = np.arange(L, dtype=np.int64)
    for _ in range(F + 1):
        if not unfrozen.any():
            break
        uf_pair = unfrozen[csr.pair_flow].astype(np.float64)
        link_n = np.add.reduceat(uf_pair, csr.link_starts)
        with np.errstate(divide="ignore", invalid="ignore"):
            level = np.where(link_n > 0, headroom / link_n, np.inf)
        m = np.minimum.reduceat(level, csr.comp_link_starts)
        # Bottleneck selection with the object solver's tie hysteresis:
        # the first link whose level is within _EPS of the component
        # minimum (the sequential scan only re-anchors on a strict
        # _EPS improvement, so it settles on an early near-minimal
        # link rather than the exact argmin).  The explicit
        # ``level <= m`` term keeps the exact minimum eligible when
        # ``m`` is large enough that ``m + _EPS`` rounds back to ``m``
        # (fabric capacities are O(1e9); one ulp is ~1e-7 there).
        mc = m[csr.comp_of_link]
        near = (link_n > 0) & ((level <= mc) | (level < mc + _EPS))
        pos = np.where(near, link_arange, _BIG)
        bn = np.minimum.reduceat(pos, csr.comp_link_starts)
        live = bn < _BIG
        best = np.where(live, level[np.minimum(bn, L - 1)], np.inf)
        best_f = best[csr.comp_of_flow]
        # No live bottleneck (object scan: ``bottleneck is None``)
        # means the component is finished -- nothing may be capped
        # there, or infinite demand limits would "cap" at inf.
        capped = unfrozen & live[csr.comp_of_flow] & (limit <= best_f + _EPS)
        has_capped = np.add.reduceat(
            capped.astype(np.float64), csr.comp_flow_starts
        ) > 0
        rates = np.where(capped, np.minimum(limit, best_f), rates)
        # Components with capped flows re-derive the bottleneck next
        # pass; the rest freeze the bottleneck link's flows at the
        # fill level.
        on_bn = csr.pair_link == bn[csr.comp_of_link[csr.pair_link]]
        sel = on_bn & unfrozen[csr.pair_flow]
        sel &= ~has_capped[csr.comp_of_flow[csr.pair_flow]]
        bottlenecked = np.zeros(F, dtype=bool)
        bottlenecked[csr.pair_flow[sel]] = True
        rates = np.where(bottlenecked, best_f, rates)
        frozen_now = capped | bottlenecked
        if not frozen_now.any():
            break
        unfrozen &= ~frozen_now
        dec = np.add.reduceat(
            np.where(frozen_now[csr.pair_flow], rates[csr.pair_flow], 0.0),
            csr.link_starts,
        )
        headroom = np.maximum(0.0, headroom - dec)
    else:  # pragma: no cover - progress is guaranteed each pass
        if unfrozen.any():
            raise SimulationError("max-min kernel failed to converge")
    return rates


# ---------------------------------------------------------------------------
# progressive residual filling (mixed fair/WFQ/priority components)
# ---------------------------------------------------------------------------


class _ResidualBatch:
    """Static layout + per-round state for the residual-filling kernel.

    The canonical pair order is *qsort order*: pairs sorted by
    (link, queue/class id, member demand limit), stable.  Link and
    queue-segment ("qseg": one (link, queue) or (link, class) group)
    boundaries are contiguous in that order, and within a qseg pairs
    ascend by demand limit -- exactly the order the padded water-fill
    needs, so the expensive sort happens once per solve, not per
    round.  (The mop-up phase sorts by *headroom*, which changes per
    round, so it re-sorts each round -- in C, via lexsort.)
    """

    def __init__(self, prepared: PreparedBatch) -> None:
        csr = prepared.csr
        self.csr = csr
        F, L, P = csr.n_flows, csr.n_links, csr.n_pairs
        self.caps = prepared.caps
        self.limit = prepared.limit
        kind = prepared.kind
        qid = prepared.qid
        weight = prepared.qweight
        if kind is None or qid is None or weight is None:
            raise SimulationError(
                "residual kernel requires discipline arrays"
            )
        self.kind = kind
        # --- canonical qsort pair order --------------------------------
        lim_pair = self.limit[csr.pair_flow]
        qsort = np.lexsort((lim_pair, qid, csr.pair_link))
        inv = np.empty(P, dtype=np.int64)
        inv[qsort] = np.arange(P, dtype=np.int64)
        self.pf = csr.pair_flow[qsort]
        self.pl = csr.pair_link[qsort]
        self.plim = self.limit[self.pf]
        qid_q = qid[qsort]
        w_q = weight[qsort]
        # Link segments keep their offsets (qsort is stable with link
        # as the primary key and pairs were built link-major).
        self.link_starts = csr.link_starts
        self.link_counts = csr.link_counts
        self.link_rep = np.repeat(self.link_starts, self.link_counts)
        # --- qseg layout ----------------------------------------------
        arangeP = np.arange(P, dtype=np.int64)
        new_seg = np.ones(P, dtype=bool)
        if P > 1:
            new_seg[1:] = (self.pl[1:] != self.pl[:-1]) | (qid_q[1:] != qid_q[:-1])
        self.qrow = np.cumsum(new_seg) - 1  # qseg index per pair
        qseg_starts = arangeP[new_seg]
        Q = len(qseg_starts)
        self.qseg_starts = qseg_starts
        self.qseg_counts = np.diff(np.append(qseg_starts, P))
        self.qcol = arangeP - np.repeat(qseg_starts, self.qseg_counts)
        self.qseg_link = self.pl[qseg_starts]
        self.qseg_qid = qid_q[qseg_starts]
        self.qseg_kind = kind[self.qseg_link]
        self.qseg_weight = w_q[qseg_starts]
        self.Q = Q
        self.maxq = int(self.qseg_counts.max()) if Q else 0
        self.fairwfq_pair = kind[self.pl] != _KIND_PRIO
        # --- WFQ queue-level layout -----------------------------------
        self.wfq_links = np.where(kind == _KIND_WFQ)[0]
        self.nW = len(self.wfq_links)
        wrow_of_link = np.full(L, -1, dtype=np.int64)
        wrow_of_link[self.wfq_links] = np.arange(self.nW, dtype=np.int64)
        is_wfq_qseg = self.qseg_kind == _KIND_WFQ
        self.posq = np.where(is_wfq_qseg & (self.qseg_weight > 0))[0]
        self.zeroq = np.where(is_wfq_qseg & (self.qseg_weight == 0))[0]
        self.pos_row = wrow_of_link[self.qseg_link[self.posq]]
        self.zero_row = wrow_of_link[self.qseg_link[self.zeroq]]
        if self.nW:
            pos_counts = np.bincount(self.pos_row, minlength=self.nW)
            zero_counts = np.bincount(self.zero_row, minlength=self.nW)
            pos_off = np.concatenate(([0], np.cumsum(pos_counts)[:-1]))
            zero_off = np.concatenate(([0], np.cumsum(zero_counts)[:-1]))
            self.pos_rep = np.repeat(pos_off, pos_counts)
            self.zero_rep = np.repeat(zero_off, zero_counts)
            self.max_pos = int(pos_counts.max()) if len(self.posq) else 0
            self.max_zero = int(zero_counts.max()) if len(self.zeroq) else 0
        # --- strict-priority per-class layout -------------------------
        prio_q = np.where(self.qseg_kind == _KIND_PRIO)[0]
        self.prio_links = np.where(kind == _KIND_PRIO)[0]
        prow_of_link = np.full(L, -1, dtype=np.int64)
        prow_of_link[self.prio_links] = np.arange(len(self.prio_links))
        # Per class (ascending): this class's qsegs, their prio-link
        # rows, the member-pair indices (qsort order) and each pair's
        # (local row, col) in the class's padded fill -- all static.
        self.prio_classes: List[
            Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]
        ] = []
        for cls in np.unique(self.qseg_qid[prio_q]):
            qsegs_c = prio_q[self.qseg_qid[prio_q] == cls]
            rows_c = prow_of_link[self.qseg_link[qsegs_c]]
            counts_c = self.qseg_counts[qsegs_c]
            pair_idx = np.concatenate(
                [
                    np.arange(s, s + n, dtype=np.int64)
                    for s, n in zip(self.qseg_starts[qsegs_c], counts_c)
                ]
            )
            rows_pair = np.repeat(
                np.arange(len(qsegs_c), dtype=np.int64), counts_c
            )
            cols_pair = self.qcol[pair_idx]
            self.prio_classes.append(
                (qsegs_c, rows_c, pair_idx, rows_pair, cols_pair, int(counts_c.max()))
            )
        # --- per-flow path reductions ---------------------------------
        # flow_perm groups pairs flow-major in the ORIGINAL link-major
        # order; compose with inv to gather from qsort-ordered arrays.
        self.flow_gather = inv[csr.flow_perm]
        self.flow_starts = csr.flow_starts
        self.fm_link = csr.pair_link[csr.flow_perm]
        # --- per-component tolerances (tol * largest link cap) --------
        self._max_cap = np.maximum.reduceat(self.caps, csr.comp_link_starts)
        self.eps_c = self._max_cap.copy()
        self.eps_f = self.eps_c[csr.comp_of_flow]
        self.eps_l = self.eps_c[csr.comp_of_link]

    def set_tol(self, tol: float) -> None:
        self.eps_c = self._max_cap * tol
        self.eps_f = self.eps_c[self.csr.comp_of_flow]
        self.eps_l = self.eps_c[self.csr.comp_of_link]

    # -- per-qseg target allocation (the scheduler `allocate` mirror) --

    def _qseg_caps(self, g_pair: np.ndarray, usable: np.ndarray) -> np.ndarray:
        """Capacity granted to each qseg this round: the full usable
        capacity for fair links, the weighted-water-fill share for
        WFQ queues; priority qsegs are filled in the class loop."""
        qcap = np.zeros(self.Q)
        fair = self.qseg_kind == _KIND_FAIR
        qcap[fair] = usable[self.qseg_link[fair]]
        if self.nW:
            D_q = np.add.reduceat(np.where(g_pair, self.plim, 0.0), self.qseg_starts)
            cap_w = usable[self.wfq_links]
            if len(self.posq):
                D = D_q[self.posq]
                W = self.qseg_weight[self.posq]
                with np.errstate(divide="ignore", invalid="ignore"):
                    norm = np.where(W > 0, D / W, np.inf)
                order = np.lexsort((norm, self.pos_row))
                cols = np.arange(len(self.posq), dtype=np.int64) - self.pos_rep
                theta = _weighted_levels(
                    self.pos_row[order],
                    cols,
                    (self.nW, self.max_pos),
                    D[order],
                    W[order],
                    norm[order],
                    cap_w,
                )
                tq = theta[self.pos_row]
                with np.errstate(invalid="ignore"):
                    alloc = np.where(
                        np.isfinite(tq), np.minimum(D, tq * W), D
                    )
                alloc = np.where(cap_w[self.pos_row] > 0, alloc, 0.0)
                qcap[self.posq] = alloc
                claimed = np.bincount(self.pos_row, weights=alloc, minlength=self.nW)
            else:
                claimed = np.zeros(self.nW)
            if len(self.zeroq):
                # Zero-weight queues split whatever the weighted fill
                # left behind, per-queue fair (object solver's final
                # unweighted fill over the leftovers).
                left = cap_w - claimed
                left = np.where(left > _EPS, left, 0.0)
                Dz = D_q[self.zeroq]
                order = np.lexsort((Dz, self.zero_row))
                cols = np.arange(len(self.zeroq), dtype=np.int64) - self.zero_rep
                theta = _fill_levels(
                    self.zero_row[order],
                    cols,
                    (self.nW, self.max_zero),
                    Dz[order],
                    np.ones(len(self.zeroq), dtype=bool),
                    left,
                )
                tz = theta[self.zero_row]
                allocz = np.where(np.isfinite(tz), np.minimum(Dz, tz), Dz)
                qcap[self.zeroq] = np.where(left[self.zero_row] > 0, allocz, 0.0)
        return qcap

    def _qseg_theta(self, g_pair: np.ndarray, qcap: np.ndarray) -> np.ndarray:
        """Per-qseg water level over candidate members, given qseg
        capacities (fair + WFQ qsegs in one padded fill)."""
        active = g_pair & self.fairwfq_pair
        return _fill_levels(
            self.qrow,
            self.qcol,
            (self.Q, self.maxq),
            self.plim,
            active,
            qcap,
        )

    def _prio_fill(
        self,
        g_pair: np.ndarray,
        usable: np.ndarray,
        qcap: np.ndarray,
        theta_q: np.ndarray,
    ) -> None:
        """Strict-priority links: classes ascending, each class
        water-fills what the previous classes left (mirrors
        ``PriorityScheduler.allocate``); writes qcap/theta in place."""
        if not len(self.prio_links):
            return
        rem = usable[self.prio_links].copy()
        for qsegs_c, rows_c, pair_idx, rows_pair, cols_pair, max_c in self.prio_classes:
            caps_c = rem[rows_c]
            lim_c = self.plim[pair_idx]
            g_c = g_pair[pair_idx]
            theta_c = _fill_levels(
                rows_pair,
                cols_pair,
                (len(qsegs_c), max_c),
                lim_c,
                g_c,
                caps_c,
            )
            qcap[qsegs_c] = caps_c
            theta_q[qsegs_c] = theta_c
            tp = theta_c[rows_pair]
            alloc = np.where(
                g_c & (caps_c[rows_pair] > 0),
                np.where(np.isfinite(tp), np.minimum(lim_c, tp), lim_c),
                0.0,
            )
            per_qseg = np.bincount(rows_pair, weights=alloc, minlength=len(qsegs_c))
            served = np.bincount(rows_c, weights=per_qseg, minlength=len(rem))
            rem = rem - served
            rem = np.where(rem <= _EPS, 0.0, rem)


def solve_residual_prepared(
    prepared: PreparedBatch,
    max_rounds: int = 80,
    tol: float = 1e-4,
) -> np.ndarray:
    """Batched mirror of ``solve_component`` for mixed disciplines.

    Returns the rate array over the prepared batch's flow axis.
    """
    b = _ResidualBatch(prepared)
    b.set_tol(tol)
    csr = b.csr
    F, L = csr.n_flows, csr.n_links
    rate = np.zeros(F)
    used = np.zeros(L)
    growing = np.ones(F, dtype=bool)
    arangeP = np.arange(csr.n_pairs, dtype=np.int64)

    def run_rounds(mopup: bool) -> None:
        nonlocal rate, used
        comp_live = np.ones(len(csr.comp_flow_starts), dtype=bool)
        for _ in range(max_rounds):
            if not growing.any():
                return
            g_pair = growing[b.pf]
            residual = np.maximum(0.0, b.caps - used)
            if mopup:
                # Leftover capacity, per-flow fair over remaining
                # headroom (re-sorted per round: headroom changes).
                head = b.plim - rate[b.pf]
                order = np.lexsort((head, b.pl))
                cols = arangeP - b.link_rep
                theta_l = _fill_levels(
                    b.pl[order],
                    cols,
                    (L, int(b.link_counts.max())),
                    head[order],
                    g_pair[order],
                    residual,
                )
                tl = theta_l[b.pl]
                offers = np.where(
                    g_pair & (residual[b.pl] > 0),
                    np.where(np.isfinite(tl), np.minimum(head, tl), head),
                    0.0,
                )
            else:
                # Discipline targets minus current holdings, with the
                # round's total hand-out capped at the link residual.
                blocked = np.add.reduceat(
                    np.where(g_pair, 0.0, rate[b.pf]), b.link_starts
                )
                usable = np.maximum(0.0, b.caps - blocked)
                qcap = b._qseg_caps(g_pair, usable)
                theta_q = b._qseg_theta(g_pair, qcap)
                b._prio_fill(g_pair, usable, qcap, theta_q)
                tp = theta_q[b.qrow]
                target = np.where(
                    g_pair & (qcap[b.qrow] > 0),
                    np.where(np.isfinite(tp), np.minimum(b.plim, tp), b.plim),
                    0.0,
                )
                offers = np.where(g_pair, np.maximum(0.0, target - rate[b.pf]), 0.0)
                total = np.add.reduceat(offers, b.link_starts)
                over = (total > residual) & (total > 0.0)
                factor = np.where(over, residual / np.where(over, total, 1.0), 1.0)
                offers = offers * factor[b.pl]
            extra = np.minimum.reduceat(offers[b.flow_gather], b.flow_starts)
            granted = growing & (extra > 0.0)
            if not granted.any():
                return
            gext = np.where(granted, extra, 0.0)
            rate += gext
            added = np.maximum.reduceat(gext, csr.comp_flow_starts)
            inc = np.add.reduceat(gext[b.pf], b.link_starts)
            used += inc
            growing[granted & (rate >= b.limit - b.eps_f)] = False
            sat = (inc > 0.0) & (used >= b.caps - b.eps_l)
            retire = sat[b.pl] & growing[b.pf]
            growing[b.pf[retire]] = False
            comp_live &= added > b.eps_c
            np.logical_and(growing, comp_live[csr.comp_of_flow], out=growing)

    run_rounds(mopup=False)
    # Work-conserving mop-up: flows under their cap with no saturated
    # link on their path share the leftovers per-flow fair.
    sat_now = used >= b.caps - b.eps_l
    path_ok = np.logical_and.reduceat(~sat_now[b.fm_link], b.flow_starts)
    np.logical_and(rate < b.limit - b.eps_f, path_ok, out=growing)
    run_rounds(mopup=True)
    return rate
