"""Run-time invariants a healthy allocation stack must uphold.

These checkers read live state through the fabric's read-only hooks
(:meth:`~repro.simnet.fabric.FluidFabric.link_members` /
``link_used_rate`` / ``link_usable_capacity``) and the service's
:meth:`~repro.service.AllocationService.accounting` snapshot; none of
them mutates anything, so a probe mid-run cannot perturb the run it
is checking.

Fabric invariants (checked at every storm probe point):

* **sane rates** -- no flow has a negative or NaN rate, and no flow
  exceeds its application ``rate_cap``;
* **index agreement** -- on every topology link, the fabric's
  flow<->link index lists exactly the active flows whose path crosses
  it, in start order.  This pins the index's upkeep under real churn
  (slot recycling, buffer compaction, table remaps, reroutes), since
  every solve reads its components from that index;
* **capacity** -- on every link, the sum of member-flow rates equals
  the fabric's cached accumulator and stays within the scheduler's
  usable capacity;
* **work conservation** -- every flow below its demand limit is
  bottlenecked: some link on its path is saturated.  Leftover
  bandwidth with an unsatisfied flow means the allocator left work on
  the table;
* **no starvation** (weight-fair policies only) -- every in-flight
  flow makes progress.  Strict-priority baselines (Homa, Sincronia)
  legitimately gate low-priority flows to zero behind a saturated
  link, so the storm fuzzer disables this probe for them and relies
  on work conservation instead.

For *component-unsafe* policies (``fabric._component_safe`` False:
Homa, Sincronia), a link's usable capacity depends on the flows'
*remaining* bytes, which drain continuously between events while
rates are held piecewise-constant -- so usable capacity read at a
probe instant legitimately differs from its value at the last solve
(verified: a forced re-solve at the probe instant is exactly
work-conserving).  The usable-capacity-relative checks (over-capacity
and work conservation) would report that drift as violations, so for
those policies they degrade to a line-rate bound; the drift-free
checks (rate sanity, accumulator consistency, starvation) still
apply.

Service invariants (checked once per run against a client-side
request count):

* **conservation of requests** -- every request the client issued was
  counted exactly once: ``admitted + rejected == offered``;
* **index agreement** -- the per-app, per-tenant, and per-flow open
  connection indexes agree (a rejected or failed request must leak no
  state into any of them);
* **quiescence** -- after the run drains, no connection remains open.

Solver equivalence re-runs a scenario with the other solve scope
(full instead of component-scoped solves, or the reverse) and requires
identical completion sets with per-flow finish times agreeing to
``1e-9`` relative -- the same threshold the fabric bench enforces.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.simnet.fabric import FluidFabric

#: Relative tolerance for the physical checks; matches the fabric's
#: internal ``validate`` slack.
REL_TOL = 1e-6

#: Slack (relative to the link's line rate) below usable capacity at
#: which a link still counts as *saturated* for the work-conservation
#: probe.  Progressive residual filling stops once a round adds less
#: than ``tol=1e-4`` of the component's largest link capacity
#: (:func:`repro.simnet.fairness.network_rates`), so a bottleneck link
#: can legitimately sit up to that far below its usable capacity at
#: convergence; 10x margin keeps the probe quiet on solver slack while
#: still flagging real leftover bandwidth, which shows up at the scale
#: of whole flow demands.
SATURATION_SLACK = 1e-3

#: Relative tolerance for cross-solver completion agreement; matches
#: the solver bench's equivalence threshold.
EQUIV_REL_TOL = 1e-9


class InvariantViolation(ReproError):
    """A storm invariant probe failed.

    ``name`` is the stable machine-readable invariant id (e.g.
    ``"link_over_capacity"``); ``detail`` the human-readable evidence.
    """

    def __init__(self, name: str, detail: str) -> None:
        super().__init__(f"{name}: {detail}")
        self.name = name
        self.detail = detail


def check_fabric(
    fabric: FluidFabric,
    rel_tol: float = REL_TOL,
    conservation: bool = True,
    no_starvation: bool = True,
) -> None:
    """Check the physical invariants of a fabric's current allocation.

    Call only at a consistent instant -- after :meth:`FluidFabric.run`
    returns (rates are recomputed before the loop yields), never from
    inside a simulation callback where a recompute may be pending.
    """
    flows = fabric.active_flows

    for flow in flows:
        rate = flow.rate
        if not math.isfinite(rate) or rate < 0.0:
            raise InvariantViolation(
                "negative_rate",
                f"flow {flow.flow_id} ({flow.src}->{flow.dst}) has rate "
                f"{rate!r}",
            )
        cap = flow.demand_limit
        if rate > cap * (1.0 + rel_tol):
            raise InvariantViolation(
                "rate_cap_excess",
                f"flow {flow.flow_id} rate {rate:g} exceeds its rate_cap "
                f"{cap:g}",
            )

    on_path: Dict[str, List[int]] = {}
    for flow in flows:
        for lid in flow.path:
            on_path.setdefault(lid, []).append(flow.flow_id)
    for lid in sorted(fabric.topology.links):
        indexed = [f.flow_id for f in fabric.link_members(lid)]
        expected = on_path.get(lid, [])
        if indexed != expected:
            raise InvariantViolation(
                "link_index_drift",
                f"link {lid}: the flow index lists {indexed[:8]} but the "
                f"active flows crossing it are {expected[:8]}",
            )

    # Usable capacity is a stable reference only for component-safe
    # policies; see the module docstring for why remaining-dependent
    # schedulers fall back to the line-rate bound.
    stable_usable = getattr(fabric, "_component_safe", True)

    saturated: Dict[str, None] = {}
    for lid in sorted(on_path):
        members = fabric.link_members(lid)
        used = fabric.link_used_rate(lid)
        member_sum = sum(f.rate for f in members)
        scale = max(abs(used), abs(member_sum), 1.0)
        if abs(used - member_sum) > rel_tol * scale:
            raise InvariantViolation(
                "link_accumulator_drift",
                f"link {lid}: cached used rate {used:g} != member sum "
                f"{member_sum:g} over {len(members)} flows",
            )
        line_rate = fabric.topology.link_states[lid].link.capacity
        if stable_usable:
            limit = fabric.link_usable_capacity(lid)
            kind = "usable capacity"
        else:
            limit = line_rate
            kind = "line rate"
        if used > limit * (1.0 + rel_tol):
            raise InvariantViolation(
                "link_over_capacity",
                f"link {lid}: used {used:g} exceeds {kind} "
                f"{limit:g} ({len(members)} flows)",
            )
        if stable_usable and limit - used <= SATURATION_SLACK * line_rate:
            saturated[lid] = None

    for flow in flows:
        bottlenecked = any(lid in saturated for lid in flow.path)
        if no_starvation and flow.drain_rate <= 0.0:
            raise InvariantViolation(
                "starved_flow",
                f"flow {flow.flow_id} ({flow.src}->{flow.dst}, app "
                f"{flow.app!r}) makes no progress",
            )
        if not conservation or not stable_usable:
            continue
        demand_limited = flow.rate >= flow.demand_limit * (1.0 - rel_tol)
        if not demand_limited and not bottlenecked:
            raise InvariantViolation(
                "work_conservation",
                f"flow {flow.flow_id} ({flow.src}->{flow.dst}) runs at "
                f"{flow.rate:g} below its demand limit with no saturated "
                "link on its path",
            )


def check_service(
    service,
    offered: int,
    expect_idle: bool = False,
) -> None:
    """Check service admission accounting against the client's count.

    ``offered`` is the number of requests the *client* issued through
    the admission-controlled API (``health`` is exempt).  Every one of
    them must have been counted exactly once as admitted or rejected.
    """
    acct = service.accounting()
    counted = acct["admitted"] + acct["rejected"]
    if counted != offered:
        raise InvariantViolation(
            "request_conservation",
            f"admitted ({acct['admitted']}) + rejected "
            f"({acct['rejected']}) = {counted} != offered ({offered}); "
            "a request was dropped from the admission accounting",
        )
    open_flows = acct["open_flows"]
    if not (
        open_flows == acct["open_conns_app_total"]
        == acct["open_conns_tenant_total"]
    ):
        raise InvariantViolation(
            "open_conn_index_drift",
            f"open connection indexes disagree: per-flow {open_flows}, "
            f"per-app {acct['open_conns_app_total']}, per-tenant "
            f"{acct['open_conns_tenant_total']}",
        )
    if expect_idle and open_flows != 0:
        raise InvariantViolation(
            "leaked_connections",
            f"{open_flows} connection(s) still open after the run "
            "drained",
        )


def completions_of(fabric: FluidFabric) -> Dict[int, float]:
    """Finish time per completed flow id (cancelled flows included)."""
    out: Dict[int, float] = {}
    for flow in fabric.completed:
        assert flow.finish_time is not None
        out[flow.flow_id] = flow.finish_time
    return out


def check_completions_agree(
    reference: Dict[int, float],
    other: Dict[int, float],
    names: str = "reference/other",
    rel_tol: float = EQUIV_REL_TOL,
) -> float:
    """Require identical completion sets with matching finish times.

    Returns the maximum relative finish-time difference observed.
    """
    if set(reference) != set(other):
        only_ref = sorted(set(reference) - set(other))[:5]
        only_other = sorted(set(other) - set(reference))[:5]
        raise InvariantViolation(
            "completion_set_mismatch",
            f"{names}: flow sets differ (only-first {only_ref}, "
            f"only-second {only_other})",
        )
    worst = 0.0
    worst_fid: Optional[int] = None
    for fid, t_ref in reference.items():
        t_other = other[fid]
        diff = abs(t_ref - t_other) / max(abs(t_ref), abs(t_other), 1e-12)
        if diff > worst:
            worst = diff
            worst_fid = fid
    if worst > rel_tol:
        raise InvariantViolation(
            "solver_disagreement",
            f"{names}: flow {worst_fid} finish times differ by "
            f"{worst:.3e} relative (> {rel_tol:g})",
        )
    return worst


def violation_record(exc: InvariantViolation, time: float) -> Dict[str, object]:
    """JSON-ready record of one violation for storm reports."""
    return {"invariant": exc.name, "detail": exc.detail, "time": time}


__all__ = [
    "EQUIV_REL_TOL",
    "REL_TOL",
    "SATURATION_SLACK",
    "InvariantViolation",
    "check_completions_agree",
    "check_fabric",
    "check_service",
    "completions_of",
    "violation_record",
]
