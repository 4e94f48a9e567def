"""Sim-clock-driven fault injection for the RPC layer.

The :class:`FaultInjector` realises a :class:`~repro.faults.spec.
FaultPlan` against one simulated clock.  It deliberately schedules
*nothing* on the event engine: crash windows are a lazily-extended,
seeded renewal sequence evaluated at query time, so an idle fabric
drains its event queue exactly as it would without faults, and a
no-fault run never touches the injector at all.  Recovery-driven work
(the Saba library's re-registration queue) is instead scheduled
*reactively* by the caller, using the ``recover_at`` carried on
:class:`~repro.core.rpc.RpcUnavailable`.

Determinism: every draw comes from per-target RNG streams seeded from
``(plan.seed, target, purpose)``, and the per-call stream is consumed
in call order -- which the single-threaded event engine makes
reproducible.  Each call consumes a *fixed* number of draws (one per
configured per-call fault), so the schedule of one fault kind is
independent of another kind's outcomes.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import FaultError
from repro.faults.spec import (
    KIND_CRASH,
    KIND_LATENCY,
    KIND_LINK_DOWN,
    KIND_LOSS,
    KIND_STALL,
    FaultPlan,
    FaultSpec,
)
from repro.obs.events import (
    FAULT_CRASH,
    FAULT_INJECTED,
    FAULT_RECOVER,
    NULL_OBSERVER,
    Observer,
)


@dataclass(frozen=True)
class CallFate:
    """What the fault model decided for one RPC attempt."""

    #: Endpoint is crashed; unreachable until this simulated time.
    down_until: Optional[float] = None
    #: Request dropped in the network (handler never runs).
    lost: bool = False
    #: Round-trip transit latency (seconds of control-plane time).
    latency: float = 0.0
    #: Extra handler-side delay before the reply is sent.
    stall: float = 0.0


#: Shared fate for targets without faults (the common case).
CLEAN_FATE = CallFate()


class _CrashTimeline:
    """Lazily generated down windows for one target.

    Stochastic mode alternates up ~ Exp(mtbf) and down ~ Exp(mttr)
    holds starting at ``spec.start``; explicit mode uses the spec's
    scripted windows.  Windows are half-open ``[start, end)``: at
    exactly ``end`` the endpoint is up again, so a drain scheduled at
    ``recover_at`` always finds a live endpoint.
    """

    def __init__(self, spec: FaultSpec, rng: random.Random) -> None:
        self._rng = rng
        self._mtbf = spec.mtbf
        self._mttr = spec.mttr
        self._explicit = bool(spec.windows)
        self._windows: List[Tuple[float, float]] = list(spec.windows)
        self._starts: List[float] = [w[0] for w in self._windows]
        self._cursor = spec.start  # end of the generated timeline

    @property
    def explicit(self) -> bool:
        """True for scripted windows (a finite schedule)."""
        return self._explicit

    def _generate_one(self) -> None:
        down_at = self._cursor + self._rng.expovariate(1.0 / self._mtbf)
        up_at = down_at + self._rng.expovariate(1.0 / self._mttr)
        self._windows.append((down_at, up_at))
        self._starts.append(down_at)
        self._cursor = up_at

    def _extend(self, t: float) -> None:
        if self._explicit:
            return
        while self._cursor <= t:
            self._generate_one()

    def window_at(self, t: float) -> Optional[Tuple[float, float]]:
        """The down window covering ``t``, if any."""
        self._extend(t)
        i = bisect_right(self._starts, t) - 1
        if i >= 0:
            start, end = self._windows[i]
            if start <= t < end:
                return (start, end)
        return None

    def next_window(self, after: float) -> Optional[Tuple[float, float]]:
        """First down window with ``start >= after`` (``None`` when a
        scripted schedule is exhausted).

        Windows are generated in timeline order by the same draws as
        :meth:`window_at`, so interleaving the two query styles yields
        one consistent schedule.
        """
        if not self._explicit:
            while not self._starts or self._starts[-1] < after:
                self._generate_one()
        i = bisect_left(self._starts, after)
        if i < len(self._windows):
            return self._windows[i]
        return None


class _TargetFaults:
    """All fault state for one endpoint."""

    __slots__ = ("crash", "loss_prob", "mean_latency", "stall_prob",
                 "stall_duration", "per_call_start", "loss_rng",
                 "latency_rng", "stall_rng", "observed_down",
                 "last_window")

    def __init__(self, target: str, specs: List[FaultSpec],
                 seed: int) -> None:
        self.crash: Optional[_CrashTimeline] = None
        self.loss_prob = 0.0
        self.mean_latency = 0.0
        self.stall_prob = 0.0
        self.stall_duration = 0.0
        self.per_call_start = 0.0
        # One stream per fault kind: adding or removing one kind on a
        # target never perturbs another kind's schedule.
        self.loss_rng = random.Random(f"faults:{seed}:{target}:loss")
        self.latency_rng = random.Random(f"faults:{seed}:{target}:latency")
        self.stall_rng = random.Random(f"faults:{seed}:{target}:stall")
        self.observed_down = False
        self.last_window: Optional[Tuple[float, float]] = None
        for spec in specs:
            if spec.kind == KIND_CRASH:
                self.crash = _CrashTimeline(
                    spec,
                    random.Random(f"faults:{seed}:{target}:crash"),
                )
            elif spec.kind == KIND_LOSS:
                self.loss_prob = spec.prob
                self.per_call_start = max(self.per_call_start, spec.start)
            elif spec.kind == KIND_LATENCY:
                self.mean_latency = spec.mean_latency
                self.per_call_start = max(self.per_call_start, spec.start)
            elif spec.kind == KIND_STALL:
                self.stall_prob = spec.prob
                self.stall_duration = spec.duration
                self.per_call_start = max(self.per_call_start, spec.start)


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against a simulated clock.

    Usage: build from a plan, :meth:`bind` to the run's
    :class:`~repro.simnet.engine.Simulator`, and hand to
    :class:`~repro.core.rpc.RpcBus` (``RpcBus(faults=injector)``); the
    bus consults :meth:`fate_of` on every call attempt.
    :class:`~repro.cluster.runtime.CoRunExecutor` binds an injector
    passed as its ``faults`` argument automatically.
    """

    def __init__(self, plan: FaultPlan,
                 observer: Optional[Observer] = None) -> None:
        self.plan = plan
        self.observer = observer if observer is not None else NULL_OBSERVER
        self._sim = None
        #: kind -> number of injections (loss/stall/latency per call,
        #: crash per rejected call).
        self.stats: Counter = Counter()
        by_target: Dict[str, List[FaultSpec]] = {}
        #: Link-down timelines keyed by directed link id, in spec
        #: order.  Kept apart from the RPC-endpoint faults: ``fate_of``
        #: never consults them, they only answer schedule queries.
        self._links: Dict[str, _CrashTimeline] = {}
        self._link_specs: Dict[str, FaultSpec] = {}
        for spec in plan.specs:
            if spec.kind == KIND_LINK_DOWN:
                self._links[spec.target] = _CrashTimeline(
                    spec,
                    random.Random(
                        f"faults:{plan.seed}:{spec.target}:link_down"
                    ),
                )
                self._link_specs[spec.target] = spec
            else:
                by_target.setdefault(spec.target, []).append(spec)
        self._targets: Dict[str, _TargetFaults] = {
            target: _TargetFaults(target, specs, plan.seed)
            for target, specs in by_target.items()
        }

    def bind(self, sim) -> "FaultInjector":
        """Adopt ``sim`` as the clock; returns self for chaining."""
        self._sim = sim
        return self

    @property
    def now(self) -> float:
        """Current simulated time (0.0 while unbound)."""
        return self._sim.now if self._sim is not None else 0.0

    def down_window(self, target: str,
                    t: Optional[float] = None) -> Optional[Tuple[float, float]]:
        """The crash window covering ``t`` (default: now), if any."""
        tf = self._targets.get(target)
        if tf is None or tf.crash is None:
            return None
        return tf.crash.window_at(self.now if t is None else t)

    # -- link fault schedules ----------------------------------------------

    def link_targets(self) -> Tuple[str, ...]:
        """Directed link ids with ``link_down`` specs, in spec order."""
        return tuple(self._links)

    def link_schedule_is_finite(self, link_id: str) -> bool:
        """True when the link's schedule is scripted windows (so a
        driver can schedule it exhaustively without a horizon)."""
        timeline = self._links.get(link_id)
        if timeline is None:
            raise FaultError(f"no link_down spec for {link_id!r}")
        return timeline.explicit

    def next_link_window(
        self, link_id: str, after: float,
    ) -> Optional[Tuple[float, float]]:
        """First down window of ``link_id`` starting at or after
        ``after`` (``None`` when a scripted schedule is exhausted)."""
        timeline = self._links.get(link_id)
        if timeline is None:
            raise FaultError(f"no link_down spec for {link_id!r}")
        return timeline.next_window(after)

    def fate_of(self, target: str, method: str) -> CallFate:
        """Decide the fate of one RPC attempt, advancing per-call RNG."""
        tf = self._targets.get(target)
        if tf is None:
            return CLEAN_FATE
        now = self.now
        window = tf.crash.window_at(now) if tf.crash is not None else None
        self._note_transition(target, tf, window, now)
        if window is not None:
            self.stats[KIND_CRASH] += 1
            return CallFate(down_until=window[1])
        if (tf.loss_prob == 0.0 and tf.mean_latency == 0.0
                and tf.stall_prob == 0.0):
            return CLEAN_FATE
        # One draw per configured fault, each from its own per-kind
        # stream, regardless of outcomes: the schedule of one fault
        # kind is fully independent of the others.
        lost = (tf.loss_prob > 0.0
                and tf.loss_rng.random() < tf.loss_prob)
        latency = (tf.latency_rng.expovariate(1.0 / tf.mean_latency)
                   if tf.mean_latency > 0.0 else 0.0)
        stalled = (tf.stall_prob > 0.0
                   and tf.stall_rng.random() < tf.stall_prob)
        if now < tf.per_call_start:
            return CLEAN_FATE
        obs = self.observer
        if lost:
            self.stats[KIND_LOSS] += 1
            if obs.enabled:
                obs.metrics.counter("faults.losses").inc()
                obs.emit(FAULT_INJECTED, now, target=target, method=method,
                         kind=KIND_LOSS)
            return CallFate(lost=True)
        if latency > 0.0:
            self.stats[KIND_LATENCY] += 1
        stall = tf.stall_duration if stalled else 0.0
        if stalled:
            self.stats[KIND_STALL] += 1
            if obs.enabled:
                obs.metrics.counter("faults.stalls").inc()
                obs.emit(FAULT_INJECTED, now, target=target, method=method,
                         kind=KIND_STALL, duration=stall)
        return CallFate(latency=latency, stall=stall)

    def _note_transition(self, target: str, tf: _TargetFaults,
                         window: Optional[Tuple[float, float]],
                         now: float) -> None:
        """Emit crash/recover events when the observed state flips.

        Transitions are observed lazily (at call time), but the event
        timestamps are the exact window boundaries, so traces read as
        if the transitions had been recorded live.
        """
        down = window is not None
        if down == tf.observed_down:
            if down:
                tf.last_window = window
            return
        tf.observed_down = down
        obs = self.observer
        if down:
            tf.last_window = window
            if obs.enabled:
                obs.metrics.counter("faults.crashes").inc()
                obs.emit(FAULT_CRASH, window[0], target=target,
                         until=window[1])
        elif obs.enabled:
            recovered_at = tf.last_window[1] if tf.last_window else now
            obs.metrics.counter("faults.recoveries").inc()
            obs.emit(FAULT_RECOVER, recovered_at, target=target)
