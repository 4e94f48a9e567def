"""Declarative fault specifications.

The paper concedes that "a centralized controller represents a single
point of failure" (Section 5.4) but never measures what that costs.
To measure it, faults must be *deterministic*: a fault schedule is a
pure function of a seed and the simulated clock, so two runs of the
same experiment inject byte-identical fault sequences and the sweep
cache can key on the spec itself.

A :class:`FaultSpec` names one of two failure modes:

* ``crash``     -- an RPC endpoint is unreachable during down windows,
  either drawn from exponential MTBF/MTTR distributions (a seeded
  renewal process) or given explicitly as ``windows``;
* ``link_down`` -- the target is a directed link id of the *data
  plane*; the link is down during its windows (same MTBF/MTTR renewal
  process or scripted windows as ``crash``).  The injector only
  answers schedule queries
  (:meth:`~repro.faults.injector.FaultInjector.next_link_window`);
  applying transitions to a fabric is the job of
  :class:`~repro.faults.links.LinkFaultDriver`, so the same
  deterministic schedule is reusable outside the allocation service.

A :class:`FaultPlan` bundles specs with the seed that drives every
random draw; :meth:`FaultPlan.build` turns it into a live
:class:`~repro.faults.injector.FaultInjector`.  Both dataclasses are
frozen and picklable, so sweep tasks can carry them across process
boundaries and the config hash of a faulted experiment includes its
exact fault schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import FaultError

#: An RPC endpoint refuses calls during its windows.
KIND_CRASH = "crash"
#: A network link (the spec's ``target`` is a directed link id) is
#: down during its windows.
KIND_LINK_DOWN = "link_down"

FAULT_KINDS = (KIND_CRASH, KIND_LINK_DOWN)


@dataclass(frozen=True)
class FaultSpec:
    """One failure mode of one endpoint or link.  Prefer the named
    constructors (:meth:`crash`, :meth:`outage`, :meth:`link_down`,
    :meth:`link_flap`) over filling fields by hand."""

    target: str
    kind: str
    #: Crash renewal process: mean up time / mean down time (seconds).
    mtbf: Optional[float] = None
    mttr: Optional[float] = None
    #: Explicit outage windows ``((start, end), ...)`` -- an
    #: alternative to the MTBF/MTTR process for scripted scenarios.
    windows: Tuple[Tuple[float, float], ...] = ()
    #: Simulated time before which the fault is dormant.
    start: float = 0.0

    def __post_init__(self) -> None:
        if not self.target:
            raise FaultError("FaultSpec needs a non-empty target")
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}"
            )
        if self.start < 0:
            raise FaultError(f"start must be >= 0: {self.start}")
        object.__setattr__(
            self, "windows",
            tuple((float(s), float(e)) for s, e in self.windows),
        )
        stochastic = self.mtbf is not None or self.mttr is not None
        if stochastic and self.windows:
            raise FaultError(
                f"{self.kind} spec takes either mtbf/mttr or explicit "
                "windows, not both"
            )
        if stochastic:
            if not (self.mtbf and self.mtbf > 0
                    and self.mttr and self.mttr > 0):
                raise FaultError(
                    f"{self.kind} spec needs mtbf > 0 and mttr > 0, got "
                    f"mtbf={self.mtbf} mttr={self.mttr}"
                )
        elif not self.windows:
            raise FaultError(
                f"{self.kind} spec needs mtbf/mttr or windows"
            )
        previous_end = 0.0
        for s, e in self.windows:
            if s < previous_end or e <= s:
                raise FaultError(
                    f"outage windows must be sorted, non-overlapping "
                    f"and non-empty: {self.windows}"
                )
            previous_end = e

    # -- named constructors ------------------------------------------------

    @classmethod
    def crash(cls, target: str, mtbf: float, mttr: float,
              start: float = 0.0) -> "FaultSpec":
        """Alternating up/down renewal process (exponential holds)."""
        return cls(target=target, kind=KIND_CRASH, mtbf=mtbf, mttr=mttr,
                   start=start)

    @classmethod
    def outage(cls, target: str,
               windows: Tuple[Tuple[float, float], ...]) -> "FaultSpec":
        """Scripted down windows ``((start, end), ...)``."""
        return cls(target=target, kind=KIND_CRASH, windows=tuple(windows))

    @classmethod
    def link_down(cls, link_id: str, mtbf: float, mttr: float,
                  start: float = 0.0) -> "FaultSpec":
        """Link failure renewal process (exponential up/down holds).

        ``link_id`` names a *directed* link (``"a->b"``); model a full
        cable cut by adding a second spec for the reverse direction.
        """
        return cls(target=link_id, kind=KIND_LINK_DOWN, mtbf=mtbf,
                   mttr=mttr, start=start)

    @classmethod
    def link_flap(cls, link_id: str,
                  windows: Tuple[Tuple[float, float], ...]) -> "FaultSpec":
        """Scripted link outage windows ``((down_at, up_at), ...)``."""
        return cls(target=link_id, kind=KIND_LINK_DOWN,
                   windows=tuple(windows))


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault specs: the whole fault model of one run.

    ``seed`` drives every random draw the injector makes (the up and
    down holds of MTBF/MTTR schedules) through one RNG stream per
    target and kind, so adding a fault on one endpoint or link never
    perturbs the schedule of another.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        seen = set()
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise FaultError(f"not a FaultSpec: {spec!r}")
            key = (spec.target, spec.kind)
            if key in seen:
                raise FaultError(
                    f"duplicate {spec.kind!r} spec for target "
                    f"{spec.target!r}"
                )
            seen.add(key)

    @property
    def targets(self) -> Tuple[str, ...]:
        return tuple(sorted({spec.target for spec in self.specs}))

    def build(self):
        """Instantiate the injector for one run."""
        from repro.faults.injector import FaultInjector

        return FaultInjector(self)
