"""Exception hierarchy for the repro package.

Every error raised intentionally by this package derives from
:class:`ReproError`, so callers can catch package-level failures without
masking programming errors (``TypeError``, ``KeyError`` from foreign
code, etc.).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class TopologyError(ReproError):
    """A topology is malformed (unknown node, duplicate link, ...)."""


class RoutingError(ReproError):
    """No route exists between two endpoints."""


class SimulationError(ReproError):
    """The simulation reached an inconsistent state."""


class AllocationError(ReproError):
    """The weight optimiser could not produce a feasible allocation."""


class ProfilingError(ReproError):
    """The offline profiler was misconfigured or produced unusable data."""


class RegistrationError(ReproError):
    """Saba library misuse: duplicate/unknown application or connection."""


class ClusteringError(ReproError):
    """Clustering inputs are invalid (empty set, bad cluster count)."""


class SweepError(ReproError):
    """A sweep was misconfigured or one of its tasks failed."""


class FaultError(ReproError):
    """A fault specification is invalid or the injector is misused."""


class ServiceError(ReproError):
    """Base class for allocation-service request failures."""


class QuotaExceededError(ServiceError):
    """A tenant exceeded its admission-control quota."""


class ServiceOverloadedError(ServiceError):
    """The service's bounded request queue is full (backpressure)."""


class ServiceDrainingError(ServiceError):
    """The service is draining and no longer admits new work."""
