"""Admission-control quotas for the allocation service.

Saba's controller is a shared datacenter resource: the service in
front of it must protect the allocation pipeline from a single tenant
registering unbounded applications or opening unbounded connections
(each one costs a controller round-trip plus a reallocation pass).
Quotas are *admission* limits -- a rejected request never reaches the
library or the controller, so the data plane is unaffected.

Tenancy is derived from the application id: the prefix before the
first ``"/"`` is the tenant (``"acme/training-3"`` belongs to tenant
``"acme"``); ids without a separator share the ``"default"`` tenant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ServiceError

#: Tenant assigned to application ids without a ``tenant/`` prefix.
DEFAULT_TENANT = "default"


def tenant_of(app_id: str) -> str:
    """The tenant an application id belongs to."""
    if "/" in app_id:
        tenant = app_id.split("/", 1)[0]
        if tenant:
            return tenant
    return DEFAULT_TENANT


@dataclass(frozen=True)
class ServiceQuotas:
    """Per-tenant admission limits (``None`` = unlimited).

    ``max_queue_depth`` bounds the request queue: the service counts
    same-sim-instant request bursts against it (a deterministic
    stand-in for wall-clock queueing) and sheds what overflows.
    """

    max_apps_per_tenant: Optional[int] = None
    max_conns_per_app: Optional[int] = None
    max_conns_per_tenant: Optional[int] = None
    max_queue_depth: Optional[int] = None

    def __post_init__(self) -> None:
        for name in (
            "max_apps_per_tenant",
            "max_conns_per_app",
            "max_conns_per_tenant",
            "max_queue_depth",
        ):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ServiceError(f"{name} must be >= 1, got {value!r}")


#: The default: no limits -- the service admits everything, matching
#: the static harness exactly.
UNLIMITED = ServiceQuotas()
