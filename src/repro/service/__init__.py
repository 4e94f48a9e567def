"""Long-running allocation service with dynamic topology
(``repro.service``).

A wire-shaped front-end over the allocation pipeline and RPC bus:
admission control with per-tenant quotas, bounded request queues with
backpressure, graceful drain, and control-plane reconciliation after
link failures and recoveries.  See ``DESIGN.md`` §5h and
``python -m repro service`` for the measured experiment.
"""

from repro.service.quotas import (
    DEFAULT_TENANT,
    UNLIMITED,
    ServiceQuotas,
    tenant_of,
)
from repro.service.service import (
    SERVICE_ENDPOINT,
    AllocationService,
    ServiceConnections,
)

__all__ = [
    "AllocationService",
    "DEFAULT_TENANT",
    "SERVICE_ENDPOINT",
    "ServiceConnections",
    "ServiceQuotas",
    "UNLIMITED",
    "tenant_of",
]
