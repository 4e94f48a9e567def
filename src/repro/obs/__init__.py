"""Unified observability: event bus, metrics, trace export, summaries.

The Saba controller's whole job is reacting to connection churn --
re-solving Eq. 2 and reprogramming WFQ weights on every affected port
-- yet those decisions are invisible in a bare simulation run.  This
package makes them observable everywhere:

* :mod:`repro.obs.events` -- typed, timestamped event records on a
  pub/sub :class:`EventBus`; the :class:`Observer` (bus + metrics)
  threads through the engine, fabric, controller, library, and cluster
  runtime.
* :mod:`repro.obs.metrics` -- counters, gauges, simulated-time-weighted
  gauges, and streaming p50/p95/p99 histograms in a
  :class:`MetricsRegistry`.
* :mod:`repro.obs.export` -- JSONL trace writing, metrics snapshots
  (JSON/CSV), and :class:`RunManifest` provenance records.
* :mod:`repro.obs.summary` -- post-hoc trace reduction behind
  ``python -m repro obs summarize``.

Observability is off by default: every instrumented component holds
:data:`NULL_OBSERVER`, whose ``enabled`` flag gates all non-trivial
work, so disabled runs are bit-identical to uninstrumented ones.

Typical use::

    from repro.cluster.runtime import CoRunExecutor
    from repro.experiments.common import make_policy
    from repro.obs import Observer, attach_trace_writer

    observer = Observer()
    writer = attach_trace_writer(observer, "run.jsonl")
    setup = make_policy("saba", table, observer=observer)
    results = CoRunExecutor(topology, policy=setup, observer=observer).run(jobs)
    writer.close()
    print(observer.metrics.snapshot())
"""

from repro.obs.events import (
    EVENT_TYPES,
    EventBus,
    EventRecord,
    NULL_OBSERVER,
    NullObserver,
    Observer,
)
from repro.obs.export import (
    JsonlTraceWriter,
    RunManifest,
    attach_trace_writer,
    code_version,
    metrics_to_csv,
    metrics_to_json,
    read_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    StreamingHistogram,
    TimeWeightedGauge,
)
from repro.obs.summary import (
    TraceSummary,
    format_summary,
    summarize_file,
    summarize_trace,
)

__all__ = [
    "EVENT_TYPES",
    "EventBus",
    "EventRecord",
    "NULL_OBSERVER",
    "NullObserver",
    "Observer",
    "JsonlTraceWriter",
    "RunManifest",
    "attach_trace_writer",
    "code_version",
    "metrics_to_csv",
    "metrics_to_json",
    "read_trace",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "StreamingHistogram",
    "TimeWeightedGauge",
    "TraceSummary",
    "format_summary",
    "summarize_file",
    "summarize_trace",
]
