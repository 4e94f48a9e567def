"""Trace summarization tests, including the end-to-end co-run trace."""

import json

import pytest

from repro.cluster.jobs import Job
from repro.cluster.runtime import CoRunExecutor
from repro.experiments.common import EXPERIMENT_QUANTUM, make_policy
from repro.obs import events as ev
from repro.obs.events import Observer
from repro.obs.export import attach_trace_writer, read_trace
from repro.obs.summary import (
    _step_mean,
    format_summary,
    summarize_file,
    summarize_trace,
)
from repro.simnet.topology import single_switch
from repro.units import GBPS_56
from repro.workloads.catalog import CATALOG


def _record(etype, time, **fields):
    return {"type": etype, "time": time, "seq": 0, **fields}


def test_summarize_empty_trace():
    summary = summarize_trace([])
    assert summary.n_events == 0
    assert summary.sim_span == 0.0
    assert summary.solver == {}
    assert "events            0" in format_summary(summary)


def test_summarize_counts_and_span():
    summary = summarize_trace([
        _record(ev.REALLOCATION, 1.0, ports=2),
        _record(ev.PORT_PROGRAMMED, 1.0, link="a->b"),
        _record(ev.PORT_PROGRAMMED, 4.0, link="a->c"),
    ])
    assert summary.n_events == 3
    assert summary.reallocations == 1
    assert summary.ports_programmed == 2
    assert summary.sim_span == pytest.approx(3.0)
    assert summary.counts[ev.PORT_PROGRAMMED] == 2


def test_summarize_solver_percentiles():
    durations = [0.001 * (i + 1) for i in range(10)]
    summary = summarize_trace([
        _record(ev.SOLVE_END, float(i), duration=d, solver="kkt")
        for i, d in enumerate(durations)
    ])
    assert summary.solver["count"] == 10
    assert summary.solver["p50"] == pytest.approx(0.0055)
    assert summary.solver["max"] == pytest.approx(0.010)
    assert "solver latency" in format_summary(summary)


def test_summarize_port_utilization_is_time_weighted():
    summary = summarize_trace([
        _record(ev.PORT_UTILIZATION, 0.0, link="sw->a", utilization=0.8),
        _record(ev.PORT_UTILIZATION, 0.25, link="sw->a", utilization=0.2),
        _record(ev.SIM_RUN, 1.0),  # extends the span to t=1
    ])
    assert summary.port_mean_utilization["sw->a"] == pytest.approx(0.35)


def test_step_mean_edge_cases():
    assert _step_mean([], 1.0) == 0.0
    assert _step_mean([(2.0, 0.7)], 2.0) == 0.7  # zero span -> last value
    assert _step_mean([(0.0, 1.0), (5.0, 0.0)], 10.0) == pytest.approx(0.5)


def test_summarize_job_completion():
    summary = summarize_trace([
        _record(ev.JOB_FINISHED, 8.0, job="j0", workload="LR", duration=8.0),
    ])
    assert summary.job_completion == {"j0": 8.0}
    assert "job completion times" in format_summary(summary)
    assert summary.to_dict()["job_completion"] == {"j0": 8.0}
    assert json.dumps(summary.to_dict())  # JSON-serialisable


def test_summarize_final_port_state():
    summary = summarize_trace([
        _record(ev.PORT_PROGRAMMED, 1.0, link="sw->a", apps=2,
                mapping={0: 0}, weights=[0.5, 0.5], generation=1),
        _record(ev.PORT_PROGRAMMED, 2.0, link="sw->a", apps=3,
                mapping={0: 0}, weights=[0.3, 0.7], generation=2),
        _record(ev.PORT_RESET, 3.0, link="sw->b", generation=4),
    ])
    # Last write wins per link: the summary shows the state in force
    # at the end of the trace.
    assert summary.final_ports["sw->a"] == {
        "state": "programmed", "apps": 3, "queues": 2, "generation": 2,
    }
    assert summary.final_ports["sw->b"] == {"state": "reset",
                                            "generation": 4}
    rendered = format_summary(summary)
    assert "final port state" in rendered
    assert "programmed apps=3" in rendered
    assert summary.to_dict()["final_ports"]["sw->b"]["state"] == "reset"


def test_summarize_service_section():
    summary = summarize_trace([
        _record(ev.SERVICE_REQUEST, 0.0, op="register_app", queued=1),
        _record(ev.SERVICE_REQUEST, 0.0, op="conn_create", queued=3),
        _record(ev.SERVICE_REJECTED, 0.5, op="conn_create",
                reason="quota"),
        # Overlapping outages: degraded time is the union [1, 4].
        _record(ev.LINK_DOWN, 1.0, link="a->b"),
        _record(ev.LINK_DOWN, 2.0, link="c->d"),
        _record(ev.FLOW_REROUTED, 2.0, flow=7),
        _record(ev.LINK_UP, 3.0, link="a->b"),
        _record(ev.LINK_UP, 4.0, link="c->d"),
        # A second outage left open: degraded to the end of the trace.
        _record(ev.LINK_DOWN, 6.0, link="a->b"),
        _record(ev.SERVICE_DRAIN, 7.0, open_conns=0),
    ])
    assert summary.service["admitted"] == 2
    assert summary.service["rejected"] == 1
    assert summary.service["max_queued"] == 3
    assert summary.service["flows_rerouted"] == 1
    assert summary.service["drains"] == 1
    assert summary.service["degraded_seconds"] == pytest.approx(4.0)
    rendered = format_summary(summary)
    assert "service           admitted=2 rejected=1 max_queued=3" in rendered
    assert "downs=3 ups=2 reroutes=1 degraded=4.000s" in rendered


def test_service_section_absent_without_service_events():
    summary = summarize_trace([_record(ev.REALLOCATION, 1.0, ports=1)])
    assert summary.service == {}
    assert "service " not in format_summary(summary)


# -- end-to-end: the acceptance-criterion co-run ----------------------------


def _corun_jobs(topo):
    lr = CATALOG["LR"].instantiate(n_instances=4, link_capacity=GBPS_56)
    pr = CATALOG["PR"].instantiate(n_instances=4, link_capacity=GBPS_56)
    return [
        Job("lr0", lr, "LR", topo.servers[:4]),
        Job("pr0", pr, "PR", topo.servers[4:8]),
    ]


def _run_saba(small_table, observer=None):
    topo = single_switch(8, capacity=GBPS_56)
    setup = make_policy("saba", table=small_table, observer=observer)
    executor = CoRunExecutor(topo, policy=setup, observer=observer,
                             completion_quantum=EXPERIMENT_QUANTUM)
    return executor.run(_corun_jobs(topo))


def test_saba_corun_trace_and_metrics(small_table, tmp_path):
    observer = Observer()
    trace_path = tmp_path / "trace.jsonl"
    writer = attach_trace_writer(observer, trace_path)
    results = _run_saba(small_table, observer=observer)
    writer.close()
    assert set(results) == {"lr0", "pr0"}

    # The trace contains the decisions the paper's controller makes.
    records = read_trace(trace_path)
    types = {r["type"] for r in records}
    assert ev.SOLVE_END in types
    assert ev.REALLOCATION in types
    assert ev.PORT_PROGRAMMED in types
    assert ev.JOB_FINISHED in types
    solve = next(r for r in records if r["type"] == ev.SOLVE_END)
    assert solve["iterations"] >= 0 and solve["duration"] >= 0
    assert solve["solver"]
    programmed = next(r for r in records if r["type"] == ev.PORT_PROGRAMMED)
    assert programmed["weights"] and programmed["mapping"]

    # The shared registry carries solver latency and realloc counts.
    snap = observer.metrics.snapshot()
    assert snap["counters"]["controller.reallocations"] >= 1
    assert snap["counters"]["controller.solver_calls"] >= 1
    assert snap["histograms"]["controller.solve_seconds"]["p99"] > 0
    assert snap["gauges"]["sim.events_processed"] > 0

    # The summarizer reduces the same trace post hoc.
    summary = summarize_file(trace_path)
    assert summary.reallocations >= 1
    assert summary.solver["count"] >= 1
    assert summary.job_completion.keys() == {"lr0", "pr0"}
    assert summary.final_ports  # describe_port-style final state
    rendered = format_summary(summary)
    assert "reallocations" in rendered and "solver latency" in rendered
    assert "final port state" in rendered


def test_disabled_observability_is_bit_identical(small_table):
    observed = _run_saba(small_table, observer=Observer())
    plain = _run_saba(small_table, observer=None)
    for job_id, result in plain.items():
        assert observed[job_id].completion_time == result.completion_time
