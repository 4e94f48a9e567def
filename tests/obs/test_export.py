"""Tests for trace/metrics/manifest export."""

import csv
import json

import pytest

from repro.obs import events as ev
from repro.obs.events import Observer
from repro.obs.export import (
    JsonlTraceWriter,
    RunManifest,
    attach_trace_writer,
    _head_commit,
    code_version,
    metrics_to_csv,
    metrics_to_json,
    read_trace,
)
from repro.obs.metrics import MetricsRegistry


def test_jsonl_writer_roundtrip(tmp_path):
    path = tmp_path / "trace.jsonl"
    observer = Observer()
    with attach_trace_writer(observer, path) as writer:
        observer.emit(ev.FLOW_STARTED, time=0.0, flow_id=1, src="a", dst="b")
        observer.emit(ev.FLOW_FINISHED, time=2.5, flow_id=1, duration=2.5)
    assert writer.records_written == 2
    records = read_trace(path)
    assert [r["type"] for r in records] == [ev.FLOW_STARTED, ev.FLOW_FINISHED]
    assert records[0]["src"] == "a"
    assert records[1]["duration"] == 2.5
    assert records[0]["seq"] < records[1]["seq"]


def test_read_trace_skips_blank_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"type":"sim.run","time":0.0,"seq":0}\n\n\n')
    assert len(read_trace(path)) == 1


def test_writer_close_is_idempotent(tmp_path):
    writer = JsonlTraceWriter(tmp_path / "t.jsonl")
    writer.close()
    writer.close()


def test_metrics_to_json(tmp_path):
    registry = MetricsRegistry()
    registry.counter("c").inc(2)
    registry.histogram("h").observe(1.0)
    path = tmp_path / "metrics.json"
    text = metrics_to_json(registry, path)
    parsed = json.loads(text)
    assert parsed == json.loads(path.read_text())
    assert parsed["counters"]["c"] == 2
    assert parsed["histograms"]["h"]["count"] == 1


def test_metrics_to_csv(tmp_path):
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.gauge("g").set(7.0)
    registry.time_gauge("t").set(1.0, time=0.0)
    registry.histogram("h").observe(0.5)
    path = tmp_path / "metrics.csv"
    n_rows = metrics_to_csv(registry, path)
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == n_rows
    by_key = {(r["kind"], r["name"], r["field"]): r["value"] for r in rows}
    assert by_key[("counter", "c", "value")] == "1.0"
    assert by_key[("gauge", "g", "value")] == "7.0"
    assert ("time_gauge", "t", "mean") in by_key
    assert by_key[("histogram", "h", "count")] == "1"


def test_code_version_mentions_package_version():
    from repro._version import __version__

    version = code_version()
    assert version.startswith(__version__)


COMMIT = "0123456789abcdef0123456789abcdef01234567"


def _git_dir(root, head, loose=None, packed=None):
    """A fake git directory at ``root`` with ``HEAD`` and refs."""
    root.mkdir(parents=True)
    (root / "HEAD").write_text(head + "\n")
    if loose:
        (root / "refs" / "heads").mkdir(parents=True)
        (root / "refs" / "heads" / loose).write_text(COMMIT + "\n")
    if packed:
        (root / "packed-refs").write_text(
            "# pack-refs with: peeled fully-peeled sorted \n"
            f"{'f' * 40} refs/heads/other\n"
            f"{COMMIT} refs/heads/{packed}\n"
            f"^{'e' * 40}\n"
        )
    return root


def test_head_commit_reads_a_loose_branch(tmp_path):
    dot_git = _git_dir(tmp_path / ".git", "ref: refs/heads/main", loose="main")
    assert _head_commit(dot_git) == COMMIT


def test_head_commit_reads_a_packed_branch(tmp_path):
    dot_git = _git_dir(tmp_path / ".git", "ref: refs/heads/main", packed="main")
    assert _head_commit(dot_git) == COMMIT


def test_head_commit_reads_a_detached_head(tmp_path):
    dot_git = _git_dir(tmp_path / ".git", COMMIT)
    assert _head_commit(dot_git) == COMMIT


def test_head_commit_follows_a_worktree_to_the_shared_refs(tmp_path):
    shared = _git_dir(tmp_path / "main" / ".git", "ref: refs/heads/main", packed="topic")
    own = _git_dir(shared / "worktrees" / "wt", "ref: refs/heads/topic")
    (own / "commondir").write_text("../..\n")
    checkout = tmp_path / "wt"
    checkout.mkdir()
    (checkout / ".git").write_text(f"gitdir: {own}\n")
    assert _head_commit(checkout / ".git") == COMMIT


def test_head_commit_is_empty_outside_a_checkout(tmp_path):
    assert _head_commit(tmp_path / ".git") == ""
    assert _head_commit(_git_dir(tmp_path / "g", "ref: refs/heads/gone")) == ""


def test_manifest_roundtrip(tmp_path):
    manifest = RunManifest(
        name="fig10-corun",
        config={"policy": "saba", "until": 50.0},
        seed=7,
        wall_seconds=1.25,
        sim_seconds=50.0,
        extra={"trace": "trace.jsonl"},
    )
    path = manifest.write(tmp_path / "manifest.json")
    loaded = RunManifest.read(path)
    assert loaded == manifest
    assert loaded.config["policy"] == "saba"


def test_manifest_requires_name():
    with pytest.raises(ValueError):
        RunManifest.from_dict({"seed": 1})


def test_manifest_tolerates_sparse_dict():
    loaded = RunManifest.from_dict({"name": "x"})
    assert loaded.name == "x"
    assert loaded.config == {}
    assert loaded.extra == {}
    assert loaded.code_version == "unknown"
