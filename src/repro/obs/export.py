"""Trace, metrics, and manifest export.

Three artifact kinds, written alongside experiment outputs:

* **JSONL event traces** -- :class:`JsonlTraceWriter` subscribes to an
  :class:`~repro.obs.events.EventBus` and streams one JSON object per
  event; :func:`read_trace` loads them back for analysis and for the
  ``python -m repro obs summarize`` CLI.
* **Metrics snapshots** -- :func:`metrics_to_json` /
  :func:`metrics_to_csv` serialise a
  :class:`~repro.obs.metrics.MetricsRegistry` snapshot.
* **Run manifests** -- :class:`RunManifest` records what produced an
  artifact (config, seed, code version, wall-clock and simulated
  duration) so results stay attributable long after the run.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.events import EventRecord, Observer
from repro.obs.metrics import MetricsRegistry


class JsonlTraceWriter:
    """Stream event records to a JSONL file.

    Usable directly as a bus subscriber::

        writer = JsonlTraceWriter(path)
        observer.bus.subscribe(writer)
        ...
        writer.close()

    or as a context manager.  Records are flushed on ``close`` (and on
    interpreter exit via the file object), not per event.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = open(self.path, "w")
        self.records_written = 0

    def __call__(self, record: EventRecord) -> None:
        self._handle.write(
            json.dumps(record.to_dict(), separators=(",", ":")) + "\n"
        )
        self.records_written += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach_trace_writer(
    observer: Observer, path: Union[str, Path]
) -> JsonlTraceWriter:
    """Subscribe a fresh JSONL writer to ``observer``'s bus."""
    writer = JsonlTraceWriter(path)
    observer.bus.subscribe(writer)
    return writer


def read_trace(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Load a JSONL trace back into a list of flat records.

    Blank lines are skipped, so concatenated or hand-edited traces
    load cleanly.
    """
    records: List[Dict[str, object]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# -- metrics snapshots ------------------------------------------------------


def metrics_to_json(
    registry: MetricsRegistry, path: Optional[Union[str, Path]] = None
) -> str:
    """Snapshot as a JSON string; also written to ``path`` if given."""
    text = json.dumps(registry.snapshot(), indent=2, sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def metrics_to_csv(registry: MetricsRegistry, path: Union[str, Path]) -> int:
    """Snapshot as flat ``kind,name,field,value`` rows; returns row count."""
    snapshot = registry.snapshot()
    rows: List[Dict[str, object]] = []
    for kind in ("counters", "gauges"):
        for name, value in snapshot[kind].items():
            rows.append({"kind": kind[:-1], "name": name,
                         "field": "value", "value": value})
    for kind in ("time_gauges", "histograms"):
        for name, stats in snapshot[kind].items():
            for stat, value in stats.items():
                rows.append({"kind": kind[:-1], "name": name,
                             "field": stat, "value": value})
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(
            handle, fieldnames=("kind", "name", "field", "value")
        )
        writer.writeheader()
        writer.writerows(rows)
    return len(rows)


# -- run manifests -----------------------------------------------------------


def code_version() -> str:
    """Package version, plus the git commit when running from a checkout.

    Pure file reads (no subprocess): resolves the ``HEAD`` of the
    checkout one level above ``src/``.  Falls back to the bare version
    for installed copies.
    """
    from repro._version import __version__

    commit = _head_commit(Path(__file__).resolve().parents[3] / ".git")
    return f"{__version__}+g{commit[:12]}" if commit else __version__


def _head_commit(dot_git: Path) -> str:
    """The commit ``HEAD`` names in the checkout whose ``.git`` is
    ``dot_git``, or ``""``.

    ``.git`` is the git directory, or in a linked worktree a
    ``gitdir: <path>`` file naming it; a worktree's git directory keeps
    its own ``HEAD`` and names the repository's shared one (refs and
    ``packed-refs``) in ``commondir``.  A branch is a loose ref file or
    a line of ``packed-refs``.
    """
    try:
        git_dir = dot_git
        if dot_git.is_file():
            pointer = dot_git.read_text().strip()
            if not pointer.startswith("gitdir: "):
                return ""
            git_dir = dot_git.parent / pointer[len("gitdir: "):]
        common = git_dir
        commondir = git_dir / "commondir"
        if commondir.is_file():
            common = git_dir / commondir.read_text().strip()
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose, packed = common / ref, common / "packed-refs"
        if loose.is_file():
            return loose.read_text().strip()
        if packed.is_file():
            for line in packed.read_text().splitlines():
                commit, _, name = line.partition(" ")
                if name == ref:
                    return commit
    except OSError:
        pass
    return ""


@dataclass
class RunManifest:
    """What produced an artifact: config, seed, code, and durations.

    ``wall_seconds`` is real elapsed time; ``sim_seconds`` the simulated
    horizon the run covered.  ``extra`` is free-form (result paths,
    policy names, host facts).
    """

    name: str
    config: Dict[str, object] = field(default_factory=dict)
    seed: Optional[int] = None
    code_version: str = field(default_factory=code_version)
    created_unix: Optional[float] = None
    wall_seconds: Optional[float] = None
    sim_seconds: Optional[float] = None
    extra: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "config": dict(self.config),
            "seed": self.seed,
            "code_version": self.code_version,
            "created_unix": self.created_unix,
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunManifest":
        known = {f: data.get(f) for f in (
            "name", "config", "seed", "code_version", "created_unix",
            "wall_seconds", "sim_seconds", "extra",
        )}
        if known["name"] is None:
            raise ValueError("manifest has no name")
        known["config"] = dict(known["config"] or {})
        known["extra"] = dict(known["extra"] or {})
        if known["code_version"] is None:
            known["code_version"] = "unknown"
        return cls(**known)

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True)
                        + "\n")
        return path

    @classmethod
    def read(cls, path: Union[str, Path]) -> "RunManifest":
        return cls.from_dict(json.loads(Path(path).read_text()))
