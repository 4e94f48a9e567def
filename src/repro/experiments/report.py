"""Machine-readable experiment reports.

Dumps each experiment's paper-style rows as JSON so results can be
archived, diffed across runs, or plotted externally::

    python -m repro report --out results/           # quick experiments
    python -m repro report --out results/ --heavy   # + fig8/10/11/12

Every artifact carries the experiment id, the parameters used, and the
result payload; ``load_report`` restores it.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Union


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of result payloads to JSON types."""
    if is_dataclass(value) and not isinstance(value, type):
        return _jsonable(asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def write_report(
    experiment: str,
    payload: Any,
    out_dir: Union[str, Path],
    parameters: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write one experiment's result; returns the artifact path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{experiment}.json"
    document = {
        "experiment": experiment,
        "parameters": _jsonable(parameters or {}),
        "result": _jsonable(payload),
        "generated_unix": time.time(),
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True))
    return path


def load_report(path: Union[str, Path]) -> Dict[str, Any]:
    return json.loads(Path(path).read_text())


#: Quick experiments: each entry is (id, runner, parameters).
def _quick_runners() -> List[tuple]:
    from repro.experiments.fig1 import run_fig1a, run_fig1b
    from repro.experiments.fig2 import run_fig2
    from repro.experiments.fig5_fig6 import (
        fig5_sweep_spec, fig6a_sweep_spec, run_fig6b, run_fig6c,
    )
    from repro.sweep import default_runner

    def fig5_payload():
        panels = default_runner().run(fig5_sweep_spec()).value
        return {
            name: {"r2": panel.r2, "samples": list(panel.samples)}
            for name, panel in panels.items()
        }

    def fig2_payload():
        return {
            f"{w}@{int(f * 100)}%": {
                "completion_time": panel.completion_time,
                "mean_cpu": panel.mean_cpu(),
                "mean_network": panel.mean_network(),
            }
            for (w, f), panel in run_fig2().items()
        }

    return [
        ("fig1a", run_fig1a, {}),
        ("fig1b", lambda: asdict(run_fig1b()), {}),
        ("fig2", fig2_payload, {}),
        ("fig5", fig5_payload, {}),
        ("fig6a", lambda: default_runner().run(fig6a_sweep_spec()).value,
         {}),
        ("fig6b", run_fig6b, {}),
        ("fig6c", run_fig6c, {}),
    ]


def _heavy_runners() -> List[tuple]:
    from repro.experiments.fig8 import fig8_sweep_spec
    from repro.experiments.fig9 import run_fig9a, run_fig9b, run_fig9c
    from repro.experiments.fig10_fig11 import (
        fig10_sweep_spec, run_fig11a, run_fig11b,
    )
    from repro.experiments.fig12 import run_fig12
    from repro.sweep import default_runner

    def fig8_payload():
        result = default_runner().run(fig8_sweep_spec(n_setups=4)).value
        return {
            "per_workload_speedup": result.per_workload_speedup,
            "average_speedup": result.average_speedup,
            "setup_averages": result.setup_averages,
        }

    def fig10_payload():
        result = default_runner().run(fig10_sweep_spec()).value
        return {
            "speedups": result.speedups,
            "averages": {p: result.average(p) for p in result.speedups},
        }

    def fig12_payload():
        results = run_fig12(app_set_sizes=(1, 10, 50, 100), repeats=1)
        return {
            str(k): [asdict(s) for s in scenarios]
            for k, scenarios in results.items()
        }

    return [
        ("fig8", fig8_payload, {"n_setups": 4}),
        ("fig9a", run_fig9a, {}),
        ("fig9b", run_fig9b, {}),
        ("fig9c", run_fig9c, {}),
        ("fig10", fig10_payload, {}),
        ("fig11a", run_fig11a, {}),
        ("fig11b", run_fig11b, {}),
        ("fig12", fig12_payload, {"sizes": [1, 10, 50, 100]}),
    ]


def generate_reports(
    out_dir: Union[str, Path],
    heavy: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Path]:
    """Run experiments and write one JSON artifact each."""
    runners = _quick_runners()
    if heavy:
        runners += _heavy_runners()
    paths = []
    for experiment, runner, parameters in runners:
        if progress is not None:
            progress(experiment)
        paths.append(
            write_report(experiment, runner(), out_dir, parameters)
        )
    return paths
