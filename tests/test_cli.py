"""In-process tests of the CLI argument handling (light commands)."""

import argparse
import json

import pytest

from repro.__main__ import COMMANDS, build_parser, main


def test_list_returns_zero(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig1a", "fig8", "fig12", "report"):
        assert name in out


def test_no_command_lists(capsys):
    assert main([]) == 0
    assert "available experiments" in capsys.readouterr().out


def test_fig1a_command(capsys):
    assert main(["fig1a"]) == 0
    out = capsys.readouterr().out
    assert "LR" in out and "Sort" in out


def test_fig5_command(capsys):
    assert main(["fig5"]) == 0
    assert "R2" in capsys.readouterr().out


def test_fig5_and_sweep_fig5_print_the_same(capsys):
    # One registry entry behind both commands: same rows, same order,
    # same precision.
    assert main(["fig5"]) == 0
    direct = capsys.readouterr().out
    assert main(["sweep", "fig5", "--quiet"]) == 0
    assert capsys.readouterr().out == direct


def test_every_registry_option_is_a_flag():
    """Each option a registry entry reads is the dest of a flag of the
    command that runs it: ``sweep`` or the entry's own command."""
    from repro.sweep.registry import REGISTRY

    commands = next(
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )

    def dests(command):
        parser = commands.get(command)
        return set() if parser is None else {
            action.dest for action in parser._actions
        }

    for name, entry in REGISTRY.items():
        unreachable = set(entry.defaults) - dests("sweep") - dests(name)
        assert not unreachable, f"{name}: no flag sets {unreachable}"


def test_report_command(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fig1a.json").exists()
    assert "wrote" in capsys.readouterr().out


def test_every_command_registered():
    for name in ("fig1a", "fig1b", "fig2", "fig5", "fig6", "fig8",
                 "fig9", "fig10", "fig11", "fig12", "report", "obs",
                 "sweep", "storm"):
        assert name in COMMANDS


def test_sweep_list(capsys):
    assert main(["sweep", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("profile-catalog", "fig8", "fig10", "bench"):
        assert name in out


def test_sweep_unknown_experiment_errors():
    with pytest.raises(SystemExit, match="unknown sweep experiment"):
        main(["sweep", "fig99"])


def test_sweep_serial_and_parallel_render_identically(capsys):
    args = ["sweep", "profile-catalog", "--no-cache", "--quiet",
            "--method", "analytic", "--workloads", "SQL", "LR"]
    assert main(args + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel
    assert '"SQL"' in serial and '"LR"' in serial


def test_sweep_writes_manifest(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    assert main([
        "sweep", "fig5", "--quiet", "--no-cache",
        "--manifest", str(manifest),
    ]) == 0
    capsys.readouterr()
    payload = json.loads(manifest.read_text())
    assert payload["name"] == "sweep:fig5"
    assert payload["extra"]["computed"] == payload["extra"]["tasks"] > 0


def test_storm_list(capsys):
    assert main(["storm", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("smoke", "flash", "service"):
        assert name in out


def test_storm_run_smoke_writes_report(tmp_path, capsys):
    out_path = tmp_path / "storm.json"
    assert main(["storm", "run", "smoke", "--out", str(out_path)]) == 0
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    assert payload["ok"] is True
    assert payload["injected"] > 0
    # The artifact carries the number CI's throughput floor checks.
    assert payload["flows_per_sec"] > 0


def test_storm_run_unknown_preset_is_clean_error():
    with pytest.raises(SystemExit, match="unknown preset"):
        main(["storm", "run", "hurricane"])


def test_storm_fuzz_small_campaign(tmp_path, capsys):
    out_path = tmp_path / "campaign.json"
    assert main([
        "storm", "fuzz", "--count", "3", "--seed", "1", "--no-cache",
        "--quiet", "--no-equivalence", "--out", str(out_path),
    ]) == 0
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    assert payload["scenarios"] == 3
    assert payload["failed"] == 0


@pytest.fixture()
def small_trace(tmp_path):
    """A hand-rolled JSONL trace with the event kinds the CLI renders."""
    from repro.obs import events as ev
    from repro.obs.events import Observer
    from repro.obs.export import attach_trace_writer

    path = tmp_path / "run.jsonl"
    observer = Observer()
    with attach_trace_writer(observer, path):
        observer.emit(ev.SOLVE_END, time=0.0, solver="kkt", iterations=3,
                      duration=0.002)
        observer.emit(ev.REALLOCATION, time=0.0, ports=1, duration=0.003)
        observer.emit(ev.PORT_PROGRAMMED, time=0.0, link="sw->a")
        observer.emit(ev.JOB_FINISHED, time=9.0, job="j0", workload="LR",
                      duration=9.0)
    return path


def test_obs_summarize_command(small_trace, capsys):
    assert main(["obs", "summarize", str(small_trace)]) == 0
    out = capsys.readouterr().out
    assert "reallocations     1" in out
    assert "solver latency" in out
    assert "j0" in out


def test_obs_summarize_json_output(small_trace, capsys):
    assert main(["obs", "summarize", "--json", str(small_trace)]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["n_events"] == 4
    assert parsed["reallocations"] == 1
    assert parsed["job_completion"] == {"j0": 9.0}


def test_obs_rejects_unknown_action(small_trace):
    with pytest.raises(SystemExit):
        main(["obs", "frobnicate", str(small_trace)])


def test_obs_missing_trace_is_clean_error(tmp_path):
    with pytest.raises(SystemExit, match="no such trace"):
        main(["obs", "summarize", str(tmp_path / "nope.jsonl")])


def test_obs_malformed_trace_is_clean_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(SystemExit, match="not a JSONL event trace"):
        main(["obs", "summarize", str(path)])
