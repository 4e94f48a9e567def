"""Every ``python -m repro`` command CI runs parses against the CLI.

A renamed or deleted flag would otherwise break only a CI job.  The
commands are read out of ``.github/workflows/ci.yml`` and parsed with
the subcommand handlers stubbed out, so nothing runs.
"""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest
import yaml

import repro.__main__ as cli

CI_WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"


def ci_invocations():
    """The argv after ``python -m repro`` of every CI command line."""
    workflow = yaml.safe_load(CI_WORKFLOW.read_text())
    invocations = []
    for job in workflow["jobs"].values():
        for step in job["steps"]:
            for line in step.get("run", "").splitlines():
                words = shlex.split(line)
                if ">" in words:
                    words = words[:words.index(">")]
                if words[:3] == ["python", "-m", "repro"]:
                    invocations.append(words[3:])
    return invocations


def test_every_ci_command_parses(monkeypatch):
    invocations = ci_invocations()
    assert len(invocations) >= 13
    seen = []
    monkeypatch.setattr(
        cli, "COMMANDS", {name: seen.append for name in cli.COMMANDS}
    )
    for argv in invocations:
        try:
            assert cli.main(argv) == 0
        except SystemExit as exc:
            pytest.fail(f"CI runs a command the CLI rejects: "
                        f"python -m repro {shlex.join(argv)} (exit {exc.code})")
    assert [args.command for args in seen] == [argv[0] for argv in invocations]
