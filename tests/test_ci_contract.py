"""Every ``python -m repro`` command CI runs or README shows parses
against the CLI.

A renamed or deleted flag would otherwise break only a CI job, or
leave a README example that no longer runs.  The commands are read
out of ``.github/workflows/ci.yml`` and README.md's ``bash`` code
blocks and parsed with the subcommand handlers stubbed out, so nothing
runs.
"""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest
import yaml

import repro.__main__ as cli

ROOT = Path(__file__).resolve().parents[1]
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
README = ROOT / "README.md"


def repro_argv(line):
    """The argv after ``python -m repro`` on one shell line, else ``None``.

    A trailing ``# comment`` and a ``> file`` redirect are dropped.
    """
    words = shlex.split(line, comments=True)
    if ">" in words:
        words = words[:words.index(">")]
    if words[:3] == ["python", "-m", "repro"]:
        return words[3:]
    return None


def ci_invocations():
    """The argv of every ``python -m repro`` command line in CI."""
    workflow = yaml.safe_load(CI_WORKFLOW.read_text())
    lines = [
        line
        for job in workflow["jobs"].values()
        for step in job["steps"]
        for line in step.get("run", "").splitlines()
    ]
    return [argv for argv in map(repro_argv, lines) if argv is not None]


def readme_invocations():
    """The argv of every ``python -m repro`` line in README.md's
    ``bash`` code blocks."""
    lines = []
    fence = None
    for line in README.read_text().splitlines():
        marker = line.strip()
        if marker.startswith("```"):
            fence = marker[3:] if fence is None else None
        elif fence == "bash":
            lines.append(line)
    return [argv for argv in map(repro_argv, lines) if argv is not None]


def test_every_ci_command_parses(monkeypatch):
    sources = {"CI": ci_invocations(), "README.md": readme_invocations()}
    assert len(sources["CI"]) >= 13
    assert len(sources["README.md"]) >= 24
    seen = []
    monkeypatch.setattr(
        cli, "COMMANDS", {name: seen.append for name in cli.COMMANDS}
    )
    for source, invocations in sources.items():
        seen.clear()
        for argv in invocations:
            try:
                assert cli.main(argv) == 0
            except SystemExit as exc:
                pytest.fail(f"{source} shows a command the CLI rejects: "
                            f"python -m repro {shlex.join(argv)} "
                            f"(exit {exc.code})")
        assert [args.command for args in seen] == [argv[0] for argv in invocations]
