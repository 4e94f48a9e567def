"""Tests for the machine-readable experiment reports."""

import json


from repro.experiments.report import (
    generate_reports,
    load_report,
    write_report,
)


def test_write_and_load_roundtrip(tmp_path):
    path = write_report(
        "demo", {"a": 1.5, "nested": {"b": [1, 2]}}, tmp_path,
        parameters={"n": 3},
    )
    doc = load_report(path)
    assert doc["experiment"] == "demo"
    assert doc["parameters"] == {"n": 3}
    assert doc["result"]["nested"]["b"] == [1, 2]
    assert doc["generated_unix"] > 0


def test_dataclass_payloads_serialise(tmp_path):
    from dataclasses import dataclass

    @dataclass
    class Point:
        x: float
        y: float

    path = write_report("points", [Point(1.0, 2.0)], tmp_path)
    doc = load_report(path)
    assert doc["result"] == [{"x": 1.0, "y": 2.0}]


def test_non_jsonable_values_stringified(tmp_path):
    write_report("odd", {"obj": object()}, tmp_path)
    text = (tmp_path / "odd.json").read_text()
    json.loads(text)  # must stay valid JSON


def test_generate_quick_reports(tmp_path):
    seen = []
    paths = generate_reports(tmp_path, heavy=False,
                             progress=seen.append)
    names = {p.stem for p in paths}
    assert {"fig1a", "fig1b", "fig2", "fig5", "fig6a", "fig6b",
            "fig6c"} <= names
    assert seen == [p.stem for p in paths]
    doc = load_report(tmp_path / "fig1a.json")
    assert "LR" in doc["result"]
