import json

import compare
import metrics
import workloads

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def shifted(values, factor):
    return [v * factor for v in values]


def test_lower_is_better_regression_beyond_bound_is_worse():
    assert compare.verdict(STEADY, shifted(STEADY, 1.2), "lower", 0.1) == "worse"


def test_higher_is_better_regression_beyond_bound_is_worse():
    assert compare.verdict(STEADY, shifted(STEADY, 0.8), "higher", 0.1) == "worse"


def test_clear_gain_is_better():
    assert compare.verdict(STEADY, shifted(STEADY, 0.9), "lower", 0.1) == "better"
    assert compare.verdict(STEADY, shifted(STEADY, 1.1), "higher", 0.1) == "better"


def test_small_change_within_noise_is_unchanged():
    assert compare.verdict(STEADY, STEADY[::-1], "lower", 0.1) == "unchanged"
    assert compare.verdict(STEADY, shifted(STEADY, 1.05), "lower", 0.1) == "unchanged"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    assert compare.verdict(STEADY, noisy, "lower", 0.1) == "unresolved"
    # ... unless every run of the change reads better (or worse) than
    # every parent run.
    assert compare.verdict(noisy, [1.0, 2.0, 30.0, 45.0], "lower", 0.1) == "better"
    assert compare.verdict(noisy, [200.0, 400.0, 300.0], "lower", 0.1) == "worse"


def test_per_layer_metrics_get_no_verdict():
    assert compare.verdict(STEADY, shifted(STEADY, 2.0), "lower", None) == "-"


def test_compare_reads_run_output_lines(tmp_path):
    def write(path, values):
        with open(path, "w") as handle:
            for v in values:
                handle.write(json.dumps({
                    "workload": "w", "seed": 1, "trace": 0, "correct": True,
                    "attempted": 1, "failed": 0,
                    "metrics": {"flows_per_s": {"value": v, "unit": "flows/s"}},
                }) + "\n")

    write(tmp_path / "a.jsonl", STEADY)
    write(tmp_path / "b.jsonl", shifted(STEADY, 0.5))
    spec = {"flows_per_s": {"name": "flows_per_s", "unit": "flows/s",
                            "better": "higher", "bound": 0.1}}
    rows = compare.compare(
        compare.load_results(tmp_path / "a.jsonl"),
        compare.load_results(tmp_path / "b.jsonl"),
        spec,
    )
    assert [(r["workload"], r["metric"], r["verdict"]) for r in rows] == [
        ("w", "flows_per_s", "worse")
    ]
    assert rows[0]["before"][3] == 10


def test_benchmark_json_lists_every_metric_the_run_prints():
    with open(compare.BENCHMARK_JSON) as handle:
        bench = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert end_to_end == metrics.END_TO_END_UNITS
    assert per_layer == metrics.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
