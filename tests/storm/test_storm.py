"""Storm runs, presets, fuzz determinism, and pinned regressions."""

import json
import os
from dataclasses import replace

import pytest

from repro.core.controller import SabaController
from repro.errors import ServiceError
from repro.service import AllocationService
from repro.simnet.fabric import FluidFabric
from repro.simnet.topology import single_switch
from repro.storm import PRESETS, StormConfig, run_storm
from repro.storm.fuzz import (
    fuzz_one,
    fuzz_sweep_spec,
    run_fuzz_campaign,
    sample_config,
)
from repro.sweep import SweepRunner


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_presets_run_clean(name):
    report = run_storm(PRESETS[name])
    assert report.ok, report.violations
    assert report.injected > 0
    # Cancelled flows finish through the completion path too.
    assert report.cancelled <= report.completed <= report.injected
    assert report.max_active >= 2, "preset generates no contention"


def test_run_is_deterministic():
    a = run_storm(PRESETS["smoke"]).to_json()
    b = run_storm(PRESETS["smoke"]).to_json()
    assert a == b


def test_report_serializes():
    report = run_storm(PRESETS["smoke"])
    payload = json.loads(report.dumps())
    assert payload["config"]["seed"] == PRESETS["smoke"].seed
    assert payload["violations"] == []
    assert "completions" not in payload


def test_service_mode_accounts_every_request():
    report = run_storm(PRESETS["service"])
    assert report.ok, report.violations
    acct = report.accounting
    assert acct is not None
    assert acct["admitted"] + acct["rejected"] == report.offered
    assert acct["open_flows"] == 0


def test_config_validation():
    with pytest.raises(ValueError):
        replace(PRESETS["smoke"], duration=0.0)
    with pytest.raises(ValueError):
        replace(PRESETS["smoke"], mode="service")  # needs a saba spec
    with pytest.raises(ValueError):
        replace(PRESETS["smoke"], destroy_fraction=1.5)


def test_sample_config_is_pure():
    a, b = sample_config(123), sample_config(123)
    assert a == b
    assert a != sample_config(124)
    assert isinstance(a, StormConfig)


#: ``sample_config(seed).config()`` for seeds 0-19, recorded when the
#: sampler still picked a flow-index backend and a solver backend for
#: each scenario (the ``incidence_backend`` and ``solver_backend`` keys
#: are left out).  The sampler still consumes both draws, so every
#: later draw -- and every campaign seed -- must map to the same
#: scenario.
SAMPLED_CONFIGS = os.path.join(os.path.dirname(__file__), "sample_configs.json")


def test_sample_config_draws_are_stable():
    with open(SAMPLED_CONFIGS) as handle:
        recorded = json.load(handle)
    assert sorted(recorded, key=int) == [str(seed) for seed in range(20)]
    for seed, config in recorded.items():
        got = json.loads(json.dumps(sample_config(int(seed)).config()))
        assert got == config, seed


def test_fuzz_one_is_deterministic():
    a = fuzz_one(11, equivalence=False)
    b = fuzz_one(11, equivalence=False)
    assert a == b
    assert a["seed"] == 11


def test_fuzz_campaign_aggregates():
    report = run_fuzz_campaign(
        4, base_seed=3, runner=SweepRunner(jobs=1, cache=None),
        equivalence=False,
    )
    assert report["scenarios"] == 4
    assert report["passed"] + report["failed"] == 4
    assert sum(report["by_mode"].values()) == 4


def test_fuzz_sweep_spec_seeds_are_stable():
    spec = fuzz_sweep_spec(3, base_seed=9)
    again = fuzz_sweep_spec(3, base_seed=9)
    assert [t.seed for t in spec.tasks] == [t.seed for t in again.tasks]
    assert len({t.seed for t in spec.tasks}) == 3
    with pytest.raises(ValueError):
        fuzz_sweep_spec(0)


# -- pinned fuzzer catches ---------------------------------------------------

#: Campaign seeds (base_seed=0 derivation) whose sampled service-mode
#: scenarios exposed the conn_destroy accounting bug: tearing down an
#: unknown flow id raised without counting the request as rejected, so
#: ``admitted + rejected`` fell short of ``offered``.
CONN_DESTROY_REGRESSION_SEEDS = (5, 15)


@pytest.mark.parametrize("seed", CONN_DESTROY_REGRESSION_SEEDS)
def test_fuzzer_regression_conn_destroy_accounting(seed):
    verdict = fuzz_one(seed, equivalence=False)
    assert verdict["mode"] == "service", "seed no longer samples the bug path"
    assert verdict["ok"], verdict["violations"]


def test_conn_destroy_unknown_flow_counts_as_rejected(small_table):
    """The unit-level pin of the same bug: the refusal must go through
    the rejection accounting, not a bare raise."""
    ctrl = SabaController(small_table)
    fabric = FluidFabric(single_switch(4, capacity=100.0))
    fabric.set_policy(ctrl)
    service = AllocationService(fabric, ctrl)
    with pytest.raises(ServiceError):
        service.conn_destroy(999)
    assert service.rejected == 1
    assert service.admitted == 0
