"""Controller + policy integration for the online estimation path."""

from __future__ import annotations

import json

import pytest

from repro.core.controller import SabaController
from repro.core.table import SensitivityTable
from repro.errors import RegistrationError
from repro.obs.events import Observer
from repro.online import (
    EstimatorConfig,
    OnlineModelProvider,
    OnlineSensitivityEstimator,
)
from repro.experiments.common import make_policy
from repro.experiments.extension_online import SMOKE_GRID, online_sweep_spec
from repro.simnet.fabric import FluidFabric
from repro.simnet.topology import single_switch
from repro.sweep import default_runner

from .test_estimator import feed_curve


def make_online_controller(**kwargs):
    est = OnlineSensitivityEstimator(EstimatorConfig(min_samples=6))
    ctrl = SabaController(
        SensitivityTable(),
        model_provider=OnlineModelProvider(est),
        **kwargs,
    )
    est.subscribe(ctrl.on_models_updated)
    fabric = FluidFabric(single_switch(4, capacity=100.0))
    fabric.set_policy(ctrl)
    return est, ctrl


class TestColdRegistration:
    def test_online_provider_admits_unprofiled_workload(self):
        _, ctrl = make_online_controller()
        pl = ctrl.app_register("a", "never-profiled")
        assert ctrl.pl_of("a") == pl

    def test_offline_default_still_rejects(self, small_table):
        ctrl = SabaController(small_table)
        with pytest.raises(RegistrationError):
            ctrl.app_register("a", "never-profiled")


class TestEpochPropagation:
    def test_view_epoch_includes_provider_epoch(self):
        est, ctrl = make_online_controller()
        ctrl.app_register("a", "W")
        before = ctrl.pipeline._view.epoch
        feed_curve(est)  # earns trust -> provider epoch bump
        assert ctrl.pipeline._view.epoch > before

    def test_offline_view_epoch_is_clustering_epoch(self, small_table):
        ctrl = SabaController(small_table)
        ctrl.app_register("a", "LR")
        assert ctrl.pipeline._view.epoch == ctrl._epoch


class TestModelUpdateCallback:
    def test_refit_refreshes_pl_model(self):
        est, ctrl = make_online_controller()
        ctrl.app_register("a", "W")
        pl = ctrl.pl_of("a")
        prior = ctrl._pl_models[pl]
        assert prior.r_squared is None  # the conservative prior
        feed_curve(est)
        # The PL model is the group's centroid; with one member it
        # carries the fitted coefficients verbatim.
        fitted = ctrl._pl_models[pl]
        assert fitted is not prior
        trusted = est.model_for("W")
        assert fitted.coefficients == pytest.approx(trusted.coefficients)

    def test_update_for_unregistered_workload_is_noop(self):
        est, ctrl = make_online_controller()
        ctrl.app_register("a", "W")
        epoch = ctrl._epoch
        ctrl.on_models_updated(["unrelated"])
        assert ctrl._epoch == epoch

    def test_stale_controller_survives_notifications(self):
        # A finished wave's controller stays subscribed to the shared
        # estimator; with no registered apps the callback must no-op.
        est, ctrl = make_online_controller()
        ctrl.app_register("a", "W")
        ctrl.app_deregister("a")
        feed_curve(est)  # notifies the (now empty) controller


class TestMakePolicy:
    def test_saba_online_policy_setup_wiring(self):
        obs = Observer()
        setup = make_policy("saba-online", observer=obs)
        assert setup.estimator is not None
        assert setup.sampler is not None
        assert setup.sampler.estimator is setup.estimator
        assert setup.provider is not None
        # Cold-start admits anything via the prior chain.
        assert setup.provider.has_model("anything")

    def test_estimator_reuse_rebinds_observer(self):
        first = Observer()
        setup = make_policy("saba-online", observer=first)
        estimator = setup.estimator
        second = Observer()
        make_policy("saba-online", observer=second, estimator=estimator)
        assert estimator.observer is second


@pytest.fixture(scope="module")
def smoke():
    return default_runner().run(online_sweep_spec(**SMOKE_GRID)).value


class TestExperiment:
    def test_convergence_criterion(self, smoke):
        assert smoke.convergence_gap <= 0.05

    def test_fallbacks_drain_as_models_earn_trust(self, smoke):
        ratios = [w.fallback_ratio for w in smoke.wave_points]
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[0] > ratios[-1]
        assert ratios[-1] == pytest.approx(0.0)

    def test_speedup_improves_from_cold_start(self, smoke):
        assert smoke.speedup_online > smoke.wave_points[0].speedup

    def test_estimator_earned_trust(self, smoke):
        assert smoke.estimator  # at least one workload observed
        assert all(s["trusted"] for s in smoke.estimator.values())

    def test_samples_flow_every_wave(self, smoke):
        assert all(w.stage_samples > 0 for w in smoke.wave_points)

    def test_to_json_is_canonical(self, smoke):
        payload = json.loads(smoke.to_json())
        assert payload["seed"] == 7
        assert payload["waves"] == smoke.waves
        assert len(payload["wave_points"]) == smoke.waves
        assert payload["convergence_gap"] <= 0.05
        # Canonical form: re-serialising the parsed payload with
        # sorted keys reproduces the string byte for byte.
        assert smoke.to_json() == json.dumps(
            payload, indent=2, sort_keys=True
        )
