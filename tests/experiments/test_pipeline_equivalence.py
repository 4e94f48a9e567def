"""Pipeline-refactor equivalence pins.

The allocation pipeline extraction (``repro.core.pipeline``) must be
behavior-preserving: with event coalescing off and signature caching
on (the defaults), fig8 and fig10 outputs match the pre-refactor
code.  ``golden_pipeline.json`` was printed by the commit immediately
before the refactor (``ef1d96a``) with the exact recipe below, on a
different machine and library stack.  Each figure is held to two
contracts:

* **One machine: bit identity.**  The recipe runs in two fresh
  subprocesses with different ``PYTHONHASHSEED`` values, and the two
  outputs are compared with ``==`` on the raw floats.
* **Across machines: the golden within a stated tolerance.**  The
  keys must match the golden's exactly, and each value must lie within
  :data:`CROSS_MACHINE_RTOL` (relative) of its golden value.

The tolerance exists because the floats follow the OpenBLAS kernel the
machine dispatches to.  Two stages on the recipe's path go through
BLAS/LAPACK: the Eq. 1 fit (``lstsq`` and the SLSQP-constrained QP in
``core/sensitivity.py``), whose coefficients move by up to 1.4e-14 of
their norm for the catalog models and 1.4e-10 for the synthetic ones,
and the Eq. 2 SLSQP solve, which moves fig8's 4-app port weights by
up to 9.7e-7 even on bit-identical models.  The KKT weights do not
move.  Measured on a 2-vCPU AVX-512 Xeon (Python 3.11, numpy 2.4,
scipy 1.17 with OpenBLAS 0.3.31), the 24 ``OPENBLAS_CORETYPE`` values
from Katmai to SapphireRapids give 5 distinct outputs.  None lies
more than 3.5e-7 from the golden, and no two lie more than 3.9e-7
apart; the tolerance is 2.5x that spread.  It still catches real
changes.  On that machine these edits move fig8 and fig10 by (largest
relative change):

* ``DEFAULT_C_SABA`` 1.0 -> 0.999: 5.7e-5 and 4.5e-5;
* the weight floor 0.10 -> 0.0999: 3.9e-7 and 4.5e-5 (no fig8 app
  sits at the floor, so fig8 moves only by SLSQP path noise);
* Eq. 2 SLSQP ``ftol`` 1e-9 -> 1e-8: 1.6e-6 and 0;
* port weights handed back in reverse name order: 0.33 and 0.12.

Changes smaller than the tolerance pass the golden check: KKT
bisection 30 -> 25 iterations moves the recipe by 7.5e-9.  On the
same machine, ``ef1d96a`` prints the refactored code's bytes under the
default, ``Haswell`` and ``Prescott`` kernels, so the refactor itself
moved nothing.

The recipe runs in fresh subprocesses, with
:data:`repro.sweep.CACHE_DIR_ENV` removed so that each profiles
afresh, and replays fig8 and fig10 in one process, in the
golden-generation order.  No ulp-level dependence on earlier
in-process work reproduces: with ``reset_flow_ids()`` before each,
three in-process repeats of the recipe print the subprocess's bytes,
and so does one run after the whole test suite.  Two pieces of
process-global state keep the recipe out of the test process:

* flow ids come from a process-global counter
  (``repro.simnet.flows``) and ECMP path selection keys on the flow
  id, so the fig10 runs only reproduce the goldens when preceded by
  exactly the flow population the golden-generation script created --
  i.e. the fig8 runs;
* the sweep cache's in-process layer would hand the recipe whatever
  catalog table an earlier test profiled.

The coalesced-churn test covers the opt-in batching mode: batching
connection events into one deduplicated pass per quantum must still
complete the same job set.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sweep import CACHE_DIR_ENV

GOLDEN = Path(__file__).parent / "golden_pipeline.json"

#: Largest relative deviation from ``golden_pipeline.json`` accepted on
#: any machine: 2.5x the widest measured spread between OpenBLAS
#: kernels (3.9e-7).
CROSS_MACHINE_RTOL = 1e-6

#: ``PYTHONHASHSEED`` of each fresh recipe run; on one machine their
#: outputs must be ``==``.
HASH_SEEDS = ("0", "1")

#: Reduced spine-leaf shape used by the golden fig10 runs.
TINY_TOPOLOGY = dict(n_spine=2, n_leaf=3, n_tor=4, servers_per_tor=4)

#: Exact replay of the golden-generation script: catalog table, two
#: fig8 setup pairs, then the fig10 baseline/saba points.
_PINNED_RECIPE = """
import json
from repro.experiments.common import build_catalog_table
from repro.experiments.fig8 import run_setup_pair
from repro.cluster.setups import generate_setups
from repro.experiments.fig10_fig11 import (
    build_simulation, profile_synthetic, run_policy_point,
)

table = build_catalog_table(method="analytic")
setups = list(generate_setups(
    n_setups=2, jobs_per_setup=4, seed=2023, max_instances=8,
))
fig8 = {
    f"setup{setup.setup_id}": run_setup_pair(setup, table, n_servers=8)
    for setup in setups
}

TINY = dict(n_spine=2, n_leaf=3, n_tor=4, servers_per_tor=4)
_, _, specs = build_simulation(n_workloads=6, topology_kwargs=TINY, seed=11)
syn_table = profile_synthetic(specs)
fig10 = {
    policy: run_policy_point(
        policy, syn_table, topology_kwargs=TINY, n_workloads=6, seed=11,
    )
    for policy in ("baseline", "saba")
}
print(json.dumps({"fig8": fig8, "fig10": fig10}))
"""


def _run_recipe(script, hash_seed):
    repo_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env.pop(CACHE_DIR_ENV, None)
    src = str(repo_root / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=540,
        cwd=repo_root, env=env,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def _flatten(tree, prefix=""):
    """``{"setup0/job0:PR": value, ...}`` for a nested dict of floats."""
    flat = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}/"))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def pinned():
    """The recipe's output once per :data:`HASH_SEEDS` entry."""
    return [_run_recipe(_PINNED_RECIPE, seed) for seed in HASH_SEEDS]


def _assert_pins(figure, golden, pinned):
    """Both contracts of the module docstring for one figure."""
    first, second = (_flatten(run[figure]) for run in pinned)
    assert first == second, (
        f"{figure} differs between two runs on one machine "
        f"(PYTHONHASHSEED={HASH_SEEDS[0]} vs {HASH_SEEDS[1]}):\n"
        + "\n".join(
            f"  {key}: {first.get(key)!r} vs {second.get(key)!r}"
            for key in sorted(first.keys() | second.keys())
            if first.get(key) != second.get(key)
        )
    )
    want = _flatten(golden[figure])
    assert first.keys() == want.keys(), (
        f"{figure} keys differ from {GOLDEN.name}: "
        f"missing {sorted(want.keys() - first.keys())}, "
        f"extra {sorted(first.keys() - want.keys())}"
    )
    drifted = []
    for key in sorted(want):
        deviation = abs(first[key] - want[key]) / abs(want[key])
        if not deviation <= CROSS_MACHINE_RTOL:
            drifted.append(
                f"  {key}: got {first[key]!r}, golden {want[key]!r}, "
                f"relative deviation {deviation:.2e}"
            )
    assert not drifted, (
        f"{figure} lies more than CROSS_MACHINE_RTOL="
        f"{CROSS_MACHINE_RTOL:g} from {GOLDEN.name}:\n" + "\n".join(drifted)
    )


def test_fig8_bit_identical_to_pre_refactor(golden, pinned):
    _assert_pins("fig8", golden, pinned)


def test_fig10_bit_identical_to_pre_refactor(golden, pinned):
    _assert_pins("fig10", golden, pinned)


def test_coalesced_churn_completes_same_job_set():
    """Randomized co-run churn: the coalesced control plane sees the
    same registrations/teardowns batched per quantum and must still
    run every job to completion."""
    from repro.cluster.runtime import CoRunExecutor, PolicySetup
    from repro.core.controller import SabaController
    from repro.core.library import SabaLibrary
    from repro.experiments.fig10_fig11 import (
        build_simulation, profile_synthetic,
    )

    make_topology, make_jobs, specs = build_simulation(
        n_workloads=4, topology_kwargs=TINY_TOPOLOGY, seed=29,
    )
    syn_table = profile_synthetic(specs, rack_nodes=6)

    def run_mode(quantum):
        controller = SabaController(
            syn_table, coalesce_quantum=quantum,
        )
        setup = PolicySetup(
            policy=controller,
            connections_factory=SabaLibrary.factory(controller),
            controller=controller,
            pipeline=controller.pipeline,
        )
        executor = CoRunExecutor(
            make_topology(), policy=setup, completion_quantum=0.1,
        )
        results = executor.run(make_jobs())
        return results, controller.pipeline.stats

    eager_results, eager_stats = run_mode(0.0)
    coalesced_results, coalesced_stats = run_mode(0.05)
    assert set(coalesced_results) == set(eager_results)
    for job_id, result in coalesced_results.items():
        assert result.completion_time > 0.0
    assert coalesced_stats.coalesce_flushes > 0
    assert coalesced_stats.coalesced_updates > 0
    assert coalesced_stats.passes < eager_stats.passes
