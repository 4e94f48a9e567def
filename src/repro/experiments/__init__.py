"""Experiment harnesses: one module per table/figure of the paper.

Each module returns plain dataclasses / dicts with the same rows or
series the paper reports, so the ``benchmarks/`` tree (and the
examples) can print paper-style output.  The grid-shaped experiments
-- Figures 5, 6a, 8 and 10 and the faults, online and service
extension studies -- are defined as ``*_sweep_spec`` builders: run one
with ``runner.run(spec).value`` (:func:`repro.sweep.default_runner` is
the serial shared-cache runner), and each backs one entry of
:mod:`repro.sweep.registry`, which the CLI runs.  The rest expose
``run_*`` functions.  Scale parameters default to CI-friendly values
where noted; pass the paper's numbers (500 setups, 1,944 servers,
30,000 scenarios, ...) for a full-scale run.

Experiment index (see DESIGN.md section 4 for the full mapping):

====== =====================================================
Figure Harness
====== =====================================================
1a     :func:`repro.experiments.fig1.run_fig1a`
1b     :func:`repro.experiments.fig1.run_fig1b`
2      :func:`repro.experiments.fig2.run_fig2`
5      :func:`repro.experiments.fig5_fig6.fig5_sweep_spec`
6a     :func:`repro.experiments.fig5_fig6.fig6a_sweep_spec`
6b-c   :func:`repro.experiments.fig5_fig6.run_fig6b` (c)
8a/8b  :func:`repro.experiments.fig8.fig8_sweep_spec`
9a-c   :func:`repro.experiments.fig9.run_fig9a` (b, c)
10     :func:`repro.experiments.fig10_fig11.fig10_sweep_spec`
11a    :func:`repro.experiments.fig10_fig11.run_fig11a`
11b    :func:`repro.experiments.fig10_fig11.run_fig11b`
12     :func:`repro.experiments.fig12.run_fig12`
====== =====================================================

Extension studies (not paper figures):

========= =====================================================
Study     Harness
========= =====================================================
faults    :func:`repro.experiments.extension_faults.faults_sweep_spec`
online    :func:`repro.experiments.extension_online.online_sweep_spec`
service   :func:`repro.experiments.extension_service.service_sweep_spec`
dynamism  :func:`repro.experiments.extension_dynamism.run_dynamism`
========= =====================================================

The faults, online and service modules each hold their CI smoke
configuration as one ``SMOKE_GRID`` constant of spec arguments.
"""

from repro.experiments import common
from repro.experiments import fig1, fig2, fig5_fig6, fig8, fig9
from repro.experiments import fig10_fig11, fig12

__all__ = [
    "common",
    "fig1",
    "fig2",
    "fig5_fig6",
    "fig8",
    "fig9",
    "fig10_fig11",
    "fig12",
]
