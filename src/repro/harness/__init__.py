"""Experiment harness: regenerates every table and figure of the paper.

:mod:`repro.harness.experiments` holds one function per table and the
:data:`~repro.harness.experiments.EXPERIMENTS` registry that declares
each committed ``results/`` table once; :mod:`repro.harness.report`
renders and persists tables.  ``python -m repro bench`` and the shape
tests in ``benchmarks/`` both write tables through the registry.
"""

from repro.harness.chaos import (
    ChaosOutcome,
    ChaosSoakReport,
    default_chaos_model,
    run_chaos_case,
    run_chaos_soak,
)
from repro.harness.experiments import (
    EXPERIMENTS,
    Experiment,
    congested_algorithm_choice,
    PYTORCH_BACKENDS,
    SCALE_AXIS,
    autotune_parameters,
    bandwidth_utilization,
    ctr_production,
    dawnbench,
    experiment_rows,
    fig2_motivation,
    fig14_batchsize,
    fig15_rdma,
    figure_rows,
    future_gpu_whatif,
    insightface_speedup,
    measure,
    planner_backend_sweep,
    scaling_efficiency_summary,
    tuned_aiacc_config,
    write_table,
)
from repro.harness.report import (
    ascii_chart,
    format_table,
    save_report,
)

__all__ = [
    "ChaosOutcome",
    "ChaosSoakReport",
    "EXPERIMENTS",
    "Experiment",
    "PYTORCH_BACKENDS",
    "SCALE_AXIS",
    "default_chaos_model",
    "run_chaos_case",
    "run_chaos_soak",
    "autotune_parameters",
    "bandwidth_utilization",
    "congested_algorithm_choice",
    "ctr_production",
    "dawnbench",
    "experiment_rows",
    "fig2_motivation",
    "fig14_batchsize",
    "fig15_rdma",
    "figure_rows",
    "ascii_chart",
    "format_table",
    "future_gpu_whatif",
    "insightface_speedup",
    "measure",
    "planner_backend_sweep",
    "save_report",
    "scaling_efficiency_summary",
    "tuned_aiacc_config",
    "write_table",
]
