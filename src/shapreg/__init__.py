"""shapreg: k-additive Shapley regression.

Logistic classification whose predictor is a k-additive cooperative game,
parameterized directly by Shapley interaction indices, with the benchmark,
stability, and capacity-analysis protocols built around it.
"""

from .analysis import (
    InteractionMatrix,
    LabelFlipStudy,
    bound_report,
    consensus_interactions,
    effective_dimension,
    filter_stable,
    gap_experiment,
    main_effects,
    sensitivity_to_label_flip,
    top_by_strength,
)
from .basis import DesignMatrix, design_matrix, phi
from .cv import (
    BootstrapResult,
    CVReport,
    bootstrap_stability,
    default_lambda_grid,
    k_sweep_benchmark,
    nested_cv,
    noise_robustness,
    stratified_folds,
)
from .data import Dataset, gen_pure_pairwise, gen_random_noise, load_csv, undersample
from .games import (
    Basis,
    SetFunction,
    capacity_from_mobius,
    choquet_mobius,
    coalition_index,
    enumerate_coalitions,
    mobius_from_capacity,
    mobius_from_shapley,
    num_coalitions,
    shapley_from_mobius,
    truncate_k_additive,
)
from .metrics import MetricSet, metrics
from .model import ShapleyModel
from .train import (
    STATUSES,
    FitConfig,
    FitResult,
    Problem,
    at_order,
    fit,
    loss_and_gradient,
    prepare,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "BootstrapResult",
    "CVReport",
    "Dataset",
    "DesignMatrix",
    "FitConfig",
    "FitResult",
    "InteractionMatrix",
    "LabelFlipStudy",
    "MetricSet",
    "Problem",
    "STATUSES",
    "SetFunction",
    "ShapleyModel",
    "at_order",
    "bootstrap_stability",
    "bound_report",
    "capacity_from_mobius",
    "choquet_mobius",
    "coalition_index",
    "consensus_interactions",
    "default_lambda_grid",
    "design_matrix",
    "effective_dimension",
    "enumerate_coalitions",
    "filter_stable",
    "fit",
    "gap_experiment",
    "gen_pure_pairwise",
    "gen_random_noise",
    "k_sweep_benchmark",
    "load_csv",
    "loss_and_gradient",
    "main_effects",
    "metrics",
    "mobius_from_capacity",
    "mobius_from_shapley",
    "nested_cv",
    "noise_robustness",
    "num_coalitions",
    "phi",
    "prepare",
    "sensitivity_to_label_flip",
    "shapley_from_mobius",
    "stratified_folds",
    "top_by_strength",
    "truncate_k_additive",
    "undersample",
]
