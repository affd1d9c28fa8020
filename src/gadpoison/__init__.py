"""Egonet power-law anomaly detection, structural poisoning attacks,
robust-regression defenses, and black-box transfer evaluation."""

from .attacks import AttackConfig, PerturbationPlan, binarized_attack, continuous_a, grad_max_search, tau_as
from .defense import fit_huber, fit_ransac, rescore_features, robust_rescore
from .graph import (
    EdgeFlip,
    FlipAction,
    Graph,
    apply_flips,
    derive_rng,
    generate,
    generate_ba,
    generate_er,
    load_edge_list,
    save_edge_list,
)
from .oddball import (
    AnomalyReport,
    EgoFeatures,
    RegressionFit,
    anomaly_scores,
    ego_features,
    fit_ols,
    rank_top_k,
    score_graph,
    surrogate_objective,
    write_report_csv,
)
from .stats import PermTestResult, permutation_test
from .transfer import (
    Embedding,
    LabeledSplit,
    PipelineConfig,
    RefexConfig,
    TransferReport,
    identify_targets,
    make_labeled_split,
    refex_embed,
    run_transfer_attack,
    train_classifier,
)

__version__ = "0.1.0"
