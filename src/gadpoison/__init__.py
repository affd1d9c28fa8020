"""Egonet power-law anomaly detection, structural poisoning attacks,
robust-regression defenses, and black-box transfer evaluation.

Importing the package loads no submodule: each exported name, and each
submodule attribute such as ``gadpoison.attacks``, is imported on first
access (PEP 562), so a process pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(["AttackConfig", "PerturbationPlan", "binarized_attack", "continuous_a",
                     "grad_max_search", "tau_as"], "attacks"),
    **dict.fromkeys(["fit_huber", "fit_ransac", "rescore_features", "robust_rescore"], "defense"),
    **dict.fromkeys(["EdgeFlip", "FlipAction", "Graph", "apply_flips", "derive_rng", "generate",
                     "generate_ba", "generate_er", "load_edge_list", "save_edge_list"], "graph"),
    **dict.fromkeys(["AnomalyReport", "EgoFeatures", "RegressionFit", "anomaly_scores", "ego_features",
                     "fit_ols", "rank_top_k", "score_graph", "surrogate_objective",
                     "write_report_csv"], "oddball"),
    **dict.fromkeys(["PermTestResult", "permutation_test"], "stats"),
    **dict.fromkeys(["Embedding", "LabeledSplit", "PipelineConfig", "RefexConfig", "TransferReport",
                     "identify_targets", "make_labeled_split", "refex_embed", "run_transfer_attack",
                     "train_classifier"], "transfer"),
}
_SUBMODULES = ("attacks", "defense", "errors", "gradients", "graph", "oddball", "stats", "transfer")

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
