"""Exception types shared across the toolkit."""


class GadPoisonError(Exception):
    """Base class for all toolkit errors."""


class MalformedEdgeList(GadPoisonError):
    """An edge-list file could not be parsed; carries the offending line number."""

    def __init__(self, path, line_no, message):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class EmptyGraph(GadPoisonError):
    """No edges survived edge-list filtering."""


class GraphTooLarge(GadPoisonError):
    """A dense n x n adjacency would need more bytes than physical memory."""


class InvalidFlip(GadPoisonError):
    """A flip in a plan is inconsistent with the graph state it is applied to."""

    def __init__(self, index, message):
        self.index = index
        super().__init__(f"flip #{index}: {message}")


class DegenerateFit(GadPoisonError):
    """The log-log line cannot be fitted: fewer than 2 nodes with N > 0
    (OLS and the surrogate gradient), all their ln N equal (the surrogate
    gradient; OLS returns a degenerate fit instead), a singular weighted
    design (Huber), or fewer than 2 distinct ln N (RANSAC)."""


class NodeVanished(GadPoisonError):
    """A relaxed adjacency drove some node's degree below the log-safety floor."""


class IsolatedTarget(GadPoisonError, ValueError):
    """A target node has degree zero, so it lies outside the power-law fit."""


class ZeroBaseline(GadPoisonError):
    """The clean-graph target score sum is zero; tau_as is undefined."""


class NoConsensus(GadPoisonError):
    """RANSAC found no candidate line with at least two inliers."""


class EmptyTargets(GadPoisonError):
    """The transfer pipeline's classifier predicted no test node as anomalous."""
