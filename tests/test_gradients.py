import numpy as np
import pytest

from gadpoison import gradients
from gadpoison.errors import DegenerateFit, IsolatedTarget, NodeVanished
from gadpoison.graph import Graph, generate_er
from gadpoison.oddball import ego_features, surrogate_objective


def jittered_er(n, p, seed, jitter=0.3):
    g = generate_er(n, p, seed)
    rng = np.random.default_rng(seed + 1000)
    noise = rng.uniform(-jitter, jitter, (n, n))
    noise = (noise + noise.T) / 2
    A = np.clip(g.adjacency + noise, 0.0, 1.0)
    np.fill_diagonal(A, 0.0)
    # keep every degree clear of the vanishing floor
    row = A.sum(axis=1)
    assert row.min() > 0.5
    return A


def fd_pair_gradient(A, targets, p, q, h=1e-5):
    Ap, Am = A.copy(), A.copy()
    Ap[p, q] += h
    Ap[q, p] += h
    Am[p, q] -= h
    Am[q, p] -= h
    return (gradients.surrogate_value(Ap, targets) - gradients.surrogate_value(Am, targets)) / (2 * h)


class TestRelaxedFeatures:
    def test_binary_matches_ego_features(self):
        g = generate_er(25, 0.2, 9)
        f_bin = ego_features(g)
        f_rel = gradients.relaxed_features(g.adjacency.astype(float))
        assert np.allclose(f_rel.N, f_bin.N)
        assert np.allclose(f_rel.E, f_bin.E)

    def test_half_triangle_closed_form(self):
        A = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                if i != j:
                    A[i, j] = 0.5
        f = gradients.relaxed_features(A)
        assert np.allclose(f.N, 1.0)
        assert np.allclose(f.E, 1.125)  # N + 0.5 * 2*(0.5)^3

    def test_cubic_sum_oracle(self):
        rng = np.random.default_rng(2)
        A = rng.random((10, 10))
        A = (A + A.T) / 2
        np.fill_diagonal(A, 0.0)
        f = gradients.relaxed_features(A)
        diag3 = np.array([
            sum(A[i, j] * A[j, k] * A[k, i] for j in range(10) for k in range(10))
            for i in range(10)
        ])
        assert np.allclose(f.E, f.N + 0.5 * diag3, atol=1e-12)


class TestSurrogateValue:
    def test_binary_consistency(self):
        g = generate_er(30, 0.2, 14)
        targets = [1, 5]
        v_rel = gradients.surrogate_value(g.adjacency.astype(float), targets)
        v_bin = surrogate_objective(ego_features(g), targets)
        assert v_rel == pytest.approx(v_bin, abs=1e-10)

    def test_empty_targets_zero(self):
        g = generate_er(10, 0.4, 1)
        assert gradients.surrogate_value(g.adjacency.astype(float), []) == 0.0

    def test_independent_forward_oracle(self):
        A = jittered_er(8, 0.6, 5)
        targets = [0, 3]
        # step-by-step re-implementation
        N = A.sum(axis=1)
        E = N + 0.5 * np.einsum("ij,jk,ki->i", A, A, A)
        x, y = np.log(N), np.log(E)
        b1 = np.cov(x, y, bias=True)[0, 1] / np.var(x)
        b0 = y.mean() - b1 * x.mean()
        expected = sum((E[t] - np.exp(b0) * N[t] ** b1) ** 2 for t in targets)
        assert gradients.surrogate_value(A, targets) == pytest.approx(expected, rel=1e-12)

    def test_node_vanished(self):
        A = np.zeros((4, 4))
        A[0, 1] = A[1, 0] = 1.0
        A[2, 3] = A[3, 2] = 1e-9
        with pytest.raises(NodeVanished):
            gradients.surrogate_value(A, [0])

    def test_isolated_target(self):
        A = np.zeros((4, 4))
        A[0, 1] = A[1, 0] = A[1, 2] = A[2, 1] = 1.0
        with pytest.raises(IsolatedTarget, match=r"targets \[3\] are isolated"):
            gradients.surrogate_value(A, [0, 3])
        with pytest.raises(IsolatedTarget, match=r"isolated nodes\): \[3\]"):
            surrogate_objective(ego_features(Graph(A.astype(np.uint8))), [0, 3])


class NoSquare(np.ndarray):
    """A relaxed adjacency that fails the test if it is multiplied by a matrix."""

    def __matmul__(self, other):
        if self.ndim == 2:
            raise AssertionError("A @ A computed before the precondition checks")
        return super().__matmul__(other)


class TestPreconditions:
    @pytest.mark.parametrize("edges, targets, error, message", [
        ([], [0], DegenerateFit, "fewer than 2 non-isolated nodes"),
        ([(0, 1, 1.0), (2, 3, 1e-9)], [0], NodeVanished, "degree below 1e-06 at nodes [2, 3]"),
        ([(0, 1, 1.0), (2, 3, 1.0)], [0], DegenerateFit, "all masked ln N equal; slope undefined"),
        ([(0, 1, 1.0), (1, 2, 1.0)], [3, 0], IsolatedTarget, "targets [3] are isolated"),
    ])
    def test_raised_before_matmul(self, edges, targets, error, message):
        A = np.zeros((4, 4))
        for p, q, w in edges:
            A[p, q] = A[q, p] = w
        for fn in (gradients.surrogate_value, gradients.surrogate_gradient):
            with pytest.raises(error) as info:
                fn(A.view(NoSquare), targets)
            assert str(info.value) == message

    def test_guard_sees_matmul(self):
        A = np.zeros((3, 3))
        A[0, 1] = A[1, 0] = A[1, 2] = A[2, 1] = 1.0
        with pytest.raises(AssertionError, match="A @ A"):
            gradients.surrogate_value(A.view(NoSquare), [0])


class TestSurrogateGradient:
    def test_finite_difference_match(self):
        A = jittered_er(20, 0.15, 3)
        targets = [2, 7]
        G = gradients.surrogate_gradient(A, targets)
        for p in range(20):
            for q in range(p + 1, 20):
                if abs(G[p, q]) > 1e-8:
                    fd = fd_pair_gradient(A, targets, p, q)
                    assert fd == pytest.approx(G[p, q], rel=1e-4)

    def test_empty_targets_zero_field(self):
        g = generate_er(12, 0.3, 4)
        G = gradients.surrogate_gradient(g.adjacency.astype(float), [])
        assert not G.any()

    def test_permutation_equivariance(self):
        A = jittered_er(12, 0.4, 8)
        targets = [1, 4]
        perm = np.random.default_rng(0).permutation(12)
        Ap = A[np.ix_(perm, perm)]
        permuted_targets = [int(np.flatnonzero(perm == t)[0]) for t in targets]
        G = gradients.surrogate_gradient(A, targets)
        Gp = gradients.surrogate_gradient(Ap, permuted_targets)
        assert np.allclose(G[np.ix_(perm, perm)], Gp, atol=1e-9)

    def test_symmetric_zero_diagonal(self):
        A = jittered_er(10, 0.5, 6)
        G = gradients.surrogate_gradient(A, [0])
        assert np.allclose(G, G.T)
        assert np.all(np.diag(G) == 0)

    def test_value_matches_surrogate_value(self):
        A = jittered_er(10, 0.5, 7)
        _, val = gradients.surrogate_gradient(A, [1], return_value=True)
        assert val == pytest.approx(gradients.surrogate_value(A, [1]), rel=1e-12)


class TestLassoLinearity:
    def test_penalty_gradient_decomposes(self):
        # grad(L + lam*||Z||_1) = grad L + lam * sign(Z), verified by linearity
        A = jittered_er(8, 0.5, 11)
        targets = [0]
        lam = 0.05
        G = gradients.surrogate_gradient(A, targets)
        combined = G + lam * np.sign(A)
        np.fill_diagonal(combined, 0.0)
        assert np.allclose(combined - G, lam * np.sign(A) - np.diag(np.diag(lam * np.sign(A))))


class TestRuntimeBudget:
    def test_forward_backward_at_n1000(self):
        import time

        g = generate_er(1000, 0.02, 1)
        A = g.adjacency.astype(float)
        targets = [0, 1, 2]
        start = time.perf_counter()
        gradients.surrogate_gradient(A, targets, return_value=True)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
