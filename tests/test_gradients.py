import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gadpoison import attacks, gradients
from gadpoison.errors import DegenerateFit, IsolatedTarget, NodeVanished
from gadpoison.graph import generate, generate_ba, generate_er
from gadpoison.oddball import EgoFeatures, ego_features, fit_ols, surrogate_objective
from test_graph import from_dense


def relaxed_features(A):
    """N_i = sum_j A_ij and E_i = N_i + (1/2)(A^3)_ii on real-valued A."""
    N = A.sum(axis=1)
    diag3 = np.einsum("ij,ij->i", A, A @ A)
    return EgoFeatures(N=N, E=N + 0.5 * diag3)


def gradient_of(adj, targets, out=None):
    """``surrogate_gradient`` on ``adj``, into ``out`` or a new pair
    vector: (pair vector, value)."""
    if out is None:
        out = np.empty(len(adj.A) * (len(adj.A) - 1) // 2)
    return out, gradients.surrogate_gradient(adj, targets, out)


def symmetric_field(g, n):
    """The symmetric n x n matrix, zero on its diagonal, whose pair entries
    in ``np.triu_indices`` order are the pair vector g."""
    G = np.zeros((n, n))
    G[np.triu_indices(n, 1)] = g
    return G + G.T


def fresh_gradient(A, targets):
    """``surrogate_gradient`` on a fresh ``Adjacency`` of A, as the
    symmetric n x n field: (G, value)."""
    g, value = gradient_of(gradients.Adjacency(A), targets)
    return symmetric_field(g, len(A)), value


def surrogate_value(A, targets):
    """The attack objective on a relaxed adjacency, as the gradient reports it."""
    return fresh_gradient(A, targets)[1]


def jittered_er(n, p, seed, jitter=0.3):
    g = generate_er(n, p, seed)
    rng = np.random.default_rng(seed + 1000)
    noise = rng.uniform(-jitter, jitter, (n, n))
    noise = (noise + noise.T) / 2
    A = np.clip(g.dense() + noise, 0.0, 1.0)
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
    return (surrogate_value(Ap, targets) - surrogate_value(Am, targets)) / (2 * h)


class TestRelaxedFeatures:
    def test_binary_matches_ego_features(self):
        g = generate_er(25, 0.2, 9)
        f_bin = ego_features(g)
        f_rel = relaxed_features(g.dense())
        assert np.allclose(f_rel.N, f_bin.N)
        assert np.allclose(f_rel.E, f_bin.E)

    def test_half_triangle_closed_form(self):
        A = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                if i != j:
                    A[i, j] = 0.5
        f = relaxed_features(A)
        assert np.allclose(f.N, 1.0)
        assert np.allclose(f.E, 1.125)  # N + 0.5 * 2*(0.5)^3

    def test_cubic_sum_oracle(self):
        rng = np.random.default_rng(2)
        A = rng.random((10, 10))
        A = (A + A.T) / 2
        np.fill_diagonal(A, 0.0)
        f = relaxed_features(A)
        diag3 = np.array([
            sum(A[i, j] * A[j, k] * A[k, i] for j in range(10) for k in range(10))
            for i in range(10)
        ])
        assert np.allclose(f.E, f.N + 0.5 * diag3, atol=1e-12)


class TestSurrogateValue:
    def test_binary_consistency(self):
        g = generate_er(30, 0.2, 14)
        targets = [1, 5]
        v_rel = surrogate_value(g.dense(), targets)
        v_bin = surrogate_objective(ego_features(g), targets)
        assert v_rel == pytest.approx(v_bin, abs=1e-10)

    def test_empty_targets_zero(self):
        g = generate_er(10, 0.4, 1)
        assert surrogate_value(g.dense(), []) == 0.0

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
        assert surrogate_value(A, targets) == pytest.approx(expected, rel=1e-12)

    def test_node_vanished(self):
        A = np.zeros((4, 4))
        A[0, 1] = A[1, 0] = 1.0
        A[2, 3] = A[3, 2] = 1e-9
        with pytest.raises(NodeVanished):
            surrogate_value(A, [0])

    def test_isolated_target(self):
        A = np.zeros((4, 4))
        A[0, 1] = A[1, 0] = A[1, 2] = A[2, 1] = 1.0
        with pytest.raises(IsolatedTarget, match=r"targets \[3\] are isolated"):
            surrogate_value(A, [0, 3])
        with pytest.raises(IsolatedTarget, match=r"targets \[3\] are isolated"):
            surrogate_objective(ego_features(from_dense(A)), [0, 3])


class TestValueIsTheDetectorObjective:
    """The gradient's value is ``surrogate_objective`` of A's features, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(model=st.sampled_from(["ba", "er"]), seed=st.integers(0, 10_000),
           n=st.integers(6, 40), m=st.integers(1, 3), p=st.sampled_from([0.1, 0.3]),
           k=st.integers(1, 5))
    def test_binary_value_bit_equal(self, model, seed, n, m, p, k):
        g = generate(model, n, seed, p=p, m=m)
        feats = ego_features(g)
        connected = np.flatnonzero(feats.N > 0)
        assume(len(connected) >= 2 and not fit_ols(feats).degenerate)
        rng = np.random.default_rng(seed)
        targets = sorted(rng.choice(connected, size=min(k, len(connected)), replace=False).tolist())
        assert surrogate_value(g.dense(), targets) == surrogate_objective(feats, targets)

    def test_relaxed_degree_below_one_stays_in_the_fit(self):
        A = np.zeros((13, 13))
        A[:12, :12] = binary_ba(12, 2, 3)
        A[0, 12] = A[12, 0] = 0.5  # node 12 hangs on by half an edge
        feats = relaxed_features(A)
        assert 12 in fit_ols(feats).fit_mask
        assert surrogate_value(A, [0, 5]) == surrogate_objective(feats, [0, 5])


class NoSquare(np.ndarray):
    """A relaxed adjacency that fails the test if it is multiplied by a matrix."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        # sees ``A @ A`` and ``np.matmul(A, A, out=...)`` alike
        if ufunc is np.matmul and self.ndim == 2:
            raise AssertionError("A @ A computed before the precondition checks")
        inputs = [np.asarray(x) for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


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
        for fn in (surrogate_value, fresh_gradient):
            with pytest.raises(error) as info:
                fn(A.view(NoSquare), targets)
            assert str(info.value) == message

    def test_equal_degrees_with_rounded_spread(self):
        # on a 25-cycle the mean of the equal ln N rounds off them
        A = np.zeros((25, 25))
        A[np.arange(25), (np.arange(25) + 1) % 25] = 1.0
        A += A.T
        for fn in (surrogate_value, fresh_gradient):
            with pytest.raises(DegenerateFit, match="all masked ln N equal"):
                fn(A.view(NoSquare), [0])

    def test_guard_sees_matmul(self):
        A = np.zeros((3, 3))
        A[0, 1] = A[1, 0] = A[1, 2] = A[2, 1] = 1.0
        with pytest.raises(AssertionError, match="A @ A"):
            surrogate_value(A.view(NoSquare), [0])


@st.composite
def toggle_batches(draw):
    """A 0/1 adjacency and batches of distinct pairs to toggle in turn,
    from single pairs to batches past BinarizedAttack's recount
    crossover, each with whether the square is counted before it."""
    n = draw(st.integers(2, 90))
    A = generate_er(n, draw(st.sampled_from([0.1, 0.5])), draw(st.integers(0, 10_000))).dense()
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    crossover = int(attacks.RECOUNT_AT * n * n) + 1  # the smallest batch it recounts
    size = st.one_of(st.just(1), st.integers(1, crossover), st.integers(crossover, 2 * crossover))
    batches = draw(st.lists(size.map(lambda k: min(k, len(pairs))).flatmap(
        lambda k: st.lists(st.sampled_from(pairs), min_size=k, max_size=k, unique=True)),
        max_size=6))
    return A, [(batch, draw(st.booleans())) for batch in batches]


class TestAdjacencyCounts:
    @settings(max_examples=150, deadline=None)
    @given(toggle_batches())
    def test_toggles_keep_counts_exact(self, case):
        A, batches = case
        adj = gradients.Adjacency(A.copy())
        for batch, counted in batches:
            if counted:
                adj.square  # current, so the batch updates it in place
            p, q = np.array(batch, dtype=np.int32).reshape(-1, 2).T
            adj.toggle(p, q)
            for i, j in batch:
                A[i, j] = A[j, i] = 1.0 - A[i, j]
            assert np.array_equal(adj.A, A)
            assert np.array_equal(adj.N, A.sum(axis=1))
            assert np.array_equal(adj.square, A @ A)

    def test_current_square_updated_in_place_past_the_crossover(self):
        n = 100
        A = generate_ba(n, 3, 1).dense()
        adj = gradients.Adjacency(A.copy())
        adj.square
        adj.A = adj.A.view(NoSquare)  # any further product of A fails
        large = np.arange(int(attacks.RECOUNT_AT * n * n) + 1)  # BinarizedAttack recounts these
        adj.toggle(large, large + 2)
        adj.toggle(np.array([0]), np.array([n - 1]))
        for p, q in [*zip(large.tolist(), (large + 2).tolist()), (0, n - 1)]:
            A[p, q] = A[q, p] = 1.0 - A[p, q]
        assert np.array_equal(adj.A, A)
        assert np.array_equal(adj.N, A.sum(axis=1))
        assert np.array_equal(adj.square, A @ A)  # kept current, not recounted

    def test_stale_square_toggle_writes_a_and_n_only(self):
        n = 100
        A = generate_ba(n, 3, 1).dense()
        adj = gradients.Adjacency(A.copy())
        adj.square
        adj.reset(adj.A.view(NoSquare))  # stale now; any further product of A fails
        before = adj._square.tobytes()
        adj.toggle(np.array([0, 5]), np.array([1, 9]))
        for p, q in [(0, 1), (5, 9)]:
            A[p, q] = A[q, p] = 1.0 - A[p, q]
        assert adj._square.tobytes() == before
        assert np.array_equal(np.asarray(adj.A), A)
        assert np.array_equal(adj.N, A.sum(axis=1))
        with pytest.raises(AssertionError, match="A @ A"):
            adj.square  # left to the recount

    # one block, and blocks of 7 rows, whose diagonal blocks are mirrored too
    @pytest.mark.parametrize("rows", [None, 7])
    @pytest.mark.parametrize("relaxed", [False, True], ids=["binary", "relaxed"])
    def test_set_pairs_exact_and_symmetric(self, rows, relaxed, monkeypatch):
        n = 40
        if rows is not None:
            monkeypatch.setattr(gradients, "BLOCK_BYTES", 8 * n * rows)
            monkeypatch.setattr(gradients, "MIN_BLOCK_ROWS", 1)
        adj = gradients.Adjacency(generate_ba(n, 3, 2).dense())
        adj.square
        upper = np.less.outer(np.arange(n), np.arange(n))
        rng = np.random.default_rng(n)
        values = rng.random(n * (n - 1) // 2)
        if not relaxed:
            values = (values < 0.2).astype(float)
        adj.set_pairs(upper, values)
        expected = symmetric_field(values, n)
        assert np.array_equal(adj.A, expected) and np.array_equal(adj.A, adj.A.T)
        assert np.array_equal(adj.N, expected.sum(axis=1))
        if relaxed:
            np.testing.assert_allclose(adj.square, expected @ expected, rtol=1e-12)
        else:
            assert np.array_equal(adj.square, expected @ expected)  # recounted

    def test_relaxed_counts_are_dense(self):
        A = jittered_er(15, 0.3, 2)
        adj = gradients.Adjacency(A)
        assert np.array_equal(adj.N, A.sum(axis=1))
        assert np.array_equal(adj.square, A @ A)
        B = jittered_er(15, 0.3, 3)
        square = adj.square
        adj.reset(B)
        assert np.array_equal(adj.N, B.sum(axis=1))
        assert adj.square is square and np.array_equal(square, B @ B)


class TestSurrogateGradient:
    def test_finite_difference_match(self):
        A = jittered_er(20, 0.15, 3)
        targets = [2, 7]
        G, _ = fresh_gradient(A, targets)
        for p in range(20):
            for q in range(p + 1, 20):
                if abs(G[p, q]) > 1e-8:
                    fd = fd_pair_gradient(A, targets, p, q)
                    assert fd == pytest.approx(G[p, q], rel=1e-4)

    def test_empty_targets_zero_field(self):
        g = generate_er(12, 0.3, 4)
        G, _ = fresh_gradient(g.dense(), [])
        assert not G.any()

    def test_permutation_equivariance(self):
        A = jittered_er(12, 0.4, 8)
        targets = [1, 4]
        perm = np.random.default_rng(0).permutation(12)
        Ap = A[np.ix_(perm, perm)]
        permuted_targets = [int(np.flatnonzero(perm == t)[0]) for t in targets]
        G, _ = fresh_gradient(A, targets)
        Gp, _ = fresh_gradient(Ap, permuted_targets)
        assert np.allclose(G[np.ix_(perm, perm)], Gp, atol=1e-9)

    def test_symmetric_zero_diagonal(self):
        A = jittered_er(10, 0.5, 6)
        G, _ = fresh_gradient(A, [0])
        assert np.allclose(G, G.T)
        assert np.all(np.diag(G) == 0)

    def test_value_matches_surrogate_value(self):
        A = jittered_er(10, 0.5, 7)
        _, val = fresh_gradient(A, [1])
        assert val == surrogate_objective(relaxed_features(A), [1])


def binary_ba(n, m, seed):
    return generate_ba(n, m, seed).dense()


def allocating_gradient(A, targets, product=np.matmul):
    """Reference: the forward and backward passes written out on A alone,
    with fresh temporaries per term, as an n x n field G.

    The library fits through ``oddball.fit_ols`` and builds G's pair
    entries by row blocks in the reused ``adj.work``; with the same symmetric
    ``product`` both must round every element identically.
    """
    n, targets = len(A), np.asarray(sorted(targets))
    N = A.sum(axis=1)
    S = product(A, A)
    E = N + 0.5 * np.einsum("ij,ij->i", A, S)
    mask = np.flatnonzero(N > 0)
    M = len(mask)
    x, y = np.log(N[mask]), np.log(E[mask])
    xc, yc = x - x.mean(), y - y.mean()
    sxx = float(np.sum(xc**2))
    beta1 = float(np.sum(xc * yc) / sxx)
    beta0 = float(y.mean() - beta1 * x.mean())
    Ehat_t = np.exp(beta0) * N[targets] ** beta1
    resid_t = E[targets] - Ehat_t
    g_t = -2.0 * resid_t
    dL_dbeta0 = float(g_t @ Ehat_t)
    dL_dbeta1 = float(g_t @ (Ehat_t * np.log(N[targets])))
    db1_dy = xc / sxx
    db1_dx = (yc - 2.0 * beta1 * xc) / sxx
    db0_dy = 1.0 / M - x.mean() * db1_dy
    db0_dx = -beta1 / M - x.mean() * db1_dx
    dL_dx = dL_dbeta0 * db0_dx + dL_dbeta1 * db1_dx
    dL_dy = dL_dbeta0 * db0_dy + dL_dbeta1 * db1_dy
    np.add.at(dL_dx, np.searchsorted(mask, targets), g_t * Ehat_t * beta1)
    dL_dN, dL_dE = np.zeros(n), np.zeros(n)
    dL_dN[mask] = dL_dx / N[mask]
    dL_dE[mask] = dL_dy / E[mask]
    np.add.at(dL_dE, targets, 2.0 * resid_t)
    dL_dN += dL_dE
    c = 0.5 * dL_dE
    G = dL_dN[:, None] + dL_dN[None, :]
    G += 2.0 * product((A * c[:, None]).T, A)
    G += 2.0 * S * (c[:, None] + c[None, :])
    np.fill_diagonal(G, 0.0)
    return G, float(np.sum(resid_t**2))


def blocked_product(rows):
    """A product L @ R of symmetric result computed by upper row blocks of
    ``rows`` rows, each block's strictly-lower part copied from its
    transpose, as the library computes its products."""
    def product(L, R):
        X = np.empty((len(L), R.shape[1]))
        for s in range(0, len(X), rows):
            e = s + rows
            X[s:e, s:] = L[s:e] @ R[:, s:]
            X[e:, s:e] = X[s:e, e:].T
        return X
    return product


class TestWorkspace:
    """A reused ``adj.work`` gives bit-for-bit the pair vector and value of a fresh call."""

    @pytest.mark.parametrize("make, targets", [
        (lambda: jittered_er(30, 0.2, 12), [3, 11]),
        (lambda: binary_ba(40, 3, 2), [0, 5, 17]),
    ])
    def test_equal_with_and_without_work(self, make, targets):
        A = make()
        n = len(A)
        g0, v0 = gradient_of(gradients.Adjacency(A), targets)
        Gr, vr = allocating_gradient(A, targets)
        assert np.array_equal(g0, Gr[np.triu_indices(n, 1)]) and v0 == vr
        adj = gradients.Adjacency(A)
        g1, v1 = gradient_of(adj, targets)
        assert np.array_equal(g0, g1) and v0 == v1
        for buf in adj.work:
            buf.fill(np.nan)  # a scratch user's leftovers
        out = np.full_like(g1, np.nan)
        assert gradient_of(adj, targets, out)[0] is out
        assert np.array_equal(out, g0)

    def test_consecutive_calls_on_different_graphs(self):
        A1, A2 = binary_ba(40, 3, 2), jittered_er(40, 0.2, 13)
        expected = [fresh_gradient(A, [1, 4]) for A in (A1, A2, A1)]
        adj, out = gradients.Adjacency(A1), np.empty(40 * 39 // 2)
        for A, (G, v) in zip((A1, A2, A1), expected):
            adj.reset(A)
            g1, v1 = gradient_of(adj, [1, 4], out)
            assert np.array_equal(symmetric_field(g1, 40), G) and v1 == v

    def test_empty_targets(self):
        A = binary_ba(20, 2, 1)
        adj, out = gradients.Adjacency(A), np.empty(20 * 19 // 2)
        gradient_of(adj, [0], out)  # leave stale values behind
        g, v = gradient_of(adj, [], out)
        G0, v0 = fresh_gradient(A, [])
        assert v == v0 == 0.0
        assert np.array_equal(symmetric_field(g, 20), G0) and not g.any()

    @pytest.mark.parametrize("error", [IsolatedTarget, NodeVanished, DegenerateFit])
    def test_raising_call_writes_neither_buffer(self, error):
        # ContinuousA rolls back to the iterate it keeps in the out vector
        A, targets = binary_ba(30, 2, 4), [7]
        if error is IsolatedTarget:
            A[7, :] = A[:, 7] = 0.0
        elif error is NodeVanished:
            A[7, :] = A[:, 7] = 0.0
            A[7, 0] = A[0, 7] = 1e-7
        else:  # on a 30-cycle every degree is 2
            A = np.roll(np.eye(30), 1, axis=1)
            A += A.T
        rng = np.random.default_rng(0)
        adj = gradients.Adjacency(A)
        for buf in adj.work:
            buf[:] = rng.random(buf.shape)
        out = rng.random(30 * 29 // 2)
        before = [buf.tobytes() for buf in (*adj.work, out)]
        with pytest.raises(error):
            gradient_of(adj, targets, out)
        assert [buf.tobytes() for buf in (*adj.work, out)] == before

    def test_reuse_after_isolated_target(self):
        A = binary_ba(30, 2, 4)
        iso = A.copy()
        iso[7, :] = iso[:, 7] = 0.0
        adj, out = gradients.Adjacency(A), np.empty(30 * 29 // 2)
        gradient_of(adj, [7], out)
        adj.reset(iso)
        with pytest.raises(IsolatedTarget):
            gradient_of(adj, [7], out)
        g, v = gradient_of(adj, [3], out)
        G0, v0 = fresh_gradient(iso, [3])
        assert np.array_equal(symmetric_field(g, 30), G0) and v == v0


class TestBlockedProducts:
    """The square and A^T C A computed by upper row blocks of 7 and 45 rows:
    2 to 29 blocks, each layout ending in a shorter block."""

    @pytest.fixture(params=[(60, 7), (60, 45), (200, 7), (200, 45)], ids=lambda c: f"n{c[0]}-rows{c[1]}")
    def blocked(self, request, monkeypatch):
        n, rows = request.param
        monkeypatch.setattr(gradients, "BLOCK_BYTES", 8 * n * rows)
        monkeypatch.setattr(gradients, "MIN_BLOCK_ROWS", 1)
        assert gradients._block_rows(n) == rows
        assert [buf.size for buf in gradients.Adjacency(np.zeros((n, n))).work] == [rows * n] * 2
        return n

    @pytest.mark.parametrize("model", ["ba", "er"])
    def test_binary_square_is_exact(self, blocked, model):
        n = blocked
        A = generate(model, n, n, p=0.1, m=3).dense()
        square = gradients.Adjacency(A).square
        # integer entries: any summation order gives A @ A bit for bit
        assert np.array_equal(square, A @ A)
        assert np.array_equal(square, square.T)

    @pytest.mark.parametrize("relaxed", [False, True], ids=["binary", "relaxed"])
    def test_field_matches_allocating_reference(self, blocked, relaxed):
        n = blocked
        A = jittered_er(n, 0.1, n) if relaxed else binary_ba(n, 3, n)
        targets = [0, 5, n // 2]
        adj = gradients.Adjacency(A)
        g = np.empty(n * (n - 1) // 2)
        v = gradients.surrogate_gradient(adj, targets, g)
        upper = np.triu_indices(n, 1)
        Gr, vr = allocating_gradient(A, targets)
        assert v == vr
        np.testing.assert_allclose(g, Gr[upper], rtol=1e-12, atol=0)
        # the field of the same blocked products, bit for bit
        rows = gradients._block_rows(n)
        Gb, vb = allocating_gradient(A, targets, blocked_product(rows))
        assert vb == v and np.array_equal(g, Gb[upper])
        # below the diagonal blocks, which the products compute whole, each
        # block of the square is the copy of its transpose above them
        for s in range(0, n, rows):
            e = s + rows
            assert np.array_equal(adj.square[e:, s:e], adj.square[s:e, e:].T)


class TestLassoLinearity:
    def test_penalty_gradient_decomposes(self):
        # grad(L + lam*||Z||_1) = grad L + lam * sign(Z), verified by linearity
        A = jittered_er(8, 0.5, 11)
        targets = [0]
        lam = 0.05
        G, _ = fresh_gradient(A, targets)
        combined = G + lam * np.sign(A)
        np.fill_diagonal(combined, 0.0)
        assert np.allclose(combined - G, lam * np.sign(A) - np.diag(np.diag(lam * np.sign(A))))


class TestRuntimeBudget:
    def test_forward_backward_at_n1000(self):
        import time

        g = generate_er(1000, 0.02, 1)
        A = g.dense()
        targets = [0, 1, 2]
        start = time.perf_counter()
        fresh_gradient(A, targets)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
