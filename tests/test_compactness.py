import json
import tracemalloc

import numpy as np
import pytest

from heatcert import operators
from heatcert.bundle import (
    EndomorphismField,
    UnitaryConnection,
    decompose_potential,
)
from heatcert.compactness import (
    LedgerRow,
    certify_compactness,
    check_2a_bound,
    check_2to2_bound,
    check_domination,
    check_hs_bound,
    check_resolvent_bound,
    check_resolvent_laplace,
    estimate_2a_norm,
    laplace_weight_integral,
    resolvent_via_laplace,
    sup_kernel_on,
)
from heatcert.cli import build_coulomb_demo
from heatcert.control import ControlPair, F2Family, fit_control, laplace_rule
from heatcert.graph import build_exhaustion, make_graph, path_graph, random_graph
from heatcert.heat import DEFAULT_TIMES, kernel_from_semigroup
from heatcert.operators import (
    OperatorMatrix,
    _resolvent_g,
    _semigroup_g,
    _symmetrize,
    add_potential,
    assemble_covariant,
    assemble_laplacian,
    dirichlet_restriction,
    multiplication_operator,
    resolvent,
    resolvent_singular_values,
    semigroup_matrix as semigroup,
    singular_values,
)


def two_vertex(beta=1.0, rho=(1.0, 1.0)):
    return make_graph(["1", "2"], {"1": rho[0], "2": rho[1]},
                      [("1", "2", beta)])


def graph_pair(g, kernel, q=1.0):
    pair, cert = fit_control(kernel, "graph", q)
    assert cert.ok
    return pair


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    qm, r = np.linalg.qr(z)
    return qm * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()[None, :]


def random_connection(g, d, rng):
    phi = np.array([random_unitary(rng, d) for _ in range(g.src.size)])
    return UnitaryConnection(g, phi, np.linalg.inv(phi))


class TestLedgerRow:
    def test_slack_and_pass(self):
        row = LedgerRow("x", 1.0, 2.0)
        assert row.slack == 1.0 and row.ok

    def test_tolerance_band(self):
        assert LedgerRow("x", 1.0 + 1e-12, 1.0, tol=1e-10).ok
        assert not LedgerRow("x", 1.1, 1.0, tol=1e-10).ok


class TestResolventLaplace:
    def test_single_vertex_value(self):
        g = make_graph(["x"], {"x": 1.0}, [])
        H = assemble_laplacian(g)
        assert resolvent_via_laplace(H, 2.0)[0, 0] == pytest.approx(0.5, abs=1e-10)

    def test_two_vertex_analytic(self):
        H = assemble_laplacian(two_vertex(1.0))
        quad = np.real(resolvent_via_laplace(H, 1.0))
        expected = 0.5 * np.array([[1 + 1 / 3, 1 - 1 / 3], [1 - 1 / 3, 1 + 1 / 3]])
        np.testing.assert_allclose(quad, expected, atol=1e-9)

    def test_crosscheck_random_50(self):
        rng = np.random.default_rng(0)
        g = random_graph(50, rng)
        H = assemble_laplacian(g)
        row = check_resolvent_laplace(H, 1.0)
        assert row.ok
        # the residual bounds the error on every eigenvalue, the largest too
        assert row.lhs < 1e-12
        lam = H.eigh()[0]
        assert row.detail["lambda_max_over_a"] == pytest.approx(lam[-1])
        assert row.detail["lambda_max_over_a"] > 90

    def test_rejects_nonpositive_shift(self):
        H = assemble_laplacian(two_vertex())
        with pytest.raises(ValueError):
            resolvent_via_laplace(H, 0.0)


class TestHsBound:
    def test_zero_potential(self):
        g = two_vertex()
        H = assemble_laplacian(g)
        k = kernel_from_semigroup(H, (0.5, 1.0))
        cp = graph_pair(g, k)
        rows = check_hs_bound({"1": 0.0, "2": 0.0}, k, cp, t=0.5)
        assert rows[0].detail["hs_sq"] == 0.0
        assert rows[0].detail["diag_sq"] == 0.0
        assert all(r.ok for r in rows)

    def test_two_vertex_analytic_diagonal(self):
        g = two_vertex(1.0)
        H = assemble_laplacian(g)
        k = kernel_from_semigroup(H, (0.5, 1.0))
        cp = graph_pair(g, k)
        rows = check_hs_bound({"1": 1.0, "2": 0.0}, k, cp, t=0.5)
        identity, bound = rows
        # ||W P_t||_HS^2 = p(2t, 1, 1) = (1 + e^{-2}) / 2 at t = 1/2
        assert identity.detail["hs_sq"] == pytest.approx((1 + np.exp(-2)) / 2,
                                                         abs=1e-12)
        assert identity.ok and bound.ok

    def test_sweep_random_graphs(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = random_graph(int(rng.integers(5, 40)), rng)
            H = assemble_laplacian(g)
            k = kernel_from_semigroup(H, (0.25, 0.5, 1.0))
            cp = graph_pair(g, k)
            for _ in range(20):
                W = {v: float(rng.standard_normal()) for v in g.vertices}
                for t in (0.25, 0.5):
                    rows = check_hs_bound(W, k, cp, t)
                    assert all(r.ok for r in rows), [r.to_dict() for r in rows]

    def test_rejects_q_above_one(self):
        g = two_vertex()
        k = kernel_from_semigroup(assemble_laplacian(g), (0.5, 1.0))
        cp = ControlPair(np.ones(g.n), F2Family.constant(1.0), 2.0)
        with pytest.raises(ValueError):
            check_hs_bound({"1": 1.0, "2": 0.0}, k, cp, t=0.5)


class TestStep2Step3:
    def test_bounds_hold_on_sweep(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            g = random_graph(25, rng)
            H = assemble_laplacian(g)
            k = kernel_from_semigroup(H, DEFAULT_TIMES)
            W = {v: float(rng.standard_normal()) for v in g.vertices}
            for q in (1.5, 2.0, 3.0):
                cp = graph_pair(g, k, q)
                for t in (0.01, 0.5, 2.0):
                    assert check_2to2_bound(W, H, cp, t).ok
                for a in (1.0, 2.0, 4.0):
                    assert check_resolvent_bound(W, H, cp, a).ok

    def test_single_vertex_resolvent_equality(self):
        g = make_graph(["x"], {"x": 1.0}, [])
        H = assemble_laplacian(g)
        cp = ControlPair(np.ones(1), F2Family.constant(1.0), 2.0)
        row = check_resolvent_bound({"x": -3.0}, H, cp, a=1.0)
        # H = 0: sole singular value |w|/(0 + 1); quadrature constant 1
        assert row.lhs == pytest.approx(3.0, abs=1e-12)
        assert row.rhs == pytest.approx(3.0, abs=1e-8)
        assert row.ok

    def test_sigma1_nonincreasing_in_a(self):
        rng = np.random.default_rng(3)
        g = random_graph(20, rng)
        H = assemble_laplacian(g)
        cp = ControlPair(np.ones(g.n), F2Family.constant(1.0), 2.0)
        W = {v: float(rng.standard_normal()) for v in g.vertices}
        sigmas = [check_resolvent_bound(W, H, cp, a).lhs
                  for a in (0.5, 1.0, 2.0, 4.0)]
        for lo, hi in zip(sigmas[1:], sigmas):
            assert lo <= hi + 1e-12

    def test_rejects_q_equal_one(self):
        g = two_vertex()
        H = assemble_laplacian(g)
        cp = ControlPair(np.ones(g.n), F2Family.constant(1.0), 1.0)
        with pytest.raises(ValueError):
            check_2to2_bound({"1": 1.0, "2": 0.0}, H, cp, 0.5)
        with pytest.raises(ValueError):
            check_resolvent_bound({"1": 1.0, "2": 0.0}, H, cp, 1.0)


class TestLaplaceWeightIntegral:
    def test_constant_family_unit(self):
        val = laplace_weight_integral(F2Family.constant(1.0), 1.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_shift_scaling(self):
        val = laplace_weight_integral(F2Family.constant(1.0), 1.0, 2.0)
        assert val == pytest.approx(0.5, abs=1e-9)

    def test_time_scale_on_power_family(self):
        # with F2 = t^-1 + 1 and q = 1 the scaled integrand is exact:
        # int e^{-t} sqrt((2t)^-1 + 1) dt, oracle by dense quadrature
        fam = F2Family.power(1.0, 1.0)
        val = laplace_weight_integral(fam, 1.0, 1.0, time_scale=2.0)
        # graded composite Gauss-Legendre oracle (panels shrink toward the
        # t^{-1/2} endpoint singularity)
        nodes, weights = np.polynomial.legendre.leggauss(16)
        edges = [60.0 * (0.5 ** k) for k in range(600)] + [0.0]
        oracle = 0.0
        for lo, hi in zip(edges[::-1], edges[::-1][1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            t = mid + half * nodes
            oracle += half * float(np.sum(
                weights * np.exp(-t) * np.sqrt(1.0 / (2 * t) + 1.0)))
        assert val == pytest.approx(oracle, abs=1e-7)

    def test_divergent_exponent_raises(self):
        with pytest.raises(ValueError):
            laplace_weight_integral(F2Family.power(1.0, 2.0), 1.0, 1.0)

    @pytest.mark.parametrize("fam, f2", [(F2Family.constant(3.0), 3.0),
                                         (F2Family.power(3.0, 0.0), 6.0)])
    @pytest.mark.parametrize("q", [1.0, 2.0])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("time_scale", [1.0, 2.0])
    def test_t_independent_family_is_exact(self, fam, f2, q, a, time_scale):
        val = laplace_weight_integral(fam, q, a, time_scale=time_scale)
        assert val == f2 ** (1.0 / (2.0 * q)) / a


class TestTwoAlpha:
    def test_empty_subset(self):
        g = path_graph(4)
        k = kernel_from_semigroup(assemble_laplacian(g), (1.0,))
        rng = np.random.default_rng(0)
        row = check_2a_bound([], k, 1.0, 4.0, rng)
        assert row.lhs == 0.0 and row.ok

    def test_single_vertex_unit_saturation(self):
        g = make_graph(["x"], {"x": 1.0}, [])
        k = kernel_from_semigroup(assemble_laplacian(g), (1.0,))
        rng = np.random.default_rng(0)
        row = check_2a_bound(["x"], k, 1.0, 4.0, rng)
        # H = 0, rho = 1: operator norm 1 against C_U^{1/4} = 1
        assert row.lhs == pytest.approx(1.0, abs=1e-9)
        assert row.rhs == pytest.approx(1.0)
        assert row.ok

    def test_two_vertex_reported_constant(self):
        g = two_vertex(1.0)
        k = kernel_from_semigroup(assemble_laplacian(g), (1.0,))
        rng = np.random.default_rng(1)
        row = check_2a_bound(["1"], k, 1.0, 4.0, rng)
        assert row.detail["C_U"] == pytest.approx((1 + np.exp(-2)) / 2, abs=1e-12)
        assert row.ok

    def test_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_graph(int(rng.integers(4, 25)), rng)
            k = kernel_from_semigroup(assemble_laplacian(g), (0.1, 1.0))
            size = int(rng.integers(1, g.n + 1))
            U = list(rng.choice(g.vertices, size=size, replace=False))
            t = float(rng.choice([0.1, 1.0]))
            alpha = float(rng.choice([3.0, 4.0, 8.0]))
            assert check_2a_bound(U, k, t, alpha, rng).ok

    def test_rejects_alpha_at_most_two(self):
        g = path_graph(3)
        k = kernel_from_semigroup(assemble_laplacian(g), (1.0,))
        with pytest.raises(ValueError):
            estimate_2a_norm(k, ["v0"], 1.0, 2.0, np.random.default_rng(0))

    def test_sup_kernel_matches_max(self):
        g = path_graph(5)
        k = kernel_from_semigroup(assemble_laplacian(g), (0.5,))
        full = sup_kernel_on(k, g.vertices, 0.5)
        assert full == pytest.approx(float(np.max(np.real(k.at(0.5)))))


class TestDomination:
    def test_trivial_connection_equality(self):
        rng = np.random.default_rng(5)
        g = random_graph(10, rng)
        H = assemble_laplacian(g)
        Hc = assemble_covariant(g, 1, UnitaryConnection.trivial(g, 1))
        rows = check_domination(Hc, H, (0.5, 1.0), (1.0,), 10, rng)
        assert all(r.ok for r in rows)
        # T = S: nonnegative sections saturate (i), so worst gap is ~0
        semi = next(r for r in rows if r.name == "kato-domination-semigroup")
        assert abs(semi.lhs) < 1e-10

    def test_magnetic_two_vertex_analytic(self):
        g = two_vertex(1.0)
        conn = UnitaryConnection.from_edge_phases(g, [np.pi / 2])
        Hc = assemble_covariant(g, 1, conn)
        H = assemble_laplacian(g)
        t = 1.0
        delta = np.array([1.0, 0.0], dtype=complex)
        lhs = np.abs(semigroup(Hc, t) @ delta)
        rhs = np.real(semigroup(H, t)) @ np.abs(delta)
        # off-diagonal equality for a delta section
        assert lhs[1] == pytest.approx(rhs[1], abs=1e-12)
        assert lhs[1] == pytest.approx((1 - np.exp(-2 * t)) / 2, abs=1e-12)
        # strict inequality for the constant section
        ones = np.ones(2, dtype=complex)
        lhs1 = np.abs(semigroup(Hc, t) @ ones)
        rhs1 = np.real(semigroup(H, t)) @ np.abs(ones)
        assert np.all(lhs1 < rhs1 - 1e-3)

    def test_random_sweep_rank2_with_potential(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            g = random_graph(8, rng)
            conn = random_connection(g, 2, rng)
            Hc = assemble_covariant(g, 2, conn)
            vals = {}
            for v in g.vertices:
                z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                vals[v] = z @ z.conj().T
            V = EndomorphismField(2, vals, self_adjoint=True)
            Hc = add_potential(Hc, V)
            H = assemble_laplacian(g)
            rows = check_domination(Hc, H, (0.1, 1.0), (0.5, 2.0), 50, rng)
            assert all(r.ok for r in rows), [r.to_dict() for r in rows]

    def test_spectral_ordering_row(self):
        rng = np.random.default_rng(7)
        g = random_graph(12, rng)
        conn = random_connection(g, 2, rng)
        Hc = assemble_covariant(g, 2, conn)
        H = assemble_laplacian(g)
        rows = check_domination(Hc, H, (1.0,), (1.0,), 5, rng)
        spectral = next(r for r in rows if r.name == "kato-spectral-ordering")
        assert spectral.ok
        assert spectral.lhs == pytest.approx(H.lambda_min(), abs=1e-12)

    def test_rejects_vertex_mismatch(self):
        g1, g2 = path_graph(3), path_graph(4)
        H1 = assemble_laplacian(g1)
        H2c = assemble_covariant(g2, 1, UnitaryConnection.trivial(g2, 1))
        with pytest.raises(ValueError):
            check_domination(H2c, H1, (1.0,), (1.0,), 1, np.random.default_rng(0))

    def test_domination_never_holds_a_whole_covariant_operator(self):
        # no eigenbasis made first: with holonomy, a call makes S's real
        # eigh and one complex eigvalsh of T, and holds at most two whole
        # copies of T, herm(A_T) and its conjugate, never an eigenbasis of T
        rng = np.random.default_rng(25)
        g = random_graph(200, rng)
        Hc = assemble_covariant(g, 2, random_connection(g, 2, rng))
        H = assemble_laplacian(g)
        tracemalloc.start()
        try:
            check_domination(Hc, H, (0.1, 1.0), (1.0,), 5, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * Hc.dim ** 2 * 16 and "eigh" not in Hc._cache

    def test_trials_and_rng_have_no_effect(self):
        rng = np.random.default_rng(26)
        g = random_graph(12, rng)
        Hc = assemble_covariant(g, 2, random_connection(g, 2, rng))
        H = assemble_laplacian(g)
        a, b = (check_domination(Hc, H, (0.1, 1.0), (1.0,), trials, np.random.default_rng(seed))
                for trials, seed in ((0, 1), (50, 2)))
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_holonomy_makes_no_complex_eigh(self, monkeypatch):
        rng = np.random.default_rng(27)
        g = random_graph(30, rng)
        Hc = assemble_covariant(g, 2, random_connection(g, 2, rng))
        H = assemble_laplacian(g)
        calls = []
        for name in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, *r, _n=name, _f=fn, **k:
                                calls.append((_n, a.dtype.kind, a.ndim)) or _f(a, *r, **k))
        rows = check_domination(Hc, H, (0.1, 1.0), (1.0,), 5, rng)
        # S's eigh, the vertex blocks' batched eigvalsh and T's eigvalsh
        assert sorted(calls) == [("eigh", "f", 2), ("eigvalsh", "c", 2), ("eigvalsh", "c", 3)]
        assert all(r.ok for r in rows) and rows[2].rhs == pytest.approx(
            eigh_min(Hc), abs=1e-12)

    @pytest.mark.parametrize("case", ["weights", "positive"])
    def test_rejects_a_scalar_operator_that_is_not_the_hosts(self, case):
        # S over other vertex weights, or with a positive off-diagonal entry
        # (e^{-tS} then is not positive): no CLI path builds either one
        g = random_graph(8, np.random.default_rng(28))
        Hc = assemble_covariant(g, 1, UnitaryConnection.trivial(g, 1))
        H = assemble_laplacian(g)
        if case == "weights":
            S = OperatorMatrix(H.matrix, H.vertices, 1, 2.0 * H.rho, H.kind)
        else:
            S = OperatorMatrix(np.abs(H.matrix), H.vertices, 1, H.rho, H.kind)
        with pytest.raises(ValueError, match="vertex weights" if case == "weights"
                           else "positive off-diagonal"):
            check_domination(Hc, S, (1.0,), (1.0,), 0, np.random.default_rng(0))


def eigh_min(H):
    return float(np.linalg.eigvalsh(H.hermitian())[0])


def fiber_norms(f, d):
    return np.sqrt(np.sum(np.abs(f.reshape(-1, d)) ** 2, axis=1))


def reference_domination(H_cov, H_scal, times, a_values, trials, rng):
    """Section-by-section Kato gaps: (worst gap, worst_at) per family."""
    d = H_cov.rank
    dim = H_cov.dim
    sections = [np.eye(dim, dtype=complex)[:, j] for j in range(dim)]
    for _ in range(trials):
        sections.append(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    out = []
    for key, params, op in (("t", times, semigroup), ("a", a_values, resolvent)):
        worst, worst_at = -np.inf, None
        for p in params:
            m_cov, m_scal = op(H_cov, p), np.real(op(H_scal, p))
            for si, f in enumerate(sections):
                gap = float(np.max(fiber_norms(m_cov @ f, d) - m_scal @ fiber_norms(f, d)))
                if gap > worst:
                    worst, worst_at = gap, {key: p, "section": si}
        out.append((worst, worst_at))
    return out


def reference_block_domination(H_cov, H_scal, times, a_values, trials, rng):
    """Block-by-block Kato gaps: np.linalg.norm(B, 2) of every d x d block
    of the coordinate g(T) against the scalar entry, then the random
    sections' fiber gaps. (worst gap, worst_at) per family: the first
    largest block gap in row-major order, or a random section whose gap
    exceeds every block's."""
    n, d, dim = len(H_cov.vertices), H_cov.rank, H_cov.dim
    randoms = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(trials)]
    out = []
    for key, params, op in (("t", times, semigroup), ("a", a_values, resolvent)):
        worst, worst_at = -np.inf, None
        for p in params:
            m_cov, m_scal = op(H_cov, p), np.real(op(H_scal, p))
            blocks = m_cov.reshape(n, d, n, d).transpose(0, 2, 1, 3)
            gaps = np.linalg.norm(blocks, 2, axis=(2, 3)) - m_scal
            x, y = np.unravel_index(np.argmax(gaps), gaps.shape)
            if gaps[x, y] > worst:
                worst = float(gaps[x, y])
                worst_at = {key: p, "x": H_cov.vertices[x], "y": H_cov.vertices[y]}
            for k, f in enumerate(randoms):
                gap = float(np.max(fiber_norms(m_cov @ f, d) - m_scal @ fiber_norms(f, d)))
                if gap > worst:
                    worst, worst_at = gap, {key: p, "section": k}
        out.append((worst, worst_at))
    return out


def assert_fails_with_positive_gap(Hc, H):
    """Both gap rows fail on the blockwise route, and each bounds the
    positive exact block gap of the dense g(T)."""
    times, a_values = (0.1, 1.0), (1.0,)
    rows = check_domination(Hc, H, times, a_values, 5, np.random.default_rng(4))
    ref = reference_block_domination(Hc, H, times, a_values, 5, np.random.default_rng(4))
    for row, (worst, _) in zip(rows, ref):
        assert worst > 1e-3 and not row.ok and row.lhs >= worst
        assert row.detail["route"] == "blockwise" and row.detail["margin"] > 0
    return rows


def power_host(n, p, rng):
    """A path with n chords more, seeded b in [0.5, 2] and rho_j = (1+j)^-p,
    so that the entries of A_S reach about n^p."""
    ids = [f"v{j}" for j in range(n)]
    edges = {(j, j + 1) for j in range(n - 1)}
    while len(edges) < 2 * n - 1:
        edges.add(tuple(sorted(rng.choice(n, 2, replace=False).tolist())))
    return make_graph(ids, {v: (1.0 + j) ** -p for j, v in enumerate(ids)},
                      [(ids[a], ids[b], float(rng.uniform(0.5, 2.0))) for a, b in sorted(edges)])


class TestBlockwiseCriterion:
    """Hosts whose verdict the criterion must get right: dominated ones pass
    with eta exactly 0, each margin within its rounding allowance, and
    violated ones fail with a positive exact gap."""

    @pytest.mark.parametrize("p", [1.25, 1.5])
    @pytest.mark.parametrize("rank, n", [(1, 400), (2, 200)])
    def test_power_weight_hosts_pass(self, rank, n, p):
        # without the allowance, rounding in the margins of entries near
        # n^p gives eta > 0, and a semigroup row near 3e-9 at rank 1
        rng = np.random.default_rng(40)
        g = power_host(n, p, rng)
        conn = (UnitaryConnection.from_edge_phases(g, rng.uniform(0, 2 * np.pi, g.src.size))
                if rank == 1 else random_connection(g, rank, rng))
        rows = check_domination(assemble_covariant(g, rank, conn), assemble_laplacian(g),
                                DEFAULT_TIMES, (0.5, 1.0), 0, np.random.default_rng(0))
        assert all(r.ok for r in rows)
        assert rows[0].detail["eta"] == 0.0 and rows[0].lhs == rows[1].lhs == 0.0

    def test_half_weight_edge_with_compensating_potential_passes(self):
        # T's edge at half weight is dominated off the diagonal, and the
        # potential restores the degree that the edge lost on the diagonal
        rng = np.random.default_rng(41)
        g = random_graph(12, rng, p=0.4)
        (pair, w), *rest = g.b.items()
        u, v = sorted(pair)
        half = make_graph(g.vertices, g.rho, [(u, v, w / 2)] + [(*sorted(q), b) for q, b in rest])
        blocks = np.zeros((g.n, 2, 2), dtype=complex)
        for x in (u, v):
            blocks[g.index(x)] = np.eye(2) * (w / 2) / g.rho[x]
        Hc = add_potential(assemble_covariant(half, 2, random_connection(half, 2, rng)),
                           EndomorphismField.from_blocks(2, g.vertices, blocks, True))
        H = assemble_laplacian(g)
        rows = check_domination(Hc, H, (0.1, 1.0), (1.0,), 5, np.random.default_rng(4))
        assert all(r.ok for r in rows) and rows[0].detail["eta"] == 0.0
        (worst, _), _ = reference_block_domination(Hc, H, (0.1, 1.0), (1.0,), 0, None)
        assert worst <= 1e-13

    def test_potential_block_below_zero_fails(self):
        # lambda_min = -0.5 at one vertex; holonomy keeps T PSD
        rng = np.random.default_rng(42)
        g = random_graph(12, rng, p=0.4)
        blocks = np.broadcast_to(2.0 * np.eye(2, dtype=complex), (g.n, 2, 2)).copy()
        q = random_unitary(rng, 2)
        blocks[3] = q @ np.diag([-0.5, 1.0]) @ q.conj().T
        Hc = add_potential(assemble_covariant(g, 2, random_connection(g, 2, rng)),
                           EndomorphismField.from_blocks(2, g.vertices, blocks, True))
        rows = assert_fails_with_positive_gap(Hc, assemble_laplacian(g))
        assert rows[0].detail["margin"] == pytest.approx(0.5, abs=1e-12)

    def test_scalar_operator_lacking_an_edge_fails(self):
        rng = np.random.default_rng(43)
        g = random_graph(12, rng, p=0.4)
        (pair, w), *rest = g.b.items()
        lacking = make_graph(g.vertices, g.rho, [(*sorted(q), b) for q, b in rest])
        Hc = assemble_covariant(g, 2, random_connection(g, 2, rng))
        rows = assert_fails_with_positive_gap(Hc, assemble_laplacian(lacking))
        x, y = (g.index(v) for v in sorted(pair))
        assert rows[0].detail["margin"] == pytest.approx(w / np.sqrt(g.rho_vec[x] * g.rho_vec[y]))


class TestFastPathsAgainstReferences:
    def test_laplace_matches_explicit_semigroup_sum(self):
        rng = np.random.default_rng(21)
        g = random_graph(12, rng)
        Hc = assemble_covariant(g, 2, random_connection(g, 2, rng))
        a = 1.5
        explicit = np.zeros((Hc.dim, Hc.dim), dtype=complex)
        for t, w in zip(*laplace_rule(a)):
            explicit += w * semigroup(Hc, t)
        fast = resolvent_via_laplace(Hc, a)
        rel = np.linalg.norm(fast - explicit) / np.linalg.norm(explicit)
        assert rel <= 1e-12

    @pytest.mark.parametrize("rank, n", [(2, 10), (1, 10), (2, 200), (1, 200)],
                             ids=["2", "1", "2-n200", "1-n200"])
    def test_block_domination_matches_section_loop(self, rank, n):
        # random connections, which carry holonomy: each derived row bounds
        # the exact block gap of the dense g(T), and passes
        rng = np.random.default_rng(22)
        g = random_graph(n, rng)
        Hc = assemble_covariant(g, rank, random_connection(g, rank, rng))
        H = assemble_laplacian(g)
        times, a_values, trials = (0.05, 0.5, 2.0), (0.5, 3.0), 7
        rows = check_domination(Hc, H, times, a_values, trials, np.random.default_rng(3))
        ref = reference_block_domination(Hc, H, times, a_values, trials,
                                         np.random.default_rng(3))
        assert [r.name for r in rows] == ["kato-domination-semigroup",
                                          "kato-domination-resolvent",
                                          "kato-spectral-ordering"]
        for row, (worst, _) in zip(rows, ref):
            assert row.ok and row.lhs >= worst - 1e-13
            assert row.detail["route"] == "blockwise"
        assert rows[2].lhs == H.lambda_min() and "route" not in rows[2].detail
        assert rows[2].rhs == pytest.approx(eigh_min(Hc), abs=1e-12)

    @pytest.mark.parametrize("n", [10, 400])
    def test_trivial_connection_takes_the_gauge_route(self, n):
        # T = S: every margin is round-off within its allowance, so eta is
        # 0; the ordering row reads the gauge, whose eta is round-off. The
        # rows bound the section loop's gaps (which tie at 0 up to round-off)
        rng = np.random.default_rng(22)
        g = random_graph(n, rng)
        Hc = assemble_covariant(g, 1, UnitaryConnection.trivial(g, 1))
        H = assemble_laplacian(g)
        times, a_values, trials = (0.05, 0.5, 2.0), (0.5, 3.0), 7
        rows = check_domination(Hc, H, times, a_values, trials, np.random.default_rng(3))
        assert "eigh" not in Hc._cache
        ref = reference_domination(Hc, H, times, a_values, trials, np.random.default_rng(3))
        eta = rows[2].detail["eta"]
        assert 0 <= eta <= 1e-13
        margin = rows[0].detail["margin"]
        assert abs(margin) <= 1e-15
        detail = {"route": "blockwise", "eta": 0.0, "margin": margin}
        assert [r.detail for r in rows] == [
            {**detail, "worst_at": {"t": 2.0}}, {**detail, "worst_at": {"a": 0.5}},
            {"route": "gauge", "eta": eta}]
        for row, (worst, _) in zip(rows, ref):
            assert row.ok and worst <= row.lhs + 1e-13
        assert rows[2].lhs == H.lambda_min() and rows[2].rhs == H.lambda_min() - eta

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_doubled_edge_weights_break_domination(self, order):
        # the largest block gap of g(T) lies above the diagonal (x before
        # y) with rho ascending in vertex order, and below it with rho
        # descending; the margins find the doubled weights either way
        rng = np.random.default_rng(23)
        g = random_graph(10, rng)
        rho = dict(zip(g.vertices, sorted(g.rho.values(), reverse=order == "descending")))
        scalar = make_graph(g.vertices, rho, [(*tuple(pair), w) for pair, w in g.b.items()])
        doubled = make_graph(g.vertices, rho,
                             [(*tuple(pair), 2.0 * w) for pair, w in g.b.items()])
        Hc = assemble_covariant(doubled, 2, random_connection(doubled, 2, rng))
        H = assemble_laplacian(scalar)
        assert_fails_with_positive_gap(Hc, H)

    def test_stale_eigendecomposition_fails_the_crosscheck(self):
        # the cached spectrum is that of the same graph with one edge weight
        # doubled, so the quadrature resolvent inverts the wrong matrix
        rng = np.random.default_rng(24)
        g = random_graph(20, rng)
        (pair, w), *rest = g.b.items()
        other = make_graph(g.vertices, g.rho, [(*sorted(pair), 2.0 * w)]
                           + [(*sorted(p), b) for p, b in rest])
        H = assemble_laplacian(g)
        stale = OperatorMatrix(H.matrix, H.vertices, H.rank, H.rho, H.kind,
                               {"eigh": assemble_laplacian(other).eigh()})
        assert check_resolvent_laplace(H, 1.0).ok
        assert not check_resolvent_laplace(stale, 1.0).ok

    def test_non_psd_operator_rejected(self):
        g = path_graph(4)
        H = assemble_laplacian(g)
        V = EndomorphismField.scalar({v: -1.0 for v in g.vertices})
        shifted = add_potential(H, V)
        with pytest.raises(ValueError, match="not PSD"):
            resolvent_via_laplace(shifted, 1.0)


def dense_singular_values(W: EndomorphismField, Hn, dense):
    """The dense route: every singular value of the weighted W dense(Hn)."""
    w = multiplication_operator(W, Hn.vertices, Hn.rho).matrix
    return np.linalg.svd(_symmetrize(w @ dense(Hn), Hn.measure_weights()),
                         compute_uv=False)


def random_field(g, d, rng, support=None):
    """Hermitian d x d blocks at the vertices in support (default: all),
    exact zeros elsewhere."""
    support = set(g.vertices if support is None else support)
    vals = {}
    for v in g.vertices:
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        vals[v] = (z + z.conj().T) / 2 if v in support else np.zeros((d, d))
    return EndomorphismField(d, vals, self_adjoint=True)


def dense_resolvent_sv(blocks, Hn, a):
    """The dense route for W (Hn + a)^{-1}, W an (n, rank, rank) stack over
    the vertices of Hn."""
    W = EndomorphismField.from_blocks(Hn.rank, Hn.vertices, blocks)
    return dense_singular_values(W, Hn, lambda H: resolvent(H, a))


def assert_sv_close(fast, ref, k):
    """fast is the top min(k, len(ref)) of every singular value ref from a
    dense np.linalg.svd, to 1e-12 max(1, sigma_1)."""
    assert len(fast) == min(k, len(ref))
    err = np.max(np.abs(np.asarray(fast) - ref[:len(fast)]), initial=0.0)
    assert err <= 1e-12 * max(1.0, ref[0])


def rank2_certify_case(seed):
    """A rank-2 covariant host, a Hermitian W and its part W1 where |W| > 1,
    and levels of radius 1, 2 and the whole host."""
    rng = np.random.default_rng(seed)
    g = random_graph(14, rng)
    Hc = assemble_covariant(g, 2, random_connection(g, 2, rng))
    W = random_field(g, 2, rng)
    W1, _ = decompose_potential(W, 1.0)
    cp = ControlPair(np.ones(g.n), F2Family.constant(1.0), 1.0)
    return g, Hc, W, W1, cp, build_exhaustion(g, g.vertices[0], [1, 2, g.n])


class TestSingularValuesFromEigenbasis:
    """operators.singular_values against svd(D^1/2 W R D^-1/2) on the dense
    multiplication matrix times the dense resolvent or semigroup."""

    @staticmethod
    def hosts(rank):
        # random hosts with rho in [0.1, 10], whole and on a Dirichlet level
        rng = np.random.default_rng(40 + rank)
        for n in (9, 16):
            g = random_graph(n, rng)
            H = (assemble_laplacian(g) if rank == 1
                 else assemble_covariant(g, rank, random_connection(g, rank, rng)))
            level = build_exhaustion(g, g.vertices[0], [1]).levels[0]
            assert 1 < len(level) < n
            for Hn in (H, dirichlet_restriction(H, level)):
                yield g, Hn, rng

    @pytest.mark.parametrize("rank", [1, 2])
    def test_matches_dense_route(self, rank, monkeypatch):
        # at 0 every host here, narrower than the default, iterates
        for dense_columns in (0, operators.SVD_DENSE_COLUMNS):
            monkeypatch.setattr(operators, "SVD_DENSE_COLUMNS", dense_columns)
            for g, Hn, rng in self.hosts(rank):
                half = [v for v in Hn.vertices if rng.random() < 0.5] or [Hn.vertices[0]]
                for support in (None, half):
                    W = random_field(g, rank, rng, support)
                    # |S| rank positive values, then exact zeros
                    r = rank * sum(1 for v in Hn.vertices
                                   if support is None or v in support)
                    for a in (0.5, 2.0):
                        ref = dense_singular_values(W, Hn, lambda H: resolvent(H, a))
                        for k in (1, 5, Hn.dim):
                            fast = singular_values(Hn, W.restrict(Hn.vertices).blocks,
                                                   lambda lam: 1.0 / (lam + a), k)
                            assert_sv_close(fast, ref, k)
                            assert np.all(fast[:r] > 0) and np.all(fast[r:] == 0.0)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_tiny_potential_keeps_its_support(self, rank):
        # the support is where the blocks are not exactly zero, at any scale
        for g, Hn, rng in self.hosts(rank):
            W = random_field(g, rank, rng)
            ref = dense_singular_values(W, Hn, lambda H: resolvent(H, 1.0))
            for k in (5, Hn.dim):
                tiny = singular_values(Hn, 1e-30 * W.restrict(Hn.vertices).blocks,
                                       lambda lam: 1.0 / (lam + 1.0), k)
                assert np.all(tiny > 0)
                assert_sv_close(1e30 * tiny, ref, k)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_zero_potential_is_exactly_zero(self, rank):
        for g, Hn, rng in self.hosts(rank):
            zero = np.zeros((len(Hn.vertices), rank, rank), dtype=complex)
            sv = singular_values(Hn, zero, lambda lam: 1.0 / (lam + 1.0), 5)
            assert sv.tolist() == [0.0] * min(5, Hn.dim)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_q_above_one_rows_match_dense_route(self, rank):
        for g, Hn, rng in self.hosts(rank):
            half = [v for v in Hn.vertices if rng.random() < 0.5] or [Hn.vertices[0]]
            W = random_field(g, rank, rng, half)
            cases = [(W, W)]
            if rank == 1:  # a scalar map acts as w(x) Id
                scalar = {v: float(rng.standard_normal()) if v in half else 0.0
                          for v in g.vertices}
                cases.append((scalar, EndomorphismField.scalar(scalar)))
            cp = ControlPair(np.ones(len(Hn.vertices)), F2Family.constant(1.0), 2.0)
            for Wq, field in cases:
                for t in (0.01, 0.5, 2.0):
                    ref = dense_singular_values(field, Hn, lambda H: semigroup(H, t))
                    lhs = check_2to2_bound(Wq, Hn, cp, t).lhs
                    assert abs(lhs - ref[0]) <= 1e-12 * max(1.0, ref[0])
                for a in (1.0, 3.0):
                    ref = dense_singular_values(field, Hn, lambda H: resolvent(H, a))
                    lhs = check_resolvent_bound(Wq, Hn, cp, a).lhs
                    assert abs(lhs - ref[0]) <= 1e-12 * max(1.0, ref[0])

    def test_q_above_one_rows_keep_their_guards(self):
        g = path_graph(4)
        H = assemble_laplacian(g)
        W = {v: 1.0 for v in g.vertices}
        cp = ControlPair(np.ones(g.n), F2Family.constant(1.0), 2.0)
        with pytest.raises(ValueError, match="negative time"):
            check_2to2_bound(W, H, cp, -0.5)
        with pytest.raises(ValueError, match="shift must be positive"):
            check_resolvent_bound(W, H, cp, 0.0)
        shifted = add_potential(H, EndomorphismField.scalar({v: -1.0 for v in g.vertices}))
        with pytest.raises(ValueError, match="not PSD"):
            check_2to2_bound(W, shifted, cp, 0.5)

    def test_certify_matches_dense_route(self):
        g, Hc, W, W1, cp, ex = rank2_certify_case(45)
        assert 0 < np.any(W1.blocks != 0, axis=(1, 2)).sum() < g.n
        rep = certify_compactness(W, W1, Hc, cp, ex, a=2.0)
        rows = [r for r in rep.bounds if r.name == "step1-resolvent-hs-bound"]
        assert len(rows) == len(ex.levels)
        supp = np.any(W.blocks != 0, axis=(1, 2))
        for lv, row in zip(ex.levels, rows):
            Hn = dirichlet_restriction(Hc, lv)
            ref = dense_singular_values(W, Hn, lambda H: resolvent(H, 2.0))
            assert_sv_close(rep.singular_values[Hn.dim], ref, rep.top_k)
            assert abs(rep.hs_norms[Hn.dim] - np.sqrt(np.sum(ref ** 2))) <= 1e-12
            assert rep.support_columns[Hn.dim] == 2 * supp[lv].sum()
            ref1 = dense_singular_values(W1, Hn, lambda H: resolvent(H, 2.0))[0]
            assert row.detail["level_dim"] == Hn.dim
            assert abs(row.lhs - ref1) <= 1e-12 * max(1.0, ref1)


class TestResolventSingularValuesBySolve:
    """operators.resolvent_singular_values, one solve for several stacks,
    against the eigen route singular_values(Hn, W, _resolvent_g(a)) at
    1e-12 max(1, sigma_1)."""

    @pytest.mark.parametrize("rank", [1, 2])
    def test_matches_eigen_route(self, rank, monkeypatch):
        # at 0 every host here, narrower than the default, iterates
        for dense_columns in (0, operators.SVD_DENSE_COLUMNS):
            monkeypatch.setattr(operators, "SVD_DENSE_COLUMNS", dense_columns)
            for g, Hn, rng in TestSingularValuesFromEigenbasis.hosts(rank):
                half = [v for v in Hn.vertices if rng.random() < 0.5] or [Hn.vertices[0]]
                stacks = [random_field(g, rank, rng, support).restrict(Hn.vertices).blocks
                          for support in (None, half, ())]
                for a in (0.5, 2.0):
                    for k in (1, 5, Hn.dim):
                        ks = [k, 1, k]
                        fast = resolvent_singular_values(Hn, stacks, a, ks)
                        assert len(fast) == len(stacks)
                        for W, kw, (sv, hs, columns) in zip(stacks, ks, fast):
                            ref = dense_resolvent_sv(W, Hn, a)
                            assert_sv_close(sv, ref, kw)
                            assert_sv_close(sv, singular_values(Hn, W, _resolvent_g(a), kw), kw)
                            assert abs(hs - np.sqrt(np.sum(ref ** 2))) <= 1e-12 * max(1.0, hs)
                            # rank |S| positive values, then exact zeros
                            r = rank * int(np.any(W != 0, axis=(1, 2)).sum())
                            assert columns == r
                            assert np.all(sv[:r] > 0) and np.all(sv[r:] == 0.0)
                        assert fast[2][0].tolist() == [0.0] * min(k, Hn.dim)
                        assert fast[2][1:] == (0.0, 0)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_tiny_potential_keeps_its_support(self, rank):
        for g, Hn, rng in TestSingularValuesFromEigenbasis.hosts(rank):
            W = random_field(g, rank, rng).restrict(Hn.vertices).blocks
            ref = dense_resolvent_sv(W, Hn, 1.0)
            for k in (5, Hn.dim):
                (tiny, _, _), = resolvent_singular_values(Hn, [1e-30 * W], 1.0, [k])
                assert np.all(tiny > 0)
                assert_sv_close(1e30 * tiny, ref, k)

    def test_decaying_rho_path(self):
        # rho_j = (1 + j)^-2 stretches the spectrum: lambda_max / a ~ 1.5e5
        n = 200
        g = path_graph(n, rho=[(1.0 + j) ** -2 for j in range(n)])
        H = assemble_laplacian(g)
        W = EndomorphismField.scalar({v: 1.0 / (1 + j * j) for j, v in enumerate(g.vertices)})
        level = build_exhaustion(g, "v0", [49]).levels[0]
        for Hn in (H, dirichlet_restriction(H, level)):
            blocks = W.restrict(Hn.vertices).blocks
            (fast, _, _), = resolvent_singular_values(Hn, [blocks], 1.0, [5])
            assert_sv_close(fast, dense_resolvent_sv(blocks, Hn, 1.0), 5)
        assert H.eigh()[0][-1] > 1.4e5

    def test_scalar_operator_solves_in_real_arithmetic(self, monkeypatch):
        monkeypatch.setattr(operators, "SVD_DENSE_COLUMNS", 0)
        calls = []
        for name in ("solve", "svd", "qr"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _n=name, _f=fn, **k: calls.append(
                (_n, tuple(x.dtype for x in a))) or _f(*a, **k))
        real, cplx = np.dtype(float), np.dtype(complex)
        for rank, dtype in ((1, real), (2, cplx)):
            g, Hn, rng = next(TestSingularValuesFromEigenbasis.hosts(rank))
            calls.clear()
            # k = 1 iterates on a block of 5 of the 9 rank columns
            resolvent_singular_values(Hn, [random_field(g, rank, rng).blocks], 1.0, [1])
            assert [n for n, _ in calls[:3]] == ["solve", "qr", "svd"]
            assert {dt for _, dts in calls for dt in dts} == {dtype}
        # a complex scalar potential keeps the solve real and its iteration complex
        g, Hn, rng = next(TestSingularValuesFromEigenbasis.hosts(1))
        W = 1j * random_field(g, 1, rng).blocks
        calls.clear()
        (sv, _, _), = resolvent_singular_values(Hn, [W], 1.0, [1])
        assert calls[0] == ("solve", (real, real)) and calls[1][0] == "qr"
        assert {dt for _, dts in calls[1:] for dt in dts} == {cplx}
        assert_sv_close(sv, dense_resolvent_sv(W, Hn, 1.0), 1)

    def test_certify_with_an_overlapping_split(self):
        # W1 = W / 2 everywhere is not W on part of its support
        g, Hc, W, _, cp, ex = rank2_certify_case(48)
        half = EndomorphismField.from_blocks(2, g.vertices, 0.5 * W.blocks, True)
        rep = certify_compactness(W, half, Hc, cp, ex, a=2.0)
        for lv, row in zip(ex.levels, rep.bounds):
            Hn = dirichlet_restriction(Hc, lv)
            ref = dense_singular_values(half, Hn, lambda H: resolvent(H, 2.0))[0]
            assert abs(row.lhs - ref) <= 1e-12 * max(1.0, ref)
            assert row.lhs == pytest.approx(rep.singular_values[Hn.dim][0] / 2, rel=1e-12)

    def test_guards(self):
        g = path_graph(4)
        H = assemble_laplacian(g)
        W = np.ones((g.n, 1, 1), dtype=complex)
        with pytest.raises(ValueError, match="shift must be positive"):
            resolvent_singular_values(H, [W], 0.0, [1])
        shifted = add_potential(H, EndomorphismField.scalar({v: -1.0 for v in g.vertices}))
        with pytest.raises(ValueError, match="not PSD"):
            resolvent_singular_values(shifted, [W], 1.0, [1])


def svd_widths(monkeypatch):
    """Record the column count of every np.linalg.svd call."""
    widths = []
    fn = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **k: widths.append(a.shape[1])
                        or fn(a, *args, **k))
    return widths


def test_dense_svd_up_to_the_crossover(monkeypatch):
    # at most SVD_DENSE_COLUMNS columns the dense SVD decides and no QR runs
    qrs = []
    fn = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: qrs.append(a) or fn(*a, **k))
    rng = np.random.default_rng(61)
    for m in (operators.SVD_DENSE_COLUMNS, operators.SVD_DENSE_COLUMNS + 1):
        x = rng.standard_normal((m + 20, m)) / np.arange(1, m + 1)
        ref = np.linalg.svd(x, compute_uv=False)[:5]
        qrs.clear()
        assert_sv_close(operators._top_singular_values(x, 5), ref, 5)
        assert bool(qrs) == (m > operators.SVD_DENSE_COLUMNS)


class TestTopSingularValues:
    """The block subspace iteration behind both routes on hard and edge
    cases, against a dense np.linalg.svd at 1e-12 max(1, sigma_1). Every
    host here is narrower than SVD_DENSE_COLUMNS, so it is set to 0 for the
    iteration to run."""

    @pytest.fixture(autouse=True)
    def iterate(self, monkeypatch):
        monkeypatch.setattr(operators, "SVD_DENSE_COLUMNS", 0)

    def test_degenerate_sigma_on_a_cycle(self, monkeypatch):
        # constant W on a cycle: sigma_j = w / (lambda_j + a) with
        # lambda_j = 2 - 2 cos(2 pi j / n), a pair for every j but 0 and n/2;
        # k = 2, 4, 6, 8 split a pair
        n = 24
        ids = [f"c{j}" for j in range(n)]
        g = make_graph(ids, dict.fromkeys(ids, 1.0),
                       [(ids[j], ids[(j + 1) % n], 1.0) for j in range(n)])
        H = assemble_laplacian(g)
        W = np.full((n, 1, 1), 1.5)
        refs = {a: dense_resolvent_sv(W, H, a) for a in (0.5, 1.0)}
        widths = svd_widths(monkeypatch)
        for a, ref in refs.items():
            assert ref[1] - ref[2] < 1e-12 and ref[3] - ref[4] < 1e-12
            for k in range(1, 9):
                (sv, _, _), = resolvent_singular_values(H, [W], a, [k])
                assert_sv_close(sv, ref, k)
        # each converged: no SVD saw all n columns
        assert max(widths) < n

    def test_support_narrower_than_the_block(self, monkeypatch):
        # two vertices of a rank-2 host give 4 columns, fewer than k + 4:
        # the first Rayleigh-Ritz step is the exact SVD, and no QR runs
        rng = np.random.default_rng(60)
        g = random_graph(16, rng)
        Hc = assemble_covariant(g, 2, random_connection(g, 2, rng))
        W = random_field(g, 2, rng, g.vertices[3:5]).blocks
        qrs = []
        fn = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: qrs.append(a) or fn(*a, **k))
        ref = dense_resolvent_sv(W, Hc, 1.0)
        for k in (1, 4, 5, 7):
            (sv, hs, columns), = resolvent_singular_values(Hc, [W], 1.0, [k])
            assert_sv_close(sv, ref, k)
            assert columns == 4 and np.all(sv[:4] > 0) and np.all(sv[4:] == 0.0)
            assert_sv_close(singular_values(Hc, W, _resolvent_g(1.0), k), ref, k)
        assert qrs == []

    def test_large_diameter_path_with_subnormal_resolvent_entries(self):
        # the demo host at n = 800: (A + a)^{-1} decays like e^{-0.96 |i-j|},
        # so its entries past distance ~740 are subnormal
        g, connection, W = build_coulomb_demo(800, 1.0, 0.3)
        H = assemble_covariant(g, 1, connection)
        shifted = H.hermitian()
        shifted.flat[::H.dim + 1] += 1.0
        adjoint = np.linalg.solve(shifted, np.diag(W.blocks[:, 0, 0]).astype(complex))
        tiny = np.finfo(float).tiny
        assert np.count_nonzero((adjoint.real != 0) & (np.abs(adjoint.real) < tiny)) > 1000
        (sv, hs, columns), = resolvent_singular_values(H, [W.blocks], 1.0, [5])
        ref = dense_resolvent_sv(W.blocks, H, 1.0)
        assert_sv_close(sv, ref, 5)
        assert abs(hs - np.sqrt(np.sum(ref ** 2))) <= 1e-12 and columns == 800

    @pytest.mark.parametrize("rank", [1, 2])
    def test_sweep_cap_ends_in_the_dense_svd(self, rank, monkeypatch):
        monkeypatch.setattr(operators, "SUBSPACE_SWEEPS", 1)
        widths = svd_widths(monkeypatch)
        capped = 0
        for g, Hn, rng in TestSingularValuesFromEigenbasis.hosts(rank):
            W = random_field(g, rank, rng).restrict(Hn.vertices).blocks
            ref = dense_resolvent_sv(W, Hn, 1.0)
            for k in (1, 5):
                widths.clear()
                (sv, _, _), = resolvent_singular_values(Hn, [W], 1.0, [k])
                assert_sv_close(sv, ref, k)
                assert_sv_close(singular_values(Hn, W, _resolvent_g(1.0), k), ref, k)
                # past the block, one sweep is not enough: the last SVD sees
                # every column
                if Hn.dim > k + operators.SUBSPACE_GUARD:
                    assert widths[-1] == Hn.dim
                    capped += 1
        assert capped > 0

    def test_repeated_calls_give_identical_bytes(self):
        g, Hc, W, W1, cp, ex = rank2_certify_case(49)
        assert Hc.dim > 5 + operators.SUBSPACE_GUARD  # the iteration runs
        first, second = (resolvent_singular_values(Hc, [W.blocks], 2.0, [5])[0]
                         for _ in range(2))
        assert first[0].tobytes() == second[0].tobytes() and first[1:] == second[1:]
        reports = [json.dumps(certify_compactness(W, W1, Hc, cp, ex, a=2.0).to_dict(),
                              sort_keys=True) for _ in range(2)]
        assert reports[0] == reports[1]


def flat_lattice_case(side, d, seed):
    """A side x side lattice with seeded b and rho, a random gauge U of the
    trivial connection, phi(x, y) = U_y U_x*, and a Hermitian W with its
    part W1 where |W| > 1."""
    rng = np.random.default_rng(seed)
    ids = [f"v{i}_{j}" for i in range(side) for j in range(side)]
    edges = [(f"v{i}_{j}", f"v{i + di}_{j + dj}", float(rng.uniform(0.5, 2.0)))
             for i in range(side) for j in range(side)
             for di, dj in ((1, 0), (0, 1)) if i + di < side and j + dj < side]
    g = make_graph(ids, {v: float(rng.uniform(0.5, 2.0)) for v in ids}, edges)
    U = np.array([random_unitary(rng, d) for _ in ids])
    Uh = U.conj().swapaxes(1, 2)
    conn = UnitaryConnection(g, U[g.dst] @ Uh[g.src], U[g.src] @ Uh[g.dst])
    W = random_field(g, d, rng)
    W1, _ = decompose_potential(W, 1.0)
    return g, assemble_covariant(g, d, conn), W, W1


class TestScalarGauge:
    """A connection without holonomy runs Kato domination and certification
    on the real scalar operator; one with holonomy runs the numeric route."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_flat_lattice_derives_domination(self, d, monkeypatch):
        g, Hc, _, _ = flat_lattice_case(12, d, 31)
        H = assemble_laplacian(g)
        S, G, eta = operators.scalar_gauge(Hc)
        assert eta <= 1e-12 and S.rank == 1 and np.isrealobj(S.matrix)
        assert np.max(np.abs(S.matrix - H.matrix)) <= 1e-13
        assert np.allclose(G.conj().swapaxes(1, 2) @ G, np.eye(d), atol=1e-14)
        kinds = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: kinds.append(a.dtype.kind) or eigh(a))
        rows = check_domination(Hc, H, (0.1, 1.0), (0.5, 2.0), 5, np.random.default_rng(0))
        assert kinds == ["f"] and "eigh" not in Hc._cache
        assert all(r.ok for r in rows)
        assert [r.detail["route"] for r in rows] == ["blockwise", "blockwise", "gauge"]
        assert [r.name for r in rows] == ["kato-domination-semigroup",
                                          "kato-domination-resolvent",
                                          "kato-spectral-ordering"]
        # the derived bounds: Duhamel, the resolvent identity and Weyl
        spread = np.sqrt(np.max(g.rho_vec) / np.min(g.rho_vec))
        eta = rows[0].detail["eta"]
        assert rows[0].lhs == 1.0 * eta * spread and rows[1].lhs == eta / 0.25 * spread
        assert rows[2].rhs == H.lambda_min() - rows[2].detail["eta"]

    @pytest.mark.parametrize("d", [1, 2])
    def test_flat_lattice_certifies_on_the_scalar_operator(self, d, monkeypatch):
        g, Hc, W, W1 = flat_lattice_case(12, d, 32)
        cp = ControlPair(np.ones(g.n), F2Family.constant(1.0), 1.0)
        ex = build_exhaustion(g, g.vertices[0], [4, 8, 22])
        # the covariant route, level by level
        ref = [resolvent_singular_values(dirichlet_restriction(Hc, lv),
                                         [W.blocks[lv], W1.blocks[lv]], 2.0, [5, 1])
               for lv in ex.levels]
        solved = []
        for name in ("eigh", "solve"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _n=name, _f=fn:
                                solved.append((_n, a[0].dtype.kind)) or _f(*a))
        rep = certify_compactness(W, W1, Hc, cp, ex, a=2.0)
        assert solved == [("solve", "f")] * len(ex.levels)
        assert rep.levels == [d * lv.size for lv in ex.levels]
        for dim, (top, hs, columns), (top1, _, _), row in zip(
                rep.levels, *zip(*ref), rep.bounds):
            assert_sv_close(rep.singular_values[dim], top, 5)
            assert abs(rep.hs_norms[dim] - hs) <= 1e-12 * max(1.0, hs)
            assert rep.support_columns[dim] == columns
            assert abs(row.lhs - top1[0]) <= 1e-12 * max(1.0, top1[0])

    def test_ring_with_flux_passes_blockwise(self):
        # total phase pi around an 8-cycle: the gauge leaves the holonomy
        # e^{i pi} - 1 on the closing edge, so the ordering row reads
        # lambda_min(T) = 2 - 2 cos(pi / 8) with no eigenvector, and every
        # block of T meets the criterion
        n = 8
        ids = [f"v{i}" for i in range(n)]
        ring = make_graph(ids, dict.fromkeys(ids, 1.0),
                          [(ids[i], ids[(i + 1) % n], 1.0) for i in range(n)])
        # pi / n on each edge v(i) -> v(i+1); the closing edge is stored
        # as (v0, v(n-1))
        conn = UnitaryConnection.from_edge_phases(ring, [np.pi / n] * (n - 1) + [-np.pi / n])
        Hc, H = assemble_covariant(ring, 1, conn), assemble_laplacian(ring)
        assert operators.scalar_gauge(Hc)[2] >= 2.0 - 1e-12
        rows = check_domination(Hc, H, (0.1, 1.0), (0.5, 2.0), 5, np.random.default_rng(0))
        assert all(r.ok for r in rows) and "eigh" not in Hc._cache
        assert [r.detail.get("route") for r in rows] == ["blockwise", "blockwise", None]
        assert rows[0].detail["eta"] == 0.0
        assert rows[2].rhs == pytest.approx(2 - 2 * np.cos(np.pi / n), abs=1e-12)

    def test_doubled_edge_weights_on_a_flat_connection_fail_blockwise(self):
        # T is a gauge of twice S: eta against S is large, and the margins
        # find the violation
        g, Hc, _, _ = flat_lattice_case(4, 2, 33)
        doubled = make_graph(g.vertices, g.rho,
                             [(*tuple(pair), 2.0 * w) for pair, w in g.b.items()])
        flat = assemble_covariant(doubled, 2, UnitaryConnection.trivial(doubled, 2))
        rows = assert_fails_with_positive_gap(flat, assemble_laplacian(g))
        assert "route" not in rows[2].detail

    def test_real_scalar_operator_has_no_gauge(self):
        assert operators.scalar_gauge(assemble_laplacian(path_graph(4))) is None


class TestCertifyFormsNoDenseProducts:
    def test_no_resolvent_no_multiplication_one_solve_per_level(self, monkeypatch):
        from heatcert import compactness, operators

        g, Hc, W, W1, cp, ex = rank2_certify_case(46)
        sizes = [len(lv) for lv in ex.levels]
        assert sizes[-1] == g.n and len(set(sizes)) == len(sizes)
        calls = []
        for mod in (operators, compactness):
            for name in ("resolvent", "multiplication_operator"):
                if hasattr(mod, name):
                    fn = getattr(mod, name)
                    monkeypatch.setattr(mod, name, lambda *a, _n=name, _f=fn, **k:
                                        calls.append(_n) or _f(*a, **k))
        widths = []
        for name in ("eigh", "cholesky", "solve"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _n=name, _f=fn:
                                calls.append(_n) or widths.append(a[-1].shape) or _f(*a))
        rep = certify_compactness(W, W1, Hc, cp, ex, a=2.0)
        assert rep.levels == [2 * s for s in sizes]
        # the host is PSD by construction: nothing is factorised or
        # diagonalised, and each level takes one solve
        assert calls == ["solve"] * len(sizes)
        # W1 is W on part of its support, so W's columns serve both
        supp = np.any(W.blocks != 0, axis=(1, 2))
        assert widths == [(2 * s, 2 * supp[lv].sum())
                          for s, lv in zip(sizes, ex.levels)]

    def test_non_psd_operator_rejected(self):
        g, Hc, W, W1, cp, ex = rank2_certify_case(47)
        V = EndomorphismField(2, {v: -np.eye(2) for v in g.vertices}, self_adjoint=True)
        with pytest.raises(ValueError, match="not PSD: lambda_min = "):
            certify_compactness(W, W1, add_potential(Hc, V), cp, ex, a=2.0)


class TestCertifyPotentials:
    @staticmethod
    def row_rhs(W, W1, g, cp):
        # at a = 1 the quadrature of F2 = 1 is exactly 1, so the resolvent
        # row's rhs is the F1-weighted norm of W1
        ex = build_exhaustion(g, g.vertices[0], [g.n])
        rep = certify_compactness(W, W1, assemble_laplacian(g), cp, ex, a=1.0)
        (row,) = rep.bounds
        assert row.detail["quadrature_integral"] == 1.0
        return row.rhs

    def test_w1_norm(self):
        g = path_graph(3)
        cp = ControlPair(np.ones(g.n), F2Family.constant(1.0), 1.0)
        W = {"v0": 3.0, "v1": 0.5, "v2": 0.0}
        W1 = {"v0": 3.0, "v1": 0.0, "v2": 0.0}
        assert self.row_rhs(W, W1, g, cp) == pytest.approx(3.0)

    def test_rank_mismatch_raises(self):
        g, Hc, W, _, cp, ex = rank2_certify_case(47)
        scalar = {v: 1.0 for v in g.vertices}
        with pytest.raises(ValueError, match="rank 1 for an operator of rank 2"):
            check_resolvent_bound(scalar, Hc, ControlPair(cp.F1, cp.F2, 2.0), 1.0)
        for pair in ((scalar, scalar), (W, scalar), (scalar, W)):
            with pytest.raises(ValueError, match="rank 1 for an operator of rank 2"):
                certify_compactness(*pair, Hc, cp, ex, a=2.0)

    def test_measure_reweighted_by_f1(self):
        # ||1||^2 in L^2(F1 rho) is the F1-reweighted measure of the host
        g = path_graph(3, rho=2.0)
        cp = ControlPair(np.full(g.n, 0.5), F2Family.constant(1.0), 1.0)
        ones = {v: 1.0 for v in g.vertices}
        assert self.row_rhs(ones, ones, g, cp) ** 2 == pytest.approx(3.0)


def part_above(W_map, threshold):
    """W1 of the threshold split: W where |W| > threshold, 0 elsewhere."""
    return {v: (w if abs(w) > threshold else 0.0) for v, w in W_map.items()}


class TestCertify:
    def test_zero_potential_all_zero(self):
        g = path_graph(8)
        H = assemble_laplacian(g)
        cp = ControlPair(1.0 / g.rho_vec,
                         F2Family.constant(1.0), 1.0)
        W = {v: 0.0 for v in g.vertices}
        ex = build_exhaustion(g, "v0", [3, 7])
        rep = certify_compactness(W, part_above(W, 0.1), H, cp, ex, a=2.0)
        assert rep.verdict == "hypotheses-verified"
        for sv in rep.singular_values.values():
            assert max(sv) == 0.0

    def test_single_vertex_equality_case(self):
        g = make_graph(["x"], {"x": 1.0}, [])
        H = assemble_laplacian(g)
        cp = ControlPair(np.ones(1), F2Family.constant(1.0), 1.0)
        ex = build_exhaustion(g, "x", [1])
        rep = certify_compactness({"x": 2.0}, part_above({"x": 2.0}, 0.1), H, cp, ex, a=1.0)
        # sole singular value |w| / (0 + 1)
        assert rep.singular_values[1][0] == pytest.approx(2.0, abs=1e-12)
        row = next(r for r in rep.bounds if "resolvent" in r.name)
        # quadrature RHS |w| * int e^{-t} dt = |w|, an equality case
        assert row.rhs == pytest.approx(2.0, abs=1e-8)
        assert row.ok

    def test_understated_control_pair_fails_at_unit_shift(self):
        # F2 = 1e-6 understates p(t, x, x) rho(x) <= 1 on the path, so the
        # resolvent row fails at a = 1; no shift exempts a level from it
        n = 30
        g = path_graph(n)
        H = assemble_laplacian(g)
        cp = ControlPair(1.0 / g.rho_vec, F2Family.constant(1e-6), 1.0)
        W = {f"v{j}": 1.0 / (1.0 + j * j) for j in range(n)}
        W1 = part_above(W, 0.1)
        ex = build_exhaustion(g, "v0", [9, 19, 29])
        rep = certify_compactness(W, W1, H, cp, ex, a=1.0)
        assert rep.verdict == "hypothesis-failed:step1-resolvent-hs-bound"
        assert [r.ok for r in rep.bounds] == [False] * 3
        assert all(set(r.to_dict()) == {"name", "lhs", "rhs", "slack", "pass", "level_dim",
                                        "a", "quadrature_integral"} for r in rep.bounds)
        # the true graph pair F2 = 1 verifies the same case at the same shift
        graph_cp = ControlPair(cp.F1, F2Family.constant(1.0), 1.0)
        assert certify_compactness(W, W1, H, graph_cp, ex, a=1.0).verdict == "hypotheses-verified"

    @pytest.mark.parametrize("q", [1.5, 3.0])
    def test_row_matches_check_resolvent_bound_on_the_host(self, q):
        rng = np.random.default_rng(10)
        g = random_graph(15, rng)
        H = assemble_laplacian(g)
        cp = ControlPair(np.ones(g.n), F2Family.power(2.0, 1.0), q)
        W = {v: float(rng.standard_normal()) for v in g.vertices}
        W1 = part_above(W, 0.5)
        ex = build_exhaustion(g, g.vertices[0], [1, g.n])
        for a in (0.1, 1.0):
            host = certify_compactness(W, W1, H, cp, ex, a=a).bounds[-1]
            ref = check_resolvent_bound(W1, H, cp, a)
            assert host.detail["level_dim"] == g.n
            assert host.name == ref.name == "step3-resolvent-norm-bound"
            assert abs(host.lhs - ref.lhs) <= 1e-12 * max(1.0, ref.lhs)
            assert abs(host.rhs - ref.rhs) <= 1e-12 * max(1.0, ref.rhs)
            assert host.detail["quadrature_integral"] == ref.detail["quadrature_integral"]

    def test_path_stabilization(self):
        n = 400
        g = path_graph(n)
        H = assemble_laplacian(g)
        cp = ControlPair(np.ones(g.n), F2Family.constant(1.0), 1.0)
        W = {f"v{j}": 1.0 / (1.0 + j * j) for j in range(n)}
        ex = build_exhaustion(g, "v0", [50, 100, 200, 399])
        rep = certify_compactness(W, part_above(W, 0.1), H, cp, ex, a=2.0, k_top=5)
        assert rep.verdict == "hypotheses-verified"
        assert rep.levels == [51, 101, 201, 400]
        last = rep.drift["201->400"]
        assert last < 1e-3

    def test_singular_values_sorted_descending(self):
        rng = np.random.default_rng(8)
        g = random_graph(15, rng)
        H = assemble_laplacian(g)
        cp = ControlPair(np.ones(g.n), F2Family.constant(1.0), 1.0)
        W = {v: float(rng.standard_normal()) for v in g.vertices}
        ex = build_exhaustion(g, g.vertices[0], [2, 50])
        rep = certify_compactness(W, part_above(W, 0.5), H, cp, ex, a=2.0)
        for sv in rep.singular_values.values():
            assert all(a >= b >= 0 for a, b in zip(sv, sv[1:]))

    def test_divergent_pair_hard_error(self):
        g = path_graph(4)
        H = assemble_laplacian(g)
        cp = ControlPair(np.ones(g.n), F2Family.power(1.0, 3.0), 1.0)
        W = {v: 1.0 for v in g.vertices}
        ex = build_exhaustion(g, "v0", [3])
        with pytest.raises(ValueError, match="integrable"):
            certify_compactness(W, part_above(W, 0.1), H, cp, ex, a=2.0)


def test_truncation_operator_norm_converges_exactly():
    # W_n = 1_{X_n} min(n, |W|) sgn(W): once n exceeds max |W| and the level
    # covers the support, the 2->2 gap is exactly zero on a finite host
    rng = np.random.default_rng(9)
    g = random_graph(12, rng)
    W = {v: float(3.0 * rng.standard_normal()) for v in g.vertices}
    ex = build_exhaustion(g, g.vertices[0], [1, 2, 50])
    gaps = []
    base = int(np.ceil(max(abs(w) for w in W.values())))
    for n, level in enumerate(ex.levels, start=base):
        level = {g.vertices[i] for i in level}
        Wn = {v: (np.sign(W[v]) * min(n, abs(W[v])) if v in level else 0.0)
              for v in g.vertices}
        diff = EndomorphismField.scalar({v: W[v] - Wn[v] for v in g.vertices})
        op = multiplication_operator(diff, g.vertices, g.rho_vec)
        gaps.append(np.linalg.norm(op.symmetrized(), 2))  # weighted 2->2 norm
    assert gaps[-1] == 0.0
    assert gaps[0] >= gaps[-1]
