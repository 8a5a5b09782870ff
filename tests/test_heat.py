import json

import numpy as np
import pytest

from heatcert.graph import build_exhaustion, make_graph, path_graph, random_graph
from heatcert.heat import (
    A3_TOL,
    DEFAULT_TIMES,
    HeatKernel,
    kernel_from_semigroup,
    minimal_kernel,
    verify_axioms,
    verify_rho_bound,
    verify_semigroup,
)
from heatcert.operators import assemble_laplacian, semigroup_matrix as semigroup


def two_vertex(beta=1.0, rho=(1.0, 1.0)):
    return make_graph(["1", "2"], {"1": rho[0], "2": rho[1]},
                      [("1", "2", beta)])


def analytic_two_vertex_semigroup(t, beta=1.0):
    e = np.exp(-2 * beta * t)
    return 0.5 * np.array([[1 + e, 1 - e], [1 - e, 1 + e]])


class TestSemigroup:
    def test_t_zero_is_identity(self):
        H = assemble_laplacian(two_vertex())
        np.testing.assert_array_equal(semigroup(H, 0.0), np.eye(2))

    def test_two_vertex_analytic(self):
        H = assemble_laplacian(two_vertex())
        for t in (0.1, 1.0, 10.0):
            np.testing.assert_allclose(np.real(semigroup(H, t)),
                                       analytic_two_vertex_semigroup(t),
                                       atol=1e-12)

    def test_semigroup_law(self):
        rng = np.random.default_rng(0)
        g = random_graph(20, rng)
        H = assemble_laplacian(g)
        for _ in range(5):
            t, s = rng.uniform(0.05, 3.0, size=2)
            lhs = semigroup(H, t + s)
            rhs = semigroup(H, t) @ semigroup(H, s)
            assert np.linalg.norm(lhs - rhs) < 1e-9

    def test_contraction(self):
        rng = np.random.default_rng(1)
        g = random_graph(15, rng)
        H = assemble_laplacian(g)
        p = semigroup(H, 0.7)

        def weighted_norm(f):
            return np.sqrt(np.sum(np.abs(f) ** 2 * H.rho))

        for _ in range(20):
            f = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
            assert weighted_norm(p @ f) <= weighted_norm(f) + 1e-12

    def test_positivity_preservation(self):
        rng = np.random.default_rng(2)
        g = random_graph(15, rng)
        H = assemble_laplacian(g)
        p = np.real(semigroup(H, 0.5))
        for _ in range(10):
            f = np.abs(rng.standard_normal(g.n))
            assert np.min(p @ f) >= -1e-12


class TestKernel:
    def test_unit_rho_kernel_equals_semigroup(self):
        g = path_graph(4)
        H = assemble_laplacian(g)
        k = kernel_from_semigroup(H, (0.5, 1.0))
        np.testing.assert_allclose(k.at(0.5), np.real(semigroup(H, 0.5)), atol=1e-14)

    def test_weighted_symmetry(self):
        g = two_vertex(1.0, rho=(1.0, 2.0))
        H = assemble_laplacian(g)
        k = kernel_from_semigroup(H, (0.3, 1.0))
        for t in (0.3, 1.0):
            mat = k.at(t)
            assert mat[0, 1] == pytest.approx(mat[1, 0], abs=1e-12)
            assert mat[0, 1] == pytest.approx(np.real(semigroup(H, t))[0, 1] / 2.0)

    def test_single_vertex_saturates_rho_bound(self):
        c = 3.7
        g = make_graph(["x"], {"x": c}, [])
        H = assemble_laplacian(g)
        k = kernel_from_semigroup(H, (0.0, 1.0, 10.0))
        for t in (0.0, 1.0, 10.0):
            assert k.at(t)[0, 0] == pytest.approx(1.0 / c, abs=1e-15)
        rep = verify_rho_bound(k)
        assert rep.ok
        assert rep.max_product == pytest.approx(1.0, abs=1e-12)

    def test_kernel_t_zero_diagonal(self):
        g = two_vertex(1.0, rho=(2.0, 4.0))
        H = assemble_laplacian(g)
        k = kernel_from_semigroup(H, (0.0,))
        np.testing.assert_allclose(k.at(0.0), np.diag([0.5, 0.25]), atol=1e-15)

    def test_trace_identity(self):
        rng = np.random.default_rng(3)
        g = random_graph(30, rng)
        H = assemble_laplacian(g)
        k = kernel_from_semigroup(H, (0.8,))
        lam, _ = H.eigh()
        trace_spec = float(np.sum(np.exp(-0.8 * lam)))
        trace_kernel = float(np.sum(np.diagonal(k.at(0.8)) * k.rho))
        assert trace_kernel == pytest.approx(trace_spec, rel=1e-9)


class TestAxioms:
    def test_valid_kernel_passes(self):
        rng = np.random.default_rng(4)
        g = random_graph(25, rng)
        H = assemble_laplacian(g)
        k = kernel_from_semigroup(H, DEFAULT_TIMES)
        rep = verify_axioms(k, H)
        assert rep.ok, rep.to_dict()
        assert rep.a1_pairs_checked > 0

    def test_corrupted_symmetry_detected(self):
        g = path_graph(3)
        H = assemble_laplacian(g)
        k = kernel_from_semigroup(H, (0.5, 1.0))
        kernels = k.kernels.copy()
        kernels[0][0, 1] += 1e-3
        bad = HeatKernel(k.times, kernels, k.vertices, k.rho)
        rep = verify_axioms(bad)
        assert not rep.ok
        assert rep.a2_max_violation > 1e-4
        assert rep.a2_worst[0] == 0.5

    def test_row_mass_one_on_finite_host(self):
        # no Dirichlet boundary: the finite host is stochastically complete
        rng = np.random.default_rng(5)
        g = random_graph(40, rng)
        H = assemble_laplacian(g)
        k = kernel_from_semigroup(H, (0.1, 1.0, 10.0))
        for mat in k.kernels:
            np.testing.assert_allclose(mat @ k.rho, 1.0, atol=1e-10)

    def test_missing_composable_pair_reported(self):
        g = path_graph(3)
        H = assemble_laplacian(g)
        k = kernel_from_semigroup(H, (0.3, 1.0))
        rep = verify_axioms(k, H)
        assert rep.a1_max_violation is None
        assert any("A1 unchecked" in n for n in rep.notes)


class TestMinimalKernel:
    def test_single_level_full_host(self):
        g = path_graph(6)
        ex = build_exhaustion(g, "v0", [10])
        rep = minimal_kernel(g, ex, (0.5, 1.0))
        assert len(rep.kernels) == 1
        k_direct = kernel_from_semigroup(assemble_laplacian(g), (0.5, 1.0))
        np.testing.assert_allclose(rep.kernels[0].kernels, k_direct.kernels,
                                   atol=1e-14)

    def test_monotone_on_path(self):
        g = path_graph(20)
        ex = build_exhaustion(g, "v0", [2, 5, 10, 19])
        rep = minimal_kernel(g, ex, (0.1, 1.0, 10.0))
        assert rep.monotone_ok
        assert rep.worst_decrease > -1e-10
        root_vals = []
        for k in rep.kernels:
            i = k.vertices.index("v0")
            root_vals.append([k.at(t)[i, i] for t in (0.1, 1.0, 10.0)])
        for prev, nxt in zip(root_vals, root_vals[1:]):
            for a, b in zip(prev, nxt):
                assert b >= a - 1e-12

    def test_increments_decay_with_level(self):
        g = path_graph(20)
        ex = build_exhaustion(g, "v0", [2, 5, 10, 19])
        rep = minimal_kernel(g, ex, (0.1,))
        sups = [inc[0.1] for inc in rep.sup_increments]
        assert sups[-1] < sups[0]

    def test_rejects_level_outside_host(self):
        g = path_graph(5)
        from heatcert.graph import Exhaustion
        ex = Exhaustion((np.array([0]), np.array([0, 7])))
        with pytest.raises(ValueError, match="not contained in host"):
            minimal_kernel(g, ex, (1.0,))


def unit_lattice(side: int):
    """side x side grid with unit rho and b; its Laplacian spectrum fills
    [0, 8), so e^{-100 lambda} is subnormal for lambda in (7.08, 7.45)."""
    ids = [f"v{i}_{j}" for i in range(side) for j in range(side)]
    edges = [(f"v{i}_{j}", f"v{i + di}_{j + dj}", 1.0)
             for i in range(side) for j in range(side)
             for di, dj in ((1, 0), (0, 1)) if i + di < side and j + dj < side]
    return make_graph(ids, dict.fromkeys(ids, 1.0), edges)


def reference_minimal(levels, kernels):
    """(monotone_ok, worst_decrease, sup_increments) from per-level stacks,
    level pair by level pair."""
    window = levels[0]
    monotone, worst, sup_inc = True, 0.0, []
    for lv_a, lv_b, ka, kb in zip(levels, levels[1:], kernels, kernels[1:]):
        pos = np.searchsorted(lv_b, lv_a)
        win_a, win_b = np.searchsorted(lv_a, window), np.searchsorted(lv_b, window)
        inc = {}
        for ti, mat_a, mat_b in zip(ka.times, ka.kernels, kb.kernels):
            diff = mat_b[np.ix_(pos, pos)] - mat_a
            worst = min(worst, float(np.min(diff)))
            monotone &= bool(np.min(diff) >= -A3_TOL)
            inc[ti] = float(np.max(mat_b[np.ix_(win_b, win_b)] - mat_a[np.ix_(win_a, win_a)]))
        sup_inc.append(inc)
    return monotone, worst, sup_inc


class TestStreamedLevels:
    """minimal_kernel forms each level's p(t) one time at a time; the
    per-level stacks of `MinimalKernelReport.kernels` are the reference."""

    @pytest.mark.parametrize("next_to_host_checks", [False, True])
    @pytest.mark.parametrize("host", ["path", "random"])
    def test_report_equals_per_level_stacks(self, host, next_to_host_checks):
        # alone, every level forms its slices; next to the host's kernel
        # checks, the whole-host level takes the host's slice instead
        if host == "path":
            g, radii = path_graph(30), [2, 5, 30]
        else:
            g, radii = random_graph(40, np.random.default_rng(80)), [1, 2, 40]
        ex = build_exhaustion(g, g.vertices[0], radii)
        assert ex.levels[-1].size == g.n and len({lv.size for lv in ex.levels}) == 3
        H = assemble_laplacian(g)
        if next_to_host_checks:
            rep = verify_semigroup(H, DEFAULT_TIMES, ex=ex)[2]
        else:
            rep = minimal_kernel(g, ex, DEFAULT_TIMES, H=H)
        monotone, worst, sup_inc = reference_minimal(ex.levels, rep.kernels)
        assert rep.monotone_ok == monotone
        assert rep.worst_decrease == worst
        assert rep.sup_increments == sup_inc

    def test_peak_below_one_level_stack(self):
        import tracemalloc

        g = unit_lattice(20)
        ex = build_exhaustion(g, "v0_0", [5, 10, 20, 38])
        assert ex.levels[-1].size == g.n
        tracemalloc.start()
        try:
            minimal_kernel(g, ex, DEFAULT_TIMES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(DEFAULT_TIMES) * g.n ** 2 * 8


def test_spectral_products_see_no_subnormal_operand(monkeypatch):
    from heatcert import operators
    from heatcert.bundle import UnitaryConnection
    from heatcert.operators import assemble_covariant, spectral_function

    g = unit_lattice(20)
    H = assemble_laplacian(g)
    lam = H.eigh()[0]
    assert np.any((lam > 7.1) & (lam < 7.4))
    operands = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda *a, **k: operands.extend(a) or matmul(*a, **k))
    ex = build_exhaustion(g, "v0_0", [10, 38])
    minimal_kernel(g, ex, (1.0, 100.0))
    kernel_from_semigroup(H, (1.0, 100.0))
    Hc = assemble_covariant(g, 1, UnitaryConnection.trivial(g))
    for op in (H, Hc):
        spectral_function(op, operators._semigroup_g(100.0))
    tiny = np.finfo(float).tiny

    def subnormal(x):
        return any(np.any((part != 0) & (np.abs(part) < tiny)) for part in (x.real, x.imag))

    # one product per level and time, per stack time and per function
    assert len(operands) >= 2 * 8
    assert not any(subnormal(x) for x in operands)


def test_rho_bound_random_sweep():
    rng = np.random.default_rng(6)
    for _ in range(5):
        g = random_graph(40, rng)
        H = assemble_laplacian(g)
        k = kernel_from_semigroup(H, (0.01, 0.1, 1.0, 10.0, 100.0))
        assert verify_rho_bound(k).ok


class TestOneEigendecompositionPerOperator:
    def test_heat_verify_eigh_per_distinct_level(self, tmp_path, monkeypatch):
        from heatcert import cli
        from heatcert.graph import dump_graph

        g = random_graph(12, np.random.default_rng(60))
        root = g.vertices[0]
        ex = build_exhaustion(g, root, [1, 2, g.n])
        sizes = [len(lv) for lv in ex.levels]
        assert sizes[-1] == g.n and len(set(sizes)) == len(sizes)
        dump_graph(g, tmp_path / "g.json")
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        out = tmp_path / "report.json"
        rc = cli.main(["heat", "verify", "--graph", str(tmp_path / "g.json"),
                       "--exhaustion", f"root={root},radii=1,2,{g.n}",
                       "--times", "0.5,1.0", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["minimal_kernel"]["level_sizes"] == sizes
        assert len(calls) == len(sizes)

    def test_minimal_kernel_rejects_foreign_host_operator(self):
        from heatcert.bundle import UnitaryConnection
        from heatcert.operators import assemble_covariant

        g = path_graph(6)
        ex = build_exhaustion(g, "v0", [2, 5])
        with pytest.raises(ValueError):
            minimal_kernel(g, ex, (1.0,), H=assemble_laplacian(path_graph(7)))
        with pytest.raises(ValueError):
            minimal_kernel(g, ex, (1.0,),
                           H=assemble_covariant(g, 1, UnitaryConnection.trivial(g)))

    def test_minimal_kernel_rejects_schroedinger_operator(self):
        from heatcert.bundle import EndomorphismField
        from heatcert.operators import add_potential

        g = path_graph(6)
        ex = build_exhaustion(g, "v0", [2, 5])
        V = EndomorphismField.scalar({v: 1.0 for v in g.vertices})
        with pytest.raises(ValueError):
            minimal_kernel(g, ex, (1.0,), H=add_potential(assemble_laplacian(g), V))
        with pytest.raises(ValueError, match="not the scalar Laplacian"):
            verify_semigroup(add_potential(assemble_laplacian(g), V), (1.0,), ex=ex)


class TestTabulatedStack:
    """The stack is Phi e^{-t Lambda} Phi* with Phi = D^{-1/2} U; the dense
    semigroup divided by rho is the reference it must agree with."""

    TIMES = (0.0, 0.01, 0.5, 3.0)

    @pytest.mark.parametrize("seed", [70, 71, 72])
    def test_matches_semigroup_route(self, seed):
        from heatcert.operators import dirichlet_restriction

        g = random_graph(30, np.random.default_rng(seed))
        assert len(set(g.rho.values())) == g.n
        H = assemble_laplacian(g)
        level = build_exhaustion(g, g.vertices[0], [2]).levels[0]
        assert 1 < len(level) < g.n
        for op in (H, dirichlet_restriction(H, level)):
            k = kernel_from_semigroup(op, self.TIMES)
            rho = op.rho
            np.testing.assert_array_equal(k.at(0.0), np.diag(1.0 / rho))
            for t, mat in zip(k.times[1:], k.kernels[1:]):
                ref = np.real(semigroup(op, t)) / rho[None, :]
                assert np.linalg.norm(mat - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_complex_kernel_refused(self):
        from heatcert.cli import build_coulomb_demo
        from heatcert.operators import assemble_covariant

        g, connection, _ = build_coulomb_demo(12, 1.0, 0.3)
        H = assemble_covariant(g, 1, connection)
        p = semigroup(H, 1.0)
        assert np.max(np.abs(p.imag)) > 0.1 * np.max(np.abs(p))
        with pytest.raises(ValueError, match="not real"):
            kernel_from_semigroup(H, (1.0,))

    def test_stack_is_read_only(self, tmp_path):
        from heatcert.heat import dump_kernel, load_kernel

        H = assemble_laplacian(path_graph(5))
        k = kernel_from_semigroup(H, (0.0, 1.0))
        with pytest.raises(ValueError):
            k.kernels[1, 0, 0] = 1.0
        with pytest.raises(ValueError):
            k.at(0.0)[0, 1] = 1.0
        dump_kernel(k, tmp_path / "k.json")
        loaded = load_kernel(tmp_path / "k.json")
        loaded.kernels[1, 0, 0] = 1.0
        assert loaded.kernels[1, 0, 0] == 1.0

    def test_dump_load_round_trip(self, tmp_path):
        from heatcert.heat import dump_kernel, load_kernel

        g = random_graph(9, np.random.default_rng(4))
        k = kernel_from_semigroup(assemble_laplacian(g), (0.0, 0.3, 2.0))
        dump_kernel(k, tmp_path / "k.json")
        loaded = load_kernel(tmp_path / "k.json")
        assert loaded.times == k.times and loaded.vertices == k.vertices
        assert np.array_equal(loaded.rho, k.rho)
        assert np.array_equal(loaded.kernels, k.kernels)

    def test_each_slice_formed_once_per_operator(self, monkeypatch):
        # one pass over the grid: the host's p(t) feeds its checks and the
        # whole-host level, and each level forms its own p(t) once
        from heatcert import heat, operators

        g = path_graph(10)
        times = (0.0, 0.5, 1.0)
        to_host = build_exhaustion(g, "v0", [3, 9])
        assert to_host.levels[-1].tolist() == list(range(g.n))
        formed = []

        def counting(op):
            form = operators._kernel_slices(op)

            def counted(t, out):
                formed.append((op.dim, t))
                return form(t, out)
            return counted

        monkeypatch.setattr(heat, "_kernel_slices", counting)
        H = assemble_laplacian(g)
        heat.verify_semigroup(H, times, ex=to_host)
        dims = [4, g.n]
        assert sorted(formed) == sorted((d, t) for d in dims for t in times)
        formed.clear()
        minimal_kernel(g, to_host, times, H=H)
        assert sorted(formed) == sorted((d, t) for d in dims for t in times)
        formed.clear()
        heat.kernel_from_semigroup(H, times)
        assert sorted(formed) == [(g.n, t) for t in times]

    def test_heat_verify_builds_no_stack(self, tmp_path, monkeypatch):
        from heatcert import cli, heat
        from heatcert.graph import dump_graph

        g = random_graph(12, np.random.default_rng(60))
        root = g.vertices[0]
        dump_graph(g, tmp_path / "g.json")
        slices = []
        make = heat.HeatKernel
        monkeypatch.setattr(heat, "HeatKernel",
                            lambda *a: slices.append(len(a[1])) or make(*a))
        rc = cli.main(["heat", "verify", "--graph", str(tmp_path / "g.json"),
                       "--exhaustion", f"root={root},radii=1,2,{g.n}",
                       "--times", "0.5,1.0", "--out", str(tmp_path / "r.json")])
        assert rc == 0
        # the host and its levels are streamed by time: the only kernel
        # made is the empty one of kept slices
        assert slices == [0]
        slices.clear()
        rc = cli.main(["heat", "minimal", "--graph", str(tmp_path / "g.json"),
                       "--exhaustion", f"root={root},radii=1,2,{g.n}",
                       "--times", "0.5,1.0", "--out", str(tmp_path / "m.json")])
        assert rc == 0 and slices == []


def random_orthonormal(n, rng, keep=None):
    """A random n x n orthogonal matrix; with keep, a unit vector, its first
    column is keep and the rest span keep's complement at random."""
    x = rng.standard_normal((n, n))
    if keep is not None:
        x[:, 0] = keep
    q, r = np.linalg.qr(x)
    return q * np.sign(np.diag(r))


class TestContinuityProbe:
    """The probe reads ||(P_t - I) e_j|| from the cached eigendecomposition
    and ||H e_j|| from A, so a wrong eigendecomposition cached on H fails
    it."""

    FAULTS = {
        "scaled-eigenvalues": lambda H, lam, u, rng: (1.5 * lam, u),
        "random-basis": lambda H, lam, u, rng: (lam, random_orthonormal(H.dim, rng)),
        "another-graph": lambda H, lam, u, rng: np.linalg.eigh(
            assemble_laplacian(random_graph(H.dim, rng)).matrix),
        "keeps-the-constant": lambda H, lam, u, rng: (
            lam, random_orthonormal(H.dim, rng, np.sqrt(H.rho) / np.linalg.norm(np.sqrt(H.rho)))),
    }

    @pytest.mark.parametrize("host", ["random", "varying-path"])
    def test_the_true_eigenbasis_passes(self, host):
        from heatcert import heat

        g = random_graph(60, np.random.default_rng(73)) if host == "random" else varying_path(200)
        H = assemble_laplacian(g)
        assert heat._continuity_probe(H)
        assert "eigh" in H._cache

    @pytest.mark.parametrize("fault", list(FAULTS))
    @pytest.mark.parametrize("host", ["random", "varying-path"])
    def test_a_wrong_eigenbasis_fails(self, host, fault):
        from heatcert import heat

        rng = np.random.default_rng(74)
        g = random_graph(60, rng) if host == "random" else varying_path(200)
        H = assemble_laplacian(g)
        lam, u = np.linalg.eigh(H.matrix)
        wrong = self.FAULTS[fault](H, lam, u, rng)
        if fault == "keeps-the-constant":
            assert np.allclose(wrong[1] @ (wrong[1].T @ np.sqrt(H.rho)), np.sqrt(H.rho))
        assert np.allclose(wrong[1].T @ wrong[1], np.eye(H.dim))
        H._cache["eigh"] = wrong
        assert not heat._continuity_probe(H)


def varying_path(n=40):
    return path_graph(n, rho=[1.0 + (j % 7) / 3 for j in range(n)])


def reference_checks(k):
    """The axiom and rho-bound values of a stack, each over the whole stack
    at once and A1 time pair by time pair: the loops the pass replaced."""
    rho, times, kernels = k.rho, k.times, k.kernels
    errs = []
    for i, t in enumerate(times):
        for j, s in enumerate(times):
            at = [m for m, u in enumerate(times) if abs(u - (t + s)) <= 1e-12 * u]
            if t > 0 and s > 0 and at:
                rhs = kernels[i] @ (rho[:, None] * kernels[j])
                errs.append(float(np.max(np.abs(kernels[at[0]] - rhs))))
    return {"A1_max_violation": max(errs) if errs else None, "A1_pairs_checked": len(errs),
            "A2_max_violation": float(np.max(np.abs(kernels - kernels.swapaxes(1, 2)))),
            "A3_max_excess": max(0.0, *(float(np.max(mat @ rho)) - 1.0 for mat in kernels)),
            "min_kernel_value": float(np.min(kernels)),
            "max_p_times_rho": float(np.max(kernels * rho))}


class TestStreamedHost:
    """verify_semigroup forms each host slice once, in one ascending pass,
    and holds no stack; the stack-based functions are the reference."""

    @pytest.mark.parametrize("times", [DEFAULT_TIMES, (0.0, 0.5, 1.0), (0.1, 1.0, 10.0, 10.1)],
                             ids=["default", "with-zero", "kept-to-the-end"])
    @pytest.mark.parametrize("host", ["lattice", "varying-path"])
    def test_reports_equal_stack_reports(self, host, times):
        if host == "lattice":
            g, root, radii = unit_lattice(8), "v0_0", [3, 7, 14]
        else:
            g, root, radii = varying_path(), "v0", [5, 20, 39]
        assert len(set(g.rho_vec)) == (1 if host == "lattice" else 7)
        ex = build_exhaustion(g, root, radii)
        H = assemble_laplacian(g)
        axioms, rho_bound, minimal, kept = verify_semigroup(H, times, ex=ex)
        k = kernel_from_semigroup(H, times)
        assert axioms.to_dict() == verify_axioms(k, H).to_dict()
        assert rho_bound.to_dict() == verify_rho_bound(k).to_dict()
        reference = {**axioms.to_dict(), **rho_bound.to_dict()}
        assert {key: reference[key] for key in reference_checks(k)} == reference_checks(k)
        assert minimal.to_dict() == minimal_kernel(g, ex, times, H=H).to_dict()
        assert kept.times == () and kept.kernels.shape == (0, g.n, g.n)
        pairs = {DEFAULT_TIMES: 9, (0.0, 0.5, 1.0): 1, (0.1, 1.0, 10.0, 10.1): 2}[times]
        assert axioms.a1_pairs_checked == pairs

    def test_kept_slices_are_the_stack_slices(self):
        g = varying_path()
        H = assemble_laplacian(g)
        kept = verify_semigroup(H, DEFAULT_TIMES, keep=(1.0, 0.5, 0.5))[3]
        k = kernel_from_semigroup(H, DEFAULT_TIMES)
        assert kept.times == (0.5, 1.0)
        for t in kept.times:
            assert np.array_equal(kept.at(t), k.at(t))
        with pytest.raises(ValueError):
            kept.kernels[0, 0, 0] = 1.0
        with pytest.raises(KeyError):
            verify_semigroup(H, DEFAULT_TIMES, keep=(0.3,))

    @pytest.mark.parametrize("times, most, to_the_end", [
        (DEFAULT_TIMES, 2, []), ((0.1, 1.0, 10.0, 10.1), 2, [0.1, 10.0])])
    def test_slice_held_only_while_a_pair_needs_it(self, times, most, to_the_end):
        from heatcert.heat import _KernelChecks

        k = kernel_from_semigroup(assemble_laplacian(path_graph(6)), times)
        checks = _KernelChecks(k.times, k.vertices, k.rho)
        held = []
        for mat in k.kernels:
            checks.add(mat)
            held.append(sorted(k.times[i] for i in checks.held))
        # held past its step: p(t) for a later t + s; with the current
        # slice, at most most + 1 are live
        assert max(map(len, held)) == most
        assert held[-2] == to_the_end and held[-1] == []

    @pytest.mark.parametrize("times, pairs", [
        ((1e-13, 3e-13), 0), ((2e-13, 5e-13, 7e-13), 2), (DEFAULT_TIMES, 9),
        ((0.3, 0.6, 0.9, 1.2), 6), ((1e308,), 0), ((1.0, 1e308), 2)])
    def test_pairs_match_times_relatively(self, times, pairs):
        H = assemble_laplacian(path_graph(5))
        rep = verify_axioms(kernel_from_semigroup(H, times), H)
        assert rep.a1_pairs_checked == pairs
        assert verify_semigroup(H, times)[0].to_dict() == rep.to_dict()

    def test_at_matches_relatively(self):
        k = kernel_from_semigroup(assemble_laplacian(path_graph(3)), (0.0, 1e-13, 1.0))
        for t, i in ((1e-13, 1), (1e-13 * (1 + 1e-14), 1), (1.0 + 1e-13, 2), (0.0, 0)):
            assert np.array_equal(k.at(t), k.kernels[i])
        short = HeatKernel((0.0, 1.0), k.kernels[[0, 2]], k.vertices, k.rho)
        for t in (1e-13, 5e-13, np.inf, np.nan):
            with pytest.raises(KeyError):
                short.at(t)

    @staticmethod
    def traced_heat_verify_peak(tmp_path) -> float:
        """The tracemalloc peak of `heat verify` with an exhaustion on the
        20 x 20 unit lattice, in n^2 doubles."""
        import tracemalloc

        from heatcert.cli import main
        from heatcert.graph import dump_graph

        g = unit_lattice(20)
        dump_graph(g, tmp_path / "g.json")
        argv = ["heat", "verify", "--graph", str(tmp_path / "g.json"),
                "--exhaustion", "root=v0_0,radii=5,10,20,38", "--out", str(tmp_path / "r.json")]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak / (g.n ** 2 * 8)

    def test_heat_verify_peak_below_one_host_stack(self, tmp_path):
        # 13 n^2 doubles is the host stack the checks held before the
        # stream; the pass holds a few slices and the level factors
        assert self.traced_heat_verify_peak(tmp_path) < len(DEFAULT_TIMES)

    def test_heat_verify_peak_below_nine_slices(self, tmp_path):
        # the pass holds H, the kernel factor in place of the eigenbasis,
        # the level factors and buffers and the live slices, and checks in
        # row blocks: about 8.3 n^2 doubles, where U next to its factor and
        # the n x n temporaries of the slice operand and the checks made 10.3
        assert self.traced_heat_verify_peak(tmp_path) < 9

    def test_probe_first_then_the_factor_replaces_the_eigenbasis(self, monkeypatch):
        from heatcert import heat

        H = assemble_laplacian(varying_path())
        calls, order = [], []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        for name in ("_continuity_probe", "_kernel_former"):
            fn = getattr(heat, name)
            monkeypatch.setattr(heat, name, lambda *a, _n=name, _f=fn: order.append(_n) or _f(*a))
        axioms = verify_semigroup(H, DEFAULT_TIMES)[0]
        # one eigenbasis serves the probe, then the kernel factor is formed
        # in its place: H keeps only its PSD verdict
        assert axioms.continuity_ok and order == ["_continuity_probe", "_kernel_former"]
        assert calls == [(H.dim, H.dim)]
        assert H._cache == {"psd": True}


def test_heat_verify_at_a_huge_time_does_not_overflow(tmp_path):
    # a RuntimeWarning fails the test; e^{-t lambda} is 0 for every lambda > 0
    from heatcert.cli import main
    from heatcert.graph import dump_graph

    dump_graph(path_graph(6), tmp_path / "g.json")
    assert main(["heat", "verify", "--graph", str(tmp_path / "g.json"), "--times", "1e308",
                 "--out", str(tmp_path / "r.json")]) == 0
    rep = json.loads((tmp_path / "r.json").read_text())
    assert rep["axioms"]["A1_pairs_checked"] == 0 and rep["pass"] is True


@pytest.mark.parametrize("t", [1e-300, 1e-3, 1.0, 100.0, 1e4, 1e300, 1e308])
def test_semigroup_g_clip_keeps_values_bit_for_bit(t):
    from heatcert.operators import _semigroup_g

    lam = np.concatenate([[-1e-12, 0.0, 5e-324, 1e-300], np.geomspace(1e-12, 1e6, 400),
                          746.0 / t * np.array([1 - 1e-15, 1.0, 1 + 1e-15, 2.0])])
    with np.errstate(over="ignore"):
        unclipped = np.exp(-t * np.clip(lam, 0.0, None))
    with np.errstate(over="raise"):
        clipped = _semigroup_g(t)(lam)
    assert np.array_equal(clipped, unclipped)


def test_operator_slices_have_no_asymmetry(tmp_path):
    # each slice of an operator is one symmetric product, so A2 reads 0 and
    # names no worst sample; on this path a row-blocked product once moved
    # the worst sample by round-off alone
    from heatcert.cli import main
    from heatcert.graph import dump_graph

    dump_graph(varying_path(700), tmp_path / "g.json")
    assert main(["heat", "verify", "--graph", str(tmp_path / "g.json"),
                 "--out", str(tmp_path / "r.json")]) == 0
    axioms = json.loads((tmp_path / "r.json").read_text())["axioms"]
    assert axioms["A2_max_violation"] == 0.0 and axioms["A2_worst"] is None
    assert main(["demo", "coulomb-lattice", "--n", "120", "--out", str(tmp_path / "d.json")]) == 0
    axioms = json.loads((tmp_path / "d.json").read_text())["axioms"]
    assert axioms["A2_max_violation"] == 0.0 and axioms["A2_worst"] is None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a2_fold_finds_the_first_worst_sample(seed):
    # A2 reads each row block from its first row's column on; on a stack
    # with tied worst samples it finds the value and the first sample in
    # grid and row-major order that the whole slices give
    from heatcert.heat import _KernelChecks
    from heatcert.operators import _row_step

    rng = np.random.default_rng(seed)
    n, times = 400, (0.5, 1.0)
    assert _row_step(n * 8) < 330
    kernels = rng.random((len(times), n, n))
    kernels += kernels.swapaxes(1, 2)
    # tied asymmetries of 3 in the second slice, inside the last row block
    # and on either side of the diagonal
    rows, cols = rng.integers(330, n, (2, 6))
    kernels[1, rows, cols] += 3.0
    k = HeatKernel(times, kernels, tuple(f"v{i}" for i in range(n)), np.ones(n))
    checks = _KernelChecks(k.times, k.vertices, k.rho, a1=False)
    for mat in k.kernels:
        checks.add(mat)
    gaps = np.abs(kernels - kernels.swapaxes(1, 2))
    i, x, y = np.unravel_index(np.argmax(gaps), gaps.shape)
    assert checks.a2 == gaps.max() and i == 1
    assert checks.a2_worst == (times[i], f"v{x}", f"v{y}")
