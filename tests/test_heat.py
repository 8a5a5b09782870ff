import json

import numpy as np
import pytest

from heatcert.graph import build_exhaustion, make_graph, path_graph, random_graph
from heatcert.heat import (
    DEFAULT_TIMES,
    HeatKernel,
    kernel_from_semigroup,
    minimal_kernel,
    verify_axioms,
    verify_rho_bound,
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

    def test_host_tabulated_once(self):
        g = path_graph(10)
        times = (0.5, 1.0)
        H = assemble_laplacian(g)
        to_host = build_exhaustion(g, "v0", [3, 9])
        assert to_host.levels[-1].tolist() == list(range(g.n))
        last = minimal_kernel(g, to_host, times, H=H).kernels[-1]
        assert last is kernel_from_semigroup(H, times)
        assert last is kernel_from_semigroup(H, [1.0, 0.5])
        assert last is not kernel_from_semigroup(assemble_laplacian(g), times)
        assert minimal_kernel(g, to_host, (0.5, 2.0), H=H).kernels[-1] is not last
        short = build_exhaustion(g, "v0", [3, 8])
        assert minimal_kernel(g, short, times, H=H).kernels[-1] is not last

    def test_heat_verify_builds_host_stack_once(self, tmp_path, monkeypatch):
        from heatcert import cli, heat
        from heatcert.graph import dump_graph

        g = random_graph(12, np.random.default_rng(60))
        root = g.vertices[0]
        dump_graph(g, tmp_path / "g.json")
        sizes = []
        make = heat.HeatKernel
        monkeypatch.setattr(heat, "HeatKernel",
                            lambda *a: sizes.append(len(a[2])) or make(*a))
        rc = cli.main(["heat", "verify", "--graph", str(tmp_path / "g.json"),
                       "--exhaustion", f"root={root},radii=1,2,{g.n}",
                       "--times", "0.5,1.0", "--out", str(tmp_path / "r.json")])
        assert rc == 0
        assert sizes.count(g.n) == 1
        assert len(sizes) == len(build_exhaustion(g, root, [1, 2, g.n]).levels)

    def test_continuity_probe_subtracts_identity(self, monkeypatch):
        from heatcert import heat

        H = assemble_laplacian(random_graph(15, np.random.default_rng(73)))
        assert heat._continuity_probe(H)
        monkeypatch.setattr(heat, "semigroup_matrix", lambda H, t: 2.0 * np.eye(H.dim))
        assert not heat._continuity_probe(H)
