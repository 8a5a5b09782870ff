import math

import numpy as np
import pytest

from heatcert.control import (
    ControlPair,
    F2Family,
    bakry_emery_factor,
    check_integrability,
    fit_control,
    graph_pair,
    laplace_rule,
)
from heatcert.graph import make_graph, path_graph, random_graph
from heatcert.heat import DEFAULT_TIMES, kernel_from_semigroup
from heatcert.operators import assemble_laplacian


def gauss_legendre_graded_oracle(C, gamma, q, a=1.0, panels=400, order=12):
    """Independent quadrature oracle: composite Gauss-Legendre on a mesh
    graded geometrically toward 0, plus a far tail on [1, 60]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = [60.0 * (0.5 ** k) for k in range(panels)]
    edges.append(0.0)
    edges = edges[::-1]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = mid + half * nodes
        vals = np.exp(-a * t) * (C * (t ** -gamma + 1.0)) ** (1.0 / (2 * q))
        total += half * float(np.sum(weights * vals))
    return total


class TestBakryEmeryFactor:
    def test_reference_value(self):
        assert bakry_emery_factor(1, 0.0, 1.0, 1.0) == 4.0

    def test_r_equal_radius_collapse(self):
        assert bakry_emery_factor(2, 0.0, 3.0, 3.0) == 16.0

    def test_mixed_exponents(self):
        assert bakry_emery_factor(3, 1.0, 2.0, 1.0) == 4096.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bakry_emery_factor(1, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            bakry_emery_factor(0, 0.0, 1.0, 1.0)

    def test_chain_consistency(self):
        # F_{m,b,R}(r) F_{m,b,r}(s) = F_{m,b,R}(s) * 2^(2m+2b), via logs
        rng = np.random.default_rng(0)
        for _ in range(25):
            m = int(rng.integers(1, 5))
            beta = float(rng.uniform(0, 2))
            R, r, s = rng.uniform(0.1, 5.0, size=3)
            lhs = (math.log(bakry_emery_factor(m, beta, R, r))
                   + math.log(bakry_emery_factor(m, beta, r, s)))
            rhs = (math.log(bakry_emery_factor(m, beta, R, s))
                   + (2 * m + 2 * beta) * math.log(2.0))
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestIntegrability:
    def test_constant_family_integrates_to_one(self):
        verdict = check_integrability(F2Family.constant(1.0), q=2.0)
        assert verdict.convergent
        assert verdict.value == pytest.approx(1.0, abs=1e-10)

    def test_boundary_exponent_diverges(self):
        for q in (1.0, 1.5, 2.0):
            verdict = check_integrability(F2Family.power(1.0, 2.0 * q), q)
            assert not verdict.convergent
            assert "exponent" in verdict.reason

    def test_value_against_quadrature_oracle(self):
        verdict = check_integrability(F2Family.power(1.0, 1.0), q=1.0)
        assert verdict.convergent
        oracle = gauss_legendre_graded_oracle(1.0, 1.0, 1.0)
        assert verdict.value == pytest.approx(oracle, abs=1e-7)

    def test_criterion_matches_analytic_rule_on_grid(self):
        gammas = np.linspace(0.0, 8.0, 9)
        qs = [1.0, 1.5, 2.0, 3.0, 4.0]
        for gamma in gammas:
            for q in qs:
                verdict = check_integrability(F2Family.power(1.0, gamma), q)
                assert verdict.convergent == (gamma < 2 * q)

    def test_bakry_emery_family_criterion(self):
        # exponent (m + beta)/2 against 2q: m = 2, beta = 1 gives 1.5 < 2,
        # while m = 3, beta = 1 sits exactly on the divergence boundary
        assert check_integrability(F2Family.bakry_emery(1.0, 2, 1.0, 1.0), 1.0).convergent
        assert not check_integrability(F2Family.bakry_emery(1.0, 3, 1.0, 1.0), 1.0).convergent
        assert not check_integrability(F2Family.bakry_emery(1.0, 7, 1.0, 1.0), 1.0).convergent

    @pytest.mark.parametrize("fam, f2", [(F2Family.constant(3.0), 3.0),
                                         (F2Family.power(3.0, 0.0), 6.0)])
    @pytest.mark.parametrize("q", [1.0, 2.0])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_t_independent_family_is_exact(self, fam, f2, q, a):
        verdict = check_integrability(fam, q, a)
        assert verdict.convergent
        assert verdict.value == f2 ** (1.0 / (2.0 * q)) / a
        assert verdict.error == 0.0

    def test_singular_exponent(self):
        assert F2Family.constant(2.0).singular_exponent() == 0.0
        assert F2Family.power(2.0, 1.5).singular_exponent() == 1.5
        assert F2Family.bakry_emery(2.0, 3, 1.0, 4.0).singular_exponent() == 2.0

    def test_bakry_emery_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="m must be"):
            F2Family.bakry_emery(1.0, 0, 0.0, 1.0)
        with pytest.raises(ValueError, match="R > 0"):
            F2Family.bakry_emery(1.0, 3, 1.0, -1.0)

    def test_bakry_emery_value_matches_direct_quadrature(self):
        fam = F2Family.bakry_emery(0.5, 2, 0.0, 1.0)
        verdict = check_integrability(fam, q=2.0)
        assert verdict.convergent
        # direct graded oracle on the exact family (not the folded power form)
        nodes, weights = np.polynomial.legendre.leggauss(12)
        edges = [60.0 * (0.5 ** k) for k in range(400)] + [0.0]
        edges = edges[::-1]
        total = 0.0
        for lo, hi in zip(edges, edges[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            t = mid + half * nodes
            vals = np.exp(-t) * np.array([fam(ti) for ti in t]) ** 0.25
            total += half * float(np.sum(weights * vals))
        assert verdict.value == pytest.approx(total, abs=1e-7)


class TestLaplaceRule:
    @pytest.mark.parametrize("s", [0.0, 0.5, 0.875, 0.95, 0.99, 0.995])
    @pytest.mark.parametrize("a", [0.05, 1.0, 40.0])
    def test_weights_integrate_the_weight_function(self, s, a):
        # g = 1: the integral of e^{-a t} t^{-s} is Gamma(1 - s) a^{s-1}
        t, w = laplace_rule(a, s)
        assert np.all(t >= 0) and np.all(w > 0)
        exact = math.gamma(1.0 - s) * a ** (s - 1.0)
        assert abs(float(np.sum(w)) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("s", [0.0, 0.5, 0.875, 0.95, 0.995])
    @pytest.mark.parametrize("a", [0.05, 1.0, 40.0])
    @pytest.mark.parametrize("gamma", [0.0, 1.9])
    def test_no_node_is_zero_or_subnormal(self, s, a, gamma):
        # for s near 1 a start at v = -46 put nodes at t = 0 and subnormal t
        t, w = laplace_rule(a, s, gamma)
        assert np.all(t >= np.finfo(float).tiny)
        assert np.all(np.isfinite(w)) and np.all(w > 0)

    @pytest.mark.parametrize("a", [0.05, 1.0, 40.0])
    def test_resolvent_per_eigenvalue_up_to_1e9(self, a):
        # g = e^{-lambda t}: the integral is 1 / (lambda + a)
        t, w = laplace_rule(a)
        lam = a * np.concatenate([[0.0], np.logspace(-4, 9, 261)])
        g = np.exp(-np.outer(lam, t)) @ w
        assert np.max(np.abs(g * (lam + a) - 1.0)) <= 1e-10

    @pytest.mark.parametrize("a", [0.05, 1.0, 40.0])
    def test_left_tail_kept_for_large_lambda(self, a):
        # the rule's nodes left of v = -46 weigh e^-46 / a, which against
        # 1 / (lambda + a) showed as 1e-11 at lambda / a = 1e9
        t, w = laplace_rule(a)
        lam = a * np.logspace(6, 9, 31)
        g = np.exp(-np.outer(lam, t)) @ w
        assert np.max(np.abs(g * (lam + a) - 1.0)) <= 1e-14

    # (F2, q, a, value) with values to 17 digits from 25-digit references
    REFERENCES = [
        (F2Family.power(1.0, 1.0), 1.0, 1.0, 2.1275595469928476),
        (F2Family.power(1.0, 7.0), 4.0, 1.0, 7.6812537615668815),
        (F2Family.power(1.0, 1.9), 1.0, 1.0, 19.806644074550242),
        (F2Family.power(3.0, 6.0), 4.0, 0.05, 26.410058067920738),
        (F2Family.power(1.0, 8.0), 5.0, 40.0, 2.1952324301128902),
        (F2Family.bakry_emery(1.0, 2, 1.0, 1.0), 1.0, 1.0, 29.061726988263211),
        # s = 0.995: the first node sits at t = 2 tiny, and about 3 % of
        # the integral lies to its left
        (F2Family.power(1.0, 1.99), 1.0, 1.0, 199.76336677264968),
        (F2Family.power(1.0, 1.99), 1.0, 0.05, 219.58126235686595),
        (F2Family.power(1.0, 1.99), 1.0, 40.0, 195.78341517337732),
        (F2Family.power(1.0, 3.98), 2.0, 1.0, 199.61916585774389),
    ]

    @pytest.mark.parametrize("fam, q, a, ref", REFERENCES)
    def test_integrability_against_references(self, fam, q, a, ref):
        verdict = check_integrability(fam, q, a)
        assert verdict.convergent
        deviation = abs(verdict.value - ref)
        assert deviation <= 1e-12 * ref
        assert verdict.error >= deviation

    def test_bounded_factor_against_closed_forms(self):
        # F2 = C (t^-gamma + 1) and C (F_{m,beta,R}(sqrt t) + 1), gamma = 1.5
        power, be = F2Family.power(2.0, 1.5), F2Family.bakry_emery(0.5, 2, 1.0, 3.0)
        for t in (1e-6, 0.5, 3.0):
            f_power = 2.0 * (t ** -1.5 + 1.0)
            f_be = 0.5 * (bakry_emery_factor(2, 1.0, 3.0, math.sqrt(t)) + 1.0)
            assert power(t) == pytest.approx(f_power, rel=1e-14)
            assert be(t) == pytest.approx(f_be, rel=1e-14)
            assert power.bounded(t) == pytest.approx(t ** 1.5 * f_power, rel=1e-14)
            assert be.bounded(t) == pytest.approx(t ** 1.5 * f_be, rel=1e-14)
        assert F2Family.constant(3.0).bounded(0.5) == F2Family.constant(3.0)(0.5) == 3.0


class TestControlPairType:
    def test_q_above_one_forces_unit_f1(self):
        with pytest.raises(ValueError):
            ControlPair(np.array([1.0, 0.5]), F2Family.constant(1.0), q=2.0)
        ControlPair(np.array([1.0, 1.0]), F2Family.constant(1.0), q=2.0)

    def test_rejects_nonpositive_f1(self):
        with pytest.raises(ValueError):
            ControlPair(np.array([1.0, 0.0]), F2Family.constant(1.0), q=1.0)
        with pytest.raises(ValueError):
            ControlPair(np.array([1.0, np.nan]), F2Family.constant(1.0), q=1.0)

    def test_only_closed_form_families(self):
        with pytest.raises(ValueError, match="unknown F2 family"):
            F2Family("table")
        verdict = check_integrability(F2Family.constant(1.0), q=1.0)
        assert verdict.to_dict()["heuristic"] is False


class TestFitControl:
    def test_single_vertex_zero_slack(self):
        c = 2.0
        g = make_graph(["x"], {"x": c}, [])
        k = kernel_from_semigroup(assemble_laplacian(g), (0.1, 1.0, 10.0))
        pair, cert = fit_control(k, "graph")
        assert pair.F1[0] == pytest.approx(1.0 / c)
        assert cert.ok
        assert cert.min_slack == pytest.approx(0.0, abs=1e-14)

    def test_two_vertex_slack_profile(self):
        g = make_graph(["1", "2"], {"1": 1.0, "2": 1.0}, [("1", "2", 1.0)])
        k = kernel_from_semigroup(assemble_laplacian(g), (0.5, 1.0, 2.0))
        pair, cert = fit_control(k, "graph")
        assert cert.ok
        # slack at time t on the diagonal is (1 - e^{-2t})/2
        assert cert.min_slack == pytest.approx((1 - np.exp(-1.0)) / 2, abs=1e-12)

    def test_power_family_on_lattice_segment(self):
        g = path_graph(200)
        k = kernel_from_semigroup(assemble_laplacian(g), DEFAULT_TIMES)
        pair, cert = fit_control(k, "power")
        assert cert.ok
        assert cert.min_slack >= -1e-12
        # interior small-t decay is diffusive; the fit observes an exponent
        # near 1/2 (reported, not asserted tightly)
        assert 0.0 < cert.fitted["gamma"] < 1.0

    @pytest.mark.parametrize("family", ["graph", "power"])
    def test_grid_without_positive_time_is_refused(self, family):
        # at t = 0 the diagonal is 1/rho exactly, so there is nothing to fit
        k = kernel_from_semigroup(assemble_laplacian(path_graph(4)), (0.0,))
        with pytest.raises(ValueError, match=r"kernel time grid \[0.0\] has no t > 0"):
            fit_control(k, family)

    def test_zero_time_next_to_positive_ones_is_skipped(self):
        k = kernel_from_semigroup(assemble_laplacian(path_graph(4)), (0.0, 0.5))
        _, cert = fit_control(k, "graph")
        assert cert.ok and math.isfinite(cert.min_slack) and cert.min_slack > 0

    def test_power_family_q_above_one_unit_f1(self):
        g = path_graph(10, rho=2.0)
        k = kernel_from_semigroup(assemble_laplacian(g), DEFAULT_TIMES)
        pair, _ = fit_control(k, "power", q=2.0)
        assert np.all(pair.F1 == 1.0)


class TestGraphPair:
    @pytest.mark.parametrize("q", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_graph_fit(self, seed, q):
        # the theorem's pair is the one the fit finds on the graph's kernel,
        # to the bit; the fit's certificate holds
        g = random_graph(int(np.random.default_rng(seed).integers(5, 40)),
                         np.random.default_rng(seed))
        fitted, cert = fit_control(kernel_from_semigroup(assemble_laplacian(g), DEFAULT_TIMES),
                                   "graph", q)
        derived = graph_pair(g.rho_vec, q)
        assert cert.ok
        assert np.array_equal(derived.F1, fitted.F1)
        assert derived.F1.dtype == fitted.F1.dtype
        assert (derived.F2.kind, derived.F2.C, derived.q) == (fitted.F2.kind, fitted.F2.C,
                                                             fitted.q)

    def test_q_above_one_moves_sup_of_f1_into_f2(self):
        pair = graph_pair(np.array([0.5, 2.0, 4.0]), q=2.0)
        assert np.all(pair.F1 == 1.0)
        assert (pair.F2.kind, pair.F2.C) == ("constant", 2.0)
        assert pair.F2(0.1) == pair.F2(10.0) == 2.0
