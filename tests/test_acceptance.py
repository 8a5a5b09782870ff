"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines on
success). Every criterion states its tolerance inline; the oracles are
closed-form computations, independent quadratures, or exhaustive sweeps.
"""

import json
import time

import numpy as np
import pytest

from heatcert.bundle import UnitaryConnection
from heatcert.cli import EXIT_OK, main
from heatcert.compactness import (
    check_2a_bound,
    check_2to2_bound,
    check_domination,
    check_hs_bound,
    check_resolvent_bound,
)
from heatcert.control import F2Family, bakry_emery_factor, check_integrability, fit_control
from heatcert.graph import build_exhaustion, make_graph, path_graph, random_graph
from heatcert.heat import (
    DEFAULT_TIMES,
    kernel_from_semigroup,
    minimal_kernel,
    verify_axioms,
    verify_rho_bound,
)
from heatcert.operators import add_potential, assemble_covariant, assemble_laplacian


def _report(num, name, ok):
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _axiom_sweep_graphs():
    rng = np.random.default_rng(2024)
    return [random_graph(int(rng.integers(2, 101)), rng) for _ in range(20)]


def test_criterion_01_two_vertex_analytic():
    start = time.monotonic()
    g = make_graph(["1", "2"], {"1": 1.0, "2": 1.0}, [("1", "2", 1.0)])
    k = kernel_from_semigroup(assemble_laplacian(g), (0.1, 1.0, 10.0))
    ok = True
    for t in (0.1, 1.0, 10.0):
        mat = np.real(k.at(t))
        e = np.exp(-2.0 * t)
        ok &= abs(mat[0, 0] - (1 + e) / 2) <= 1e-10
        ok &= abs(mat[0, 1] - (1 - e) / 2) <= 1e-10
    ok &= (time.monotonic() - start) < 1.0
    _report(1, "two-vertex analytic kernel", ok)


def test_criterion_02_axiom_suite():
    start = time.monotonic()
    ok = True
    for g in _axiom_sweep_graphs():
        H = assemble_laplacian(g)
        k = kernel_from_semigroup(H, DEFAULT_TIMES)
        rep = verify_axioms(k, H)
        ok &= rep.ok
        ok &= rep.a1_max_violation is not None and rep.a1_max_violation <= 1e-8
        ok &= rep.a2_max_violation <= 1e-10
        ok &= rep.a3_max_excess <= 1e-10
        ok &= rep.continuity_ok
        # finite host with no killing boundary: row mass exactly 1
        for mat in k.kernels:
            ok &= bool(np.max(np.abs(mat @ k.rho - 1.0)) <= 1e-10)
    ok &= (time.monotonic() - start) < 30.0
    _report(2, "heat-kernel axioms A1/A2/A3 + continuity", ok)


def test_criterion_03_universal_rho_bound():
    ok = True
    for g in _axiom_sweep_graphs():
        k = kernel_from_semigroup(assemble_laplacian(g), DEFAULT_TIMES)
        rep = verify_rho_bound(k)
        ok &= rep.max_product <= 1.0 + 1e-10
    g1 = make_graph(["x"], {"x": 2.5}, [])
    k1 = kernel_from_semigroup(assemble_laplacian(g1), (0.0, 1.0, 10.0))
    sat = verify_rho_bound(k1)
    ok &= abs(sat.max_product - 1.0) <= 1e-12
    _report(3, "universal bound p * rho <= 1, saturated on a point", ok)


def test_criterion_04_minimal_kernel_monotone():
    start = time.monotonic()
    g = path_graph(400)
    ex = build_exhaustion(g, "v0", [50, 100, 200, 399])
    times = (0.1, 0.5, 1.0, 5.0)
    rep = minimal_kernel(g, ex, times)
    ok = rep.monotone_ok and rep.worst_decrease >= -1e-10
    # pointwise monotonicity over every stored sample
    for ka, kb in zip(rep.kernels, rep.kernels[1:]):
        pos = [kb.vertices.index(v) for v in ka.vertices]
        for mat_a, mat_b in zip(ka.kernels, kb.kernels):
            diff = np.real(mat_b[np.ix_(pos, pos)] - mat_a)
            ok &= bool(np.min(diff) >= -1e-10)
    # sup increments (fixed observation window) shrink with the level: the
    # last transition sits at the rounding floor, so the adjacent comparison
    # carries a 1e-12 allowance while the first-to-last drop must be decisive
    for t in times:
        if t <= 1.0:
            ok &= rep.sup_increments[-1][t] <= rep.sup_increments[-2][t] + 1e-12
            ok &= rep.sup_increments[-1][t] < rep.sup_increments[0][t]
    ok &= (time.monotonic() - start) < 60.0
    _report(4, "minimal-kernel monotonicity on the 400-path", ok)


def _hs_sweep():
    rng = np.random.default_rng(55)
    sweep = []
    for _ in range(10):
        g = random_graph(int(rng.integers(5, 40)), rng)
        H = assemble_laplacian(g)
        k = kernel_from_semigroup(H, (0.25, 0.5, 1.0))
        ws = [{v: float(rng.standard_normal()) for v in g.vertices}
              for _ in range(20)]
        sweep.append((g, H, k, ws))
    return sweep


def test_criterion_05_hs_identity_and_step1():
    ok = True
    for g, H, k, ws in _hs_sweep():
        cp, cert = fit_control(k, "graph")
        ok &= cert.ok
        for W in ws:
            for t in (0.25, 0.5):
                identity, bound = check_hs_bound(W, k, cp, t)
                ok &= identity.lhs <= 1e-8          # relative error row
                ok &= bound.ok                      # HS^2 <= ||W||^2 row
    _report(5, "HS identity + first semigroup bound", ok)


def test_criterion_06_two_to_alpha():
    rng = np.random.default_rng(66)
    ok = True
    for _ in range(10):
        g = random_graph(int(rng.integers(4, 30)), rng)
        k = kernel_from_semigroup(assemble_laplacian(g), (0.1, 1.0))
        size = int(rng.integers(1, g.n + 1))
        U = list(rng.choice(g.vertices, size=size, replace=False))
        t = float(rng.choice([0.1, 1.0]))
        for alpha in (3.0, 4.0, 8.0):
            row = check_2a_bound(U, k, t, alpha, rng)
            ok &= row.lhs <= row.rhs + 1e-8
    _report(6, "2 -> alpha smoothing bound", ok)


def test_criterion_07_step2_step3():
    ok = True
    for g, H, k, ws in _hs_sweep():
        for q in (1.5, 2.0, 3.0):
            cp, _ = fit_control(k, "graph", q)
            for W in ws:
                for t in (0.25, 1.0):
                    ok &= check_2to2_bound(W, H, cp, t).ok
                for a in (1.0, 2.0, 4.0):
                    ok &= check_resolvent_bound(W, H, cp, a).ok
    _report(7, "semigroup and resolvent norm bounds, q > 1", ok)


def _random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()[None, :]


def _random_connection(g, d, rng):
    phi = np.array([_random_unitary(rng, d) for _ in range(g.src.size)])
    return UnitaryConnection(g, phi, np.linalg.inv(phi))


def test_criterion_08_kato_domination():
    rng = np.random.default_rng(88)
    ok = True
    for _ in range(20):
        g = random_graph(int(rng.integers(4, 12)), rng)
        d = int(rng.integers(1, 4))
        conn = _random_connection(g, d, rng)
        Hc = assemble_covariant(g, d, conn)
        from heatcert.bundle import EndomorphismField
        vals = {}
        for v in g.vertices:
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            vals[v] = z @ z.conj().T
        Hc = add_potential(Hc, EndomorphismField(d, vals, self_adjoint=True))
        H = assemble_laplacian(g)
        rows = check_domination(Hc, H, (0.1, 1.0), (0.5, 1.0, 2.0), 50, rng)
        for r in rows:
            ok &= r.ok
        spectral = next(r for r in rows if r.name == "kato-spectral-ordering")
        ok &= spectral.rhs >= spectral.lhs - 1e-9
    _report(8, "Kato domination, semigroup/resolvent/spectral", ok)


def test_criterion_09_integrability():
    ok = True
    for gamma in np.linspace(0.0, 8.0, 9):
        for q in (1.0, 1.5, 2.0, 3.0, 4.0):
            verdict = check_integrability(F2Family.power(1.0, float(gamma)), q)
            ok &= verdict.convergent == (gamma < 2 * q)
    unit = check_integrability(F2Family.constant(1.0), 1.0)
    ok &= unit.convergent and abs(unit.value - 1.0) <= 1e-10
    ok &= bakry_emery_factor(1, 0.0, 1.0, 1.0) == 4.0
    _report(9, "integrability criterion + reference constants", ok)


def test_criterion_10_end_to_end_demo(tmp_path):
    start = time.monotonic()
    out = tmp_path / "demo.json"
    code = main(["demo", "coulomb-lattice", "--n", "200", "--kappa", "1.0",
                 "--theta", "0.3", "--seed", "0", "--out", str(out)])
    rep = json.loads(out.read_text())
    ok = (code == EXIT_OK and rep["pass"] is True
          and rep["compactness"]["verdict"] == "hypotheses-verified"
          and rep["last_level_drift"] < 1e-3)
    for row in rep["ledger"]:
        ok &= row["pass"]
    ok &= (time.monotonic() - start) < 120.0
    _report(10, "end-to-end demo certificate", ok)


def test_criterion_11_gauge_invariance():
    rng = np.random.default_rng(111)
    ok = True
    for _ in range(10):
        g = random_graph(int(rng.integers(4, 12)), rng)
        d = int(rng.integers(1, 4))
        conn = _random_connection(g, d, rng)
        gauge = np.array([_random_unitary(rng, d) for _ in g.vertices])
        adjoint = gauge.conj().swapaxes(1, 2)
        conn2 = UnitaryConnection(g, gauge[g.dst] @ conn.phi @ adjoint[g.src],
                                  gauge[g.src] @ conn.back @ adjoint[g.dst])
        lam1, _ = assemble_covariant(g, d, conn).eigh()
        lam2, _ = assemble_covariant(g, d, conn2).eigh()
        ok &= bool(np.max(np.abs(lam1 - lam2)) <= 1e-9)
    _report(11, "gauge invariance of covariant spectra", ok)
