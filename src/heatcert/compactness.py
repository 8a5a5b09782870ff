"""Desk-scale certificates for relative compactness of potential
perturbations.

Everything here is a checkable inequality: the Hilbert-Schmidt identity and
its control-function bound, the 2 -> alpha smoothing bound, the Laplace
representation of the resolvent (by `control.laplace_rule`, checked
against the assembled matrix), Kato domination between bundle and scalar
operators, and stabilization of the singular values of W (H + a)^{-1}
along an exhaustion. The report never claims compactness of an
infinite-volume operator; it states which hypotheses were verified and how
far the finite spectra drifted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bundle import EndomorphismField
from .control import ControlPair, F2Family, _quad_f2, check_integrability, laplace_rule
from .graph import Exhaustion, WeightedGraph, lq_norm
from .heat import HeatKernel
from .operators import (
    OperatorMatrix,
    _resolvent_g,
    _semigroup_g,
    _symmetrize,
    dirichlet_restriction,
    resolvent_singular_values,
    singular_values,
    spectral_function,
    spectral_rows,
)

HS_IDENTITY_RTOL = 1e-8
DOMINATION_TOL = 1e-9
ASCENT_TOL = 1e-8


@dataclass
class LedgerRow:
    """One verified inequality: name, both sides, slack = rhs - lhs."""

    name: str
    lhs: float
    rhs: float
    tol: float = 0.0
    detail: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs + self.tol

    def to_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "slack": self.slack, "pass": self.ok, **self.detail}


def resolvent_via_laplace(H: OperatorMatrix, a: float) -> np.ndarray:
    """(H + a)^{-1} from the Laplace representation: the integral of
    e^{-at} e^{-tH} dt by `control.laplace_rule` with s = 0.

    The quadrature sum of semigroups is one function of H, g(lambda) =
    sum_k w_k e^{-t_k max(lambda, 0)}, evaluated on the cached spectrum:
    O(282 n) plus one O(n^3) reconstruction. Per eigenvalue,
    |g(lambda) (lambda + a) - 1| reads 2e-15 for lambda / a up to 1e9: the
    first node carries the rule's left tail, whose loss, e^-46 times
    lambda / a, read 1e-11 at 1e9.
    """
    if a <= 0:
        raise ValueError("shift must be positive")
    t, w = laplace_rule(a)
    return spectral_function(H, lambda lam: np.exp(-np.outer(np.clip(lam, 0.0, None), t)) @ w)


def check_resolvent_laplace(H: OperatorMatrix, a: float, rtol: float = 1e-6) -> LedgerRow:
    """Residual of `resolvent_via_laplace` against the assembled matrix:
    ||D^{1/2} ((M + a) R - I) D^{-1/2}||_F for M = H.matrix and R the
    quadrature resolvent. With the eigendecomposition of M it reads
    sqrt(sum over eigenvalues of ((lambda + a) g(lambda) - 1)^2), so it
    bounds the relative error on every eigenvalue; with a stale one it
    fails. lambda_max / a in the detail says how far the quadrature was
    pushed."""
    quad = resolvent_via_laplace(H, a)
    residual = _symmetrize(H.matrix @ quad + a * quad, H.measure_weights()) - np.eye(H.dim)
    return LedgerRow("resolvent-laplace-crosscheck", float(np.linalg.norm(residual)), rtol,
                     detail={"a": a, "lambda_max_over_a": float(H.eigh()[0][-1] / a)})


def _field(W, vertices, rank: int | None = None) -> EndomorphismField:
    """W at the given vertices, in their order. The checks also take a map
    vertex -> real number w, which is the rank-1 field w(x)."""
    if isinstance(W, dict):
        W = EndomorphismField.scalar(W)
    if rank is not None and W.rank != rank:
        raise ValueError(f"potential of rank {W.rank} for an operator of rank {rank}")
    return W.restrict(vertices)


def check_hs_bound(W1, k: HeatKernel, cp: ControlPair, t: float) -> list[LedgerRow]:
    """Two rows: the HS identity ||W P_t||_HS^2 = sum |W|^2 p(2t, x, x) rho,
    and the control bound against F2(2t) ||W||^2 in the F1-weighted L^2."""
    if cp.q != 1:
        raise ValueError("the HS route is the q = 1 path")
    p2t = k.at(2 * t)
    pt = k.at(t)
    rho = k.rho
    w = _field(W1, k.vertices, 1).norms()
    # direct: matrix of W P_t acting on coordinate vectors
    mat = w[:, None] * (np.real(pt) * rho[None, :])
    hs_direct_sq = float(np.linalg.norm(_symmetrize(mat, rho), "fro")) ** 2
    diag_sq = float(np.sum(w ** 2 * np.real(np.diagonal(p2t)) * rho))
    scale = max(hs_direct_sq, diag_sq, 1e-300)
    identity = LedgerRow("hs-identity-relerr",
                         abs(hs_direct_sq - diag_sq) / scale, HS_IDENTITY_RTOL,
                         detail={"t": t, "hs_sq": hs_direct_sq, "diag_sq": diag_sq})
    norm_sq = float(np.sum(w ** 2 * cp.F1 * rho))
    bound = LedgerRow("hs-step1-bound", diag_sq, cp.F2(2 * t) * norm_sq,
                      tol=1e-12 * max(1.0, norm_sq), detail={"t": t})
    return [identity, bound]


def check_2to2_bound(W, H: OperatorMatrix, cp: ControlPair, t: float) -> LedgerRow:
    """Semigroup operator-norm bound on the q > 1 route (F1 identically 1):

        ||W P_t||_{2->2} <= F2(t)^{1/(2q)} ||W||_{mu, 2q}.
    """
    if cp.q <= 1:
        raise ValueError("the 2->2 semigroup route is the q > 1 path")
    W = _field(W, H.vertices, H.rank)
    lhs = float(singular_values(H, W.blocks, _semigroup_g(t), 1)[0])
    rhs = cp.F2(t) ** (1.0 / (2.0 * cp.q)) * lq_norm(W.norms(), 2 * cp.q, H.rho)
    return LedgerRow("step2-semigroup-norm-bound", lhs, rhs,
                     tol=1e-10 * max(1.0, rhs), detail={"t": t, "q": cp.q})


def check_resolvent_bound(W, H: OperatorMatrix, cp: ControlPair, a: float) -> LedgerRow:
    """Resolvent operator-norm bound on the q > 1 route:

        sigma_1(W (H + a)^{-1}) <= ||W||_{mu, 2q} * integral of
        e^{-a t} F2(t)^{1/(2q)} dt  (quadrature value).
    """
    if cp.q <= 1:
        raise ValueError("the resolvent norm route is the q > 1 path")
    W = _field(W, H.vertices, H.rank)
    (top, _, _), = resolvent_singular_values(H, [W.blocks], a, [1])
    lhs = float(top[0])
    quad = laplace_weight_integral(cp.F2, cp.q, a)
    rhs = lq_norm(W.norms(), 2 * cp.q, H.rho) * quad
    return LedgerRow("step3-resolvent-norm-bound", lhs, rhs,
                     tol=1e-10 * max(1.0, rhs),
                     detail={"a": a, "q": cp.q, "quadrature_integral": quad})


def sup_kernel_on(k: HeatKernel, U, t: float) -> float:
    """C_U(t) = sup over x in U, all y, of p(t, x, y)."""
    U = set(U)
    idx = [i for i, v in enumerate(k.vertices) if v in U]
    if not idx:
        return 0.0
    return float(np.max(np.real(k.at(t))[idx, :]))


def estimate_2a_norm(k: HeatKernel, U, t: float, alpha: float,
                     rng: np.random.Generator, restarts: int = 20,
                     iters: int = 200) -> float:
    """Lower-bound estimate of ||1_U P_t||_{2 -> alpha} by projected
    gradient ascent on the unit sphere of the weighted L^2 space.

    The kernel has nonnegative entries, so nonnegative maximizers suffice.
    """
    if alpha <= 2:
        raise ValueError("alpha must exceed 2")
    U = set(U)
    idx = np.array([v in U for v in k.vertices])
    if not idx.any():
        return 0.0
    rho = k.rho
    B = np.real(k.at(t)) * rho[None, :]
    B[~idx, :] = 0.0

    def value_grad(f):
        u = B @ f
        au = np.abs(u)
        phi = float(np.sum(rho * au ** alpha) ** (1.0 / alpha))
        if phi == 0.0:
            return 0.0, np.zeros_like(f)
        grad = phi ** (1 - alpha) * (B.T @ (rho * au ** (alpha - 1) * np.sign(u)))
        return phi, grad

    best = 0.0
    n = len(rho)
    for _ in range(restarts):
        f = np.abs(rng.standard_normal(n))
        f /= np.sqrt(np.sum(rho * f ** 2))
        val, grad = value_grad(f)
        step = 1.0
        for _ in range(iters):
            cand = np.clip(f + step * grad, 0.0, None)
            nrm = np.sqrt(np.sum(rho * cand ** 2))
            if nrm == 0.0:
                break
            cand /= nrm
            cval, cgrad = value_grad(cand)
            if cval > val + 1e-15:
                f, val, grad = cand, cval, cgrad
                step *= 1.3
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        best = max(best, val)
    return best


def check_2a_bound(U, k: HeatKernel, t: float, alpha: float,
                   rng: np.random.Generator) -> LedgerRow:
    """One-sided smoothing check: ascent lower bound on ||1_U P_t||_{2->alpha}
    against the upper bound C_U(t)^((alpha-2)/(2 alpha))."""
    cu = sup_kernel_on(k, U, t)
    lower = estimate_2a_norm(k, U, t, alpha, rng)
    rhs = cu ** ((alpha - 2.0) / (2.0 * alpha)) if cu > 0 else 0.0
    return LedgerRow("two-to-alpha-bound", lower, rhs, tol=ASCENT_TOL,
                     detail={"t": t, "alpha": alpha, "C_U": cu,
                             "subset_size": len(set(U))})


def check_domination(H_cov: OperatorMatrix, H_scal: OperatorMatrix,
                     times, a_values, trials: int,
                     rng: np.random.Generator) -> list[LedgerRow]:
    """Kato domination of the scalar operator by the bundle operator:

    (i)  |e^{-t T} f(x)| <= (e^{-t S} |f|)(x)   pointwise,
    (ii) |(T + a)^{-1} f(x)| <= ((S + a)^{-1} |f|)(x)  pointwise,

    plus the spectral consequence lambda_min(T) >= lambda_min(S).
    Sections tested: every fiber-coordinate basis section and `trials`
    random complex sections; worst_at is the first largest gap.

    The covariant g(T) is read one vertex row block at a time
    (`operators.spectral_rows`), and each section keeps a running maximum
    of its gap over the blocks: besides the scalar g(S), which is whole,
    U, U* and one row block of g(T) are live, never the whole of g(T)."""
    if H_cov.vertices != H_scal.vertices:
        raise ValueError("operators live over different vertex sets")
    if H_scal.rank != 1:
        raise ValueError("the dominated operator must be scalar")
    d = H_cov.rank
    n = len(H_cov.vertices)
    randoms = np.array([rng.standard_normal(n * d) + 1j * rng.standard_normal(n * d)
                        for _ in range(trials)], dtype=complex).reshape(trials, n * d).T
    abs_randoms = _block_norms(randoms, n, d)
    rows = []
    for name, key, params, g_of in (("kato-domination-semigroup", "t", times, _semigroup_g),
                                    ("kato-domination-resolvent", "a", a_values, _resolvent_g)):
        worst, worst_at = -np.inf, None
        for p in params:
            g = g_of(p)
            blocks = spectral_rows(H_cov, g)
            op_scal = np.real(spectral_function(H_scal, g))
            rhs_randoms = op_scal @ abs_randoms
            # gaps of the basis sections, then of the random ones
            gaps = np.full(n * d + trials, -np.inf)
            for vs, block in blocks:
                # basis section j is the indicator of vertex j // d, so its
                # images are column j of g(T) and column j // d of g(S)
                nb = vs.stop - vs.start
                basis = _block_norms(block, nb, d) - np.repeat(op_scal[vs], d, axis=1)
                random = _block_norms(block @ randoms, nb, d) - rhs_randoms[vs]
                np.maximum(gaps, np.concatenate([np.max(basis, axis=0),
                                                 np.max(random, axis=0)]), out=gaps)
            si = int(np.argmax(gaps))
            if gaps[si] > worst:
                worst, worst_at = float(gaps[si]), {key: p, "section": si}
        rows.append(LedgerRow(name, worst, 0.0, tol=DOMINATION_TOL,
                              detail={"worst_at": worst_at}))
    rows.append(LedgerRow("kato-spectral-ordering",
                          H_scal.lambda_min(), H_cov.lambda_min(),
                          tol=DOMINATION_TOL))
    return rows


def _block_norms(block: np.ndarray, n: int, d: int) -> np.ndarray:
    """Per-vertex fiber norms of each column: (n d, m) -> (n, m)."""
    return np.sqrt(np.sum(np.abs(block.reshape(n, d, -1)) ** 2, axis=1))


@dataclass(frozen=True)
class PotentialDecomposition:
    """W = W1 + W2 as fields over the host's vertices, in its order, with
    the membership certificate the bounds need: the F1-weighted L^{2q}
    norm of |W1|."""

    W: EndomorphismField
    W1: EndomorphismField
    W2: EndomorphismField
    q: float
    w1_l2q_f1: float

    @staticmethod
    def build(W, W1, W2, cp: ControlPair, g: WeightedGraph) -> "PotentialDecomposition":
        W = _field(W, g.vertices)
        W1, W2 = (_field(X, g.vertices, W.rank) for X in (W1, W2))
        bad = np.max(np.abs(W.blocks - W1.blocks - W2.blocks), axis=(1, 2)) > 1e-12
        if bad.any():
            raise ValueError(f"W1 + W2 != W at {g.vertices[int(np.argmax(bad))]}")
        norm = lq_norm(W1.norms(), 2 * cp.q, cp.F1 * g.rho_vec)
        return PotentialDecomposition(W, W1, W2, cp.q, norm)


@dataclass
class CompactnessReport:
    a: float
    levels: list[int]                       # scalar dimension per level
    # per level: the top min(top_k, dim) sigma of W R, zero past supp W
    singular_values: dict[int, list[float]]
    hs_norms: dict[int, float]              # per level: ||W R||_HS
    support_columns: dict[int, int]         # per level: |supp W| rank
    top_k: int
    drift: dict[str, float]                 # per transition: max top-k drift
    bounds: list[LedgerRow]
    verdict: str

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "levels": self.levels,
            "singular_values": {str(k): v for k, v in self.singular_values.items()},
            "hs_norms": {str(k): v for k, v in self.hs_norms.items()},
            "support_columns": {str(k): v for k, v in self.support_columns.items()},
            "top_k": self.top_k,
            "drift": self.drift,
            "bounds": [r.to_dict() for r in self.bounds],
            "verdict": self.verdict,
        }


def laplace_weight_integral(F2: F2Family, q: float, a: float,
                            time_scale: float = 1.0) -> float:
    """integral of e^{-a t} F2(time_scale * t)^{1/(2q)} dt, by the
    quadrature of the integrability checker after substituting
    u = time_scale * t; a > 0."""
    if a <= 0:
        raise ValueError("resolvent shift must be positive")
    if F2.singular_exponent() / (2.0 * q) >= 1.0:
        raise ValueError("integral diverges at t = 0")
    return _quad_f2(F2, q, a / time_scale)[0] / time_scale


def certify_compactness(pd: PotentialDecomposition, H: OperatorMatrix,
                        cp: ControlPair, ex: Exhaustion, a: float,
                        k_top: int = 5) -> CompactnessReport:
    """Per exhaustion level: the top k_top singular values of
    W (H|_level + a)^{-1}, its HS norm and support columns, the resolvent
    operator-norm bound with its quadrature constant, and level-to-level
    drift of the top singular values. Each level is an array of vertex
    positions in H's order (`graph.Exhaustion`): W and W1 are put in that
    order once, and a level slices them. H is checked PSD once
    (`dirichlet_restriction`); no level is diagonalised. The numbers of
    W R, and sigma_1 of W1 R, come from one solve per level over the union
    of their supports (`operators.resolvent_singular_values`): block
    subspace iteration on (A + a)^{-1} W* over the support of each, with
    no dense SVD. k_top must be at least 1."""
    if k_top < 1:
        raise ValueError(f"k_top must be at least 1, got {k_top}")
    verdict_fail = None
    integrability = check_integrability(cp.F2, cp.q)
    if not integrability.convergent:
        raise ValueError(f"control pair not integrable: {integrability.reason}")
    bounds: list[LedgerRow] = []
    singular: dict[int, list[float]] = {}
    hs_norms: dict[int, float] = {}
    support_columns: dict[int, int] = {}
    dims: list[int] = []
    top_lists: list[np.ndarray] = []
    # the quantitative resolvent bound: q = 1 uses the HS route with
    # F2(2t) (stated for a >= 2), q > 1 the 2->2 route with F2(t) (a >= 1)
    if cp.q == 1:
        quad_value = laplace_weight_integral(cp.F2, cp.q, a, time_scale=2.0)
        bound_name = "step1-resolvent-hs-bound"
        quantitative = a >= 2
    else:
        quad_value = laplace_weight_integral(cp.F2, cp.q, a, time_scale=1.0)
        bound_name = "step3-resolvent-norm-bound"
        quantitative = a >= 1
    rhs = pd.w1_l2q_f1 * quad_value
    W, W1 = (_field(X, H.vertices, H.rank).blocks for X in (pd.W, pd.W1))
    for lv in ex.levels:
        Hn = dirichlet_restriction(H, lv)
        (sv, hs, columns), (sv1, _, _) = resolvent_singular_values(
            Hn, [W[lv], W1[lv]], a, [k_top, 1])
        singular[Hn.dim] = [float(x) for x in sv]
        hs_norms[Hn.dim] = hs
        support_columns[Hn.dim] = columns
        dims.append(Hn.dim)
        top_lists.append(sv)
        sigma1 = float(sv1[0])
        row = LedgerRow(bound_name, sigma1, rhs, tol=1e-10,
                        detail={"level_dim": Hn.dim, "a": a,
                                "quadrature_integral": quad_value,
                                "quantitative": quantitative})
        if not quantitative:
            row.detail["note"] = ("bound stated by the resolvent route only for "
                                  "larger shifts; row is informational here")
        bounds.append(row)
        if quantitative and not row.ok and verdict_fail is None:
            verdict_fail = bound_name
    drift = {}
    for i, (sa, sb) in enumerate(zip(top_lists, top_lists[1:])):
        m = min(len(sa), len(sb))
        drift[f"{dims[i]}->{dims[i+1]}"] = float(np.max(np.abs(sb[:m] - sa[:m])))
    verdict = "hypotheses-verified" if verdict_fail is None else f"hypothesis-failed:{verdict_fail}"
    return CompactnessReport(a, dims, singular, hs_norms, support_columns, k_top, drift,
                             bounds, verdict)

