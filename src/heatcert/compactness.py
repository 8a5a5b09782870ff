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

from .bundle import EndomorphismField, block_norms
from .control import ControlPair, F2Family, _quad_f2, laplace_rule
from .graph import Exhaustion, lq_norm
from .heat import HeatKernel
from .operators import (
    OperatorMatrix,
    _hermitian_rows,
    _resolvent_g,
    _semigroup_g,
    _symmetrize,
    dirichlet_restriction,
    require_psd,
    resolvent_singular_values,
    scalar_gauge,
    singular_values,
    spectral_function,
)

HS_IDENTITY_RTOL = 1e-8
DOMINATION_TOL = 1e-9
# the resolvent row's tolerance in `certify_compactness`, and the most its
# gauge route may move a singular value
RESOLVENT_TOL = 1e-10
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


def _field(W, vertices, rank: int) -> EndomorphismField:
    """W at the given vertices, in their order, checked to be of the given
    rank. The checks also take a map vertex -> real number w, which is the
    rank-1 field w(x)."""
    if isinstance(W, dict):
        W = EndomorphismField.scalar(W)
    if W.rank != rank:
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
    """Resolvent operator-norm bound on the q > 1 route, the row that
    `certify_compactness` asserts per level (`_resolvent_row`):

        sigma_1(W (H + a)^{-1}) <= ||W||_{mu, 2q} * integral of
        e^{-a t} F2(t)^{1/(2q)} dt  (quadrature value).
    """
    if cp.q <= 1:
        raise ValueError("the resolvent norm route is the q > 1 path")
    W = _field(W, H.vertices, H.rank)
    name, rhs, quad = _resolvent_row(W.norms(), H.rho, cp, a)
    (top, _, _), = resolvent_singular_values(H, [W.blocks], a, [1])
    return LedgerRow(name, float(top[0]), rhs, tol=1e-10 * max(1.0, rhs),
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

    plus the spectral consequence lambda_min(T) >= lambda_min(S), for
    T = H_cov and S = H_scal, both PSD.

    Gauge route. When T is, up to eta, a unitary gauge of S x I_d
    (`_gauge_distance`), (i) and (ii) hold with equality for
    T' = G (S x I_d) G*, and the rows are derived, with no spectral work
    on T: ||e^{-tT} - e^{-tT'}|| <= t eta (Duhamel) and
    ||(T + a)^{-1} - (T' + a)^{-1}|| <= eta / a^2 (the resolvent identity)
    in the weighted norm, so the gap of any section of unit coordinate norm
    is at most max t eta sqrt(max rho / min rho), and at most
    eta / min a^2 sqrt(max rho / min rho); and lambda_min(T) >=
    lambda_min(S) - eta (Weyl). The route is taken when all three derived
    rows pass at DOMINATION_TOL; its rows carry the route and eta.

    Numeric route, otherwise. By the same principle, (i) holds for every
    section exactly when ||[e^{-tT}]_xy||_2 <= [e^{-tS}]_xy for every pair
    of vertices x, y, with [.]_xy the d x d block of the coordinate matrix,
    and (ii) likewise. So each row's lhs is the largest block gap
    ||[g(T)]_xy||_2 - [g(S)]_xy over the pairs and the parameters: the sup
    over every section supported at one vertex, of unit fiber norm, of its
    largest fiber gap, whatever the fiber frame. In symmetrized coordinates
    g(A) = U g(Lambda) U* is Hermitian, and [g(T)]_xy is
    sqrt(rho_y / rho_x) [g(A)]_xy, so one norm of the upper block triangle
    of g(A) (`operators._hermitian_rows`, `bundle.block_norms`) gives the
    gaps at (x, y) and at (y, x). `trials` random complex sections,
    applied through the eigenbasis as D^{-1/2} U g(Lambda) (U* D^{1/2} R),
    add their largest fiber gaps. worst_at is {t or a, x, y}, the first
    largest block gap in row-major order (x, y vertex ids), or
    {t or a, section}, the index of a random section whose gap exceeds
    every block's. Besides the scalar g(S), which is whole, U, U* and one
    row block of g(A) are live, never the whole of g(T)."""
    if H_cov.vertices != H_scal.vertices:
        raise ValueError("operators live over different vertex sets")
    if H_scal.rank != 1:
        raise ValueError("the dominated operator must be scalar")
    eta = _gauge_distance(H_cov, H_scal)
    if eta is not None:
        rows = _derived_domination(H_cov, H_scal, times, a_values, eta)
        if all(r.ok for r in rows):
            return rows
    d = H_cov.rank
    n = len(H_cov.vertices)
    randoms = np.array([rng.standard_normal(n * d) + 1j * rng.standard_normal(n * d)
                        for _ in range(trials)], dtype=complex).reshape(trials, n * d).T
    abs_randoms = _section_norms(randoms, n, d)
    triangle = _hermitian_rows(H_cov)
    lam, u = H_cov.eigh()
    sw = np.sqrt(H_cov.measure_weights())
    coeffs = (u.T @ (sw[:, None] * randoms).conj()).conj()  # U* D^{1/2} R, with no copy of U*
    s = np.sqrt(H_cov.rho)
    vertices = H_cov.vertices
    rows = []
    for name, key, params, g_of in (("kato-domination-semigroup", "t", times, _semigroup_g),
                                    ("kato-domination-resolvent", "a", a_values, _resolvent_g)):
        worst, worst_at = -np.inf, None
        for p in params:
            g = g_of(p)
            op_scal = np.real(spectral_function(H_scal, g))
            gap, x, y = _block_gap(triangle, g, op_scal, s, n, d)
            if gap > worst:
                worst, worst_at = gap, {key: p, "x": vertices[x], "y": vertices[y]}
            if trials:
                images = randoms if g is None else (u @ (g(lam)[:, None] * coeffs)) / sw[:, None]
                gaps = np.max(_section_norms(images, n, d) - op_scal @ abs_randoms, axis=0)
                k = int(np.argmax(gaps))
                if gaps[k] > worst:
                    worst, worst_at = float(gaps[k]), {key: p, "section": k}
        rows.append(LedgerRow(name, worst, 0.0, tol=DOMINATION_TOL,
                              detail={"worst_at": worst_at}))
    rows.append(LedgerRow("kato-spectral-ordering",
                          H_scal.lambda_min(), H_cov.lambda_min(),
                          tol=DOMINATION_TOL))
    return rows


def _block_gap(triangle, g, op_scal: np.ndarray, s: np.ndarray, n: int, d: int):
    """(gap, x, y): the largest coordinate block gap ||[g(T)]_xy||_2 -
    [g(S)]_xy over all vertex pairs, first in row-major order, from the
    upper block triangle of g(A) (`operators._hermitian_rows`), op_scal the
    coordinate g(S) and s = sqrt(rho). g None is the identity, whose gaps
    are 0."""
    if g is None:
        return 0.0, 0, 0
    found = []  # per block, the first largest gap above and below the diagonal
    for vs, block in triangle(g):
        v, nb = vs.start, vs.stop - vs.start
        norms = block_norms(block.reshape(nb, d, n - v, d).swapaxes(1, 2))
        ratio = s[v:] / s[vs, None]  # sqrt(rho_y / rho_x) at (x, y), y >= x
        upper = norms * ratio
        upper -= op_scal[vs, v:]
        upper[:, :nb][np.tri(nb, k=-1, dtype=bool)] = -np.inf
        lower = norms / ratio  # the gaps at (y, x), transposed
        lower -= op_scal[v:, vs].T
        lower[:, :nb][np.tri(nb, dtype=bool)] = -np.inf
        i, j = np.unravel_index(np.argmax(upper), upper.shape)
        found.append((float(upper[i, j]), v + i, v + j))
        j, i = np.unravel_index(np.argmax(lower.T), lower.T.shape)
        found.append((float(lower[i, j]), v + j, v + i))
    return max(found, key=lambda f: (f[0], -f[1], -f[2]))


def _gauge_distance(H_cov: OperatorMatrix, H_scal: OperatorMatrix) -> float | None:
    """A bound on ||herm(A_T) - G (herm(A_S) x I_d) G*||_2 for T = H_cov,
    S = H_scal and the gauge G of `operators.scalar_gauge`: its eta plus
    the Schur test on |A_S' - A_S|, for S' the scalar operator read from T.
    None when no gauge applies: T real of rank 1, T and S on different
    vertex weights, or an off-diagonal entry of S above zero, where e^{-tS}
    is not positive and the gauge's equality does not hold."""
    if not np.array_equal(H_cov.rho, H_scal.rho):
        return None
    positive = H_scal.matrix > 0
    np.fill_diagonal(positive, False)
    gauge = None if positive.any() else scalar_gauge(H_cov)
    if gauge is None:
        return None
    S_read, _, eta = gauge
    diff = S_read.matrix - H_scal.matrix  # S' stays as cached with T
    np.abs(diff, out=diff)
    s = np.sqrt(H_scal.rho)
    rows, cols = s * (diff @ (1.0 / s)), (s @ diff) / s
    return eta + float(np.sqrt(np.max(rows) * np.max(cols)))


def _derived_domination(H_cov: OperatorMatrix, H_scal: OperatorMatrix,
                        times, a_values, eta: float) -> list[LedgerRow]:
    """The three Kato rows of the gauge route (`check_domination`) at
    distance eta; T and S are checked PSD, and S is diagonalised, T not.
    A negative time or a shift a <= 0 raises, as on the numeric route."""
    for t in times:
        _semigroup_g(t)
    for a in a_values:
        _resolvent_g(a)
    require_psd(H_cov)
    require_psd(H_scal)
    spread = float(np.sqrt(np.max(H_scal.rho) / np.min(H_scal.rho)))
    t, a = max(times), min(a_values)
    detail = {"route": "gauge", "eta": eta}
    lam = H_scal.lambda_min()
    return [LedgerRow("kato-domination-semigroup", t * eta * spread, 0.0,
                      tol=DOMINATION_TOL, detail={**detail, "worst_at": {"t": t}}),
            LedgerRow("kato-domination-resolvent", eta / a ** 2 * spread, 0.0,
                      tol=DOMINATION_TOL, detail={**detail, "worst_at": {"a": a}}),
            LedgerRow("kato-spectral-ordering", lam, lam - eta,
                      tol=DOMINATION_TOL, detail=detail)]


def _section_norms(block: np.ndarray, n: int, d: int) -> np.ndarray:
    """Per-vertex fiber norms of each column: (n d, m) -> (n, m)."""
    return np.sqrt(np.sum(np.abs(block.reshape(n, d, -1)) ** 2, axis=1))


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
    u = time_scale * t; a > 0, and the endpoint exponent gamma / (2q) of
    F2 below 1."""
    if a <= 0:
        raise ValueError("resolvent shift must be positive")
    if F2.singular_exponent() / (2.0 * q) >= 1.0:
        raise ValueError("control pair not integrable: endpoint exponent >= 1")
    return _quad_f2(F2, q, a / time_scale)[0] / time_scale


def _resolvent_row(w: np.ndarray, rho: np.ndarray, cp: ControlPair,
                   a: float) -> tuple[str, float, float]:
    """(name, rhs, quadrature integral) of the resolvent row for a potential
    of fiber norms w over vertex weights rho, at any shift a > 0.

    Minkowski gives sigma_1(W R) <= integral of e^{-a t} ||W e^{-tH}|| dt,
    Kato bounds ||W e^{-tH}|| by || |W| e^{-tS} ||, and the control pair
    bounds that by F2(2t)^{1/2} ||W||_{L^2(F1 rho)} on the HS route (q = 1)
    or by F2(t)^{1/(2q)} ||W||_{L^{2q}(rho)} on the 2->2 route (q > 1, where
    F1 = 1)."""
    if cp.q == 1:
        name, time_scale = "step1-resolvent-hs-bound", 2.0
    else:
        name, time_scale = "step3-resolvent-norm-bound", 1.0
    quad = laplace_weight_integral(cp.F2, cp.q, a, time_scale)
    return name, lq_norm(w, 2 * cp.q, cp.F1 * rho) * quad, quad


def certify_compactness(W, W1, H: OperatorMatrix, cp: ControlPair, ex: Exhaustion,
                        a: float, k_top: int = 5) -> CompactnessReport:
    """Per exhaustion level: the top k_top singular values of
    W (H|_level + a)^{-1}, its HS norm and support columns, the resolvent
    row for the part W1 of W (`_resolvent_row`, with the norm of W1 from
    cp), and level-to-level drift of the top singular values. W and W1 are
    fields or vertex -> number maps (`_field`), of H's rank. The row is
    asserted at every level for every a > 0; drift is reported, not
    asserted. Each level is an array of vertex positions in H's order
    (`graph.Exhaustion`): W and W1 are put in that order once, and a level
    slices them. H is checked PSD once, by its construction verdict when it
    has one, and each level inherits it; no level is diagonalised. The
    numbers of W R, and sigma_1 of W1 R, come from one solve per level over
    the union of their supports (`operators.resolvent_singular_values`).
    k_top must be at least 1.

    Gauge route. For H with a connection, `operators.scalar_gauge` gives
    H = G (S x I_d) G* up to eta, which holds on every level as well; then
    sigma_k(W (H + a)^{-1}) is sigma_k(G*WG (S + a)^{-1}) within
    ||W|| eta / a^2, ||W|| the largest fiber norm of W or W1. When that is at
    most RESOLVENT_TOL, the levels are solved on the real S, with W as it is
    at rank 1 and G*WG above. S takes H's PSD verdict by Weyl, so this route
    diagonalises nothing either."""
    if k_top < 1:
        raise ValueError(f"k_top must be at least 1, got {k_top}")
    verdict_fail = None
    bounds: list[LedgerRow] = []
    singular: dict[int, list[float]] = {}
    hs_norms: dict[int, float] = {}
    support_columns: dict[int, int] = {}
    dims: list[int] = []
    top_lists: list[np.ndarray] = []
    W, W1 = (_field(X, H.vertices, H.rank) for X in (W, W1))
    w1_norms = W1.norms()
    bound_name, rhs, quad_value = _resolvent_row(w1_norms, H.rho, cp, a)
    w_sup = max(np.max(W.norms(), initial=0.0), np.max(w1_norms, initial=0.0))
    W, W1, rank = W.blocks, W1.blocks, H.rank
    require_psd(H)
    gauge = scalar_gauge(H)
    if gauge is not None and w_sup * gauge[2] / a ** 2 <= RESOLVENT_TOL:
        H, G = gauge[0], gauge[1]
        if rank > 1:
            gh = G.conj().swapaxes(1, 2)
            W, W1 = gh @ W @ G, gh @ W1 @ G
    else:  # an S left unused goes before the solves, cached or not
        H._cache.pop("gauge", None)
    del gauge
    for lv in ex.levels:
        Hn = dirichlet_restriction(H, lv)
        dim = lv.size * rank
        (sv, hs, columns), (sv1, _, _) = resolvent_singular_values(
            Hn, [W[lv], W1[lv]], a, [k_top, 1])
        singular[dim] = [float(x) for x in sv]
        hs_norms[dim] = hs
        support_columns[dim] = columns
        dims.append(dim)
        top_lists.append(sv)
        bounds.append(LedgerRow(bound_name, float(sv1[0]), rhs, tol=RESOLVENT_TOL,
                                detail={"level_dim": dim, "a": a,
                                        "quadrature_integral": quad_value}))
        if not bounds[-1].ok and verdict_fail is None:
            verdict_fail = bound_name
    drift = {}
    for i, (sa, sb) in enumerate(zip(top_lists, top_lists[1:])):
        m = min(len(sa), len(sb))
        drift[f"{dims[i]}->{dims[i+1]}"] = float(np.max(np.abs(sb[:m] - sa[:m])))
    verdict = "hypotheses-verified" if verdict_fail is None else f"hypothesis-failed:{verdict_fail}"
    return CompactnessReport(a, dims, singular, hs_norms, support_columns, k_top, drift,
                             bounds, verdict)
