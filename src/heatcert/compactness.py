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
    _edge_blocks,
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
# the rounding allowance of a Kato margin, in units of u = 2^-53 times the
# sizes of its two sides (`_kato_excess`)
KATO_ROUNDING = 64
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
    T = H_cov and S = H_scal, both PSD, over the same vertex weights, with
    no positive off-diagonal entry in S (else ValueError).

    Criterion. With A the symmetrized matrix and herm its Hermitian part,
    (i) holds for every t >= 0, and (ii) for every a > 0, exactly when
    ||herm(A_T)_xy||_2 <= |(A_S)_xy| for every pair x != y and
    herm(A_T)_xx >= (A_S)_xx I at every vertex (Simon 1977; Hess, Schrader
    & Uhlenbrock 1977). Sufficiency is by Trotter: the semigroups of the
    diagonal and of the off-diagonal part of T are each dominated by those
    of S, and so is their product; (ii) is the Laplace transform of (i).
    Necessity is the first order of e^{-tA} in t. `_kato_excess` takes the
    blocks (`operators._edge_blocks`, read once and shared with the gauge)
    and their margins, by which each block misses the criterion, in
    O(|E| d^3) and with no spectral work on T. Each margin loses a rounding
    allowance k u (||B||_2 + |c|), clamped at 0, for B the block of T, c
    the entry of S, u = 2^-53 and k = KATO_ROUNDING = 64, derived there;
    what is left is its excess.

    Rows. T~, T with each off-diagonal block shrunk by its excess and each
    diagonal block lifted by its excess, meets the criterion to within the
    allowances, which rounding cannot resolve, and
    ||herm(A_T) - herm(A_T~)||_2 <= eta, the Schur test of the excesses.
    So the gap of any section of unit coordinate norm is at most
    max t eta sqrt(max rho / min rho) for (i), by Duhamel, and at most
    eta / min a^2 sqrt(max rho / min rho) for (ii), by the resolvent
    identity. The two rows carry route "blockwise", eta, the largest raw
    margin (signed; > 0 where a block misses the criterion before the
    allowance) and worst_at, the parameter of the bound.

    Ordering row, lhs lambda_min(S). Its rhs is lambda_min(S) - eta_g
    (Weyl) when T is a gauge of S x I_d to eta_g <= DOMINATION_TOL
    (`_gauge_distance`), with route "gauge" and eta_g in its detail, and
    lambda_min(T) from `np.linalg.eigvalsh` otherwise. No eigenvector of T
    is formed.

    `trials` and `rng` have no effect: the criterion is exact, and no
    section is sampled."""
    if H_cov.vertices != H_scal.vertices:
        raise ValueError("operators live over different vertex sets")
    if H_scal.rank != 1:
        raise ValueError("the dominated operator must be scalar")
    if not np.array_equal(H_cov.rho, H_scal.rho):
        raise ValueError("operators live over different vertex weights")
    positive = H_scal.matrix > 0
    np.fill_diagonal(positive, False)
    if positive.any():
        raise ValueError("the scalar operator has a positive off-diagonal entry, "
                         "so e^{-tS} is not positive")
    for t in times:
        _semigroup_g(t)
    for a in a_values:
        _resolvent_g(a)
    require_psd(H_scal)
    edges = _edge_blocks(H_cov)
    eta, margin = _kato_excess(edges, H_scal)
    lam = H_scal.lambda_min()
    eta_g = _gauge_distance(H_cov, H_scal, edges)
    if eta_g is not None and eta_g <= DOMINATION_TOL:
        require_psd(H_cov)
        ordering = LedgerRow("kato-spectral-ordering", lam, lam - eta_g, tol=DOMINATION_TOL,
                             detail={"route": "gauge", "eta": eta_g})
    else:
        lam_cov = float(np.linalg.eigvalsh(H_cov.hermitian())[0])
        require_psd(H_cov, lam_cov)
        ordering = LedgerRow("kato-spectral-ordering", lam, lam_cov, tol=DOMINATION_TOL)
    spread = float(np.sqrt(np.max(H_scal.rho) / np.min(H_scal.rho)))
    t, a = max(times), min(a_values)
    detail = {"route": "blockwise", "eta": eta, "margin": margin}
    return [LedgerRow("kato-domination-semigroup", t * eta * spread, 0.0,
                      tol=DOMINATION_TOL, detail={**detail, "worst_at": {"t": t}}),
            LedgerRow("kato-domination-resolvent", eta / a ** 2 * spread, 0.0,
                      tol=DOMINATION_TOL, detail={**detail, "worst_at": {"a": a}}),
            ordering]


def _kato_excess(edges, H_scal: OperatorMatrix) -> tuple[float, float]:
    """(eta, margin) of `check_domination`'s criterion, for edges the
    `operators._edge_blocks` of T. The margin of a pair x != y of T's edge
    pattern is ||B||_2 - |c|, for B = herm(A_T)_xy by `bundle.block_norms`
    and c = (A_S)_xy; that of a vertex x is c - lambda_min(B), for
    B = herm(A_T)_xx by a batched eigvalsh and c = (A_S)_xx. A pair outside T's pattern has margin -|c| <= 0. margin
    is the largest of them, and eta the Schur test (the square root of the
    largest row sum times the largest column sum) of the excesses
    max(0, margin - k u (||B||_2 + |c|)), u = 2^-53 and k = KATO_ROUNDING.

    The allowance k u (||B|| + |c|) bounds what rounding puts into a margin
    that is 0 in exact arithmetic, to first order in u, at ranks
    d <= MAX_RANK = 8 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.1 and 3.5): the stored maps are rounded unitary
    matrices and T's entries rounded products b / rho phi, at most
    2 sqrt(d) u ||B|| in the 2-norm; r = sqrt(rho_x) / sqrt(rho_y), the two
    scaled entries and their mean take 5 roundings per entry, at most
    5 sqrt(d) u ||B|| for B (the entrywise bound, through the Frobenius
    norm) and 5 u |c| for c; `block_norms` is one rounding at d = 1, a few
    at d = 2, and at d >= 3 a Gram product B*B, off by gamma_d |B|*|B|,
    at most d^2 u ||B||^2 in the 2-norm, whose eigvalsh, taken as backward
    stable with error d u ||B*B||, and square root add (d^2 + d) u / 2 + u
    relative; the difference is one more. At d = 8 that is
    (5.7 + 14.1 + 37 + 1) u ||B|| + 5 u |c|, within k = 64. A vertex block
    takes its sums, the mean and eigvalsh, at most (d + 2) u ||B||. A margin
    within its allowance cannot be told from 0 in floating point; past
    rank 8 the allowance may fall short of the rounding, which can only
    leave a small positive eta."""
    x, y, ratio, _, blocks, diag = edges
    S, n = H_scal.matrix, len(H_scal.vertices)
    unit = KATO_ROUNDING * np.finfo(float).eps / 2
    norms = block_norms(blocks)
    c = -0.5 * (S[x, y] * ratio + S[y, x] / ratio)  # |(A_S)_xy|, as S_xy <= 0
    off = norms - c
    off_excess = np.clip(off - unit * (norms + c), 0.0, None)
    lam = np.linalg.eigvalsh(diag)
    c_diag = np.diagonal(S)
    on = c_diag - lam[:, 0]
    on_excess = np.clip(on - unit * (np.max(np.abs(lam), axis=1) + np.abs(c_diag)), 0.0, None)
    rows = np.bincount(x, off_excess, minlength=n) + on_excess
    cols = np.bincount(y, off_excess, minlength=n) + on_excess
    eta = float(np.sqrt(np.max(rows) * np.max(cols)))
    return eta, float(max(np.max(off, initial=-np.inf), np.max(on)))


def _gauge_distance(H_cov: OperatorMatrix, H_scal: OperatorMatrix,
                    edges) -> float | None:
    """A bound on ||herm(A_T) - G (herm(A_S) x I_d) G*||_2 for T = H_cov,
    S = H_scal over T's vertex weights, and the gauge G of
    `operators.scalar_gauge`, given edges, T's `_edge_blocks`: its eta plus
    the Schur test on |A_S' - A_S|, for S' the scalar operator read from T.
    None for T real of rank 1, which has no gauge."""
    gauge = scalar_gauge(H_cov, edges)
    if gauge is None:
        return None
    S_read, _, eta = gauge
    diff = S_read.matrix - H_scal.matrix  # S' stays as cached with T
    np.abs(diff, out=diff)
    s = np.sqrt(H_scal.rho)
    rows, cols = s * (diff @ (1.0 / s)), (s @ diff) / s
    return eta + float(np.sqrt(np.max(rows) * np.max(cols)))


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
