"""Self-adjoint operators on weighted graphs, scalar and bundle-valued.

Every operator H here lives in the weighted inner product
<f, h> = sum_x (f(x), h(x)) rho(x). f -> D^{1/2} f, for D the diagonal of
the vertex weights rho repeated per fiber dimension, maps it unitarily onto
the plain one and carries H to A = D^{1/2} H D^{-1/2}. The matrix stored is
A: Hermitian, exactly so for every assembled operator, and read as it is by
all spectral work. Functions g(H) and heat kernels are returned as they act
on coordinate vectors.

Scalar operators (no connection) are real float64 matrices, so their
spectral work runs in real arithmetic; covariant operators are complex.
Functions of H keep the dtype of H, and mixing with a complex operator
upcasts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bundle import EndomorphismField, UnitaryConnection, block_norms
from .graph import Exhaustion, WeightedGraph, _positions, validate_graph

PSD_TOL = 1e-10
# dense bytes of one row block of the heat kernel checks and `_kernel_slices`
ROW_BLOCK_BYTES = 1 << 20
# `_top_singular_values`: block columns past the k values it returns, the
# sweep cap past which the dense SVD decides, and the stopping rule (every
# top-k Ritz residual ||X*X z - sigma^2 z|| at most this times sigma_1^2)
SUBSPACE_GUARD = 4
SUBSPACE_SWEEPS = 50
SUBSPACE_RTOL = 1e-13
# `_top_singular_values`: the degree of the Chebyshev filter applied per
# sweep, one product x* (x U) per degree; on the bundle-certify adjoints no
# degree up to 8 was faster
CHEBYSHEV_DEGREE = 4
# `_top_singular_values`: up to this many columns the dense SVD is cheaper
# than the filtered iteration (on bundle-certify adjoints the dense SVD won
# at 40-100 columns, and the iteration on those of 154-160)
SVD_DENSE_COLUMNS = 128


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense operator H over (vertices x fiber dims) with its vertex
    weights rho, one per vertex in vertex order; `matrix` holds
    A = D^{1/2} H D^{-1/2} (module docstring)."""

    matrix: np.ndarray
    vertices: tuple[str, ...]
    rank: int
    rho: np.ndarray
    # scalar-laplacian | covariant | dirichlet-restriction | sum | scalar-gauge
    kind: str
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def measure_weights(self) -> np.ndarray:
        """Weight per scalar index (vertex weight repeated rank times)."""
        return np.repeat(self.rho, self.rank)

    def eigh(self):
        """Eigendecomposition of the matrix, cached."""
        if "eigh" not in self._cache:
            self._cache["eigh"] = np.linalg.eigh(self.matrix)
        return self._cache["eigh"]

    def release_eigh(self):
        """Free the cached eigendecomposition and keep its PSD verdict:
        `require_psd` decides first by its lambda_min (and raises for a
        non-PSD operator), then the cache holds "psd" and no eigenbasis, so
        later checks need no eigh."""
        require_psd(self)
        self._cache.pop("eigh", None)
        self._cache["psd"] = True

    def lambda_min(self) -> float:
        return float(self.eigh()[0][0])


def require_psd(op: OperatorMatrix, lam: float | None = None):
    """Raise unless lambda_min >= -PSD_TOL, so that e^{-tH} contracts.

    A given lam, op's lambda_min found by the caller, decides. Else a cached
    eigendecomposition decides by its lambda_min. Without one, a
    verdict "psd" recorded at construction stands: `_assemble` records it,
    since validated b >= 0 and rho > 0, and a unitary phi, make the form
    sum b |f(x) - phi(y, x) f(y)|^2 nonnegative; `add_potential` and
    `dirichlet_restriction` pass it on. Otherwise (an operator built by
    hand, or a potential with a negative block) `eigh` decides. The
    consumers of spectral work call it, not construction."""
    if lam is None:
        if "eigh" not in op._cache and op._cache.get("psd"):
            return
        lam = op.lambda_min()
    if lam < -PSD_TOL:
        raise ValueError(f"{op.kind} operator not PSD: lambda_min = {lam}")


def _flush_subnormals(x: np.ndarray) -> np.ndarray:
    """Zero, in place, each real and imaginary part of x below the smallest
    normal float in magnitude, and return x; a complex x must be
    F-contiguous or contiguous along its last axis. A product operand with
    subnormal entries slows the GEMM several times over. The flush moves an
    entry of a product x B by at most tiny times the l1 norm of a column of
    B (n tiny for B = U*), and each singular value of an N x m matrix x by
    at most sqrt(2 N m) tiny (Weyl)."""
    tiny = np.finfo(float).tiny
    # both parts in one pass, as float64 over x's memory in its own order
    parts = (x.T if x.flags.f_contiguous else x).view(np.float64)
    parts[(parts > -tiny) & (parts < tiny)] = 0.0
    return x


def _assemble(g: WeightedGraph, rank: int, connection, kind: str) -> OperatorMatrix:
    """The block operator H with diagonal deg(x)/rho(x) Id and off-diagonal
    -(b(x,y)/rho(x)) phi(y, x), for phi(y, x) the connection's `back` at
    (src, dst) and its `phi` at (dst, src), real rank-1 identity blocks when
    connection is None; stored as A (module docstring). Each diagonal entry
    sums b(x,y)/rho(x) over the edges at x in b order. The (src, dst) block
    of A is -b / sqrt(rho_src rho_dst) B, for B = (back + phi*) / 2, and the
    (dst, src) block is its adjoint, so A is exactly Hermitian. The graph is
    validated, so the operator starts with the PSD verdict "psd" in its
    cache (`require_psd`)."""
    report = validate_graph(g)
    if not report.ok:
        raise ValueError(f"invalid graph: {report.violations}")
    n, d, rho = g.n, rank, g.rho_vec
    if connection is None:
        B = np.ones((g.src.size, 1, 1))
    else:
        B = 0.5 * (connection.back + connection.phi.conj().swapaxes(1, 2))
    B *= -(g.w / np.sqrt(rho[g.src] * rho[g.dst]))[:, None, None]
    m = np.zeros((n * d, n * d), dtype=B.dtype)
    m.reshape(n, d, n, d)[g.src, :, g.dst, :] = B
    m.reshape(n, d, n, d)[g.dst, :, g.src, :] = B.conj().swapaxes(1, 2)
    # the row vertex of both orientations of every edge, per edge src then dst
    x = np.stack([g.src, g.dst], axis=1).ravel()
    diag = np.arange(n * d)
    m[diag, diag] = np.repeat(np.bincount(x, np.repeat(g.w, 2) / rho[x], minlength=n), d)
    return OperatorMatrix(m, g.vertices, d, rho, kind, {"psd": True})


def assemble_laplacian(g: WeightedGraph) -> OperatorMatrix:
    """H[x,x] = deg(x)/rho(x), H[x,y] = -b(x,y)/rho(x), stored as A with
    A[x,y] = -b(x,y)/sqrt(rho(x) rho(y)); PSD, constants in kernel."""
    return _assemble(g, 1, None, "scalar-laplacian")


def assemble_covariant(g: WeightedGraph, rank: int,
                       connection: UnitaryConnection) -> OperatorMatrix:
    """Block operator: diagonal deg(x)/rho(x) Id, off-diagonal
    -(b(x,y)/rho(x)) phi(y, x), stored as `_assemble` stores it. Rank 1
    with trivial phi reproduces the scalar Laplacian entrywise. The
    connection's stacks are checked again (`UnitaryConnection.check`), in
    O(|E| d^3), so a stack swapped in after construction is refused and the
    PSD verdict of `_assemble` holds."""
    if connection.rank != rank:
        raise ValueError("connection rank mismatch")
    connection.check()
    return _assemble(g, rank, connection, "covariant")


def add_potential(H: OperatorMatrix, V: EndomorphismField) -> OperatorMatrix:
    """H + V for a pointwise self-adjoint field V: the Hermitian part
    (V(x) + V(x)*) / 2 of each block, added onto the diagonal blocks of a
    copy of H.matrix, so the sum is exactly Hermitian when H is. On a
    finite host the form sum is the matrix sum, since all operators are
    bounded and everywhere defined. The sum keeps H's PSD verdict when every
    added block has lambda_min >= 0; otherwise `require_psd` leaves it to
    `eigh`."""
    if not V.self_adjoint:
        raise ValueError("potential must be pointwise self-adjoint")
    if V.rank != H.rank:
        raise ValueError("potential rank mismatch")
    n, d = len(H.vertices), H.rank
    blocks = V.restrict(H.vertices).blocks
    blocks = 0.5 * (blocks + blocks.conj().swapaxes(1, 2))
    m = H.matrix.astype(np.result_type(H.matrix, blocks))
    m.reshape(n, d, n, d)[np.arange(n), :, np.arange(n), :] += blocks
    psd = H._cache.get("psd") and np.all(np.linalg.eigvalsh(blocks) >= 0)
    return OperatorMatrix(m, H.vertices, d, H.rho, "sum", {"psd": True} if psd else {})


def dirichlet_restriction(H: OperatorMatrix, pos) -> OperatorMatrix:
    """Principal submatrix at the vertex positions pos (fiber blocks
    included), with rho sliced to it. pos holds strictly ascending indices
    into H's vertices, such as an exhaustion level. Diagonal degree terms
    are retained, which is what makes the restriction a Dirichlet (killing)
    boundary condition. A pos holding every vertex of H gives H's own
    matrix and shares its cache.

    The PSD check runs on H (`require_psd`). The level's matrix A is a
    principal submatrix of H's, so by Cauchy interlacing its
    lambda_min is no smaller than H's: the level inherits the verdict, with
    "psd" in its cache, and needs no check of its own."""
    if np.size(pos) == 0:
        raise ValueError("empty Dirichlet subset")
    pos, d = _positions(pos, len(H.vertices)), H.rank
    require_psd(H)
    if pos.size == len(H.vertices):
        sub, cache = H.matrix, H._cache
    else:
        idx = (pos[:, None] * d + np.arange(d)).ravel()
        sub, cache = H.matrix[np.ix_(idx, idx)], {"psd": True}
    vertices = tuple(map(H.vertices.__getitem__, pos.tolist()))
    return OperatorMatrix(sub, vertices, d, H.rho[pos], "dirichlet-restriction", cache)


def _edge_blocks(H: OperatorMatrix):
    """(x, y, blocks, diag): the blocks of A = H.matrix as spectral work
    reads them. x and y index the ordered vertex pairs of the edge pattern,
    the nonzero off-diagonal blocks, ascending in x, found in one boolean
    pass over A (symmetric, as A is Hermitian); blocks holds the blocks A_xy
    of the pairs and diag the n diagonal blocks A_xx. Past the pass, the
    work is O(|E| d^2)."""
    n, d = len(H.vertices), H.rank
    m = H.matrix.reshape(n, d, n, d)
    pattern = (H.matrix != 0).reshape(n, d, n, d).any(axis=(1, 3))
    np.fill_diagonal(pattern, False)
    x, y = np.nonzero(pattern)
    return x, y, m[x, :, y, :], m[np.arange(n), :, np.arange(n), :]


def scalar_gauge(H: OperatorMatrix, edges=None):
    """(S, G, eta) for an operator H of rank d with a connection, or None
    for a real operator of rank 1, which is scalar already:

    - S, the real rank-1 operator read from the blocks of A_H = H.matrix:
      S_xy = -||(A_H)_xy||_2 off the diagonal, the same at (x, y) and
      (y, x), and S_xx = Re tr (A_H)_xx / d;
    - G, a block-diagonal unitary gauge as an (n, d, d) stack;
    - eta >= ||A_H - G (A_S x I_d) G*||_2, for A_S = S.matrix.

    When H carries no holonomy, H = G (S x I_d) G* and eta is round-off: each
    eigenvalue of H is one of S's within eta (Weyl), and (H + a)^{-1} is
    G ((S + a)^{-1} x I_d) G* within eta / a^2 for a > 0. A connection with
    holonomy leaves its defect in eta.

    The blocks come from `_edge_blocks`, or from edges, its tuple for H
    read by the caller; the rest works on its |E| edge blocks.
    G is I at the root of a breadth-first spanning tree of each component,
    and each child c of p takes G_c = Q G_p, for Q the unitary polar factor
    of -(A_H)_cp, which makes the tree blocks of G* A_H G scalar; G is
    then replaced by its polar factors, which are unitary at any depth. eta is
    the Schur test on the blocks of the residual, the diagonal ones
    included: the square root of the largest row sum times the largest
    column sum of their Frobenius norms. S records H's PSD verdict when
    lambda_min(H) - eta >= -PSD_TOL (Weyl), read from H's verdict or its
    cached eigendecomposition and never from a new one. The triple is
    cached with H, as its eigendecomposition is: callers must not write to
    it."""
    n, d = len(H.vertices), H.rank
    if d == 1 and np.isrealobj(H.matrix):
        return None
    if "gauge" in H._cache:
        return H._cache["gauge"]
    x, y, blocks, diag = edges or _edge_blocks(H)
    S = np.zeros((n, n))
    up = x < y
    S[x[up], y[up]] = S[y[up], x[up]] = -block_norms(blocks[up])
    S.flat[::n + 1] = np.trace(diag, axis1=1, axis2=2).real / d
    # breadth-first spanning forest over the pattern; G in tree order
    ptr = np.searchsorted(x, np.arange(n + 1)).tolist()
    nbr = y.tolist()
    seen = [False] * n
    tree = []  # (child, parent, pair index of (parent, child))
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        frontier = [root]
        while frontier:
            reached = []
            for p in frontier:
                for e in range(ptr[p], ptr[p + 1]):
                    c = nbr[e]
                    if not seen[c]:
                        seen[c] = True
                        tree.append((c, p, e))
                        reached.append(c)
            frontier = reached
    G = np.broadcast_to(np.eye(d, dtype=complex), (n, d, d)).copy()
    if tree:
        child, parent, edge = map(list, zip(*tree))
        # (A_H)_cp is the adjoint of the (p, c) block
        u, _, vh = np.linalg.svd(-blocks[edge].conj().swapaxes(1, 2))
        for c, p, q in zip(child, parent, u @ vh):
            G[c] = q @ G[p]
        # the products drift from unitary with the tree depth; their polar
        # factors do not, and they keep each tree relation to round-off
        u, _, vh = np.linalg.svd(G)
        G = u @ vh
    gh = G.conj().swapaxes(1, 2)
    eye = np.eye(d)
    # Frobenius norms: upper bounds on the 2-norms, at a fraction of the cost
    off = np.linalg.norm(gh[x] @ blocks @ G[y] - S[x, y][:, None, None] * eye, axis=(1, 2))
    on = np.linalg.norm(gh @ diag @ G - S.flat[::n + 1][:, None, None] * eye, axis=(1, 2))
    rows = np.bincount(x, off, minlength=n) + on
    cols = np.bincount(y, off, minlength=n) + on
    eta = float(np.sqrt(np.max(rows) * np.max(cols)))
    lam = H.lambda_min() if "eigh" in H._cache else (0.0 if H._cache.get("psd") else None)
    cache = {"psd": True} if lam is not None and lam - eta >= -PSD_TOL else {}
    H._cache["gauge"] = OperatorMatrix(S, H.vertices, 1, H.rho, "scalar-gauge", cache), G, eta
    return H._cache["gauge"]


def _psd_eigh(H: OperatorMatrix):
    """(Lambda, U) of the cached eigendecomposition, after the PSD check that
    it decides: the preamble of every product over the eigenbasis of H."""
    lam, u = H.eigh()
    require_psd(H)
    return lam, u


def _row_step(row_bytes: int) -> int:
    """Rows of row_bytes bytes each that fill one ROW_BLOCK_BYTES block, at
    least one: the block height of the heat kernel checks and slices."""
    return max(1, ROW_BLOCK_BYTES // row_bytes)


def _kernel_slices(H: OperatorMatrix):
    """form(t, out): the heat kernel p(t) = e^{-tH} D^{-1} = F_t F_t* of the
    PSD operator H, F_t = D^{-1/2} U e^{-t Lambda / 2}, written into out (of
    H's shape and dtype) and returned; the times of the calls must ascend.
    F is divided in place of the cached U, which H releases (H keeps its PSD
    verdict, `OperatorMatrix.release_eigh`). Each t scales the live columns
    of F in place by e^{-(t - t') lambda / 2}, t' the previous time, lambda
    clipped as `_semigroup_g` clips it; the live columns, those with
    e^{-t lambda} > 2^-53 e^{-t lambda_0}, are a prefix that never grows
    with t. Subnormals are flushed in row blocks, and out = F_k F_k^T is one
    symmetric product (BLAS syrk, mirrored), exactly symmetric; a complex F
    gives F_k F_k* in row blocks. p(0) is exactly diag(1/rho). Nothing
    n x n is made beyond F and out. Error: the dropped columns move an entry
    by at most 2^-53 e^{-t lambda_0} / sqrt(rho_x rho_y), the rows of U
    having unit norm; each column scale carries one rounding per time, on
    top of that of exp."""
    lam, u = _psd_eigh(H)
    H.release_eigh()
    w = H.measure_weights()
    u /= np.sqrt(w)[:, None]
    dim, step = H.dim, _row_step(H.dim * u.itemsize)
    blocks = [slice(v, v + step) for v in range(0, dim, step)]
    t_prev, k = 0.0, dim

    def form(t, out):
        nonlocal t_prev, k
        if t < t_prev:
            raise ValueError(f"kernel time {t} after {t_prev}: times must ascend")
        if t == 0:
            out.fill(0)
            out.flat[::dim + 1] = 1.0 / w
            return out
        g = _semigroup_g(t)(lam[:k])
        # g[:1] is empty once no column is live
        k = int(np.count_nonzero(g > 2.0 ** -53 * g[:1]))
        f, half = u[:, :k], (t - t_prev) / 2
        if half > 0:  # else every scale rounds to 1
            f *= _semigroup_g(half)(lam[:k])
        t_prev = t
        for r in blocks:
            _flush_subnormals(f[r])
        if np.isrealobj(f):
            return np.matmul(f, f.T, out=out)
        for r in blocks:
            np.conjugate(np.matmul(f, f[r].conj().T).T, out=out[r])
        return out

    return form


def spectral_function(H: OperatorMatrix, g) -> np.ndarray:
    """g(H) on coordinate vectors, D^{-1/2} U g(Lambda) U* D^{1/2} from the
    cached eigendecomposition, with U g(Lambda) flushed of subnormals; g maps
    the eigenvalues to g(Lambda), and g None is the identity, exactly and
    with no spectral work. H must be PSD."""
    if g is None:
        return np.eye(H.dim, dtype=H.matrix.dtype)
    lam, u = _psd_eigh(H)
    s = np.sqrt(H.measure_weights())
    out = np.matmul(_flush_subnormals(u * g(lam)), u.conj().T)
    out /= s[:, None]
    out *= s
    return out


def _chebyshev_filter(x: np.ndarray, v: np.ndarray, mv: np.ndarray, top: float,
                      bottom: float) -> np.ndarray:
    """p(M) V for M = x*x, given mv = M V: p is T_CHEBYSHEV_DEGREE on
    [0, bottom], scaled to 1 at top >= bottom (Zhou, Saad, Tiago &
    Chelikowsky, J. Comput. Phys. 219, 2006). The scaled three-term
    recurrence keeps every block at the size of V, whatever top / bottom;
    each degree past the first costs one product M U, as x* (x U) without a
    copy of x*. When bottom <= u top, u = 2^-53, the interval is below
    rounding and p is the degree-1 step M - bottom / 2, unscaled, so nothing
    divides by zero or overflows."""
    c = bottom / 2  # centre and half-width of [0, bottom]
    cur = mv - c * v
    if bottom <= np.finfo(float).eps / 2 * top:
        return cur
    ell = top / c - 1  # top, where [0, bottom] maps onto [-1, 1]
    prev, cur, sigma = v, cur / (top - c), 1 / ell
    for _ in range(CHEBYSHEV_DEGREE - 1):
        nxt = 1 / (2 * ell - sigma)
        mu = (x.T @ (x @ cur).conj()).conj() - c * cur
        prev, cur, sigma = cur, (2 * nxt / c) * mu - (sigma * nxt) * prev, nxt
    return cur


def _top_singular_values(x: np.ndarray, k: int) -> np.ndarray:
    """The min(k, N) largest singular values of the N x m matrix x (m <= N),
    descending and zero past the m-th, by block subspace iteration on
    M = x*x with Rayleigh-Ritz (Golub & Van Loan, Matrix Computations,
    4th ed., 8.2 and 10.4).

    x is overwritten: `_flush_subnormals` keeps subnormal operands out of
    the products, which moves each sigma by at most sqrt(2 N m) tiny. The
    block V has p = k + SUBSPACE_GUARD orthonormal columns, started from a
    fixed seed, so a repeated call gives the same bits, and it is real for
    a real x.

    A sweep forms Y = x V and the SVD of Y: its sigma are the Ritz values of
    x on span V, and its right vectors W turn V into the Ritz vectors V W.
    Then x* Y W = M V W gives the residual ||M z - sigma^2 z|| of each Ritz
    pair and the first term of `_chebyshev_filter`, whose
    T_CHEBYSHEV_DEGREE on [0, sigma_p^2], the interval that holds the
    unwanted part of the spectrum of M, orthonormalised, is the next block:
    the filter damps that interval to at most 1 while it raises the top of
    the spectrum as the polynomial grows, at CHEBYSHEV_DEGREE - 1 more
    products x* (x U) per sweep. The iteration stops when the top-k
    residuals are at most SUBSPACE_RTOL sigma_1^2. The dense SVD of x
    decides instead when m <= p, where the block would span every column,
    or m <= SVD_DENSE_COLUMNS, where it is the cheaper of the two; and
    after SUBSPACE_SWEEPS sweeps."""
    _flush_subnormals(x)
    out = np.zeros(min(k, x.shape[0]))
    m, p = x.shape[1], k + SUBSPACE_GUARD
    if m <= max(p, SVD_DENSE_COLUMNS):
        top = np.linalg.svd(x, compute_uv=False)[:k]
        out[:top.size] = top
        return out
    rng = np.random.default_rng(0)
    v = rng.standard_normal((m, p))
    if np.iscomplexobj(x):
        v = v + 1j * rng.standard_normal((m, p))
    v = np.linalg.qr(v)[0]
    for _ in range(SUBSPACE_SWEEPS):
        y = x @ v
        _, s, wh = np.linalg.svd(y, full_matrices=False)
        w = wh.conj().T
        v = v @ w
        z = (x.T @ (y @ w).conj()).conj()  # M V W, without a copy of x*
        residual = np.linalg.norm(z[:, :k] - v[:, :k] * s[:k] ** 2, axis=0)
        if np.all(residual <= SUBSPACE_RTOL * s[0] ** 2):
            out[:] = s[:k]
            return out
        v = np.linalg.qr(_chebyshev_filter(x, v, z, s[0] ** 2, s[-1] ** 2))[0]
    out[:] = np.linalg.svd(x, compute_uv=False)[:k]
    return out


def singular_values(H: OperatorMatrix, W: np.ndarray, g, k: int) -> np.ndarray:
    """The top min(k, H.dim) singular values of W g(H) on the weighted L^2
    space, W an (n, rank, rank) stack, zero past the support of W (blocks
    not exactly zero): W commutes with the per-vertex D, so they are those
    of W U g(Lambda) over that support, by `_top_singular_values`. It serves
    functions of H that need the eigenbasis, such as the semigroup; the
    resolvent has `resolvent_singular_values`. g None is the identity.
    H must be PSD."""
    lam, u = _psd_eigh(H)
    support = np.any(W != 0, axis=(1, 2))
    rows = (W[support] @ u.reshape(len(W), H.rank, -1)[support]).reshape(-1, H.dim)
    return _top_singular_values((rows if g is None else rows * g(lam)).conj().T, k)


def _level_resolvents(H: OperatorMatrix, levels, a: float, union: np.ndarray):
    """Per level K of the strictly nested levels (vertex positions of H),
    a pair (pos, cols): pos, the positions of K, in shell order (the first
    level, then each shell, the vertices a level adds, each ascending), and
    at the last level only those where union holds; cols, the columns of
    R_K = (A_K + a)^{-1} at pos, rows in shell order. A = H.matrix.

    Each shell D borders the previous level's R_K (Golub & Van Loan, Matrix
    Computations, 4th ed.): with C = A + a I and P = C_DK R_K, the Schur
    complement S = C_DD - P C_KD is solved once, Y = S^{-1} [P | -I], and
    the level's inverse is [[R_K + P* Y_K, P* Y_D], [-Y_K, -Y_D]]. C_DK
    vanishes off the vertices of K next to D, so P reads only their rows
    of R_K.
    Every level but the last is inverted whole, in place in one buffer of
    the next-to-last level's size; the last takes only the columns at its
    pos, with -I cut to its columns there, so a single level is one solve
    of its own size for its pos columns. The work is the sum over shells of
    2 |K|^2 |D| + |D|^3, in H's dtype; H must be PSD and a > 0."""
    A, r = H.matrix, H.rank
    shells = [levels[0], *(np.setdiff1d(outer, inner, assume_unique=True)
                           for inner, outer in zip(levels, levels[1:]))]
    order = np.concatenate(shells)
    idx = (order[:, None] * r + np.arange(r)).ravel()
    R = np.zeros((levels[-2].size * r,) * 2 if len(levels) > 1 else (0, 0), A.dtype)
    k = m = 0  # the level inverted so far: scalar size, vertices
    for j, shell in enumerate(shells):
        last, m = j == len(shells) - 1, m + shell.size
        D = idx[k:m * r]
        want = np.flatnonzero(union[order[:m]]) if last else np.arange(m)
        need = (want[:, None] * r + np.arange(r)).ravel()
        nk = np.searchsorted(need, k)
        # C_DK is zero off the columns of K's vertices next to the shell
        c = A[np.ix_(D, idx[:k])]
        edge = np.flatnonzero(np.any(c != 0, axis=0))
        c = c[:, edge]
        P = c @ R[edge, :k]
        S = A[np.ix_(D, D)]
        S.flat[::D.size + 1] += a
        if edge.size:
            S -= P[:, edge] @ c.conj().T
        rhs = np.zeros((D.size, need.size), A.dtype)
        rhs[:, :nk] = P[:, need[:nk]]
        rhs[need[nk:] - k, np.arange(nk, need.size)] = -1.0
        Y = np.linalg.solve(S, rhs)
        del c, S, rhs
        if last:
            cols = np.zeros((m * r, need.size), Y.dtype)
            cols[:k, :nk] = R[:k, need[:nk]]
        else:
            cols = R[:m * r, :m * r]
        cols[:k] += P.conj().T @ Y
        np.negative(Y, out=cols[k:])
        k = m * r
        yield order[want], cols


def resolvent_singular_values(H: OperatorMatrix, Ws, a: float, ks, levels=None) -> list:
    """Per (n, d, d) stack W in Ws, over H's vertices, with its count k in
    ks, a triple for W (H + a)^{-1} on the weighted L^2 space: its top
    min(k, n d) singular values, zero past the support; its Hilbert-Schmidt
    norm; and its support columns |S| d, the most singular values it can
    have that are not zero. The stacks share d, which is H's rank or, for a
    scalar H, any rank: H then acts as H x I_d, and one scalar solve serves
    every fiber coordinate. H PSD, a > 0. Without levels the list of
    triples is H's; with levels, strictly nested arrays of vertex positions
    of H such as `graph.Exhaustion.levels`, it is one such list per level K,
    for W restricted to K and the Dirichlet restriction of H to K.

    W commutes with the per-vertex D, so these are the numbers of
    W (A + a)^{-1} for A = H.matrix. Its rows vanish off the
    support S of W (blocks not exactly zero), and its adjoint is
    X = (A + a)^{-1} B with B the blocks W(x)* at the rows of x in S. The
    columns (A_K + a)^{-1} e_x of every x in the union of the supports come
    from `_level_resolvents`: one solve of each shell's size, its Schur
    complement, borders the previous level's inverse, and the last (or
    only) level solves for those columns alone. Rows and columns stay in
    shell order, which moves no singular value and no HS norm. A stack
    takes the columns of its S (all of them, uncopied, when S holds every
    vertex they belong to), times W(x)*. The HS norm is the Frobenius norm of X, and the top
    k come from `_top_singular_values`. The work keeps the dtype of H, and
    a scalar operator with a real potential stays real throughout."""
    if a <= 0:
        raise ValueError("resolvent shift must be positive")
    require_psd(H)
    n, r, d = len(H.vertices), H.rank, Ws[0].shape[1]
    if r not in (1, d):
        raise ValueError(f"potential of rank {d} for an operator of rank {r}")
    if levels is not None:
        levels = Exhaustion(tuple(_positions(lv, n) for lv in levels)).levels
    supports = [np.any(W != 0, axis=(1, 2)) for W in Ws]
    union = np.logical_or.reduce(supports, initial=False)
    out = []
    for pos, cols in _level_resolvents(H, [np.arange(n)] if levels is None else levels,
                                       a, union):
        sol = cols.reshape(cols.shape[0], pos.size, r)
        triples = []
        for W, support, k in zip(Ws, supports, ks):
            own = support[pos]
            blocks = W[pos[own]]
            if np.isrealobj(sol) and not np.any(blocks.imag):
                blocks = blocks.real  # a real potential of a scalar operator stays real
            # column block x of the adjoint: sol[:, x] W(x)*, with sol[:, x]
            # (H + a)^{-1} e_x x I_d for a scalar H under stacks of rank d
            own_sol = sol if own.all() else sol[:, own]
            if r == d:
                adjoint = own_sol.transpose(1, 0, 2) @ blocks.conj().swapaxes(1, 2)
                adjoint = adjoint.transpose(1, 0, 2)
            else:
                adjoint = own_sol.T[0, :, :, None, None] * blocks.conj().swapaxes(1, 2)[:, None]
                adjoint = adjoint.transpose(1, 2, 0, 3)
            adjoint = adjoint.reshape(cols.shape[0] // r * d, -1)
            hs = float(np.linalg.norm(adjoint))
            triples.append((_top_singular_values(adjoint, k), hs, adjoint.shape[1]))
        out.append(triples)
    return out[0] if levels is None else out


def _resolvent_g(a: float):
    """lambda -> 1 / (lambda + a), the spectral function of (H + a)^{-1}; a > 0."""
    if a <= 0:
        raise ValueError("resolvent shift must be positive")
    return lambda lam: 1.0 / (lam + a)


def _semigroup_g(t: float):
    """lambda -> e^{-t max(lambda, 0)}, the spectral function of e^{-tH};
    None at t = 0, where e^{-0H} is the identity and is applied exactly.
    lambda is clipped to [0, 746 / t] as well: e^{-746} rounds to 0, as
    e^{-t lambda} does past it, so the values are the same bit for bit and
    t lambda cannot overflow for a huge t."""
    if t < 0:
        raise ValueError("negative time")
    if t == 0:
        return None
    return lambda lam: np.exp(-t * np.clip(lam, 0.0, 746.0 / t))


def resolvent(H: OperatorMatrix, a: float) -> np.ndarray:
    """(H + a)^{-1} acting on coordinate vectors, from the cached
    eigendecomposition; a > 0."""
    return spectral_function(H, _resolvent_g(a))


def semigroup_matrix(H: OperatorMatrix, t: float) -> np.ndarray:
    """e^{-tH} acting on coordinate vectors; t >= 0, H PSD. At t = 0 it is
    the identity, exactly."""
    return spectral_function(H, _semigroup_g(t))
