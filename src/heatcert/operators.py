"""Self-adjoint operators on weighted graphs, scalar and bundle-valued.

Every operator here lives in the weighted inner product
<f, h> = sum_x (f(x), h(x)) rho(x). Matrices are stored as they act on
plain coordinate vectors; spectral work happens on the symmetrized matrix
A = D^{1/2} M D^{-1/2} (D the diagonal of measure weights, repeated per
fiber dimension), which is genuinely Hermitian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bundle import EndomorphismField, UnitaryConnection
from .graph import Measure, WeightedGraph, validate_graph

WEIGHTED_HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense operator over (vertices x fiber dims) with its measure."""

    matrix: np.ndarray
    vertices: tuple[str, ...]
    rank: int
    measure: Measure
    kind: str  # scalar-laplacian | covariant | dirichlet-restriction | multiplication | sum
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def measure_weights(self) -> np.ndarray:
        """Measure weight per scalar index (vertex weight repeated rank times)."""
        w = self.measure.vector(self.vertices)
        return np.repeat(w, self.rank)

    def symmetrized(self) -> np.ndarray:
        """A = D^{1/2} M D^{-1/2}, Hermitian and unitarily equivalent to M."""
        s = np.sqrt(self.measure_weights())
        return (s[:, None] * self.matrix) / s[None, :]

    def eigh(self):
        """Eigendecomposition of the symmetrized matrix, cached."""
        if "eigh" not in self._cache:
            a = self.symmetrized()
            a = 0.5 * (a + a.conj().T)
            self._cache["eigh"] = np.linalg.eigh(a)
        return self._cache["eigh"]

    def check_self_adjoint(self, tol=WEIGHTED_HERMITIAN_TOL) -> float:
        a = self.symmetrized()
        return float(np.max(np.abs(a - a.conj().T)))

    def lambda_min(self) -> float:
        return float(self.eigh()[0][0])

    def norm_2to2(self) -> float:
        """Operator norm on the weighted L^2 space."""
        return float(np.linalg.norm(self.symmetrized(), 2))

    def inner(self, f: np.ndarray, h: np.ndarray) -> complex:
        """Weighted inner product, antilinear in the first slot."""
        return complex(np.sum(np.conj(f) * h * self.measure_weights()))

    def weighted_norm(self, f: np.ndarray) -> float:
        return float(np.sqrt(np.real(self.inner(f, f))))


def require_psd(op: OperatorMatrix):
    """Raise unless lambda_min >= -PSD_TOL, so that e^{-tH} contracts."""
    lam = op.lambda_min()
    if lam < -PSD_TOL:
        raise ValueError(f"{op.kind} operator not PSD: lambda_min = {lam}")


def _check_psd_kind(op: OperatorMatrix):
    if op.kind in ("scalar-laplacian", "covariant", "dirichlet-restriction"):
        require_psd(op)


def assemble_laplacian(g: WeightedGraph) -> OperatorMatrix:
    """H[x,x] = deg(x)/rho(x), H[x,y] = -b(x,y)/rho(x); PSD, constants in kernel."""
    report = validate_graph(g)
    if not report.ok:
        raise ValueError(f"invalid graph: {report.violations}")
    n = g.n
    m = np.zeros((n, n), dtype=complex)
    rho = g.rho_vector()
    for pair, w in g.b.items():
        u, v = tuple(pair)
        i, j = g.index(u), g.index(v)
        m[i, i] += w / rho[i]
        m[j, j] += w / rho[j]
        m[i, j] -= w / rho[i]
        m[j, i] -= w / rho[j]
    op = OperatorMatrix(m, g.vertices, 1, Measure.from_rho(g), "scalar-laplacian")
    _check_psd_kind(op)
    return op


def quadratic_form(g: WeightedGraph, f1: np.ndarray, f2: np.ndarray) -> complex:
    """Dirichlet form (1/2) sum over ordered adjacent pairs of
    b(x,y) conj(f1(x)-f1(y)) (f2(x)-f2(y)); antilinear in f1."""
    if f1.shape != (g.n,) or f2.shape != (g.n,):
        raise ValueError("function shape does not match graph")
    total = 0.0 + 0.0j
    for pair, w in g.b.items():
        u, v = tuple(pair)
        i, j = g.index(u), g.index(v)
        total += w * np.conj(f1[i] - f1[j]) * (f2[i] - f2[j])
    return complex(total)  # both edge orientations contribute the same term


def form_bound(g: WeightedGraph) -> float:
    """C(b, rho) = sup_x deg(x)/rho(x); 2 C bounds the form and the operator."""
    if g.n == 0:
        return 0.0
    return max(g.degree(v) / g.rho[v] for v in g.vertices)


def assemble_covariant(g: WeightedGraph, rank: int,
                       connection: UnitaryConnection) -> OperatorMatrix:
    """Block operator: diagonal deg(x)/rho(x) Id, off-diagonal
    -(b(x,y)/rho(x)) phi(y, x). Rank 1 with trivial phi reproduces the
    scalar Laplacian entrywise."""
    if connection.rank != rank:
        raise ValueError("connection rank mismatch")
    report = validate_graph(g)
    if not report.ok:
        raise ValueError(f"invalid graph: {report.violations}")
    n = g.n
    d = rank
    m = np.zeros((n * d, n * d), dtype=complex)
    rho = g.rho_vector()
    eye = np.eye(d)
    for pair, w in g.b.items():
        u, v = tuple(pair)
        i, j = g.index(u), g.index(v)
        m[i * d:(i + 1) * d, i * d:(i + 1) * d] += (w / rho[i]) * eye
        m[j * d:(j + 1) * d, j * d:(j + 1) * d] += (w / rho[j]) * eye
        m[i * d:(i + 1) * d, j * d:(j + 1) * d] -= (w / rho[i]) * connection.get(v, u)
        m[j * d:(j + 1) * d, i * d:(i + 1) * d] -= (w / rho[j]) * connection.get(u, v)
    op = OperatorMatrix(m, g.vertices, d, Measure.from_rho(g), "covariant")
    if op.check_self_adjoint() > WEIGHTED_HERMITIAN_TOL:
        raise ValueError("covariant assembly lost self-adjointness; phi not unitary?")
    _check_psd_kind(op)
    return op


def covariant_form(g: WeightedGraph, rank: int, connection: UnitaryConnection,
                   f1: np.ndarray, f2: np.ndarray) -> complex:
    """Covariant Dirichlet form; f given as stacked fiber blocks."""
    d = rank
    total = 0.0 + 0.0j
    for pair, w in g.b.items():
        u, v = tuple(pair)
        i, j = g.index(u), g.index(v)
        phi_vu = connection.get(v, u)  # fiber at v -> fiber at u
        phi_uv = connection.get(u, v)
        d1_u = f1[i * d:(i + 1) * d] - phi_vu @ f1[j * d:(j + 1) * d]
        d2_u = f2[i * d:(i + 1) * d] - phi_vu @ f2[j * d:(j + 1) * d]
        d1_v = f1[j * d:(j + 1) * d] - phi_uv @ f1[i * d:(i + 1) * d]
        d2_v = f2[j * d:(j + 1) * d] - phi_uv @ f2[i * d:(i + 1) * d]
        total += 0.5 * w * (np.conj(d1_u) @ d2_u + np.conj(d1_v) @ d2_v)
    return complex(total)


def multiplication_operator(W: EndomorphismField, vertices, measure: Measure
                            ) -> OperatorMatrix:
    """Block-diagonal matrix f(x) -> W(x) f(x)."""
    d = W.rank
    n = len(vertices)
    m = np.zeros((n * d, n * d), dtype=complex)
    for i, v in enumerate(vertices):
        m[i * d:(i + 1) * d, i * d:(i + 1) * d] = W.get(v)
    kind = "multiplication"
    return OperatorMatrix(m, tuple(vertices), d, measure, kind)


def add_potential(H: OperatorMatrix, V: EndomorphismField) -> OperatorMatrix:
    """H + diag(V). On a finite host the form sum is the matrix sum,
    since all operators are bounded and everywhere defined."""
    if not V.self_adjoint:
        raise ValueError("potential must be pointwise self-adjoint")
    if V.rank != H.rank:
        raise ValueError("potential rank mismatch")
    Vop = multiplication_operator(V, H.vertices, H.measure)
    kind = H.kind if V.nonnegative else "sum"
    return OperatorMatrix(H.matrix + Vop.matrix, H.vertices, H.rank, H.measure, kind)


def dirichlet_restriction(H: OperatorMatrix, subset) -> OperatorMatrix:
    """Principal submatrix on the subset (fiber blocks included), with the
    restricted measure. Diagonal degree terms are retained, which is what
    makes the restriction a Dirichlet (killing) boundary condition."""
    keep = set(subset)
    pos = [i for i, v in enumerate(H.vertices) if v in keep]
    if not pos:
        raise ValueError("empty Dirichlet subset")
    subset = [H.vertices[i] for i in pos]
    d = H.rank
    idx = [i * d + k for i in pos for k in range(d)]
    sub = H.matrix[np.ix_(idx, idx)]
    meas = Measure({v: H.measure.weights[v] for v in subset})
    op = OperatorMatrix(sub, tuple(subset), d, meas, "dirichlet-restriction")
    _check_psd_kind(op)
    return op


def spectral_function(H: OperatorMatrix, g) -> np.ndarray:
    """g(H) acting on coordinate vectors: D^{-1/2} U g(Lambda) U* D^{1/2}
    from the cached eigendecomposition; g maps the eigenvalue array to the
    diagonal of g(Lambda)."""
    lam, u = H.eigh()
    s = np.sqrt(H.measure_weights())
    core = (u * g(lam)) @ u.conj().T
    return (core / s[:, None]) * s[None, :]


def resolvent(H: OperatorMatrix, a: float) -> np.ndarray:
    """(H + a)^{-1} via the symmetrized eigendecomposition; a > 0."""
    if a <= 0:
        raise ValueError("resolvent shift must be positive")
    return spectral_function(H, lambda lam: 1.0 / (lam + a))


def semigroup_matrix(H: OperatorMatrix, t: float) -> np.ndarray:
    """e^{-tH} acting on coordinate vectors; t >= 0, H PSD."""
    if t < 0:
        raise ValueError("negative time")
    if t == 0:
        return np.eye(H.dim, dtype=complex)
    require_psd(H)
    return spectral_function(H, lambda lam: np.exp(-t * np.clip(lam, 0.0, None)))
