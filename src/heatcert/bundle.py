"""Hermitian vector bundles over a vertex set.

Rank-d fibers with per-vertex Hermitian metrics, unitary edge connections
(one matrix per directed edge) and endomorphism fields (matrix potentials).
All spectral code downstream works in Euclidean fiber coordinates; a
general fiber metric enters only through the unitarity check of the
connection and the metric operator norm of `endo_norm`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
MAX_RANK = 8


def _stack(matrices, rank: int) -> np.ndarray:
    """A list of rank x rank matrices as one complex (len, rank, rank) array."""
    return np.array(matrices, dtype=complex).reshape(len(matrices), rank, rank)


@dataclass(frozen=True)
class HermitianBundle:
    rank: int
    fiber_metric: dict[str, np.ndarray]  # vertex -> d x d Hermitian PD

    def __post_init__(self):
        if not 1 <= self.rank <= MAX_RANK:
            raise ValueError(f"rank must be in [1, {MAX_RANK}], got {self.rank}")
        for v, gmat in self.fiber_metric.items():
            gmat = np.asarray(gmat, dtype=complex)
            if gmat.shape != (self.rank, self.rank):
                raise ValueError(f"metric at {v} has shape {gmat.shape}")
            if np.max(np.abs(gmat - gmat.conj().T)) > HERMITIAN_TOL:
                raise ValueError(f"metric at {v} not Hermitian")
            if np.min(np.linalg.eigvalsh(gmat)) <= 0:
                raise ValueError(f"metric at {v} not positive definite")

    @staticmethod
    def trivial(vertices, rank: int = 1) -> "HermitianBundle":
        eye = np.eye(rank, dtype=complex)
        return HermitianBundle(rank, {v: eye for v in vertices})

    def metric(self, v: str) -> np.ndarray:
        return np.asarray(self.fiber_metric[v], dtype=complex)

    def metrics(self, vertices) -> np.ndarray:
        """The metrics at the given vertices, as one (len, rank, rank) array."""
        return _stack([self.fiber_metric[v] for v in vertices], self.rank)


@dataclass(frozen=True)
class UnitaryConnection:
    """Per-directed-edge fiber maps phi[(x, y)]: fiber at x -> fiber at y.

    Both directions are stored; construction checks the inverse relation
    phi[(y, x)] = phi[(x, y)]^{-1} and unitarity w.r.t. the fiber metrics.
    """

    rank: int
    phi: dict[tuple[str, str], np.ndarray]
    bundle: HermitianBundle | None = None

    def __post_init__(self):
        # Shape and reverse-edge checks run per pair, in dict order; the two
        # 2-norm checks then run batched over the pairs before the first
        # failure, so the first offending pair raises what a per-pair loop
        # checking shape, reverse, inverse, unitarity would.
        d = self.rank
        pairs = list(self.phi)
        error = None
        for k, (x, y) in enumerate(pairs):
            if np.shape(self.phi[(x, y)]) != (d, d):
                error = f"phi({x},{y}) has shape {np.shape(self.phi[(x, y)])}"
            elif (y, x) not in self.phi:
                error = f"missing reverse edge ({y},{x})"
            elif np.shape(self.phi[(y, x)]) != (d, d):
                error = f"phi({y},{x}) has shape {np.shape(self.phi[(y, x)])}"
            if error:
                pairs = pairs[:k]
                break
        m = _stack([self.phi[(x, y)] for x, y in pairs], d)
        back = _stack([self.phi[(y, x)] for x, y in pairs], d)
        inverse_bad = np.linalg.norm(back @ m - np.eye(d), 2, axis=(1, 2)) > UNITARY_TOL
        # unitarity w.r.t. fiber metrics: phi^* gy phi = gx
        gx = self._metrics([x for x, _ in pairs])
        gy = self._metrics([y for _, y in pairs])
        unitary_bad = np.linalg.norm(m.conj().swapaxes(1, 2) @ gy @ m - gx, 2,
                                     axis=(1, 2)) > UNITARY_TOL
        for k in np.flatnonzero(inverse_bad | unitary_bad)[:1]:
            x, y = pairs[k]
            if inverse_bad[k]:
                raise ValueError(f"phi({y},{x}) is not the inverse of phi({x},{y})")
            raise ValueError(f"phi({x},{y}) not unitary w.r.t. fiber metrics")
        if error:
            raise ValueError(error)

    def _metrics(self, vertices):
        if self.bundle is None:
            return np.eye(self.rank, dtype=complex)
        return self.bundle.metrics(vertices)

    def get(self, x: str, y: str) -> np.ndarray:
        return np.asarray(self.phi[(x, y)], dtype=complex)

    def stack(self, vertices, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """phi(vertices[x[k]], vertices[y[k]]) for every k, as one
        (len(x), rank, rank) array."""
        return _stack([self.phi[(vertices[i], vertices[j])]
                       for i, j in zip(x.tolist(), y.tolist())], self.rank)

    @staticmethod
    def trivial(g: WeightedGraph, rank: int = 1) -> "UnitaryConnection":
        eye = np.eye(rank, dtype=complex)
        phi = {}
        for pair in g.b:
            if len(pair) == 2:
                u, v = tuple(pair)
                phi[(u, v)] = eye
                phi[(v, u)] = eye
        return UnitaryConnection(rank, phi)

    @staticmethod
    def from_edge_phases(g: WeightedGraph, phases: dict[tuple[str, str], float]
                         ) -> "UnitaryConnection":
        """Rank-1 magnetic connection: phi(x, y) = exp(i theta(x, y))."""
        phi = {}
        for (u, v), theta in phases.items():
            phi[(u, v)] = np.array([[np.exp(1j * theta)]])
            phi[(v, u)] = np.array([[np.exp(-1j * theta)]])
        return UnitaryConnection(1, phi)


@dataclass(frozen=True)
class EndomorphismField:
    """Per-vertex d x d matrix potential, optionally flagged structured."""

    rank: int
    values: dict[str, np.ndarray]
    self_adjoint: bool = False
    nonnegative: bool = False

    def __post_init__(self):
        for v, m in self.values.items():
            m = np.asarray(m, dtype=complex)
            if m.shape != (self.rank, self.rank):
                raise ValueError(f"W({v}) has shape {m.shape}")
            if self.self_adjoint and np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
                raise ValueError(f"W({v}) flagged self-adjoint but is not")
            if self.nonnegative:
                if np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))) < -HERMITIAN_TOL:
                    raise ValueError(f"W({v}) flagged nonnegative but is not")

    @staticmethod
    def scalar(values: dict[str, float], **flags) -> "EndomorphismField":
        vals = {v: np.array([[complex(w)]]) for v, w in values.items()}
        sa = all(abs(complex(w).imag) == 0 for w in values.values())
        nn = sa and all(complex(w).real >= 0 for w in values.values())
        flags.setdefault("self_adjoint", sa)
        flags.setdefault("nonnegative", nn)
        return EndomorphismField(1, vals, **flags)

    @staticmethod
    def zero(vertices, rank: int = 1) -> "EndomorphismField":
        z = np.zeros((rank, rank), dtype=complex)
        return EndomorphismField(rank, {v: z for v in vertices},
                                 self_adjoint=True, nonnegative=True)

    def get(self, v: str) -> np.ndarray:
        return np.asarray(self.values[v], dtype=complex)

    def stack(self, vertices) -> np.ndarray:
        """W at the given vertices, as one (len, rank, rank) array."""
        return _stack([self.values[v] for v in vertices], self.rank)


def endo_norm(W: EndomorphismField, bundle: HermitianBundle) -> dict[str, float]:
    """x -> operator norm of W(x) w.r.t. the fiber metric.

    Whitening by the metric Cholesky factor reduces to a Euclidean 2-norm.
    """
    if W.rank != bundle.rank:
        raise ValueError("rank mismatch between field and bundle")
    vertices = list(W.values)
    Lh = np.linalg.cholesky(bundle.metrics(vertices)).conj().swapaxes(1, 2)
    whitened = Lh @ W.stack(vertices) @ np.linalg.inv(Lh)
    return dict(zip(vertices, np.linalg.norm(whitened, 2, axis=(1, 2)).tolist()))


def decompose_potential(W: EndomorphismField, rule: str, bundle: HermitianBundle,
                        *, threshold: float | None = None,
                        support=None, explicit=None):
    """Split W = W1 + W2 by threshold, support set, or explicit parts.

    threshold: W1 carries vertices with |W(x)| > c, so sup |W2| <= c.
    support:   W1 carries the given vertex subset.
    explicit:  caller supplies (W1, W2); checked to recombine exactly.
    """
    verts = list(W.values)
    zero = np.zeros((W.rank, W.rank), dtype=complex)
    flags = dict(self_adjoint=W.self_adjoint)
    if rule == "threshold":
        if threshold is None:
            raise ValueError("threshold rule needs a cut value")
        norms = endo_norm(W, bundle)
        carrier = {v for v in verts if norms[v] > threshold}
    elif rule == "support":
        if support is None:
            raise ValueError("support rule needs a vertex subset")
        carrier = set(support)
    elif rule == "explicit":
        w1, w2 = explicit
        for v in verts:
            if np.max(np.abs(w1.get(v) + w2.get(v) - W.get(v))) > 1e-12:
                raise ValueError(f"explicit split fails W1+W2=W at {v}")
        return w1, w2
    else:
        raise ValueError(f"unknown split rule {rule!r}")
    w1 = {v: (W.get(v) if v in carrier else zero) for v in verts}
    w2 = {v: (W.get(v) - w1[v]) for v in verts}
    return (EndomorphismField(W.rank, w1, **flags),
            EndomorphismField(W.rank, w2, **flags))


# ---------------------------------------------------------------------------
# file format

def _complex_matrix_to_json(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _complex_matrix_from_json(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def load_bundle(path, vertices):
    """Load (bundle, connection, potentials) from the JSON bundle format."""
    with open(path) as fh:
        doc = json.load(fh)
    rank = int(doc["rank"])
    metric_spec = doc.get("metric", "identity")
    if metric_spec == "identity":
        bundle = HermitianBundle.trivial(vertices, rank)
    else:
        bundle = HermitianBundle(
            rank, {v: _complex_matrix_from_json(metric_spec[v]) for v in vertices})
    phi = {}
    for entry in doc.get("connection", []):
        m = _complex_matrix_from_json(entry["phi"])
        phi[(entry["u"], entry["v"])] = m
        phi.setdefault((entry["v"], entry["u"]), np.linalg.inv(m))
    connection = UnitaryConnection(rank, phi, bundle=bundle) if phi else None
    potentials = {}
    for name, values in doc.get("potentials", {}).items():
        potentials[name] = EndomorphismField(
            rank, {v: _complex_matrix_from_json(values[v]) for v in values},
            self_adjoint=True)
    return bundle, connection, potentials


def dump_bundle(path, bundle: HermitianBundle, connection=None, potentials=None):
    doc = {"rank": bundle.rank, "metric": "identity"}
    vertices = list(bundle.fiber_metric)
    if np.any(bundle.metrics(vertices) != np.eye(bundle.rank)):
        doc["metric"] = {v: _complex_matrix_to_json(bundle.metric(v)) for v in vertices}
    if connection is not None:
        seen = set()
        entries = []
        for (u, v) in sorted(connection.phi):
            if (v, u) in seen:
                continue
            seen.add((u, v))
            entries.append({"u": u, "v": v,
                            "phi": _complex_matrix_to_json(connection.get(u, v))})
        doc["connection"] = entries
    if potentials:
        doc["potentials"] = {
            name: {v: _complex_matrix_to_json(W.get(v)) for v in W.values}
            for name, W in potentials.items()}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
