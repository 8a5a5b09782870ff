"""Vector bundles over a vertex set, in orthonormal fiber coordinates.

Rank-d fibers, unitary edge connections (one matrix per directed edge) and
endomorphism fields (matrix potentials). Every fiber is in orthonormal
coordinates: a connection is unitary when phi^* phi = I, a potential is
self-adjoint when it is Hermitian, and the fiber norm is the Euclidean
2-norm.

A bundle file may give a Hermitian positive-definite fiber metric g_x per
vertex. Its connection must then be unitary, and its potentials
self-adjoint, for that metric. `load_bundle` is the only code that reads the
metric: with the Cholesky factors g_x = L_x L_x^* it moves every connection
matrix to L_y^* phi(x, y) L_x^{-*} and every potential to
L_x^* W(x) L_x^{-*}, once, and the metric plays no further part.
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
class UnitaryConnection:
    """Per-directed-edge fiber maps phi[(x, y)]: fiber at x -> fiber at y.

    Both directions are stored; construction checks the inverse relation
    phi[(y, x)] = phi[(x, y)]^{-1} and unitarity phi^* phi = I.
    """

    rank: int
    phi: dict[tuple[str, str], np.ndarray]

    def __post_init__(self):
        # Shape, reverse-edge and finiteness checks run per pair, in dict
        # order (the last batched); the two 2-norm checks then run batched
        # over the pairs before the first failure, so the first offending
        # pair raises what a per-pair loop checking shape, reverse,
        # finiteness, inverse, unitarity would.
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
        finite = np.isfinite(m).all(axis=(1, 2)) & np.isfinite(back).all(axis=(1, 2))
        for k in np.flatnonzero(~finite)[:1]:
            x, y = pairs[k] if not np.isfinite(m[k]).all() else pairs[k][::-1]
            error = f"phi({x},{y}) is not finite"
            pairs, m, back = pairs[:k], m[:k], back[:k]
        inverse_bad = np.linalg.norm(back @ m - np.eye(d), 2, axis=(1, 2)) > UNITARY_TOL
        unitary_bad = np.linalg.norm(m.conj().swapaxes(1, 2) @ m - np.eye(d), 2,
                                     axis=(1, 2)) > UNITARY_TOL
        for k in np.flatnonzero(inverse_bad | unitary_bad)[:1]:
            x, y = pairs[k]
            if inverse_bad[k]:
                raise ValueError(f"phi({y},{x}) is not the inverse of phi({x},{y})")
            raise ValueError(f"phi({x},{y}) not unitary")
        if error:
            raise ValueError(error)

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
        # shapes per vertex, then each property batched over all vertices;
        # every check names the first vertex that fails it
        for v, m in self.values.items():
            if np.shape(m) != (self.rank, self.rank):
                raise ValueError(f"W({v}) has shape {np.shape(m)}")
        names = list(self.values)
        m = self.stack(names)
        _raise_first(names, ~np.isfinite(m).all(axis=(1, 2)), "is not finite")
        adj = m.conj().swapaxes(1, 2)
        if self.self_adjoint:
            _raise_first(names, np.max(np.abs(m - adj), axis=(1, 2)) > HERMITIAN_TOL,
                         "flagged self-adjoint but is not")
        if self.nonnegative:
            _raise_first(names, np.linalg.eigvalsh(0.5 * (m + adj))[:, 0] < -HERMITIAN_TOL,
                         "flagged nonnegative but is not")

    @staticmethod
    def scalar(values: dict[str, float], **flags) -> "EndomorphismField":
        vals = {v: np.array([[complex(w)]]) for v, w in values.items()}
        sa = all(abs(complex(w).imag) == 0 for w in values.values())
        nn = sa and all(complex(w).real >= 0 for w in values.values())
        flags.setdefault("self_adjoint", sa)
        flags.setdefault("nonnegative", nn)
        return EndomorphismField(1, vals, **flags)

    def get(self, v: str) -> np.ndarray:
        return np.asarray(self.values[v], dtype=complex)

    def stack(self, vertices) -> np.ndarray:
        """W at the given vertices, as one (len, rank, rank) array."""
        return _stack([self.values[v] for v in vertices], self.rank)

    def norms(self, vertices) -> np.ndarray:
        """The fiber operator norms |W(x)| at the given vertices."""
        return np.linalg.norm(self.stack(vertices), 2, axis=(1, 2))


def _raise_first(names, bad: np.ndarray, what: str):
    if bad.any():
        raise ValueError(f"W({names[int(np.argmax(bad))]}) {what}")


def decompose_potential(W: EndomorphismField, threshold: float):
    """Split W = W1 + W2 by a threshold c: W1 carries the vertices with
    |W(x)| > c, so sup |W2| <= c."""
    verts = list(W.values)
    zero = np.zeros((W.rank, W.rank), dtype=complex)
    flags = dict(self_adjoint=W.self_adjoint)
    carrier = W.norms(verts) > threshold
    w1 = {v: (W.get(v) if c else zero) for v, c in zip(verts, carrier.tolist())}
    w2 = {v: (W.get(v) - w1[v]) for v in verts}
    return (EndomorphismField(W.rank, w1, **flags),
            EndomorphismField(W.rank, w2, **flags))


def check_vertex_set(what: str, values, vertices):
    """Raise unless `values` maps exactly the given vertices."""
    if not isinstance(values, dict):
        raise ValueError(f"{what} must map vertex ids to values")
    known = set(vertices)
    for v in values:
        if v not in known:
            raise ValueError(f"{what} has a value at unknown vertex {v}")
    for v in vertices:
        if v not in values:
            raise ValueError(f"{what} has no value at vertex {v}")


# ---------------------------------------------------------------------------
# file format

def _complex_matrix_to_json(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _matrix(rows, rank: int, what: str) -> np.ndarray:
    """One rank x rank matrix of a bundle file; `what` names it in errors."""
    try:
        m = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError):
        raise ValueError(f"{what} is not a matrix of [re, im] pairs") from None
    if m.shape != (rank, rank):
        raise ValueError(f"{what} has shape {m.shape}, expected ({rank}, {rank})")
    return m


def _orthonormal_frames(metric, vertices, rank: int) -> dict:
    """vertex -> (L_x^*, L_x^{-*}) for the Cholesky factor of g_x = L_x L_x^*.
    L_x^* maps fiber coordinates to orthonormal ones."""
    check_vertex_set("metric", metric, vertices)
    frames = {}
    for v in vertices:
        gmat = _matrix(metric[v], rank, f"metric at {v}")
        if not np.isfinite(gmat).all():
            raise ValueError(f"metric at {v} is not finite")
        if np.max(np.abs(gmat - gmat.conj().T)) > HERMITIAN_TOL:
            raise ValueError(f"metric at {v} not Hermitian")
        if np.min(np.linalg.eigvalsh(gmat)) <= 0:
            raise ValueError(f"metric at {v} not positive definite")
        lh = np.linalg.cholesky(gmat).conj().T
        frames[v] = (lh, np.linalg.inv(lh))
    return frames


def load_bundle(path, g: WeightedGraph):
    """Load (rank, connection, potentials) from the JSON bundle format,
    checked against the graph g and in orthonormal fiber coordinates. A
    file without a connection gets the trivial one."""
    with open(path) as fh:
        doc = json.load(fh)
    rank = int(doc["rank"])
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be in [1, {MAX_RANK}], got {rank}")
    if "connection" in doc:
        phi = {}
        for entry in doc["connection"]:
            u, v = entry["u"], entry["v"]
            if frozenset((u, v)) not in g.b:
                raise ValueError(f"connection entry ({u},{v}) is not an edge of the graph")
            m = _matrix(entry["phi"], rank, f"phi({u},{v})")
            phi[(u, v)] = m
            phi.setdefault((v, u), np.linalg.inv(m))
        for pair in g.b:
            u, v = tuple(pair)
            if (u, v) not in phi:
                raise ValueError(f"connection has no entry for edge ({u},{v})")
    else:
        phi = UnitaryConnection.trivial(g, rank).phi
    potentials = {}
    for name, values in doc.get("potentials", {}).items():
        check_vertex_set(f"potential {name!r}", values, g.vertices)
        potentials[name] = {v: _matrix(values[v], rank, f"potential {name!r} at {v}")
                            for v in values}
    metric = doc.get("metric", "identity")
    if metric != "identity":
        frames = _orthonormal_frames(metric, g.vertices, rank)
        phi = {(x, y): frames[y][0] @ m @ frames[x][1] for (x, y), m in phi.items()}
        potentials = {name: {v: frames[v][0] @ m @ frames[v][1] for v, m in values.items()}
                      for name, values in potentials.items()}
    fields = {}
    for name, values in potentials.items():
        try:
            fields[name] = EndomorphismField(rank, values, self_adjoint=True)
        except ValueError as e:
            raise ValueError(f"potential {name!r}: {e}") from None
    return rank, UnitaryConnection(rank, phi), fields


def dump_bundle(path, rank: int, connection=None, potentials=None):
    """Write the JSON bundle format, with the identity metric."""
    doc = {"rank": rank}
    if connection is not None:
        # one entry per edge, the orientation with u < v
        doc["connection"] = [{"u": u, "v": v,
                              "phi": _complex_matrix_to_json(connection.get(u, v))}
                             for u, v in sorted(connection.phi) if u < v]
    if potentials:
        doc["potentials"] = {
            name: {v: _complex_matrix_to_json(W.get(v)) for v in W.values}
            for name, W in potentials.items()}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
