"""Vector bundles over a vertex set, in orthonormal fiber coordinates.

Rank-d fibers, unitary edge connections (one matrix per directed edge) and
endomorphism fields (matrix potentials). A potential is one complex
(n, d, d) stack in the order of a vertex tuple; vertex ids are mapped to
stack positions once, where a file or a map is read. Every fiber is in
orthonormal coordinates: a connection is unitary when phi^* phi = I, a
potential is self-adjoint when it is Hermitian, and the fiber norm is the
Euclidean 2-norm.

A bundle file may give a Hermitian positive-definite fiber metric g_x per
vertex. Its connection must then be unitary, and its potentials
self-adjoint, for that metric. `load_bundle` is the only code that reads the
metric: with the Cholesky factors g_x = L_x L_x^* it moves every connection
matrix to L_y^* phi(x, y) L_x^{-*} and every potential to
L_x^* W(x) L_x^{-*}, once, and the metric plays no further part.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
MAX_RANK = 8
# `block_norms` squares entries: a block whose norm reads outside this range
# may have lost squares to underflow or overflow, and is scaled first
SQUARES_SAFE = (1e-140, 1e140)


def _stack(matrices, rank: int) -> np.ndarray:
    """A list of rank x rank matrices as one complex (len, rank, rank) array."""
    return np.array(matrices, dtype=complex).reshape(len(matrices), rank, rank)


def block_norms(blocks: np.ndarray) -> np.ndarray:
    """The 2-norm, the largest singular value, of each d x d matrix B of a
    stack of shape (..., d, d): |B| at d = 1; at d = 2 the closed form
    sqrt(lambda_max(B*B)), lambda_max = (g11 + g22)/2 +
    sqrt(((g11 - g22)/2)^2 + |g12|^2) for G = B*B, where no term cancels
    another; above, a batched eigvalsh(B*B). A block whose norm reads
    outside SQUARES_SAFE (a zero block among them) is divided by its
    largest entry and read again, so that no square underflows or
    overflows."""
    if blocks.shape[-1] == 1:
        return np.abs(blocks[..., 0, 0])
    with np.errstate(over="ignore", invalid="ignore"):
        out = _gram_norms(blocks)
    redo = ~((out >= SQUARES_SAFE[0]) & (out <= SQUARES_SAFE[1]))
    if redo.any():
        b = blocks[redo]
        scale = np.max(np.abs(b), axis=(-2, -1))
        scale[scale == 0] = 1.0
        # real and imaginary parts divided as reals: a complex division
        # by a subnormal scale overflows
        (b.view(np.float64) if np.iscomplexobj(b) else b)[...] /= scale[:, None, None]
        out[redo] = _gram_norms(b) * scale
    return out


def _gram_norms(blocks: np.ndarray) -> np.ndarray:
    """`block_norms` of a stack of d x d matrices, d >= 2, unscaled: a
    block whose squares overflow reads NaN or inf."""
    if blocks.shape[-1] > 2:
        gram = blocks.conj().swapaxes(-1, -2) @ blocks
        finite = np.isfinite(gram).all(axis=(-2, -1))
        top = np.linalg.eigvalsh(np.where(finite[..., None, None], gram, 0))[..., -1]
        return np.where(finite, np.sqrt(np.clip(top, 0.0, None)), np.inf)
    sq = np.abs(blocks)
    sq *= sq
    g11 = sq[..., 0, 0] + sq[..., 1, 0]
    g22 = sq[..., 0, 1] + sq[..., 1, 1]
    g12 = blocks[..., 0, 0].conj() * blocks[..., 0, 1] + blocks[..., 1, 0].conj() * blocks[..., 1, 1]
    half = 0.5 * (g11 - g22)
    return np.sqrt(0.5 * (g11 + g22) + np.sqrt(half * half + g12.real ** 2 + g12.imag ** 2))


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
        inverse_bad = block_norms(back @ m - np.eye(d)) > UNITARY_TOL
        unitary_bad = block_norms(m.conj().swapaxes(1, 2) @ m - np.eye(d)) > UNITARY_TOL
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
        for i, j in zip(g.src.tolist(), g.dst.tolist()):
            if i != j:
                u, v = g.vertices[i], g.vertices[j]
                phi[(u, v)] = phi[(v, u)] = eye
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


class EndomorphismField:
    """Per-vertex d x d matrix potential: one complex (n, d, d) stack `blocks`
    in the order of the vertex tuple `vertices`. The constructor reads a map
    vertex -> matrix once and keeps only the stack."""

    def __init__(self, rank: int, values: dict, self_adjoint: bool = False):
        for v, m in values.items():
            if np.shape(m) != (rank, rank):
                raise ValueError(f"W({v}) has shape {np.shape(m)}")
        self._set(rank, tuple(values), _stack(list(values.values()), rank), self_adjoint)

    @staticmethod
    def from_blocks(rank: int, vertices, blocks: np.ndarray,
                    self_adjoint: bool = False) -> "EndomorphismField":
        """The field of a stack already in the order of `vertices`."""
        W = EndomorphismField.__new__(EndomorphismField)
        W._set(rank, tuple(vertices), blocks, self_adjoint)
        return W

    def _set(self, rank, vertices, blocks, self_adjoint):
        # each property batched over all vertices; every check names the
        # first vertex that fails it
        _raise_first(vertices, ~np.isfinite(blocks).all(axis=(1, 2)), "W({}) is not finite")
        if self_adjoint:
            _raise_first(vertices, _asymmetry(blocks) > HERMITIAN_TOL,
                         "W({}) flagged self-adjoint but is not")
        self.rank, self.vertices, self.blocks = rank, vertices, blocks
        self.self_adjoint = self_adjoint

    @staticmethod
    def scalar(values: dict) -> "EndomorphismField":
        """The rank-1 field of a map vertex -> finite real number, which is
        self-adjoint."""
        for v, w in values.items():
            if isinstance(w, bool) or not isinstance(w, numbers.Real):
                raise ValueError(f"W({v}) is not a real number")
        return EndomorphismField.from_blocks(1, values, _stack(list(values.values()), 1),
                                             self_adjoint=True)

    def restrict(self, vertices) -> "EndomorphismField":
        """W at the given vertices, in their order; W itself for its own."""
        vertices = tuple(vertices)
        if vertices == self.vertices:
            return self
        index = dict(zip(self.vertices, range(len(self.vertices))))
        try:
            pos = [index[v] for v in vertices]
        except KeyError as e:
            raise ValueError(f"W has no value at vertex {e.args[0]}") from None
        return EndomorphismField.from_blocks(self.rank, vertices, self.blocks[pos],
                                             self.self_adjoint)

    def norms(self) -> np.ndarray:
        """The fiber operator norms |W(x)|, in vertex order (`block_norms`)."""
        return block_norms(self.blocks)


def _raise_first(names, bad: np.ndarray, message: str):
    """Raise `message` naming the first of `names` where `bad` holds."""
    if bad.any():
        raise ValueError(message.format(names[int(np.argmax(bad))]))


def _asymmetry(blocks: np.ndarray) -> np.ndarray:
    """max |m - m^*| of each matrix in a stack."""
    return np.max(np.abs(blocks - blocks.conj().swapaxes(1, 2)), axis=(1, 2))


def decompose_potential(W: EndomorphismField, threshold: float):
    """Split W = W1 + W2 by a threshold c: W1 is W on its carrier
    {|W(x)| > c} and 0 elsewhere, W2 = W - W1, so sup |W2| <= c. Both sums
    are exact: W1 + W2 == W bit for bit."""
    w1 = np.where((W.norms() > threshold)[:, None, None], W.blocks, 0)
    return (EndomorphismField.from_blocks(W.rank, W.vertices, w1, W.self_adjoint),
            EndomorphismField.from_blocks(W.rank, W.vertices, W.blocks - w1, W.self_adjoint))


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


def _orthonormal_frames(metric, vertices, rank: int):
    """(L^*, L^{-*}) as two (n, rank, rank) stacks in vertex order, for the
    Cholesky factors of g_x = L_x L_x^*. L_x^* maps fiber coordinates to
    orthonormal ones."""
    check_vertex_set("metric", metric, vertices)
    gm = _stack([_matrix(metric[v], rank, f"metric at {v}") for v in vertices], rank)
    # each property batched over all vertices, as for potentials
    _raise_first(vertices, ~np.isfinite(gm).all(axis=(1, 2)), "metric at {} is not finite")
    _raise_first(vertices, _asymmetry(gm) > HERMITIAN_TOL, "metric at {} not Hermitian")
    _raise_first(vertices, np.linalg.eigvalsh(gm)[:, 0] <= 0,
                 "metric at {} not positive definite")
    lh = np.linalg.cholesky(gm).conj().swapaxes(1, 2)
    return lh, np.linalg.inv(lh)


def load_bundle(path, g: WeightedGraph):
    """Load (rank, connection, potentials) from the JSON bundle format,
    checked against the graph g and in orthonormal fiber coordinates. A
    file without a connection gets the trivial one. Each potential is one
    stack in the graph's vertex order, whatever the order of its keys."""
    with open(path) as fh:
        doc = json.load(fh)
    rank = int(doc["rank"])
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be in [1, {MAX_RANK}], got {rank}")
    if "connection" in doc:
        # a reverse orientation the file does not give is the inverse of
        # the first matrix given for its edge, all inverted in one batch
        phi, reverse = {}, {}
        for entry in doc["connection"]:
            u, v = entry["u"], entry["v"]
            if frozenset((u, v)) not in g.b:
                raise ValueError(f"connection entry ({u},{v}) is not an edge of the graph")
            m = _matrix(entry["phi"], rank, f"phi({u},{v})")
            phi[(u, v)] = m
            reverse.pop((u, v), None)
            if (v, u) not in phi:
                phi[(v, u)] = reverse[(v, u)] = m
        if reverse:
            phi.update(zip(reverse, np.linalg.inv(_stack(list(reverse.values()), rank))))
        for i, j in zip(g.src.tolist(), g.dst.tolist()):
            u, v = g.vertices[i], g.vertices[j]
            if (u, v) not in phi:
                raise ValueError(f"connection has no entry for edge ({u},{v})")
    else:
        phi = UnitaryConnection.trivial(g, rank).phi
    potentials = {}
    for name, values in doc.get("potentials", {}).items():
        check_vertex_set(f"potential {name!r}", values, g.vertices)
        potentials[name] = _stack([_matrix(values[v], rank, f"potential {name!r} at {v}")
                                   for v in g.vertices], rank)
    metric = doc.get("metric", "identity")
    if metric != "identity":
        lh, lh_inv = _orthonormal_frames(metric, g.vertices, rank)
        src = [g.index(x) for x, _ in phi]
        dst = [g.index(y) for _, y in phi]
        phi = dict(zip(phi, lh[dst] @ _stack(list(phi.values()), rank) @ lh_inv[src]))
        potentials = {name: lh @ blocks @ lh_inv for name, blocks in potentials.items()}
    fields = {}
    for name, blocks in potentials.items():
        try:
            fields[name] = EndomorphismField.from_blocks(rank, g.vertices, blocks,
                                                         self_adjoint=True)
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
            name: dict(zip(W.vertices, map(_complex_matrix_to_json, W.blocks)))
            for name, W in potentials.items()}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
