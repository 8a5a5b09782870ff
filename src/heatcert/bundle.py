"""Vector bundles over a vertex set, in orthonormal fiber coordinates.

Rank-d fibers, unitary edge connections and endomorphism fields (matrix
potentials). A connection is two complex (|E|, d, d) stacks in its graph's
edge order, one per orientation of each edge; a potential is one complex
(n, d, d) stack in the order of a vertex tuple. Vertex ids are mapped to
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
from dataclasses import InitVar, dataclass

import numpy as np

from .graph import WeightedGraph, _gc_paused

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


@dataclass(frozen=True, eq=False)
class UnitaryConnection:
    """A unitary connection on the graph `graph`: two complex (|E|, d, d)
    stacks in its edge order, `phi[e]` the map from the fiber at src[e] to
    the fiber at dst[e] and `back[e]` the map from the fiber at dst[e] to
    the fiber at src[e].

    Construction checks every map, in one batched pass: finite, unitary
    (phi^* phi = I) and the inverse of its reverse (back phi = phi back =
    I), each to UNITARY_TOL in the 2-norm. A failure raises, naming the map
    by its two vertex ids. The oriented maps are numbered k < |E| for
    phi[k] and |E| + k for back[k]; they are checked in the order `order`
    gives, by default in that numbering, and the first one that fails is
    named.
    """

    graph: WeightedGraph
    phi: np.ndarray
    back: np.ndarray
    order: InitVar[np.ndarray | None] = None

    def __post_init__(self, order):
        g, d = self.graph, self.rank
        # map k, from the fiber at x[k] to the fiber at y[k], and its reverse
        maps, reverse = np.concatenate([self.phi, self.back]), np.concatenate([self.back, self.phi])
        x, y = np.concatenate([g.src, g.dst]), np.concatenate([g.dst, g.src])
        if order is not None:
            maps, reverse, x, y = maps[order], reverse[order], x[order], y[order]
        # the inverse and unitarity checks run on the maps before the first
        # one that is not finite, or whose reverse is not
        error = None
        finite = np.isfinite(maps).all(axis=(1, 2)) & np.isfinite(reverse).all(axis=(1, 2))
        for k in np.flatnonzero(~finite)[:1]:
            a, b = (x[k], y[k]) if not np.isfinite(maps[k]).all() else (y[k], x[k])
            error = f"phi({g.vertices[a]},{g.vertices[b]}) is not finite"
            maps, reverse = maps[:k], reverse[:k]
        inverse_bad = block_norms(reverse @ maps - np.eye(d)) > UNITARY_TOL
        unitary_bad = block_norms(maps.conj().swapaxes(1, 2) @ maps - np.eye(d)) > UNITARY_TOL
        for k in np.flatnonzero(inverse_bad | unitary_bad)[:1]:
            a, b = g.vertices[x[k]], g.vertices[y[k]]
            if inverse_bad[k]:
                raise ValueError(f"phi({b},{a}) is not the inverse of phi({a},{b})")
            raise ValueError(f"phi({a},{b}) not unitary")
        if error:
            raise ValueError(error)

    @property
    def rank(self) -> int:
        return self.phi.shape[-1]

    @staticmethod
    def trivial(g: WeightedGraph, rank: int = 1) -> "UnitaryConnection":
        eye = np.repeat(np.eye(rank, dtype=complex)[None], g.src.size, axis=0)
        return UnitaryConnection(g, eye, eye)

    @staticmethod
    def from_edge_phases(g: WeightedGraph, phases) -> "UnitaryConnection":
        """Rank-1 magnetic connection: phi[e] = exp(i phases[e]), one phase
        per edge, from src[e] to dst[e]."""
        theta = np.asarray(phases, dtype=float)[:, None, None]
        return UnitaryConnection(g, np.exp(1j * theta), np.exp(-1j * theta))


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


def _matrices(items, rank: int, what) -> np.ndarray:
    """A list of rank x rank matrices of a bundle file as one complex
    (len, rank, rank) stack, read by one np.array when every entry is a
    number; otherwise `_matrix` reads them in order, what(k) naming the k-th,
    so the first malformed one raises."""
    try:
        parts = np.array(items)
    except (TypeError, ValueError):  # ragged
        parts = None
    if (parts is not None and parts.dtype.kind in "biuf"
            and parts.shape == (len(items), rank, rank, 2)):
        return np.ascontiguousarray(parts, dtype=float).view(complex)[..., 0]
    return _stack([_matrix(m, rank, what(k)) for k, m in enumerate(items)], rank)


def _orthonormal_frames(metric, vertices, rank: int):
    """(L^*, L^{-*}) as two (n, rank, rank) stacks in vertex order, for the
    Cholesky factors of g_x = L_x L_x^*. L_x^* maps fiber coordinates to
    orthonormal ones."""
    check_vertex_set("metric", metric, vertices)
    gm = _matrices([metric[v] for v in vertices], rank, lambda k: f"metric at {vertices[k]}")
    # each property batched over all vertices, as for potentials
    _raise_first(vertices, ~np.isfinite(gm).all(axis=(1, 2)), "metric at {} is not finite")
    _raise_first(vertices, _asymmetry(gm) > HERMITIAN_TOL, "metric at {} not Hermitian")
    _raise_first(vertices, np.linalg.eigvalsh(gm)[:, 0] <= 0,
                 "metric at {} not positive definite")
    lh = np.linalg.cholesky(gm).conj().swapaxes(1, 2)
    return lh, np.linalg.inv(lh)


def _connection_stacks(g: WeightedGraph, x: np.ndarray, edge: np.ndarray, mats: np.ndarray):
    """(phi, back, order) of `UnitaryConnection` for the connection entries
    of a file: entry k gives the map mats[k] on the edge edge[k], from the
    fiber at vertex x[k]. An orientation given twice keeps its last matrix;
    one not given is the inverse of the first matrix given for its edge,
    all inverted in one batch. `order` checks the edges in the order of
    their first entries, the orientation given first before its reverse.
    Raises for the first edge, in edge order, that no entry gives."""
    m = g.src.size
    slot = np.where(x == g.src[edge], edge, edge + m)  # numbered as `order` numbers maps
    maps = np.empty((2 * m, *mats.shape[1:]), dtype=complex)
    last = slot.size - 1 - np.unique(slot[::-1], return_index=True)[1]
    maps[slot[last]] = mats[last]
    first = np.unique(edge, return_index=True)[1]
    lead = slot[first]
    rest = (lead + m) % (2 * m)
    unset = np.ones(2 * m, dtype=bool)
    unset[slot] = False
    fill = unset[rest]
    maps[rest[fill]] = np.linalg.inv(mats[first[fill]])
    for e in np.flatnonzero(unset[:m] & unset[m:])[:1]:
        raise ValueError(f"connection has no entry for edge "
                         f"({g.vertices[g.src[e]]},{g.vertices[g.dst[e]]})")
    by_first = np.argsort(first)
    return maps[:m], maps[m:], np.stack([lead[by_first], rest[by_first]], axis=1).ravel()


@_gc_paused()
def load_bundle(path, g: WeightedGraph):
    """Load (rank, connection, potentials) from the JSON bundle format,
    checked against the graph g and in orthonormal fiber coordinates. A
    file without a connection gets the trivial one. Each potential is one
    stack in the graph's vertex order, whatever the order of its keys. The
    cyclic collector is paused throughout, as for `graph.load_graph`."""
    with open(path) as fh:
        doc = json.load(fh)
    rank = int(doc["rank"])
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be in [1, {MAX_RANK}], got {rank}")
    order = None
    if "connection" in doc:
        # an entry's edge is found by its key x*n + y, x <= y, among the
        # graph's sorted keys (no np.isin, which imports numpy.ma); the
        # matrices before the first entry off the graph are read first, so a
        # malformed one of them raises first, as entry by entry
        entries = doc["connection"]
        if not set(map(type, entries)) <= {dict}:
            e = next(e for e in entries if type(e) is not dict)
            raise ValueError(f"connection entry {e!r} is not an object")
        pairs = [(e["u"], e["v"]) for e in entries]
        x, y = (g.indices([p[end] for p in pairs]) for end in (0, 1))
        keys, by_key = np.minimum(x, y) * g.n + np.maximum(x, y), np.argsort(g.src * g.n + g.dst)
        # a sentinel above every key ends the sorted keys
        ends = np.append((g.src * g.n + g.dst)[by_key], np.iinfo(np.intp).max)
        at = np.searchsorted(ends, keys)
        off = np.flatnonzero((np.minimum(x, y) < 0) | (ends[at] != keys))
        stop = off[0] if off.size else len(entries)
        mats = _matrices([e["phi"] for e in entries[:stop]], rank,
                         lambda k: "phi({},{})".format(*pairs[k]))
        for k in off[:1]:
            raise ValueError("connection entry ({},{}) is not an edge of the graph".format(*pairs[k]))
        phi, back, order = _connection_stacks(g, x, by_key[at], mats)
    else:
        phi = back = UnitaryConnection.trivial(g, rank).phi
    potentials = {}
    for name, values in doc.get("potentials", {}).items():
        check_vertex_set(f"potential {name!r}", values, g.vertices)
        potentials[name] = _matrices([values[v] for v in g.vertices], rank,
                                     lambda k: f"potential {name!r} at {g.vertices[k]}")
    metric = doc.get("metric", "identity")
    if metric != "identity":
        lh, lh_inv = _orthonormal_frames(metric, g.vertices, rank)
        phi, back = lh[g.dst] @ phi @ lh_inv[g.src], lh[g.src] @ back @ lh_inv[g.dst]
        potentials = {name: lh @ blocks @ lh_inv for name, blocks in potentials.items()}
    fields = {}
    for name, blocks in potentials.items():
        try:
            fields[name] = EndomorphismField.from_blocks(rank, g.vertices, blocks,
                                                         self_adjoint=True)
        except ValueError as e:
            raise ValueError(f"potential {name!r}: {e}") from None
    return rank, UnitaryConnection(g, phi, back, order), fields


def dump_bundle(path, rank: int, connection=None, potentials=None):
    """Write the JSON bundle format, with the identity metric."""
    doc = {"rank": rank}
    if connection is not None:
        # both orientations of every edge, sorted by their ids, so that
        # loading the file gives back both stacks bit for bit
        g, maps = connection.graph, np.concatenate([connection.phi, connection.back])
        ends = zip(np.concatenate([g.src, g.dst]).tolist(), np.concatenate([g.dst, g.src]).tolist())
        doc["connection"] = [{"u": u, "v": v, "phi": _complex_matrix_to_json(maps[k])}
                             for u, v, k in sorted((g.vertices[i], g.vertices[j], k)
                                                   for k, (i, j) in enumerate(ends))]
    if potentials:
        doc["potentials"] = {
            name: dict(zip(W.vertices, map(_complex_matrix_to_json, W.blocks)))
            for name, W in potentials.items()}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
