"""Weighted graphs, vertex weight vectors, and exhaustions.

A weighted graph is a triple (vertices, edge weights b, vertex weights rho):
b is symmetric with zero diagonal and finite row sums, rho is strictly
positive and defines the counting-style measure mu(A) = sum of rho over A.
Everything downstream (Laplacians, heat kernels, compactness certificates)
is built on these three ingredients.
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import dataclass, field

import numpy as np

# Edge weights below this are ignored for adjacency (x ~ y) but kept in sums,
# so connectivity does not flap on float dust.
ADJACENCY_EPS = 1e-15


class GraphFormatError(ValueError):
    """Raised when a graph file or constructor input is malformed."""


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable weighted graph. Vertex order fixes all matrix indexing.

    `vertices`, `rho` and `b` are the constructor and file-format fields.
    Everything else reads the integer form derived from them once: edge
    arrays `src` <= `dst` (vertex indices, so each edge is oriented by
    vertex order; a loop pair has src == dst) and `w` in `b` order, the vertex weight vector `rho_vec` and the weighted degree
    vector `deg` in vertex order, and the neighbour index arrays of the
    edges with w > ADJACENCY_EPS: the neighbours of vertex i are
    `nbr[nbr_ptr[i]:nbr_ptr[i + 1]]`.
    """

    vertices: tuple[str, ...]
    rho: dict[str, float]
    b: dict[frozenset, float]  # one entry per unordered pair
    src: np.ndarray = field(init=False, repr=False, compare=False)
    dst: np.ndarray = field(init=False, repr=False, compare=False)
    w: np.ndarray = field(init=False, repr=False, compare=False)
    rho_vec: np.ndarray = field(init=False, repr=False, compare=False)
    deg: np.ndarray = field(init=False, repr=False, compare=False)
    nbr_ptr: np.ndarray = field(init=False, repr=False, compare=False)
    nbr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {v: i for i, v in enumerate(self.vertices)}
        pairs = [tuple(pair) for pair in self.b]
        first = np.array([index[p[0]] for p in pairs], dtype=np.intp)
        last = np.array([index[p[-1]] for p in pairs], dtype=np.intp)
        src, dst = np.minimum(first, last), np.maximum(first, last)
        w = np.array(list(self.b.values()), dtype=float)
        n = len(self.vertices)
        rho_vec = np.array([self.rho.get(v, 0.0) for v in self.vertices], dtype=float)
        # per edge src, then dst, so each entry sums in b order; sub-eps
        # weights count, and a loop pair counts once
        ends = np.stack([src, dst], axis=1).ravel()
        once = np.ones(ends.size, dtype=bool)
        once[1::2] = src != dst
        deg = np.bincount(ends[once], np.repeat(w, 2)[once], minlength=n)
        near = w > ADJACENCY_EPS
        rows = np.concatenate([src[near], dst[near]])
        cols = np.concatenate([dst[near], src[near]])
        nbr = cols[np.argsort(rows, kind="stable")]
        nbr_ptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        for name, value in (("_index", index), ("src", src), ("dst", dst), ("w", w),
                            ("rho_vec", rho_vec), ("deg", deg), ("nbr_ptr", nbr_ptr),
                            ("nbr", nbr)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, v: str) -> int:
        return self._index[v]

    def degree(self, v: str) -> float:
        """Weighted degree sum_y b(v, y); includes sub-eps weights."""
        return float(self.deg[self._index[v]])


def make_graph(vertices, rho, edges) -> WeightedGraph:
    """Build a WeightedGraph from (id list, rho map, (u, v, b) triples).

    Symmetrizes edges; rejects loops, duplicate pairs with conflicting b,
    and unknown endpoints.
    """
    vertices = tuple(vertices)
    seen = set()
    for v in vertices:
        if v in seen:
            raise GraphFormatError(f"duplicate vertex id {v}")
        seen.add(v)
    b: dict[frozenset, float] = {}
    for u, v, w in edges:
        if u not in seen or v not in seen:
            raise GraphFormatError(f"edge ({u},{v}) references unknown vertex")
        if u == v:
            raise GraphFormatError(f"loop at {u}")
        key = frozenset((u, v))
        if key in b and b[key] != w:
            raise GraphFormatError(f"duplicate edge ({u},{v}) with differing b")
        b[key] = float(w)
    return WeightedGraph(vertices, {v: float(rho[v]) for v in vertices}, b)


def _positions(pos, n: int | None = None) -> np.ndarray:
    """pos as a read-only np.intp array; raises unless it is 1-D, integer,
    strictly ascending, nonnegative and, for n given, below n."""
    pos = np.asarray(pos)
    if (pos.ndim != 1 or pos.dtype.kind not in "iu" or np.any(pos < 0)
            or np.any(pos[1:] <= pos[:-1]) or (n is not None and np.any(pos >= n))):
        raise ValueError("a level must hold strictly ascending vertex positions"
                         + ("" if n is None else f" in [0, {n})"))
    pos = pos.astype(np.intp)
    pos.flags.writeable = False
    return pos


@dataclass(frozen=True, eq=False)
class Exhaustion:
    """Strictly nested finite vertex subsets of a host. A level is an
    ascending, read-only np.intp array of vertex positions in the host's
    vertex order, so a consumer slices with it."""

    levels: tuple[np.ndarray, ...]

    def __post_init__(self):
        levels = tuple(map(_positions, self.levels))
        for a, b in zip(levels, levels[1:]):
            if a.size >= b.size or not np.isin(a, b).all():
                raise ValueError("exhaustion levels must be strictly nested")
        object.__setattr__(self, "levels", levels)


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_graph(g: WeightedGraph) -> ValidationReport:
    """Diagnostic check of all structural invariants; never raises."""
    report = ValidationReport()
    for e in np.flatnonzero(g.src == g.dst):
        report.violations.append(f"loop at {g.vertices[g.src[e]]}")
    rho_ok = np.isfinite(g.rho_vec) & (g.rho_vec > 0)
    deg_ok = np.isfinite(g.deg)
    for i in np.flatnonzero(~(rho_ok & deg_ok)):
        if not rho_ok[i]:
            kind = "nonpositive" if np.isfinite(g.rho_vec[i]) else "non-finite"
            report.violations.append(f"{kind} rho at {g.vertices[i]}")
        if not deg_ok[i]:
            report.violations.append(f"non-finite weighted degree at {g.vertices[i]}")
    for e in np.flatnonzero(np.isnan(g.w) | (g.w < 0)):
        u, v = g.vertices[g.src[e]], g.vertices[g.dst[e]]
        kind = "NaN" if np.isnan(g.w[e]) else "negative"
        report.violations.append(f"{kind} edge weight on ({u},{v})")
    if g.n == 0:
        report.violations.append("graph has no vertices")
    else:
        unreached = np.flatnonzero(np.isinf(_hops(g, 0)))
        if unreached.size:
            missing = sorted(g.vertices[i] for i in unreached)[:5]
            report.violations.append(f"graph disconnected; unreachable e.g. {missing}")
    return report


def _hops(g: WeightedGraph, root: int) -> np.ndarray:
    """Hop count from vertex index root to every vertex; inf if unreachable."""
    # a breadth-first search over Python lists: one numpy round per level
    # would cost more than the whole search on a long path
    ptr, nbr = g.nbr_ptr.tolist(), g.nbr.tolist()
    hops = [-1] * g.n
    hops[root] = 0
    frontier, level = [root], 0
    while frontier:
        level += 1
        reached = []
        for x in frontier:
            for y in nbr[ptr[x]:ptr[x + 1]]:
                if hops[y] < 0:
                    hops[y] = level
                    reached.append(y)
        frontier = reached
    out = np.array(hops, dtype=float)
    out[out < 0] = np.inf
    return out


def lq_norm(f: np.ndarray, q: float, weights: np.ndarray) -> float:
    """L^q norm of a vertex function w.r.t. the vertex weights; q in [1, inf]."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    f = np.abs(f)
    if math.isinf(q):
        return float(np.max(f, initial=0.0))
    return float(np.sum(f ** q * weights) ** (1.0 / q))


def build_exhaustion(g: WeightedGraph, root: str, radii) -> Exhaustion:
    """Exhaustion by hop-count balls around the vertex id root with
    increasing radii, each ball the positions of its vertices in g's order.

    Truncates once the full host is covered (further radii add nothing).
    """
    if root not in g.rho:
        raise ValueError(f"unknown root {root}")
    hops = _hops(g, g.index(root))
    if np.isinf(hops).any():
        raise ValueError("cannot exhaust a disconnected host")
    radii = list(radii)
    if sorted(radii) != radii or len(set(radii)) != len(radii):
        raise ValueError("radii must be strictly increasing")
    levels = []
    for r in radii:
        ball = np.flatnonzero(hops <= max(r, 0))  # a ball always holds its root
        # balls grow with the radius, so one of the same size is the same ball
        if levels and ball.size == levels[-1].size:
            break
        levels.append(ball)
        if ball.size == g.n:
            break
    return Exhaustion(tuple(levels))


# ---------------------------------------------------------------------------
# file I/O and generators used by the CLI and the test-suite

def load_graph(path) -> WeightedGraph:
    # Loading makes a few containers per vertex and edge and no reference
    # cycles, so the cyclic collector is paused meanwhile: on a 4,096-vertex
    # lattice it would otherwise run some 50 times per file, at times over
    # the whole heap, and reclaim nothing.
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as e:
                raise GraphFormatError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}")
        try:
            vertices = [v["id"] for v in doc["vertices"]]
            rhos = [v["rho"] for v in doc["vertices"]]
            edges = [(e["u"], e["v"], e["b"]) for e in doc["edges"]]
        except (KeyError, TypeError) as e:
            raise GraphFormatError(f"{path}: missing field {e}")
        # ids are strings at the JSON boundary: a CLI spec names a vertex by
        # a string, and `dump_graph` sorts the edge pairs
        for v in vertices:
            if not isinstance(v, str):
                raise GraphFormatError(f"{path}: vertex id {v!r} is not a string")
        rho = dict(zip(vertices, rhos))
        for v, r in rho.items():
            if isinstance(r, bool) or not isinstance(r, (int, float)):
                raise GraphFormatError(f"{path}: rho({v}) is not a number")
        for u, v, w in edges:
            if isinstance(w, bool) or not isinstance(w, (int, float)):
                raise GraphFormatError(f"{path}: b({u},{v}) is not a number")
        return make_graph(vertices, rho, edges)
    finally:
        if enabled:
            gc.enable()


def dump_graph(g: WeightedGraph, path):
    doc = {
        "vertices": [{"id": v, "rho": g.rho[v]} for v in g.vertices],
        "edges": [
            {"u": u, "v": v, "b": w}
            for (u, v), w in sorted(
                ((tuple(sorted(p)), w) for p, w in g.b.items())
            )
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def path_graph(n: int, rho=1.0, b=1.0) -> WeightedGraph:
    """Path on n vertices v0 - v1 - ... - v(n-1)."""
    names = [f"v{i}" for i in range(n)]
    rho_map = {v: rho for v in names} if np.isscalar(rho) else dict(zip(names, rho))
    edges = [(names[i], names[i + 1], b) for i in range(n - 1)]
    return make_graph(names, rho_map, edges)


def random_graph(n: int, rng: np.random.Generator, p=0.15,
                 rho_range=(0.1, 10.0), b_range=(0.2, 2.0)) -> WeightedGraph:
    """Seeded Erdos-Renyi graph, forced connected via a random spanning path."""
    names = [f"v{i}" for i in range(n)]
    rho = {v: float(rng.uniform(*rho_range)) for v in names}
    order = rng.permutation(n)
    edges = {}
    for a, c in zip(order, order[1:]):
        key = frozenset((names[a], names[c]))
        edges[key] = float(rng.uniform(*b_range))
    for i in range(n):
        for j in range(i + 1, n):
            key = frozenset((names[i], names[j]))
            if key not in edges and rng.random() < p:
                edges[key] = float(rng.uniform(*b_range))
    triples = [(*sorted(pair), w) for pair, w in edges.items()]
    return make_graph(names, rho, triples)
