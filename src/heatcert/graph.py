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
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from types import MappingProxyType

import numpy as np

# Edge weights below this are ignored for adjacency (x ~ y) but kept in sums,
# so connectivity does not flap on float dust.
ADJACENCY_EPS = 1e-15


class GraphFormatError(ValueError):
    """Raised when a graph file or constructor input is malformed."""


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Immutable weighted graph as integer-indexed arrays; vertex order fixes
    all matrix indexing. It is the ids `vertices`, their weights `rho_vec`,
    and one edge per unordered pair in first-occurrence order: vertex indices
    `src` <= `dst` (a loop has src == dst) and weights `w`. Derived once: the
    weighted degrees `deg`, and the neighbours `nbr[nbr_ptr[i]:nbr_ptr[i+1]]`
    of vertex i by the edges with w > ADJACENCY_EPS. The maps `rho` and `b`
    (frozenset pair -> weight, in edge order) are views built on first use."""

    vertices: tuple[str, ...]
    rho_vec: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    deg: np.ndarray = field(init=False, repr=False)
    nbr_ptr: np.ndarray = field(init=False, repr=False)
    nbr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        src, dst, w, n = self.src, self.dst, self.w, len(self.vertices)
        # per edge src, then dst, so each entry sums in edge order; sub-eps
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
        for name, value in (("_index", dict(zip(self.vertices, range(n)))), ("deg", deg),
                            ("nbr_ptr", nbr_ptr), ("nbr", nbr)):
            object.__setattr__(self, name, value)

    @cached_property
    def rho(self) -> MappingProxyType:
        return MappingProxyType(dict(zip(self.vertices, self.rho_vec.tolist())))

    @cached_property
    def b(self) -> MappingProxyType:
        ids = self.vertices
        return MappingProxyType({frozenset((ids[i], ids[j])): w for i, j, w in zip(
            self.src.tolist(), self.dst.tolist(), self.w.tolist())})

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, v: str) -> int:
        return self._index[v]

    def indices(self, ids) -> np.ndarray:
        """The index of each of the vertex ids, -1 for an unknown one."""
        return _lookup(self._index, ids)


def _lookup(index: dict, ids) -> np.ndarray:
    """index[v] for each v of ids, -1 where v is not a key of index (a
    string-keyed map): a JSON list or object is none."""
    try:
        return np.fromiter(map(index.get, ids, repeat(-1)), np.intp, len(ids))
    except TypeError:  # unhashable
        return _lookup(index, [None if type(v) in (list, dict) else v for v in ids])


def _graph_arrays(ids, rhos, us, vs, bs):
    """(vertices, rho_vec, src, dst, w) of a WeightedGraph from ids, weights
    rhos (read last) and edges (us[k], vs[k], bs[k]). GraphFormatError names
    a duplicate id, else the first edge with an unknown endpoint, a loop, or
    a b unequal to its pair's first (NaN included); equal repeats merge."""
    vertices, n = tuple(ids), len(ids)
    index = dict(zip(vertices, range(n)))
    if len(index) != n:  # name the first repeat: the first id not at its first position
        first = dict(zip(reversed(vertices), range(n - 1, -1, -1)))
        v = next(v for k, v in enumerate(vertices) if first[v] != k)
        raise GraphFormatError(f"duplicate vertex id {v}")
    a, c = _lookup(index, us), _lookup(index, vs)
    w = np.array(bs, dtype=float)
    lo, hi = np.minimum(a, c), np.maximum(a, c)
    _, first, inverse = np.unique(lo * n + hi, return_index=True, return_inverse=True)
    differ = (first[inverse] != np.arange(w.size)) & (w != w[first[inverse]])
    for k in np.flatnonzero((lo < 0) | (a == c) | differ)[:1]:
        raise GraphFormatError(f"edge ({us[k]},{vs[k]}) references unknown vertex" if lo[k] < 0
                               else f"loop at {us[k]}" if a[k] == c[k]
                               else f"duplicate edge ({us[k]},{vs[k]}) with differing b")
    keep = np.sort(first)
    return vertices, np.array(list(rhos), dtype=float), lo[keep], hi[keep], w[keep]


def make_graph(vertices, rho, edges) -> WeightedGraph:
    """A WeightedGraph from (id list, rho map, (u, v, b) triples), by `_graph_arrays`."""
    vertices, edges = tuple(vertices), list(edges)
    us, vs, bs = zip(*edges) if edges else ((), (), ())
    return WeightedGraph(*_graph_arrays(vertices, map(rho.__getitem__, vertices), us, vs, bs))


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
    if root not in g._index:
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

@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, and restore its previous state on
    the way out, an error included. Used as a decorator on the file loaders:
    a JSON parse makes containers per vertex and edge and no cycles, and the
    collector would run over them many times and reclaim nothing (some 50
    runs on a 4,096-vertex lattice, at times over the whole heap). The parsed
    document is freed by reference counting when the loader returns, before
    the collector resumes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_gc_paused()
def load_graph(path) -> WeightedGraph:
    """The graph of a JSON file {"vertices": [{"id", "rho"}], "edges": [{"u",
    "v", "b"}]}: its fields in lists, checked by type, then by `_graph_arrays`."""
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
    us, vs, bs = zip(*edges) if edges else ((), (), ())
    # ids are strings: a CLI spec names a vertex by a string, and
    # `dump_graph` sorts ids; a scan runs only to name a check's offender
    number = {int, float}
    if not set(map(type, vertices)) <= {str}:
        v = next(v for v in vertices if type(v) is not str)
        raise GraphFormatError(f"{path}: vertex id {v!r} is not a string")
    if not set(map(type, rhos)) <= number:  # a repeated id keeps its last rho
        for v, r in dict(zip(vertices, rhos)).items():
            if type(r) not in number:
                raise GraphFormatError(f"{path}: rho({v}) is not a number")
    if not set(map(type, bs)) <= number:
        u, v, _ = next(e for e in edges if type(e[2]) not in number)
        raise GraphFormatError(f"{path}: b({u},{v}) is not a number")
    return WeightedGraph(*_graph_arrays(vertices, rhos, us, vs, bs))


def dump_graph(g: WeightedGraph, path):
    """Write g in `load_graph`'s format, each edge once, sorted by its ids."""
    ids = g.vertices
    edges = sorted((tuple(sorted((ids[i], ids[j]))), w)
                   for i, j, w in zip(g.src.tolist(), g.dst.tolist(), g.w.tolist()))
    doc = {"vertices": [{"id": v, "rho": r} for v, r in zip(ids, g.rho_vec.tolist())],
           "edges": [{"u": u, "v": v, "b": w} for (u, v), w in edges]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def path_graph(n: int, rho=1.0, b=1.0) -> WeightedGraph:
    """Path on n vertices v0 - v1 - ... - v(n-1)."""
    names = [f"v{i}" for i in range(n)]
    rho_map = dict(zip(names, np.broadcast_to(rho, n).tolist()))
    return make_graph(names, rho_map, zip(names, names[1:], [b] * (n - 1)))


def random_graph(n: int, rng: np.random.Generator, p=0.15,
                 rho_range=(0.1, 10.0), b_range=(0.2, 2.0)) -> WeightedGraph:
    """Seeded Erdos-Renyi graph, forced connected via a random spanning path."""
    names = [f"v{i}" for i in range(n)]
    rho = {v: float(rng.uniform(*rho_range)) for v in names}
    order = rng.permutation(n).tolist()
    edges = {tuple(sorted(e)): float(rng.uniform(*b_range)) for e in zip(order, order[1:])}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < p:
                edges[(i, j)] = float(rng.uniform(*b_range))
    return make_graph(names, rho, [(names[i], names[j], w) for (i, j), w in edges.items()])
