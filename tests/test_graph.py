import gc
import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatcert import graph
from heatcert.graph import (
    ADJACENCY_EPS,
    Exhaustion,
    GraphFormatError,
    WeightedGraph,
    _hops,
    build_exhaustion,
    dump_graph,
    load_graph,
    lq_norm,
    make_graph,
    path_graph,
    random_graph,
    validate_graph,
)


def bfs_connected(g):
    # independent connectivity oracle
    seen = {g.vertices[0]}
    q = deque(seen)
    while q:
        v = q.popleft()
        for pair, w in g.b.items():
            if v in pair and w > 0:
                (other,) = set(pair) - {v} if len(pair) == 2 else (v,)
                if other not in seen:
                    seen.add(other)
                    q.append(other)
    return len(seen) == g.n


class TestValidate:
    def test_single_vertex_valid(self):
        g = make_graph(["x"], {"x": 1.0}, [])
        assert validate_graph(g).ok

    def test_no_vertices_invalid(self):
        report = validate_graph(make_graph([], {}, []))
        assert not report.ok and report.violations == ["graph has no vertices"]

    def test_asymmetry_impossible_by_construction(self):
        # the loader stores one value per unordered pair, so conflicting
        # directions surface as a duplicate-edge rejection
        with pytest.raises(GraphFormatError, match="duplicate edge"):
            make_graph(["1", "2"], {"1": 1, "2": 1},
                       [("1", "2", 1.0), ("2", "1", 2.0)])

    def test_path_valid_and_connected(self):
        g = path_graph(10)
        assert validate_graph(g).ok
        assert bfs_connected(g)

    def test_duplicate_vertex_id_named(self):
        # the first id whose repeat comes first in vertex order
        with pytest.raises(GraphFormatError, match="duplicate vertex id b$"):
            make_graph(["a", "b", "c", "b", "a"], {"a": 1, "b": 1, "c": 1}, [])

    def test_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="loop"):
            make_graph(["x"], {"x": 1.0}, [("x", "x", 1.0)])

    def test_disconnection_reported(self):
        g = make_graph(["a", "b", "c"], {"a": 1, "b": 1, "c": 1},
                       [("a", "b", 1.0)])
        rep = validate_graph(g)
        assert not rep.ok
        assert any("disconnected" in v for v in rep.violations)

    def test_nonpositive_rho_reported(self):
        g = make_graph(["a", "b"], {"a": 1, "b": 0.0}, [("a", "b", 1.0)])
        rep = validate_graph(g)
        assert any("rho" in v for v in rep.violations)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rho_reported(self, bad):
        g = make_graph(["a", "b", "c"], {"a": 1.0, "b": 1.0, "c": bad},
                       [("a", "b", 1.0), ("b", "c", 1.0)])
        assert validate_graph(g).violations == ["non-finite rho at c"]

    def test_nan_edge_weight_reported_in_b_order(self):
        g = make_graph(["a", "b", "c", "d"], {v: 1.0 for v in "abcd"},
                       [("a", "b", math.nan), ("b", "c", -1.0), ("c", "d", 1.0)])
        # each edge is named with its endpoints in vertex order
        assert validate_graph(g).violations == [
            "non-finite weighted degree at a",
            "non-finite weighted degree at b",
            "NaN edge weight on (a,b)",
            "negative edge weight on (b,c)",
            "graph disconnected; unreachable e.g. ['b', 'c', 'd']",
        ]


class TestLqNorm:
    def test_constant_function(self):
        m = np.array([1.0, 1.0, 1.0])
        f = np.array([1.0, 1.0, 1.0])
        assert lq_norm(f, 2, m) == pytest.approx(math.sqrt(3), abs=1e-15)

    def test_delta_q1(self):
        assert lq_norm(np.array([1.0]), 1, np.array([4.0])) == 4.0

    def test_infinity_is_max(self):
        m = np.array([0.5, 3.0])
        assert lq_norm(np.array([-7.0, 2.0]), math.inf, m) == 7.0

    def test_rejects_q_below_one(self):
        with pytest.raises(ValueError):
            lq_norm(np.array([1.0]), 0.5, np.array([1.0]))

    def test_against_exact_rational_oracle(self):
        # dyadic inputs make the q=3 sum exactly representable as a Fraction
        rng = np.random.default_rng(7)
        vals = [Fraction(int(rng.integers(-64, 64)), 32) for _ in range(50)]
        weights = [Fraction(int(rng.integers(1, 64)), 16) for _ in range(50)]
        m = np.array([float(w) for w in weights])
        f = np.array([float(x) for x in vals])
        exact = sum(abs(x) ** 3 * w for x, w in zip(vals, weights))
        expected = float(exact) ** (1.0 / 3.0)
        assert lq_norm(f, 3, m) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 10), min_size=3, max_size=10),
           st.floats(1, 8))
    def test_monotone_in_pointwise_abs(self, base, q):
        m = np.ones(len(base))
        small = np.array(base)
        large = small * 2 + 1
        assert lq_norm(small, q, m) <= lq_norm(large, q, m) + 1e-12


def names(g, level):
    """The vertex ids at a level's positions."""
    return frozenset(g.vertices[i] for i in level)


class TestExhaustion:
    def test_single_vertex(self):
        g = make_graph(["x"], {"x": 1.0}, [])
        ex = build_exhaustion(g, "x", [1, 2, 3])
        assert [names(g, lv) for lv in ex.levels] == [frozenset({"x"})]

    def test_path_ball_sizes(self):
        g = path_graph(7)
        ex = build_exhaustion(g, "v0", [1, 2, 3])
        assert [len(lv) for lv in ex.levels] == [2, 3, 4]

    def test_star_radius_one(self):
        center = "c"
        leaves = [f"l{i}" for i in range(5)]
        g = make_graph([center] + leaves, {v: 1.0 for v in [center] + leaves},
                       [(center, leaf, 1.0) for leaf in leaves])
        ex = build_exhaustion(g, center, [1])
        assert len(ex.levels[0]) == 6

    def test_levels_nested(self):
        rng = np.random.default_rng(0)
        g = random_graph(30, rng)
        ex = build_exhaustion(g, g.vertices[0], [1, 2, 3, 4, 10])
        for a, b in zip(ex.levels, ex.levels[1:]):
            assert names(g, a) < names(g, b)

    def test_rejects_disconnected(self):
        g = make_graph(["a", "b"], {"a": 1, "b": 1}, [])
        with pytest.raises(ValueError):
            build_exhaustion(g, "a", [1, 2])

    def test_levels_are_read_only_position_arrays(self):
        ex = build_exhaustion(path_graph(7), "v3", [1, 2])
        assert [lv.tolist() for lv in ex.levels] == [[2, 3, 4], [1, 2, 3, 4, 5]]
        for lv in ex.levels:
            assert lv.dtype == np.intp and not lv.flags.writeable

    @pytest.mark.parametrize("levels, message", [
        (([1, 0],), "strictly ascending"),
        (([0, 1, 1],), "strictly ascending"),
        (([0.0, 1.0],), "strictly ascending"),
        (([-1, 0],), "strictly ascending"),
        (([[0, 1]],), "strictly ascending"),
        (([0, 1], [0, 2, 3]), "strictly nested"),
        (([0, 1], [0, 1]), "strictly nested"),
    ], ids=["unsorted", "duplicated", "float", "negative", "2-d", "not-nested", "equal"])
    def test_rejects_malformed_levels(self, levels, message):
        with pytest.raises(ValueError, match=message):
            Exhaustion(tuple(np.array(lv) for lv in levels))


def test_generators_produce_valid_graphs():
    rng = np.random.default_rng(11)
    for n in (2, 10, 41):
        assert validate_graph(random_graph(n, rng)).ok
    assert validate_graph(path_graph(17)).ok


@pytest.mark.parametrize("enabled", [True, False])
def test_load_graph_leaves_collector_as_found(tmp_path, enabled):
    good, bad = tmp_path / "g.json", tmp_path / "bad.json"
    dump_graph(path_graph(5), good)
    bad.write_text('{"vertices": [{"id": "a"}], "edges": []}')
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert load_graph(good).n == 5
        assert gc.isenabled() == enabled
        with pytest.raises(GraphFormatError):
            load_graph(bad)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_violations_keep_their_order():
    # per vertex: rho, then degree; then negative weights in edge order. The
    # loop at a cannot come from make_graph, so the arrays are given directly
    g = WeightedGraph(("a", "b", "c", "d"), np.array([1.0, 0.0, 1.0, 1.0]),
                      np.array([0, 0, 1, 2]), np.array([0, 1, 2, 3]),
                      np.array([0.0, math.inf, -1.0, 1.0]))
    assert validate_graph(g).violations == [
        "loop at a",
        "non-finite weighted degree at a",
        "nonpositive rho at b",
        "non-finite weighted degree at b",
        "negative edge weight on (b,c)",
        "graph disconnected; unreachable e.g. ['c', 'd']",
    ]


@pytest.mark.parametrize("bridge, connected", [(1e-16, False), (1e-14, True)])
def test_sub_eps_bridge_counts_in_degree_only(bridge, connected):
    assert (bridge > ADJACENCY_EPS) == connected
    g = make_graph(["a", "b", "c"], {"a": 1.0, "b": 1.0, "c": 1.0},
                   [("a", "b", 1.0), ("b", "c", bridge)])
    assert g.deg[g.index("c")] == bridge
    assert g.deg[g.index("b")] == 1.0 + bridge
    rep = validate_graph(g)
    if connected:
        assert rep.ok
        assert names(g, build_exhaustion(g, "a", [1, 2]).levels[-1]) == frozenset(g.vertices)
    else:
        assert rep.violations == ["graph disconnected; unreachable e.g. ['c']"]
        with pytest.raises(ValueError, match="disconnected"):
            build_exhaustion(g, "a", [1, 2])


def reference_balls(g, root, radii):
    """build_exhaustion's levels from one BFS per radius over g.b."""
    levels = []
    for r in radii:
        seen, frontier = {root}, [root]
        for _ in range(max(r, 0)):
            reached = []
            for x in frontier:
                for pair, w in g.b.items():
                    if x in pair and w > ADJACENCY_EPS:
                        for y in pair - {x}:
                            if y not in seen:
                                seen.add(y)
                                reached.append(y)
            frontier = reached
        if levels and seen == levels[-1]:
            break
        levels.append(frozenset(seen))
        if len(seen) == g.n:
            break
    return levels


@pytest.mark.parametrize("seed", range(5))
def test_exhaustion_balls_match_reference_bfs(seed):
    # sparse random hosts with some sub-eps, NaN and negative chords, which
    # must not shorten hops
    rng = np.random.default_rng(seed)
    g = random_graph(40, rng, p=0.04)
    edges = [(*tuple(pair), w) for pair, w in g.b.items()]
    chords = {}
    for k in range(15):
        u, v = rng.choice(g.vertices, size=2, replace=False)
        if frozenset((u, v)) not in g.b:
            chords.setdefault(frozenset((u, v)), (u, v, (1e-16, math.nan, -1.0)[k % 3]))
    g = make_graph(g.vertices, g.rho, edges + list(chords.values()))
    root = str(rng.choice(g.vertices))
    radii = [0, 1, 2, 3, 5, 8, 13, 40]
    levels = build_exhaustion(g, root, radii).levels
    assert [names(g, lv) for lv in levels] == reference_balls(g, root, radii)


def reference_hops(g, root):
    """Hop counts from root by a breadth-first search over g.b, in vertex order."""
    hops = {root: 0}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for pair, w in g.b.items():
            if x in pair and w > ADJACENCY_EPS:
                for y in pair - {x}:
                    if y not in hops:
                        hops[y] = hops[x] + 1
                        queue.append(y)
    return [float(hops.get(v, math.inf)) for v in g.vertices]


def random_host(seed):
    """Sparse seeded host with sub-eps, NaN and negative edges among the good ones."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    names = [f"v{i}" for i in range(n)]
    weights = (0.5, 1.0, 2.0, ADJACENCY_EPS, 1e-16, 0.0, math.nan, -1.0)
    edges = {}
    for _ in range(int(rng.integers(0, 2 * n))):
        u, v = rng.choice(n, size=2, replace=False)
        edges[frozenset((names[u], names[v]))] = weights[rng.integers(len(weights))]
    rho = {v: 1.0 for v in names}
    return make_graph(names, rho, [(*sorted(pair), w) for pair, w in edges.items()])


HOP_HOSTS = {
    "single-vertex": lambda: make_graph(["x"], {"x": 1.0}, []),
    "isolated-vertices": lambda: make_graph(
        list("abcde"), {v: 1.0 for v in "abcde"}, [("a", "b", 1.0), ("b", "d", 1.0)]),
    "disconnected": lambda: make_graph(
        [f"v{i}" for i in range(8)], {f"v{i}": 1.0 for i in range(8)},
        [(f"v{i}", f"v{i + 1}", 1.0) for i in (0, 1, 2, 4, 5, 6)]),
    "bad-weight-bridges": lambda: make_graph(
        list("abcdef"), {v: 1.0 for v in "abcdef"},
        [("a", "b", 1.0), ("b", "c", ADJACENCY_EPS), ("c", "d", 1.0),
         ("d", "e", math.nan), ("e", "f", -2.0), ("a", "f", 1e-14)]),
    **{f"random-{seed}": (lambda seed=seed: random_host(seed)) for seed in range(8)},
}


@pytest.mark.parametrize("host", HOP_HOSTS)
def test_hops_match_reference_bfs(host):
    g = HOP_HOSTS[host]()
    for root in range(g.n):
        hops = _hops(g, root)
        assert hops.dtype == float and hops.shape == (g.n,)
        assert hops.tolist() == reference_hops(g, g.vertices[root])
    # edges that are not adjacency still count in the weighted degree
    deg = [sum((w for pair, w in g.b.items() if v in pair), 0.0) for v in g.vertices]
    np.testing.assert_array_equal(g.deg, deg)


def test_build_exhaustion_searches_once(monkeypatch):
    calls = []

    def counted(g, root):
        calls.append(root)
        return _hops(g, root)

    monkeypatch.setattr(graph, "_hops", counted)
    g = path_graph(9)
    assert [len(lv) for lv in build_exhaustion(g, "v4", [1, 2, 4]).levels] == [3, 5, 9]
    assert calls == [4]
    cut = make_graph(list("abc"), {v: 1.0 for v in "abc"}, [("b", "c", 1.0)])
    with pytest.raises(ValueError, match="cannot exhaust a disconnected host"):
        build_exhaustion(cut, "b", [2, 1])
    assert calls == [4, 1]


# --- the file format: round trip and refusals --------------------------------

ids_st = st.lists(st.text("abcxyz_0123456789", min_size=1, max_size=4), min_size=1,
                  max_size=8, unique=True)
weight_st = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                      st.integers(-3, 3), st.sampled_from([0.0, -0.0]))


@st.composite
def graph_docs(draw):
    """A graph file `load_graph` accepts: string ids, numbers for rho and b,
    no loop, each repeated pair with its first b."""
    ids = draw(ids_st)
    verts = [{"id": v, "rho": draw(weight_st)} for v in ids]
    edges, first = [], {}
    for _ in range(draw(st.integers(0, 12)) if len(ids) > 1 else 0):
        u, v = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
        if u != v:
            b = first.setdefault(frozenset((u, v)), draw(weight_st))
            edges.append({"u": u, "v": v, "b": b})
    return {"vertices": verts, "edges": edges}


FAULTS = ("non-string id", "bool rho", "string b", "unknown endpoint", "loop",
          "differing b", "duplicate id")


def add_fault(doc, fault) -> str:
    """Put one fault into an accepted graph file; returns the message that
    must name it. "?" is an id no generated file holds."""
    verts, edges = doc["vertices"], doc["edges"]
    first, last = verts[0]["id"], verts[-1]["id"]
    if fault == "non-string id":
        verts[-1]["id"] = 7
        return "vertex id 7 is not a string"
    if fault == "bool rho":
        verts[-1]["rho"] = True
        return f"rho({last}) is not a number"
    if fault == "string b":
        edges.append({"u": first, "v": last, "b": "1"})
        return f"b({first},{last}) is not a number"
    if fault == "unknown endpoint":
        edges.append({"u": first, "v": "?", "b": 1.0})
        return f"edge ({first},?) references unknown vertex"
    if fault == "loop":
        edges.append({"u": last, "v": last, "b": 1.0})
        return f"loop at {last}"
    if fault == "differing b":
        verts.append({"id": "?", "rho": 1.0})
        edges += [{"u": first, "v": "?", "b": 1.0}, {"u": "?", "v": first, "b": 2.0}]
        return f"duplicate edge (?,{first}) with differing b"
    verts.append(dict(verts[0]))
    return f"duplicate vertex id {first}"


def _validate(path):
    """Exit code and stderr of `graph validate` on a file."""
    import contextlib
    import io

    from heatcert.cli import main

    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(["graph", "validate", "--graph", str(path)])
    return code, err.getvalue()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(graph_docs(), st.sampled_from(FAULTS))
def test_file_format_round_trip(doc, fault):
    # every accepted graph dumps, and loads back to the same arrays (the
    # dump lists the edges sorted by their ids); a second dump is byte for
    # byte the first. One fault in the file exits 1 and names its item.
    import copy
    import json
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        src, once, twice = (Path(tmp) / f"{k}.json" for k in ("src", "once", "twice"))
        src.write_text(json.dumps(doc))
        g = load_graph(src)
        dump_graph(g, once)
        back = load_graph(once)
        dump_graph(back, twice)
        assert once.read_bytes() == twice.read_bytes()
        assert back.vertices == g.vertices
        assert np.array_equal(back.rho_vec, g.rho_vec, equal_nan=True)
        order = np.lexsort(([min(g.vertices[i], g.vertices[j]) for i, j in zip(g.src, g.dst)],
                            [max(g.vertices[i], g.vertices[j]) for i, j in zip(g.src, g.dst)])[::-1])
        for name in ("src", "dst", "w"):
            assert np.array_equal(getattr(back, name), getattr(g, name)[order], equal_nan=True)
        again = load_graph(twice)
        for name in ("rho_vec", "src", "dst", "w"):
            assert np.array_equal(getattr(again, name), getattr(back, name), equal_nan=True)
        bad = copy.deepcopy(doc)
        message = add_fault(bad, fault)
        src.write_text(json.dumps(bad))
        code, err = _validate(src)
        assert code == 1 and message in err and "Traceback" not in err


@pytest.mark.parametrize("change, message", [
    # type checks first: ids, then rho, then b; then duplicate ids; then the
    # first bad edge in file order, whatever its kind
    (lambda d: (d["vertices"][2].update(rho=True), d["vertices"][1].update(id=5)),
     "vertex id 5 is not a string"),
    (lambda d: (d["edges"][0].update(b="1"), d["vertices"][3].update(rho=None)),
     "rho(v3) is not a number"),
    (lambda d: (d["vertices"].append({"id": "v0", "rho": 1.0}), d["edges"][2].update(b=None)),
     "b(v2,v3) is not a number"),
    (lambda d: (d["edges"].insert(0, {"u": "v1", "v": "v1", "b": 1.0}),
                d["vertices"].append({"id": "v2", "rho": 1.0})),
     "duplicate vertex id v2"),
    (lambda d: (d["edges"].insert(1, {"u": "v1", "v": "v1", "b": 1.0}),
                d["edges"].insert(1, {"u": "v1", "v": "q", "b": 1.0})),
     "edge (v1,q) references unknown vertex"),
    (lambda d: (d["edges"].insert(1, {"u": "v1", "v": "q", "b": 1.0}),
                d["edges"].insert(1, {"u": "v2", "v": "v2", "b": 1.0})),
     "loop at v2"),
    (lambda d: (d["edges"].append({"u": "v3", "v": "v3", "b": 1.0}),
                d["edges"].insert(1, {"u": "v1", "v": "v0", "b": math.nan})),
     "duplicate edge (v1,v0) with differing b"),
], ids=["id-before-rho", "rho-before-b", "b-before-duplicate-id", "duplicate-id-before-loop",
        "unknown-before-loop", "loop-before-unknown", "differing-b-before-loop"])
def test_first_fault_wins(change, message, tmp_path):
    import json

    doc = {"vertices": [{"id": f"v{i}", "rho": 1.0} for i in range(4)],
           "edges": [{"u": f"v{i}", "v": f"v{i + 1}", "b": 1.0} for i in range(3)]}
    change(doc)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    code, err = _validate(path)
    assert code == 1 and message in err
