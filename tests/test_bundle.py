import contextlib
import gc
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatcert.bundle import (
    EndomorphismField,
    UnitaryConnection,
    _complex_matrix_to_json,
    block_norms,
    decompose_potential,
    dump_bundle,
    load_bundle,
)
from heatcert.cli import main
from heatcert.graph import dump_graph, make_graph, path_graph, random_graph


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()[None, :]


def power_iteration_norm(m, iters=2000):
    # independent oracle for the largest singular value: power iteration
    # on m* m
    a = m.conj().T @ m
    v = np.ones(a.shape[0], dtype=complex)
    for _ in range(iters):
        v = a @ v
        v /= np.linalg.norm(v)
    return float(np.sqrt(np.real(v.conj() @ a @ v)))


class TestFiberNorms:
    def test_zero(self):
        W = EndomorphismField(2, {"x": np.zeros((2, 2))})
        assert W.norms()[0] == 0.0

    def test_diagonal(self):
        W = EndomorphismField(2, {"x": np.diag([2.0, -3.0]).astype(complex)})
        assert W.norms()[0] == pytest.approx(3.0)

    def test_against_power_iteration(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        W = EndomorphismField(3, {"x": m})
        assert W.norms()[0] == pytest.approx(power_iteration_norm(m), abs=1e-8)

    def test_triangle_inequality_pointwise(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m1 = {v: rng.standard_normal((2, 2)) for v in ("x", "y")}
            m2 = {v: rng.standard_normal((2, 2)) for v in ("x", "y")}
            w1 = EndomorphismField(2, m1)
            w2 = EndomorphismField(2, m2)
            ws = EndomorphismField(2, {v: m1[v] + m2[v] for v in m1})
            n1, n2, ns = (w.norms() for w in (w1, w2, ws))
            assert np.all(ns <= n1 + n2 + 1e-12)


class TestBlockNorms:
    """`block_norms` against np.linalg.norm(B, 2), the SVD, on every block
    kind it meets: within BLOCK_RTOL of the largest singular value."""

    BLOCK_RTOL = 4e-15

    @staticmethod
    def kinds(rng, d):
        count = 200
        random = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
        unitary = np.array([random_unitary(rng, d) for _ in range(count)])
        low_rank = random[:, :, :1] @ random[:, :1, :]  # rank 1, the rank-deficient case
        return {"random": random, "nearly-unitary": unitary,
                "rank-deficient": low_rank, "zero": np.zeros((3, d, d), dtype=complex),
                "tiny": random * 1e-200, "huge": random * 1e200}

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_the_svd(self, d):
        rng = np.random.default_rng(41)
        for kind, blocks in self.kinds(rng, d).items():
            if kind == "nearly-unitary" and d > 1:
                gram = blocks.conj().swapaxes(1, 2) @ blocks - np.eye(d)
                assert 0 < np.max(np.abs(gram)) < 1e-14
            expected = np.linalg.norm(blocks, 2, axis=(1, 2))
            got = block_norms(blocks)
            assert got.shape == expected.shape
            assert np.all(np.abs(got - expected) <= self.BLOCK_RTOL * expected), kind
            assert np.array_equal(got == 0, expected == 0), kind

    def test_real_stacks_and_leading_axes(self):
        # any leading shape, real or complex, as the Kato row blocks are
        rng = np.random.default_rng(42)
        blocks = rng.standard_normal((4, 5, 2, 2))
        expected = np.linalg.norm(blocks, 2, axis=(2, 3))
        assert np.all(np.abs(block_norms(blocks) - expected) <= self.BLOCK_RTOL * expected)
        view = rng.standard_normal((8, 12)).reshape(4, 2, 6, 2).swapaxes(1, 2)
        expected = np.linalg.norm(view, 2, axis=(2, 3))
        assert np.all(np.abs(block_norms(view) - expected) <= self.BLOCK_RTOL * expected)


def _connection_file(path, rank, entries):
    """A bundle file whose connection lists (u, v, phi(u, v)) in order."""
    path.write_text(json.dumps({"rank": rank, "connection": [
        {"u": u, "v": v, "phi": _complex_matrix_to_json(m)} for u, v, m in entries]}))
    return path


@pytest.mark.parametrize("enabled", [True, False])
def test_load_bundle_parses_with_the_collector_paused(tmp_path, monkeypatch, enabled):
    # a spy on json.load sees the collector paused; the previous state comes
    # back after a good file and after a refused one
    from heatcert import bundle

    g = path_graph(3)
    good = _connection_file(tmp_path / "good.json", 1,
                            [("v0", "v1", np.eye(1)), ("v1", "v2", np.eye(1))])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rank": 1, "connection": [["v0", "v1"]]}))
    seen, parse = [], json.load
    monkeypatch.setattr(bundle.json, "load", lambda fh: seen.append(gc.isenabled()) or parse(fh))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert load_bundle(good, g)[0] == 1
        assert gc.isenabled() == enabled
        with pytest.raises(ValueError, match=r"connection entry \['v0', 'v1'\] is not an object"):
            load_bundle(bad, g)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]


class TestConnection:
    @staticmethod
    def one_edge(phi, back):
        g = make_graph(["x", "y"], {"x": 1.0, "y": 1.0}, [("x", "y", 1.0)])
        return UnitaryConnection(g, phi[None], back[None])

    def test_unitarity_is_isometry(self):
        rng = np.random.default_rng(8)
        d = 3
        u = random_unitary(rng, d)
        conn = self.one_edge(u, np.linalg.inv(u))
        assert conn.rank == d
        for _ in range(10):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            assert np.linalg.norm(conn.phi[0] @ v) == pytest.approx(
                np.linalg.norm(v), rel=1e-10)

    def test_rejects_non_inverse_pair(self):
        rng = np.random.default_rng(8)
        u = random_unitary(rng, 2)
        with pytest.raises(ValueError, match=r"phi\(y,x\) is not the inverse of phi\(x,y\)"):
            self.one_edge(u, u)

    def test_rejects_non_unitary(self):
        m = np.array([[2.0, 0.0], [0.0, 0.5]])
        with pytest.raises(ValueError, match=r"phi\(x,y\) not unitary"):
            self.one_edge(m, np.linalg.inv(m))

    def test_first_offending_entry_in_file_order(self, tmp_path):
        # the maps are checked edge by edge in the order of the edges' first
        # entries, the orientation given first before its reverse; a map
        # that is not finite ends the checks, and a failure before it wins
        rng = np.random.default_rng(9)
        u, m, nan = random_unitary(rng, 2), np.diag([2.0, 0.5]), np.full((2, 2), np.nan)
        ok = [("a", "b", u), ("b", "a", u.conj().T)]
        bad_unitary = [("c", "d", m), ("d", "c", np.linalg.inv(m))]
        bad_inverse = [("e", "f", u), ("f", "e", u)]
        nan_reverse = [("r", "s", u), ("s", "r", nan)]
        cases = [
            (ok + bad_unitary + bad_inverse, r"phi\(c,d\) not unitary"),
            (bad_inverse + bad_unitary, r"phi\(f,e\) is not the inverse of phi\(e,f\)"),
            (ok + bad_unitary + nan_reverse, r"phi\(c,d\) not unitary"),
            (ok + nan_reverse + bad_unitary, r"phi\(s,r\) is not finite"),
            (ok + bad_unitary[::-1], r"phi\(d,c\) not unitary"),
            # a reverse the file omits is the inverse of the map it gives
            ([("d", "c", m), *ok], r"phi\(d,c\) not unitary"),
            ([*bad_inverse[::-1], *bad_unitary], r"phi\(e,f\) is not the inverse of phi\(f,e\)"),
        ]
        g = make_graph("abcdefrs", dict.fromkeys("abcdefrs", 1.0),
                       [("a", "b", 1.0), ("c", "d", 1.0), ("e", "f", 1.0), ("r", "s", 1.0)])
        for entries, message in cases:
            given = {frozenset(e[:2]) for e in entries}
            rest = [(x, y, np.eye(2)) for x, y in ("ab", "cd", "ef", "rs")
                    if frozenset((x, y)) not in given]
            with pytest.raises(ValueError, match=message):
                load_bundle(_connection_file(tmp_path / "b.json", 2, entries + rest), g)


class TestDecompose:
    def test_zero_splits_to_zero(self):
        W = EndomorphismField.scalar({"x": 0.0})
        w1, w2 = decompose_potential(W, 0.5)
        assert np.all(w1.blocks == 0) and np.all(w2.blocks == 0)

    def test_threshold_on_harmonic_sequence(self):
        names = [f"x{k}" for k in range(1, 8)]
        W = EndomorphismField.scalar({v: 1.0 / (i + 1) for i, v in enumerate(names)})
        w1, w2 = decompose_potential(W, 1.0 / 3.0)
        supported = {v for v, w in zip(w1.vertices, w1.blocks[:, 0, 0]) if abs(w) > 0}
        assert supported == {"x1", "x2"}
        assert max(w2.norms()) <= 1.0 / 3.0 + 1e-15

    def test_self_adjoint_flag_inherited(self):
        names = ["a", "b"]
        h = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
        W = EndomorphismField(2, {v: h for v in names}, self_adjoint=True)
        w1, w2 = decompose_potential(W, 1.0)
        assert w1.self_adjoint and w2.self_adjoint

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_split_is_exact_and_keeps_the_carrier_blocks(self, d):
        rng = np.random.default_rng(20 + d)
        names = [f"x{k}" for k in range(40)]
        vals = {}
        for k, v in enumerate(names):
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            vals[v] = (z + z.conj().T) / (1.0 + k)  # norms straddle the threshold
        vals["x7"] = np.zeros((d, d))
        W = EndomorphismField(d, vals, self_adjoint=True)
        w1, w2 = decompose_potential(W, 0.5)
        assert w1.vertices == w2.vertices == W.vertices == tuple(names)
        assert np.array_equal(w1.blocks + w2.blocks, W.blocks)
        carrier = W.norms() > 0.5
        assert 0 < carrier.sum() < len(names)
        assert np.array_equal(w1.blocks[carrier], W.blocks[carrier])
        assert np.all(w1.blocks[~carrier] == 0)
        assert np.all(w2.blocks[carrier] == 0)


class TestFieldStack:
    def test_stack_in_mapping_order(self):
        vals = {"b": np.array([[2.0]]), "a": np.array([[1.0]]), "c": np.array([[3.0]])}
        W = EndomorphismField(1, vals)
        assert W.vertices == ("b", "a", "c")
        assert W.blocks.shape == (3, 1, 1) and W.blocks.dtype == complex
        assert W.blocks[:, 0, 0].tolist() == [2.0, 1.0, 3.0]
        assert not any(isinstance(x, dict) for x in vars(W).values())

    def test_restrict_reorders_and_selects(self):
        W = EndomorphismField.scalar({"a": 1.0, "b": 2.0, "c": 3.0})
        assert W.restrict(("a", "b", "c")) is W
        sub = W.restrict(["c", "a"])
        assert sub.vertices == ("c", "a")
        assert sub.blocks[:, 0, 0].tolist() == [3.0, 1.0]
        with pytest.raises(ValueError, match="no value at vertex zz"):
            W.restrict(["a", "zz"])

    @pytest.mark.parametrize("value", [1j, np.complex128(2.0)])
    def test_scalar_refuses_complex_numbers(self, value):
        # the JSON values that are not real numbers are in test_cli
        with pytest.raises(ValueError, match=r"W\(v1\) is not a real number"):
            EndomorphismField.scalar({"v0": 1.0, "v1": value})

    def test_scalar_is_self_adjoint(self):
        W = EndomorphismField.scalar({"v0": -1.0, "v1": np.float64(2.5), "v2": 3})
        assert W.self_adjoint and W.rank == 1
        assert W.blocks[:, 0, 0].tolist() == [-1.0, 2.5, 3.0]


def test_metric_file_round_trip(tmp_path):
    # load -> dump -> load: the dump is in orthonormal coordinates, with
    # the identity metric, and loads back to the same connection and
    # potentials
    g = path_graph(2)
    metric = np.array([[4.0, 1j], [-1j, 1.0]])
    lam, q = np.linalg.eigh(metric)
    # unitary from the metric at v0 to the identity at v1: phi^* phi = g_v0
    phi = random_unitary(np.random.default_rng(3), 2) @ (q * np.sqrt(lam)) @ q.conj().T
    doc = {"rank": 2,
           "metric": {"v0": _complex_matrix_to_json(metric),
                      "v1": _complex_matrix_to_json(np.eye(2))},
           "connection": [{"u": "v0", "v": "v1", "phi": _complex_matrix_to_json(phi)}],
           "potentials": {"w": {"v0": _complex_matrix_to_json(np.linalg.inv(metric)),
                                "v1": _complex_matrix_to_json(np.diag([1.0, -2.0]))}}}
    first = tmp_path / "first.json"
    first.write_text(json.dumps(doc))
    rank, conn, pots = load_bundle(first, g)
    second = tmp_path / "second.json"
    dump_bundle(second, rank, connection=conn, potentials=pots)
    assert "metric" not in json.loads(second.read_text())
    rank2, conn2, pots2 = load_bundle(second, g)
    assert rank2 == 2
    assert np.array_equal(conn2.phi, conn.phi) and np.array_equal(conn2.back, conn.back)
    assert pots2["w"].vertices == pots["w"].vertices == g.vertices
    assert np.array_equal(pots2["w"].blocks, pots["w"].blocks)


def test_connection_orientations_match_per_entry_loop(tmp_path):
    # a reverse orientation the file omits is the inverse of the forward
    # matrix; one the file gives, before or after the forward one, is kept
    # as given. Reference: the per-entry loop, inverting each matrix alone.
    g = path_graph(6)
    rng = np.random.default_rng(7)
    entries = []
    for i in range(5):
        u, v, m = f"v{i}", f"v{i+1}", random_unitary(rng, 2)
        given = [(u, v, m), (v, u, m.conj().T)][:1 + (i in (1, 3))]
        entries += given[::-1] if i == 3 else given
    _, conn, _ = load_bundle(_connection_file(tmp_path / "b.json", 2, entries), g)
    ref = {}
    for u, v, m in entries:
        ref[(u, v)] = m
        ref.setdefault((v, u), np.linalg.inv(m))
    assert conn.phi.shape == conn.back.shape == (g.src.size, 2, 2)
    for e, (i, j) in enumerate(zip(g.src, g.dst)):
        u, v = g.vertices[i], g.vertices[j]
        assert np.array_equal(conn.phi[e], ref[(u, v)])
        assert np.array_equal(conn.back[e], ref[(v, u)])


FAULTS = ("non-edge", "missing-edge", "non-unitary", "non-inverse", "non-finite",
          "bad-shape", "list-endpoint")


@st.composite
def bundle_docs(draw):
    """A graph and a valid bundle file for it: rank 1-3, with or without a
    fiber metric, and per edge one orientation or both, in either order,
    with the entries shuffled. Maps and metric are drawn from a seed."""
    rank, n = draw(st.integers(1, 3)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = random_graph(n, rng, p=0.5)
    modes = draw(st.lists(st.sampled_from(["forward", "backward", "both", "both-reversed"]),
                          min_size=g.src.size, max_size=g.src.size))
    root = np.array([np.eye(rank)] * n, dtype=complex)  # g_x = S_x S_x, S_x > 0
    if draw(st.booleans()):
        for x in range(n):
            z = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
            lam, q = np.linalg.eigh(z @ z.conj().T + np.eye(rank))
            root[x] = (q * np.sqrt(lam)) @ q.conj().T
    inv = np.linalg.inv
    entries = []
    for e, mode in enumerate(modes):
        i, j = g.src[e], g.dst[e]
        u = random_unitary(rng, rank)
        # unitary for the metric: phi(x, y)* g_y phi(x, y) = g_x
        forward = (g.vertices[i], g.vertices[j], inv(root[j]) @ u @ root[i])
        reverse = (g.vertices[j], g.vertices[i], inv(root[i]) @ u.conj().T @ root[j])
        given = {"forward": [forward], "backward": [reverse], "both": [forward, reverse],
                 "both-reversed": [reverse, forward]}[mode]
        entries += [{"u": a, "v": b, "phi": _complex_matrix_to_json(m)} for a, b, m in given]
    entries = [entries[k] for k in rng.permutation(len(entries))]
    potential = {}
    for x, v in enumerate(g.vertices):
        z = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
        potential[v] = _complex_matrix_to_json(inv(root[x]) @ (z + z.conj().T) @ root[x])
    doc = {"rank": rank, "connection": entries, "potentials": {"w": potential}}
    if not np.array_equal(root, np.array([np.eye(rank)] * n)):
        doc["metric"] = {v: _complex_matrix_to_json(s @ s) for v, s in zip(g.vertices, root)}
    return g, doc


def add_connection_fault(doc, g, fault) -> str:
    """Put one fault of the kind into the connection of doc, around its
    first entry; return the message that must name it."""
    entries, rank = doc["connection"], doc["rank"]
    first = entries[0]
    u, v = first["u"], first["v"]
    if fault == "non-edge":
        adjacent = {frozenset((g.vertices[i], g.vertices[j])) for i, j in zip(g.src, g.dst)}
        a, b = next(((a, b) for a in g.vertices for b in g.vertices
                     if a < b and frozenset((a, b)) not in adjacent), (u, u))
        entries.append({"u": a, "v": b, "phi": _complex_matrix_to_json(np.eye(rank))})
        return f"connection entry ({a},{b}) is not an edge of the graph"
    if fault == "missing-edge":
        doc["connection"] = [e for e in entries if {e["u"], e["v"]} != {u, v}]
        e = next(e for e, (i, j) in enumerate(zip(g.src, g.dst))
                 if {g.vertices[i], g.vertices[j]} == {u, v})
        return f"connection has no entry for edge ({g.vertices[g.src[e]]},{g.vertices[g.dst[e]]})"
    if fault == "list-endpoint":
        first["u"] = [u]
        return f"connection entry (['{u}'],{v}) is not an edge of the graph"
    if fault == "bad-shape":
        first["phi"] = _complex_matrix_to_json(np.eye(rank + 1))
        return f"phi({u},{v}) has shape ({rank + 1}, {rank + 1})"
    if fault == "non-finite":
        first["phi"][0][0] = [math.nan, 0.0]
        return f"phi({u},{v}) is not finite"
    # the first entry's edge is checked first: its other entries go, and
    # the reverse is its inverse or i times that
    m = np.array([[complex(*z) for z in row] for row in first["phi"]])
    doc["connection"] = [first] + [e for e in entries[1:] if {e["u"], e["v"]} != {u, v}]
    if fault == "non-unitary":
        first["phi"] = _complex_matrix_to_json(2 * m)
        return f"phi({u},{v}) not unitary"
    doc["connection"].append({"u": v, "v": u, "phi": _complex_matrix_to_json(1j * np.linalg.inv(m))})
    return f"phi({v},{u}) is not the inverse of phi({u},{v})"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(bundle_docs(), st.sampled_from(FAULTS))
def test_bundle_format_round_trip(case, fault):
    # every accepted bundle dumps, in orthonormal coordinates, and loads back
    # to the same stacks bit for bit; a second dump is byte for byte the
    # first. One fault in the connection exits 1 and names its entry.
    g, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        gpath, src, once, twice = (Path(tmp) / f"{k}.json" for k in ("g", "src", "once", "twice"))
        dump_graph(g, gpath)
        src.write_text(json.dumps(doc))
        rank, conn, pots = load_bundle(src, g)
        dump_bundle(once, rank, connection=conn, potentials=pots)
        rank2, conn2, pots2 = load_bundle(once, g)
        assert rank2 == rank
        assert np.array_equal(conn2.phi, conn.phi) and np.array_equal(conn2.back, conn.back)
        assert np.array_equal(pots2["w"].blocks, pots["w"].blocks)
        dump_bundle(twice, rank2, connection=conn2, potentials=pots2)
        assert once.read_bytes() == twice.read_bytes()
        message = add_connection_fault(doc, g, fault)
        src.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["dominate", "check", "--graph", str(gpath), "--bundle", str(src),
                         "--out", str(Path(tmp) / "rep.json")])
        assert code == 1 and message in err.getvalue(), (message, err.getvalue())
