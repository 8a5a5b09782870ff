import json

import numpy as np
import pytest

from heatcert.bundle import (
    EndomorphismField,
    UnitaryConnection,
    _complex_matrix_to_json,
    block_norms,
    decompose_potential,
    dump_bundle,
    load_bundle,
)
from heatcert.graph import path_graph


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


class TestConnection:
    def test_unitarity_is_isometry(self):
        rng = np.random.default_rng(8)
        d = 3
        u = random_unitary(rng, d)
        conn = UnitaryConnection(d, {("x", "y"): u, ("y", "x"): np.linalg.inv(u)})
        for _ in range(10):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            assert np.linalg.norm(conn.get("x", "y") @ v) == pytest.approx(
                np.linalg.norm(v), rel=1e-10)

    def test_rejects_non_inverse_pair(self):
        rng = np.random.default_rng(8)
        u = random_unitary(rng, 2)
        with pytest.raises(ValueError, match="inverse"):
            UnitaryConnection(2, {("x", "y"): u, ("y", "x"): u})

    def test_rejects_non_unitary(self):
        m = np.array([[2.0, 0.0], [0.0, 0.5]])
        with pytest.raises(ValueError, match="unitary"):
            UnitaryConnection(2, {("x", "y"): m, ("y", "x"): np.linalg.inv(m)})

    def test_first_offending_pair_in_dict_order(self):
        rng = np.random.default_rng(9)
        u, m = random_unitary(rng, 2), np.diag([2.0, 0.5])
        ok = {("a", "b"): u, ("b", "a"): u.conj().T}
        bad_unitary = {("c", "d"): m, ("d", "c"): np.linalg.inv(m)}
        bad_inverse = {("e", "f"): u, ("f", "e"): u}
        bad_shape = {("g", "h"): np.eye(3), ("h", "g"): np.eye(3)}
        cases = [
            ({**ok, **bad_unitary, **bad_shape}, r"phi\(c,d\) not unitary"),
            ({**ok, **bad_shape, **bad_unitary}, r"phi\(g,h\) has shape \(3, 3\)"),
            ({**bad_inverse, **bad_unitary}, r"phi\(f,e\) is not the inverse of phi\(e,f\)"),
            ({**ok, ("x", "y"): u, **bad_inverse}, r"missing reverse edge \(y,x\)"),
            ({**ok, ("p", "q"): u, ("q", "p"): np.eye(3)}, r"phi\(q,p\) has shape \(3, 3\)"),
            ({**ok, **bad_unitary, ("r", "s"): u, ("s", "r"): np.full((2, 2), np.nan)},
             r"phi\(c,d\) not unitary"),
            ({**ok, ("r", "s"): u, ("s", "r"): np.full((2, 2), np.nan), **bad_unitary},
             r"phi\(s,r\) is not finite"),
        ]
        for phi, message in cases:
            with pytest.raises(ValueError, match=message):
                UnitaryConnection(2, phi)


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
    for pair in (("v0", "v1"), ("v1", "v0")):
        np.testing.assert_allclose(conn2.get(*pair), conn.get(*pair), rtol=0, atol=1e-14)
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
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"rank": 2, "connection": [
        {"u": u, "v": v, "phi": _complex_matrix_to_json(m)} for u, v, m in entries]}))
    _, conn, _ = load_bundle(path, g)
    ref = {}
    for u, v, m in entries:
        ref[(u, v)] = m
        ref.setdefault((v, u), np.linalg.inv(m))
    assert list(conn.phi) == list(ref)
    assert all(np.array_equal(conn.phi[key], m) for key, m in ref.items())
