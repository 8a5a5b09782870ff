import numpy as np
import pytest

from heatcert.bundle import EndomorphismField, UnitaryConnection
from heatcert.graph import make_graph, path_graph, random_graph
from heatcert.heat import kernel_from_semigroup
from heatcert.operators import (
    OperatorMatrix,
    _flush_subnormals,
    _semigroup_g,
    _spectral_rows,
    add_potential,
    assemble_covariant,
    assemble_laplacian,
    dirichlet_restriction,
    multiplication_operator,
    require_psd,
    resolvent,
    semigroup_matrix,
    spectral_function,
)


def form(g, rank, connection, f1, f2):
    """The Dirichlet form (1/2) sum over ordered adjacent pairs of
    b(x,y) <f1(x) - phi(y,x) f1(y), f2(x) - phi(y,x) f2(y)>, antilinear in
    f1, with f given as stacked fiber blocks; phi(y, x) is the connection's
    `back` at (src, dst) and its `phi` at (dst, src), and 1 for connection
    None, the scalar Laplacian's form."""
    x = np.concatenate([g.src, g.dst])
    y = np.concatenate([g.dst, g.src])
    if connection is None:
        phi = np.ones((x.size, 1, 1))
    else:
        phi = np.concatenate([connection.back, connection.phi])

    def grad(f):
        f = f.reshape(g.n, rank)
        return f[x] - (phi @ f[y][..., None])[..., 0]

    return complex(0.5 * np.sum(np.concatenate([g.w, g.w])
                                * np.sum(np.conj(grad(f1)) * grad(f2), axis=1)))


def weighted_pairing(H, f, h=None):
    """<f, H h> in the weighted inner product, antilinear in f, read from the
    stored A = D^{1/2} H D^{-1/2} as (D^{1/2} f)* A (D^{1/2} h); h = f by
    default."""
    h = f if h is None else h
    s = np.sqrt(H.measure_weights())
    return complex(np.sum(np.conj(s * f) * (H.matrix @ (s * h))))


def two_vertex(beta=1.0, rho=(1.0, 1.0)):
    return make_graph(["1", "2"], {"1": rho[0], "2": rho[1]},
                      [("1", "2", beta)])


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()[None, :]


def random_connection(g, d, rng):
    phi = np.array([random_unitary(rng, d) for _ in range(g.src.size)])
    return UnitaryConnection(g, phi, np.linalg.inv(phi))


def maps_by_ids(conn):
    """phi(x, y) of a connection, from the fiber at vertex id x to that at y."""
    g, maps = conn.graph, {}
    for e, (i, j) in enumerate(zip(g.src, g.dst)):
        u, v = g.vertices[i], g.vertices[j]
        maps[(u, v)], maps[(v, u)] = conn.phi[e], conn.back[e]
    return lambda x, y: maps[(x, y)]


class TestLaplacian:
    def test_two_vertex_matrix_and_spectrum(self):
        beta = 2.5
        H = assemble_laplacian(two_vertex(beta))
        np.testing.assert_allclose(np.real(H.matrix),
                                   [[beta, -beta], [-beta, beta]], atol=1e-15)
        lam, _ = H.eigh()
        np.testing.assert_allclose(lam, [0.0, 2 * beta], atol=1e-12)

    def test_single_vertex_zero(self):
        g = make_graph(["x"], {"x": 3.0}, [])
        H = assemble_laplacian(g)
        assert H.matrix.shape == (1, 1) and H.matrix[0, 0] == 0

    def test_nonuniform_rho(self):
        # stored as A = D^{1/2} H D^{-1/2}, for H = [[1, -1], [-0.5, 0.5]]
        H = assemble_laplacian(two_vertex(1.0, rho=(1.0, 2.0)))
        off = -1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(H.matrix, [[1.0, off], [off, 0.5]], atol=1e-15)
        assert np.array_equal(H.matrix, H.matrix.T)

    def test_constants_in_kernel(self):
        # H 1 = 0, so A D^{1/2} 1 = 0
        rng = np.random.default_rng(0)
        g = random_graph(25, rng)
        H = assemble_laplacian(g)
        assert np.max(np.abs(H.matrix @ np.sqrt(g.rho_vec))) < 1e-10


class TestQuadraticForm:
    def test_constant_function_vanishes(self):
        g = path_graph(5)
        f = np.full(5, 2.0 + 1j)
        assert abs(form(g, 1, None, f, f)) < 1e-14

    def test_single_edge_delta(self):
        g = two_vertex()
        f = np.array([1.0, 0.0])
        assert form(g, 1, None, f, f) == pytest.approx(1.0)
        assert np.max(g.deg / g.rho_vec) == 1.0  # sup_x deg(x)/rho(x)

    def test_path3_hand_value(self):
        g = path_graph(3)
        f = np.array([1.0, 0.0, -1.0])
        assert form(g, 1, None, f, f) == pytest.approx(2.0)
        H = assemble_laplacian(g)
        assert np.real(weighted_pairing(H, f)) == pytest.approx(2.0)

    def test_form_equals_operator_pairing_random(self):
        rng = np.random.default_rng(1)
        g = random_graph(30, rng)
        H = assemble_laplacian(g)
        for _ in range(100):
            f = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
            q = form(g, 1, None, f, f)
            pairing = weighted_pairing(H, f)
            assert abs(q - pairing) <= 1e-10 * max(1.0, abs(q))

    def test_form_bound_and_operator_norm(self):
        rng = np.random.default_rng(2)
        g = random_graph(20, rng)
        H = assemble_laplacian(g)
        c = np.max(g.deg / g.rho_vec)
        assert np.linalg.norm(H.matrix, 2) <= 2 * c + 1e-10
        for _ in range(20):
            f = rng.standard_normal(g.n)
            nf = np.sum(f ** 2 * g.rho_vec)
            assert np.real(form(g, 1, None, f, f)) <= 2 * c * nf + 1e-10


class TestCovariant:
    def test_trivial_connection_equals_scalar(self):
        rng = np.random.default_rng(3)
        g = random_graph(15, rng)
        conn = UnitaryConnection.trivial(g, 1)
        Hs = assemble_laplacian(g)
        Hc = assemble_covariant(g, 1, conn)
        np.testing.assert_array_equal(Hs.matrix, Hc.matrix)

    def test_magnetic_two_vertex(self):
        beta, theta = 1.5, 0.7
        g = two_vertex(beta)
        conn = UnitaryConnection.from_edge_phases(g, [theta])
        H = assemble_covariant(g, 1, conn)
        expected = np.array([[beta, -beta * np.exp(-1j * theta)],
                             [-beta * np.exp(1j * theta), beta]])
        np.testing.assert_allclose(H.matrix, expected, atol=1e-14)
        lam, _ = H.eigh()
        np.testing.assert_allclose(lam, [0.0, 2 * beta], atol=1e-12)

    def test_frustrated_triangle_has_no_kernel(self):
        names = ["a", "b", "c"]
        g = make_graph(names, {v: 1.0 for v in names},
                       [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)])
        # total holonomy e^{i pi}: pi/3 per oriented edge around the cycle
        # a -> b -> c -> a, whose last edge is stored as (a, c)
        conn = UnitaryConnection.from_edge_phases(g, [np.pi / 3, np.pi / 3, -np.pi / 3])
        H = assemble_covariant(g, 1, conn)
        assert H.lambda_min() > 1e-8

    def test_form_matches_operator(self):
        rng = np.random.default_rng(4)
        g = random_graph(12, rng)
        d = 2
        conn = random_connection(g, d, rng)
        H = assemble_covariant(g, d, conn)
        for _ in range(20):
            f = rng.standard_normal(g.n * d) + 1j * rng.standard_normal(g.n * d)
            q = form(g, d, conn, f, f)
            pairing = weighted_pairing(H, f)
            assert abs(q - pairing) <= 1e-10 * max(1.0, abs(q))

    def test_gauge_invariance_of_spectrum(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            g = random_graph(10, rng)
            d = int(rng.integers(1, 4))
            conn = random_connection(g, d, rng)
            gauge = np.array([random_unitary(rng, d) for _ in g.vertices])
            adjoint = gauge.conj().swapaxes(1, 2)
            conn2 = UnitaryConnection(g, gauge[g.dst] @ conn.phi @ adjoint[g.src],
                                      gauge[g.src] @ conn.back @ adjoint[g.dst])
            lam1, _ = assemble_covariant(g, d, conn).eigh()
            lam2, _ = assemble_covariant(g, d, conn2).eigh()
            np.testing.assert_allclose(lam1, lam2, atol=1e-9)

    def test_non_unitary_connection_still_raises(self):
        # phi(v1, v0) = phi(v0, v1)^{-1} but not its adjoint, set past the
        # connection's own check, which assembly runs again
        g = path_graph(3)
        conn = UnitaryConnection.trivial(g, 1)
        phi, back = conn.phi.copy(), conn.back.copy()
        phi[0], back[0] = 2.0, 0.5
        object.__setattr__(conn, "phi", phi)
        object.__setattr__(conn, "back", back)
        with pytest.raises(ValueError, match=r"phi\(v0,v1\) not unitary"):
            assemble_covariant(g, 1, conn)


class TestHermitianStorage:
    """Assembly and add_potential store A = D^{1/2} H D^{-1/2} exactly
    Hermitian, and spectral work reads that matrix itself, with no
    symmetrized or averaged copy."""

    @staticmethod
    def operators(seed):
        rng = np.random.default_rng(seed)
        g = random_graph(15, rng)
        assert len(set(g.rho.values())) == g.n  # non-uniform rho
        ops = [assemble_laplacian(g)]
        for d in (1, 2, 3):
            H = assemble_covariant(g, d, random_connection(g, d, rng))
            blocks = rng.standard_normal((g.n, d, d)) + 1j * rng.standard_normal((g.n, d, d))
            V = EndomorphismField.from_blocks(d, g.vertices, blocks + blocks.conj().swapaxes(1, 2),
                                              True)
            ops += [H, add_potential(H, V)]
        ops.append(add_potential(ops[0], EndomorphismField.scalar(
            {v: float(rng.standard_normal()) for v in g.vertices})))
        return ops

    @pytest.mark.parametrize("seed", [60, 61])
    def test_exactly_hermitian(self, seed):
        for H in self.operators(seed):
            m = H.matrix
            assert np.array_equal(m, m.conj().T)

    def test_spectral_work_reads_the_matrix_itself(self, monkeypatch):
        from heatcert.compactness import check_domination
        from heatcert.operators import resolvent_singular_values

        seen = []
        for name in ("eigh", "eigvalsh", "solve"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, *r, _n=name, _f=fn:
                                seen.append((_n, a)) or _f(a, *r))
        rng = np.random.default_rng(62)
        g = random_graph(15, rng)
        for H in self.operators(62):
            seen.clear()
            H.eigh()
            assert [(n, a is H.matrix) for n, a in seen] == [("eigh", True)]
        # a connection with holonomy: the ordering row reads lambda_min by eigvalsh
        T = assemble_covariant(g, 2, random_connection(g, 2, rng))
        seen.clear()
        check_domination(T, assemble_laplacian(g), (1.0,), (1.0,), 0, rng)
        assert [a is T.matrix for n, a in seen if n == "eigvalsh" and a.ndim == 2] == [True]
        # the solve reads one shifted copy
        seen.clear()
        W = np.repeat(np.eye(2)[None], g.n, axis=0)
        resolvent_singular_values(T, [W], 2.0, [1])
        ((name, shifted),) = [(n, a) for n, a in seen if n == "solve"]
        assert shifted is not T.matrix
        assert np.array_equal(shifted, T.matrix + 2.0 * np.eye(T.dim))


class TestPotential:
    def test_zero_potential_is_identity_op(self):
        g = two_vertex()
        H = assemble_laplacian(g)
        V = EndomorphismField.scalar({v: 0.0 for v in g.vertices})
        H2 = add_potential(H, V)
        np.testing.assert_array_equal(H.matrix, H2.matrix)

    def test_identity_shift(self):
        beta = 2.0
        H = assemble_laplacian(two_vertex(beta))
        V = EndomorphismField.scalar({"1": 1.0, "2": 1.0})
        lam, _ = add_potential(H, V).eigh()
        np.testing.assert_allclose(lam, [1.0, 2 * beta + 1.0], atol=1e-12)

    def test_rank_one_shift_characteristic_roots(self):
        H = assemble_laplacian(two_vertex(1.0))
        V = EndomorphismField.scalar({"1": 1.0, "2": 0.0})
        lam, _ = add_potential(H, V).eigh()
        expected = [(3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2]
        np.testing.assert_allclose(lam, expected, atol=1e-12)

    def test_sum_is_labelled_a_sum(self):
        # a nonnegative potential does not make H + V a Laplacian
        H = assemble_laplacian(two_vertex())
        for w in (0.0, 1.0, -1.0):
            V = EndomorphismField.scalar({"1": w, "2": w})
            assert add_potential(H, V).kind == "sum"

    def test_rejects_non_self_adjoint(self):
        H = assemble_laplacian(two_vertex())
        V = EndomorphismField(1, {"1": np.array([[1j]]), "2": np.array([[0.0]])})
        with pytest.raises(ValueError):
            add_potential(H, V)


class TestMultiplication:
    def test_identity_field(self):
        g = path_graph(3)
        W = EndomorphismField.scalar({v: 1.0 for v in g.vertices})
        op = multiplication_operator(W, g.vertices, g.rho_vec)
        np.testing.assert_array_equal(op.matrix, np.eye(3))

    def test_scalar_entry(self):
        g = path_graph(2)
        W = EndomorphismField.scalar({"v0": -3.0, "v1": 0.0})
        op = multiplication_operator(W, g.vertices, g.rho_vec)
        assert op.matrix[0, 0] == -3.0

    def test_operator_norm_is_pointwise_max(self):
        rng = np.random.default_rng(6)
        g = random_graph(10, rng)
        d = 3
        vals = {v: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for v in g.vertices}
        W = EndomorphismField(d, vals)
        op = multiplication_operator(W, g.vertices, g.rho_vec)
        expected = max(W.norms())
        assert np.linalg.norm(op.matrix, 2) == pytest.approx(expected, rel=1e-10)


class TestDirichlet:
    def test_full_set_is_identity_restriction(self):
        g = path_graph(4)
        H = assemble_laplacian(g)
        Hs = dirichlet_restriction(H, np.arange(g.n))
        np.testing.assert_array_equal(H.matrix, Hs.matrix)

    def test_middle_vertex_keeps_degree(self):
        g = path_graph(3)
        H = assemble_laplacian(g)
        Hs = dirichlet_restriction(H, [g.index("v1")])
        assert Hs.matrix.shape == (1, 1)
        assert Hs.matrix[0, 0] == pytest.approx(2.0)

    def test_interlacing_lambda_min_monotone(self):
        rng = np.random.default_rng(7)
        g = random_graph(25, rng)
        H = assemble_laplacian(g)
        lam_full = H.lambda_min()
        for _ in range(20):
            size = int(rng.integers(1, g.n))
            subset = np.sort(rng.choice(g.n, size=size, replace=False))
            Hs = dirichlet_restriction(H, subset)
            assert Hs.lambda_min() >= lam_full - 1e-10

    def test_nested_subsets_monotone(self):
        rng = np.random.default_rng(8)
        g = random_graph(20, rng)
        H = assemble_laplacian(g)
        s2 = rng.choice(g.n, size=15, replace=False)
        s1 = s2[:7]
        l1 = dirichlet_restriction(H, np.sort(s1)).lambda_min()
        l2 = dirichlet_restriction(H, np.sort(s2)).lambda_min()
        assert l1 >= l2 - 1e-10

    def test_rejects_empty(self):
        H = assemble_laplacian(path_graph(3))
        with pytest.raises(ValueError):
            dirichlet_restriction(H, [])

    @pytest.mark.parametrize("pos", [[0, 3], [-1, 0], [2, 1], [1, 1], [0.0, 1.0]],
                             ids=["out-of-range", "negative", "unsorted", "duplicated",
                                  "float"])
    def test_rejects_malformed_positions(self, pos):
        H = assemble_laplacian(path_graph(3))
        with pytest.raises(ValueError, match="strictly ascending vertex positions in"):
            dirichlet_restriction(H, pos)


class TestRequirePsd:
    """Assembly records the PSD verdict that the validated graph and the
    unitary connection give; add_potential keeps it for a potential with no
    negative block, and a Dirichlet level inherits it. Without a verdict, or
    with a cached eigendecomposition, the eigh lambda_min decides. Nothing
    is checked at construction: the consumers of spectral work check."""

    @staticmethod
    def negative_shift(seed):
        g = random_graph(12, np.random.default_rng(seed))
        H = assemble_laplacian(g)
        return add_potential(H, EndomorphismField.scalar({v: -0.5 for v in g.vertices}))

    @staticmethod
    def count_factorisations(monkeypatch):
        calls = []
        for name in ("eigh", "cholesky"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, _n=name, _f=fn:
                                calls.append(_n) or _f(a))
        return calls

    @pytest.mark.parametrize("seed", [90, 91])
    def test_negative_potential_reports_lambda_min(self, seed):
        op = self.negative_shift(seed)
        with pytest.raises(ValueError, match="sum operator not PSD: lambda_min = ") as err:
            require_psd(op)
        reported = float(str(err.value).rsplit("= ", 1)[1])
        assert reported == pytest.approx(np.linalg.eigvalsh(op.matrix)[0],
                                         rel=1e-12, abs=1e-14)
        assert reported < -0.4 and "psd" not in op._cache

    def test_construction_verdict_needs_no_factorisation(self, monkeypatch):
        calls = self.count_factorisations(monkeypatch)
        rng = np.random.default_rng(92)
        g = random_graph(12, rng)
        for H in (assemble_laplacian(g), assemble_covariant(g, 2, random_connection(g, 2, rng))):
            assert H._cache == {"psd": True}
            require_psd(H)
            level = dirichlet_restriction(H, np.arange(5))
            require_psd(level)
            assert level._cache == {"psd": True}
        assert calls == []

    def test_diagonalising_consumers_make_no_cholesky(self, monkeypatch):
        # each checks PSD from the eigh it needs anyway
        calls = self.count_factorisations(monkeypatch)
        g = random_graph(12, np.random.default_rng(96))
        for H in (assemble_laplacian(g),
                  assemble_covariant(g, 2, random_connection(g, 2, np.random.default_rng(97)))):
            resolvent(H, 1.0)
            semigroup_matrix(H, 0.5)
        kernel_from_semigroup(assemble_laplacian(g), (0.0, 0.5, 1.0))
        assert calls == ["eigh"] * 3

    def test_operator_built_by_hand_is_decided_by_eigh(self, monkeypatch):
        calls = self.count_factorisations(monkeypatch)
        g = random_graph(12, np.random.default_rng(93))
        L = assemble_laplacian(g)
        H = OperatorMatrix(L.matrix, L.vertices, 1, L.rho, "scalar-laplacian")
        require_psd(H)
        assert calls == ["eigh"] and "psd" not in H._cache
        # releasing the eigenbasis keeps the verdict that eigh gave
        H.release_eigh()
        require_psd(H)
        assert calls == ["eigh"] and H._cache == {"psd": True}
        shifted = self.negative_shift(93)
        bare = OperatorMatrix(shifted.matrix, shifted.vertices, 1, shifted.rho, "covariant")
        with pytest.raises(ValueError, match="covariant operator not PSD: lambda_min = "):
            require_psd(bare)

    def test_add_potential_keeps_the_verdict_only_for_a_nonnegative_potential(
            self, monkeypatch):
        rng = np.random.default_rng(99)
        g = random_graph(12, rng)
        H = assemble_covariant(g, 2, random_connection(g, 2, rng))
        blocks = rng.standard_normal((g.n, 2, 2)) + 1j * rng.standard_normal((g.n, 2, 2))
        blocks = blocks @ blocks.conj().swapaxes(1, 2)  # PSD blocks
        blocks[0] = 0.0  # a zero block is nonnegative too
        nonnegative = add_potential(H, EndomorphismField.from_blocks(2, g.vertices, blocks,
                                                                       True))
        # V(1) = 2, V(2) = -0.5 on a two-vertex graph: H + V = [[3, -1],
        # [-1, 0.5]] has determinant 0.5 and trace 3.5, so it is PD
        indefinite = add_potential(assemble_laplacian(two_vertex()),
                                   EndomorphismField.scalar({"1": 2.0, "2": -0.5}))
        negative = add_potential(H, EndomorphismField(
            2, {v: -np.eye(2) for v in g.vertices}, self_adjoint=True))
        assert nonnegative._cache == {"psd": True}
        assert indefinite._cache == negative._cache == {}
        calls = self.count_factorisations(monkeypatch)
        require_psd(nonnegative)
        assert calls == []
        require_psd(indefinite)
        assert calls == ["eigh"] and indefinite.lambda_min() > 0
        with pytest.raises(ValueError, match="sum operator not PSD: lambda_min = "):
            require_psd(negative)
        assert calls == ["eigh"] * 2

    @pytest.mark.parametrize("consumer", [
        lambda H: resolvent(H, 1.0),
        lambda H: semigroup_matrix(H, 0.5),
        lambda H: kernel_from_semigroup(H, (0.0, 0.5)),
        lambda H: _spectral_rows(H),  # on the call, before any block
        lambda H: _spectral_rows(H, kernel=True),
    ])
    def test_spectral_consumers_reject_a_non_psd_operator(self, consumer):
        with pytest.raises(ValueError, match="sum operator not PSD"):
            consumer(self.negative_shift(98))

    def test_cached_eigh_decides(self):
        op = self.negative_shift(94)
        op.eigh()
        op._cache["psd"] = True  # a stale verdict does not outvote the spectrum
        with pytest.raises(ValueError, match="not PSD"):
            require_psd(op)

    def test_non_psd_host_has_no_dirichlet_level(self):
        op = self.negative_shift(95)
        with pytest.raises(ValueError, match="not PSD"):
            dirichlet_restriction(op, np.arange(3))


class TestSpectralRows:
    G_OF = (_semigroup_g(0.5), lambda lam: 1.0 / (lam + 2.0))

    @pytest.mark.parametrize("d", [1, 2])
    def test_blocks_tile_spectral_function(self, d):
        rng = np.random.default_rng(96)
        g = random_graph(150, rng)
        H = assemble_covariant(g, d, random_connection(g, d, rng))
        rows = _spectral_rows(H)
        for g_of in self.G_OF:
            spans, blocks = zip(*rows(g_of, 40))
            assert [(vs.start, vs.stop) for vs in spans] == [(0, 40), (40, 80),
                                                             (80, 120), (120, 150)]
            whole = spectral_function(H, g_of)
            assert np.max(np.abs(np.vstack(blocks) - whole)) <= 1e-14 * np.max(np.abs(whole))
        # e^{-0H} is the identity exactly: with no spectral work as a
        # function of H, and in row blocks
        fresh = assemble_covariant(g, d, random_connection(g, d, rng))
        eye = np.eye(H.dim, dtype=complex)
        assert np.array_equal(semigroup_matrix(fresh, 0.0), eye)
        assert "eigh" not in fresh._cache
        assert np.array_equal(np.vstack([b for _, b in rows(None, 40)]), eye)

    @pytest.mark.parametrize("d", [1, 2])
    def test_kernel_blocks_tile_the_kernel(self, d):
        # the kernel scaling is g(H) D^{-1}, in row blocks or in one out
        rng = np.random.default_rng(97)
        g = random_graph(150, rng)
        H = assemble_covariant(g, d, random_connection(g, d, rng))
        rows = _spectral_rows(H, kernel=True)
        for g_of in self.G_OF:
            spans, blocks = zip(*rows(g_of, 40))
            assert [vs.stop - vs.start for vs in spans] == [40, 40, 40, 30]
            whole = spectral_function(H, g_of) / H.measure_weights()[None, :]
            assert np.max(np.abs(np.vstack(blocks) - whole)) <= 1e-14 * np.max(np.abs(whole))
            out = np.empty((H.dim, H.dim), dtype=complex)
            ((vs, one),) = rows(g_of, out=out)
            assert one is out and vs == slice(0, 150)
            assert np.max(np.abs(one - whole)) <= 1e-14 * np.max(np.abs(whole))

    @pytest.mark.parametrize("kernel", [False, True], ids=["g(H)", "kernel"])
    @pytest.mark.parametrize("d", [1, 2], ids=["real", "complex"])
    def test_out_is_the_block_stream_bit_for_bit(self, d, kernel):
        # with out, the blocks of the default stream are written into its
        # rows; n spans more than one ROW_BLOCK_BYTES block
        from heatcert.operators import ROW_BLOCK_BYTES

        rng = np.random.default_rng(95)
        g = random_graph(400 // d, rng)
        if d == 1:
            H = assemble_laplacian(g)
        else:
            H = assemble_covariant(g, d, random_connection(g, d, rng))
        dtype = H.matrix.dtype
        assert H.dim * H.dim * dtype.itemsize > ROW_BLOCK_BYTES
        rows = _spectral_rows(H, kernel=kernel)
        for g_of in (None, *self.G_OF):
            spans, blocks = zip(*rows(g_of))
            assert len(spans) > 1
            out = np.full((H.dim, H.dim), np.nan, dtype)
            ((vs, one),) = rows(g_of, out=out)
            assert one is out and vs == slice(0, g.n)
            assert np.array_equal(out, np.vstack(blocks))

    def test_identity_kernel_is_exactly_inverse_rho(self):
        g = random_graph(30, np.random.default_rng(98))
        H = assemble_laplacian(g)
        rows = _spectral_rows(H, kernel=True)
        expected = np.diag(1.0 / g.rho_vec)
        assert np.array_equal(np.vstack([b for _, b in rows(None, 7)]), expected)
        out = np.full((g.n, g.n), np.nan)
        ((_, p),) = rows(None, out=out)
        assert p is out and np.array_equal(out, expected)

    def test_kernel_stack_is_the_routine_bit_for_bit(self):
        g = random_graph(60, np.random.default_rng(99))
        H = assemble_laplacian(g)
        times = (0.0, 0.01, 1.0, 100.0)
        k = kernel_from_semigroup(H, times)
        rows = _spectral_rows(H, kernel=True)
        for t, mat in zip(times, k.kernels):
            ((_, p),) = rows(_semigroup_g(t), g.n)
            assert p.dtype == mat.dtype and np.array_equal(p, mat)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_flush_subnormals_in_place(layout, dtype):
    # each part below tiny in magnitude becomes 0, the rest keeps its bits
    rng = np.random.default_rng(5)
    tiny = np.finfo(float).tiny
    scale = np.where(rng.random((2, 6, 8)) < 0.3, 1e-310, 1.0)
    base = rng.standard_normal((6, 8)) * scale[0]
    if dtype is complex:
        base = base + 1j * rng.standard_normal((6, 8)) * scale[1]
    x = {"C": base.copy(), "F": np.asfortranarray(base), "strided": base.copy()[::2, ::3]}[layout]
    if layout == "strided" and dtype is complex:
        with pytest.raises(ValueError):
            _flush_subnormals(x)
        return
    ref = x.copy()
    for part in (ref.real, ref.imag) if dtype is complex else (ref,):
        assert np.any((part != 0) & (np.abs(part) < tiny))
        part[np.abs(part) < tiny] = 0.0
    assert _flush_subnormals(x) is x
    assert np.array_equal(x, ref)


def test_resolvent_two_vertex_analytic():
    H = assemble_laplacian(two_vertex(1.0))
    r = resolvent(H, 1.0)
    expected = 0.5 * np.array([[1 + 1 / 3, 1 - 1 / 3], [1 - 1 / 3, 1 + 1 / 3]])
    np.testing.assert_allclose(np.real(r), expected, atol=1e-12)


# Per-edge loop references: the assembly and the forms are array expressions
# over the edge arrays; these loops walk the b dict directly.

def loop_covariant(g, d, phi):
    """The stored A = D^{1/2} H D^{-1/2}: blocks -b / sqrt(rho_i rho_j) B at
    (i, j), B = (phi(j, i) + phi(i, j)*) / 2, and B* at (j, i); phi(x, y)
    the fiber map x -> y, None for the scalar Laplacian."""
    n = g.n
    m = np.zeros((n * d, n * d), dtype=complex)
    rho = g.rho_vec
    eye = np.eye(d)
    for pair, w in g.b.items():
        u, v = tuple(pair)
        i, j = g.index(u), g.index(v)
        m[i * d:(i + 1) * d, i * d:(i + 1) * d] += (w / rho[i]) * eye
        m[j * d:(j + 1) * d, j * d:(j + 1) * d] += (w / rho[j]) * eye
        B = np.ones((1, 1)) if phi is None else 0.5 * (phi(v, u) + phi(u, v).conj().T)
        B = -(w / np.sqrt(rho[i] * rho[j])) * B
        m[i * d:(i + 1) * d, j * d:(j + 1) * d] = B
        m[j * d:(j + 1) * d, i * d:(i + 1) * d] = B.conj().T
    return m


def loop_form(g, d, phi, f1, f2):
    total = 0.0 + 0.0j
    for pair, w in g.b.items():
        u, v = tuple(pair)
        i, j = g.index(u), g.index(v)
        phi_vu, phi_uv = phi(v, u), phi(u, v)
        d1_u = f1[i * d:(i + 1) * d] - phi_vu @ f1[j * d:(j + 1) * d]
        d2_u = f2[i * d:(i + 1) * d] - phi_vu @ f2[j * d:(j + 1) * d]
        d1_v = f1[j * d:(j + 1) * d] - phi_uv @ f1[i * d:(i + 1) * d]
        d2_v = f2[j * d:(j + 1) * d] - phi_uv @ f2[i * d:(i + 1) * d]
        total += 0.5 * w * (np.conj(d1_u) @ d2_u + np.conj(d1_v) @ d2_v)
    return complex(total)


class TestArrayAssemblyAgainstLoops:
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_laplacian_bitwise(self, seed):
        g = random_graph(25, np.random.default_rng(seed))
        assert len(set(g.rho.values())) == g.n
        np.testing.assert_array_equal(assemble_laplacian(g).matrix,
                                      loop_covariant(g, 1, None))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_covariant_bitwise(self, d):
        rng = np.random.default_rng(30 + d)
        g = random_graph(20, rng)
        conn = random_connection(g, d, rng)
        H = assemble_covariant(g, d, conn)
        assert np.array_equal(H.matrix, loop_covariant(g, d, maps_by_ids(conn)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_forms_match_loops(self, d):
        rng = np.random.default_rng(40 + d)
        g = random_graph(20, rng)
        conn = random_connection(g, d, rng)
        H, L = assemble_covariant(g, d, conn), assemble_laplacian(g)
        one = np.ones((1, 1))
        for _ in range(5):
            f1, f2 = (rng.standard_normal(g.n * d) + 1j * rng.standard_normal(g.n * d)
                      for _ in range(2))
            ref = loop_form(g, d, maps_by_ids(conn), f1, f2)
            assert abs(weighted_pairing(H, f1, f2) - ref) <= 1e-12 * abs(ref)
            if d == 1:
                ref = loop_form(g, 1, lambda x, y: one, f1, f2)
                assert abs(weighted_pairing(L, f1, f2) - ref) <= 1e-12 * abs(ref)


class TestRealScalarPath:
    """Scalar operators are real; the complex trivial-connection operator is
    the reference they must agree with."""

    def test_dtypes(self):
        g = random_graph(15, np.random.default_rng(50))
        H = assemble_laplacian(g)
        assert H.matrix.dtype == np.float64
        lam, u = H.eigh()
        assert lam.dtype == np.float64 and u.dtype == np.float64
        T = assemble_covariant(g, 1, UnitaryConnection.trivial(g))
        assert T.matrix.dtype == np.complex128

    @pytest.mark.parametrize("seed", [51, 52, 53])
    def test_agrees_with_complex_reference(self, seed):
        from heatcert.compactness import resolvent_via_laplace
        from heatcert.heat import kernel_from_semigroup

        g = random_graph(30, np.random.default_rng(seed))
        assert len(set(g.rho.values())) == g.n
        H = assemble_laplacian(g)
        T = assemble_covariant(g, 1, UnitaryConnection.trivial(g))

        def rel(a, b):
            return np.linalg.norm(a - b) / np.linalg.norm(b)

        times = (0.01, 0.5, 3.0)
        assert rel(kernel_from_semigroup(H, times).kernels,
                   kernel_from_semigroup(T, times).kernels) <= 1e-12
        for a in (0.5, 2.0):
            assert rel(resolvent(H, a), resolvent(T, a)) <= 1e-12
            assert rel(resolvent_via_laplace(H, a), resolvent_via_laplace(T, a)) <= 1e-12
        assert abs(H.lambda_min() - T.lambda_min()) <= 1e-12
