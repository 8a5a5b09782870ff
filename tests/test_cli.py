import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import heatcert
from heatcert import SCHEMA_VERSION
from heatcert.bundle import UnitaryConnection, EndomorphismField, dump_bundle
from heatcert.cli import EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, _emit, _parse_exhaustion, main
from heatcert.graph import dump_graph, make_graph, path_graph, random_graph
from heatcert.heat import dump_kernel, kernel_from_semigroup, load_kernel
from heatcert.operators import assemble_laplacian


@pytest.fixture
def two_vertex_file(tmp_path):
    g = make_graph(["1", "2"], {"1": 1.0, "2": 1.0}, [("1", "2", 1.0)])
    path = tmp_path / "two.json"
    dump_graph(g, path)
    return str(path)


@pytest.fixture
def path_file(tmp_path):
    path = tmp_path / "path.json"
    dump_graph(path_graph(12), path)
    return str(path)


class TestGraphValidate:
    def test_valid_two_vertex_exit_zero(self, two_vertex_file, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["graph", "validate", "--graph", two_vertex_file,
                     "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["pass"] is True
        assert rep["schema_version"] == SCHEMA_VERSION

    def test_disconnected_exit_two(self, tmp_path):
        g = make_graph(["a", "b", "c"], {"a": 1, "b": 1, "c": 1},
                       [("a", "b", 1.0)])
        gpath = tmp_path / "g.json"
        dump_graph(g, gpath)
        assert main(["graph", "validate", "--graph", str(gpath)]) == EXIT_VIOLATION

    def test_missing_file_exit_one(self):
        assert main(["graph", "validate", "--graph", "/nonexistent.json"]) == EXIT_INPUT

    def test_malformed_json_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["graph", "validate", "--graph", str(bad)]) == EXIT_INPUT

    @pytest.mark.parametrize("ids", [[1, "a"], [1, 2], [[1], "a"]],
                             ids=["mixed", "integers", "list"])
    def test_non_string_vertex_id_exit_one(self, ids, tmp_path, capsys):
        # a mixed-type id set cannot be dumped (sorting the edge pairs
        # raises), and no CLI spec can name an integer id (--exhaustion
        # root=1 looks for the string "1"): both are refused at load
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({
            "vertices": [{"id": v, "rho": 1.0} for v in ids],
            "edges": [{"u": ids[0], "v": ids[1], "b": 1.0}]}))
        for argv in (["graph", "validate"],
                     ["heat", "minimal", "--exhaustion", "root=1,radii=1"]):
            code, err = _run([*argv, "--graph", str(gpath),
                              "--out", str(tmp_path / "rep.json")], capsys)
            assert code == EXIT_INPUT
            assert f"vertex id {ids[0]} is not a string" in err
        assert not (tmp_path / "rep.json").exists()

    def test_non_string_kernel_vertex_id_exit_one(self, tmp_path, capsys):
        kpath = tmp_path / "k.json"
        dump_kernel(kernel_from_semigroup(assemble_laplacian(path_graph(3)), (1.0,)), kpath)
        doc = json.loads(kpath.read_text())
        doc["vertices"][1] = 7
        kpath.write_text(json.dumps(doc))
        code, err = _run(["heat", "verify", "--kernel", str(kpath)], capsys)
        assert code == EXIT_INPUT
        assert "vertex id 7 is not a string" in err

    @pytest.mark.parametrize("rho_c, b_bc, violation", [
        (math.inf, 1.0, "non-finite rho at c"),
        (math.nan, 1.0, "non-finite rho at c"),
        (1.0, math.nan, "NaN edge weight on "),
    ])
    def test_non_finite_input_rejected(self, tmp_path, capsys, rho_c, b_bc, violation):
        g = make_graph(["a", "b", "c"], {"a": 1.0, "b": 1.0, "c": rho_c},
                       [("a", "b", 1.0), ("b", "c", b_bc)])
        gpath, out = tmp_path / "g.json", tmp_path / "rep.json"
        dump_graph(g, gpath)
        assert main(["graph", "validate", "--graph", str(gpath),
                     "--out", str(out)]) == EXIT_VIOLATION
        rep = json.loads(out.read_text())
        assert rep["pass"] is False
        assert any(v.startswith(violation) for v in rep["violations"])
        assert main(["heat", "verify", "--graph", str(gpath)]) == EXIT_INPUT
        assert "invalid graph" in capsys.readouterr().err

    def test_empty_graph_is_refused(self, tmp_path, capsys):
        # validation used to pass it, and heat kernel / heat verify then
        # ended in an IndexError traceback
        gpath, out = tmp_path / "g.json", tmp_path / "rep.json"
        gpath.write_text(json.dumps({"vertices": [], "edges": []}))
        assert main(["graph", "validate", "--graph", str(gpath),
                     "--out", str(out)]) == EXIT_VIOLATION
        assert json.loads(out.read_text())["violations"] == ["graph has no vertices"]
        out.unlink()
        for command in (["heat", "kernel"], ["heat", "verify"]):
            code, err = _run([*command, "--graph", str(gpath), "--out", str(out)], capsys)
            assert code == EXIT_INPUT
            assert "invalid graph: ['graph has no vertices']" in err
            assert not out.exists()

    def test_report_independent_of_string_hashing(self, tmp_path):
        # a frozenset's iteration order changes with PYTHONHASHSEED; the
        # edge named in the report must not
        g = make_graph(["a", "b", "c"], {v: 1.0 for v in "abc"},
                       [("a", "b", math.nan), ("b", "c", 1.0)])
        gpath = tmp_path / "g.json"
        dump_graph(g, gpath)
        reports = []
        for hashseed in ("1", "4"):
            out = tmp_path / f"rep-{hashseed}.json"
            env = {**os.environ, "PYTHONHASHSEED": hashseed,
                   "PYTHONPATH": str(Path(heatcert.__file__).resolve().parents[1])}
            done = subprocess.run([sys.executable, "-m", "heatcert.cli", "graph", "validate",
                                   "--graph", str(gpath), "--out", str(out)],
                                  env=env, capture_output=True, timeout=120)
            assert done.returncode == EXIT_VIOLATION
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert "NaN edge weight on (a,b)" in json.loads(reports[0])["violations"]


class TestExhaustionSpec:
    def test_root_may_hold_commas(self):
        assert _parse_exhaustion("root=a,b,radii=1,2") == ("a,b", [1, 2])

    @pytest.mark.parametrize("spec", ["radii=1,2", "root=v0", "root=v0,radii=",
                                      "root=v0;radii=1,2"])
    def test_incomplete_spec_is_an_input_error(self, path_file, spec):
        with pytest.raises(ValueError):
            _parse_exhaustion(spec)
        assert main(["heat", "minimal", "--graph", path_file,
                     "--exhaustion", spec]) == EXIT_INPUT


class TestHeat:
    def test_kernel_roundtrip(self, path_file, tmp_path):
        out = tmp_path / "k.json"
        assert main(["heat", "kernel", "--graph", path_file,
                     "--times", "0.5,1.0", "--out", str(out)]) == EXIT_OK
        k = load_kernel(out)
        assert k.times == (0.5, 1.0)

    def test_verify_clean_graph(self, path_file, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["heat", "verify", "--graph", path_file,
                     "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["axioms"]["pass"] and rep["rho_bound"]["pass"]

    def test_verify_corrupted_kernel_names_a2(self, tmp_path):
        g = path_graph(3)
        k = kernel_from_semigroup(assemble_laplacian(g), (0.5, 1.0))
        kernels = k.kernels.copy()
        kernels[0][0, 1] += 1e-3
        bad = type(k)(k.times, kernels, k.vertices, k.rho)
        kpath = tmp_path / "bad_kernel.json"
        dump_kernel(bad, kpath)
        out = tmp_path / "rep.json"
        assert main(["heat", "verify", "--kernel", str(kpath),
                     "--out", str(out)]) == EXIT_VIOLATION
        rep = json.loads(out.read_text())
        assert rep["axioms"]["A2_max_violation"] > 1e-4
        t, x, y = rep["axioms"]["A2_worst"]
        assert t == 0.5 and {x, y} == {"v0", "v1"}

    @pytest.mark.parametrize("key, value, message", [
        ("rho", [1.0, -1.0, 1.0], "nonpositive rho at v1"),
        ("rho", [1.0, math.nan, 1.0], "non-finite rho at v1"),
        ("rho", [1.0, 1.0], "2 rho values for 3 vertices"),
        ("times", [0.5], "expected (1, 3, 3)"),
        ("times", [1.0, 0.5], "strictly increasing"),
        ("times", [0.5, 0.5], "strictly increasing"),
        ("times", [-0.5, 1.0], "strictly increasing"),
        ("times", [0.5, math.inf], "strictly increasing"),
        ("vertices", ["v0", "v1"], "3 rho values for 2 vertices"),
        ("vertices", ["v0", "v0", "v2"], "kernel file repeats vertex id v0"),
    ])
    def test_verify_rejects_malformed_kernel_file(self, tmp_path, capsys,
                                                  key, value, message):
        k = kernel_from_semigroup(assemble_laplacian(path_graph(3)), (0.5, 1.0))
        kpath = tmp_path / "k.json"
        dump_kernel(k, kpath)
        doc = json.loads(kpath.read_text())
        doc[key] = value
        kpath.write_text(json.dumps(doc))
        assert main(["heat", "verify", "--kernel", str(kpath)]) == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert main(["control", "fit", "--kernel", str(kpath)]) == EXIT_INPUT
        assert message in capsys.readouterr().err

    def test_verify_refuses_exhaustion_with_kernel(self, path_file, tmp_path, capsys):
        # a kernel file has no operator to restrict to the levels, so the
        # monotonicity check cannot run and must not be skipped silently
        kpath, out = tmp_path / "k.json", tmp_path / "rep.json"
        assert main(["heat", "kernel", "--graph", path_file, "--times", "0.5,1.0",
                     "--out", str(kpath)]) == EXIT_OK
        code, err = _run(["heat", "verify", "--kernel", str(kpath),
                          "--exhaustion", "root=v0,radii=2,5", "--out", str(out)], capsys)
        assert code == EXIT_INPUT
        assert "--exhaustion needs --graph" in err
        assert not out.exists()

    @pytest.mark.parametrize("times", ["0.1,7", "0.5,1.0"])
    def test_verify_refuses_times_with_kernel(self, times, path_file, tmp_path, capsys):
        # a kernel file carries its own time grid; --times was ignored
        kpath, out = tmp_path / "k.json", tmp_path / "rep.json"
        assert main(["heat", "kernel", "--graph", path_file, "--times", "0.5,1.0",
                     "--out", str(kpath)]) == EXIT_OK
        code, err = _run(["heat", "verify", "--kernel", str(kpath),
                          "--times", times, "--out", str(out)], capsys)
        assert code == EXIT_INPUT
        assert "--times needs --graph" in err
        assert not out.exists()
        assert main(["heat", "verify", "--kernel", str(kpath), "--out", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("sources, message", [
        (["--graph", "missing.json", "--kernel", "{kernel}"],
         "argument --kernel: not allowed with argument --graph"),
        ([], "one of the arguments --graph --kernel is required"),
    ], ids=["both", "neither"])
    def test_verify_takes_exactly_one_source(self, sources, message, path_file, tmp_path,
                                             capsys):
        # --graph next to --kernel was ignored, even when it named no file
        kpath, out = tmp_path / "k.json", tmp_path / "rep.json"
        assert main(["heat", "kernel", "--graph", path_file, "--times", "0.5,1.0",
                     "--out", str(kpath)]) == EXIT_OK
        argv = [arg.format(kernel=kpath) for arg in sources]
        code, err = _run(["heat", "verify", *argv, "--out", str(out)], capsys)
        assert code == EXIT_INPUT
        assert message in err
        assert not out.exists()

    def test_repeated_time_written_once(self, path_file, tmp_path):
        kpath = tmp_path / "k.json"
        assert main(["heat", "kernel", "--graph", path_file,
                     "--times", "1.0,0.5,1.0", "--out", str(kpath)]) == EXIT_OK
        assert load_kernel(kpath).times == (0.5, 1.0)
        assert main(["heat", "verify", "--kernel", str(kpath)]) == EXIT_OK

    def test_verify_rejects_non_finite_kernel_entry(self, tmp_path, capsys):
        k = kernel_from_semigroup(assemble_laplacian(path_graph(3)), (0.5, 1.0))
        kernels = k.kernels.copy()
        kernels[1][2, 0] = math.nan
        kpath = tmp_path / "k.json"
        dump_kernel(type(k)(k.times, kernels, k.vertices, k.rho), kpath)
        assert main(["heat", "verify", "--kernel", str(kpath)]) == EXIT_INPUT
        assert "non-finite entry at t = 1.0" in capsys.readouterr().err

    def test_verify_kernel_file_runs_one_pass(self, tmp_path, monkeypatch):
        # the axioms and the rho bound come from one pass over the stored
        # slices, and the report is what the two stack functions give
        from heatcert import heat

        g = random_graph(10, np.random.default_rng(12))
        k = kernel_from_semigroup(assemble_laplacian(g), (0.5, 1.0))
        kpath, out = tmp_path / "k.json", tmp_path / "rep.json"
        dump_kernel(k, kpath)
        added = []
        add = heat._KernelChecks.add
        monkeypatch.setattr(heat._KernelChecks, "add",
                            lambda self, mat: added.append(mat.shape) or add(self, mat))
        assert main(["heat", "verify", "--kernel", str(kpath), "--out", str(out)]) == EXIT_OK
        assert added == [(g.n, g.n)] * 2
        rep = json.loads(out.read_text())
        stored = load_kernel(kpath)
        assert rep["axioms"] == heat.verify_axioms(stored).to_dict()
        assert rep["rho_bound"] == heat.verify_rho_bound(stored).to_dict()

    def test_minimal_monotone(self, path_file, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["heat", "minimal", "--graph", path_file,
                     "--exhaustion", "root=v0,radii=3,6,11",
                     "--times", "0.5,1.0", "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["pass"] is True


class TestControl:
    def test_check_power_family(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["control", "check", "--family", "power", "--C", "1.0",
                     "--gamma", "1.0", "--q", "1.0", "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["verdict"]["convergent"] is True

    def test_check_divergent_reported(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["control", "check", "--family", "power", "--gamma", "5.0",
                     "--q", "1.0", "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["verdict"]["convergent"] is False

    def test_fit_graph_family(self, path_file, tmp_path):
        kpath = tmp_path / "k.json"
        main(["heat", "kernel", "--graph", path_file, "--out", str(kpath)])
        out = tmp_path / "rep.json"
        assert main(["control", "fit", "--kernel", str(kpath),
                     "--family", "graph", "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["pass"] is True
        assert all(v == 1.0 for v in rep["F1"].values())


    @pytest.mark.parametrize("family", ["graph", "power"])
    def test_fit_on_a_grid_without_positive_time_is_an_input_error(self, family, path_file,
                                                                  tmp_path, capsys):
        # graph used to pass with no sample checked and "min_slack": Infinity,
        # power to end in numpy's zero-size reduction error
        kpath, out = tmp_path / "k.json", tmp_path / "rep.json"
        assert main(["heat", "kernel", "--graph", path_file, "--times", "0",
                     "--out", str(kpath)]) == EXIT_OK
        code, err = _run(["control", "fit", "--kernel", str(kpath), "--family", family,
                          "--out", str(out)], capsys)
        assert code == EXIT_INPUT
        assert "kernel time grid [0.0] has no t > 0 to fit" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_report_holding_a_non_finite_number_is_refused(self, value, tmp_path):
        out = tmp_path / "rep.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            _emit({"min_slack": value}, out, 0)
        assert not out.exists()


class TestDominate:
    def test_magnetic_path(self, tmp_path):
        g = path_graph(6)
        gpath = tmp_path / "g.json"
        dump_graph(g, gpath)
        conn = UnitaryConnection.from_edge_phases(g, np.full(5, 0.4))
        bpath = tmp_path / "b.json"
        dump_bundle(bpath, 1, connection=conn)
        out = tmp_path / "rep.json"
        assert main(["dominate", "check", "--graph", str(gpath),
                     "--bundle", str(bpath), "--times", "0.1,1.0",
                     "--a", "1,2", "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["pass"] is True
        names = {row["name"] for row in rep["ledger"]}
        assert "kato-domination-semigroup" in names
        assert "kato-domination-resolvent" in names

    def test_potential_ledger_matches_covariant_labelled_sum(self, tmp_path):
        # H + V is labelled "sum"; the ledger is the one the same matrix
        # gives under the "covariant" label. The connection on the path is
        # flat, but V puts H + V far from a gauge of the scalar Laplacian,
        # so the ordering row reads lambda_min(H + V), with no route
        from heatcert.bundle import load_bundle
        from heatcert.compactness import check_domination
        from heatcert.operators import OperatorMatrix, assemble_covariant

        g = path_graph(6)
        gpath, bpath, out = tmp_path / "g.json", tmp_path / "b.json", tmp_path / "rep.json"
        dump_graph(g, gpath)
        conn = UnitaryConnection.from_edge_phases(g, np.full(5, 0.4))
        V = EndomorphismField.scalar({f"v{j}": 1.0 / (1.0 + j) for j in range(6)})
        dump_bundle(bpath, 1, connection=conn, potentials={"v": V})
        assert main(["dominate", "check", "--graph", str(gpath), "--bundle", str(bpath),
                     "--potential", "v", "--times", "0.1,1.0", "--a", "1,2",
                     "--seed", "3", "--out", str(out)]) == EXIT_OK
        _, conn, pots = load_bundle(bpath, g)
        H = assemble_covariant(g, 1, conn)
        Vop = np.diag(pots["v"].restrict(g.vertices).blocks[:, 0, 0])
        labelled = OperatorMatrix(H.matrix + Vop, H.vertices, 1, H.rho, "covariant")
        rows = check_domination(labelled, assemble_laplacian(g), (0.1, 1.0), (1.0, 2.0),
                                5, np.random.default_rng(3))
        expected = json.loads(json.dumps([r.to_dict() for r in rows]))
        assert json.loads(out.read_text())["ledger"] == expected
        assert [row.get("route") for row in expected] == ["blockwise", "blockwise", None]


    def test_negative_potential_is_not_psd(self, tmp_path, capsys):
        # H + V with V = -1 has lambda_min = -1: no heat semigroup contracts,
        # so domination is refused before any report is written
        g = path_graph(6)
        gpath, bpath, out = tmp_path / "g.json", tmp_path / "b.json", tmp_path / "rep.json"
        dump_graph(g, gpath)
        dump_bundle(bpath, 1, connection=UnitaryConnection.trivial(g, 1),
                    potentials={"neg": EndomorphismField.scalar(dict.fromkeys(g.vertices, -1.0))})
        code, err = _run(["dominate", "check", "--graph", str(gpath), "--bundle", str(bpath),
                          "--potential", "neg", "--out", str(out)], capsys)
        assert code == EXIT_INPUT
        assert "sum operator not PSD: lambda_min = " in err
        assert not out.exists()


class TestCompactCertify:
    def test_scalar_potential_path(self, path_file, tmp_path):
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps(
            {f"v{j}": 1.0 / (1.0 + j * j) for j in range(12)}))
        out = tmp_path / "rep.json"
        assert main(["compact", "certify", "--graph", path_file,
                     "--potential", str(wpath), "--decomp", "threshold:0.1",
                     "--a", "2.0", "--levels", "root=v0,radii=5,11",
                     "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["verdict"] == "hypotheses-verified"
        assert rep["pass"] is True

    @pytest.mark.parametrize("a", ["0", "-1"])
    def test_non_positive_shift_is_an_input_error(self, a, path_file, tmp_path, capsys):
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps({f"v{j}": 1.0 / (1.0 + j * j) for j in range(12)}))
        code, err = _run(["compact", "certify", "--graph", path_file, "--potential", str(wpath),
                          "--a", a, "--levels", "root=v0,radii=5,11",
                          "--out", str(tmp_path / "rep.json")], capsys)
        assert code == EXIT_INPUT
        assert "resolvent shift must be positive" in err

    @pytest.mark.parametrize("command", ["certify", "demo"])
    @pytest.mark.parametrize("topk", ["0", "-3"])
    def test_topk_below_one_is_an_input_error(self, command, topk, path_file, tmp_path,
                                              capsys):
        # --topk 0 would make every drift 0.0, and --topk -3 slice sv[:-3]
        out = tmp_path / "rep.json"
        if command == "certify":
            wpath = tmp_path / "w.json"
            wpath.write_text(json.dumps({f"v{j}": 1.0 / (1.0 + j * j) for j in range(12)}))
            argv = ["compact", "certify", "--graph", path_file, "--potential", str(wpath),
                    "--a", "2.0", "--levels", "root=v0,radii=5,11"]
        else:
            argv = ["demo", "coulomb-lattice", "--n", "30"]
        code, err = _run([*argv, "--topk", topk, "--out", str(out)], capsys)
        assert code == EXIT_INPUT
        assert f"k_top must be at least 1, got {topk}" in err
        assert not out.exists()

    @staticmethod
    def path30_argv(tmp_path):
        # a 30-vertex path, W = 1/(1 + j^2), at the default shift a = 1
        gpath, wpath = tmp_path / "g.json", tmp_path / "w.json"
        dump_graph(path_graph(30), gpath)
        wpath.write_text(json.dumps({f"v{j}": 1.0 / (1.0 + j * j) for j in range(30)}))
        return ["compact", "certify", "--graph", str(gpath), "--potential", str(wpath),
                "--levels", "root=v0,radii=9,19,29", "--out", str(tmp_path / "rep.json")]

    def test_resolvent_row_asserted_at_default_shift(self, tmp_path):
        argv = self.path30_argv(tmp_path)
        assert main(argv) == EXIT_OK
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert rep["a"] == 1.0
        rows = [r for r in rep["bounds"] if r["name"] == "step1-resolvent-hs-bound"]
        assert len(rows) == 3 and all(r["pass"] for r in rows)
        assert not any("quantitative" in r or "note" in r for r in rep["bounds"])

    def test_understated_control_pair_fails_at_default_shift(self, tmp_path, monkeypatch):
        # a pair with F2 = 1e-6 understates p(t, x, x) rho(x) <= 1; the
        # resolvent row must fail with it at a = 1
        from heatcert import cli
        from heatcert.control import ControlPair, F2Family

        pair_of = cli.graph_pair

        def understated_pair(rho, *args):
            pair = pair_of(rho, *args)
            return ControlPair(pair.F1, F2Family.constant(1e-6), pair.q)

        monkeypatch.setattr(cli, "graph_pair", understated_pair)
        assert main(self.path30_argv(tmp_path)) == EXIT_VIOLATION
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert rep["verdict"] == "hypothesis-failed:step1-resolvent-hs-bound"
        assert rep["control_certificate"]["pass"] is True

    @pytest.mark.parametrize("source", ["scalar", "bundle"])
    def test_certify_builds_no_eigenbasis_and_no_kernel(self, source, tmp_path,
                                                        monkeypatch):
        # the graph pair comes from the theorem and H >= 0 from the validated
        # inputs, so certify neither diagonalises nor factorises an operator
        # nor tabulates a heat kernel: it takes one solve per level, the
        # size of the shell the level adds
        from heatcert import heat

        argv = self.path30_argv(tmp_path)
        if source == "bundle":
            g = path_graph(30)
            conn = UnitaryConnection.from_edge_phases(g, np.full(29, 0.4))
            W = EndomorphismField.scalar({f"v{j}": 1.0 / (1.0 + j * j) for j in range(30)})
            bpath = tmp_path / "b.json"
            dump_bundle(bpath, 1, connection=conn, potentials={"w": W})
            at = argv.index("--potential")
            argv[at:at + 2] = ["--bundle", str(bpath), "--potential", "w"]
        calls = []
        for name in ("eigh", "cholesky", "solve"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _n=name, _f=fn, **k:
                                calls.append(_n) or _f(*a, **k))
        kernel = heat.HeatKernel
        monkeypatch.setattr(heat, "HeatKernel",
                            lambda *a, **k: calls.append("HeatKernel") or kernel(*a, **k))
        assert main(argv) == EXIT_OK
        assert calls == ["solve"] * 3  # radii 9, 19, 29
        rep = json.loads((tmp_path / "rep.json").read_text())
        premises = ["graph validation: b >= 0, rho > 0, finite degrees"]
        if source == "bundle":
            premises.append("connection check: phi unitary")
        assert rep["control_certificate"] == {"derived": True, "pair": "graph",
                                              "rests_on": premises, "pass": True}

    def test_kernel_stack_released_before_certification(self, tmp_path, monkeypatch):
        # the demo's scalar kernel slices serve its scalar checks only: the
        # pass keeps p(0.5) and p(1) for the HS row, and certification must
        # not keep them alive
        from heatcert import cli

        kernels, alive = [], []
        tabulate, certify = cli.verify_semigroup, cli.certify_compactness

        def recording_tabulate(*args, **kwargs):
            result = tabulate(*args, **kwargs)
            assert result[3].times == (0.5, 1.0)
            kernels.append(weakref.ref(result[3]))
            return result

        def checking_certify(*args, **kwargs):
            alive.append([ref() is not None for ref in kernels])
            return certify(*args, **kwargs)

        monkeypatch.setattr(cli, "verify_semigroup", recording_tabulate)
        monkeypatch.setattr(cli, "certify_compactness", checking_certify)
        assert main(["demo", "coulomb-lattice", "--n", "30",
                     "--out", str(tmp_path / "rep.json")]) == EXIT_OK
        assert alive == [[False]]



def _mjson(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def _run(argv, capsys):
    """Exit code and stderr of one CLI call."""
    code = main(argv)
    return code, capsys.readouterr().err


class TestInputChecks:
    """Bundle and potential files that do not fit the graph exit 1 with a
    message naming the vertex or edge."""

    @staticmethod
    def bundle(**changes):
        doc = {"rank": 1,
               "connection": [{"u": f"v{i}", "v": f"v{i+1}", "phi": [[[1.0, 0.0]]]}
                              for i in range(5)],
               "potentials": {"w": {f"v{j}": [[[1.0 / (1 + j), 0.0]]] for j in range(6)}}}
        doc.update(changes)
        return doc

    @pytest.mark.parametrize("case, message", [
        ("potential-missing-vertex", "potential 'w' has no value at vertex v3"),
        ("potential-unknown-vertex", "potential 'w' has a value at unknown vertex zz"),
        ("potential-nan", "potential 'w': W(v2) is not finite"),
        ("connection-missing-edge", "connection has no entry for edge (v"),
        ("connection-non-edge", "connection entry (v0,v3) is not an edge"),
        ("connection-nan", "phi(v1,v2) is not finite"),
        ("connection-not-pairs", "phi(v1,v2) is not a matrix of [re, im] pairs"),
        ("connection-list-endpoint", "connection entry (['v1'],v2) is not an edge"),
        ("connection-object-endpoint", "connection entry (v1,{'id': 'v2'}) is not an edge"),
        ("connection-not-object", "connection entry ['v1', 'v2'] is not an object"),
        ("metric-missing-vertex", "metric has no value at vertex v4"),
    ])
    @pytest.mark.parametrize("command", ["dominate", "certify"])
    def test_bundle_file(self, case, message, command, tmp_path, capsys):
        g = path_graph(6)
        gpath, bpath = tmp_path / "g.json", tmp_path / "b.json"
        dump_graph(g, gpath)
        doc = self.bundle()
        w, conn = doc["potentials"]["w"], doc["connection"]
        if case == "potential-missing-vertex":
            del w["v3"]
        elif case == "potential-unknown-vertex":
            w["zz"] = [[[1.0, 0.0]]]
        elif case == "potential-nan":
            w["v2"] = [[[float("nan"), 0.0]]]
        elif case == "connection-missing-edge":
            del conn[2]
        elif case == "connection-non-edge":
            conn.append({"u": "v0", "v": "v3", "phi": [[[1.0, 0.0]]]})
        elif case == "connection-nan":
            conn[1]["phi"] = [[[float("nan"), 0.0]]]
        elif case == "connection-not-pairs":
            conn[1]["phi"] = [[1.0]]
        elif case == "connection-list-endpoint":
            conn[1]["u"] = ["v1"]
        elif case == "connection-object-endpoint":
            conn[1]["v"] = {"id": "v2"}
        elif case == "connection-not-object":
            conn[1] = ["v1", "v2"]
        elif case == "metric-missing-vertex":
            doc["metric"] = {f"v{j}": [[[1.0, 0.0]]] for j in range(6) if j != 4}
        bpath.write_text(json.dumps(doc))
        argv = (["dominate", "check", "--potential", "w"] if command == "dominate"
                else ["compact", "certify", "--potential", "w",
                      "--levels", "root=v0,radii=2,5"])
        code, err = _run([*argv, "--graph", str(gpath), "--bundle", str(bpath),
                          "--out", str(tmp_path / "rep.json")], capsys)
        assert code == EXIT_INPUT
        assert message in err
        if case == "connection-missing-edge":
            assert "v2" in err and "v3" in err

    @pytest.mark.parametrize("command", ["dominate", "certify"])
    def test_unknown_bundle_potential(self, command, tmp_path, capsys, monkeypatch):
        from heatcert import cli

        calls = []
        for name in ("assemble_laplacian", "assemble_covariant"):
            monkeypatch.setattr(cli, name, lambda *a, _n=name: calls.append(_n))
        gpath, bpath = tmp_path / "g.json", tmp_path / "b.json"
        dump_graph(path_graph(6), gpath)
        bpath.write_text(json.dumps(self.bundle()))
        argv = (["dominate", "check"] if command == "dominate"
                else ["compact", "certify", "--levels", "root=v0,radii=2,5"])
        code, err = _run([*argv, "--potential", "nope", "--graph", str(gpath),
                          "--bundle", str(bpath), "--out", str(tmp_path / "rep.json")], capsys)
        assert code == EXIT_INPUT
        assert "--potential 'nope' is not in the bundle; it has ['w']" in err
        assert calls == []

    @pytest.mark.parametrize("source", ["scalar", "bundle"])
    def test_negative_edge_weight(self, source, tmp_path, capsys):
        # the graph control pair rests on b >= 0: certify refuses the graph
        gpath, wpath, bpath = tmp_path / "g.json", tmp_path / "w.json", tmp_path / "b.json"
        dump_graph(make_graph([f"v{j}" for j in range(6)], {f"v{j}": 1.0 for j in range(6)},
                              [(f"v{i}", f"v{i+1}", -0.5 if i == 2 else 1.0)
                               for i in range(5)]), gpath)
        wpath.write_text(json.dumps({f"v{j}": 1.0 / (1 + j) for j in range(6)}))
        bpath.write_text(json.dumps(self.bundle()))
        potential = ["--potential", str(wpath)] if source == "scalar" else [
            "--bundle", str(bpath), "--potential", "w"]
        out = tmp_path / "rep.json"
        code, err = _run(["compact", "certify", "--graph", str(gpath), *potential,
                          "--levels", "root=v0,radii=2,5", "--out", str(out)], capsys)
        assert code == EXIT_INPUT
        assert "negative edge weight on (v2,v3)" in err
        assert not out.exists()

    @staticmethod
    def validate_doc(doc, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(doc))
        return _run(["graph", "validate", "--graph", str(gpath),
                     "--out", str(tmp_path / "rep.json")], capsys)

    @staticmethod
    def graph_doc():
        g = path_graph(4)
        return {"vertices": [{"id": v, "rho": 1.0} for v in g.vertices],
                "edges": [{"u": f"v{i}", "v": f"v{i+1}", "b": 1.0} for i in range(3)]}

    @pytest.mark.parametrize("value", ["2", True, None, [1.0]])
    def test_graph_rho_not_a_number(self, value, tmp_path, capsys):
        doc = self.graph_doc()
        doc["vertices"][2]["rho"] = value
        code, err = self.validate_doc(doc, tmp_path, capsys)
        assert code == EXIT_INPUT
        assert "rho(v2) is not a number" in err

    @pytest.mark.parametrize("value", ["1.5", False, None, {"re": 1.0}])
    def test_graph_b_not_a_number(self, value, tmp_path, capsys):
        doc = self.graph_doc()
        doc["edges"][1]["b"] = value
        code, err = self.validate_doc(doc, tmp_path, capsys)
        assert code == EXIT_INPUT
        assert "b(v1,v2) is not a number" in err

    @pytest.mark.parametrize("end, value, message", [
        ("u", ["v1"], "edge (['v1'],v2) references unknown vertex"),
        ("v", {"id": "v2"}, "edge (v1,{'id': 'v2'}) references unknown vertex"),
    ])
    def test_graph_endpoint_list_or_object(self, end, value, message, tmp_path, capsys):
        # a JSON list or object is no vertex id, and no hashable key
        doc = self.graph_doc()
        doc["edges"][1][end] = value
        code, err = self.validate_doc(doc, tmp_path, capsys)
        assert code == EXIT_INPUT
        assert message in err

    def test_graph_duplicate_vertex_id_named(self, tmp_path, capsys):
        doc = self.graph_doc()
        doc["vertices"].append({"id": "v1", "rho": 2.0})
        code, err = self.validate_doc(doc, tmp_path, capsys)
        assert code == EXIT_INPUT
        assert "duplicate vertex id v1" in err

    @pytest.mark.parametrize("change, message", [
        (lambda w: w.pop("v3"), "potential has no value at vertex v3"),
        (lambda w: w.update(zz=1.0), "potential has a value at unknown vertex zz"),
        (lambda w: w.update(v2=float("nan")), "W(v2) is not finite"),
        (lambda w: w.update(v0=[1]), "W(v0) is not a real number"),
        (lambda w: w.update(v0=None), "W(v0) is not a real number"),
        (lambda w: w.update(v4="1+2j"), "W(v4) is not a real number"),
        (lambda w: w.update(v4="0.5"), "W(v4) is not a real number"),
        (lambda w: w.update(v2=True), "W(v2) is not a real number"),
    ])
    def test_scalar_potential_file(self, change, message, tmp_path, capsys):
        gpath, wpath = tmp_path / "g.json", tmp_path / "w.json"
        dump_graph(path_graph(6), gpath)
        w = {f"v{j}": 1.0 / (1 + j) for j in range(6)}
        change(w)
        wpath.write_text(json.dumps(w))
        code, err = _run(["compact", "certify", "--graph", str(gpath),
                          "--potential", str(wpath), "--levels", "root=v0,radii=2,5",
                          "--out", str(tmp_path / "rep.json")], capsys)
        assert code == EXIT_INPUT
        assert message in err


class TestMetricBundles:
    """A file with fiber metric g_x, connection S_y^{-1} U S_x and potentials
    S_x^{-1} H_x S_x (S_x = g_x^{1/2}, the Hermitian square root) describes
    the same operator as its twin with the identity metric, U and H_x, up to
    the unitary change of fiber frames Q_x = L_x^* S_x^{-1} (g_x = L_x L_x^*).

    Every value the reports hold is invariant under a unitary change of
    fiber frames, the Kato domination rows too, which read fiber block
    norms and the eigenvalues of diagonal blocks: so the two reports agree
    on every value, to 1e-12, for a diagonal metric (Q_x = I) and for a
    full one."""

    @staticmethod
    def twins(tmp_path, diagonal=False, seed=17, d=2):
        rng = np.random.default_rng(seed)
        g = random_graph(10, rng, p=0.3)
        gpath = tmp_path / "g.json"
        dump_graph(g, gpath)
        S, metric = {}, {}
        for v in g.vertices:
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            gx = a @ a.conj().T + 0.5 * np.eye(d)
            if diagonal:
                gx = np.diag(np.real(np.diagonal(gx)))
            lam, q = np.linalg.eigh(gx)
            S[v] = (q * np.sqrt(lam)) @ q.conj().T
            metric[v] = _mjson(gx)
        U = {tuple(sorted(pair)): _unitary(rng, d) for pair in g.b}
        hops = dict(zip(g.vertices, range(g.n)))
        H = {}
        for v in g.vertices:
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            H[v] = (a @ a.conj().T) / (1.0 + hops[v]) ** 2
        inv = np.linalg.inv
        plain = {"rank": d,
                 "connection": [{"u": u, "v": v, "phi": _mjson(m)} for (u, v), m in U.items()],
                 "potentials": {"w": {v: _mjson(h) for v, h in H.items()}}}
        curved = {"rank": d, "metric": metric,
                  "connection": [{"u": u, "v": v, "phi": _mjson(inv(S[v]) @ m @ S[u])}
                                 for (u, v), m in U.items()],
                  "potentials": {"w": {v: _mjson(inv(S[v]) @ h @ S[v])
                                       for v, h in H.items()}}}
        paths = {}
        for name, doc in (("plain", plain), ("curved", curved)):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc))
        return gpath, paths, dict(metric=metric, U=U, H=H, S=S)

    @staticmethod
    def assert_reports_match(a, b, where="report"):
        if isinstance(a, dict):
            assert a.keys() == b.keys(), where
            for k in a:
                TestMetricBundles.assert_reports_match(a[k], b[k], f"{where}.{k}")
        elif isinstance(a, list):
            assert len(a) == len(b), where
            for i, (x, y) in enumerate(zip(a, b)):
                TestMetricBundles.assert_reports_match(x, y, f"{where}[{i}]")
        elif isinstance(a, float):
            assert abs(a - b) <= 1e-12, (where, a, b)
        else:
            assert a == b, where

    @pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
    @pytest.mark.parametrize("command", [
        ["dominate", "check", "--potential", "w"],
        ["compact", "certify", "--potential", "w", "--a", "2", "--levels",
         "root=v0,radii=1,2,9"],
    ], ids=["dominate", "certify"])
    def test_matches_identity_twin(self, command, diagonal, tmp_path):
        gpath, paths, _ = self.twins(tmp_path, diagonal)
        reports = {}
        for name, bpath in paths.items():
            out = tmp_path / f"{name}-rep.json"
            assert main([*command, "--graph", str(gpath), "--bundle", str(bpath),
                         "--seed", "5", "--out", str(out)]) == EXIT_OK
            reports[name] = json.loads(out.read_text())
        assert reports["curved"]["pass"] is True
        self.assert_reports_match(reports["curved"], reports["plain"])

    @pytest.mark.parametrize("fault, message", [
        ("metric-not-pd", "not positive definite"),
        ("connection-not-unitary", "not unitary"),
        ("potential-not-self-adjoint", "flagged self-adjoint but is not"),
    ])
    def test_negative_fixtures(self, fault, message, tmp_path, capsys):
        gpath, paths, parts = self.twins(tmp_path)
        doc = json.loads(paths["curved"].read_text())
        v0 = "v0"
        if fault == "metric-not-pd":
            doc["metric"][v0] = _mjson(np.diag([1.0, -1.0]))
        elif fault == "connection-not-unitary":
            # unitary in Euclidean coordinates, not for the metric
            doc["connection"] = json.loads(paths["plain"].read_text())["connection"]
        else:
            doc["potentials"]["w"] = {v: _mjson(h) for v, h in parts["H"].items()}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, err = _run(["compact", "certify", "--graph", str(gpath), "--bundle", str(bad),
                          "--potential", "w", "--levels", "root=v0,radii=1,9",
                          "--out", str(tmp_path / "rep.json")], capsys)
        assert code == EXIT_INPUT
        assert message in err

class TestVertexOrder:
    """Vertex ids become stack positions where a file is read: a bundle or
    scalar potential file whose keys come in reverse order gives a
    byte-identical report."""

    @staticmethod
    def reverse(doc):
        doc = dict(doc, connection=doc["connection"][::-1],
                   potentials={name: dict(reversed(w.items()))
                               for name, w in doc["potentials"].items()})
        if "metric" in doc:
            doc["metric"] = dict(reversed(doc["metric"].items()))
        return doc

    @staticmethod
    def reports(argv, paths, flag, tmp_path):
        out = []
        for k, path in enumerate(paths):
            rep = tmp_path / f"rep{k}.json"
            out.append((main([*argv, flag, str(path), "--out", str(rep)]), rep.read_bytes()))
        return out

    @pytest.mark.parametrize("twin", ["plain", "curved"])
    @pytest.mark.parametrize("command", [
        ["dominate", "check", "--potential", "w"],
        ["compact", "certify", "--potential", "w", "--a", "2", "--levels",
         "root=v0,radii=1,2,9"],
    ], ids=["dominate", "certify"])
    def test_bundle_file(self, command, twin, tmp_path):
        gpath, paths, _ = TestMetricBundles.twins(tmp_path)
        forward = paths[twin]
        backward = tmp_path / "backward.json"
        backward.write_text(json.dumps(self.reverse(json.loads(forward.read_text()))))
        assert forward.read_text() != backward.read_text()
        a, b = self.reports([*command, "--graph", str(gpath), "--seed", "5"],
                            (forward, backward), "--bundle", tmp_path)
        assert a[0] == EXIT_OK and a == b

    def test_scalar_potential_file(self, tmp_path):
        rng = np.random.default_rng(31)
        g = random_graph(12, rng, p=0.3)
        gpath = tmp_path / "g.json"
        dump_graph(g, gpath)
        w = {v: float(rng.standard_normal()) / (1 + k * k) for k, v in enumerate(g.vertices)}
        paths = (tmp_path / "forward.json", tmp_path / "backward.json")
        paths[0].write_text(json.dumps(w))
        paths[1].write_text(json.dumps(dict(reversed(w.items()))))
        a, b = self.reports(["compact", "certify", "--graph", str(gpath), "--a", "2",
                             "--levels", f"root={g.vertices[0]},radii=1,2,11"],
                            paths, "--potential", tmp_path)
        assert a[0] in (EXIT_OK, EXIT_VIOLATION) and a == b
        assert json.loads(a[1])["levels"][-1] == g.n


# runs the CLI in a fresh interpreter and reports every SciPy module it
# loaded on the way
_PROBE = """
import json, sys
from heatcert.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def run_fresh(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(heatcert.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


class TestStartupImports:
    def test_certify_leaves_quadpack_unloaded(self, path_file, tmp_path):
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps({f"v{j}": 1.0 / (1.0 + j) for j in range(12)}))
        run = run_fresh(["compact", "certify", "--graph", path_file,
                         "--potential", str(wpath), "--a", "2.0",
                         "--levels", "root=v0,radii=5,11",
                         "--out", str(tmp_path / "rep.json")])
        assert run == {"code": EXIT_OK, "loaded": []}

    def test_singular_families_leave_quadpack_unloaded(self, tmp_path):
        out = tmp_path / "rep.json"
        run = run_fresh(["control", "check", "--family", "power", "--gamma", "1",
                         "--q", "1", "--out", str(out)])
        assert run == {"code": EXIT_OK, "loaded": []}
        verdict = json.loads(out.read_text())["verdict"]
        assert verdict["value"] == pytest.approx(2.1275595469928477, rel=1e-12)
        run = run_fresh(["control", "check", "--family", "bakry-emery", "--m", "2",
                         "--beta", "1", "--q", "1", "--out", str(out)])
        assert run == {"code": EXIT_OK, "loaded": []}

    @pytest.mark.parametrize("argv", [
        "graph validate --graph {graph}",
        "heat kernel --graph {graph} --times 0.5,1.0 --out {out}",
        "heat verify --graph {graph} --exhaustion root=v0,radii=3,11 --out {out}",
        "heat minimal --graph {graph} --exhaustion root=v0,radii=3,6,11 --times 0.5,1.0",
        "control fit --kernel {kernel} --family graph --out {out}",
        "dominate check --graph {graph} --bundle {bundle} --times 0.1,1.0 --a 1,2",
        "compact certify --graph {graph} --bundle {bundle} --potential w --a 2"
        " --levels root=v0,radii=5,11 --out {out}",
        "demo coulomb-lattice --n 30 --out {out}",
    ], ids=lambda argv: " ".join(argv.split()[:2]) + (" bundle" if "bundle" in argv else ""))
    def test_subcommand_loads_no_scipy(self, argv, path_file, tmp_path):
        g = path_graph(12)
        kernel, bundle = tmp_path / "k.json", tmp_path / "b.json"
        dump_kernel(kernel_from_semigroup(assemble_laplacian(g), (0.5, 1.0)), kernel)
        conn = UnitaryConnection.from_edge_phases(g, np.full(11, 0.4))
        W = EndomorphismField.scalar({f"v{j}": 1.0 / (1.0 + j * j) for j in range(12)})
        dump_bundle(bundle, 1, connection=conn, potentials={"w": W})
        paths = {"graph": path_file, "kernel": kernel, "bundle": bundle,
                 "out": tmp_path / "rep.json"}
        run = run_fresh([arg.format(**paths) for arg in argv.split()])
        assert run == {"code": EXIT_OK, "loaded": []}


class TestDemo:
    def test_small_run(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["demo", "coulomb-lattice", "--n", "40", "--kappa", "1.0",
                     "--theta", "0.3", "--seed", "1", "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["pass"] is True
        assert rep["compactness"]["verdict"] == "hypotheses-verified"
        # per level: the top 5 sigma, the HS norm and the support columns;
        # W = 1 / (1 + j^2) has no zero, so its support is the whole level
        comp = rep["compactness"]
        dims = [str(d) for d in comp["levels"]]
        assert list(comp["singular_values"]) == list(comp["hs_norms"]) == dims
        for d in dims:
            sv = comp["singular_values"][d]
            assert len(sv) == 5 and sv == sorted(sv, reverse=True)
            assert comp["support_columns"][d] == int(d)
            assert sv[0] < comp["hs_norms"][d] <= math.sqrt(int(d)) * sv[0]

    def test_reports_byte_identical_for_same_seed(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        args = ["demo", "coulomb-lattice", "--n", "30", "--seed", "7"]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_echoed(self, tmp_path):
        out = tmp_path / "rep.json"
        main(["demo", "coulomb-lattice", "--n", "30", "--seed", "42",
              "--out", str(out)])
        assert json.loads(out.read_text())["seed"] == 42

    def test_each_host_operator_diagonalised_once(self, tmp_path, monkeypatch):
        # the path's connection is a gauge of the trivial one, so domination
        # and certification run on the real scalar operator and the
        # covariant one is never diagonalised; the Laplace crosscheck reads
        # the scalar eigenbasis before the heat pass forms its kernel factor
        # in place of it
        kinds = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: kinds.append(a.dtype.kind) or eigh(a))
        assert main(["demo", "coulomb-lattice", "--n", "30",
                     "--out", str(tmp_path / "rep.json")]) == EXIT_OK
        assert kinds == ["f"]

    def test_certification_runs_no_factorisation(self, tmp_path, monkeypatch):
        # domination diagonalises no covariant operator, and H_cov keeps
        # its PSD verdict: certification neither diagonalises nor factorises
        from heatcert import cli

        caches, calls = [], []
        certify = cli.certify_compactness

        def checking_certify(W, W1, H, *args, **kwargs):
            caches.append(dict(H._cache))
            for name in ("eigh", "cholesky"):
                fn = getattr(np.linalg, name)
                monkeypatch.setattr(np.linalg, name, lambda *a, _n=name, _f=fn, **k:
                                    calls.append(_n) or _f(*a, **k))
            return certify(W, W1, H, *args, **kwargs)

        monkeypatch.setattr(cli, "certify_compactness", checking_certify)
        assert main(["demo", "coulomb-lattice", "--n", "30",
                     "--out", str(tmp_path / "rep.json")]) == EXIT_OK
        # the gauge that domination built stays cached for certification
        assert [sorted(c) for c in caches] == [["gauge", "psd"]]
        assert caches[0]["psd"] is True
        assert calls == []

    def test_demo_builds_the_gauge_once(self, tmp_path, monkeypatch):
        # domination and certification read one scalar gauge of H_cov: the
        # second call returns the cached (S, G, eta), and S is never written
        from heatcert import compactness, operators

        built, returned = [], []
        gauge = operators.scalar_gauge

        def recording_gauge(H, *edges):
            out = gauge(H, *edges)
            returned.append(out)
            if not any(r is out for r in returned[:-1]):
                built.append(out[0].matrix.copy())
            return out

        monkeypatch.setattr(compactness, "scalar_gauge", recording_gauge)
        assert main(["demo", "coulomb-lattice", "--n", "30",
                     "--out", str(tmp_path / "rep.json")]) == EXIT_OK
        assert len(returned) == 2 and returned[0] is returned[1]
        assert len(built) == 1 and np.array_equal(built[0], returned[0][0].matrix)

    @pytest.mark.parametrize("n", ["-3", "0", "3", "4"])
    def test_n_below_five_is_an_input_error(self, n, tmp_path, capsys):
        # the four exhaustion radii coincide below n = 5
        out = tmp_path / "rep.json"
        code, err = _run(["demo", "coulomb-lattice", "--n", n, "--out", str(out)], capsys)
        assert code == EXIT_INPUT
        assert f"--n must be at least 5, got {n}" in err
        assert not out.exists()

    def test_n_five_is_accepted(self, tmp_path, capsys):
        # the run completes; its last-level drift may exceed --drift-tol
        out = tmp_path / "rep.json"
        code, err = _run(["demo", "coulomb-lattice", "--n", "5", "--out", str(out)], capsys)
        assert code in (EXIT_OK, EXIT_VIOLATION) and err == ""
        assert json.loads(out.read_text())["compactness"]["levels"] == [2, 3, 4, 5]

    def test_bad_times_fail_before_any_spectral_work(self, tmp_path, monkeypatch):
        from heatcert import cli

        calls = []
        monkeypatch.setattr(cli, "check_domination", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: calls.append(a))
        code = main(["demo", "coulomb-lattice", "--n", "30", "--times", "0.5,x",
                     "--out", str(tmp_path / "rep.json")])
        assert code == EXIT_INPUT and calls == []


class TestFlagValues:
    """Usage errors and numbers that are not finite exit 1 before any work,
    with a message that names the flag; exit 2 means a bound failed."""

    @staticmethod
    def files(tmp_path):
        g = path_graph(12)
        kernel, bundle = tmp_path / "k.json", tmp_path / "b.json"
        dump_graph(g, tmp_path / "g.json")
        dump_kernel(kernel_from_semigroup(assemble_laplacian(g), (0.5, 1.0)), kernel)
        W = EndomorphismField.scalar({f"v{j}": 1.0 / (1.0 + j * j) for j in range(12)})
        dump_bundle(bundle, 1, connection=UnitaryConnection.trivial(g, 1),
                    potentials={"w": W})
        return {"graph": tmp_path / "g.json", "kernel": kernel, "bundle": bundle,
                "out": tmp_path / "rep.json"}

    CERTIFY = ("compact certify --graph {graph} --bundle {bundle} --potential w"
               " --levels root=v0,radii=5,11 --out {out}")
    DOMINATE = "dominate check --graph {graph} --bundle {bundle} --out {out}"

    @pytest.mark.parametrize("argv", [
        CERTIFY + " --a inf",
        CERTIFY + " --a nan",
        CERTIFY + " --q nan",
        CERTIFY + " --decomp threshold:nan",
        "heat verify --graph {graph} --out {out} --times 0.5,nan,1",
        "heat verify --graph {graph} --out {out} --times nan",
        DOMINATE + " --a nan",
        DOMINATE + " --a 1,inf",
        "demo coulomb-lattice --n 30 --out {out} --threshold nan",
        "control check --out {out} --C nan",
        "control check --out {out} --q nan",
        CERTIFY + " --topk abc",
        CERTIFY + " --bogus 1",
        # --times is an option only where a time grid is read
        "graph validate --graph {graph} --out {out} --times 0.5",
        "control check --out {out} --times 0.5",
        "control fit --kernel {kernel} --out {out} --times 0.5",
        CERTIFY + " --times 0.5",
        "demo coulomb-lattice --n 20 --out {out} --times 0.1,2",
    ], ids=lambda argv: " ".join(argv.split()[:2] + argv.split()[-2:]))
    def test_rejected_with_exit_1(self, argv, tmp_path, capsys):
        # the flag under test and its value end each command line, and the
        # last line of stderr, after argparse's usage, names the flag
        paths = self.files(tmp_path)
        code, err = _run([arg.format(**paths) for arg in argv.split()], capsys)
        assert code == EXIT_INPUT
        assert argv.split()[-2] in err.splitlines()[-1]
        assert not paths["out"].exists()

    def test_parser_built_once_per_process(self, monkeypatch, capsys):
        import argparse

        from heatcert import cli

        cli.build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def recording(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
        for _ in range(2):
            assert main(["control", "check", "--q", "1"]) == EXIT_OK
        assert built.count("heatcert") == 1
        # a later usage error still exits 1 on the same parser
        assert main(["control", "check", "--q", "nan"]) == EXIT_INPUT
        assert built.count("heatcert") == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compact", "certify", "--help"])
        assert exc.value.code == 0
        assert "--levels" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert f"schema v{SCHEMA_VERSION}" in capsys.readouterr().out
