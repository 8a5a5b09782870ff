import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heatcert
from heatcert import SCHEMA_VERSION
from heatcert.bundle import HermitianBundle, UnitaryConnection, EndomorphismField, dump_bundle
from heatcert.cli import EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, _parse_exhaustion, main
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


class TestDominate:
    def test_magnetic_path(self, tmp_path):
        g = path_graph(6)
        gpath = tmp_path / "g.json"
        dump_graph(g, gpath)
        bundle = HermitianBundle.trivial(g.vertices, 1)
        conn = UnitaryConnection.from_edge_phases(
            g, {(f"v{i}", f"v{i+1}"): 0.4 for i in range(5)})
        bpath = tmp_path / "b.json"
        dump_bundle(bpath, bundle, connection=conn)
        out = tmp_path / "rep.json"
        assert main(["dominate", "check", "--graph", str(gpath),
                     "--bundle", str(bpath), "--times", "0.1,1.0",
                     "--a", "1,2", "--trials", "5", "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["pass"] is True
        names = {row["name"] for row in rep["ledger"]}
        assert "kato-domination-semigroup" in names
        assert "kato-domination-resolvent" in names

    def test_potential_ledger_matches_covariant_labelled_sum(self, tmp_path):
        # H + V is labelled "sum"; the ledger is the one the same matrix
        # gives under the "covariant" label
        from heatcert.bundle import load_bundle
        from heatcert.compactness import check_domination
        from heatcert.operators import (OperatorMatrix, assemble_covariant,
                                        multiplication_operator)

        g = path_graph(6)
        gpath, bpath, out = tmp_path / "g.json", tmp_path / "b.json", tmp_path / "rep.json"
        dump_graph(g, gpath)
        conn = UnitaryConnection.from_edge_phases(
            g, {(f"v{i}", f"v{i+1}"): 0.4 for i in range(5)})
        V = EndomorphismField.scalar({f"v{j}": 1.0 / (1.0 + j) for j in range(6)})
        dump_bundle(bpath, HermitianBundle.trivial(g.vertices, 1), connection=conn,
                    potentials={"v": V})
        assert main(["dominate", "check", "--graph", str(gpath), "--bundle", str(bpath),
                     "--potential", "v", "--times", "0.1,1.0", "--a", "1,2",
                     "--trials", "5", "--seed", "3", "--out", str(out)]) == EXIT_OK
        _, conn, pots = load_bundle(bpath, g.vertices)
        H = assemble_covariant(g, 1, conn)
        Vop = multiplication_operator(pots["v"], g.vertices, H.rho)
        labelled = OperatorMatrix(H.matrix + Vop.matrix, H.vertices, 1, H.rho,
                                  "covariant")
        rows = check_domination(labelled, assemble_laplacian(g), (0.1, 1.0), (1.0, 2.0),
                                5, np.random.default_rng(3))
        expected = json.loads(json.dumps([r.to_dict() for r in rows]))
        assert json.loads(out.read_text())["ledger"] == expected


class TestCompactCertify:
    def test_scalar_potential_path(self, path_file, tmp_path):
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps(
            {f"v{j}": 1.0 / (1.0 + j * j) for j in range(12)}))
        out = tmp_path / "rep.json"
        assert main(["compact", "certify", "--graph", path_file,
                     "--potential", str(wpath), "--decomp", "threshold:0.1",
                     "--a", "2.0", "--levels", "root=v0,radii=5,11",
                     "--times", "0.25,0.5,1.0", "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["verdict"] == "hypotheses-verified"
        assert rep["pass"] is True


# runs the CLI in a fresh interpreter and reports which of the heavy
# SciPy subpackages it loaded on the way
_PROBE = """
import json, sys
from heatcert.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": [m for m in ("scipy.integrate", "scipy.optimize")
                                           if m in sys.modules]}))
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

    def test_singular_family_loads_quadpack(self, tmp_path):
        out = tmp_path / "rep.json"
        run = run_fresh(["control", "check", "--family", "power", "--gamma", "1",
                         "--q", "1", "--out", str(out)])
        assert run["code"] == EXIT_OK and "scipy.integrate" in run["loaded"]
        verdict = json.loads(out.read_text())["verdict"]
        assert verdict["value"] == pytest.approx(2.1275595469928477, rel=1e-12)
        assert verdict["error"] == pytest.approx(2.308399910992608e-11, rel=1e-6)


class TestDemo:
    def test_small_run(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["demo", "coulomb-lattice", "--n", "40", "--kappa", "1.0",
                     "--theta", "0.3", "--seed", "1", "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["pass"] is True
        assert rep["compactness"]["verdict"] == "hypotheses-verified"

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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert f"schema v{SCHEMA_VERSION}" in capsys.readouterr().out
