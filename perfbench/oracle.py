"""Independent checks of heatcert's reports, run outside the timed region.

The operators are rebuilt here from the generated input files with numpy
alone, in weighted (symmetrized) coordinates A = D^{1/2} H D^{-1/2}. The
singular values of W (H_n + a)^{-1} come from a dense linear solve and an
SVD, where heatcert uses a cached eigendecomposition.
"""

from __future__ import annotations

import json

import numpy as np

from workloads import hop_distance

SV_RTOL = 1e-8          # top-k singular values, relative to sigma_1 of the level
LAMBDA_TOL = 1e-8       # lambda_min of the Kato spectral-ordering row
LAPLACE_RTOL = 1e-6     # resolvent-laplace-crosscheck rtol in heatcert


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def symmetrized_operator(graph: dict, rank: int, phi: dict | None) -> tuple[np.ndarray, list]:
    """A = D^{1/2} H D^{-1/2} for (H f)(x) = rho(x)^{-1} sum_y b(x,y)
    (f(x) - phi(y->x) f(y)); ``phi[(u, v)]`` maps the fiber at u to v."""
    ids = [v["id"] for v in graph["vertices"]]
    index = {v: i for i, v in enumerate(ids)}
    rho = np.array([v["rho"] for v in graph["vertices"]], dtype=float)
    d = rank
    A = np.zeros((len(ids) * d, len(ids) * d), dtype=complex)
    eye = np.eye(d)
    for e in graph["edges"]:
        i, j, w = index[e["u"]], index[e["v"]], float(e["b"])
        m = phi[(e["u"], e["v"])] if phi else eye
        A[i * d:(i + 1) * d, i * d:(i + 1) * d] += (w / rho[i]) * eye
        A[j * d:(j + 1) * d, j * d:(j + 1) * d] += (w / rho[j]) * eye
        off = w / np.sqrt(rho[i] * rho[j])
        A[i * d:(i + 1) * d, j * d:(j + 1) * d] -= off * m.conj().T
        A[j * d:(j + 1) * d, i * d:(i + 1) * d] -= off * m
    return A, ids


def exhaustion(graph: dict, root: str, radii) -> list[list[str]]:
    """Hop balls around root, truncated like heatcert's exhaustion: stop at
    a repeated ball or once the host is covered."""
    dist = hop_distance(graph, root)
    ids = [v["id"] for v in graph["vertices"]]
    levels: list[list[str]] = []
    for r in radii:
        ball = [v for v in ids if dist.get(v, r + 1) <= r]
        if levels and len(ball) == len(levels[-1]):
            break
        levels.append(ball)
        if len(ball) == len(ids):
            break
    return levels


def top_singular_values(A, ids, levels, W_blocks, a, k, rank) -> dict[int, np.ndarray]:
    """Per level: top-k singular values of W (A_n + a)^{-1}."""
    index = {v: i for i, v in enumerate(ids)}
    out = {}
    for level in levels:
        idx = np.concatenate([np.arange(index[v] * rank, (index[v] + 1) * rank)
                              for v in level])
        An = A[np.ix_(idx, idx)]
        Wn = np.zeros_like(An)
        for pos, v in enumerate(level):
            Wn[pos * rank:(pos + 1) * rank, pos * rank:(pos + 1) * rank] = W_blocks[v]
        # W (A_n + a)^{-1} = ((A_n + a)^{-1} W^*)^*, since A_n is Hermitian
        X = np.linalg.solve(An + a * np.eye(len(idx)), Wn.conj().T).conj().T
        out[len(idx)] = np.linalg.svd(X, compute_uv=False)[:k]
    return out


def _compare_sv(expected: dict[int, np.ndarray], comp: dict) -> list[str]:
    errors = []
    if comp.get("levels") != list(expected):
        return [f"level dims {comp.get('levels')} != oracle {list(expected)}"]
    for dim, sv in expected.items():
        got = np.array(comp["singular_values"][str(dim)][:len(sv)])
        err = float(np.max(np.abs(got - sv))) if got.shape == sv.shape else np.inf
        if not err <= SV_RTOL * max(1.0, float(sv[0])):
            errors.append(f"level {dim}: top-{len(sv)} sigma off by {err:.3g}")
    return errors


def _rows(ledger, prefix):
    return [r for r in ledger if r["name"].startswith(prefix)]


def check_demo(rep: dict, p: dict) -> list[str]:
    errors = []
    comp = rep["compactness"]
    if comp["verdict"] != "hypotheses-verified":
        errors.append(f"verdict {comp['verdict']}")
    lap = _rows(rep["ledger"], "resolvent-laplace-crosscheck")
    if len(lap) != 1 or not (lap[0]["pass"] and lap[0]["lhs"] <= LAPLACE_RTOL):
        errors.append(f"laplace crosscheck {lap}")
    kato = _rows(rep["ledger"], "kato-")
    if len(kato) != 3 or not all(r["pass"] for r in kato):
        errors.append("kato rows not all passing")
    n = p["n"]
    graph = {"vertices": [{"id": f"v{j}", "rho": 1.0} for j in range(n)],
             "edges": [{"u": f"v{j}", "v": f"v{j+1}", "b": 1.0} for j in range(n - 1)]}
    phase = np.array([[np.exp(1j * p["theta"])]])
    A, ids = symmetrized_operator(graph, 1, {(e["u"], e["v"]): phase
                                             for e in graph["edges"]})
    W = {f"v{j}": np.array([[p["kappa"] / (1.0 + j * j)]]) for j in range(n)}
    radii = [n // 4, n // 2, 3 * n // 4, n - 1]
    sv = top_singular_values(A, ids, exhaustion(graph, "v0", radii), W,
                             p["a"], p["topk"], 1)
    return errors + _compare_sv(sv, comp)


def check_heat_verify(rep: dict, p: dict) -> list[str]:
    errors = []
    if not (rep["axioms"]["pass"] and rep["axioms"]["A1_pairs_checked"] > 0):
        errors.append("axioms failed or A1 unchecked")
    if not rep["rho_bound"]["pass"]:
        errors.append("rho bound failed")
    mk = rep["minimal_kernel"]
    if not mk["monotone_ok"]:
        errors.append(f"minimal kernel not monotone ({mk['worst_decrease']})")
    sizes = [len(lv) for lv in exhaustion(_load(p["graph"]), p["root"], p["radii"])]
    if mk["level_sizes"] != sizes:
        errors.append(f"level sizes {mk['level_sizes']} != oracle {sizes}")
    return errors


def _bundle_operator(p: dict):
    graph = _load(p["graph"])
    bdoc = _load(p["bundle"])
    phi = {(c["u"], c["v"]): _matrix(c["phi"]) for c in bdoc["connection"]}
    return graph, bdoc, symmetrized_operator(graph, bdoc["rank"], phi)


def check_dominate(rep: dict, p: dict) -> list[str]:
    errors = []
    kato = _rows(rep["ledger"], "kato-")
    if len(kato) != 3 or not all(r["pass"] for r in kato):
        errors.append("kato rows not all passing")
    graph, _, (A_cov, _) = _bundle_operator(p)
    A_scal, _ = symmetrized_operator(graph, 1, None)
    order = _rows(rep["ledger"], "kato-spectral-ordering")[0]
    for side, A in (("lhs", A_scal), ("rhs", A_cov)):
        lam = float(np.linalg.eigvalsh(A)[0])
        if not abs(order[side] - lam) <= LAMBDA_TOL * max(1.0, abs(lam)):
            errors.append(f"lambda_min {side} {order[side]} != oracle {lam}")
    return errors


def check_certify(rep: dict, p: dict) -> list[str]:
    errors = []
    if p["verified"] and rep["verdict"] != "hypotheses-verified":
        errors.append(f"verdict {rep['verdict']}, expected hypotheses-verified")
    if not p["verified"] and not rep["verdict"].startswith("hypothesis-failed:"):
        errors.append(f"verdict {rep['verdict']}, expected hypothesis-failed:*")
    graph, bdoc, (A, ids) = _bundle_operator(p)
    W = {v: _matrix(m) for v, m in bdoc["potentials"][p["potential"]].items()}
    sv = top_singular_values(A, ids, exhaustion(graph, p["root"], p["radii"]), W,
                             p["a"], p["topk"], bdoc["rank"])
    return errors + _compare_sv(sv, rep)


def check_validate(rep: dict, p: dict) -> list[str]:
    cut = any("disconnected" in v for v in rep["violations"])
    if p["connected"] and rep["violations"]:
        return [f"violations on a valid host: {rep['violations'][:3]}"]
    if not p["connected"] and not cut:
        return ["disconnected host not reported"]
    return []


def check(inv, exit_code, report_text: str | None) -> list[str]:
    """Every way the invocation's outcome differs from a correct run."""
    errors = []
    if exit_code != inv.expect_exit:
        errors.append(f"exit {exit_code}, expected {inv.expect_exit}")
    if report_text is None:
        return errors + ["no report written"]
    routine = {"demo": check_demo, "heat_verify": check_heat_verify,
               "dominate": check_dominate, "certify": check_certify,
               "validate": check_validate}[inv.check]
    try:
        rep = json.loads(report_text)
        if rep.get("pass") is not (inv.expect_exit == 0):
            errors.append(f"pass flag {rep.get('pass')}")
        return errors + routine(rep, inv.params)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return errors + [f"report unreadable or incomplete: {e!r}"]
