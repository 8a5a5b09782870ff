"""Seeded inputs and CLI invocations for the benchmark workloads.

Every input is drawn from ``numpy.random.default_rng(seed)`` and written as
the JSON files heatcert reads; heatcert itself only sees those files and the
CLI flags. The generators use numpy alone, so they share no code with the
program under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Why each workload exists; BENCHMARK.json carries the same lines.
WHY = {
    "demo-path": "the ROADMAP's named demo pipeline; compactness does ~85% of "
                 "the work (Laplace crosscheck: 320 dense semigroups)",
    "heat-lattice": "heat and operators do all the work (kernels, A1 pairs, "
                    "minimal kernel on 4 Dirichlet levels); compactness does none",
    "bundle-certify": "rank-2 bundle: Kato domination over 520 sections and "
                      "certification along an exhaustion; the only workload "
                      "that loads a bundle file",
    "host-validate": "graph validation on a 4,096-vertex lattice, O(n|E|); "
                     "graph does ~98% of the work here and <2% elsewhere",
}

# Layers each workload is predicted to exercise (non-zero traced self time).
EXERCISES = {
    "demo-path": ("cli", "operators", "control", "compactness"),
    "heat-lattice": ("cli", "operators", "heat"),
    "bundle-certify": ("cli", "bundle", "control", "compactness"),
    "host-validate": ("cli", "graph"),
}

DEMO_N = 400
LATTICE_SIDE = 24
LATTICE_RADII = (10, 20, 30, 46)
HOST_SIDE = 64
ER_N = 250
ER_EDGES = 600
BUNDLE_RANK = 2
BUNDLE_A = 2.0
BUNDLE_RADII = (2, 3, 4, 5, 6)
LEVEL3_SIZE = (180, 200)           # vertices within BUNDLE_RADII[2] hops of v0
TOPK = 5


@dataclass(frozen=True)
class Invocation:
    """One ``heatcert`` CLI call (without ``--out``) and what a correct run
    of it returns. Its report is written to ``<label>.json``.

    An invocation with a ``known_defect`` is one heatcert is known to get
    wrong. It is left out of the timed passes and of ``correct``; run.py
    runs it once per run, checks it with the same oracle and reports
    whether the defect still shows."""

    label: str
    argv: list[str]
    expect_exit: int
    check: str                     # oracle routine in oracle.py
    params: dict = field(default_factory=dict)
    known_defect: str = ""


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _uniform(rng, size, lo=0.5, hi=2.0):
    return rng.uniform(lo, hi, size=size)


def lattice_doc(side: int, rng) -> dict:
    """side x side grid, ids v{i}_{j}, seeded rho and b in [0.5, 2]."""
    ids = [f"v{i}_{j}" for i in range(side) for j in range(side)]
    rho = _uniform(rng, len(ids))
    edges = []
    for i in range(side):
        for j in range(side):
            if i + 1 < side:
                edges.append((f"v{i}_{j}", f"v{i+1}_{j}"))
            if j + 1 < side:
                edges.append((f"v{i}_{j}", f"v{i}_{j+1}"))
    b = _uniform(rng, len(edges))
    return {"vertices": [{"id": v, "rho": float(r)} for v, r in zip(ids, rho)],
            "edges": [{"u": u, "v": v, "b": float(w)}
                      for (u, v), w in zip(edges, b)]}


def er_doc(n: int, edges: int, rng) -> dict:
    """Erdos-Renyi host with exactly ``edges`` edges: a random spanning path
    keeps it connected, and the other edges are drawn uniformly from the
    remaining vertex pairs."""
    order = rng.permutation(n)
    path = {tuple(sorted((int(a), int(c)))) for a, c in zip(order, order[1:])}
    iu, ju = np.triu_indices(n, k=1)
    free = [k for k, pair in enumerate(zip(iu.tolist(), ju.tolist())) if pair not in path]
    extra = rng.choice(free, size=edges - (n - 1), replace=False)
    pairs = sorted(path | {(int(iu[k]), int(ju[k])) for k in extra})
    rho = _uniform(rng, n)
    b = _uniform(rng, len(pairs))
    return {"vertices": [{"id": f"v{i}", "rho": float(r)} for i, r in enumerate(rho)],
            "edges": [{"u": f"v{i}", "v": f"v{j}", "b": float(w)}
                      for (i, j), w in zip(pairs, b)]}


def hop_distance(doc: dict, root: str) -> dict[str, int]:
    adj: dict[str, list[str]] = {v["id"]: [] for v in doc["vertices"]}
    for e in doc["edges"]:
        adj[e["u"]].append(e["v"])
        adj[e["v"]].append(e["u"])
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def random_su2(rng) -> np.ndarray:
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    a, c = complex(q[0], q[1]), complex(q[2], q[3])
    return np.array([[a, -c.conjugate()], [c, a.conjugate()]])


def _matrix_json(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def bundle_doc(graph: dict, rng) -> dict:
    """Random SU(2) connection plus two Hermitian matrix potentials with the
    same seeded fiber shape: ``decay`` ~ (1+dist)^-2 and ``grow`` ~ (1+dist)^2
    from the root v0."""
    connection = [{"u": e["u"], "v": e["v"], "phi": _matrix_json(random_su2(rng))}
                  for e in graph["edges"]]
    kappa = float(rng.uniform(0.5, 2.0))
    dist = hop_distance(graph, "v0")
    decay, grow = {}, {}
    for v in graph["vertices"]:
        frame = random_su2(rng)
        shape = frame @ np.diag([1.0, rng.uniform(0.2, 1.0)]) @ frame.conj().T
        shape = 0.5 * (shape + shape.conj().T)
        r = 1.0 + dist[v["id"]]
        decay[v["id"]] = _matrix_json(kappa * shape / r ** 2)
        grow[v["id"]] = _matrix_json(kappa * shape * r ** 2)
    return {"rank": BUNDLE_RANK, "connection": connection,
            "potentials": {"decay": decay, "grow": grow}}


def _steady_levels(graph: dict) -> bool:
    """Whether the bundle host gives every seed about the same certify work:
    the farthest vertex is exactly BUNDLE_RADII[-1] hops from v0, so there
    is one level per radius and the last is the whole host, and the third
    level, the largest cost that varies, holds LEVEL3_SIZE vertices."""
    dist = list(hop_distance(graph, "v0").values())
    third = sum(d <= BUNDLE_RADII[2] for d in dist)
    return (max(dist) == BUNDLE_RADII[-1]
            and LEVEL3_SIZE[0] <= third <= LEVEL3_SIZE[1])


def build(workload: str, seed: int, work: Path) -> list[Invocation]:
    """Write the workload's inputs under ``work`` and return its invocations;
    the same seed gives the same files."""
    rng = np.random.default_rng(seed)
    s = str(seed)
    if workload == "demo-path":
        kappa = float(rng.uniform(0.5, 2.0))
        theta = float(rng.uniform(0.1, 1.2))
        argv = ["demo", "coulomb-lattice", "--n", str(DEMO_N), "--kappa", repr(kappa),
                "--theta", repr(theta), "--seed", s]
        return [Invocation("demo", argv, 0, "demo", dict(
            n=DEMO_N, kappa=kappa, theta=theta, a=1.0, topk=TOPK))]
    if workload == "heat-lattice":
        g = _write(work / "lattice.json", lattice_doc(LATTICE_SIDE, rng))
        spec = "root=v0_0,radii=" + ",".join(map(str, LATTICE_RADII))
        argv = ["heat", "verify", "--graph", g, "--exhaustion", spec, "--seed", s]
        return [Invocation("heat-verify", argv, 0, "heat_verify", dict(
            graph=g, root="v0_0", radii=LATTICE_RADII))]
    if workload == "bundle-certify":
        graph = er_doc(ER_N, ER_EDGES, rng)
        while not _steady_levels(graph):
            graph = er_doc(ER_N, ER_EDGES, rng)
        g = _write(work / "host.json", graph)
        b = _write(work / "bundle.json", bundle_doc(graph, rng))
        spec = "root=v0,radii=" + ",".join(map(str, BUNDLE_RADII))
        common = ["--graph", g, "--bundle", b, "--seed", s]
        certify = ["compact", "certify", *common, "--decomp", "threshold:0.1",
                   "--a", repr(BUNDLE_A), "--levels", spec, "--topk", str(TOPK)]
        params = dict(graph=g, bundle=b, root="v0", radii=BUNDLE_RADII,
                      a=BUNDLE_A, topk=TOPK)
        return [
            Invocation("dominate", ["dominate", "check", *common, "--a", "0.5,1,2,4"],
                       0, "dominate", dict(graph=g, bundle=b)),
            Invocation("certify-decay", [*certify, "--potential", "decay"],
                       0, "certify", dict(params, potential="decay", verified=True)),
            # A potential growing like (1+dist)^2 is not relatively compact;
            # a sound verdict must fail it.
            Invocation("certify-grow", [*certify, "--potential", "grow"],
                       2, "certify", dict(params, potential="grow", verified=False),
                       known_defect="ROADMAP item 2: the certify verdict ignores "
                                    "singular-value drift between levels"),
        ]
    if workload == "host-validate":
        doc = lattice_doc(HOST_SIDE, rng)
        g = _write(work / "host.json", doc)
        # cut every edge between columns HOST_SIDE/2 - 1 and HOST_SIDE/2
        half = HOST_SIDE // 2
        cut = dict(doc, edges=[e for e in doc["edges"]
                               if {int(e["u"].split("_")[1]), int(e["v"].split("_")[1])}
                               != {half - 1, half}])
        gc = _write(work / "host-cut.json", cut)
        return [
            Invocation("validate", ["graph", "validate", "--graph", g, "--seed", s],
                       0, "validate", dict(connected=True)),
            Invocation("validate-cut", ["graph", "validate", "--graph", gc, "--seed", s],
                       2, "validate", dict(connected=False)),
        ]
    raise ValueError(f"unknown workload {workload!r}")
