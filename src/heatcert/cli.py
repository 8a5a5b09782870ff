"""Command-line entry point.

Wires graph/bundle/potential JSON inputs into the verification pipelines
and emits JSON reports. Exit codes: 0 all asserted bounds pass, 1 input
error, 2 bound violation. Reports echo the seed and config so a run is
reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import SCHEMA_VERSION, __version__
from .bundle import (EndomorphismField, UnitaryConnection, check_vertex_set,
                     decompose_potential, load_bundle)
from .compactness import (
    certify_compactness,
    check_domination,
    check_hs_bound,
    check_resolvent_laplace,
)
from .control import F2Family, check_integrability, fit_control, graph_certificate, graph_pair
from .graph import GraphFormatError, build_exhaustion, load_graph, path_graph, validate_graph
from .heat import (
    DEFAULT_TIMES,
    dump_kernel,
    kernel_from_semigroup,
    load_kernel,
    minimal_kernel,
    verify_kernel,
    verify_semigroup,
)
from .operators import add_potential, assemble_covariant, assemble_laplacian

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2


def _finite(text: str) -> float:
    """The value of a number flag; NaN and infinities are refused."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _finite_list(text: str) -> tuple[float, ...]:
    """Comma-separated finite numbers, in the order given."""
    return tuple(map(_finite, text.split(",")))


def _times(text: str) -> tuple[float, ...]:
    if not text:
        return DEFAULT_TIMES
    # a repeated time adds nothing, and a kernel file must not repeat one
    return tuple(sorted(set(_finite_list(text))))


def _threshold(text: str) -> float:
    """threshold:<c> -> c"""
    kind, _, value = text.partition(":")
    if kind != "threshold":
        raise argparse.ArgumentTypeError("only threshold:<c> decompositions are supported here")
    return _finite(value)


def _count(text: str) -> int:
    """The value of a count flag, an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"not a count >= 0: {text!r}")
    return int(text)


def _parse_exhaustion(spec: str):
    """root=ID,radii=r1,r2,... -> (ID, [r1, r2, ...])"""
    head, _, tail = spec.partition(",radii=")
    if not head.startswith("root=") or not tail:
        raise ValueError("exhaustion spec must be root=ID,radii=r1,r2,...")
    return head[len("root="):], [int(x) for x in tail.split(",")]


def _emit(report: dict, out_path, seed):
    """Write the report as JSON; one holding NaN or an infinity, which JSON
    cannot hold, is refused before anything is written."""
    report = {"schema_version": SCHEMA_VERSION, "seed": seed, **report}
    text = json.dumps(report, indent=1, sort_keys=True, allow_nan=False)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_graph_validate(args) -> int:
    g = load_graph(args.graph)
    rep = validate_graph(g)
    _emit({"command": "graph validate", "violations": rep.violations,
           "pass": rep.ok}, args.out, args.seed)
    return EXIT_OK if rep.ok else EXIT_VIOLATION


def cmd_heat_kernel(args) -> int:
    g = load_graph(args.graph)
    H = assemble_laplacian(g)
    k = kernel_from_semigroup(H, args.times)
    dump_kernel(k, args.out or "kernel.json")
    return EXIT_OK


def cmd_heat_verify(args) -> int:
    if args.kernel:
        # verify a stored kernel file; no generating operator, so the
        # continuity probe is skipped, and no Dirichlet level can be formed
        if args.exhaustion:
            raise ValueError("--exhaustion needs --graph: a kernel file has no "
                             "operator to restrict to the levels")
        if args.times is not None:
            raise ValueError("--times needs --graph: a kernel file carries its own "
                             "time grid")
        k = load_kernel(args.kernel)
        axioms, rho_bound = verify_kernel(k)
        ok = axioms.ok and rho_bound.ok
        _emit({"command": "heat verify", "axioms": axioms.to_dict(),
               "rho_bound": rho_bound.to_dict(), "pass": ok},
              args.out, args.seed)
        return EXIT_OK if ok else EXIT_VIOLATION
    g = load_graph(args.graph)
    H = assemble_laplacian(g)
    ex = build_exhaustion(g, *_parse_exhaustion(args.exhaustion)) if args.exhaustion else None
    # one pass over the grid: the host's slices feed the axioms, the rho
    # bound and the minimal kernel's host level, and no stack is formed
    axioms, rho_bound, mk, _ = verify_semigroup(H, args.times or DEFAULT_TIMES, ex=ex)
    report = {"command": "heat verify", "axioms": axioms.to_dict(),
              "rho_bound": rho_bound.to_dict()}
    ok = axioms.ok and rho_bound.ok
    if mk is not None:
        report["minimal_kernel"] = mk.to_dict()
        ok = ok and mk.monotone_ok
    report["pass"] = ok
    _emit(report, args.out, args.seed)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_heat_minimal(args) -> int:
    g = load_graph(args.graph)
    root, radii = _parse_exhaustion(args.exhaustion)
    ex = build_exhaustion(g, root, radii)
    mk = minimal_kernel(g, ex, args.times)
    _emit({"command": "heat minimal", **mk.to_dict(), "pass": mk.monotone_ok},
          args.out, args.seed)
    return EXIT_OK if mk.monotone_ok else EXIT_VIOLATION


def cmd_control_check(args) -> int:
    if args.family == "power":
        f2 = F2Family.power(args.C, args.gamma)
    elif args.family == "constant":
        f2 = F2Family.constant(args.C)
    elif args.family == "bakry-emery":
        f2 = F2Family.bakry_emery(args.C, args.m, args.beta, args.R)
    else:
        raise ValueError(f"unknown family {args.family}")
    verdict = check_integrability(f2, args.q)
    _emit({"command": "control check", "verdict": verdict.to_dict(),
           "pass": True}, args.out, args.seed)
    return EXIT_OK


def cmd_control_fit(args) -> int:
    k = load_kernel(args.kernel)
    pair, cert = fit_control(k, args.family, args.q)
    report = {
        "command": "control fit",
        "F1": dict(zip(k.vertices, pair.F1.tolist())),
        "F2": {"kind": pair.F2.kind, "C": pair.F2.C, "gamma": pair.F2.gamma},
        "q": pair.q,
        "certificate": cert.to_dict(),
        "pass": cert.ok,
    }
    _emit(report, args.out, args.seed)
    return EXIT_OK if cert.ok else EXIT_VIOLATION


def _bundle_potential(potentials: dict, name: str):
    """The bundle's potential of that name; an unknown name is an input
    error that lists the bundle's names."""
    if name not in potentials:
        raise ValueError(f"--potential {name!r} is not in the bundle; "
                         f"it has {sorted(potentials)}")
    return potentials[name]


def cmd_dominate_check(args) -> int:
    g = load_graph(args.graph)
    rank, connection, potentials = load_bundle(args.bundle, g)
    V = _bundle_potential(potentials, args.potential) if args.potential else None
    H_scal = assemble_laplacian(g)
    H_cov = assemble_covariant(g, rank, connection)
    if V is not None:
        H_cov = add_potential(H_cov, V)
    rng = np.random.default_rng(args.seed)
    rows = check_domination(H_cov, H_scal, args.times, args.a, args.trials, rng)
    ok = all(r.ok for r in rows)
    _emit({"command": "dominate check", "ledger": [r.to_dict() for r in rows],
           "pass": ok}, args.out, args.seed)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_compact_certify(args) -> int:
    g = load_graph(args.graph)
    if args.bundle:
        rank, connection, potentials = load_bundle(args.bundle, g)
        W = _bundle_potential(potentials, args.potential)
        H = assemble_covariant(g, rank, connection)
    else:
        H = assemble_laplacian(g)
        with open(args.potential) as fh:
            values = json.load(fh)
        check_vertex_set("potential", values, g.vertices)
        W = EndomorphismField.scalar({v: values[v] for v in g.vertices})
    W1, _ = decompose_potential(W, args.threshold)
    # the pair rests on the graph checks that assembling H ran and, with a
    # bundle, on its unitary connection; it needs no kernel
    pair = graph_pair(g.rho_vec, args.q)
    root, radii = _parse_exhaustion(args.levels)
    ex = build_exhaustion(g, root, radii)
    report = certify_compactness(W, W1, H, pair, ex, args.a, args.topk)
    ok = report.verdict == "hypotheses-verified"
    _emit({"command": "compact certify",
           "control_certificate": graph_certificate(connection=bool(args.bundle)),
           **report.to_dict(), "pass": ok}, args.out, args.seed)
    return EXIT_OK if ok else EXIT_VIOLATION


def build_coulomb_demo(n: int, kappa: float, theta: float):
    """Path host with a uniform magnetic phase and the inverse-square
    decaying potential W(x_j) = kappa / (1 + j^2), split by threshold."""
    g = path_graph(n)
    connection = UnitaryConnection.from_edge_phases(g, np.full(n - 1, theta))
    j = np.arange(n)
    W = EndomorphismField.from_blocks(1, g.vertices, (kappa / (1.0 + j * j))[:, None, None]
                                      .astype(complex), self_adjoint=True)
    return g, connection, W


def _demo_scalar_checks(g, H_cov, W1, pair, rng):
    """The demo's checks on the scalar Laplacian S of the host: Kato
    domination of S by H_cov, the Laplace crosscheck, then the kernel
    axioms and the rho bound in one pass over S's kernel slices on
    DEFAULT_TIMES (`verify_semigroup`), which keeps the HS row's p(0.5) and
    p(2t = 1) for the HS bound of W1 under the graph pair.

    The host is a path, so its connection is a gauge of the trivial one:
    H_cov = G S G* up to eta (`operators.scalar_gauge`), and the Kato rows
    are derived with no spectral work on H_cov (`check_domination`): the
    semigroup row reads 1 * eta and the resolvent row eta / 1^2, each times
    sqrt(max rho / min rho) = 1, and lambda_min(H_cov) >= lambda_min(S) -
    eta. Domination diagonalises S, the crosscheck reads that eigenbasis,
    and the pass forms the kernel factor in its place: S is diagonalised
    once, and H_cov never. Returns (axioms, rho bound, ledger), the ledger
    holding the HS, crosscheck and domination rows. S, its kernel factor and
    the kept slices go out of scope on return, before certification runs;
    H_cov keeps only its PSD verdict, which is all that certification reads
    of it."""
    H_scal = assemble_laplacian(g)
    dom_rows = check_domination(H_cov, H_scal, times=(0.1, 1.0),
                                a_values=(1.0,), trials=5, rng=rng)
    # the numeric route, taken for a connection with holonomy, leaves the
    # covariant eigenbasis in the cache
    H_cov.release_eigh()
    laplace_row = check_resolvent_laplace(H_scal, a=1.0)
    axioms, rho_rep, _, kept = verify_semigroup(H_scal, DEFAULT_TIMES, keep=(0.5, 1.0))
    ledger = check_hs_bound(W1, kept, pair, t=0.5)
    return axioms, rho_rep, [*ledger, laplace_row, *dom_rows]


def cmd_demo_coulomb(args) -> int:
    # the four exhaustion radii n/4, n/2, 3n/4, n - 1 are distinct from n = 5
    if args.n < 5:
        raise ValueError(f"--n must be at least 5, got {args.n}")
    g, connection, W = build_coulomb_demo(args.n, args.kappa, args.theta)
    H_cov = assemble_covariant(g, 1, connection)
    W1, _ = decompose_potential(W, args.threshold)
    pair = graph_pair(g.rho_vec)
    axioms, rho_rep, ledger = _demo_scalar_checks(
        g, H_cov, W1, pair, np.random.default_rng(args.seed))
    radii = [args.n // 4, args.n // 2, 3 * args.n // 4, args.n - 1]
    ex = build_exhaustion(g, "v0", radii)
    report = certify_compactness(W, W1, H_cov, pair, ex, a=args.a, k_top=args.topk)
    transitions = list(report.drift)  # insertion order = level order
    drift_last = report.drift[transitions[-1]] if transitions else 0.0
    ok = (axioms.ok and rho_rep.ok
          and all(r.ok for r in ledger)
          and report.verdict == "hypotheses-verified"
          and drift_last < args.drift_tol)
    _emit({
        "command": "demo coulomb-lattice",
        "config": {"n": args.n, "kappa": args.kappa, "theta": args.theta,
                   "threshold": args.threshold, "a": args.a},
        "axioms": axioms.to_dict(),
        "rho_bound": rho_rep.to_dict(),
        "control_certificate": graph_certificate(connection=True),
        "ledger": [r.to_dict() for r in ledger],
        "compactness": report.to_dict(),
        "last_level_drift": drift_last,
        "pass": ok,
    }, args.out, args.seed)
    return EXIT_OK if ok else EXIT_VIOLATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `heatcert` argument parser, built once per process."""
    p = argparse.ArgumentParser(prog="heatcert")
    p.add_argument("--version", action="version",
                   version=f"heatcert {__version__} (report schema v{SCHEMA_VERSION})")
    sub = p.add_subparsers(dest="group", required=True)

    def common(sp, times=True):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None)
        if times:
            sp.add_argument("--times", type=_times, default=DEFAULT_TIMES)

    graph = sub.add_parser("graph").add_subparsers(dest="action", required=True)
    sp = graph.add_parser("validate")
    sp.add_argument("--graph", required=True)
    common(sp, times=False)
    sp.set_defaults(func=cmd_graph_validate)

    heat = sub.add_parser("heat").add_subparsers(dest="action", required=True)
    sp = heat.add_parser("kernel")
    sp.add_argument("--graph", required=True)
    common(sp)
    sp.set_defaults(func=cmd_heat_kernel)
    sp = heat.add_parser("verify")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph")
    source.add_argument("--kernel")
    sp.add_argument("--exhaustion", default=None)
    common(sp)
    # None tells a --times given with --kernel, which is refused, from none
    sp.set_defaults(func=cmd_heat_verify, times=None)
    sp = heat.add_parser("minimal")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--exhaustion", required=True)
    common(sp)
    sp.set_defaults(func=cmd_heat_minimal)

    control = sub.add_parser("control").add_subparsers(dest="action", required=True)
    sp = control.add_parser("check")
    sp.add_argument("--family", default="power")
    sp.add_argument("--C", type=_finite, default=1.0)
    sp.add_argument("--gamma", type=_finite, default=0.0)
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--beta", type=_finite, default=0.0)
    sp.add_argument("--R", type=_finite, default=1.0)
    sp.add_argument("--q", type=_finite, default=1.0)
    common(sp, times=False)
    sp.set_defaults(func=cmd_control_check)
    sp = control.add_parser("fit")
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--family", default="graph", choices=("graph", "power"))
    sp.add_argument("--q", type=_finite, default=1.0)
    common(sp, times=False)
    sp.set_defaults(func=cmd_control_fit)

    dom = sub.add_parser("dominate").add_subparsers(dest="action", required=True)
    sp = dom.add_parser("check")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--bundle", required=True)
    sp.add_argument("--potential", default=None)
    sp.add_argument("--a", type=_finite_list, default="0.5,1,2,4")
    sp.add_argument("--trials", type=_count, default=20)
    common(sp)
    sp.set_defaults(func=cmd_dominate_check)

    comp = sub.add_parser("compact").add_subparsers(dest="action", required=True)
    sp = comp.add_parser("certify")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--bundle", default=None)
    sp.add_argument("--potential", required=True)
    sp.add_argument("--decomp", dest="threshold", metavar="DECOMP", type=_threshold,
                    default="threshold:0.1")
    sp.add_argument("--q", type=_finite, default=1.0)
    sp.add_argument("--a", type=_finite, default=1.0)
    sp.add_argument("--levels", required=True)
    sp.add_argument("--topk", type=int, default=5)
    common(sp, times=False)
    sp.set_defaults(func=cmd_compact_certify)

    demo = sub.add_parser("demo").add_subparsers(dest="action", required=True)
    sp = demo.add_parser("coulomb-lattice")
    sp.add_argument("--n", type=int, default=200)
    sp.add_argument("--kappa", type=_finite, default=1.0)
    sp.add_argument("--theta", type=_finite, default=0.3)
    sp.add_argument("--threshold", type=_finite, default=0.1)
    sp.add_argument("--a", type=_finite, default=1.0)
    sp.add_argument("--topk", type=int, default=5)
    sp.add_argument("--drift-tol", type=_finite, default=1e-3)
    common(sp, times=False)
    sp.set_defaults(func=cmd_demo_coulomb)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 after --help and --version and 2 on a usage
        # error, which is an input error here: 2 means a bound failed
        if not e.code:
            raise
        return EXIT_INPUT
    try:
        return args.func(args)
    except (GraphFormatError, FileNotFoundError, KeyError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
