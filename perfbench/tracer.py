"""Spans around calls into heatcert's layers, recorded from outside.

``Tracer.install`` rebinds every public function of each heatcert module,
in every heatcert module namespace that holds it, to a timing wrapper. The
modules import each other's functions by name (``cli`` -> layers,
``compactness`` -> ``operators``/``heat``, ``heat`` -> ``operators``), so the
spans follow the real call graph without any change to the program. Spans
stay in memory until the pass ends.

``OperatorMatrix.eigh`` is a cached method, not a traced function: its cost
lands in the first traced span that needs it (the PSD check inside
``assemble_*`` or ``dirichlet_restriction``).
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("graph", "bundle", "operators", "heat", "control", "compactness", "cli")

# Functions reported by name; every other public function still gets spans
# and counts toward its module's total.
FUNCTIONS = {
    "graph": ("validate_graph", "load_graph", "build_exhaustion"),
    "bundle": ("load_bundle", "decompose_potential"),
    "operators": ("assemble_laplacian", "assemble_covariant", "dirichlet_restriction",
                  "semigroup_matrix", "resolvent"),
    "heat": ("kernel_from_semigroup", "verify_axioms", "verify_rho_bound",
             "minimal_kernel"),
    "control": ("fit_control", "check_integrability"),
    "compactness": ("check_resolvent_laplace", "resolvent_via_laplace",
                    "check_domination", "certify_compactness", "check_hs_bound"),
    "cli": ("main",),
}

# Work counts per pass. The *_bytes counts are computed from the sizes of the
# dense arrays the layer returned, not measured.
COUNTS = {
    "graph.edges": "count",                    # edges of the graphs built
    "operators.max_dim": "count",              # largest operator dimension
    "operators.dense_bytes": "bytes",          # dense matrices returned
    "heat.a1_pairs": "count",                  # from reports: A1_pairs_checked
    "heat.kernel_bytes": "bytes",              # kernel tables returned
    "compactness.domination_matvecs": "count",  # sections x operators
    "compactness.levels": "count",             # from reports: certified levels
    "cli.report_bytes": "bytes",               # from reports: bytes written
}


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s"))
        for fn in FUNCTIONS[layer]:
            out += [(f"{layer}.{fn}.self_s", "s"), (f"{layer}.{fn}.calls", "count")]
        out += [(name, unit) for name, unit in COUNTS.items()
                if name.startswith(layer + ".")]
    out.append(("trace_overhead_s", "s"))
    return out


class Tracer:
    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.origin = time.perf_counter()
        self.spans: list[list] = []     # [name, start, end, parent]
        self.stack: list[int] = []
        self.traced: list[str] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._graphs: set[int] = set()

    def install(self):
        """Wrap the public functions of every layer; return the traced
        ``heatcert.cli.main``."""
        mods = {layer: importlib.import_module(f"heatcert.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
                    self.traced.append(f"{layer}.{attr}")
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        return mods["cli"].main

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None]
            self.spans.append(span)
            self.stack.append(sid)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            self._count(name, signature, args, kwargs, result)
            return result

        return traced

    def _count(self, name, signature, args, kwargs, result):
        layer = name.split(".", 1)[0]
        kind = type(result).__name__
        if kind == "WeightedGraph" and id(result) not in self._graphs:
            self._graphs.add(id(result))
            self.counts["graph.edges"] += len(result.b)
        elif layer == "operators" and kind == "OperatorMatrix":
            self.counts["operators.max_dim"] = max(self.counts["operators.max_dim"],
                                                   result.dim)
            self.counts["operators.dense_bytes"] += result.matrix.nbytes
        elif layer == "operators" and kind == "ndarray":
            self.counts["operators.dense_bytes"] += result.nbytes
        elif name == "heat.kernel_from_semigroup":
            self.counts["heat.kernel_bytes"] += result.kernels.nbytes
        elif name == "compactness.check_domination":
            a = signature.bind(*args, **kwargs).arguments
            sections = a["H_cov"].dim + a["trials"]
            self.counts["compactness.domination_matvecs"] += (
                sections * (len(a["times"]) + len(a["a_values"])))

    def write_spans(self, path):
        with open(path, "a") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"pass": self.pass_id, "id": sid, "name": name,
                                     "parent": parent,
                                     "start": start - self.origin,
                                     "end": end - self.origin}) + "\n")

    def summary(self) -> dict:
        """Self time and call count per traced function, plus work counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s = dict.fromkeys(self.traced, 0.0)
        calls = dict.fromkeys(self.traced, 0)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            self_s[name] += (end - start) - inner
            calls[name] += 1
        return {"self_s": self_s, "calls": calls, "counts": dict(self.counts)}


def report_counts(reports: list[dict], report_bytes: int) -> dict[str, float]:
    """Counts read from one pass's reports."""
    a1 = levels = 0
    for rep in reports:
        a1 += (rep.get("axioms") or {}).get("A1_pairs_checked") or 0
        comp = rep.get("compactness", rep)
        if isinstance(comp.get("levels"), list):
            levels += len(comp["levels"])
    return {"heat.a1_pairs": a1, "compactness.levels": levels,
            "cli.report_bytes": report_bytes}
