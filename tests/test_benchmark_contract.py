"""What the benchmark's tracer reads of heatcert by name.

A traced pass (`perfbench/run.py --trace 1`) reports a per-layer metric for
every function named in `perfbench/tracer.py`'s FUNCTIONS, and writes null
for one the program no longer defines; it also binds some arguments of
`check_domination` by name to count its work. A rename or a deletion here
breaks that run, so these tests pin the names.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from heatcert.compactness import check_domination
from heatcert.graph import dump_graph, load_graph, random_graph

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_is_defined_in_its_layer():
    # the tracer wraps the functions a module defines, not those it imports
    missing = []
    for layer, names in _tracer().FUNCTIONS.items():
        module = importlib.import_module(f"heatcert.{layer}")
        for name in names:
            fn = getattr(module, name, None)
            if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                missing.append(f"{layer}.{name}")
    assert missing == []


def test_check_domination_keeps_the_parameters_the_tracer_binds():
    # Tracer._count reads these from the bound arguments of each call
    assert {"H_cov", "times", "a_values", "trials"} <= set(
        inspect.signature(check_domination).parameters)


def test_the_tracer_reads_edges_of_a_weighted_graph(tmp_path):
    # Tracer._count recognises a graph by its class name and adds len(g.b)
    # to graph.edges: one entry per edge
    path = tmp_path / "g.json"
    dump_graph(random_graph(30, np.random.default_rng(2)), path)
    g = load_graph(path)
    assert type(g).__name__ == "WeightedGraph"
    assert len(g.b) == g.src.size
