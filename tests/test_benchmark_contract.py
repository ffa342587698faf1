"""What the benchmark in perfbench/ reads of the library, pinned in tier 1.

perfbench/oracle.py holds its own formula for the number of reports of
`verify` and `lie` per spec, and perfbench/tracing.py wraps classes of
fockcap.sparse and the modules of its layers by name.  A change that moves
a report count, or deletes a class or module the tracer names, would pass
the library's own tests and only then fail the benchmark (its output check,
or its traced run).  These tests load both files by path, unedited, and
fail first.  The benchmark change that replaces the count oracle with
counts read from the output, or the tracer with in-library telemetry,
updates this guard with it.
"""

import importlib
import importlib.util
from pathlib import Path

from fockcap import run_lie_suite, run_suite, sparse

from conftest import small_grid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_count_oracle_counts_the_reports():
    expected_checks = _load("oracle").expected_checks
    for spec in small_grid(3, 4):
        args = (spec.kind.value, spec.n, spec.p)
        assert len(run_suite(spec)) == expected_checks("relations", *args), spec
        assert len(run_lie_suite(spec)) == expected_checks("lie", *args), spec


def test_the_tracer_names_what_the_library_has():
    tracing = _load("tracing")
    for clsname in tracing.SPARSE_METHODS:
        assert isinstance(getattr(sparse, clsname, None), type), clsname
    for modname in tracing.LAYER_OF_MODULE:
        importlib.import_module(modname)
