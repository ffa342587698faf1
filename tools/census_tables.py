"""Print the per-check tables of the fault census families.

Run from anywhere:

    python tools/census_tables.py                  # every family
    python tools/census_tables.py N orthonormal    # the named families

It loads tests/test_fault_census.py by path (with src/ and tests/ put on the
import path), runs each family of its FAMILIES over the family's specs and
prints, per family, a heading, the count of its edits in each class and the
markdown table `check | detects | only detector`: for each check that the
family's run_suite backend reports on those specs, the number of edits it
detects and the number it alone detects, most first, with the checks that
detect none in one last row.  It reports and gates nothing, and is not part
of the suite.
"""

import importlib.util
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"


def load_census():
    """tests/test_fault_census.py as a module."""
    sys.path[:0] = [str(ROOT / "src"), str(TESTS)]
    spec = importlib.util.spec_from_file_location("test_fault_census",
                                                  TESTS / "test_fault_census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def family_text(census, name: str) -> str:
    """The heading, class counts and per-check table of one census family."""
    run, specs, backend = census.FAMILIES[name]
    start = time.perf_counter()
    results = {spec: run(spec) for spec in specs}
    seconds = time.perf_counter() - start
    classes = Counter(cls for rows in results.values() for _, cls, _ in rows)
    classes["missed"] += 0  # always shown
    coverage = census.coverage(results)
    checks = sorted({rep.relation for spec in specs for rep in census.run_suite(spec, backend)})
    labels = ", ".join(f"{spec.kind.value} {spec.n}/{spec.p}" for spec in specs)
    lines = [f"### {name} ({labels}; run_suite backend {backend})", "",
             f"{sum(classes.values())} edits: "
             + ", ".join(f"{count} {cls}" for cls, count in classes.items())
             + f", in {seconds:.2f} s", "",
             "| check | detects | only detector |", "|---|---|---|"]
    for check in sorted(coverage, key=lambda check: (-coverage[check][0], check)):
        lines.append(f"| `{check}` | {coverage[check][0]} | {coverage[check][1]} |")
    silent = [check for check in checks if check not in coverage]
    if silent:
        lines.append(f"| {', '.join(f'`{check}`' for check in silent)} | 0 | 0 |")
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    census = load_census()
    names = argv or list(census.FAMILIES)
    unknown = [name for name in names if name not in census.FAMILIES]
    if unknown:
        print(f"unknown families {unknown}; choose from {list(census.FAMILIES)}",
              file=sys.stderr)
        return 2
    print("\n".join(family_text(census, name) for name in names), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
