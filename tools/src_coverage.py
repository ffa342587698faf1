"""List the statements of src/fockcap that the test suite never executes.

Run from anywhere:

    python tools/src_coverage.py            # the whole suite, tests/
    python tools/src_coverage.py tests/test_sparse.py -x   # any pytest arguments

It runs pytest in this process under sys.settrace, with a line tracer only in
frames whose code lives in src/fockcap, and then prints one line

    src/fockcap/<module>.py:<line>: <statement>

for each executable statement that no traced line reached, in file order.
A statement is executable when one of its own lines (a simple statement's
lines, a compound statement's header) holds compiled code; docstrings are
skipped.  Code that the tests run in a child process (the subprocess tests of
the CLI) is not seen.  The tool reports and gates nothing: its exit code is
pytest's.  It is not part of the suite, and the whole suite takes a few
minutes under the tracer.
"""

import ast
import os
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fockcap"


def _code_lines(code) -> set[int]:
    """The lines that hold compiled code in code and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def _own_lines(node: ast.stmt) -> range:
    """A simple statement's lines, or a compound statement's header (with its decorators)."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    end = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
    return range(start, max(start, end) + 1)


def executable_statements(path: Path) -> list[tuple[int, range]]:
    """(first line, own lines) of each statement of path that holds compiled code."""
    source = path.read_text(encoding="utf-8")
    compiled = _code_lines(compile(source, str(path), "exec"))
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):  # a docstring
            continue
        lines = _own_lines(node)
        if compiled.intersection(lines):
            out.append((node.lineno, lines))
    return sorted(out, key=lambda item: item[0])


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + os.sep
    reached: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        reached.setdefault(filename, set())
        return local

    os.chdir(ROOT)
    sys.settrace(global_trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or ["tests"])])
    finally:
        sys.settrace(None)
    unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        hit = reached.get(str(path), set())
        text = path.read_text(encoding="utf-8").splitlines()
        for line, lines in executable_statements(path):
            if hit.isdisjoint(lines):
                unreached += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{unreached} statements of src/fockcap not reached")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
