"""Per-layer spans for the traced run, recorded from outside the program.

``Tracer.install()`` wraps the public functions of each ``fockcap`` module and
the ``SparseMatrix``/``RowReducer`` methods, without editing ``src/``.  A
wrapped function is rebound under every name that holds it in any
``fockcap.*`` module, because ``relations``, ``lie``, ``models`` and ``cli``
import the builders by name.  Methods are replaced on their classes, which is
where Python looks up operators such as ``@``.

Each call becomes one span, kept in memory as a list
``[layer, function, parent, start_ns, end_ns, key, count]``: ``parent`` is the
index of the enclosing span (-1 for none), ``key`` names the call's inputs
when its first argument is an ``AlgebraSpec`` (so repeated builds of the same
thing can be counted), and ``count`` is the layer's work counter for the call.
``layer_metrics()`` turns the spans of one pass over a workload into the
per-layer metrics; a layer's self time is its spans' durations minus the time
their child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

LAYER_OF_MODULE = {
    "fockcap.basis": "basis",
    "fockcap.operators": "operators",
    "fockcap.relations": "relations",
    "fockcap.lie": "lie",
    "fockcap.models": "models",
    "fockcap.thermo": "thermo",
}

# Helpers called once per basis vector or per operator: wrapping them would
# cost more than the work they do, so their time stays with their caller.
UNWRAPPED = frozenset({"total", "validate_vector", "prefix_sign", "gram_value",
                       "exact_tag", "float_tag", "diagonal_action_value",
                       "weight_vector"})

SPARSE_METHODS = {
    "SparseMatrix": {
        "__matmul__": "sparse.matmul",
        "__add__": "sparse.residual", "__sub__": "sparse.residual",
        "__neg__": "sparse.residual", "__mul__": "sparse.residual",
        "__rmul__": "sparse.residual", "max_abs": "sparse.residual",
        "transpose": "sparse.residual",
        "apply": "sparse.apply",
    },
    "RowReducer": {"add": "sparse.rank", "contains": "sparse.rank"},
}
SPARSE_FUNCTIONS = {"max_entry_difference": "sparse.residual",
                    "rational_rank": "sparse.rank"}

# Calls that evaluate one (beta, mu) point of the grand-canonical ensemble.
THERMO_POINTS = frozenset({"occupation_summary", "grand_partition", "mean_occupation"})

LAYERS = ("basis", "operators", "sparse.matmul", "sparse.residual", "sparse.apply",
          "sparse.rank", "relations", "lie", "models", "thermo", "cli")


def _arg_key(x) -> str:
    if isinstance(x, (int, float, str, Fraction, tuple, list)):
        return repr(x)
    code = getattr(x, "__code__", None)
    if code is not None:
        # a lambda passed to grade_diagonal: the same source line is the same function
        return f"{code.co_filename}:{code.co_firstlineno}"
    return f"@{id(x)}"  # an operator or Gram form: only the same object is the same input


def _count(layer: str, name: str):
    """The work counter of a call, as a function of (args, result), or None."""
    if layer == "basis" and name == "enumerate_basis":
        return lambda args, out: len(out)
    if layer in ("operators", "sparse.matmul"):
        return lambda args, out: getattr(out, "nnz", 0)
    if layer == "sparse.apply":
        return lambda args, out: args[0].nnz
    if layer == "sparse.rank" and name == "add":
        return lambda args, out: 1 if out else 0
    if layer in ("relations", "lie") and name.startswith("check_"):
        return lambda args, out: len(out) if isinstance(out, list) else 1
    if layer == "thermo" and name in THERMO_POINTS:
        return lambda args, out: 1
    return None


class Tracer:
    """Records one span per call into a wrapped fockcap function."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, layer: str, fn, count=None, spec_type=None):
        spans, stack, clock, name = self.spans, self._stack, time.perf_counter_ns, fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, name, stack[-1], 0, 0, None, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if count is not None:
                rec[6] = count(args, out)
            if spec_type is not None and args and isinstance(args[0], spec_type):
                spec = args[0]
                rec[5] = "|".join([name, spec.kind.value, str(spec.n), str(spec.p)]
                                  + [_arg_key(a) for a in args[1:]]
                                  + [f"{k}={_arg_key(v)}" for k, v in sorted(kwargs.items())])
            return out

        return traced

    def install(self) -> None:
        """Wrap every layer of the imported fockcap package."""
        import fockcap.cli  # noqa: F401  (loads every fockcap module)
        from fockcap import sparse
        from fockcap.basis import AlgebraSpec

        replaced = {}  # id(original) -> (original, wrapper)
        for modname, layer in LAYER_OF_MODULE.items():
            for name, fn in vars(sys.modules[modname]).items():
                if (callable(fn) and not isinstance(fn, type) and not name.startswith("_")
                        and name not in UNWRAPPED and getattr(fn, "__module__", None) == modname):
                    replaced[id(fn)] = (fn, self.wrap(layer, fn, _count(layer, name), AlgebraSpec))
        for name, layer in SPARSE_FUNCTIONS.items():
            fn = getattr(sparse, name, None)
            if fn is not None:
                replaced[id(fn)] = (fn, self.wrap(layer, fn, _count(layer, name)))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "fockcap" or modname.startswith("fockcap.")):
                continue
            for name, value in list(vars(module).items()):
                entry = replaced.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])
        for clsname, methods in SPARSE_METHODS.items():
            cls = getattr(sparse, clsname)
            for name, layer in methods.items():
                if name in cls.__dict__:
                    setattr(cls, name, self.wrap(layer, cls.__dict__[name], _count(layer, name)))

    def run_cli(self, argv: list[str]) -> int:
        """fockcap.cli.main(argv) as the root span of the command."""
        from fockcap import cli
        return self.wrap("cli", cli.main)(argv)


def layer_metrics(commands_spans: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of one pass, from the span lists of its commands."""
    self_ns = dict.fromkeys(LAYERS, 0)
    calls = dict.fromkeys(LAYERS, 0)
    counts = dict.fromkeys(LAYERS, 0)
    distinct = {"basis": 0, "operators": 0}
    rank_adds = 0
    for spans in commands_spans:
        covered = [0] * len(spans)
        for rec in spans:
            if rec[2] >= 0:
                covered[rec[2]] += rec[4] - rec[3]
        keys: dict[str, set] = {layer: set() for layer in distinct}
        for rec, child_ns in zip(spans, covered):
            layer = rec[0]
            self_ns[layer] += rec[4] - rec[3] - child_ns
            calls[layer] += 1
            counts[layer] += rec[6]
            if layer in keys:
                # a call whose inputs have no key (no spec argument) counts as distinct
                keys[layer].add(rec[5] if rec[5] is not None else id(rec))
            elif layer == "sparse.rank" and rec[1] == "add":
                rank_adds += 1
        for layer, seen in keys.items():
            distinct[layer] += len(seen)

    def ratio(num, den):
        return num / den if den else 0.0

    def seconds(layer):
        return self_ns[layer] / 1e9

    return {
        "basis.calls": calls["basis"],
        "basis.self_s": seconds("basis"),
        "basis.vectors": counts["basis"],
        "basis.distinct_ratio": ratio(distinct["basis"], calls["basis"]),
        "operators.calls": calls["operators"],
        "operators.self_s": seconds("operators"),
        "operators.nnz_out": counts["operators"],
        "operators.distinct_ratio": ratio(distinct["operators"], calls["operators"]),
        "sparse.matmul.calls": calls["sparse.matmul"],
        "sparse.matmul.self_s": seconds("sparse.matmul"),
        "sparse.matmul.nnz_out": counts["sparse.matmul"],
        "sparse.residual.calls": calls["sparse.residual"],
        "sparse.residual.self_s": seconds("sparse.residual"),
        "sparse.apply.calls": calls["sparse.apply"],
        "sparse.apply.self_s": seconds("sparse.apply"),
        "sparse.apply.nnz_scanned": counts["sparse.apply"],
        "sparse.rank.calls": calls["sparse.rank"],
        "sparse.rank.self_s": seconds("sparse.rank"),
        "sparse.rank.accept_ratio": ratio(counts["sparse.rank"], rank_adds),
        "relations.checks": counts["relations"],
        "relations.self_s": seconds("relations"),
        "lie.checks": counts["lie"],
        "lie.self_s": seconds("lie"),
        "models.self_s": seconds("models"),
        "thermo.points": counts["thermo"],
        "thermo.self_s": seconds("thermo"),
        "cli.self_s": seconds("cli"),
    }
