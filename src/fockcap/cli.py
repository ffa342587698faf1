"""Command-line interface.

Deterministic, machine-readable reports over the capped Fock algebras.
Exit codes: 0 success / all checks pass, 1 check failure, 2 usage error,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .basis import (AlgebraSpec, Kind, basis_csv, dimension, enumerate_basis,
                    fermi_cap_note, graded_dimensions)
from .lie import LIE_CHECKS, run_lie_suite
from .models import (diagonal_spectrum, quadratic_hamiltonian_spectrum,
                     toy_levels, toy_spectrum)
from .operators import (EXACT, FLOAT, ORTHONORMAL, UNNORMALIZED, fock_space,
                        normalize, operator_json_payload)
from .relations import run_grid, run_suite
from .thermo import sweep, thermo_csv

OP_CHOICES = ("create", "annihilate", "number", "eij")
# Fraction forms a literal with decimal exponent e from 10**|e|, of |e| + 1 digits: past
# CPython's 4300-digit int-to-str limit no output could print it, and a huge |e| never ends.
MAX_EXPONENT = 4300 - 1


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _add_spec_args(sub: argparse.ArgumentParser, required: bool = True) -> None:
    sub.add_argument("--kind", choices=[k.value for k in Kind], required=required,
                     help="statistics kind")
    sub.add_argument("--n", type=int, required=required, help="number of modes")
    sub.add_argument("--p", type=int, required=required, help="total-occupation cap")


def _spec_from_args(args) -> AlgebraSpec:
    spec = AlgebraSpec(Kind(args.kind), args.n, args.p)
    note = fermi_cap_note(spec)
    if note:
        print(f"warning: {note}", file=sys.stderr)
    return spec


def _float_list(text: str) -> list[float]:
    values = [float(x) for x in text.split(",") if x.strip()]
    if not values or not all(map(math.isfinite, values)):
        raise ValueError(f"expected a list of finite numbers, got {text!r}")
    return values


def _fraction_list(text: str) -> list[Fraction]:
    literals = [x.strip() for x in text.split(",") if x.strip()]
    for literal in literals:  # refuse a huge exponent from the text, before 10**|e| is formed
        digits = literal.lower().partition("e")[2].lstrip("+-").replace("_", "").lstrip("0")
        if digits.isdecimal() and int(digits[:5]) > MAX_EXPONENT:  # 5 digits already exceed it
            raise ValueError(f"exponent of {literal!r} exceeds {MAX_EXPONENT}: "
                             "exact output could not print it")
    try:
        values = [Fraction(x) for x in literals]
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    if not values:
        raise ValueError(f"empty numeric list {text!r}")
    return values


def _spec_payload(spec: AlgebraSpec) -> dict:
    return {"kind": spec.kind.value, "n": spec.n, "p": spec.p}


def cmd_dim(args) -> int:
    spec = _spec_from_args(args)
    if args.json:
        payload = dict(_spec_payload(spec), dimension=dimension(spec),
                       graded_dimensions=graded_dimensions(spec))
        _emit(_dump_json(payload), args.output)
    else:
        _emit(f"{dimension(spec)}\n", args.output)
    return 0


def cmd_basis(args) -> int:
    spec = _spec_from_args(args)
    if args.json:
        rows = [{"rank": r, "total": sum(v), "occupations": list(v)}
                for r, v in enumerate(enumerate_basis(spec))]
        payload = {"spec": _spec_payload(spec), "basis": rows}
        _emit(_dump_json(payload), args.output)
    else:
        _emit(basis_csv(spec), args.output)
    return 0


def cmd_ops(args) -> int:
    spec = _spec_from_args(args)
    needs_i = args.op in ("create", "annihilate", "eij")
    if needs_i and args.i is None:
        raise ValueError(f"--op {args.op} requires --i")
    if args.op == "eij" and args.j is None:
        raise ValueError("--op eij requires --j")
    space = fock_space(spec)
    if args.op == "create":
        op = space.ladder(args.i, +1)
    elif args.op == "annihilate":
        op = space.ladder(args.i, -1)
    elif args.op == "number":
        op = space.number()
    else:
        op = space.bilinear(args.i, args.j)
    if args.normalization == ORTHONORMAL:
        op = normalize(op, space.gram)
    _emit(_dump_json(operator_json_payload(spec, op)), args.output)
    return 0


def _report_lines(reports) -> str:
    groups: dict[tuple, list[int]] = {}
    for rep in reports:
        key = (rep.spec.kind.value, rep.spec.n, rep.spec.p)
        cell = groups.setdefault(key, [0, 0])
        cell[0] += 1
        cell[1] += rep.passed
    lines = []
    for (kind, n, p), (count, passed) in sorted(groups.items()):
        status = "ok" if passed == count else "FAIL"
        lines.append(f"{kind} n={n} p={p}: {passed}/{count} pass [{status}]")
    failures = sum(1 for rep in reports if not rep.passed)
    lines.append(f"summary: {len(reports) - failures}/{len(reports)} checks pass")
    return "\n".join(lines) + "\n"


def _emit_reports(reports, args) -> int:
    """Write the reports as JSON or as per-spec text; exit code 1 if any failed."""
    if args.json:
        _emit(_dump_json([rep.as_dict() for rep in reports]), args.output)
    else:
        _emit(_report_lines(reports), args.output)
    return 1 if any(not rep.passed for rep in reports) else 0


def cmd_verify(args) -> int:
    if args.grid is not None:
        if (args.kind, args.n, args.p) != (None, None, None):
            raise ValueError("--grid cannot be combined with --kind/--n/--p")
        n_max, p_max = args.grid
        if n_max < 1 or p_max < 1:
            raise ValueError("grid bounds must be positive")
        reports = run_grid(n_max, p_max, args.backend)
    else:
        if args.kind is None or args.n is None or args.p is None:
            raise ValueError("either --grid or all of --kind/--n/--p are required")
        reports = run_suite(_spec_from_args(args), args.backend)
    return _emit_reports(reports, args)


def cmd_lie(args) -> int:
    return _emit_reports(run_lie_suite(_spec_from_args(args), args.check), args)


def cmd_thermo(args) -> int:
    spec = _spec_from_args(args)
    betas = _float_list(args.beta)
    mus = _float_list(args.mu)
    energies = _float_list(args.energies) if args.energies else [0.0] * spec.n
    if len(energies) != spec.n:
        raise ValueError(f"expected {spec.n} energies, got {len(energies)}")
    if args.json:
        rows = [{"beta": beta, "mu": mu, "Xi": xi, "mean_occupations": means,
                 "mean_total": mean_total}
                for beta, mu, xi, means, mean_total in sweep(spec, betas, mus, energies)]
        payload = {"spec": _spec_payload(spec), "energies": energies, "rows": rows}
        _emit(_dump_json(payload), args.output)
    else:
        _emit(thermo_csv(spec, betas, mus, energies), args.output)
    return 0


def cmd_spectrum(args) -> int:
    spec = _spec_from_args(args)
    if args.energies is None and args.matrix_file is None:
        raise ValueError("one of --energies or --matrix-file is required")
    if args.backend == EXACT:
        if args.matrix_file is not None:
            raise ValueError("--backend exact supports only --energies (diagonal models)")
        report = diagonal_spectrum(spec, _fraction_list(args.energies))
    else:
        if args.matrix_file is not None:
            with open(args.matrix_file, "r", encoding="utf-8") as fh:
                table = json.load(fh)
        else:
            energies = _float_list(args.energies)
            if len(energies) != spec.n:
                raise ValueError(f"expected {spec.n} energies, got {len(energies)}")
            table = [[energies[i] if i == j else 0.0 for j in range(spec.n)]
                     for i in range(spec.n)]
        report = quadratic_hamiltonian_spectrum(spec, table)
    _emit(_dump_json(report.as_dicts()), args.output)
    return 0


def cmd_toy(args) -> int:
    levels = toy_levels(args.p)
    spectrum = toy_spectrum(args.p)
    if args.json:
        payload = {
            "p": args.p,
            "levels": [{"n": k, "value": str(value), "mult": mult,
                        "gap_to_next": None if gap is None else str(gap)}
                       for k, value, mult, gap in levels],
            "spectrum": spectrum.as_dicts(),
        }
        _emit(_dump_json(payload), args.output)
    else:
        lines = [f"two capped boson modes, H = a1+ a1- + a2+ a2-, cap p={args.p}",
                 "  n  E_n           mult  gap(1-2n/p)"]
        for k, value, mult, gap in levels:
            gap_text = "-" if gap is None else str(gap)
            lines.append(f"  {k:<2} {str(value):<13} {mult:<5} {gap_text}")
        lines.append("merged spectrum:")
        for value, mult in spectrum.levels:
            lines.append(f"  E={value} mult={mult}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockcap",
        description="Fock representations of fermion/boson algebras with a "
                    "maximal total-occupation cap: exact construction and "
                    "verification of their algebraic structure.")
    subs = parser.add_subparsers(dest="command", required=True)

    def common(sub):
        sub.add_argument("--json", action="store_true", help="machine-readable output")
        sub.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    sub = subs.add_parser("dim", help="dimension and graded dimensions")
    _add_spec_args(sub)
    common(sub)
    sub.set_defaults(handler=cmd_dim)

    sub = subs.add_parser("basis", help="basis listing (CSV by default)")
    _add_spec_args(sub)
    common(sub)
    sub.set_defaults(handler=cmd_basis)

    sub = subs.add_parser("ops", help="export an operator matrix as JSON")
    _add_spec_args(sub)
    sub.add_argument("--op", choices=OP_CHOICES, required=True)
    sub.add_argument("--i", type=int, default=None, help="mode index (1-based)")
    sub.add_argument("--j", type=int, default=None, help="second mode index for eij")
    sub.add_argument("--normalization", choices=(UNNORMALIZED, ORTHONORMAL),
                     default=UNNORMALIZED)
    common(sub)
    sub.set_defaults(handler=cmd_ops)

    sub = subs.add_parser("verify", help="verify the defining relations")
    _add_spec_args(sub, required=False)
    sub.add_argument("--grid", nargs=2, type=int, metavar=("NMAX", "PMAX"),
                     default=None, help="verify both kinds over n=1..NMAX, p=1..PMAX")
    sub.add_argument("--backend", choices=(EXACT, FLOAT), default=EXACT)
    common(sub)
    sub.set_defaults(handler=cmd_verify)

    sub = subs.add_parser("lie", help="verify the Lie-structure identities")
    _add_spec_args(sub)
    sub.add_argument("--check", choices=LIE_CHECKS + ("all",), default="all")
    common(sub)
    sub.set_defaults(handler=cmd_lie)

    sub = subs.add_parser("thermo", help="grand-canonical sweep (CSV by default)")
    _add_spec_args(sub)
    sub.add_argument("--beta", required=True, help="inverse temperature(s), comma-separated")
    sub.add_argument("--mu", required=True, help="chemical potential(s), comma-separated")
    sub.add_argument("--energies", default=None, help="mode energies, comma-separated (default 0)")
    common(sub)
    sub.set_defaults(handler=cmd_thermo)

    sub = subs.add_parser("spectrum", help="Hamiltonian spectrum with multiplicities (JSON)")
    _add_spec_args(sub)
    sub.add_argument("--energies", default=None, help="diagonal coefficients, comma-separated")
    sub.add_argument("--matrix-file", default=None, help="JSON n x n symmetric coefficient table")
    sub.add_argument("--backend", choices=(EXACT, FLOAT), default=EXACT)
    common(sub)
    sub.set_defaults(handler=cmd_spectrum)

    sub = subs.add_parser("toy", help="two capped boson modes: closed-form level table")
    sub.add_argument("--p", type=int, required=True, help="total-occupation cap")
    common(sub)
    sub.set_defaults(handler=cmd_toy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
