"""Command-line interface.

Deterministic, machine-readable reports over the capped Fock algebras.
Exit codes: 0 success / all checks pass, 1 check failure, 2 usage error,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import stat
import sys
import tempfile
from fractions import Fraction
from typing import Iterable, Iterator

from .basis import (AlgebraSpec, Kind, basis_csv, dimension, fermi_cap_note,
                    graded_dimensions, iter_basis, log10_dimension_bound)
from .lie import LIE_CHECKS, run_lie_suite
from .models import (diagonal_spectrum, diagonal_table, quadratic_hamiltonian_spectrum,
                     toy_levels, toy_spectrum)
from .operators import (EXACT, FLOAT, ORTHONORMAL, UNNORMALIZED, clear_space_cache,
                        fock_space, normalize, operator_json_payload)
from .relations import run_grid, run_suite
from .thermo import sweep, thermo_csv

OP_CHOICES = ("create", "annihilate", "number", "eij")
# CPython converts an int of at most MAX_DIGITS digits to text, so exact output can print no
# more.  Fraction forms a literal with decimal exponent e from 10**|e|, of |e| + 1 digits: past
# the limit no output could print it, and a huge |e| never ends.
MAX_DIGITS = 4300
MAX_EXPONENT = MAX_DIGITS - 1
# Output pieces (JSON tokens, CSV lines) joined into one write: enough that the cost of a
# call vanishes, few enough that a chunk stays far below the output it is part of.
CHUNK_PIECES = 8192


def _joined(pieces: Iterable[str]) -> Iterator[str]:
    """The pieces, joined CHUNK_PIECES at a time."""
    pieces = iter(pieces)
    while batch := list(itertools.islice(pieces, CHUNK_PIECES)):
        yield "".join(batch)


def _dump_json(payload) -> Iterator[str]:
    """json.dumps(payload, indent=2) + "\n" as a stream of chunks; no string holds it all."""
    yield from _joined(json.JSONEncoder(indent=2).iterencode(payload))
    yield "\n"


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write the chunks as they come, to stdout or to the file out.

    A command computes everything that can refuse its input before it calls
    this, so a refused input writes nothing.  A regular file is written under
    a temporary name in its directory and renamed onto out only once every
    chunk is in: on failure out is left as it was and no partial file stays.
    The new file gets the permission bits open(out, "w") would leave.
    """
    if isinstance(chunks, str):  # writelines would write it one character at a time
        raise TypeError("_emit takes an iterable of chunks; pass a str as [text]")
    if out is None or out == "-":
        sys.stdout.writelines(chunks)
        return
    try:
        mode = os.stat(out).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | 0o666 & ~umask
    if not stat.S_ISREG(mode):  # a directory fails to open; a device or a pipe is written into
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    target = os.path.realpath(out)  # through a symlink, as open(out, "w") writes
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".fockcap-", suffix=".tmp")
    except OSError as exc:  # name the path asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, out) from None
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, stat.S_IMODE(mode))
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


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
    name = f"the dimension of {spec.kind.value} n={spec.n} p={spec.p}"
    limit = f"past the {MAX_DIGITS}-digit limit of exact output"
    # A float estimate refuses only what is clearly past the limit, before any binomial is
    # formed (they would take minutes); near the limit the exact closed form decides.
    digits = log10_dimension_bound(spec)
    if digits >= MAX_DIGITS + 1:
        raise ValueError(f"{name} has at least {int(digits)} digits, {limit}")
    dim = dimension(spec)
    if dim >= 10 ** MAX_DIGITS:
        raise ValueError(f"{name} has more than {MAX_DIGITS} digits, {limit}")
    if args.json:
        payload = dict(_spec_payload(spec), dimension=dim,
                       graded_dimensions=graded_dimensions(spec))
        _emit(_dump_json(payload), args.output)
    else:
        _emit([f"{dim}\n"], args.output)
    return 0


def cmd_basis(args) -> int:
    spec = _spec_from_args(args)
    if args.json:
        # the encoder takes only a list for an array, so the rows are one; each
        # shares its occupation tuple with the enumeration
        rows = [{"rank": r, "total": sum(v), "occupations": v}
                for r, v in enumerate(iter_basis(spec))]
        payload = {"spec": _spec_payload(spec), "basis": rows}
        _emit(_dump_json(payload), args.output)
    else:
        _emit(_joined(basis_csv(spec)), args.output)
    return 0


def cmd_ops(args) -> int:
    spec = _spec_from_args(args)
    for flag, value, used in (("--i", args.i, args.op != "number"),
                              ("--j", args.j, args.op == "eij")):
        if used and value is None:
            raise ValueError(f"--op {args.op} requires {flag}")
        if not used and value is not None:
            raise ValueError(f"--op {args.op} takes no {flag}")
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
    # the export reads only op: free the basis and rank index before encoding
    del space
    clear_space_cache()
    _emit(_dump_json(operator_json_payload(op)), args.output)
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
        _emit([_report_lines(reports)], args.output)
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
    energies = _float_list(args.energies) if args.energies is not None else [0.0] * spec.n
    if args.json:
        rows = [{"beta": beta, "mu": mu, "Xi": xi, "mean_occupations": means,
                 "mean_total": mean_total}
                for beta, mu, xi, means, mean_total in sweep(spec, betas, mus, energies)]
        payload = {"spec": _spec_payload(spec), "energies": energies, "rows": rows}
        _emit(_dump_json(payload), args.output)
    else:
        _emit([thermo_csv(spec, betas, mus, energies)], args.output)
    return 0


def cmd_spectrum(args) -> int:
    spec = _spec_from_args(args)
    if args.energies is None and args.matrix_file is None:
        raise ValueError("one of --energies or --matrix-file is required")
    if args.energies is not None and args.matrix_file is not None:
        raise ValueError("--energies cannot be combined with --matrix-file")
    if args.backend == EXACT:
        if args.matrix_file is not None:
            raise ValueError("--backend exact supports only --energies (diagonal models)")
        report = diagonal_spectrum(spec, _fraction_list(args.energies))
        bound = 10 ** MAX_DIGITS
        if any(abs(v.numerator) >= bound or v.denominator >= bound for v, _ in report.levels):
            raise ValueError(f"--energies {args.energies!r} give a level beyond the "
                             f"{MAX_DIGITS}-digit limit of exact output")
    else:
        if args.matrix_file is not None:
            with open(args.matrix_file, "r", encoding="utf-8") as fh:
                try:
                    table = json.load(fh)
                except ValueError as exc:
                    raise ValueError(f"--matrix-file {args.matrix_file!r}: {exc}") from None
        else:
            table = diagonal_table(spec, _float_list(args.energies))
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
        _emit(["\n".join(lines) + "\n"], args.output)
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
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:  # the reader closed the pipe: report it now, not at interpreter exit
        if code != 3:
            print(f"io error: {exc}", file=sys.stderr)
        code = 3
        # the unwritten bytes go to /dev/null, so the at-exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    entry_point()
