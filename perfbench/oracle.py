"""Output oracle for the benchmark's commands.

Every check here is independent of the program: it imports nothing from
``fockcap`` and rebuilds what the output should be from the definitions in
PAPER.md and the library's documented formats.  The basis is enumerated from
multisets (Bose) or subsets (Fermi) of modes and sorted into graded-lex
order; the program walks the compositions of each grade.

``check(name, params, data)`` returns None when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

ENTRY_TOL = 1e-12      # float operator entries (relations.FLOAT_TOL)
SPECTRUM_TOL = 1e-10   # float eigenvalues (models.SYMMETRY_TOL)
THERMO_RTOL = 1e-10    # Xi and mean occupations, relative to the closed form


def dimension(kind: str, n: int, p: int) -> int:
    """C(n+p, n) for Bose, sum_{k<=p} C(n, k) for Fermi."""
    if kind == "bose":
        return comb(n + p, n)
    return sum(comb(n, k) for k in range(p + 1))


def basis(kind: str, n: int, p: int) -> list[tuple[int, ...]]:
    """All occupation vectors with total <= p, graded then lexicographic."""
    out = []
    for k in range(p + 1):
        picks = (combinations_with_replacement(range(n), k) if kind == "bose"
                 else combinations(range(n), k))
        for modes in picks:
            v = [0] * n
            for m in modes:
                v[m] += 1
            out.append(tuple(v))
    out.sort(key=lambda v: (sum(v), v))
    return out


def expected_checks(suite: str, kind: str, n: int, p: int) -> int:
    """Number of reports `verify` (exact backend) or `lie` makes for a spec."""
    if suite == "relations":
        # pp n(n+1), number 2n+1, mixed n^2, cap 3n, hermiticity n+1, vacuum 1
        return 2 * n * n + 7 * n + 3
    # gl commutators n^4, adjoint action 2n^3, identification 2(n+1)^4+2n+3,
    # branching n^2+2n+p+3
    return n ** 4 + 2 * n ** 3 + 2 * (n + 1) ** 4 + n * n + 4 * n + p + 6


def _check_verify_text(params, text):
    lines = text.splitlines()
    total = 0
    for (kind, n, p), line in zip(params["specs"], lines):
        x = expected_checks(params["suite"], kind, n, p)
        total += x
        if line != f"{kind} n={n} p={p}: {x}/{x} pass [ok]":
            return f"spec line {line!r}, expected {x}/{x} pass for {kind} n={n} p={p}"
    if len(lines) != len(params["specs"]) + 1:
        return f"{len(lines)} lines, expected {len(params['specs']) + 1}"
    if lines[-1] != f"summary: {total}/{total} checks pass":
        return f"summary {lines[-1]!r}, expected {total}/{total} checks pass"
    return None


def _check_verify_json(params, text):
    reports = json.loads(text)
    seen: dict[tuple, int] = {}
    for rep in reports:
        if rep["pass"] is not True or rep["residual"] != "0" or rep["backend"] != "exact":
            return f"report not exactly zero: {rep}"
        key = (rep["kind"], rep["n"], rep["p"])
        seen[key] = seen.get(key, 0) + 1
    expected = {tuple(s): expected_checks(params["suite"], *s) for s in params["specs"]}
    if seen != expected:
        return f"per-spec report counts {seen}, expected {expected}"
    return None


def _check_basis_json(params, text):
    kind, n, p = params["kind"], params["n"], params["p"]
    payload = json.loads(text)
    if payload["spec"] != {"kind": kind, "n": n, "p": p}:
        return f"spec {payload['spec']}"
    rows = payload["basis"]
    if len(rows) != dimension(kind, n, p):
        return f"{len(rows)} rows, expected {dimension(kind, n, p)}"
    for r, (row, v) in enumerate(zip(rows, basis(kind, n, p))):
        if row != {"rank": r, "total": sum(v), "occupations": list(v)}:
            return f"row {r} is {row}, expected {v}"
    return None


def _check_basis_csv(params, text):
    kind, n, p = params["kind"], params["n"], params["p"]
    lines = text.splitlines()
    header = ",".join(["rank", "total"] + [f"occ_{i}" for i in range(1, n + 1)])
    if not lines or lines[0] != header:
        return "bad header"
    if len(lines) - 1 != dimension(kind, n, p):
        return f"{len(lines) - 1} rows, expected {dimension(kind, n, p)}"
    for r, (line, v) in enumerate(zip(lines[1:], basis(kind, n, p))):
        if line != ",".join(str(x) for x in (r, sum(v)) + v):
            return f"row {r} is {line!r}, expected {v}"
    return None


def _ladder_entries(kind, n, p, op, i, normalization):
    """(row, col) -> coefficient of a_i^+ or a_i^- from PAPER.md's actions.

    Unnormalized: a_i^+ |v> = sign |v+e_i>, a_i^- |v> = sign v_i (p-k+1)/p |v-e_i>.
    Orthonormal:  a_i^+ gets sign sqrt((v_i+1)(p-k)/p), a_i^- sign sqrt(v_i(p-k+1)/p),
    with v_i+1 and v_i replaced by 1 for Fermi.  sign = (-1)^(v_1+..+v_{i-1})
    for Fermi and 1 for Bose; k = |v| is the grade of the source vector.
    """
    vectors = basis(kind, n, p)
    index = {v: r for r, v in enumerate(vectors)}
    out = {}
    for col, v in enumerate(vectors):
        k = sum(v)
        x = v[i - 1]
        sign = -1 if kind == "fermi" and sum(v[: i - 1]) % 2 else 1
        if op == "create":
            if k == p or (kind == "fermi" and x == 1):
                continue
            target = v[: i - 1] + (x + 1,) + v[i:]
            mult = 1 if kind == "fermi" else x + 1
            value = (Fraction(sign) if normalization == "unnormalized"
                     else sign * math.sqrt(mult * (p - k) / p))
        else:
            if x == 0:
                continue
            target = v[: i - 1] + (x - 1,) + v[i:]
            value = (sign * Fraction(x * (p - k + 1), p) if normalization == "unnormalized"
                     else sign * math.sqrt(x * (p - k + 1) / p))
        out[(index[target], col)] = value
    return out, len(vectors)


def _check_ops_json(params, text):
    kind, n, p = params["kind"], params["n"], params["p"]
    normalization = params["normalization"]
    payload = json.loads(text)
    expected, dim = _ladder_entries(kind, n, p, params["op"], params["i"], normalization)
    head = (payload["spec"], payload["basis"], payload["normalization"], payload["dims"])
    if head != ({"kind": kind, "n": n, "p": p}, "graded-lex", normalization, [dim, dim]):
        return f"header {head}"
    entries = payload["entries"]
    if [(e[0], e[1]) for e in entries] != sorted(expected):
        return "entry positions differ from the ladder action (or not row-major)"
    for e in entries:
        want = expected[(e[0], e[1])]
        if normalization == "unnormalized":
            if Fraction(e[2], e[3]) != want or math.gcd(e[2], e[3]) != 1 or e[3] < 1:
                return f"entry {e}, expected {want}"
        elif abs(e[2] - want) > ENTRY_TOL:
            return f"entry {e}, expected {want!r}"
    return None


def _spectrum_levels(kind, n, p, energies):
    """Exact levels of H = sum_i eps_i a_i^+ a_i^-: sum_i eps_i v_i (p-|v|+1)/p."""
    counts: dict[Fraction, int] = {}
    eps = [Fraction(e) for e in energies]
    for v in basis(kind, n, p):
        k = sum(v)
        value = sum(e * x for e, x in zip(eps, v)) * Fraction(p - k + 1, p)
        counts[value] = counts.get(value, 0) + 1
    return sorted(counts.items())


def _check_spectrum(params, text):
    levels = json.loads(text)
    expected = _spectrum_levels(params["kind"], params["n"], params["p"], params["energies"])
    if len(levels) != len(expected):
        return f"{len(levels)} levels, expected {len(expected)}"
    for got, (value, mult) in zip(levels, expected):
        if got["mult"] != mult:
            return f"level {got}, expected multiplicity {mult} at {value}"
        if params["exact"]:
            if got["value"] != str(value):
                return f"level {got}, expected {value}"
        elif abs(got["value"] - float(value)) > SPECTRUM_TOL:
            return f"level {got}, expected {float(value)!r}"
    return None


def _grade_polynomial(xs, p):
    """Coefficients h_0..h_p of prod_i 1/(1 - x_i t), truncated at t^p."""
    h = [1.0] + [0.0] * p
    for x in xs:
        for k in range(1, p + 1):
            h[k] += x * h[k - 1]
    return h


def thermo_closed_form(n, p, energies, beta, mu):
    """(Xi, mean occupations, mean total) of capped Bose modes.

    Xi = sum_{k<=p} h_k(x) z^k with x_i = exp(-beta eps_i), z = exp(beta mu).
    The mean occupation of mode i is sum_j j x_i^j z^j h'_{k-j} z^(k-j) / Xi,
    where h' leaves mode i out.
    """
    xs = [math.exp(-beta * e) for e in energies]
    z = math.exp(beta * mu)
    h = _grade_polynomial(xs, p)
    xi = sum(h[k] * z ** k for k in range(p + 1))
    means = []
    for i in range(n):
        rest = _grade_polynomial(xs[:i] + xs[i + 1:], p)
        acc = sum(j * (xs[i] * z) ** j * rest[m] * z ** m
                  for j in range(1, p + 1) for m in range(p - j + 1))
        means.append(acc / xi)
    mean_total = sum(k * h[k] * z ** k for k in range(p + 1)) / xi
    return xi, means, mean_total


def _close(got, want):
    return abs(got - want) <= THERMO_RTOL * max(abs(want), 1.0)


def _check_thermo_csv(params, text):
    n, p = params["n"], params["p"]
    rows = list(csv.reader(io.StringIO(text)))
    header = ["beta", "mu", "Xi"] + [f"mean_occ_{i}" for i in range(1, n + 1)] + ["mean_total"]
    if not rows or rows[0] != header:
        return "bad header"
    points = [(b, m) for b in params["betas"] for m in params["mus"]]
    if len(rows) - 1 != len(points):
        return f"{len(rows) - 1} rows, expected {len(points)}"
    for row, (beta, mu) in zip(rows[1:], points):
        values = [float(x) for x in row]
        if values[:2] != [beta, mu]:
            return f"row point {values[:2]}, expected {[beta, mu]}"
        xi, means, mean_total = thermo_closed_form(n, p, params["energies"], beta, mu)
        for got, want in zip(values[2:], [xi] + means + [mean_total]):
            if not _close(got, want):
                return f"at beta={beta} mu={mu}: {got!r}, closed form {want!r}"
    return None


CHECKS = {
    "verify-text": _check_verify_text,
    "verify-json": _check_verify_json,
    "basis-json": _check_basis_json,
    "basis-csv": _check_basis_csv,
    "ops-json": _check_ops_json,
    "spectrum": _check_spectrum,
    "thermo-csv": _check_thermo_csv,
}


def check(name: str, params: dict, data: bytes) -> str | None:
    """None if ``data`` (a command's stdout) is right, else why it is not."""
    try:
        return CHECKS[name](params, data.decode("utf-8"))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
