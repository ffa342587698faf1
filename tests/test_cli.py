import contextlib
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fockcap import AlgebraSpec, Kind, basis, cli, diagonal_spectrum, run_suite

from conftest import alive, brute_basis, small_grid


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_importing_the_cli_leaves_numpy_unloaded():
    # only the float spectrum needs numpy; it imports it on first use
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    subprocess.run([sys.executable, "-c",
                    "import fockcap.cli, sys; assert 'numpy' not in sys.modules"],
                   env={**os.environ, "PYTHONPATH": src}, check=True)


def _fockcap_modules(src, code):
    """Run code in a fresh interpreter; return the fockcap modules in sys.modules
    then, those it executed (a lazily registered module that was never used is
    still a LazyLoader module, not a types.ModuleType) and what code printed."""
    script = (code + "\nimport json, sys, types\n"
              "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'fockcap'), "
              "sorted(m for m, mod in sys.modules.items() if m.split('.')[0] == 'fockcap' "
              "and type(mod) is types.ModuleType)]))")
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         check=True, capture_output=True, text=True).stdout
    *printed, last = out.splitlines()
    return *json.loads(last), printed


def test_importing_the_cli_registers_every_module_and_runs_only_basis():
    # dataclasses would pull in inspect, ast, dis and tokenize at every start-up; the
    # benchmark's tracer reads every fockcap module from sys.modules right after the
    # import, and the lazy ones load when it reads them
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    package = os.path.dirname(os.path.abspath(cli.__file__))
    modules = sorted(["fockcap"] + [f"fockcap.{name[:-3]}" for name in os.listdir(package)
                                    if name.endswith(".py") and name != "__init__.py"])
    present, executed, printed = _fockcap_modules(
        src, "import fockcap.cli, sys; print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
    assert present == modules and len(modules) == 9
    assert executed == ["fockcap", "fockcap.basis", "fockcap.cli"]
    assert printed == ["False False"]


# The fockcap modules besides the package, cli and basis that each command executes.
COMMAND_MODULES = [
    (["dim", "--kind", "bose", "--n", "2", "--p", "3"], []),
    (["basis", "--kind", "fermi", "--n", "3", "--p", "2"], []),
    (["spectrum", "--kind", "bose", "--n", "2", "--p", "3", "--energies", "1,2"], ["models"]),
    (["toy", "--p", "4"], ["models"]),
    (["thermo", "--kind", "bose", "--n", "2", "--p", "3", "--beta", "1", "--mu", "0"],
     ["thermo"]),
    (["ops", "--kind", "bose", "--n", "2", "--p", "3", "--op", "annihilate", "--i", "1"],
     ["operators", "sparse"]),
    (["verify", "--kind", "bose", "--n", "2", "--p", "2"], ["operators", "relations", "sparse"]),
    (["lie", "--kind", "fermi", "--n", "2", "--p", "1"],
     ["lie", "operators", "relations", "sparse"]),
]


@pytest.mark.parametrize("argv,modules", COMMAND_MODULES, ids=[a[0] for a, _ in COMMAND_MODULES])
def test_each_command_executes_only_the_modules_it_runs(argv, modules):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    present, executed, printed = _fockcap_modules(
        src, "import contextlib, io\nfrom fockcap import cli\nwith contextlib.redirect_stdout("
             f"io.StringIO()) as out:\n    code = cli.main({argv!r})\n"
             "print(code, bool(out.getvalue()))")
    assert printed == ["0 True"]
    assert len(present) == 9
    assert executed == sorted(["fockcap", "fockcap.basis", "fockcap.cli"]
                              + [f"fockcap.{name}" for name in modules])


# Every name the package re-exports, by its home module.
PACKAGE_EXPORTS = {
    "basis": ["AlgebraSpec", "Kind", "OccupationVector", "basis_csv", "dimension",
              "fermi_cap_note", "graded_dimensions", "grade_offsets"],
    "lie": ["check_adjoint_action", "check_branching", "check_gl_commutators",
            "check_identification", "diagonal_action_value", "extended_rescaled_generators",
            "run_lie_suite", "weight_vector"],
    "models": ["diagonal_level_counts", "diagonal_spectrum", "quadratic_hamiltonian_spectrum",
               "toy_levels", "toy_spectrum"],
    "operators": ["FockSpace", "normalize", "operator_json_payload"],
    "relations": ["ClassicalLimitReport", "RelationReport", "check_backend_agreement",
                  "check_cap", "check_classical_limit", "check_hermiticity", "check_mixed",
                  "check_number", "check_pp", "check_vacuum_cyclic", "run_grid", "run_suite"],
    "sparse": ["MonomialMatrix"],
    "thermo": ["CharacterPolynomial", "character", "occupation_summary", "sweep"],
}


def test_the_package_names_are_those_of_their_modules():
    import importlib

    import fockcap
    for module, names in PACKAGE_EXPORTS.items():
        home = importlib.import_module(f"fockcap.{module}")
        assert getattr(fockcap, module) is home
        for name in names:
            assert getattr(fockcap, name) is getattr(home, name), (module, name)
            assert name in dir(fockcap)
    with pytest.raises(AttributeError, match="no_such_name"):
        fockcap.no_such_name
    for module in ("operators", "relations"):  # the constants that moved to basis
        for name in ("EXACT", "FLOAT", "ORTHONORMAL"):
            assert getattr(importlib.import_module(f"fockcap.{module}"), name) \
                is getattr(basis, name)
    assert fockcap.lie.LIE_CHECKS is basis.LIE_CHECKS


def test_a_diagonal_float_spectrum_leaves_numpy_unloaded():
    # the eigenvalues of a diagonal table are its diagonal, so it needs no eigvalsh
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    argv = ["spectrum", "--kind", "bose", "--n", "3", "--p", "4", "--backend", "float",
            "--energies", "0.5,1.75,3"]
    subprocess.run([sys.executable, "-c",
                    f"import sys; from fockcap import cli; assert cli.main({argv!r}) == 0; "
                    "assert 'numpy' not in sys.modules"],
                   env={**os.environ, "PYTHONPATH": src}, check=True, stdout=subprocess.DEVNULL)


@pytest.mark.parametrize("extra", [
    ["--energies", "1/2,-1,2"],
    ["--backend", "float", "--energies", "0.5,-1,2"],
    ["--backend", "float", "--matrix-file", "TABLE"],
], ids=["exact", "float-energies", "float-matrix-file"])
def test_a_spectrum_builds_no_space(capsys, built_spaces, tmp_path, extra):
    # the levels are counted by grade and energy sum at the eigenvalues of the
    # table: no basis, index or operator
    path = tmp_path / "t.json"
    path.write_text(json.dumps([[1.0, -0.5, 0.0], [-0.5, 2.0, 0.25], [0.0, 0.25, 0.5]]))
    code, out, _ = run_cli(capsys, "spectrum", "--kind", "bose", "--n", "3", "--p", "4",
                           *[str(path) if arg == "TABLE" else arg for arg in extra])
    assert code == 0 and sum(level["mult"] for level in json.loads(out)) == 35
    assert built_spaces == []


@pytest.mark.parametrize("argv", [
    "verify --kind bose --n 2 --p 3",
    "verify --kind fermi --n 2 --p 2 --backend float",
    "verify --grid 2 2",
    "lie --kind fermi --n 2 --p 2",
    "ops --kind bose --n 2 --p 3 --op eij --i 1 --j 2",
    "ops --kind bose --n 2 --p 3 --op create --i 1 --normalization orthonormal",
])
def test_no_space_outlives_its_command(capsys, built_spaces, argv):
    # each entry point builds its spaces itself; nothing keeps one once it returns
    code, _, _ = run_cli(capsys, *argv.split())
    assert code == 0 and built_spaces and alive(built_spaces) == []


def test_dim_human(capsys):
    code, out, err = run_cli(capsys, "dim", "--kind", "fermi", "--n", "4", "--p", "2")
    assert code == 0
    assert out == "11\n"
    assert err == ""


def test_dim_json_and_loose_cap_warning(capsys):
    code, out, err = run_cli(capsys, "dim", "--kind", "fermi", "--n", "2", "--p", "3",
                             "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 4
    assert payload["graded_dimensions"] == [1, 2, 1, 0]
    assert "warning" in err


def test_a_loose_fermi_cap_lists_and_sums_what_the_binding_cap_does(capsys):
    # a Fermi mode holds one quantum: past p = n the cap adds no vector and no work in p
    thermo = ("thermo", "--beta", "1", "--mu=0", "--energies", "1,2")
    for command, *extra in (("basis",), thermo):
        outs = []
        for p in (2, 10**6):
            t0 = time.perf_counter()
            code, out, _ = run_cli(capsys, command, "--kind", "fermi", "--n", "2", "--p", str(p),
                                   *extra)
            assert code == 0 and time.perf_counter() - t0 < 1.0
            outs.append(out)
        assert outs[0] == outs[1] and len(outs[0].splitlines()) == (5 if command == "basis" else 2)


@pytest.mark.parametrize("argv, lines", [
    (("verify",), "fermi n=2 p=100000: 25/25 pass [ok]\nsummary: 25/25 checks pass\n"),
    (("ops", "--op", "create", "--i", "1", "--normalization", "orthonormal"), None)])
def test_a_loose_fermi_cap_is_verified_and_exported_at_once(capsys, argv, lines):
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, argv[0], "--kind", "fermi", "--n", "2", "--p", str(10**5),
                           *argv[1:])
    assert code == 0 and time.perf_counter() - t0 < 2.0
    if lines is None:  # a_1^+ on the 4 vectors: (0,0) -> (1,0) and (0,1) -> (1,1)
        assert [entry[:2] for entry in json.loads(out)["entries"]] == [[2, 0], [3, 1]]
    else:
        assert out == lines


def test_basis_csv_and_json(capsys):
    code, out, _ = run_cli(capsys, "basis", "--kind", "bose", "--n", "2", "--p", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rank,total,occ_1,occ_2"
    assert lines[-1] == "5,2,2,0"
    code, out, _ = run_cli(capsys, "basis", "--kind", "bose", "--n", "2", "--p", "2",
                           "--json")
    payload = json.loads(out)
    assert payload["basis"][5] == {"rank": 5, "total": 2, "occupations": [2, 0]}


WRITER_SPECS = small_grid(3, 3) + [AlgebraSpec(Kind.BOSE, 1, 5), AlgebraSpec(Kind.FERMI, 3, 1),
                                   AlgebraSpec(Kind.FERMI, 2, 4)]


@pytest.mark.parametrize("spec", WRITER_SPECS, ids=lambda s: f"{s.kind.value}-{s.n}-{s.p}")
def test_basis_exports_are_the_per_vector_oracles(capsys, tmp_path, spec):
    # the run writer against json.dumps of the per-vector rows and the per-vector CSV
    # lines, to stdout and to a file, in one block and in blocks of one to three rows
    vectors = brute_basis(spec)
    rows = [{"rank": r, "total": sum(v), "occupations": list(v)} for r, v in enumerate(vectors)]
    payload = {"spec": {"kind": spec.kind.value, "n": spec.n, "p": spec.p}, "basis": rows}
    lines = [",".join(["rank", "total"] + [f"occ_{i}" for i in range(1, spec.n + 1)])]
    lines += [",".join(map(str, (r, sum(v), *v))) for r, v in enumerate(vectors)]
    wants = [(["--json"], json.dumps(payload, indent=2) + "\n"),
             ([], "".join(line + "\n" for line in lines))]
    argv = ["basis", "--kind", spec.kind.value, "--n", str(spec.n), "--p", str(spec.p)]
    out = tmp_path / "basis.txt"
    for block_rows in (1, 2, 3, basis.BLOCK_ROWS):
        with mock.patch.object(basis, "BLOCK_ROWS", block_rows):
            for extra, want in wants:
                assert cli.main(argv + extra) == 0
                assert capsys.readouterr().out == want
                assert cli.main(argv + extra + ["-o", str(out)]) == 0
                assert out.read_bytes() == want.encode()


def test_basis_exports_read_the_runs_not_a_vector_at_a_time(monkeypatch, capsys):
    def refuse(space):
        raise AssertionError("read FockSpace.basis")

    from fockcap.operators import FockSpace  # the one list of whole vectors
    monkeypatch.setattr(FockSpace, "basis", property(refuse))
    for extra in ([], ["--json"]):
        assert cli.main(["basis", "--kind", "bose", "--n", "3", "--p", "4", *extra]) == 0
        assert capsys.readouterr().out.count("\n") > 35


def test_ops_export_schema(capsys):
    code, out, _ = run_cli(capsys, "ops", "--kind", "fermi", "--n", "2", "--p", "1",
                           "--op", "create", "--i", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["normalization"] == "unnormalized"
    assert payload["entries"] == [[2, 0, 1, 1]]
    code, out, _ = run_cli(capsys, "ops", "--kind", "fermi", "--n", "2", "--p", "1",
                           "--op", "create", "--i", "1",
                           "--normalization", "orthonormal")
    payload = json.loads(out)
    assert payload["entries"] == [[2, 0, 1.0]]


def test_ops_eij_requires_indices(capsys):
    code, _, err = run_cli(capsys, "ops", "--kind", "bose", "--n", "2", "--p", "1",
                           "--op", "eij", "--i", "1")
    assert code == 2
    assert "requires --j" in err


@pytest.mark.parametrize("args, flag", [(("--op", "number", "--i", "7"), "--i"),
                                        (("--op", "number", "--j", "1"), "--j"),
                                        (("--op", "create", "--i", "1", "--j", "9"), "--j"),
                                        (("--op", "annihilate", "--i", "2", "--j", "1"), "--j")])
def test_ops_refuses_an_index_it_does_not_read(capsys, args, flag):
    code, out, err = run_cli(capsys, "ops", "--kind", "bose", "--n", "2", "--p", "2", *args)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and f"takes no {flag}" in err


def test_ops_deterministic_output(capsys):
    args = ("ops", "--kind", "bose", "--n", "3", "--p", "2", "--op", "eij",
            "--i", "1", "--j", "2")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_ops_frees_the_space_before_it_encodes(capsys, monkeypatch, built_spaces):
    # the export reads only the operator, so the space (basis, rank index) goes first,
    # freed by its reference count, with no garbage collection
    seen = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda chunks, out: (
        seen.append([ref() for ref in built_spaces]), emit(chunks, out)))
    for normalization in ("unnormalized", "orthonormal"):
        code, out, _ = run_cli(capsys, "ops", "--kind", "bose", "--n", "2", "--p", "3",
                               "--op", "create", "--i", "1", "--normalization", normalization)
        assert code == 0 and json.loads(out)["dims"] == [10, 10]
    assert seen == [[None], [None, None]]


def test_verify_single_spec(capsys):
    code, out, _ = run_cli(capsys, "verify", "--kind", "bose", "--n", "2", "--p", "2")
    assert code == 0
    assert "summary:" in out and "FAIL" not in out


def test_verify_grid_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--grid", "2", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert all(item["pass"] for item in payload)
    kinds = {item["kind"] for item in payload}
    assert kinds == {"fermi", "bose"}


def test_verify_float_backend(capsys):
    code, out, _ = run_cli(capsys, "verify", "--kind", "fermi", "--n", "2", "--p", "2",
                           "--backend", "float", "--json")
    assert code == 0
    payload = json.loads(out)
    assert all(item["pass"] for item in payload)
    # the exact suite with exact residuals, and the agreement of the 2n orthonormal
    # ladders with float ones
    floats = [item for item in payload if item["backend"] == "float"]
    assert len(floats) == 4
    assert {item["relation"] for item in floats} == {f"orthonormal-agreement-{name}"
                                                     for name in ("plus", "minus")}
    assert all(isinstance(item["residual"], float) for item in floats)
    assert all(item["residual"] == "0" for item in payload if item not in floats)
    assert len(payload) - len(floats) == len(run_suite(AlgebraSpec(Kind.FERMI, 2, 2)))


def test_verify_requires_spec_or_grid(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2
    assert "required" in err


@pytest.mark.parametrize("spec", [("--kind", "bose"), ("--n", "9"), ("--p", "9"),
                                  ("--kind", "bose", "--n", "9", "--p", "9")])
def test_verify_grid_refuses_a_spec(capsys, spec):
    code, out, err = run_cli(capsys, "verify", "--grid", "1", "1", *spec)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--grid" in err


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    from fockcap import relations
    from fockcap.relations import RelationReport
    from fockcap import AlgebraSpec, Kind
    from fractions import Fraction

    def fake_grid(n_max, p_max, backend):
        spec = AlgebraSpec(Kind.FERMI, 1, 1)
        return [RelationReport("mixed-ladder", spec, (1, 1), Fraction(1), False)]

    monkeypatch.setattr(relations, "run_grid", fake_grid)  # cmd_verify imports it when run
    code, out, _ = run_cli(capsys, "verify", "--grid", "1", "1")
    assert code == 1
    assert "FAIL" in out


def test_lie_subcommand(capsys):
    code, out, _ = run_cli(capsys, "lie", "--kind", "fermi", "--n", "2", "--p", "1",
                           "--check", "brackets", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload and all(item["pass"] for item in payload)
    code, out, _ = run_cli(capsys, "lie", "--kind", "bose", "--n", "2", "--p", "2")
    assert code == 0
    assert "summary:" in out


def test_thermo_csv_output(capsys):
    code, out, _ = run_cli(capsys, "thermo", "--kind", "bose", "--n", "1", "--p", "1",
                           "--beta", "1.0", "--mu", "0.0", "--energies", "1.0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "beta,mu,Xi,mean_occ_1,mean_total"
    import math
    xi = float(lines[1].split(",")[2])
    assert xi == pytest.approx(1 + math.exp(-1))


def test_thermo_json_sweep(capsys):
    code, out, _ = run_cli(capsys, "thermo", "--kind", "fermi", "--n", "2", "--p", "1",
                           "--beta", "1.0,2.0", "--mu", "0.0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 2
    assert payload["energies"] == [0.0, 0.0]


def test_thermo_csv_and_json_carry_equal_numbers(capsys):
    argv = ("thermo", "--kind", "bose", "--n", "3", "--p", "4", "--beta", "0.3,2",
            "--mu=-0.5,0,0.25", "--energies", "0.5,0,1.5")
    code, csv_out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, json_out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    csv_rows = [[float(x) for x in line.split(",")] for line in csv_out.splitlines()[1:]]
    json_rows = [[r["beta"], r["mu"], r["Xi"], *r["mean_occupations"], r["mean_total"]]
                 for r in json.loads(json_out)["rows"]]
    assert len(csv_rows) == 6
    assert csv_rows == json_rows


def test_spectrum_exact(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--kind", "bose", "--n", "2", "--p", "2",
                           "--energies", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload == [{"value": "0", "mult": 1}, {"value": "1", "mult": 5}]


ENERGY_LITERALS = st.one_of(
    st.integers(-6, 6).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 12)),
    st.sampled_from(["0", "-0", "0.5", "-0.5", "1e-3", "-2.25"]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(Kind)), st.integers(1, 3), st.integers(1, 8), st.data())
def test_exact_spectrum_output_is_that_of_the_report(kind, n, p, data):
    # the command writes the counted levels in lowest terms without forming a Fraction each;
    # the bytes must be those of diagonal_spectrum's levels through json.dumps
    literals = data.draw(st.lists(ENERGY_LITERALS, min_size=n, max_size=n))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["spectrum", "--kind", kind.value, "--n", str(n), "--p", str(p),
                         "--energies=" + ",".join(literals)])
    levels = diagonal_spectrum(AlgebraSpec(kind, n, p), [Fraction(x) for x in literals])
    assert code == 0
    assert out.getvalue() == json.dumps([{"value": str(v), "mult": m} for v, m in levels],
                                        indent=2) + "\n"


def test_exact_level_is_measured_in_lowest_terms(capsys):
    # bose n=1 p=2: the level at one quantum is 2w/2 over the common denominator 2, of 4301
    # digits before reduction; in lowest terms it is w, which prints
    code, out, _ = run_cli(capsys, "spectrum", "--kind", "bose", "--n", "1", "--p", "2",
                           "--energies=9e4299")
    assert code == 0
    assert json.loads(out) == [{"value": "0", "mult": 1}, {"value": str(9 * 10 ** 4299), "mult": 2}]
    # the denominator is bounded too: bose n=1 p=101 holds 3/(101 * 10**4299) at three quanta
    code, out, err = run_cli(capsys, "spectrum", "--kind", "bose", "--n", "1", "--p", "101",
                             "--energies=1e-4299")
    assert (code, out) == (2, "") and "4300-digit" in err


def test_spectrum_float_matrix_file(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps([[0.0, 1.0], [1.0, 0.0]]))
    code, out, _ = run_cli(capsys, "spectrum", "--kind", "bose", "--n", "2", "--p", "1",
                           "--backend", "float", "--matrix-file", str(path))
    assert code == 0
    payload = json.loads(out)
    values = [item["value"] for item in payload]
    assert values == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)


def test_spectrum_usage_errors(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--kind", "bose", "--n", "2", "--p", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "spectrum", "--kind", "bose", "--n", "2", "--p", "1",
                           "--backend", "exact", "--matrix-file", "x.json")
    assert code == 2


@pytest.mark.parametrize("command, message", [
    ("verify --grid 0 3", "grid bounds must be positive"),
    ("thermo --kind bose --n 2 --p 2 --beta 1 --mu 0 --energies 1", "expected 2 energies, got 1"),
    ("spectrum --kind bose --n 2 --p 2 --backend float --energies 1",
     "expected 2 energies, got 1"),
    ("spectrum --kind bose --n 2 --p 2 --energies ,", "empty numeric list"),
    ("thermo --kind bose --n 2 --p 2 --beta 1 --mu 0 --energies=",
     "expected a list of finite numbers"),
    ("spectrum --kind bose --n 2 --p 2 --energies 1", "expected 2 energies, got 1"),
])
def test_usage_errors_name_the_input(capsys, command, message):
    code, out, err = run_cli(capsys, *command.split())
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err


def test_toy_human_table(capsys):
    code, out, _ = run_cli(capsys, "toy", "--p", "2")
    assert code == 0
    assert "E=0 mult=1" in out
    assert "E=1 mult=5" in out
    assert "gap(1-2n/p)" in out


def test_toy_json(capsys):
    code, out, _ = run_cli(capsys, "toy", "--p", "10", "--json")
    assert code == 0
    payload = json.loads(out)
    level3 = payload["levels"][3]
    assert level3 == {"n": 3, "value": "12/5", "mult": 4, "gap_to_next": "2/5"}
    merged = {item["value"]: item["mult"] for item in payload["spectrum"]}
    assert merged["12/5"] == 13


def test_usage_error_exit_code(capsys):
    assert cli.main(["dim", "--kind", "neither", "--n", "1", "--p", "1"]) == 2
    capsys.readouterr()
    assert cli.main(["nonsense"]) == 2
    capsys.readouterr()
    # spec validation failures map to usage errors as well
    assert cli.main(["dim", "--kind", "bose", "--n", "0", "--p", "1"]) == 2
    capsys.readouterr()


def test_io_error_exit_code(capsys, tmp_path):
    missing_dir = tmp_path / "not" / "here" / "out.json"
    code = cli.main(["dim", "--kind", "bose", "--n", "1", "--p", "1",
                     "-o", str(missing_dir)])
    captured = capsys.readouterr()
    assert code == 3
    assert "io error" in captured.err
    assert captured.out == "" and os.listdir(tmp_path) == []  # -o into a missing directory
    # the message names the path given to -o, not the temporary file beside it
    assert repr(str(missing_dir)) in captured.err and ".fockcap-" not in captured.err


def test_output_to_file(capsys, tmp_path):
    target = tmp_path / "basis.csv"
    code = cli.main(["basis", "--kind", "fermi", "--n", "2", "--p", "1",
                     "-o", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text().startswith("rank,total,occ_1,occ_2")


REFUSED_SWEEP = ("thermo", "--kind", "bose", "--n", "2", "--p", "3", "--beta", "1,1000", "--mu", "1")


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["csv", "json"])
def test_a_refused_point_writes_nothing_and_keeps_the_output_file(capsys, tmp_path, fmt):
    # beta=1 passes, beta=1000 overflows: the whole sweep is refused before a byte is out
    code, out, err = run_cli(capsys, *REFUSED_SWEEP, *fmt)
    assert (code, out) == (2, "") and "beta=1000.0" in err
    target = tmp_path / "sweep.out"
    target.write_text("earlier output\n")
    code, out, _ = run_cli(capsys, *REFUSED_SWEEP, *fmt, "-o", str(target))
    assert (code, out) == (2, "")
    assert target.read_text() == "earlier output\n"
    assert os.listdir(tmp_path) == ["sweep.out"]


def test_output_onto_a_directory_is_an_io_error_that_leaves_it(capsys, tmp_path):
    target = tmp_path / "reports"
    target.mkdir()
    (target / "kept.txt").write_text("x")
    code, out, err = run_cli(capsys, "dim", "--kind", "bose", "--n", "2", "--p", "2",
                             "-o", str(target))
    assert (code, out) == (3, "") and err.startswith("io error:")
    assert os.listdir(tmp_path) == ["reports"] and os.listdir(target) == ["kept.txt"]


def test_a_failure_while_writing_leaves_the_output_file_as_it_was(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("earlier output\n")

    def chunks():
        yield "partial"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        cli._emit(chunks(), str(target))
    assert target.read_text() == "earlier output\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_output_file_mode_is_that_of_a_plain_open(capsys, tmp_path):
    new, existing = tmp_path / "new.csv", tmp_path / "existing.csv"
    existing.write_text("")
    existing.chmod(0o600)
    umask = os.umask(0o027)
    try:
        for target in (new, existing):
            code, _, _ = run_cli(capsys, "basis", "--kind", "fermi", "--n", "2", "--p", "1",
                                 "-o", str(target))
            assert code == 0
    finally:
        os.umask(umask)
    # a new file gets 0o666 less the umask, as open(path, "w") gives, not mkstemp's 0o600;
    # an existing file keeps its own bits
    assert (new.stat().st_mode & 0o777, existing.stat().st_mode & 0o777) == (0o640, 0o600)
    assert new.read_text() == existing.read_text() == (
        "rank,total,occ_1,occ_2\n0,0,0,0\n1,1,0,1\n2,1,1,0\n")


def test_output_through_a_symlink_replaces_the_file_it_names(capsys, tmp_path):
    real, link = tmp_path / "real.txt", tmp_path / "link.txt"
    real.write_text("earlier output\n")
    link.symlink_to(real)
    code, _, _ = run_cli(capsys, "dim", "--kind", "fermi", "--n", "4", "--p", "2", "-o", str(link))
    assert code == 0 and link.is_symlink() and real.read_text() == "11\n"
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "real.txt"]


def test_output_to_a_pipe_is_written_into_it(capsys, tmp_path):
    # a device or a pipe (/dev/null, /dev/stdout) is written into, never replaced by a file
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, out, _ = run_cli(capsys, "dim", "--kind", "fermi", "--n", "4", "--p", "2",
                               "-o", str(fifo))
        data = os.read(reader, 1024)
    finally:
        os.close(reader)
    assert (code, out, data) == (0, "", b"11\n")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode) and os.listdir(tmp_path) == ["fifo"]


@pytest.mark.parametrize("argv", [
    ("basis", "--kind", "bose", "--n", "4", "--p", "12", "--json"),  # 228 KB, more than a pipe holds
    ("dim", "--kind", "bose", "--n", "2", "--p", "2"),               # 2 bytes, left in the buffer
], ids=["large", "small"])
def test_a_reader_that_closes_at_once_gives_one_io_error(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # stdout buffered
    proc = subprocess.Popen([sys.executable, "-m", "fockcap.cli", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env={**env, "PYTHONPATH": src})
    proc.stdout.close()
    try:
        err = proc.stderr.read().decode()
    finally:
        proc.stderr.close()
    assert proc.wait(timeout=60) == 3
    # no traceback and no "Exception ignored" from the interpreter's flush at exit
    assert len(err.splitlines()) == 1 and err.startswith("io error:"), err


JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10 ** 60, 10 ** 60),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e308, -1e308]), st.text())
JSON_TREES = st.recursive(JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=6), st.dictionaries(st.text(max_size=8), inner, max_size=6)),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(JSON_TREES, st.integers(1, 5))
def test_streamed_json_is_the_bytes_of_json_dumps(obj, pieces):
    # a few encoder pieces per chunk, so that most trees span several chunks
    with mock.patch.object(cli, "CHUNK_PIECES", pieces):
        streamed = "".join(cli._dump_json(obj))
    assert "".join(cli._dump_json(obj)) == streamed == json.dumps(obj, indent=2) + "\n"


H = cli._HOLE
ROW_SAMPLES = [[H], [H, H, H, H], {"rank": H, "total": H, "occupations": [H, H, H]},
               {"a": H, "b": {"c": [H, H], "d": {}}, "e": []}]
ROW_VALUES = st.one_of(st.integers(), st.sampled_from([-1, 0, 2 ** 64 + 1, -(2 ** 70)]),
                       st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([-0.0, 5e-324, 1e308, -1e308]))
# payload entries around the array: no key or string holds the hole character
NO_HOLE_TEXT = st.text(st.characters(blacklist_characters=H), max_size=4)
SIBLINGS = st.dictionaries(NO_HOLE_TEXT.filter(lambda k: k != "rows"), st.recursive(
    st.one_of(st.none(), st.integers(), NO_HOLE_TEXT),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6), max_size=3)


def _fill_holes(sample, values):
    """sample with its holes replaced by values, in encoding order."""
    if isinstance(sample, dict):
        return {k: _fill_holes(v, values) for k, v in sample.items()}
    if isinstance(sample, list):
        return [_fill_holes(v, values) for v in sample]
    return next(values) if sample == H else sample


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(ROW_SAMPLES), SIBLINGS, SIBLINGS, st.integers(1, 5))
def test_streamed_json_rows_are_the_bytes_of_json_dumps(data, sample, before, after, batch):
    width = json.dumps(sample).count(json.dumps(H))
    rows = data.draw(st.lists(st.tuples(*[ROW_VALUES] * width), max_size=12))
    full_rows = [_fill_holes(sample, iter(row)) for row in rows]
    payload, full = {**before, "rows": None, **after}, {**before, "rows": full_rows, **after}
    with mock.patch.object(basis, "BLOCK_ROWS", batch):
        streamed = "".join(cli._dump_json_rows(payload, "rows", iter(rows), sample))
    assert streamed == json.dumps(full, indent=2) + "\n"
    if not rows:
        assert '"rows": []' in streamed


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.text(), ROW_VALUES), st.integers()), max_size=12),
       st.integers(1, 5))
def test_streamed_json_rows_of_a_top_level_array_take_encoded_strings(rows, batch):
    # the key path () makes the array the whole output; a string row value arrives encoded
    encoded = [(json.dumps(v) if isinstance(v, str) else v, m) for v, m in rows]
    with mock.patch.object(basis, "BLOCK_ROWS", batch):
        streamed = "".join(cli._dump_json_rows(None, (), iter(encoded),
                                               {"value": H, "mult": H}))
    assert streamed == json.dumps([{"value": v, "mult": m} for v, m in rows], indent=2) + "\n"


class _ChunkSizes:
    """A stdout that keeps only the length of each chunk written to it."""

    def __init__(self):
        self.sizes = []

    def write(self, chunk):
        self.sizes.append(len(chunk))

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


def test_export_is_written_in_chunks_far_below_its_size():
    # 46376 rows, 5.9 MB: no chunk handed to the writer may hold a sizable share of it
    stdout = _ChunkSizes()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["basis", "--kind", "bose", "--n", "4", "--p", "30", "--json"]) == 0
    assert sum(stdout.sizes) == 5920512
    assert max(stdout.sizes) <= 1 << 20


def test_basis_json_holds_no_list_of_its_rows():
    # a list of the 46376 row dicts peaked at 14.5 MB traced; streamed rows need 0.9 MB,
    # most of it the texts of the suffix table
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_ChunkSizes()):
            assert cli.main(["basis", "--kind", "bose", "--n", "4", "--p", "30", "--json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


EXPORT_COMMANDS = [
    ["basis", "--kind", "bose", "--n", "4", "--p", "30", "--json"],
    ["basis", "--kind", "bose", "--n", "4", "--p", "30"],
    ["ops", "--kind", "bose", "--n", "4", "--p", "30", "--op", "annihilate", "--i", "2", "--json"],
    ["ops", "--kind", "fermi", "--n", "14", "--p", "6", "--op", "create", "--i", "3", "--json",
     "--normalization", "orthonormal"]]


@pytest.mark.parametrize("argv, bound", zip(EXPORT_COMMANDS, [3e6, 3e6, 4.2e6, 3e6]),
                         ids=["basis-json", "basis-csv", "ops-bose", "ops-fermi"])
def test_export_commands_peak_below_their_bounds(tmp_path, argv, bound):
    # the export workload's commands, written to a file; the per-vector writer and
    # walk peaked at 0.44, 1.77, 4.11 and 2.08 MB here, the run writer and walk at
    # 0.93, 0.68, 3.43 and 1.34 MB
    argv = argv + ["-o", str(tmp_path / "out")]
    assert cli.main(argv) == 0  # modules imported and caches warm before tracing
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, peak


def test_emit_refuses_a_bare_string():
    with pytest.raises(TypeError, match="iterable of chunks"):
        cli._emit("text", None)


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_thermo_rejects_non_finite_numbers(capsys):
    spec = ("thermo", "--kind", "bose", "--n", "2", "--p", "3")
    for values in (("--beta", "nan", "--mu", "0"), ("--beta", "1", "--mu", "inf"),
                   ("--beta", "1", "--mu", "0", "--energies", "1,-inf")):
        code, out, err = run_cli(capsys, *spec, *values)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize("args", [
    ("--kind", "bose", "--n", "2", "--p", "3", "--beta", "1000", "--mu", "1"),
    ("--kind", "fermi", "--n", "2", "--p", "3", "--beta", "1", "--mu", "700"),
    ("--kind", "bose", "--n", "3", "--p", "1", "--beta", "1", "--mu", "709"),  # Xi = inf
], ids=["weight-overflow", "fermi-weight-overflow", "infinite-xi"])
def test_thermo_weights_beyond_float_range_are_a_usage_error(capsys, args):
    code, out, err = run_cli(capsys, "thermo", *args)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith("error:") and "beta=" in err and "mu=" in err


def test_float_spectrum_beyond_float_range_is_a_usage_error(capsys):
    # 1e308: every level is finite, 0 (x1), 1e308 (x6) and 4/3 1e308 (x3), though
    # six of them sum past the float range; at 1.7e308 the level 4/3 1.7e308 is not
    argv = ["spectrum", "--kind", "bose", "--n", "2", "--p", "3", "--backend", "float"]
    code, out, _ = run_cli(capsys, *argv, "--energies", "1e308,1e308")
    assert code == 0
    assert json.loads(out) == [{"value": 0.0, "mult": 1}, {"value": 1e308, "mult": 6},
                               {"value": 4 / 3 * 1e308, "mult": 3}]
    code, out, err = run_cli(capsys, *argv, "--energies", "1.7e308,1.7e308")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "float range" in err


def test_float_spectrum_with_off_diagonal_entries_beyond_float_range(capsys, tmp_path):
    # finite entries whose levels (up to 3e308 at p = 10) or eigenvalues (2e308) are not
    path = tmp_path / "t.json"
    for table, message in [
            ([[0, 1e308], [1e308, 0]], "levels of the Hamiltonian are beyond float range"),
            ([[1e308, 1e308], [1e308, 1e308]],
             "eigenvalues of the coefficient table are beyond float range")]:
        path.write_text(json.dumps(table))
        code, out, err = run_cli(capsys, "spectrum", "--kind", "bose", "--n", "2", "--p", "10",
                                 "--backend", "float", "--matrix-file", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert message in err


def test_spectrum_refuses_energies_with_a_matrix_file(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
    code, out, err = run_cli(capsys, "spectrum", "--kind", "bose", "--n", "2", "--p", "2",
                             "--backend", "float", "--energies", "5,5",
                             "--matrix-file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--matrix-file" in err


def test_spectrum_matrix_file_that_is_not_json_is_named(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text("not json")
    code, out, err = run_cli(capsys, "spectrum", "--kind", "bose", "--n", "2", "--p", "2",
                             "--backend", "float", "--matrix-file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and str(path) in err


def test_spectrum_rejects_zero_denominator(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--kind", "bose", "--n", "2", "--p", "3",
                             "--energies", "1/0,1")
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("text", ['{"t": [[1, 0], [0, 1]]}', "[[1, 0]]", "[[1, 0], [0]]",
                                  '[[1, "x"], [0, 1]]', "[[null, 0], [0, 1]]",
                                  "[[NaN, 0], [0, 1]]", "[[1, 0], [0, 1e999]]",
                                  "[[1, 0], [0, " + "9" * 400 + "]]",
                                  "[[true, false], [false, true]]",
                                  '[["1", "0"], ["0", "2.5"]]'],
                         ids=["object", "short", "ragged", "text", "null", "nan", "inf",
                              "huge-int", "bool", "numeral-string"])
def test_spectrum_matrix_file_must_hold_n_rows_of_n_finite_numbers(capsys, tmp_path, text):
    path = tmp_path / "t.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "spectrum", "--kind", "bose", "--n", "2", "--p", "1",
                             "--backend", "float", "--matrix-file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "2x2" in err


@pytest.mark.parametrize("energies", ["1e100000000,1", "1,-2E-4_301", "3.5e+0000012345,1"])
def test_exact_energy_exponent_beyond_printable_digits_is_refused(capsys, energies):
    code, out, err = run_cli(capsys, "spectrum", "--kind", "bose", "--n", "2", "--p", "2",
                             f"--energies={energies}")
    assert (code, out) == (2, "")
    literal = next(x for x in energies.split(",") if "e" in x.lower())
    assert err.startswith("error:") and repr(literal) in err


def test_exact_level_beyond_printable_digits_is_refused(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--kind", "bose", "--n", "2", "--p", "3",
                             "--energies=9e4299,8e4299")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "'9e4299,8e4299'" in err and "4300-digit" in err
    # a level of exactly MAX_DIGITS digits still prints
    code, out, _ = run_cli(capsys, "spectrum", "--kind", "bose", "--n", "1", "--p", "1",
                           "--energies=9e4299")
    assert code == 0
    assert json.loads(out)[1] == {"value": str(9 * 10 ** 4299), "mult": 1}


@pytest.mark.parametrize("argv", [("--kind", "bose", "--n", "200000", "--p", "20000"),
                                  ("--kind", "bose", "--n", "200000", "--p", "200000"),
                                  ("--kind", "fermi", "--n", "200000", "--p", "20000", "--json")])
def test_dim_past_printable_digits_is_refused_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "dim", *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "4300-digit limit" in err


def test_dim_near_printable_digits_is_decided_exactly(capsys):
    # C(n+500, 500) has 4300 digits at this n and 4301 at the next; the float bound
    # reads 4299.95 for both, so the exact closed form decides
    n = 73819791733
    code, out, _ = run_cli(capsys, "dim", "--kind", "bose", "--n", str(n), "--p", "500")
    assert (code, out) == (0, f"{comb(n + 500, 500)}\n") and len(out) == 4301
    code, out, _ = run_cli(capsys, "dim", "--kind", "bose", "--n", str(n), "--p", "500", "--json")
    assert code == 0 and json.loads(out)["dimension"] == comb(n + 500, 500)
    code, out, err = run_cli(capsys, "dim", "--kind", "bose", "--n", str(n + 1), "--p", "500")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "more than 4300 digits" in err


@pytest.mark.parametrize("kind, n, p, expected", [
    ("bose", 1, 10 ** 8, 10 ** 8 + 1),
    ("fermi", 3, 10 ** 8, 8),
    ("fermi", 14000, 13000, 2 ** 14000 - sum(comb(14000, k) for k in range(13001, 14001))),
])
def test_dim_at_a_huge_cap_is_the_closed_form(capsys, kind, n, p, expected):
    # the text output forms no per-grade list, so a cap of 10**8 costs nothing
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "dim", "--kind", kind, "--n", str(n), "--p", str(p))
    assert time.perf_counter() - start < 5
    assert (code, out) == (0, f"{expected}\n")


def test_exact_energy_exponent_at_the_bound_is_read(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--kind", "bose", "--n", "1", "--p", "1",
                           f"--energies=1e-{cli.MAX_EXPONENT}")
    assert code == 0
    assert json.loads(out)[1] == {"value": f"1/{10 ** cli.MAX_EXPONENT}", "mult": 1}


# Exit code and stdout sha256 of small commands: a change that alters any
# output byte fails here.  Float output is pinned only where it comes from
# Python float arithmetic and math.sqrt (no libm exp, no LAPACK), so the
# hashes do not depend on the platform.  A float spectrum of a diagonal table
# is such output: it calls no eigensolver, and each level is an exact rational
# (the mean of its cluster) rounded once by int true division.
GOLDEN = [
    ("dim --kind fermi --n 4 --p 2", 0, "25d4f2a86deb5e2574bb3210b67bb24fcc4afb19f93a7b65a057daa874a9d18e"),
    ("basis --kind bose --n 2 --p 3", 0, "4ab3df114d49ce80d98478509a55707bbb01253de8afd358630ccc63e730e9d8"),
    ("basis --kind fermi --n 3 --p 2 --json", 0, "b4029103b2d5c046ae48829780ac73426ba183eba064286d8a68f94af520576b"),
    ("ops --kind bose --n 2 --p 3 --op annihilate --i 2", 0, "66a2a1c32690a521a7713eedc5383cf26f644593ef08b3f6d8b06be21d85c068"),
    ("ops --kind fermi --n 3 --p 2 --op eij --i 1 --j 2", 0, "76be18ab415be50af920333e0707973ecec738e11b6fa76eb8b42af56cca4412"),
    ("verify --kind bose --n 2 --p 3", 0, "c2b7b94e6cc160060bb603d74a370b751fc8590a210eef9c0de8d9b2915a34b2"),
    ("verify --kind fermi --n 3 --p 2 --json", 0, "7e294deaedd8ebcb385292f9ed1c2fa22f4fba3522ad7b1d8a5499f100249597"),
    ("verify --grid 2 2", 0, "6952e9bcef1ef24e9c821cdb98b4e5b871b6faa8ae5713ab8af00308b46c168c"),
    ("lie --kind fermi --n 2 --p 2 --json", 0, "8b0594bec6ee3fe67cd7aac63d97fba19a18f6b640796e4abe89fb61b66fb1f0"),
    ("lie --kind bose --n 2 --p 3 --json", 0, "54cff3fb8f1d2bc92385381c1d1a0e3376a97f6fd17478752bb0f93b8991d44b"),
    ("spectrum --kind bose --n 2 --p 4 --energies 1,2", 0, "ffdb90e18584991431fbc8374875481808d53f0ab7fced6bf776246dd45a83ea"),
    ("toy --p 6", 0, "be9e358d54255edff7310f660801d1c806e7f0d4b38d322d22eaaafe338524e6"),
    ("verify --kind fermi --n 2 --p 2 --backend float --json", 0, "053adf3e4a82a840525179bc3f0f61c28d29d3029a5fdbf2dcc9061ccebbf897"),
    ("spectrum --kind bose --n 3 --p 3 --energies 0,2,5", 0, "92510035bbe41942aafd88b2c9f7cbbcf24403c95248da50f1b0abf85ed22cef"),
    ("toy --p 10 --json", 0, "d9317a8496768d3557701ebfa10ae773f062f942273ba9065e2f17de2bdc440d"),
    ("spectrum --kind fermi --n 3 --p 2 --energies 1/2,0,-3", 0, "a316bae942adea79669a9b803d03782733b9144c8560cfa63d97bb6edb39f563"),
    ("verify --kind bose --n 3 --p 4 --backend float --json", 0, "15c3715ef6883958b9771bcc5d5034b7d75014f22177687e76b3bbfde6ef3eef"),
    ("lie --kind bose --n 3 --p 3 --json", 0, "e49081e42c44ed267b4d35f95ebf2f11b6010f37e0e281dfb77b806763856e9b"),
    ("ops --kind fermi --n 3 --p 2 --op create --i 2 --normalization orthonormal", 0, "c42ab43fb071edc3042f3d6db32a9361f651d270eda57389785c72cfa4739116"),
    ("ops --kind bose --n 2 --p 3 --op number --normalization orthonormal", 0, "60c41f00e7cac4919778f5cbeefc9e2b51829fb0b7a06e0f0df29a76e383e142"),
    ("ops --kind fermi --n 3 --p 2 --op eij --i 2 --j 1 --normalization orthonormal", 0, "3950189ecfeff426f2f8a863aa4f3bcbfa498532f0dd12b5c5f00af8c4f01baa"),
    ("verify --grid 3 3 --json", 0, "11e16baa2a4b44d8cfb00458a488bb043780a0e3d43c05c56c5bc91da9c1392f"),
    ("spectrum --kind bose --n 3 --p 12 --energies=-1/2,3,7/3", 0, "5d7c49dab0be4c54b54bdfb8333b8f3c8e5f44befbf5ddfe9d6656f2fa41a405"),
    ("spectrum --kind fermi --n 5 --p 3 --energies=-1/3,2/7,5,-11/4,3/2", 0, "d20893e1109cefede0a217eba022d414459a16cb08dcf10b5c8bcd05a33feac8"),
    ("ops --kind bose --n 2 --p 3 --op create --i 1 --normalization orthonormal", 0, "8104a4a5bf9bcfd04d2deabf0d56770b924c3b9658deb0449aca37f49a106d2d"),
    ("ops --kind fermi --n 2 --p 4 --op annihilate --i 2 --normalization orthonormal", 0, "c804ee372f30220c68f9e33ea22dfd7b8961baecb851d80183fea9ff6088a601"),
    ("spectrum --kind fermi --n 2 --p 5 --energies 1/3,1/7", 0, "358d499d036d0b7ed3ba22e74121855eff97440443ceb8e7bba6937eaa36ffe4"),
    ("lie --kind fermi --n 2 --p 4 --json", 0, "e46fceda1e5c69890b53b4d07ad698197e7a6b4e60bb5797d9f90d12f8d95085"),
    ("dim --kind fermi --n 3 --p 5 --json", 0, "03414532cd52f44bb8e1b9e7cc4a243e53b9fccb9792f850ec4a1ac0727eb5c1"),
    ("basis --kind fermi --n 4 --p 2", 0, "d6d3e03055d517727dd45234181ad89f7bbbd46fa9c2b719bfab60fe38b67fee"),
    ("verify --kind bose --n 2 --p 3 --json", 0, "f63d40b7080aa5d75641d3552c1d91a6a78546d4946bad7009a2dd4f6a2c8aaf"),
    ("lie --kind fermi --n 2 --p 2", 0, "5e0335d5632402a071fb49a2807c34b190c5afa4027ab6ac877f810e707bec5e"),
    ("toy --p 6 --json", 0, "705c2a42813cd0ab2bd9b9638342505f1495b2fb3a0c43653cd96b42f2695bf9"),
    ("basis --kind bose --n 3 --p 4 --json", 0, "ed170830529cb0768ffae77b451b75dcb06c21f6520c746198beb990d57ebcd0"),
    ("ops --kind bose --n 3 --p 4 --op number", 0, "0622306114357a509e410fbe77a8ea34d5f8785f357b4b1ba9324a648fc91ebe"),
    ("ops --kind fermi --n 4 --p 3 --op create --i 2", 0, "f63e1a571460f9c4416d2c5412e7c5533393e8dae222d8e9226b5da1e09b40ac"),
    ("ops --kind bose --n 3 --p 4 --op eij --i 1 --j 3 --normalization orthonormal", 0, "9c8d07288722d69e67a6702c517ac17a8d1a3d048250655d4aae182b75588e29"),
    ("spectrum --kind bose --n 3 --p 4 --backend float --energies 0.5,1.75,3", 0, "1b695691592a44468c432a9f7ed9c0a8ec79216449821e2daa1765509581a0b8"),
    ("spectrum --kind fermi --n 4 --p 3 --backend float --energies=-1,0.25,2,0", 0, "d8aa3684a7a60811d59a1657c8219992a4ca53b30c7087cb8535f800d4777d5d"),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN)
def test_output_bytes_are_pinned(capsys, command, code, digest):
    got, out, _ = run_cli(capsys, *command.split())
    assert (got, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (code, digest)


# In-process CLI fuzz on tiny specs with extreme finite floats: no exception
# escapes main(), the exit code is a documented one, and a successful run
# never prints a non-finite number.
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 1e-308, 5e-324, 1e308, -1e308, 709.0, 710.0]))


def _csv(values):
    return ",".join(repr(v) for v in values)


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(["verify", "lie", "ops", "thermo", "spectrum"]))
    n, p = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    argv = [command, "--kind", draw(st.sampled_from(["fermi", "bose"])),
            "--n", str(n), "--p", str(p)]
    if command == "verify":
        argv += ["--backend", draw(st.sampled_from(["exact", "float"]))]
    elif command == "lie":
        argv += ["--check", draw(st.sampled_from(["brackets", "identify", "branching", "all"]))]
    elif command == "ops":
        argv += ["--op", draw(st.sampled_from(["create", "annihilate", "number", "eij"])),
                 "--normalization", draw(st.sampled_from(["unnormalized", "orthonormal"]))]
        for flag in ("--i", "--j"):  # each optional: both accepted and refused calls occur
            if draw(st.booleans()):
                argv += [flag, str(draw(st.integers(0, 4)))]
    elif command == "thermo":
        argv += [f"--beta={_csv(draw(st.lists(FLOATS, min_size=1, max_size=2)))}",
                 f"--mu={_csv(draw(st.lists(FLOATS, min_size=1, max_size=2)))}",
                 f"--energies={_csv(draw(st.lists(FLOATS, min_size=n, max_size=n)))}"]
    else:
        argv += [f"--energies={_csv(draw(st.lists(FLOATS, min_size=n, max_size=n)))}",
                 "--backend", draw(st.sampled_from(["exact", "float"]))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=150, deadline=None)
@given(fuzzed_argv())
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code == 0:
        assert not NON_FINITE.search(out.getvalue()), argv
