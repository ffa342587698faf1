"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload traced and untraced, checks that every metric named in
BENCHMARK.json is printed with its unit and that no command fails, that the
traced run splits the work into the intended layers, and that the output
oracle rejects corrupted outputs.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.splitlines()
            out[workload, trace] = (lines[:-1], json.loads(lines[-1]))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_and_nothing_fails(results, workload, trace):
    lines, result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert "(fail_frac 0)" in lines[0]
    declared = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert any(line.strip().startswith(f"{m['name']}: ") and f" {m['unit']} " in line
                   for line in lines), m["name"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_layer_split(results):
    layer = {w: results[w, 1][1]["metrics"] for w in workloads.WORKLOADS}
    value = lambda w, name: layer[w][name]["value"]  # noqa: E731
    for w in ("large-space", "export"):
        assert value(w, "sparse.apply.calls") == 0
        assert value(w, "sparse.rank.calls") == 0
    assert value("exact-checks", "sparse.apply.calls") > 0
    assert 0 < value("exact-checks", "sparse.rank.accept_ratio") <= 1
    assert value("exact-checks", "operators.distinct_ratio") < 1
    assert value("export", "operators.distinct_ratio") == 1
    assert value("large-space", "thermo.points") == 4
    assert value("export", "cli.out_bytes") > 0
    # every report the suites made was seen through the wrapped check functions
    cmds = workloads.commands("exact-checks", 7, tiny=True)
    for suite in ("relations", "lie"):
        expected = sum(oracle.expected_checks(suite, *spec) for c in cmds
                       if c.params["suite"] == suite for spec in c.params["specs"])
        assert value("exact-checks", f"{suite}.checks") == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("export", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def cli_output(cmd: workloads.Command) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "fockcap.cli", *cmd.argv],
                          env=env, capture_output=True, check=True)
    return proc.stdout


def tiny(workload: str, check: str) -> workloads.Command:
    return next(c for c in workloads.commands(workload, 7, tiny=True) if c.check == check)


def _perturb_xi(text: str) -> str:
    """Scale Xi of the first sweep point by 1 + 1e-6."""
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-6))
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _perturb_last_mean_total(text: str) -> str:
    head, _, last = text.rstrip("\n").rpartition(",")
    return f"{head},{float(last) * (1 + 1e-6)!r}\n"


CORRUPTIONS = [
    ("exact-checks", "verify-text", lambda s: s.replace("summary: ", "summary: 1")),
    ("exact-checks", "verify-text", lambda s: s.replace("[ok]", "[FAIL]", 1)),
    ("exact-checks", "verify-text", lambda s: s.splitlines()[0] + "\n"),
    ("exact-checks", "verify-json", lambda s: s.replace('"residual": "0"', '"residual": "1/2"', 1)),
    ("large-space", "thermo-csv", _perturb_xi),
    ("large-space", "thermo-csv", _perturb_last_mean_total),
    ("large-space", "spectrum", lambda s: s.replace('"mult": 1', '"mult": 2', 1)),
    ("export", "basis-json", lambda s: s.replace('"total": 1', '"total": 2', 1)),
    ("export", "basis-csv", lambda s: "\n".join(s.splitlines()[:-1]) + "\n"),
    ("export", "ops-json", lambda s: s.replace('"graded-lex"', '"lex"')),
]


@pytest.mark.parametrize("workload,check,corrupt", CORRUPTIONS)
def test_oracle_rejects_corrupted_output(workload, check, corrupt):
    cmd = tiny(workload, check)
    good = cli_output(cmd)
    assert oracle.check(cmd.check, cmd.params, good) is None
    bad = corrupt(good.decode()).encode()
    assert bad != good
    assert oracle.check(cmd.check, cmd.params, bad) is not None


def test_oracle_rejects_a_perturbed_operator_entry():
    for cmd in workloads.commands("export", 7, tiny=True):
        if cmd.check != "ops-json":
            continue
        payload = json.loads(cli_output(cmd))
        entry = payload["entries"][-1]
        entry[2] = entry[2] * 2 if isinstance(entry[2], int) else entry[2] + 1e-9
        bad = json.dumps(payload).encode()
        assert oracle.check(cmd.check, cmd.params, bad) is not None


def test_oracle_closed_forms_agree_with_brute_force():
    from itertools import product
    for kind, n, p in (("bose", 3, 4), ("fermi", 4, 2), ("fermi", 3, 5)):
        top = p if kind == "bose" else 1
        brute = sorted((v for v in product(range(top + 1), repeat=n) if sum(v) <= p),
                       key=lambda v: (sum(v), v))
        assert oracle.basis(kind, n, p) == brute
        assert oracle.dimension(kind, n, p) == len(brute)
    energies, beta, mu = [0.5, 1.5, 2.0], 0.7, -0.3
    weights = [(v, math.exp(-beta * (sum(e * x for e, x in zip(energies, v)) - mu * sum(v))))
               for v in oracle.basis("bose", 3, 4)]
    xi = sum(w for _, w in weights)
    got_xi, means, mean_total = oracle.thermo_closed_form(3, 4, energies, beta, mu)
    assert got_xi == pytest.approx(xi, rel=1e-12)
    for i in range(3):
        assert means[i] == pytest.approx(sum(v[i] * w for v, w in weights) / xi, rel=1e-12)
    assert mean_total == pytest.approx(sum(means), rel=1e-12)
