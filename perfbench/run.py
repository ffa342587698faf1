"""The fockcap benchmark: fixed lists of CLI commands, run as child processes.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One parent process runs a workload's command list (workloads.py) over and
over for S seconds, one ``python -m fockcap.cli ...`` child at a time, and
checks every output against an oracle that does not import fockcap
(oracle.py).  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics, each the median over passes:
wall_s, cpu_s and peak_rss_mb of one pass over the list, and setup_s, the
median time to start the interpreter and ``import fockcap.cli``.
--trace 1 alternates untraced passes with passes in which every child runs
through traced_child.py, and reports the per-layer metrics of tracing.py.

See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 7  # at least this many set-up samples per run


@dataclass
class Child:
    """One finished child process."""

    returncode: int
    spawn: float        # time.perf_counter() just before the spawn
    eof: float          # time.perf_counter() at the end of its stdout
    cpu_s: float        # user + sys, from os.wait4
    maxrss_mb: float    # ru_maxrss of this child alone, from os.wait4
    out_bytes: int
    digest: str
    spawn_ns: int       # time.monotonic_ns() just before the spawn


@dataclass
class Outputs:
    """Which stdout each command produced, for the oracle.

    Every output is hashed; only the first output of each command, and any
    later one that differs from it, is kept on disk and checked.  An output
    equal to a checked one shares its verdict.
    """

    workdir: Path
    kept: dict = field(default_factory=dict)        # (index, digest) -> path
    runs: list = field(default_factory=list)        # (index, returncode, digest, stderr)


def run_child(argv: list[str], env: dict, out_path: Path, err_path: Path) -> Child:
    """Spawn a child, stream its stdout to a file, and reap it with wait4.

    The parent reads stdout in fixed-size chunks and holds no output in
    memory: a spawned child starts with its parent's peak RSS as its own
    ru_maxrss, so the parent has to stay smaller than any child it measures.
    """
    digest = hashlib.sha256()
    size = 0
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawn_ns = time.monotonic_ns()
        spawn = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        try:
            fd = proc.stdout.fileno()
            while chunk := os.read(fd, 1 << 16):
                out.write(chunk)
                digest.update(chunk)
                size += len(chunk)
            eof = time.perf_counter()
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, spawn, eof, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024, size, digest.hexdigest(), spawn_ns)


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    out_bytes: int
    children: list


def run_pass(cmds, env, outputs: Outputs, tag: str, traced: bool) -> Pass:
    children = []
    for k, cmd in enumerate(cmds):
        out_path = outputs.workdir / f"{tag}-c{k}.out"
        err_path = outputs.workdir / f"{tag}-c{k}.err"
        if traced:
            argv = [sys.executable, str(HERE / "traced_child.py"),
                    str(outputs.workdir / f"{tag}-c{k}.spans"), *cmd.argv]
        else:
            argv = [sys.executable, "-m", "fockcap.cli", *cmd.argv]
        child = run_child(argv, env, out_path, err_path)
        children.append(child)
        stderr = err_path.read_text(errors="replace") if child.returncode else ""
        err_path.unlink()
        if child.returncode == 0 and (k, child.digest) not in outputs.kept:
            outputs.kept[(k, child.digest)] = out_path  # new output of this command: check it
        else:
            out_path.unlink()
        outputs.runs.append((k, child.returncode, child.digest, stderr))
    return Pass(wall_s=children[-1].eof - children[0].spawn,
                cpu_s=sum(c.cpu_s for c in children),
                peak_rss_mb=max(c.maxrss_mb for c in children),
                out_bytes=sum(c.out_bytes for c in children),
                children=children)


def judge(cmds, outputs: Outputs) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every command run."""
    verdicts = {}
    for (k, digest), path in outputs.kept.items():
        cmd = cmds[k]
        verdicts[(k, digest)] = oracle.check(cmd.check, cmd.params, path.read_bytes())
    failed = 0
    reasons = []
    for k, returncode, digest, stderr in outputs.runs:
        if returncode != 0:
            last_line = stderr.strip().rpartition("\n")[2]
            reason = f"exit code {returncode}: {last_line}"
        else:
            reason = verdicts[(k, digest)]
        if reason is not None:
            failed += 1
            reasons.append(f"{cmds[k].label()}: {reason}")
    return len(outputs.runs), failed, reasons


def measure_setup(env: dict, samples: int) -> list[float]:
    """Seconds from spawn to exit of `python -c "import fockcap.cli"`."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import fockcap.cli"], env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"import fockcap.cli failed: {proc.stderr.decode(errors='replace')}")
    return times


def traced_pass_metrics(result: Pass, outputs: Outputs, tag: str) -> dict:
    all_spans = []
    startup_ns = 0
    for k, child in enumerate(result.children):
        path = outputs.workdir / f"{tag}-c{k}.spans"
        if not path.exists():  # the child failed before writing spans
            continue
        with open(path, "rb") as fh:
            record = marshal.load(fh)
        path.unlink()
        all_spans.append(record["spans"])
        startup_ns += record["imported_ns"] - child.spawn_ns
    metrics = tracing.layer_metrics(all_spans)
    metrics["startup.self_s"] = startup_ns / 1e9
    metrics["cli.out_bytes"] = result.out_bytes
    return metrics


def describe(name: str, values: list[float], unit: str) -> str:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return f"{name}: {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"
    return f"{name}: {med:.6g} {unit} (n=1)"


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json's order, for one kind of run."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in config["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    units = declared_units(trace)
    cmds = workloads.commands(workload, seed, tiny)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    workdir = OUT_ROOT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        measure_setup(env, 1)  # writes the bytecode caches; not a sample
        outputs = Outputs(workdir)
        passes: list[Pass] = []
        setup: list[float] = []
        traced: list[dict] = []
        traced_walls: list[float] = []
        start = time.perf_counter()
        last = 0.0  # duration of the previous round
        n = 0
        # start a round only if it should end within the run's seconds
        while not passes or time.perf_counter() - start + last <= seconds:
            round_start = time.perf_counter()
            passes.append(run_pass(cmds, env, outputs, f"p{n}", traced=False))
            n += 1
            if trace:
                result = run_pass(cmds, env, outputs, f"p{n}", traced=True)
                traced.append(traced_pass_metrics(result, outputs, f"p{n}"))
                traced_walls.append(result.wall_s)
                n += 1
            else:
                # spread over the run, so that a slow spell of the host
                # weighs on set-up as much as on the passes
                setup += measure_setup(env, 1)
            last = time.perf_counter() - round_start
        if not trace and len(setup) < SETUP_SAMPLES:
            setup += measure_setup(env, SETUP_SAMPLES - len(setup))
        attempted, failed, reasons = judge(cmds, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it

    lines = [f"workload {workload}, seed {seed}: {len(passes)} untraced passes"
             + (f", {len(traced)} traced" if trace else "")
             + f" over {len(cmds)} commands; {failed}/{attempted} commands failed"
             + f" (fail_frac {failed / attempted:.6g})"]
    lines += [f"  FAILED {reason}" for reason in reasons[:20]]
    if trace:
        samples = {name: [m[name] for m in traced] for name in traced[0]}
        samples["trace.wall_s"] = traced_walls
        untraced_wall = statistics.median(p.wall_s for p in passes)
        samples["trace.overhead_ratio"] = [statistics.median(traced_walls) / untraced_wall]
    else:
        samples = {"wall_s": [p.wall_s for p in passes],
                   "cpu_s": [p.cpu_s for p in passes],
                   "peak_rss_mb": [p.peak_rss_mb for p in passes],
                   "setup_s": setup}
    lines += ["  " + describe(name, samples[name], units[name]) for name in units]
    metrics = {name: {"value": statistics.median(samples[name]), "unit": units[name]}
               for name in units}
    return {"lines": lines,
            "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (see test_smoke.py); not for measurement")
    args = parser.parse_args(argv)
    if not (SRC / "fockcap" / "cli.py").is_file():
        print(f"error: no fockcap sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    for line in report["lines"]:
        print(line)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
