"""qelab benchmark: runs one workload repeatedly and prints its metrics.

    python3 perfbench/run.py --workload reference_run --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; qelab is imported from ``src/`` there.
Each execution of the workload is a fresh interpreter (perfbench/child.py),
run single-process with ``--threads 1`` and OpenBLAS left at its default
thread count, in a closed loop: the next execution starts when the previous
one has ended, until ``--seconds`` have passed (at least three executions).
One set-up-only execution first warms the file cache.

End-to-end metrics (``--trace 0``), over the executions of the run:
  wall_s        wall time of the fastest execution, input resolved to last
                output written (the median and a tail percentile are printed
                too; see README.md for why the fastest is the gated figure)
  setup_s       median time from process start to qelab imported, input resolved
  peak_rss_mb   median peak resident memory of one execution's process
  success_rate  share of executions that exited 0 and passed the output check
  mc_stderr_max largest Monte-Carlo stderr in green_moments.csv (cavity_moments;
                1 on workloads whose outputs carry no stderr)

``--trace 1`` alternates untraced and traced executions and prints the
per-layer metrics of perfbench/tracer.py for the fastest traced execution,
plus the tracing overhead: its wall time minus the fastest untraced one.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  Everything else (host facts, the SHA-256 of every output
CSV, the wall-time percentiles, the layer table) is printed before it and
written to .perfbench_out/<workload>-seed<seed>-trace<t>/summary.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_EXECUTIONS = 3
MIN_PAIRS = 2
CHILD_TIMEOUT_S = 150.0
PROGRAM_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "share",
    "mc_stderr_max": "1",
}

def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


# ----------------------------------------------------------------------
# one execution
# ----------------------------------------------------------------------


@dataclass
class Execution:
    """One child process: its result.json (None if it failed), peak RSS, stderr tail."""

    result: dict | None
    exit_code: int
    peak_rss_mb: float
    stderr_tail: str
    elapsed: float


def execute(workload, input_path, exec_dir, trace, setup_only, timeout):
    os.makedirs(exec_dir)
    spec = {
        "workload": workload,
        "input": input_path,
        "out": os.path.join(exec_dir, "out"),
        "result": os.path.join(exec_dir, "result.json"),
        "src": os.path.join(ROOT, "src"),
        "trace": trace,
        "setup_only": setup_only,
    }
    spec_path = os.path.join(exec_dir, "spec.json")
    env = dict(os.environ, PYTHONPATH=spec["src"], TMPDIR=exec_dir)
    with open(os.path.join(exec_dir, "stdout.txt"), "wb") as out, \
            open(os.path.join(exec_dir, "stderr.txt"), "wb") as err:
        spec["t0"] = time.monotonic()
        with open(spec_path, "w", encoding="utf-8") as f:
            json.dump(spec, f)
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        # os.wait4 gives this child's own rusage; RUSAGE_CHILDREN would keep
        # the maximum over every earlier child
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        elapsed = time.monotonic() - spec["t0"]
    with open(os.path.join(exec_dir, "stderr.txt"), encoding="utf-8", errors="replace") as f:
        stderr_tail = f.read()[-2000:]
    result = None
    if proc.returncode == 0 and os.path.exists(spec["result"]):
        with open(spec["result"], encoding="utf-8") as f:
            result = json.load(f)
    return Execution(result, proc.returncode, rusage.ru_maxrss / 1024.0, stderr_tail, elapsed)


# ----------------------------------------------------------------------
# output check
# ----------------------------------------------------------------------


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def load_reference(workload):
    with open(os.path.join(HERE, "reference", f"{workload}.json"), encoding="utf-8") as f:
        return json.load(f)


def check_outputs(workload, inp, out_dir, reference):
    """(problems, {file: sha256}, {file: (header, rows)}) for one execution."""
    problems, shas, tables = [], {}, {}
    for name, (ref_key, columns) in workloads.expected_files(workload, inp).items():
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            problems.append(f"{name}: missing")
            continue
        shas[name] = sha256(path)
        header, rows = read_csv(path)
        tables[name] = (header, rows)
        ref = reference["files"][ref_key]
        problems += [f"{name}: {p}" for p in
                     workloads.check_table(header, rows, ref["header"], ref["rows"], columns)]
    return problems, shas, tables


def output_bytes(out_dir):
    total = 0
    for base, _, files in os.walk(out_dir):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def tail_percentile(values):
    """(p, value) for the highest usual percentile with ten samples beyond it, or None."""
    n = len(values)
    eligible = [p for p in (50, 75, 90, 95, 99) if n - n * p / 100.0 >= 10]
    if not eligible:
        return None
    p = eligible[-1]
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def prepare(workload, seed, work):
    """Fresh work directory holding the workload's input; returns (input, path)."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inp = workloads.make_input(workload, seed)
    input_path = os.path.join(work, "input.json")
    with open(input_path, "w", encoding="utf-8") as f:
        json.dump(inp, f, indent=1)
    return inp, input_path


def measure(args, inp, input_path, work, reference, program_start):
    """Closed loop of executions; returns [(traced, Execution, problems)], SHA-256s, tables."""
    executions = []
    first_shas = None
    last_tables = {}
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(executions) % 2 == 1
        exec_dir = os.path.join(work, f"exec{len(executions)}")
        timeout = min(CHILD_TIMEOUT_S, PROGRAM_DEADLINE_S - (time.monotonic() - program_start))
        ex = execute(args.workload, input_path, exec_dir, traced, False, max(timeout, 1.0))
        problems = []
        if ex.result is None:
            problems.append(f"child exited {ex.exit_code}: {ex.stderr_tail.strip()[-500:]}")
        elif ex.result["exit_code"] != 0:
            problems.append(f"qelab exited {ex.result['exit_code']}")
        else:
            out_dir = os.path.join(exec_dir, "out")
            found, shas, last_tables = check_outputs(args.workload, inp, out_dir, reference)
            problems += found
            if first_shas is None:
                first_shas = shas
            elif shas != first_shas:
                problems.append("outputs differ between executions of the same input")
            ex.result["bytes_written"] = output_bytes(out_dir)
        if problems and (not executions or problems != executions[-1][2]):
            for p in problems:
                print(f"check failed (execution {len(executions)}): {p}", file=sys.stderr)
        executions.append((traced, ex, problems))

        typical = statistics.median(e.elapsed for _, e, _ in executions)
        if time.monotonic() - program_start + typical > PROGRAM_DEADLINE_S:
            break
        if args.trace and len(executions) % 2 == 1:
            continue  # finish the untraced/traced pair
        if (len(executions) >= (2 * MIN_PAIRS if args.trace else MIN_EXECUTIONS)
                and time.monotonic() - start >= args.seconds):
            break
    return executions, first_shas or {}, last_tables


def end_to_end_metrics(plain, attempted, failed, tables):
    """End-to-end metrics over the untraced executions that passed."""
    metrics = {
        "wall_s": min(e.result["wall_s"] for e in plain),
        "setup_s": statistics.median(e.result["setup_s"] for e in plain),
        "peak_rss_mb": statistics.median(e.peak_rss_mb for e in plain),
        "success_rate": (attempted - failed) / attempted,
        "mc_stderr_max": 1.0,
    }
    if "green_moments.csv" in tables:
        header, rows = tables["green_moments.csv"]
        metrics["mc_stderr_max"] = workloads.stderr_column_max(rows, header)
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def per_layer_metrics(plain, traced_runs, summary):
    """Per-layer metrics of the fastest traced execution (its layers add up to its wall time)."""
    fastest = min(traced_runs, key=lambda e: e.result["wall_s"])
    layers = dict(fastest.result["layers"])
    layers["cli.bytes_written"] = fastest.result["bytes_written"]
    traced_wall = fastest.result["wall_s"]
    untraced_wall = min(e.result["wall_s"] for e in plain)
    layers["trace.wall_s"] = traced_wall
    layers["trace.untraced_wall_s"] = untraced_wall
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    print(f"{'layer':<12}{'self s':>10}{'share':>8}")
    for layer in tracing.LAYER_NAMES:
        value = layers[f"{layer}.self_s"]
        print(f"{layer:<12}{value:>10.4f}{value / traced_wall:>8.1%}")
    functions = fastest.result["functions"]
    print(f"{'function':<44}{'calls':>9}{'total s':>10}{'self s':>10}")
    for name, (calls, total, self_s) in sorted(functions.items(), key=lambda kv: -kv[1][2])[:15]:
        print(f"{name:<44}{calls:>9}{total:>10.4f}{self_s:>10.4f}")
    summary["functions"] = functions
    summary["spans"] = fastest.result["spans"]
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    program_start = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "qelab", "cli.py")):
        print(f"error: no qelab sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a qelab checkout", file=sys.stderr)
        return 2
    reference = load_reference(args.workload)
    work = os.path.join(ROOT, ".perfbench_out",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    inp, input_path = prepare(args.workload, args.seed, work)
    warm = execute(args.workload, input_path, os.path.join(work, "warmup"), False, True,
                   CHILD_TIMEOUT_S)
    if warm.result is None:
        print(f"error: set-up failed (exit {warm.exit_code}):\n{warm.stderr_tail}",
              file=sys.stderr)
        return 2
    host = warm.result["host"]
    executions, shas, tables = measure(args, inp, input_path, work, reference, program_start)

    attempted = len(executions)
    failed = sum(1 for _, _, p in executions if p)
    plain = [e for t, e, p in executions if not p and not t]
    traced_runs = [e for t, e, p in executions if not p and t]
    summary = {
        "workload": args.workload, "why": workloads.WHY[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "input": inp, "host": host,
        "attempted": attempted, "failed": failed,
        "executions": [{"traced": t, "exit_code": e.exit_code, "peak_rss_mb": e.peak_rss_mb,
                        "elapsed_s": e.elapsed, "problems": p,
                        **{k: v for k, v in (e.result or {}).items()
                           if k in ("setup_s", "wall_s", "bytes_written")}}
                       for t, e, p in executions],
        "output_sha256": shas,
    }
    print(f"workload {args.workload} seed {args.seed}: {workloads.WHY[args.workload]}")
    print("host " + json.dumps(host, sort_keys=True))
    for name, digest in sorted(shas.items()):
        print(f"sha256 {digest} {name}")
    if args.seed == 0 and shas:
        moved = sorted(name for name, (key, _) in
                       workloads.expected_files(args.workload, inp).items()
                       if shas.get(name) != reference["files"][key]["sha256"])
        summary["bytes_moved_vs_reference"] = moved
        print(f"bytes moved vs reference: {moved or 'none'}")

    metrics = {}
    if plain:
        walls = [e.result["wall_s"] for e in plain]
        tail = tail_percentile(walls)
        tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                     "no percentile has ten samples beyond it")
        print(f"wall_s fastest {min(walls):.4f} s, median {statistics.median(walls):.4f} s "
              f"over {len(walls)} executions; {tail_text}")
        if not args.trace:
            metrics = end_to_end_metrics(plain, attempted, failed, tables)
        elif traced_runs:
            metrics = per_layer_metrics(plain, traced_runs, summary)

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    summary["metrics"] = metrics
    with open(os.path.join(work, "summary.json"), "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=1)
    line = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
