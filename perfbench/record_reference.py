"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload once at seed 0 and stores header, rows and SHA-256 of
every expected CSV in perfbench/reference/<workload>.json.  The files in
the repository were recorded from the seed commit of the benchmark; record
again only when a change to qelab's outputs is intended and stated.
"""

import json
import os
import sys

import run
import workloads


def record(workload):
    work = os.path.join(run.ROOT, ".perfbench_out", f"record-{workload}")
    inp, input_path = run.prepare(workload, 0, work)
    ex = run.execute(workload, input_path, os.path.join(work, "exec"), False, False,
                     run.CHILD_TIMEOUT_S)
    if ex.result is None or ex.result["exit_code"] != 0:
        raise SystemExit(f"{workload}: execution failed\n{ex.stderr_tail}")
    files = {}
    for name, (key, _) in workloads.expected_files(workload, inp).items():
        path = os.path.join(work, "exec", "out", name)
        header, rows = run.read_csv(path)
        files[key] = {"header": header, "rows": rows, "sha256": run.sha256(path)}
    os.makedirs(os.path.join(run.HERE, "reference"), exist_ok=True)
    with open(os.path.join(run.HERE, "reference", f"{workload}.json"), "w",
              encoding="utf-8") as f:
        json.dump({"workload": workload, "seed": 0, "input": inp, "files": files}, f, indent=1)
        f.write("\n")
    print(f"{workload}: {len(files)} files, wall {ex.result['wall_s']:.3f} s")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(workloads.WHY):
        record(name)
