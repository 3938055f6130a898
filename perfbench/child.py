"""One execution of a workload in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the workload, its input file, the output directory, the source
tree to import qelab from, whether to trace, whether to stop after set-up,
and ``t0``: the parent's CLOCK_MONOTONIC reading just before it started this
process (the clock is shared by all processes of the machine).  The child
writes ``result.json`` beside its outputs: set-up time (t0 to qelab imported
and the input resolved), wall time (input resolved to last output written),
exit code, and, when traced, the per-layer metrics and layer-boundary spans.
"""

import json
import os
import sys
import time


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import qelab
    from qelab import cli

    import tracer as tracing
    import workloads

    if not os.path.abspath(qelab.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        print(f"qelab imported from {qelab.__file__}, not from {spec['src']}", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer(tracing.TIME_GROUPS)
        tracing.install(tracer)
    with open(spec["input"], encoding="utf-8") as f:
        raw = json.load(f)
    command = workloads.COMMANDS[spec["workload"]]
    if command is not None:
        cli.resolve_config(raw)
    setup_s = time.monotonic() - spec["t0"]

    result = {"setup_s": setup_s}
    if spec["setup_only"]:
        import hostinfo

        result["host"] = hostinfo.host_facts(os.path.dirname(spec["src"]))
    else:
        out = spec["out"]
        os.makedirs(out, exist_ok=True)
        if command is not None:
            argv = [command, "--config", spec["input"], "--out", out, "--threads", "1",
                    "--strict-invariants"]
            body, args = cli.main, (argv,)
        else:
            body, args = workloads.run_lifted, (raw, out)
        if tracer is not None:
            body = tracer.wrap(tracing.ROOT, "cli", body)
            tracer.reset()
        start = time.perf_counter()
        code = body(*args)
        result["wall_s"] = time.perf_counter() - start
        result["exit_code"] = int(code or 0)
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer)
            result["functions"] = tracing.function_table(tracer)
            result["spans"] = tracer.spans
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
