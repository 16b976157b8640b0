"""One round of a workload in a fresh interpreter.

    python3 child.py SPEC_JSON SPAWN_TIME MODE

MODE is `setup` (set up and stop), `run` (set up, then time the kflow
command), `trace` (the same with kflow's functions wrapped by
`tracer.Tracer`) or `trace-memory` (traced, with the peak memory of the
density spans under tracemalloc).  SPAWN_TIME is the parent's
`time.perf_counter()` just before it started this process; perf_counter
is CLOCK_MONOTONIC on Linux, shared by all processes, so `setup_s` runs
from process start to the moment the command begins.  Set-up is what
every invocation of the command pays before its work: interpreter start,
imports, config resolution, model construction and the initial grid.

The last line of standard output is `BENCH-RESULT <json>`; everything
before it is the command's own output.
"""

import sys
import time


def _setup(spec):
    from pathlib import Path

    import kflow
    import kflow.cli as cli
    import kflow.verify  # noqa: F401  (loaded before a tracer wraps its names)
    from kflow.config import load_json, resolve_run_config

    kflow_dir = str(Path(kflow.__file__).resolve().parent)
    if kflow_dir != spec["kflow_dir"]:
        raise SystemExit(f"kflow imported from {kflow_dir}, expected {spec['kflow_dir']}")
    command = spec["argv"][0]
    if command == "run":
        resolved = resolve_run_config(load_json(spec["inputs"]["config"]))
        model = cli.build_model(resolved)
        model.einstein_constant
        cli.build_grid(resolved, model)
    elif command == "density":
        resolved = load_json(spec["inputs"]["run_dir"] + "/config.resolved.json")
        cli.build_model(resolved)
    return cli


def main():
    spec_path, spawn_time, mode = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    import json

    with open(spec_path) as fh:
        spec = json.load(fh)
    cli = _setup(spec)
    begin = time.perf_counter()
    result = {"setup_s": begin - spawn_time}
    if mode != "setup":
        import resource

        tracer = None
        if mode.startswith("trace"):
            from tracer import MEMORY_SPANS, Tracer

            tracer = Tracer(memory=mode == "trace-memory")
            tracer.install()
        start = time.perf_counter()
        code = cli.main(spec["argv"])
        result["wall_s"] = time.perf_counter() - start
        result["exit_code"] = code
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            result["spans"] = len(tracer.spans)
            result["memory_spans"] = sum(s[0] in MEMORY_SPANS for s in tracer.spans)
            tracer.write(f"{spec['trace_path']}-{mode}.csv")
    sys.stdout.flush()
    print("BENCH-RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
