"""Benchmark of kflow's user-facing commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kflow source tree.  The benchmark writes the
workload's inputs for seed N, then runs the workload's `kflow` command in
fresh interpreters, one round per process, until the next round would end
after S seconds of measuring (at least one round is always run).  Each
round's outputs are checked against values computed without kflow (see
oracles.py); each check is one attempted operation and each violation one
failed operation.

--trace 0 reports the end-to-end metrics (medians over the rounds):
  wall_s       time of the kflow command, after set-up
  setup_s      process start to command start (also sampled by set-up-only
               processes, see SETUP_PROBES)
  peak_rss_mb  peak resident set size of the command's process
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of tracer.py (medians over the traced rounds; peak memory from
extra rounds under tracemalloc), plus trace.overhead_s, the traced minus
the untraced median wall time.

The last line of standard output is the result as one JSON object.  Run
state lives under .perfbench/ at the root: a per-run work directory
(removed at exit) that also serves as KFLOW_OUTPUT_ROOT, results/ with one
JSON record per run, and traces/ with the spans of the last traced round.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
STATE = ROOT / ".perfbench"

# One BLAS thread: on a 2-core machine OpenBLAS threads contend with each
# other under load in the density kernels (K @ w), and starting them costs
# 0.05-0.07 s of every set-up.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import workloads  # noqa: E402  (numpy must see the thread settings above)
from tracer import LAYER_METRICS  # noqa: E402

# Set-up-only processes per run before measuring.  The first is a warm-up
# that fills the page cache and writes kflow's bytecode cache, and is
# discarded; the others add set-up samples (untraced runs only).
WARMUP = 1
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 170
RESULT_TAG = "BENCH-RESULT "


class ChildError(RuntimeError):
    pass


def _spawn(spec_path: Path, mode: str, out_root: Path) -> dict:
    """Run child.py once and return its result record."""
    out_root.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["KFLOW_OUTPUT_ROOT"] = str(out_root)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(spec_path), repr(start), mode],
        env=env,
        cwd=str(out_root),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith(RESULT_TAG):
        raise ChildError(
            f"{mode} process exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    result = json.loads(lines[-1][len(RESULT_TAG):])
    result["stdout"] = "\n".join(lines[:-1])
    return result


def _measure(wl, spec_path: Path, work: Path, seconds: float, trace: bool):
    """Rounds until the next one would end after `seconds`.  With tracing,
    each group is an untraced round, a traced one and, when the traced
    round ran a span of tracer.MEMORY_SPANS, a traced round that measures
    their peak memory."""
    rounds = []
    begin = time.perf_counter()
    longest = 0.0
    while True:
        group_start = time.perf_counter()
        modes = ["run", "trace"] if trace else ["run"]
        while modes:
            mode = modes.pop(0)
            out_root = work / f"round-{len(rounds)}"
            res = _spawn(spec_path, mode, out_root)
            res["mode"] = mode
            res["checks"] = wl.check(out_root, res.pop("stdout"), res["exit_code"])
            shutil.rmtree(out_root)
            rounds.append(res)
            ok = sum(c[1] for c in res["checks"])
            print(
                f"# round {len(rounds)} {mode}: wall_s {res['wall_s']:.4f} "
                f"setup_s {res['setup_s']:.4f} checks {ok}/{len(res['checks'])}",
                flush=True,
            )
            for name, passed, detail in res["checks"]:
                if not passed:
                    print(f"# FAILED {name}: {detail}", flush=True)
            if mode == "trace" and res["memory_spans"]:
                modes.append("trace-memory")
        longest = max(longest, time.perf_counter() - group_start)
        if time.perf_counter() - begin + longest > seconds:
            return rounds


def _metrics(rounds, setups, trace):
    untraced = [r for r in rounds if r["mode"] == "run"]
    if not trace:
        return {
            "wall_s": {"value": statistics.median([r["wall_s"] for r in untraced]), "unit": "s"},
            "setup_s": {
                "value": statistics.median(setups + [r["setup_s"] for r in rounds]),
                "unit": "s",
            },
            "peak_rss_mb": {
                "value": statistics.median([r["peak_rss_mb"] for r in untraced]),
                "unit": "MB",
            },
        }
    traced = [r for r in rounds if r["mode"] == "trace"]
    memory = [r for r in rounds if r["mode"] == "trace-memory"] or traced
    out = {}
    for name, unit in LAYER_METRICS:
        if name == "trace.overhead_s":
            value = statistics.median([r["wall_s"] for r in traced]) - statistics.median(
                [r["wall_s"] for r in untraced]
            )
        else:
            source = memory if name.endswith(".peak_mb") else traced
            value = statistics.median([r["layers"][name] for r in source])
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=tuple(workloads.SIZES),
        default="full",
        help="tiny: small grids for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    kflow_dir = SRC / "kflow"
    if not (kflow_dir / "cli.py").is_file():
        print(f"no kflow source tree at {kflow_dir}", file=sys.stderr)
        return 2
    work = STATE / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for sub in ("results", "traces"):
        (STATE / sub).mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    try:
        wl = workloads.prepare(args.workload, args.seed, args.size, work, SRC)
        spec_path = work / "spec.json"
        spec = {
            "argv": wl.argv,
            "inputs": wl.inputs,
            "kflow_dir": str(kflow_dir.resolve()),
            "trace_path": str(STATE / "traces" / tag),
        }
        spec_path.write_text(json.dumps(spec))
        settings = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "size": args.size,
            "blas_threads": int(BLAS_THREADS),
            "warmup_processes": WARMUP,
            "setup_probes": SETUP_PROBES,
            "inputs": {k: v for k, v in wl.inputs.items() if not isinstance(v, str)},
        }
        print("# settings " + json.dumps(settings), flush=True)
        setups = []
        for i in range(WARMUP + (0 if args.trace else SETUP_PROBES)):
            res = _spawn(spec_path, "setup", work / "setup")
            if i >= WARMUP:
                setups.append(res["setup_s"])
        rounds = _measure(wl, spec_path, work, args.seconds, bool(args.trace))
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = [c for r in rounds for c in r["checks"]]
    failed = sum(not passed for _, passed, _ in checks)
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": _metrics(rounds, setups, bool(args.trace)),
    }
    record = {
        "settings": settings,
        "setup_probes_s": setups,
        "rounds": [
            {**{k: v for k, v in r.items() if k != "checks"},
             "failed_checks": [c for c in r["checks"] if not c[1]]}
            for r in rounds
        ],
        "result": result,
    }
    suffix = "-trace" if args.trace else ""
    (STATE / "results" / f"{tag}{suffix}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
