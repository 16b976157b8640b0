"""Command-line entry points: run, verify, sweep, density.

Run directories contain everything needed to reproduce and audit a run:
config.resolved.json (all defaults materialized), series.csv, summary.json,
snapshots/t_<index>.json, monitor.csv when density monitoring is on, and
error.json when anything failed.

Exit codes: 0 converged or reached t_end; 1 configuration or input error;
2 blow-up flagged or unstable; 3 degenerate grid.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from .ambient import ChartPoint, get_model
from .config import load_json, resolve_run_config, resolve_sweep_spec
from .density import calibrate_r0, make_query, monitor_regularity, parabolic_density
from .diagnostics import SERIES_HEADER, summarize
from .errors import ConfigError, DegenerateImmersionError, KflowError, check_kind
from .flow import FlowConfig, run
from .immersion import load_grid, save_grid
from .surfaces import build_surface

_EXIT_BY_STOP = {"converged": 0, "reached-t-end": 0, "blowup-flag": 2, "unstable": 2, "degenerate-grid": 3}


def _output_dir(resolved):
    root = os.environ.get("KFLOW_OUTPUT_ROOT")
    out = Path(resolved["output_dir"])
    if root and not out.is_absolute():
        out = Path(root) / out
    return out


def build_model(resolved):
    return get_model(resolved["model"], **resolved["model_params"])


def build_grid(resolved, model):
    surf = resolved["surface"]
    try:
        return build_surface(surf["family"], model, nu=surf["nu"], nv=surf["nv"], **surf["params"])
    except ValueError as exc:  # a grid the config cannot have, e.g. an odd nu on a sphere
        raise ConfigError(f"surface: {exc}") from exc


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    """Write a header line, then each row of the iterable `rows` as it
    comes.  csv.writer gives a float its repr and None an empty field."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _run_radius(resolved, initial):
    """The kernel radius of a run: the configured density.r0, else
    calibrate_r0 on the run's initial grid."""
    density = resolved["density"]
    if density["r0"] is not None:
        return density["r0"]
    return calibrate_r0(initial, density["eps0"], seed=resolved["seed"])


def execute_run(resolved, out_dir: Path):
    """Run the flow for a resolved config and persist the run directory.
    Returns (result, monitor_report_or_None)."""
    model = build_model(resolved)
    grid = build_grid(resolved, model)
    cfg = FlowConfig(**resolved["flow"])
    density = resolved["density"]
    # reads only the initial grid: fail before integrating a step
    r0 = _run_radius(resolved, grid) if density["monitor"] else None
    t_start = time.perf_counter()
    result = run(grid, cfg)
    runtime = time.perf_counter() - t_start

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "config.resolved.json", resolved)
    _write_csv(
        out_dir / "series.csv",
        SERIES_HEADER,
        ([getattr(r, k) for k in SERIES_HEADER] for r in result.records),
    )
    snap_dir = out_dir / "snapshots"
    snap_dir.mkdir(exist_ok=True)
    for i, (g, t) in enumerate(result.snapshots):
        save_grid(snap_dir / f"t_{i}.json", g, t=t)

    report = None
    if density["monitor"]:
        report = monitor_regularity(result.snapshots, r0, density["eps0"])
        _write_csv(
            out_dir / "monitor.csv",
            ("t0", "x0_index", "phi", "exceeded"),
            ((r.t0, r.x0_index, r.phi, int(r.exceeded)) for r in report.rows),
        )

    lam = model.einstein_constant
    # a grid degenerate from the start leaves no record to summarize
    series = dataclasses.asdict(summarize(result.records, lam)) if result.records else None
    summary = {
        "stop_reason": result.stop_reason,
        "holomorphicity_gap": result.holomorphicity_gap,
        "max_area_rise": result.max_area_rise,
        "runtime_seconds": runtime,
        "steps": result.state.step_index,
        "t_final": result.state.t,
        "einstein_constant": lam,
        "n_records": len(result.records),
        "n_snapshots": len(result.snapshots),
        "series_summary": series,
    }
    if report is not None:
        summary["monitor"] = {
            "max_phi": report.max_phi,
            "n_exceedances": report.n_exceedances,
            "r0": report.r0,
            "eps0": report.eps0,
        }
    _write_json(out_dir / "summary.json", summary)
    return result, report


def cmd_run(path) -> int:
    out_dir = None
    try:
        doc = load_json(path)
        if isinstance(doc, dict) and isinstance(doc.get("output_dir"), str):
            out_dir = _output_dir(doc)
        resolved = resolve_run_config(doc)
        out_dir = _output_dir(resolved)
        result, _ = execute_run(resolved, out_dir)
    except KflowError as exc:
        kind = type(exc).__name__
        # best effort: leave an error record in the intended output directory
        if out_dir is not None:
            with contextlib.suppress(OSError):
                out_dir.mkdir(parents=True, exist_ok=True)
                _write_json(out_dir / "error.json", {"error": kind, "message": str(exc)})
        print(f"{'config error' if kind == 'ConfigError' else 'run failed'}: {exc}", file=sys.stderr)
        # the monitor's calibration meets a degenerate initial grid first
        return 3 if isinstance(exc, DegenerateImmersionError) else 1
    code = _EXIT_BY_STOP[result.stop_reason]
    if code:
        _write_json(
            out_dir / "error.json",
            {"error": "stop-reason", "message": result.stop_reason},
        )
    print(f"{result.stop_reason}: t = {result.state.t:.6g} after {result.state.step_index} steps")
    return code


def cmd_verify(level) -> int:
    from .verify import run_battery

    results = run_battery(level)
    width = max(len(name) for name, _, _ in results)
    all_ok = True
    for name, ok, detail in results:
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    print(f"{'all checks passed' if all_ok else 'FAILURES present'}")
    return 0 if all_ok else 1


def cmd_sweep(path) -> int:
    try:
        spec = resolve_sweep_spec(load_json(path))
    except ConfigError as exc:
        print(f"sweep spec error: {exc}", file=sys.stderr)
        return 1
    base = spec["base"]
    out_root = _output_dir(base)
    out_root.mkdir(parents=True, exist_ok=True)
    rows = []
    any_converged = False
    for delta in spec["deltas"]:
        resolved = json.loads(json.dumps(base))
        resolved["surface"]["params"]["delta"] = delta
        resolved["density"]["monitor"] = True
        resolved["density"]["eps0"] = spec["eps0"]
        run_dir = out_root / f"delta_{delta:g}"
        resolved["output_dir"] = str(run_dir)
        row = {"delta": delta}
        try:
            result, report = execute_run(resolved, run_dir)
            rec0 = result.records[0]
            row.update(
                C0=rec0.V,
                converged=result.stop_reason == "converged",
                stop_reason=result.stop_reason,
                gap=result.holomorphicity_gap,
                min_cos_alpha=min(r.min_cos_alpha for r in result.records),
                supA_max=max(r.supA for r in result.records),
                max_phi=report.max_phi if report else None,
                n_exceedances=report.n_exceedances if report else None,
                r0=report.r0 if report else None,
            )
            any_converged |= row["converged"]
        except KflowError as exc:
            row.update(stop_reason=f"error:{type(exc).__name__}", converged=False)
        rows.append(row)

    cols = (
        "delta", "C0", "converged", "stop_reason", "gap", "min_cos_alpha",
        "supA_max", "max_phi", "n_exceedances", "r0",
    )
    _write_csv(out_root / "sweep_summary.csv", cols, ([row.get(c) for c in cols] for row in rows))
    good = [r["delta"] for r in rows if r.get("converged") and not r.get("n_exceedances")]
    if good:
        print(f"largest amplitude converged without density exceedance: {max(good):g}")
    for row in rows:
        print(row)
    return 0 if any_converged else 1


def _read_queries(qdoc, model):
    """DensityQuery per row of a --queries document; a bad row is a
    ConfigError that names its index."""
    if not isinstance(qdoc, list):
        raise ConfigError("queries must be a JSON list of {x0, chart, t0, r}")
    queries = []
    for i, q in enumerate(qdoc):
        try:
            if not isinstance(q, dict) or set(q) - {"x0", "chart", "t0", "r"}:
                raise ValueError(f"a row is a JSON object with keys x0, chart, t0, r, not {q!r}")
            chart = q.get("chart", 0)
            check_kind("chart", chart, 0)
            queries.append(make_query(model, ChartPoint(chart, q["x0"]), q["t0"], q["r"]))
        except KeyError as exc:
            raise ConfigError(f"query row {i}: missing key {exc}") from exc
        except (ConfigError, TypeError, ValueError) as exc:
            raise ConfigError(f"query row {i}: {exc}") from exc
    return queries


def cmd_density(run_dir, queries_path=None) -> int:
    run_dir = Path(run_dir)
    snap_dir = run_dir / "snapshots"
    snaps = sorted(snap_dir.glob("t_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    if not snaps:
        print(f"no snapshots in {run_dir}", file=sys.stderr)
        return 1
    try:
        resolved = load_json(run_dir / "config.resolved.json")
        model = build_model(resolved)
        queries = None if queries_path is None else _read_queries(load_json(queries_path), model)
        states = []
        for p in snaps:
            try:
                g, t = load_grid(p, model=model)
                states.append((g, float(t)))
            except (OSError, KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"unreadable snapshot {p}: {type(exc).__name__}: {exc}") from exc
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    rows = []
    failed = "calibration"
    try:
        if queries_path is None:
            # the first snapshot is the initial grid, its floats round-tripped exactly
            r0 = _run_radius(resolved, states[0][0])
            failed = "density monitor"
            report = monitor_regularity(states, r0, resolved["density"]["eps0"])
            rows = [(r.x0_index, r.t0, r0, r.t0 - r0 * r0, r.phi) for r in report.rows]
        else:
            failed = "density query"
            for i, q in enumerate(queries):
                usable = [(g, t) for g, t in states if t <= q.t0 - q.r * q.r]
                if not usable:
                    rows.append((i, q.t0, q.r, None, "not-computable"))
                    continue
                g, t = usable[-1]
                rows.append((i, q.t0, q.r, t, parabolic_density(g, t, q)))
    except KflowError as exc:
        print(f"{failed} failed: {exc}", file=sys.stderr)
        return 1
    _write_csv(run_dir / "density_report.csv", ("x0_index", "t0", "r", "t_used", "phi"), rows)
    print(f"wrote {len(rows)} density rows to {run_dir / 'density_report.csv'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kflow",
        description="Mean curvature flow of surfaces in Kähler-Einstein 4-manifolds: "
        "runs, verification batteries, perturbation sweeps, density reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a flow run from a JSON config")
    p_run.add_argument("config", help="path to run config JSON")
    p_ver = sub.add_parser("verify", help="run the identity battery")
    p_ver.add_argument("--level", choices=("quick", "full"), default="quick")
    p_swp = sub.add_parser("sweep", help="perturbation-amplitude sweep")
    p_swp.add_argument("spec", help="path to sweep spec JSON")
    p_den = sub.add_parser("density", help="density report for an existing run directory")
    p_den.add_argument("run_dir")
    p_den.add_argument("--queries", default=None, help="JSON list of {x0, chart, t0, r}")
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "verify":
        return cmd_verify(args.level)
    if args.command == "sweep":
        return cmd_sweep(args.spec)
    return cmd_density(args.run_dir, args.queries)


if __name__ == "__main__":
    sys.exit(main())
