"""The benchmark's workloads: inputs made from a seed, the kflow command
each one runs, and the checks applied to that command's outputs.

Every workload is one user-facing `kflow` command.  The seed changes the
inputs (radii, centres, line coefficients) but not the amount of work.
`size="tiny"` shrinks the grids and end times so that the benchmark's own
tests can run every workload end to end in seconds; `verify-quick` has no
size of its own and always runs the whole quick battery.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

WORKLOADS = ("sphere-flow", "cp1-flow", "density-reanalysis", "verify-quick")

# Grid and run length per size.  The full sizes keep the shipped configs'
# grids (scripts/configs/run_shrinking_sphere.json, run_perturbed_cp1.json)
# and shorten t_end so that one round takes a few seconds.
SIZES = {
    "full": {
        "sphere": {"nu": 128, "nv": 64, "t_end_per_r2": 0.03},
        "cp1": {"nu": 64, "nv": 32, "t_end": 0.0074},
        "density": {"nu": 80, "nv": 40, "snapshots": 5},
    },
    "tiny": {
        "sphere": {"nu": 32, "nv": 16, "t_end_per_r2": 0.002},
        "cp1": {"nu": 32, "nv": 16, "t_end": 0.002},
        "density": {"nu": 24, "nv": 12, "snapshots": 3},
    },
}

# Spacing of the density snapshots along the shrinking law, as a fraction of
# r0²: the last of five snapshots sits at t = 0.2 r0², radius 0.45 r0.
DENSITY_DT_PER_R2 = 0.05
DENSITY_EPS0 = 0.1


@dataclass
class Workload:
    """One prepared workload: the kflow command line, the inputs the round
    process reads for its set-up, and the checks of one round's outputs."""

    argv: list[str]  # kflow command line; argv[0] is the subcommand
    inputs: dict
    # (output root, command stdout, exit code) -> [(name, passed, detail)]
    check: Callable[[Path, str, int], list]


def _seeded(seed, name):
    return random.Random(f"{name}:{seed}")


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _exit_check(code):
    return ("exit code 0", code == 0, f"exit code {code}")


def _reached_check(summary, t_end):
    return (
        "reached t_end",
        summary["stop_reason"] == "reached-t-end"
        and math.isclose(summary["t_final"], t_end, rel_tol=1e-12),
        f"{summary['stop_reason']} at t = {summary['t_final']!r} after {summary['steps']} steps",
    )


def _snapshots(run_dir):
    paths = sorted(
        (Path(run_dir) / "snapshots").glob("t_*.json"),
        key=lambda p: int(p.stem.split("_")[1]),
    )
    for p in paths:
        with open(p) as fh:
            doc = json.load(fh)
        yield p, np.asarray(doc["coords"], dtype=float), float(doc["t"])


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# -- sphere-flow ----------------------------------------------------------


def sphere_flow(seed, size, work: Path) -> Workload:
    """Shrinking round sphere in flat C² (the shipped shrinking-sphere
    config).  The seed draws the radius R in [0.85, 1.15] and the centre;
    t_end is proportional to R², so the number of steps does not change."""
    rng = _seeded(seed, "sphere-flow")
    p = SIZES[size]["sphere"]
    radius = 0.85 + 0.3 * rng.random()
    center = [rng.uniform(-0.5, 0.5) for _ in range(4)]
    t_end = p["t_end_per_r2"] * radius**2
    config = {
        "model": "flat-C2",
        "surface": {
            "family": "round-sphere",
            "params": {"radius": radius, "center": center},
            "nu": p["nu"],
            "nv": p["nv"],
        },
        "flow": {"t_end": t_end},
        "output_dir": "sphere-flow",
    }
    path = work / "sphere-flow.json"
    _write_json(path, config)

    def check(out_root, stdout, code):
        run_dir = out_root / "sphere-flow"
        checks = [_exit_check(code)]
        if code != 0:
            return checks
        summary = _read_json(run_dir / "summary.json")
        checks.append(_reached_check(summary, t_end))
        for snap, coords, t in _snapshots(run_dir):
            err = oracles.sphere_law_error(coords, center, radius, t)
            checks.append(
                (
                    f"sphere law {snap.name}",
                    err <= oracles.SPHERE_LAW_RTOL,
                    f"max relative radius error {err:.2e} at t = {t:.6g}",
                )
            )
        return checks

    return Workload(
        ["run", str(path)],
        {"config": str(path), "radius": radius, "t_end": t_end},
        check,
    )


# -- cp1-flow -------------------------------------------------------------


def cp1_flow(seed, size, work: Path, src: Path) -> Workload:
    """Perturbed degree-1 curve in Fubini–Study CP² with the density monitor
    on (the shipped perturbed-cp1 config).  The seed draws the line
    coefficients (c, d) in [-0.1, 0.1]², which tilts the curve against the
    chart boundaries; in that range every seed takes the same 21 steps."""
    rng = _seeded(seed, "cp1-flow")
    p = SIZES[size]["cp1"]
    coeffs = [rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)]
    eps0 = 0.1
    config = {
        "model": "Fubini-Study-CP2",
        "surface": {
            "family": "perturbed-cp1",
            "params": {"delta": 0.05, "frequency": 2, "line_coeffs": coeffs},
            "nu": p["nu"],
            "nv": p["nv"],
        },
        "flow": {"t_end": p["t_end"], "diagnostics_stride": 10},
        "density": {"monitor": True, "eps0": eps0},
        "seed": seed,
        "output_dir": "cp1-flow",
    }
    path = work / "cp1-flow.json"
    _write_json(path, config)

    def check(out_root, stdout, code):
        run_dir = out_root / "cp1-flow"
        checks = [_exit_check(code)]
        if code != 0:
            return checks
        summary = _read_json(run_dir / "summary.json")
        checks.append(_reached_check(summary, p["t_end"]))
        lam = summary["einstein_constant"]
        checks.append(
            (
                "Einstein constant 6",
                abs(lam - oracles.FUBINI_STUDY_EINSTEIN) <= oracles.EINSTEIN_ATOL,
                f"einstein_constant {lam!r}",
            )
        )
        series = _read_csv(run_dir / "series.csv")
        col = lambda k: [float(r[k]) for r in series]
        bad = oracles.v_decay_violations(col("t"), col("V"))
        checks.append(
            (
                "V decays at rate 6",
                bad == 0,
                f"{bad} of {len(series)} records above V(0) e^(-6t) 1.05",
            )
        )
        drift = oracles.symplectic_drift(col("symp_area"))
        checks.append(
            (
                "symplectic area constant",
                drift < oracles.SYMPLECTIC_DRIFT_MAX,
                f"relative drift {drift:.2e}",
            )
        )
        mins = col("min_cos_alpha")
        checks.append(("min cos alpha > 0", min(mins) > 0.0, f"min {min(mins):.6f}"))
        drops = oracles.cos_alpha_decreases(mins)
        checks.append(("min cos alpha nondecreasing", drops == 0, f"{drops} decreases"))
        final = list(_snapshots(run_dir))[-1][0]
        gap = _pinching_gap(src, final)
        checks.append(
            (
                "|dJ|^2 >= |H|^2/2 on the final state",
                gap > -oracles.PINCHING_ATOL,
                f"min gap {gap:.2e}",
            )
        )
        phis = [float(r["phi"]) for r in _read_csv(run_dir / "monitor.csv")]
        checks.append(
            (
                "monitor max phi <= 1 + eps0",
                bool(phis) and max(phis) <= 1.0 + eps0,
                f"max phi {max(phis, default=float('nan')):.6f} over {len(phis)} queries",
            )
        )
        return checks

    return Workload(["run", str(path)], {"config": str(path)}, check)


def _pinching_gap(src: Path, snapshot: Path) -> float:
    """|dJ|² - |H|²/2 on a snapshot, with the geometry of the kflow tree the
    benchmark is measuring (the inequality is a property of its output)."""
    import sys

    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from kflow.immersion import compute_geometry, load_grid

    grid, _ = load_grid(snapshot)
    geom = compute_geometry(grid)
    return oracles.pinching_gap(geom.nablaJ_sq, geom.H_norm_sq)


# -- density-reanalysis ---------------------------------------------------


def density_reanalysis(seed, size, work: Path) -> Workload:
    """`kflow density` on a run directory of closed-form round spheres in C²
    on the exact shrinking law.  The seed draws the initial radius R0 in
    [0.8, 1.2], the centre, and the calibration seed."""
    rng = _seeded(seed, "density-reanalysis")
    p = SIZES[size]["density"]
    nu, nv = p["nu"], p["nv"]
    r0 = 0.8 + 0.4 * rng.random()
    center = np.array([rng.uniform(-0.5, 0.5) for _ in range(4)])
    run_dir = work / "density-run"
    (run_dir / "snapshots").mkdir(parents=True)
    config = {
        "model": "flat-C2",
        "model_params": {},
        "surface": {
            "family": "round-sphere",
            "params": {"radius": r0, "center": center.tolist()},
            "nu": nu,
            "nv": nv,
        },
        "flow": {
            "t_end": DENSITY_DT_PER_R2 * (p["snapshots"] - 1) * r0**2,
            "cfl_factor": 0.2,
            "snapshot_stride": 50,
            "diagnostics_stride": 10,
            "redistribution": None,
            "blowup_threshold": None,
            "converged_H_tol": 1e-4,
        },
        "density": {"eps0": DENSITY_EPS0, "monitor": False, "r0": None},
        "seed": seed,
        "output_dir": str(run_dir),
    }
    _write_json(run_dir / "config.resolved.json", config)
    u = np.arange(nu) * (2.0 * np.pi / nu)
    v = (np.arange(nv) + 0.5) * (np.pi / nv)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    sphere = np.stack(
        [np.sin(vv) * np.cos(uu), np.sin(vv) * np.sin(uu), np.cos(vv), np.zeros_like(uu)],
        axis=-1,
    )
    radii = {}
    for i in range(p["snapshots"]):
        t = DENSITY_DT_PER_R2 * i * r0**2
        radius = oracles.shrinking_sphere_radius(r0, t)
        radii[t] = radius
        doc = {
            "format": "kflow-grid/1",
            "topology": "sphere",
            "nu": nu,
            "nv": nv,
            "model": "flat-C2",
            "chart_ids": np.zeros((nu, nv), dtype=int).tolist(),
            "coords": (center + radius * sphere).tolist(),
            "orientation": 1,
            "t": t,
        }
        with open(run_dir / "snapshots" / f"t_{i}.json", "w") as fh:
            json.dump(doc, fh)
    report = run_dir / "density_report.csv"

    def check(out_root, stdout, code):
        checks = [_exit_check(code)]
        if code != 0:
            return checks
        rows = _read_csv(report)
        report.unlink()
        answered = set()
        for row in rows:
            t = min(radii, key=lambda s: abs(s - float(row["t_used"])))
            answered.add(t)
            r = float(row["r"])
            exact = oracles.round_sphere_density(radii[t], r)
            err = abs(float(row["phi"]) - exact)
            checks.append(
                (
                    f"phi row {row['x0_index']} at t = {t:.4g}",
                    err <= oracles.DENSITY_ATOL and abs(float(row["t_used"]) - t) < 1e-9,
                    f"phi {row['phi']} vs 1-D integral {exact!r}",
                )
            )
        checks.append(
            (
                "every snapshot analysed",
                answered == set(radii),
                f"{len(answered)} of {len(radii)} snapshots in the report",
            )
        )
        return checks

    return Workload(
        ["density", str(run_dir)],
        {"run_dir": str(run_dir), "r0": r0},
        check,
    )


# -- verify-quick ---------------------------------------------------------


def verify_quick(seed, size, work: Path) -> Workload:
    """`kflow verify --level quick`; the battery has no inputs, so the seed
    is unused.  Each battery line is one operation; a FAIL line fails it."""

    def check(out_root, stdout, code):
        checks = []
        for line in stdout.splitlines():
            status, _, rest = line.partition("  ")
            if status in ("PASS", "FAIL"):
                checks.append((rest.strip(), status == "PASS", line))
        checks.append(("battery reported", bool(checks), f"{len(checks)} battery checks"))
        checks.append(_exit_check(code))
        return checks

    return Workload(["verify", "--level", "quick"], {}, check)


def prepare(name, seed, size, work: Path, src: Path) -> Workload:
    """Write the inputs of workload `name` for `seed` under `work`."""
    if name == "sphere-flow":
        return sphere_flow(seed, size, work)
    if name == "cp1-flow":
        return cp1_flow(seed, size, work, src)
    if name == "density-reanalysis":
        return density_reanalysis(seed, size, work)
    if name == "verify-quick":
        return verify_quick(seed, size, work)
    raise ValueError(f"unknown workload {name!r}; choices: {WORKLOADS}")
