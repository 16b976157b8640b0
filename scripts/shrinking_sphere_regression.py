#!/usr/bin/env python3
"""Exact-solution regression: flat-space shrinking sphere.

The round sphere of radius r0 evolves by dr/dt = -2/r, so
r(t) = sqrt(r0^2 - 4t).  Runs the flow on a 128x64 grid until the radius
reaches ~0.3 and reports the maximum relative radius error, the runtime
and the mean time per step (the acceptance test bounds the default run at
60 s).

Usage: python3 scripts/shrinking_sphere_regression.py [--nu 128] [--nv 64]
"""

import argparse
import time

import numpy as np

from kflow import FlowConfig, build_surface, get_model, run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nu", type=int, default=128)
    ap.add_argument("--nv", type=int, default=64)
    ap.add_argument("--r0", type=float, default=1.0)
    ap.add_argument("--r-stop", type=float, default=0.3)
    args = ap.parse_args()

    t_end = (args.r0**2 - args.r_stop**2) / 4.0
    grid = build_surface(
        "round-sphere", get_model("flat-C2"), radius=args.r0, nu=args.nu, nv=args.nv
    )
    t0 = time.perf_counter()
    result = run(grid, FlowConfig(t_end=t_end))
    runtime = time.perf_counter() - t0

    radius = np.linalg.norm(result.state.grid.coords, axis=-1)
    want = np.sqrt(args.r0**2 - 4 * result.state.t)
    rel = np.abs(radius - want).max() / want
    print(f"stop reason        : {result.stop_reason}")
    print(f"steps              : {result.state.step_index}")
    print(f"runtime            : {runtime:.1f} s")
    print(f"mean per step      : {1e3 * runtime / max(result.state.step_index, 1):.1f} ms")
    print(f"final radius       : {radius.mean():.6f} (exact {want:.6f})")
    print(f"max rel radius err : {rel:.3e}")
    areas = [r.area for r in result.records]
    print(f"area monotone      : {all(b < a for a, b in zip(areas, areas[1:]))}")


if __name__ == "__main__":
    main()
