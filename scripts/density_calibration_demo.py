#!/usr/bin/env python3
"""Gaussian density calibration and the extinction signal.

Three demonstrations on flat-space spheres:
1. calibrate_r0 on the unit sphere (smooth data: the surface-scale cap is
   the largest admissible radius), its re-verification at doubled
   resolution, and the cost of the density sums: a 128x64 flat calibration,
   a 64x32 perturbed-cp1 calibration in CP² and one monitor snapshot of it,
   each with its time and the peak resident memory (ru_maxrss) so far,
   which stays small because the density sums run in bounded row blocks
   and, for the calibration's on-surface probe, in node tiles that form
   each node pair's kernel once.
2. Phi -> 1 as the kernel scale shrinks at a fixed cutoff radius, queried
   on the surface.
3. The extinction-center signal: Phi(tau) = (R^2/tau) e^{-R^2/(4 tau)}
   peaks at 4/e ~ 1.47 > 1.1 at tau = R^2/4.

Usage: python3 scripts/density_calibration_demo.py
"""

import resource
import time

import numpy as np

from kflow import build_surface, get_model
from kflow.ambient import ChartPoint
from kflow.density import DensityQuery, calibrate_r0, monitor_regularity, parabolic_density

C2 = get_model("flat-C2")
CP2 = get_model("Fubini-Study-CP2")


def timed(label, fn):
    """fn() with its wall time and the process's peak RSS after it."""
    t0 = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"{label:<34}: {elapsed:6.3f} s, peak RSS {rss_mb:.0f} MB")
    return out


def main():
    grid = build_surface("round-sphere", C2, radius=1.0, nu=32, nv=16)
    r0 = calibrate_r0(grid, eps0=0.1)
    grid2 = build_surface("round-sphere", C2, radius=1.0, nu=64, nv=32)
    r0_fine = calibrate_r0(grid2, eps0=0.1)
    print(f"calibrated r0 (32x16)  : {r0:.6f}")
    print(f"calibrated r0 (64x32)  : {r0_fine:.6f}  (re-verified at doubled resolution)")
    big = build_surface("round-sphere", C2, radius=1.0, nu=128, nv=64)
    r0_big = timed("calibrate_r0, flat sphere 128x64", lambda: calibrate_r0(big, eps0=0.1))
    print(f"calibrated r0 (128x64) : {r0_big:.6f}")
    cp1 = build_surface("perturbed-cp1", CP2, delta=0.05, frequency=2, nu=64, nv=32)
    r0_cp1 = timed("calibrate_r0, perturbed-cp1 64x32", lambda: calibrate_r0(cp1, eps0=0.1))
    report = timed(
        "monitor, one perturbed-cp1 snapshot", lambda: monitor_regularity([(cp1, 0.0)], r0_cp1, 0.1)
    )
    print(f"calibrated r0 (cp1)    : {r0_cp1:.6f}, monitor max Phi {report.max_phi:.6f}")

    print("\nPhi(r) with fixed cutoff 0.5, kernel scale tau = r^2, on-surface query:")
    x0 = ChartPoint(0, np.array([0.0, 0.0, 1.0, 0.0]))
    fine = build_surface("round-sphere", C2, radius=1.0, nu=512, nv=256)
    for r in (0.2, 0.1, 0.05, 0.02, 0.01):
        q = DensityQuery(x0=x0, t0=r * r, r=0.5)
        phi = parabolic_density(fine, 0.0, q)
        print(f"  r = {r:5.2f}: Phi = {phi:.6f}  |Phi - 1| = {abs(phi - 1):.2e}")

    print("\nextinction-center scan, sphere radius 0.5, query at the center:")
    R = 0.5
    sph = build_surface("round-sphere", C2, radius=R, nu=64, nv=32)
    center = ChartPoint(0, np.zeros(4))
    for tau in (R**2 / 16, R**2 / 8, R**2 / 4, R**2 / 2, R**2):
        phi = parabolic_density(sph, 0.0, DensityQuery(x0=center, t0=tau, r=2 * R))
        marker = "  <-- peak 4/e" if abs(tau - R**2 / 4) < 1e-12 else ""
        print(f"  tau = {tau:7.5f}: Phi = {phi:.6f}{marker}")


if __name__ == "__main__":
    main()
