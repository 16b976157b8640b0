#!/usr/bin/env python3
"""Per-layer timings of the geometry, the stepper and the density on the
benchmark's grids.

For a flat 128x64 round sphere, the shipped 64x32 perturbed degree-1
curve in CP² (delta 0.05, frequency 2, two charts) and a 32x32 torus graph
in the flat 4-torus, prints the best and the median of N wall times of one
call of each layer:

  stage 1      compute_mean_curvature, with H read
  stage 2      compute_geometry on a stage 1 already computed
  geometry     compute_geometry from the grid alone
  record       one diagnostics record on a computed geometry
  step         one SSPRK(10,4) flow.step from the grid (ten stage-1
               evaluations)
  quadrature   quadrature_weights from the grid alone

and, on the unit sphere at 80x40 (the density-reanalysis grid) and the
64x32 perturbed curve (the cp1-flow grid), at eps0 = 0.1:

  calibrate_r0      one calibrate_r0 of the grid
  monitor snapshot  one monitor_regularity call on the grid as one snapshot

kflow is imported from the src/ directory next to this script, so a copy of
the script in another checkout times that checkout.  One BLAS thread.

Usage: python3 scripts/layer_timings.py [--repeat N]
"""

import argparse
import os
import statistics
import sys
import timeit
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kflow import build_surface, get_model  # noqa: E402
from kflow.density import calibrate_r0, monitor_regularity  # noqa: E402
from kflow.diagnostics import record  # noqa: E402
from kflow.flow import FlowConfig, FlowState, step  # noqa: E402
from kflow.immersion import compute_geometry, compute_mean_curvature, quadrature_weights  # noqa: E402


def grids():
    """(name, grid, layers) triples, geometry first."""
    flat = get_model("flat-C2")
    cp1 = build_surface("perturbed-cp1", get_model("Fubini-Study-CP2"), delta=0.05, frequency=2, nu=64, nv=32)
    yield "flat sphere 128x64", build_surface("round-sphere", flat, nu=128, nv=64), geometry_layers
    yield "CP2 cp1 64x32", cp1, geometry_layers
    yield "T4 graph 32x32", build_surface("torus-graph", get_model("flat-T4"), nu=32, nv=32), geometry_layers
    yield "flat sphere 80x40", build_surface("round-sphere", flat, nu=80, nv=40), density_layers
    yield "CP2 cp1 64x32", cp1, density_layers


def geometry_layers(grid):
    stage1 = compute_mean_curvature(grid)
    stage1.H  # read, as the stepper does before a record is due
    geom = compute_geometry(grid, stage1)
    config = FlowConfig(t_end=1.0)
    return [
        ("stage 1", lambda: compute_mean_curvature(grid).H),
        ("stage 2", lambda: compute_geometry(grid, stage1)),
        ("geometry", lambda: compute_geometry(grid)),
        ("record", lambda: record(grid, 0.0, geom=geom)),
        ("step", lambda: step(FlowState(grid=grid), config)),
        ("quadrature", lambda: quadrature_weights(grid)),
    ]


def density_layers(grid):
    r0 = calibrate_r0(grid, eps0=0.1)
    return [
        ("calibrate_r0", lambda: calibrate_r0(grid, eps0=0.1)),
        ("monitor snapshot", lambda: monitor_regularity([(grid, 0.0)], r0, eps0=0.1)),
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=30, help="calls timed per layer (default 30)")
    args = ap.parse_args()
    print(f"{'grid':<20} {'layer':<16} {'best ms':>9} {'median ms':>10}")
    for name, grid, layers in grids():
        for layer, fn in layers(grid):
            fn()  # warm-up
            times = timeit.repeat(fn, number=1, repeat=args.repeat)
            print(f"{name:<20} {layer:<16} {1e3 * min(times):9.3f} {1e3 * statistics.median(times):10.3f}")


if __name__ == "__main__":
    main()
