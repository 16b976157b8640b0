#!/usr/bin/env python3
"""Per-layer timings of the geometry and the stepper on the benchmark's grids.

For a flat 128x64 round sphere, the shipped 64x32 perturbed degree-1
curve in CP² (delta 0.05, frequency 2, two charts) and a 32x32 torus graph
in the flat 4-torus, prints the best and the median of N wall times of one
call of each layer:

  stage 1      compute_mean_curvature, with H read
  stage 2      compute_geometry on a stage 1 already computed
  geometry     compute_geometry from the grid alone
  record       one diagnostics record on a computed geometry
  RK4 step     one flow.step from the grid (four stage-1 evaluations)
  quadrature   quadrature_weights from the grid alone

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
from kflow.diagnostics import record  # noqa: E402
from kflow.flow import FlowConfig, FlowState, step  # noqa: E402
from kflow.immersion import compute_geometry, compute_mean_curvature, quadrature_weights  # noqa: E402


def grids():
    yield "flat sphere 128x64", build_surface("round-sphere", get_model("flat-C2"), nu=128, nv=64)
    cp2 = get_model("Fubini-Study-CP2")
    yield "CP2 cp1 64x32", build_surface("perturbed-cp1", cp2, delta=0.05, frequency=2, nu=64, nv=32)
    yield "T4 graph 32x32", build_surface("torus-graph", get_model("flat-T4"), nu=32, nv=32)


def layers(grid):
    stage1 = compute_mean_curvature(grid)
    stage1.H  # read, as the stepper does before a record is due
    geom = compute_geometry(grid, stage1)
    config = FlowConfig(t_end=1.0)
    return [
        ("stage 1", lambda: compute_mean_curvature(grid).H),
        ("stage 2", lambda: compute_geometry(grid, stage1)),
        ("geometry", lambda: compute_geometry(grid)),
        ("record", lambda: record(grid, 0.0, geom=geom)),
        ("RK4 step", lambda: step(FlowState(grid=grid), config)),
        ("quadrature", lambda: quadrature_weights(grid)),
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=30, help="calls timed per layer (default 30)")
    args = ap.parse_args()
    print(f"{'grid':<20} {'layer':<11} {'best ms':>9} {'median ms':>10}")
    for name, grid in grids():
        for layer, fn in layers(grid):
            fn()  # warm-up
            times = timeit.repeat(fn, number=1, repeat=args.repeat)
            print(f"{name:<20} {layer:<11} {1e3 * min(times):9.3f} {1e3 * statistics.median(times):10.3f}")


if __name__ == "__main__":
    main()
