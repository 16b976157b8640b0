"""Parabolic density of the flow and the regularity monitor built on it.

The density of a surface state at a query (X0, t0, r) is

    Phi = int_Sigma phi(|F|) * (1 / (4 pi tau)) exp(-|F|^2 / (4 tau)) dmu,

with tau = t0 - t, |F| the geodesic distance from X0 (Euclidean in flat
models), and phi a C^2 quintic cutoff supported in the ball of radius 2r.
Closeness of Phi to 1 certifies a curvature bound (epsilon-regularity);
the monitor samples Phi along a run and reports every exceedance of the
configured threshold 1 + eps0.

calibrate_r0 finds the largest kernel radius whose initial density stays
below 1 + eps0/2 over surface nodes and random near-surface points.

Both calibrate_r0 and the monitor evaluate their density sums over row
blocks of query centres of bounded size (about 2^18 kernel entries), so
their memory grows linearly in the number of grid nodes, not as
queries x nodes.

density_derivative_check verifies the identity (flat ambients only, fixed
kernel scale tau = r^2)

    dPhi/dt = int grad(phi).H rho
            - int (phi / (8 pi r^4)) exp(-|F|^2/(4 r^2)) <F - X0, H>
            - int phi rho |H|^2

against a central time difference across three consecutive snapshots.
In a curved ambient this identity picks up O(curvature * r^2) corrections,
so the check refuses curved models rather than test a guessed formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambient import AmbientModel, ChartPoint
from .errors import CalibrationError, CurvedModelError
from .immersion import (
    SurfaceGrid,
    compute_mean_curvature,
    integrate_scalar,
    quadrature_weights,
)


@dataclass(frozen=True)
class DensityQuery:
    x0: ChartPoint
    t0: float
    r: float


def make_query(model: AmbientModel, x0: ChartPoint, t0: float, r: float) -> DensityQuery:
    t0, r = float(t0), float(r)
    if x0.x.shape != (4,) or x0.chart_id not in range(model.n_charts):
        raise ValueError(f"x0 must be four coordinates in one of charts 0-{model.n_charts - 1}")
    if not r > 0:
        raise ValueError("kernel radius must be positive")
    if not 2 * r < model.injectivity_radius_bound:
        raise ValueError(
            f"2r = {2 * r:.4f} must stay below the injectivity bound "
            f"{model.injectivity_radius_bound:.4f}"
        )
    return DensityQuery(x0=x0, t0=t0, r=r)


def cutoff(s, r):
    """C^2 cutoff: 1 on [0, r], 0 beyond 2r, quintic smoothstep between.
    The derivative is bounded by (15/8)/r.  The quintic is evaluated only
    on the transition band; NaN distances give NaN."""
    s = np.asarray(s, dtype=float)
    w = np.atleast_1d((s - r) / r)
    inside = w <= 0.0
    phi = inside.astype(float)
    band = ~(inside | (w >= 1.0))  # 0 < w < 1, and NaN
    wb = w[band]
    phi[band] = 1.0 - (10.0 * wb**3 - 15.0 * wb**4 + 6.0 * wb**5)
    return phi.reshape(s.shape)


def _kernel(d, r, tau):
    """phi(d) exp(-d^2 / (4 tau)) / (4 pi tau): the backward heat kernel of
    scale tau with the cutoff of radius r (none when r is None)."""
    phi = 1.0 if r is None else cutoff(d, r)  # first: fewer arrays live at once
    return phi * np.exp(-(d**2) / (4.0 * tau)) / (4.0 * np.pi * tau)


def _distance_matrix(model: AmbientModel, xs, cs, grid: SurfaceGrid):
    """Distances from each center (xs[k], cs[k]) to every grid node,
    shape (len(xs), nu * nv)."""
    return model.distance(
        xs[:, None, :],
        np.asarray(cs)[:, None],
        grid.coords.reshape(1, -1, 4),
        grid.chart_ids.reshape(1, -1),
    )


# kernel entries per row block of the density sums
_BLOCK_ENTRIES = 1 << 18
_N_OFFSURFACE = 100  # random calibration centres near the surface
_MAX_QUERIES_PER_SNAPSHOT = 500  # monitor centres per snapshot


def _densities(grid: SurfaceGrid, xs, cs, w, r, tau):
    """Kernel quadrature sum_j K(d(center_k, node_j)) w[j] for each center
    (xs[k], cs[k]), in blocks of about _BLOCK_ENTRIES kernel entries, so no
    (len(xs), nodes) array is formed.  Blocks are a multiple of 16 rows, so
    a gemv that works through rows in groups (as OpenBLAS does) sums every
    row exactly as in one whole-matrix product."""
    rows = max(16, _BLOCK_ENTRIES // w.size // 16 * 16)
    out = np.empty(len(xs))
    for i in range(0, len(xs), rows):
        d = _distance_matrix(grid.model, xs[i : i + rows], cs[i : i + rows], grid)
        out[i : i + rows] = _kernel(d, r, tau) @ w
    return out


def parabolic_density(grid: SurfaceGrid, t: float, query: DensityQuery) -> float:
    """Quadrature of phi * backward-heat-kernel over the surface state."""
    tau = query.t0 - t
    if tau <= 0:
        raise ValueError(f"query time t0 = {query.t0} must exceed state time t = {t}")
    d = grid.model.distance(grid.coords, grid.chart_ids, query.x0.x, query.x0.chart_id)
    return float(integrate_scalar(grid, _kernel(d, query.r, tau)))


def calibrate_r0(grid: SurfaceGrid, eps0: float, seed: int = 0) -> float:
    """Largest kernel radius r0 (bisection) such that the density of the
    initial surface at t0 = r0^2 stays <= 1 + eps0/2 over every surface
    node and `_N_OFFSURFACE` random ambient points within r0 of the surface.

    Raises CalibrationError when no radius above the resolution floor 4h
    qualifies (grid too coarse for the requested eps0)."""
    model = grid.model
    stage1 = compute_mean_curvature(grid)
    floor = 4.0 * float(max(stage1.hu.max(), stage1.hv.max()))
    area = integrate_scalar(grid, np.ones(grid.chart_ids.shape), stage1)
    r_max = min(model.injectivity_radius_bound / 2.0, float(np.sqrt(area)))
    if r_max <= floor:
        raise CalibrationError(
            f"admissible radius range ({floor:.4f}, {r_max:.4f}) is empty"
        )
    rng = np.random.default_rng(seed)
    flat_idx = rng.integers(0, grid.nu * grid.nv, size=_N_OFFSURFACE)
    dirs = rng.normal(size=(_N_OFFSURFACE, 4))
    fracs = rng.uniform(0.0, 1.0, size=_N_OFFSURFACE)

    w = quadrature_weights(grid, stage1).reshape(-1)
    all_x = grid.coords.reshape(-1, 4)
    all_c = grid.chart_ids.reshape(-1)
    base_x = all_x[flat_idx]
    base_c = all_c[flat_idx]
    unit = dirs / model.norm(base_x, dirs)[:, None]

    def max_density(r):
        tau = r * r
        best = _densities(grid, all_x, all_c, w, r, tau).max()
        # random ambient centers within r of the surface
        off_x, off_c = model.exp(base_x, base_c, unit * (fracs * r)[:, None])
        return max(best, _densities(grid, off_x, off_c, w, r, tau).max())

    ok = lambda r: max_density(r) <= 1.0 + eps0 / 2.0
    if not ok(floor):
        raise CalibrationError(
            f"density exceeds 1 + eps0/2 already at the resolution floor {floor:.4f}"
        )
    if ok(r_max):
        return r_max
    lo, hi = floor, r_max
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-3 * floor:
            break
    return lo


@dataclass(frozen=True)
class MonitorRow:
    t0: float
    x0_index: int
    phi: float
    exceeded: bool


@dataclass(frozen=True)
class MonitorReport:
    rows: list[MonitorRow]
    max_phi: float
    n_exceedances: int
    r0: float
    eps0: float


def monitor_regularity(snapshots, r0: float, eps0: float) -> MonitorReport:
    """Sample the density along a run's snapshots.

    Each snapshot (grid, t) is probed with kernel scale tau = r0^2 at
    t0 = t + r0^2; centers X0 are the snapshot's own nodes, subsampled to
    at most `_MAX_QUERIES_PER_SNAPSHOT`."""
    rows = []
    for grid, t in snapshots:
        n = grid.nu * grid.nv
        stride = max(1, int(np.ceil(n / _MAX_QUERIES_PER_SNAPSHOT)))
        idx = np.arange(0, n, stride)
        t0 = t + r0 * r0
        w = quadrature_weights(grid).reshape(-1)
        xs = grid.coords.reshape(-1, 4)[idx]
        cs = grid.chart_ids.reshape(-1)[idx]
        phis = _densities(grid, xs, cs, w, r0, r0 * r0)
        for flat, phi in zip(idx, phis):
            rows.append(
                MonitorRow(
                    t0=t0,
                    x0_index=int(flat),
                    phi=float(phi),
                    exceeded=bool(phi > 1.0 + eps0),
                )
            )
    max_phi = max((r.phi for r in rows), default=0.0)
    return MonitorReport(
        rows=rows,
        max_phi=max_phi,
        n_exceedances=sum(r.exceeded for r in rows),
        r0=r0,
        eps0=eps0,
    )


def write_monitor(path, report: MonitorReport):
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t0", "x0_index", "phi", "exceeded"])
        for r in report.rows:
            w.writerow([repr(r.t0), r.x0_index, repr(r.phi), int(r.exceeded)])


def density_derivative_check(prev, mid, nxt, query: DensityQuery):
    """Discrepancy between the time difference of Phi (fixed kernel scale
    tau = r^2) and the three-term flow identity, at the middle of three
    consecutive snapshots.  Flat ambient models only."""
    (gp, tp), (gm, tm), (gn, tn) = prev, mid, nxt
    model = gm.model
    if not model.is_flat:
        raise CurvedModelError(
            "the density derivative identity is exact only in flat ambients"
        )
    r = query.r
    tau = r * r
    dp, dm, dn = (
        model.distance(g.coords, g.chart_ids, query.x0.x, query.x0.chart_id)
        for g in (gp, gm, gn)
    )
    stage1 = compute_mean_curvature(gm)
    kernel = _kernel(dm, r, tau)
    h1, h2 = tm - tp, tn - tm
    dphi_dt = (
        -h2 / (h1 * (h1 + h2)) * integrate_scalar(gp, _kernel(dp, r, tau))
        + (h2 - h1) / (h1 * h2) * integrate_scalar(gm, kernel, stage1)
        + h1 / (h2 * (h1 + h2)) * integrate_scalar(gn, _kernel(dn, r, tau))
    )
    H = stage1.H
    rel = gm.coords - query.x0.x  # position relative to X0 (flat chart)
    if hasattr(model, "min_image"):
        rel = model.min_image(rel)
    FH = np.einsum("...a,...a->...", rel, H)
    H2 = np.einsum("...a,...a->...", H, H)
    # grad(phi) . H = phi'(|F|) <F - X0, H> / |F|
    w = np.clip((dm - r) / r, 0.0, 1.0)
    dphi = -(30.0 * w**2 - 60.0 * w**3 + 30.0 * w**4) / r
    with np.errstate(invalid="ignore", divide="ignore"):
        grad_term = np.where(dm > 0, dphi * FH / np.where(dm > 0, dm, 1.0), 0.0)
    # phi exp(-|F|^2 / (4 tau)) / (8 pi tau^2) = kernel / (2 tau)
    rhs = (
        integrate_scalar(gm, grad_term * _kernel(dm, None, tau), stage1)
        - integrate_scalar(gm, kernel / (2.0 * tau) * FH, stage1)
        - integrate_scalar(gm, kernel * H2, stage1)
    )
    return float(dphi_dt - rhs)
