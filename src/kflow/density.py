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

Every density sum runs through one evaluator: the grid nodes are lifted
once per call (measured from their mean, so that the flat product form
does not cancel far from the origin), each row block of query centres
(about 2^18 entries) gets its squared distances to every node from one
`AmbientModel.sq_distances` product, and the kernel is taken on d^2 in
place, with square roots on the cutoff band alone.  When the centres are
the nodes themselves (calibrate_r0's on-surface probe) the kernel is
symmetric, so the nodes are cut into tiles of _TILE_ROWS and each tile
pair i <= j is formed once: it sums into the rows of tile i and, through
its transpose, into those of tile j.  Memory grows linearly in the number
of grid nodes, not as queries x nodes.

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
from .diagnostics import three_point_weights
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


def _kernel_radius_cap(model: AmbientModel) -> float:
    """Largest admissible kernel radius: the cutoff's support, the ball of
    radius 2r, stays within the injectivity bound."""
    return model.injectivity_radius_bound / 2.0


def check_kernel_radius(model: AmbientModel, r) -> float:
    """r as a float if it is an admissible kernel radius, finite and in
    (0, b/2] for the model's injectivity bound b; ValueError otherwise."""
    r, cap = float(r), _kernel_radius_cap(model)
    if not (0.0 < r <= cap and np.isfinite(r)):
        raise ValueError(f"kernel radius r = {r:g} must be finite and lie in (0, {cap:.4f}]")
    return r


def make_query(model: AmbientModel, x0: ChartPoint, t0: float, r: float) -> DensityQuery:
    if x0.x.shape != (4,) or x0.chart_id not in range(model.n_charts):
        raise ValueError(f"x0 must be four coordinates in one of charts 0-{model.n_charts - 1}")
    return DensityQuery(x0=x0, t0=float(t0), r=check_kernel_radius(model, r))


def cutoff(s, r):
    """C^2 cutoff: 1 on [0, r], 0 beyond 2r, quintic smoothstep between.
    The derivative is bounded by (15/8)/r; NaN distances give NaN.  The
    density sums pass it the transition band alone."""
    w = np.clip((np.asarray(s, dtype=float) - r) / r, 0.0, 1.0)
    return 1.0 - (10.0 * w**3 - 15.0 * w**4 + 6.0 * w**5)


def _gaussian_in_place(d2, r, tau):
    """phi(d) exp(-d^2 / (4 tau)) (no cutoff when r is None) written over the
    squared distances d2: the masks come first, so no second float array is
    formed.  A NaN entry is in neither mask and stays NaN."""
    if r is not None:
        far = d2 >= 4.0 * r * r
        band = d2 > r * r
        band ^= far  # far lies inside d2 > r^2
        phi = cutoff(np.sqrt(d2[band]), r)
    d2 *= -0.25 / tau
    np.exp(d2, out=d2)
    if r is not None:
        d2[far] = 0.0
        d2[band] *= phi
    return d2


# kernel entries per row block of the density sums
_BLOCK_ENTRIES = 1 << 18
_TILE_ROWS = 256  # side of a node tile: 2^16 kernel entries
_N_OFFSURFACE = 100  # random calibration centres near the surface
_MAX_QUERIES_PER_SNAPSHOT = 500  # monitor centres per snapshot


def _sq_distance_blocks(grid: SurfaceGrid, xs, cs):
    """(rows, cols, block) triples: squared distances from the centres
    (xs[k], cs[k]) of slice `rows` to the grid nodes of slice `cols`.
    Given centres come in row blocks of about _BLOCK_ENTRIES against every
    node (cols from 0), a multiple of 16 rows, so a gemv that works through
    rows in groups (as OpenBLAS does) sums every row as one whole-matrix
    product.  With xs None the centres are the nodes, in node tiles
    rows <= cols of _TILE_ROWS; a node's sum is then split across tiles,
    so the whole-matrix statement holds for the row blocks only."""
    model = grid.model
    x = grid.coords.reshape(-1, 4)
    origin = x.mean(axis=0)
    nodes = model.lift(x, grid.chart_ids.reshape(-1), origin)
    if xs is None:
        b = _TILE_ROWS
        for i in range(0, len(x), b):
            tile = nodes[i : i + b]
            for j in range(i, len(x), b):
                yield slice(i, i + b), slice(j, j + b), model.sq_distances(tile, nodes[j : j + b])
        return
    rows = max(16, _BLOCK_ENTRIES // len(x) // 16 * 16)
    for i in range(0, len(xs), rows):
        lifted = model.lift(xs[i : i + rows], cs[i : i + rows], origin)
        yield slice(i, i + rows), slice(0, len(x)), model.sq_distances(lifted, nodes)


def _densities(grid: SurfaceGrid, xs, cs, w, r, tau):
    """Kernel quadrature sum_j K(d(center_k, node_j)) w[j] for each center
    (xs[k], cs[k]), block by block; xs None takes every node as a centre.
    A node tile above the diagonal (cols after rows) also sums, through its
    transpose, into the nodes of its columns."""
    out = np.zeros(len(w) if xs is None else len(xs))
    for rows, cols, d2 in _sq_distance_blocks(grid, xs, cs):
        # in place: a second name for the kernel would keep a spent block alive
        _gaussian_in_place(d2, r, tau)
        out[rows] += d2 @ w[cols]
        if cols.start > rows.start:
            out[cols] += w[rows] @ d2
    out *= 1.0 / (4.0 * np.pi * tau)
    return out


def parabolic_density(grid: SurfaceGrid, t: float, query: DensityQuery) -> float:
    """Quadrature of phi * backward-heat-kernel over the surface state."""
    tau = query.t0 - t
    if tau <= 0:
        raise ValueError(f"query time t0 = {query.t0} must exceed state time t = {t}")
    w = quadrature_weights(grid).reshape(-1)
    return float(_densities(grid, query.x0.x[None], [query.x0.chart_id], w, query.r, tau)[0])


def calibrate_r0(grid: SurfaceGrid, eps0: float, seed: int = 0) -> float:
    """Largest kernel radius r0 (bisection) such that the density of the
    initial surface at t0 = r0^2 stays <= 1 + eps0/2 over every surface
    node and `_N_OFFSURFACE` random ambient points within r0 of the surface.
    Each probe sums the node densities over node tiles, forming each
    unordered node pair's kernel once, and the random points in row blocks.

    Raises CalibrationError when no radius above the resolution floor 4h
    qualifies (grid too coarse for the requested eps0)."""
    model = grid.model
    stage1 = compute_mean_curvature(grid)
    floor = 4.0 * float(max(stage1.hu.max(), stage1.hv.max()))
    area = integrate_scalar(grid, np.ones(grid.chart_ids.shape), stage1)
    r_max = min(_kernel_radius_cap(model), float(np.sqrt(area)))
    if r_max <= floor:
        raise CalibrationError(
            f"admissible radius range ({floor:.4f}, {r_max:.4f}) is empty"
        )
    rng = np.random.default_rng(seed)
    flat_idx = rng.integers(0, grid.nu * grid.nv, size=_N_OFFSURFACE)
    dirs = rng.normal(size=(_N_OFFSURFACE, 4))
    fracs = rng.uniform(0.0, 1.0, size=_N_OFFSURFACE)

    w = quadrature_weights(grid, stage1).reshape(-1)
    base_x = grid.coords.reshape(-1, 4)[flat_idx]
    base_c = grid.chart_ids.reshape(-1)[flat_idx]
    unit = dirs / model.norm(base_x, dirs)[:, None]

    def max_density(r):
        tau = r * r
        best = _densities(grid, None, None, w, r, tau).max()
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
    wp, wm, wn = three_point_weights(tp, tm, tn)
    r = query.r
    tau = r * r
    x0, c0 = query.x0.x[None], [query.x0.chart_id]
    phi_p, phi_n = (
        _densities(g, x0, c0, quadrature_weights(g).reshape(-1), r, tau)[0] for g in (gp, gn)
    )
    stage1 = compute_mean_curvature(gm)
    w = quadrature_weights(gm, stage1).reshape(-1) / (4.0 * np.pi * tau)
    *_, d2 = next(_sq_distance_blocks(gm, x0, c0))
    dm = np.sqrt(d2[0])
    heat = _gaussian_in_place(d2[0].copy(), None, tau)
    kernel = _gaussian_in_place(d2[0], r, tau)
    dphi_dt = wp * phi_p + wm * (kernel @ w) + wn * phi_n
    H = stage1.H.reshape(-1, 4)
    rel = gm.coords.reshape(-1, 4) - query.x0.x  # position relative to X0 (flat chart)
    if hasattr(model, "min_image"):
        rel = model.min_image(rel)
    FH = np.einsum("...a,...a->...", rel, H)
    H2 = np.einsum("...a,...a->...", H, H)
    # grad(phi) . H = phi'(|F|) <F - X0, H> / |F|
    u = np.clip((dm - r) / r, 0.0, 1.0)
    dphi = -(30.0 * u**2 - 60.0 * u**3 + 30.0 * u**4) / r
    with np.errstate(invalid="ignore", divide="ignore"):
        grad_term = np.where(dm > 0, dphi * FH / np.where(dm > 0, dm, 1.0), 0.0)
    # phi exp(-|F|^2 / (4 tau)) / (8 pi tau^2) = kernel / (2 tau)
    rhs = (grad_term * heat - kernel / (2.0 * tau) * FH - kernel * H2) @ w
    return float(dphi_dt - rhs)
