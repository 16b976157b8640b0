"""Mean curvature flow time stepping.

Nodes move by dF/dt = H with Ketcheson's ten-stage fourth-order SSPRK(10,4)
(SIAM J. Sci. Comput. 30 (2008), 2113-2136) in chart coordinates, and the
model re-charts them after each step (`AmbientModel.recharted`).  The step
size is CFL_FACTOR * h_res^2, h_res being the resolved grid spacing
recomputed from the induced metric each step.

Each stage evaluates stage 1 of the immersion geometry
(`compute_mean_curvature`: induced metric, spacings and H).  `run` records
the initial state, every diagnostics_stride-th state and the state it stops
at, and snapshots the same states by snapshot_stride.  A record's stage 2
(`compute_geometry`) is built on the state's stage 1, which is also the
first stage of the step leaving the state: no state is differentiated
twice.

On sphere grids the azimuthal spacing collapses like sin(v) toward the
poles, so a literal min-spacing step size would shrink quadratically in the
resolution for no accuracy gain (the polar rows oversample the surface in
u).  Instead h_res uses the *equatorial* row spacing, and a zonal FFT
filter removes, per latitude row, the azimuthal modes whose explicit-step
amplification factor would exceed the stability bound at that step size.
The filter acts on the velocity field only (never on node positions) and
touches only modes that are unresolved at the polar radius.  A row whose
nodes lie in several charts is filtered in the one chart that holds the
whole row farthest inside it, so a CP² surface and its isometric images
flow alike, up to truncation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import DiagnosticsRecord, record
from .errors import ConfigError, DegenerateImmersionError, check_kind
from .immersion import MeanCurvature, SurfaceGrid, compute_geometry, compute_mean_curvature, d2_symbol

# dt = CFL_FACTOR * h_res^2; not a setting.  0.8 times the 2-D D2 symbol
# (12.09) is 70 % of _REAL_LIMIT.  At 1.0 (87 %) a perturbed-cp1 64x32 run
# reaches sup|A| 3.98 and never converges.  On a 32x32 T⁴ torus graph run to
# t = 0.5, 0.8 to 1.2 end with sup|A| 0.171, 1.5 with 6.52 after 920 steps,
# and 2.0 flags blow-up on a surface that converges to flat.
CFL_FACTOR = 0.8
# Largest real |z| with |R(z)| <= 1 for SSPRK(10,4).
_REAL_LIMIT = 13.917
# Fraction of the stability budget the zonal filter allows a kept mode.
_FILTER_SAFETY = 0.75


@dataclass(frozen=True)
class FlowConfig:
    """A run config's `flow` section: its keys, defaults and checks."""

    t_end: float
    snapshot_stride: int = 50
    diagnostics_stride: int = 10
    blowup_threshold: float | None = None  # default: 1e3 / initial length scale
    converged_H_tol: float = 1e-4

    def __post_init__(self):
        # config._merge gives a run config's values their defaults' kinds
        if self.blowup_threshold is not None:
            check_kind("blowup_threshold", self.blowup_threshold, 0.0)
        if not self.t_end > 0:
            raise ConfigError("t_end must be positive")
        if self.snapshot_stride < 1 or self.diagnostics_stride < 1:
            raise ConfigError("strides must be >= 1")
        # a NaN or negative tolerance never converges; a threshold <= 0 flags t = 0
        if not 0.0 <= self.converged_H_tol < np.inf:
            raise ConfigError("converged_H_tol must be finite and >= 0")
        if self.blowup_threshold is not None and not 0.0 < self.blowup_threshold < np.inf:
            raise ConfigError("blowup_threshold must be finite and positive")


@dataclass
class FlowState:
    grid: SurfaceGrid
    t: float = 0.0
    step_index: int = 0


@dataclass(frozen=True)
class FlowResult:
    records: list[DiagnosticsRecord]
    snapshots: list[tuple[SurfaceGrid, float]]
    stop_reason: str  # reached-t-end | converged | blowup-flag | degenerate-grid
    state: FlowState
    holomorphicity_gap: float | None = None


def resolved_spacing(grid: SurfaceGrid, vel: MeanCurvature) -> float:
    """Spacing used for the step size.

    Torus: global minimum spacing.  Sphere: min of the v-spacing and the
    *widest* row's minimum u-spacing (polar rows are handled by the zonal
    filter instead of the step size).
    """
    hu, hv = vel.hu, vel.hv
    if grid.topology == "torus":
        return float(min(hu.min(), hv.min()))
    return float(min(hv.min(), hu.min(axis=0).max()))


def _zonal_filter(grid: SurfaceGrid, vel: MeanCurvature, dt: float):
    """Stability treatment of the stiff azimuthal modes on sphere grids.

    Returns (keep_mask, rate, rows), or three Nones where every mode is kept:
    - keep_mask: boolean (nu//2 + 1, nv) rfft-mode mask for the velocity;
      modes whose frozen-row diffusion rate would exceed the explicit
      stability budget at this dt are dropped from the explicit update.
    - rate: the frozen-row diffusion rate estimate for every mode, `d2_symbol`
      times the row's largest g^uu / du^2 (used by the exponential step for
      the dropped modes).
    - rows: (indices, charts) of the filtered rows whose nodes lie in more
      than one chart and the one chart each of them is filtered in
      (`FubiniStudyCP2.common_chart`), or None without such rows.
    """
    if grid.topology != "sphere":
        return None, None, None
    nu = grid.nu
    a_row = vel.inv[0].max(axis=0) / grid.du**2  # stiffest u-coefficient
    c_row = vel.inv[2].max(axis=0) / grid.dv**2 * d2_symbol(np.pi)
    k = np.arange(nu // 2 + 1)
    budget = _FILTER_SAFETY * _REAL_LIMIT / dt
    rate = a_row[None, :] * d2_symbol(k * grid.du)[:, None]
    keep = rate + c_row[None, :] <= budget
    if keep.all():
        return None, None, None
    mixed = (grid.chart_ids != grid.chart_ids[:1]).any(axis=0) & ~keep.all(axis=0)
    if not mixed.any():
        return keep, rate, None
    cols = np.flatnonzero(mixed)
    return keep, rate, (cols, grid.model.common_chart(grid.coords[:, cols], grid.chart_ids[:, cols]))


def _row_charts(grid, x, v, rows, back=False):
    """v, the listed rows' vectors at the nodes x taken from each node's
    chart into the row's chart (back: the reverse)."""
    if rows is None:
        return v
    cols, row_chart = rows
    model, charts, xr = grid.model, grid.chart_ids[:, cols], x[:, cols]
    if back:
        xr, charts, row_chart = model.to_chart(xr, charts, row_chart), row_chart, charts
    v = v.copy()
    v[:, cols] = model.tangent_to_chart(xr, v[:, cols], charts, row_chart)
    return v


def _filtered(grid, x, v, mask, rows):
    """The velocity v at the nodes x without the rfft modes the mask drops,
    and its rfft along u in the row charts (None without a mask), which the
    exponential step reuses."""
    if mask is None:
        return v, None
    vf = np.fft.rfft(_row_charts(grid, x, v, rows), axis=0)
    v = np.fft.irfft(vf * mask[:, :, None], n=v.shape[0], axis=0)
    return _row_charts(grid, x, v, rows, back=True), vf


def _exponential_mode_step(grid, coords, vf, mask, rate, rows, dt):
    """Exponential-Euler update of coords for the velocity modes dropped by
    the mask; vf is the rfft along u of grid's velocity in the row charts.

    The dropped azimuthal modes are too stiff for the explicit stages at
    this dt; freezing them would leave any initial polar displacement (and
    its k^2/r^2-amplified curvature) stuck forever.  Instead they advance
    by delta_k += dt * phi1(-rate_k dt) * (H)_k with phi1(z) = (e^z - 1)/z:
    exact for the frozen linear diffusion d(delta_k)/dt = -rate_k delta_k,
    unconditionally stable since the symbol-based rate overestimates the
    true per-mode rate, and sharing the fixed point H = 0 with the flow."""
    if mask is None:
        return
    dropped = ~mask
    z = rate[dropped] * dt
    phi1 = np.where(z > 1e-12, -np.expm1(-z) / np.maximum(z, 1e-300), 1.0)
    upd = np.zeros_like(vf)
    upd[dropped] = (dt * phi1)[:, None] * vf[dropped]
    upd = np.fft.irfft(upd, n=coords.shape[0], axis=0)
    coords += _row_charts(grid, grid.coords, upd, rows, back=True)


def step(state: FlowState, config: FlowConfig, vel: MeanCurvature | None = None) -> FlowState:
    """One SSPRK(10,4) step of dF/dt = H, in Ketcheson's two-register form.
    `vel` optionally reuses the stage 1 geometry of state.grid, already
    computed, for the first stage."""
    grid = state.grid
    if vel is None:
        vel = compute_mean_curvature(grid)
    dt = min(CFL_FACTOR * resolved_spacing(grid, vel) ** 2, config.t_end - state.t)
    mask, rate, rows = _zonal_filter(grid, vel, dt)
    stage = grid.copy()

    def velocity(x):
        stage.coords = x
        return _filtered(grid, x, compute_mean_curvature(stage).H, mask, rows)[0]

    k1, vf = _filtered(grid, grid.coords, vel.H, mask, rows)
    q1 = grid.coords + dt / 6 * k1
    for _ in range(4):
        q1 += dt / 6 * velocity(q1)
    q2 = grid.coords / 25 + 9 / 25 * q1
    q1 = 15 * q2 - 5 * q1
    for _ in range(4):
        q1 += dt / 6 * velocity(q1)
    stage.coords = q2 + 3 / 5 * q1 + dt / 10 * velocity(q1)
    _exponential_mode_step(grid, stage.coords, vf, mask, rate, rows, dt)
    stage.coords, stage.chart_ids = grid.model.recharted(stage.coords, stage.chart_ids)
    return FlowState(grid=stage, t=state.t + dt, step_index=state.step_index + 1)


def run(initial: SurfaceGrid, config: FlowConfig) -> FlowResult:
    """Advance the flow until it reaches t_end, converges (max|H| below
    converged_H_tol), is flagged (sup|A| above the blow-up threshold) or
    degenerates.  The run ends on a record and a snapshot of the state it
    stopped at, unless that state's geometry raised DegenerateImmersionError."""
    state = FlowState(grid=initial.copy())
    snapshots = [(state.grid.copy(), state.t)]
    records = []
    threshold = config.blowup_threshold
    stop = None
    try:
        vel = compute_mean_curvature(state.grid)
        while True:
            if state.t >= config.t_end - 1e-15:
                stop = "reached-t-end"
            elif float(np.sqrt(vel.H_norm_sq.max())) < config.converged_H_tol:
                stop = "converged"
            if stop or state.step_index % config.diagnostics_stride == 0:
                geom = compute_geometry(state.grid, vel)
                rec = record(state.grid, state.t, geom=geom, prev=records[-1] if records else None)
                records.append(rec)
                if threshold is None:
                    threshold = 1e3 / np.sqrt(rec.area)
                if not np.isfinite(rec.area):
                    stop = "degenerate-grid"
                elif rec.supA > threshold:
                    stop = "blowup-flag"
            if state.step_index and (stop or state.step_index % config.snapshot_stride == 0):
                snapshots.append((state.grid.copy(), state.t))
            if stop:
                break
            state = step(state, config, vel)
            vel = None  # held while the next stage 1 is built, it raises peak memory
            vel = compute_mean_curvature(state.grid)
    except DegenerateImmersionError:
        stop = "degenerate-grid"
    # a run that converged or reached t_end ends on a record of its final state
    gap = 1.0 - records[-1].min_cos_alpha if stop in ("converged", "reached-t-end") else None
    return FlowResult(records, snapshots, stop, state, holomorphicity_gap=gap)
