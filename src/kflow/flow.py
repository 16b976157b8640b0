"""Mean curvature flow time stepping.

Nodes move by dF/dt = H with classical 4th-order Runge-Kutta in chart
coordinates, and the model re-charts them after each step
(`AmbientModel.recharted`).  The step size is cfl_factor * h_res^2, h_res
being the resolved grid spacing recomputed from the induced metric each step.

Each RK stage evaluates stage 1 of the immersion geometry
(`compute_mean_curvature`: induced metric, spacings and H).  `run` records
the initial state, every diagnostics_stride-th state and the state it stops
at, and snapshots the same states by snapshot_stride.  A record's stage 2
(`compute_geometry`) is built on the state's stage 1, which is also the
first RK stage of the step leaving the state: no state is differentiated
twice.

On sphere grids the azimuthal spacing collapses like sin(v) toward the
poles, so a literal min-spacing step size would shrink quadratically in the
resolution for no accuracy gain (the polar rows oversample the surface in
u).  Instead h_res uses the *equatorial* row spacing, and a zonal FFT
filter removes, per latitude row, the azimuthal modes whose explicit-step
amplification factor would exceed the Runge-Kutta stability bound at that
step size.  The filter acts on the velocity field only (never on node
positions), touches only modes that are unresolved at the polar radius, and
is skipped for rows whose nodes span several charts (those sit away from
the poles, inside the stable band).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import DiagnosticsRecord, record
from .errors import ConfigError, DegenerateImmersionError, check_kind
from .immersion import MeanCurvature, SurfaceGrid, compute_geometry, compute_mean_curvature, d2_symbol

# Largest |z| (real-axis) with |R(z)| <= 1 for classical RK4.
_RK4_REAL_LIMIT = 2.785
# Fraction of the stability budget the zonal filter allows a kept mode.
_FILTER_SAFETY = 0.75


@dataclass(frozen=True)
class FlowConfig:
    """A run config's `flow` section: its keys, defaults and checks."""

    t_end: float
    cfl_factor: float = 0.2
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
        if not 0.0 < self.cfl_factor <= 0.5:
            raise ConfigError("cfl_factor must lie in (0, 0.5]")
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

    Returns (keep_mask, rate):
    - keep_mask: boolean (nu//2 + 1, nv) rfft-mode mask for the velocity;
      modes whose frozen-row diffusion rate would exceed the explicit RK4
      stability budget at this dt are dropped from the explicit update.
    - rate: the frozen-row diffusion rate estimate for every mode, `d2_symbol`
      times the row's largest g^uu / du^2 (used by the exponential step for
      the dropped modes), or None with mask None.

    Rows spanning several charts sit in the stable band and are skipped.
    """
    if grid.topology != "sphere":
        return None, None
    nu = grid.nu
    a_row = vel.inv[0].max(axis=0) / grid.du**2  # stiffest u-coefficient
    c_row = vel.inv[2].max(axis=0) / grid.dv**2 * d2_symbol(np.pi)
    k = np.arange(nu // 2 + 1)
    budget = _FILTER_SAFETY * _RK4_REAL_LIMIT / dt
    rate = a_row[None, :] * d2_symbol(k * grid.du)[:, None]
    keep = rate + c_row[None, :] <= budget
    mixed = (grid.chart_ids != grid.chart_ids[:1]).any(axis=0)
    keep[:, mixed] = True
    if keep.all():
        return None, None
    return keep, rate


def _apply_mask(vel, mask):
    """vel without the rfft modes the mask drops, and vel's rfft along u
    (None without a mask), which the exponential step reuses."""
    if mask is None:
        return vel, None
    vf = np.fft.rfft(vel, axis=0)
    return np.fft.irfft(vf * mask[:, :, None], n=vel.shape[0], axis=0), vf


def _exponential_mode_step(coords, vf, mask, rate, dt):
    """Exponential-Euler update for the velocity modes dropped by the mask;
    vf is the velocity's rfft along u.

    The dropped azimuthal modes are too stiff for the explicit RK4 stage at
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
    coords += np.fft.irfft(upd, n=coords.shape[0], axis=0)


def step(state: FlowState, config: FlowConfig, vel: MeanCurvature | None = None) -> FlowState:
    """One RK4 step of dF/dt = H.  `vel` optionally reuses the stage 1
    geometry of state.grid, already computed, for the first RK stage."""
    grid = state.grid
    if vel is None:
        vel = compute_mean_curvature(grid)
    h_res = resolved_spacing(grid, vel)
    dt = config.cfl_factor * h_res**2
    dt = min(dt, config.t_end - state.t)
    mask, rate = _zonal_filter(grid, vel, dt)

    k1, vf = _apply_mask(vel.H, mask)

    def stage(displacement):
        g = grid.copy()
        g.coords += displacement
        return _apply_mask(compute_mean_curvature(g).H, mask)[0]

    k2 = stage(0.5 * dt * k1)
    k3 = stage(0.5 * dt * k2)
    k4 = stage(dt * k3)
    new = grid.copy()
    new.coords += dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    _exponential_mode_step(new.coords, vf, mask, rate, dt)
    new.coords, new.chart_ids = grid.model.recharted(new.coords, new.chart_ids)
    return FlowState(grid=new, t=state.t + dt, step_index=state.step_index + 1)


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
