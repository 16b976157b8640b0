"""Diagnostics tests: integral functionals against closed forms, decay and
bound checks on synthetic series, and the pointwise evolution residual."""

import numpy as np
import pytest

from kflow.ambient import get_model
from kflow.diagnostics import (
    DiagnosticsRecord,
    check_angle_decay,
    check_l1_bound,
    check_l2_unit_intervals,
    check_symplectic_area,
    evolution_residual,
    record,
    summarize,
)
from kflow.flow import FlowConfig, FlowState, step
from kflow.immersion import compute_geometry
from kflow.surfaces import build_surface

C2 = get_model("flat-C2")
CP2 = get_model("Fubini-Study-CP2")


def _tilted_plane(theta, nu=16, nv=16):
    return build_surface(
        "plane",
        C2,
        a_dir=(1.0, 0.0, 0.0, 0.0),
        b_dir=(0.0, np.cos(theta), 0.0, np.sin(theta)),
        nu=nu,
        nv=nv,
    )


def _synthetic(ts, V, L2H=None, cum=None, area=1.0, symp=1.0):
    out = []
    for i, t in enumerate(ts):
        out.append(
            DiagnosticsRecord(
                t=float(t),
                area=area,
                symp_area=symp,
                min_cos_alpha=0.9,
                V=float(V[i]),
                L2H=0.0 if L2H is None else float(L2H[i]),
                supA=1.0,
                cumL1H=0.0 if cum is None else float(cum[i]),
                l1H=0.0,
            )
        )
    return out


class TestRecord:
    def test_tilted_plane_closed_forms(self):
        theta = 0.7
        rec = record(_tilted_plane(theta), t=0.0)
        # unit-area plane at constant angle: everything is a closed form
        assert rec.area == pytest.approx(1.0, abs=1e-12)
        assert rec.symp_area == pytest.approx(np.cos(theta), abs=1e-11)
        assert rec.min_cos_alpha == pytest.approx(np.cos(theta), abs=1e-11)
        assert rec.V == pytest.approx(np.sin(theta) ** 2 / np.cos(theta), abs=1e-10)
        assert rec.L2H < 1e-18 and rec.supA < 1e-9

    def test_lagrangian_plane_V_undefined(self):
        rec = record(_tilted_plane(np.pi / 2), t=0.0)
        assert np.isnan(rec.V)
        assert check_symplectic_area([rec, rec]) is None

    def test_round_sphere_scalars(self):
        grid = build_surface("round-sphere", C2, radius=0.5, nu=32, nv=16)
        rec = record(grid, t=0.0)
        assert rec.area == pytest.approx(np.pi, rel=1e-5)
        assert abs(rec.symp_area) < 1e-10  # Lagrangian-balanced by symmetry
        assert rec.supA == pytest.approx(np.sqrt(2) / 0.5, abs=1e-4)
        assert rec.L2H == pytest.approx((2 / 0.5) ** 2 * np.pi, rel=1e-5)

    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.1])
    def test_perturbed_cp1_symplectic_area_is_pi(self, delta):
        """Symplectic area is cohomological: pi for every degree-1 curve,
        perturbed or not.  The defect falls at order 5 or more."""
        defects = [
            abs(record(build_surface("perturbed-cp1", CP2, delta=delta, nu=nu, nv=nu // 2), t=0.0).symp_area - np.pi)
            for nu in (32, 64, 128)
        ]
        assert min(np.log2(np.divide(defects[:-1], defects[1:]))) >= 5, defects

    def test_V_keeps_its_precision_near_holomorphic(self):
        """V = int sin^2(a)/cos(a) is O(delta^2) on perturbed-cp1; formed from
        sin^2(a) directly, V/delta^2 does not lose digits as delta shrinks."""
        ratios = []
        for delta in (1e-4, 1e-6):
            grid = build_surface("perturbed-cp1", CP2, delta=delta, nu=32, nv=16)
            ratios.append(record(grid, t=0.0).V / delta**2)
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-8)

    def test_cumulative_l1_trapezoid(self):
        grid = build_surface("round-sphere", C2, radius=0.5, nu=16, nv=8)
        r0 = record(grid, t=0.0)
        r1 = record(grid, t=0.25, prev=r0)
        # static surface: the trapezoid is exact, cum = dt * int |H| dmu
        want = 0.25 * (2 / 0.5) * r0.area
        assert r0.cumL1H == 0.0
        assert r1.cumL1H == pytest.approx(want, rel=1e-3)


class TestSeriesChecks:
    def test_angle_decay_accepts_exact_exponential(self):
        ts = np.linspace(0, 1, 40)
        series = _synthetic(ts, V=0.01 * np.exp(-6.0 * ts))
        rate, ok = check_angle_decay(series, R=6.0)
        assert ok
        assert rate == pytest.approx(6.0, rel=1e-6)

    def test_angle_decay_rejects_slow_decay(self):
        ts = np.linspace(0, 1, 40)
        series = _synthetic(ts, V=0.01 * np.exp(-2.0 * ts))
        _, ok = check_angle_decay(series, R=6.0)
        assert not ok

    def test_angle_decay_floor_series_has_no_rate(self):
        series = _synthetic([0.0, 0.1, 0.2], V=[0.0, 0.0, 0.0])
        rate, ok = check_angle_decay(series, R=6.0)
        assert rate is None and ok

    def test_l2_windows_accept_consistent_series(self):
        ts = np.linspace(0, 2, 200)
        C0, R = 0.01, 6.0
        series = _synthetic(ts, V=C0 * np.exp(-R * ts), L2H=R * C0 * np.exp(-R * ts))
        assert check_l2_unit_intervals(series, R=R)

    def test_l2_windows_reject_large_windows(self):
        ts = np.linspace(0, 2, 200)
        series = _synthetic(ts, V=0.01 * np.exp(-6.0 * ts), L2H=np.full_like(ts, 1.0))
        assert not check_l2_unit_intervals(series, R=6.0)

    def test_l1_bound_values(self):
        ts = [0.0, 1.0]
        series = _synthetic(ts, V=[0.04, 0.001], cum=[0.0, 0.1], area=2.0)
        bound, ok = check_l1_bound(series, R=6.0)
        want = np.sqrt(0.04 * 2.0) / (1 - np.exp(-3.0))
        assert bound == pytest.approx(want)
        assert ok

    def test_l1_bound_degenerate_for_nonpositive_R(self):
        series = _synthetic([0.0, 1.0], V=[0.04, 0.001])
        assert check_l1_bound(series, R=0.0) == (None, None)

    def test_symplectic_drift(self):
        series = _synthetic([0.0, 1.0], V=[0.0, 0.0])
        object.__setattr__(series[1], "symp_area", 1.0 + 5e-5)
        assert check_symplectic_area(series) == pytest.approx(5e-5)

    def test_summarize_collects_everything(self):
        ts = np.linspace(0, 1, 50)
        C0, R = 0.01, 6.0
        series = _synthetic(
            ts,
            V=C0 * np.exp(-R * ts),
            L2H=R * C0 * np.exp(-R * ts),
            cum=0.001 * ts,
        )
        s = summarize(series, R=R)
        assert s.C0 == pytest.approx(C0)
        assert s.decay_bound_ok and s.l1_bound_ok and s.l2_unit_interval_ok
        assert s.fitted_decay_rate == pytest.approx(R, rel=1e-6)


class TestEvolutionResidual:
    def test_stationary_holomorphic_plane_residual_vanishes(self):
        grid = _tilted_plane(0.0)
        states = [(grid, 0.0), (grid, 0.01), (grid, 0.02)]
        _, mx, l2 = evolution_residual(*states)
        assert mx < 1e-9 and l2 < 1e-9

    def test_nonincreasing_times_rejected(self):
        grid = _tilted_plane(0.0)
        with pytest.raises(ValueError):
            evolution_residual((grid, 0.0), (grid, 0.0), (grid, 0.01))

    @staticmethod
    def _two_steps(nu, nv):
        """Residual of perturbed cp1 after two flow steps."""
        grid = build_surface("perturbed-cp1", CP2, delta=0.05, nu=nu, nv=nv)
        cfg = FlowConfig(t_end=1.0)
        s0 = FlowState(grid=grid.copy(), t=0.0, step_index=0)
        s1 = step(s0, cfg)
        s2 = step(s1, cfg)
        return evolution_residual((s0.grid, s0.t), (s1.grid, s1.t), (s2.grid, s2.t))

    def test_flow_snapshots_give_small_residual(self):
        _, mx, _ = self._two_steps(32, 16)
        assert np.isfinite(mx)
        assert mx < 0.1  # discretization level at this coarse grid

    def test_polar_rows_read_like_the_interior(self):
        """The three latitude rows next to each pole are differenced across
        it; their residual stays within 5x of the interior's."""
        res = np.abs(self._two_steps(64, 32)[0])
        polar = max(res[:, :3].max(), res[:, -3:].max())
        assert polar <= 5 * res[:, 3:-3].max()

