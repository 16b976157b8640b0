"""Time-stepping tests: exact stationary data, the shrinking-sphere law,
stopping reasons, determinism, and the stage 1 geometry shared by records
and RK stages."""

import dataclasses

import numpy as np
import pytest

from kflow.ambient import get_model, to_complex
from kflow.density import calibrate_r0, monitor_regularity
from kflow.errors import ConfigError
from kflow.flow import FlowConfig, FlowState, resolved_spacing, run, step
from kflow.immersion import compute_mean_curvature
from kflow.surfaces import build_surface

C2 = get_model("flat-C2")
T4 = get_model("flat-T4")
CP2 = get_model("Fubini-Study-CP2")


def test_flow_config_validation():
    with pytest.raises(ConfigError):
        FlowConfig(t_end=-1.0)
    with pytest.raises(ConfigError):
        FlowConfig(t_end=1.0, cfl_factor=0.9)
    with pytest.raises(ConfigError):
        FlowConfig(t_end=1.0, snapshot_stride=0)
    # a tolerance the run can never meet, a threshold every state exceeds
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="converged_H_tol"):
            FlowConfig(t_end=1.0, converged_H_tol=bad)
    for bad in (-5.0, 0.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="blowup_threshold"):
            FlowConfig(t_end=1.0, blowup_threshold=bad)
    FlowConfig(t_end=1.0, converged_H_tol=0.0, blowup_threshold=1e6)


def test_holomorphic_plane_is_stationary():
    grid = build_surface("plane", C2, nu=16, nv=16)
    vel = compute_mean_curvature(grid).H
    assert np.abs(vel).max() < 1e-10
    result = run(grid, FlowConfig(t_end=0.01, converged_H_tol=1e-6))
    assert result.stop_reason == "converged"
    assert np.abs(result.state.grid.coords - grid.coords).max() < 1e-8


def test_shrinking_sphere_radius_law():
    """dR/dt = -2/R, so R(t)^2 = R0^2 - 4t."""
    grid = build_surface("round-sphere", C2, radius=1.0, nu=32, nv=16)
    t_end = 0.05
    result = run(grid, FlowConfig(t_end=t_end))
    assert result.stop_reason == "reached-t-end"
    radius = np.linalg.norm(result.state.grid.coords, axis=-1)
    want = np.sqrt(1.0 - 4 * t_end)
    assert np.abs(radius - want).max() < 1e-5


def test_area_decreases_monotonically():
    grid = build_surface("torus-graph", T4, amplitude=0.25, nu=32, nv=32)
    result = run(grid, FlowConfig(t_end=0.05, diagnostics_stride=5))
    areas = [r.area for r in result.records]
    assert len(areas) >= 3
    assert all(a2 < a1 + 1e-12 for a1, a2 in zip(areas, areas[1:]))


def test_graph_torus_converges_to_flat():
    grid = build_surface("torus-graph", T4, amplitude=0.05, nu=32, nv=32)
    # the graph modes decay like e^{-t}; |H| ~ 0.05 e^{-t} needs t ~ ln 5000
    result = run(grid, FlowConfig(t_end=12.0, converged_H_tol=1e-5))
    assert result.stop_reason == "converged"
    # the limit is the totally geodesic torus x3 = const, x4 = const
    for axis in (2, 3):
        assert np.ptp(result.state.grid.coords[..., axis]) < 1e-4


def test_torus_graph_flow_does_not_depend_on_the_lattice():
    """The torus graph closes by 2pi e1 and 2pi e2 on every lattice that
    contains them, so its flow cannot see the periods, even where three
    grid cells span more than half a period (2pi/3 at 10x10)."""
    results = [
        run(
            build_surface("torus-graph", get_model("flat-T4", periods=[p] * 4), nu=10, nv=10),
            FlowConfig(t_end=0.3),
        )
        for p in (2 * np.pi, np.pi, 2 * np.pi / 3)
    ]
    first = results[0]
    assert first.stop_reason == "reached-t-end"
    for other in results[1:]:
        assert other.stop_reason == first.stop_reason
        assert other.state.step_index == first.state.step_index
        assert other.records == first.records
    with pytest.raises(ValueError, match="do not close"):
        build_surface("torus-graph", get_model("flat-T4", periods=[3.0] * 4))


def _isometric_image(grid, matrix, shift):
    """The grid mapped by x -> matrix x + shift."""
    image = grid.copy()
    image.coords = grid.coords @ matrix.T + shift
    if grid.period_offsets is not None:
        image.period_offsets = grid.period_offsets @ matrix.T
    return image


def _assert_same_flows(grid, image):
    """A grid and its image under an isometry of the model that preserves J
    flow with the same step count and the same records, field by field up
    to rounding, with NaN equal to NaN."""
    cfg = FlowConfig(t_end=0.03, diagnostics_stride=5)
    a, b = run(grid, cfg), run(image, cfg)
    assert (a.stop_reason, a.state.step_index) == (b.stop_reason, b.state.step_index)
    assert len(a.records) == len(b.records) > 1
    for ra, rb in zip(a.records, b.records):
        for f in dataclasses.fields(ra):
            va, vb = getattr(ra, f.name), getattr(rb, f.name)
            np.testing.assert_allclose(vb, va, rtol=1e-11, atol=1e-11, equal_nan=True, err_msg=f.name)


def _random_u2(seed):
    """A random unitary map of C2 as a real 4x4 matrix on (x1, y1, x2, y2)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    images = [q @ to_complex(e) for e in np.eye(4)]
    return np.array([np.stack([z.real, z.imag], axis=-1).ravel() for z in images]).T


@pytest.mark.parametrize("translate", [False, True], ids=["linear", "affine"])
@pytest.mark.parametrize("seed", range(3))
def test_flat_c2_flow_commutes_with_unitary_maps(seed, translate):
    """A stretched sphere flows, calibrates its kernel radius and reads its
    node densities the same as its image under a random U(2) map and a
    translation of up to 5 per coordinate.  At r = 0.1 the densities agree
    to 3.2e-14 relative; measuring the flat density lift from the origin
    rather than from the nodes' mean puts 6.5e-13 to 9.5e-13 between them."""
    grid = build_surface("round-sphere", C2, nu=32, nv=16)
    grid.coords *= [1.0, 1.3, 0.8, 1.1]
    shift = np.random.default_rng(10 + seed).uniform(-5.0, 5.0, 4) if translate else np.zeros(4)
    image = _isometric_image(grid, _random_u2(seed), shift)
    _assert_same_flows(grid, image)
    assert calibrate_r0(image, 0.1) == pytest.approx(calibrate_r0(grid, 0.1), rel=1e-12)
    phi, phi_image = (
        np.array([row.phi for row in monitor_regularity([(g, 0.0)], 0.1, 0.1).rows]) for g in (grid, image)
    )
    assert np.abs(phi_image - phi).max() <= 1.5e-13 * phi.max()


@pytest.mark.parametrize("shift", [(1.0, 2.0, 0.5, 3.0), (2 * np.pi, 0.0, 0.0, 0.0)], ids=["generic", "lattice"])
def test_flat_t4_flow_commutes_with_translations(shift):
    grid = build_surface("torus-graph", T4, nu=32, nv=32)
    _assert_same_flows(grid, _isometric_image(grid, np.eye(4), np.array(shift)))


def test_step_recharts_nodes_past_the_transition_radius():
    """A cp1 grid whose chart-0 nodes reach past the transition radius
    leaves one step with every node in its pivot chart (max|z| <= 1)."""
    grid = build_surface("perturbed-cp1", CP2, delta=0.05, nu=32, nv=16)
    in0 = CP2.to_chart(grid.coords, grid.chart_ids, 0)
    move = np.max(np.abs(to_complex(in0)), axis=-1) <= 1.1 * CP2.transition_radius
    grid.coords[move], grid.chart_ids[move] = in0[move], 0
    assert np.max(np.abs(to_complex(grid.coords))) > CP2.transition_radius
    new = step(FlowState(grid=grid), FlowConfig(t_end=1.0)).grid
    assert np.max(np.abs(to_complex(new.coords))) <= 1.0 + 1e-12
    assert np.any(new.chart_ids != grid.chart_ids)
    assert set(np.unique(new.chart_ids)) == {0, 1}


def test_blowup_flag_near_sphere_extinction():
    grid = build_surface("round-sphere", C2, radius=0.3, nu=32, nv=16)
    # extinction at t = R0^2/4 = 0.0225; push t_end past it
    result = run(grid, FlowConfig(t_end=0.03, diagnostics_stride=1, blowup_threshold=50.0))
    assert result.stop_reason == "blowup-flag"
    assert result.records[-1].supA > 50.0


def test_degenerate_grid_stop():
    grid = build_surface(
        "plane", C2, a_dir=(1.0, 0, 0, 0), b_dir=(1.0, 1e-9, 0, 0), nu=8, nv=8
    )
    result = run(grid, FlowConfig(t_end=0.01))
    assert result.stop_reason == "degenerate-grid"


def test_run_is_deterministic():
    grid = build_surface("perturbed-cp1", CP2, delta=0.05, nu=16, nv=8)
    r1 = run(grid, FlowConfig(t_end=0.01))
    r2 = run(grid, FlowConfig(t_end=0.01))
    assert np.array_equal(r1.state.grid.coords, r2.state.grid.coords)
    assert r1.state.step_index == r2.state.step_index


def test_run_does_not_mutate_input_grid():
    grid = build_surface("round-sphere", C2, radius=1.0, nu=16, nv=8)
    before = grid.coords.copy()
    run(grid, FlowConfig(t_end=0.01))
    assert np.array_equal(grid.coords, before)


def test_single_step_first_order_consistency():
    """One RK4 step moves each node by dt*H + O(dt^2)."""
    grid = build_surface("round-sphere", C2, radius=1.0, nu=32, nv=16)
    cfg = FlowConfig(t_end=1.0)
    vel = compute_mean_curvature(grid)
    dt = cfg.cfl_factor * resolved_spacing(grid, vel) ** 2
    nxt = step(FlowState(grid=grid.copy(), t=0.0, step_index=0), cfg)
    disp = nxt.grid.coords - grid.coords
    assert nxt.t == pytest.approx(dt)
    assert np.abs(disp - dt * vel.H).max() < 5 * dt**2


def test_snapshot_and_diagnostics_strides():
    grid = build_surface("round-sphere", C2, radius=1.0, nu=16, nv=8)
    cfg = FlowConfig(t_end=0.02, snapshot_stride=10, diagnostics_stride=4)
    result = run(grid, cfg)
    steps = result.state.step_index
    assert len(result.snapshots) == steps // 10 + 2  # initial + strided + final
    assert len(result.records) >= steps // 4
    ts = [t for _, t in result.snapshots]
    assert ts == sorted(ts)
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(result.state.t)


@pytest.mark.parametrize(
    "surface, model, params, cfg, stop",
    [
        # converges at t ~ 0.378, between two strided snapshots
        ("perturbed-cp1", CP2, dict(delta=0.05), dict(t_end=1.0, converged_H_tol=1e-3), "converged"),
        # extinction at t = R0^2/4 = 0.0225, before the first strided snapshot
        ("round-sphere", C2, dict(radius=0.3), dict(t_end=0.03, blowup_threshold=50.0), "blowup-flag"),
    ],
    ids=["converged", "blowup-flag"],
)
def test_run_ends_on_a_snapshot_of_its_final_state(surface, model, params, cfg, stop):
    grid = build_surface(surface, model, nu=16, nv=8, **params)
    result = run(grid, FlowConfig(**cfg))
    assert result.stop_reason == stop
    last, t = result.snapshots[-1]
    assert t == result.state.t > 0.0
    assert np.array_equal(last.coords, result.state.grid.coords)
    assert result.records[-1].t == t


def test_records_are_time_ordered_with_final_state():
    grid = build_surface("torus-graph", T4, amplitude=0.1, nu=16, nv=16)
    result = run(grid, FlowConfig(t_end=0.01, diagnostics_stride=3))
    ts = [r.t for r in result.records]
    assert ts == sorted(set(ts))
    assert ts[0] == 0.0
    assert ts[-1] == pytest.approx(result.state.t)


def test_sphere_flow_no_polar_artifacts():
    """Polar rows stay on the shrinking round sphere despite the much finer
    azimuthal spacing there (the zonal filter works on velocities only)."""
    grid = build_surface("round-sphere", C2, radius=1.0, nu=64, nv=32)
    result = run(grid, FlowConfig(t_end=0.1))
    radius = np.linalg.norm(result.state.grid.coords, axis=-1)
    polar_rows = np.r_[radius[:, 0], radius[:, -1]]
    want = np.sqrt(1.0 - 0.4)
    assert np.abs(polar_rows - want).max() < 1e-6


def test_run_differentiates_each_recorded_state_once(monkeypatch):
    """The end-of-run check reuses the geometry of a final state that the
    loop already recorded."""
    import kflow.flow as flow

    calls = []
    real = flow.compute_geometry

    def counting(grid, stage1=None):
        calls.append(grid)
        return real(grid, stage1)

    monkeypatch.setattr(flow, "compute_geometry", counting)
    grid = build_surface("round-sphere", C2, radius=1.0, nu=16, nv=8)
    result = run(grid, FlowConfig(t_end=0.01, diagnostics_stride=4))
    assert result.stop_reason == "reached-t-end"
    assert len(calls) == len(result.records)
    final = real(result.state.grid)
    assert result.holomorphicity_gap == float(np.max(np.abs(1.0 - final.cos_alpha)))


def test_run_evaluates_partials_once_per_rk_stage(monkeypatch):
    """A recorded state's stage 1 geometry is the first RK stage of the next
    step, so a run to t_end differentiates the grid four times per step plus
    once for the initial record."""
    import kflow.immersion as immersion

    calls = []
    real = immersion.grid_partials

    def counting(grid):
        calls.append(grid)
        return real(grid)

    monkeypatch.setattr(immersion, "grid_partials", counting)
    grid = build_surface("round-sphere", C2, radius=1.0, nu=32, nv=16)
    result = run(grid, FlowConfig(t_end=0.05, diagnostics_stride=3))
    assert result.stop_reason == "reached-t-end"
    steps = result.state.step_index
    assert steps > 6 and len(result.records) > 3  # records mid-run, not only at the ends
    assert len(calls) == 4 * steps + 1
