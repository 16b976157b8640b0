"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection: they start benchmark processes, and the verify-quick case runs
the whole quick battery (about half a minute).

* Each oracle accepts a correct output and rejects a deliberately wrong one.
* Every workload runs end to end at the tiny size, untraced and traced.
* Without a kflow source tree the benchmark fails without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

END_TO_END = {"wall_s", "setup_s", "peak_rss_mb"}


# -- oracles --------------------------------------------------------------


def _sphere_nodes(radius, center, nu=32, nv=16):
    u = np.arange(nu) * 2 * np.pi / nu
    v = (np.arange(nv) + 0.5) * np.pi / nv
    uu, vv = np.meshgrid(u, v, indexing="ij")
    unit = np.stack([np.sin(vv) * np.cos(uu), np.sin(vv) * np.sin(uu), np.cos(vv), 0 * uu], -1)
    return np.asarray(center) + radius * unit


def test_sphere_law_rejects_radius_off_by_one_percent():
    r0, t, c = 1.1, 0.05, [0.1, -0.2, 0.3, 0.0]
    exact = oracles.shrinking_sphere_radius(r0, t)
    assert oracles.sphere_law_error(_sphere_nodes(exact, c), c, r0, t) < 1e-14
    bad = oracles.sphere_law_error(_sphere_nodes(1.01 * exact, c), c, r0, t)
    assert bad > oracles.SPHERE_LAW_RTOL


@pytest.mark.parametrize("R, r", [(1.0, 0.3), (0.6, 0.5), (0.5, 3.5)])
def test_round_sphere_density_matches_surface_quadrature(R, r):
    """The 1-D reduction against a direct integral over the sphere in the
    polar angle from the centre X0 (area element 2 pi R² sin(theta))."""
    theta = np.linspace(0.0, np.pi, 200_001)
    s = 2.0 * R * np.sin(theta / 2.0)
    tau = r * r
    kernel = oracles.cutoff(s, r) * np.exp(-s * s / (4 * tau)) / (4 * np.pi * tau)
    direct = float(np.trapezoid(kernel * 2 * np.pi * R * R * np.sin(theta), theta))
    phi = oracles.round_sphere_density(R, r)
    assert abs(phi - direct) <= oracles.DENSITY_ATOL / 100
    assert abs(phi + 1e-4 - direct) > oracles.DENSITY_ATOL


def test_fubini_study_einstein_constant_is_six():
    """Ric_{i jbar} = -d_i d_jbar log det(g_{k lbar}) for the Kähler metric
    of the potential log(1 + |z|²), by finite differences at random points.
    With g(U, V) = Re(g_{i jbar} u^i conj(v^j)) the real Einstein constant
    is 2 Ric_{i jbar} / g_{i jbar}."""

    def metric_c(x):
        z = x[0::2] + 1j * x[1::2]
        n2 = 1.0 + np.sum(np.abs(z) ** 2)
        return (np.eye(2) * n2 - np.outer(np.conj(z), z)) / n2**2

    def logdet(x):
        return np.log(np.linalg.det(metric_c(x)).real)

    def d2(f, x, a, b, h=1e-3):
        ea, eb = h * np.eye(4)[a], h * np.eye(4)[b]
        return (f(x + ea + eb) - f(x + ea - eb) - f(x - ea + eb) + f(x - ea - eb)) / (4 * h * h)

    def ddbar(f, x, i, j):
        # d_i d_jbar = (d_xi d_xj + d_yi d_yj + i (d_xi d_yj - d_yi d_xj)) / 4
        xi, yi, xj, yj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
        re = d2(f, x, xi, xj) + d2(f, x, yi, yj)
        im = d2(f, x, xi, yj) - d2(f, x, yi, xj)
        return 0.25 * (re + 1j * im)

    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.uniform(-0.8, 0.8, 4)
        ric = np.array([[-ddbar(logdet, x, i, j) for j in range(2)] for i in range(2)])
        lam = 2.0 * ric / metric_c(x)
        assert np.allclose(lam, oracles.FUBINI_STUDY_EINSTEIN, atol=1e-4)


def test_v_decay_rejects_slower_than_lambda():
    t = np.linspace(0.0, 0.5, 11)
    assert oracles.v_decay_violations(t, 0.02 * np.exp(-6.5 * t)) == 0
    assert oracles.v_decay_violations(t, 0.02 * np.exp(-5.0 * t)) > 0


def test_symplectic_drift_and_cos_alpha_and_pinching():
    area = np.full(5, np.pi)
    assert oracles.symplectic_drift(area) == 0.0
    assert oracles.symplectic_drift(area * (1 + 1e-3 * np.arange(5))) > oracles.SYMPLECTIC_DRIFT_MAX
    assert oracles.cos_alpha_decreases([0.99, 0.995, 0.995 - 1e-7, 0.999]) == 0
    assert oracles.cos_alpha_decreases([0.99, 0.995, 0.994, 0.999]) == 1
    assert oracles.pinching_gap([1.0, 0.6], [2.0, 1.0]) == 0.0
    assert oracles.pinching_gap([1.0, 0.4], [2.0, 1.0]) < -oracles.PINCHING_ATOL


# -- end to end -----------------------------------------------------------


def _bench(*args, cwd=HERE.parent):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_end_to_end_at_tiny_size(workload):
    common = ("--workload", workload, "--seed", "3", "--seconds", "1", "--size", "tiny")
    res = _result(_bench(*common, "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in res["metrics"].values())
    if workload == "verify-quick":
        return  # the traced battery adds another half minute and no coverage
    traced = _result(_bench(*common, "--trace", "1"))
    assert traced["correct"] and traced["failed"] == 0
    assert list(traced["metrics"]) == [name for name, _ in LAYER_METRICS]
    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    if workload == "cp1-flow":
        assert layers["ambient.christoffel.points"] > 0
        assert layers["density.calibrate_r0.peak_mb"] > 0
        assert layers["flow.steps"] > 0
    if workload == "sphere-flow":
        assert layers["ambient.christoffel.points"] == 0
        assert layers["immersion.save_grid.bytes"] > 0
    if workload == "density-reanalysis":
        assert layers["density.monitor_regularity.queries"] > 0
        assert layers["flow.steps"] == 0


def test_fails_without_kflow_source():
    bare = HERE.parent / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(
            "--workload", "sphere-flow", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare
        )
        assert proc.returncode != 0
        assert not proc.stdout.strip().endswith("}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
