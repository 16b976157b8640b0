"""The battery's checks fail on models and surfaces that break what they
check: each ambient check runs the model's own contractions, so a fault in
`connection` or `inner` must show in the line named after it."""

import dataclasses

import pytest

from kflow.ambient import FlatC2, FubiniStudyCP2, apply_J, get_model
from kflow.immersion import compute_geometry
from kflow.surfaces import perturbed_cp1
from kflow.verify import (
    check_complex_structure,
    check_einstein,
    check_exp_log_roundtrip,
    check_metric_compatibility,
    check_parallel_J,
    check_symplectic_degree,
)

AMBIENT_CHECKS = (check_complex_structure, check_parallel_J, check_metric_compatibility, check_einstein)


@pytest.mark.parametrize("name", ["flat-C2", "flat-T4", "Fubini-Study-CP2"])
def test_ambient_checks_pass_on_the_shipped_models(name):
    model = get_model(name)
    results = [check(model) for check in AMBIENT_CHECKS]
    assert all(ok for _, ok, _ in results), results
    for _, _, detail in results[2:]:
        if model.is_flat:
            assert detail.endswith("(exact)")
        else:  # the 4th-order differences converge at their design order
            assert float(detail.rsplit("order ", 1)[1]) >= 3.5


class _DroppedTerm(FubiniStudyCP2):
    """Gamma without its (Jx.w) Ju term."""

    def connection(self, x, u, w):
        xu, jxu, xw, _, d = self._hermitian(x, u, w)
        out = xw[..., None] * u + xu[..., None] * w + jxu[..., None] * apply_J(w)
        return -out / d[..., None]


class _FlippedSign(FubiniStudyCP2):
    """-Gamma: still J-linear and symmetric, but not the metric's connection."""

    def connection(self, x, u, w):
        return -super().connection(x, u, w)


def test_dropped_connection_term_fails_parallel_J_and_compatibility():
    model = _DroppedTerm()
    assert not check_parallel_J(model)[1]
    assert not check_metric_compatibility(model)[1]
    assert not check_einstein(model)[1]
    assert check_complex_structure(model)[1]


class _WrongScalarCurvature(FubiniStudyCP2):
    """The Fubini-Study contractions with a stored scalar curvature of 23.6
    (lambda 5.9 in place of 6)."""

    scalar_curvature = 23.6


def test_wrong_scalar_curvature_fails_einstein_only():
    """The residual Ric - lambda g stays at 0.1 g as the step halves."""
    model = _WrongScalarCurvature()
    assert model.einstein_constant == 5.9
    name, ok, detail = check_einstein(model)
    assert not ok and float(detail.rsplit("order ", 1)[1]) < 0.1
    assert all(check(model)[1] for check in AMBIENT_CHECKS[:3] + (check_exp_log_roundtrip,))


def test_flipped_connection_fails_metric_compatibility():
    model = _FlippedSign()
    assert check_parallel_J(model)[1]
    assert not check_metric_compatibility(model)[1]


class _StretchedC2(FlatC2):
    """A constant metric with x1 stretched: flat, with Gamma = 0 its
    Levi-Civita connection, but not J-invariant."""

    def inner(self, x, u, w):
        return super().inner(x, u, w) + u[..., 0] * w[..., 0]


class _SkewedCP2(FubiniStudyCP2):
    """The Fubini-Study metric plus a term that J does not preserve."""

    def inner(self, x, u, w):
        return super().inner(x, u, w) + 0.1 * u[..., 0] * w[..., 0]


@pytest.mark.parametrize("cls", [_StretchedC2, _SkewedCP2])
def test_inner_without_J_invariance_fails_compatibility(cls):
    model = cls()
    assert not check_complex_structure(model)[1]
    if model.is_flat:  # the other two checks see a flat Kähler connection
        assert check_parallel_J(model)[1] and check_metric_compatibility(model)[1]


def test_symplectic_degree_fails_off_degree_one():
    cp2 = get_model("Fubini-Study-CP2")
    grid = perturbed_cp1(cp2, delta=0.05, nu=32, nv=16)
    geom = compute_geometry(grid)
    assert check_symplectic_degree(grid, geom)[1]
    off = dataclasses.replace(geom, cos_alpha=1.01 * geom.cos_alpha)
    assert not check_symplectic_degree(grid, off)[1]
