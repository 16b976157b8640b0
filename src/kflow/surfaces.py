"""Initial surface families.

Each builder returns a SurfaceGrid.  Conventions:

* plane / linear surfaces live in flat C^2 as quasi-periodic torus grids
  (the grid closes up to a fixed ambient translation per parameter period);
* torus graphs live in the flat 4-torus, as lifts closed by 2pi e1, 2pi e2;
* round spheres sit in the (x1, y1, x2) slice of flat C^2;
* cp1 is a degree-1 holomorphic curve in CP^2, parametrized so that its
  Kähler angle satisfies cos(alpha) = +1;
* perturbed_cp1 adds a smooth non-holomorphic displacement of amplitude
  delta and zonal frequency m.  A graph over a fixed unit normal field is
  not usable here: the normal bundle of a line in CP^2 has Euler number 1,
  so no smooth global unit normal exists.  The perturbation is instead the
  algebraic one Z2 += delta * Z0 (Z1 conj(Z0) / |Z|^2)^m, which is smooth on
  the whole sphere and reduces to a normal graph at leading order.
"""

from __future__ import annotations

import numpy as np

from .ambient import AmbientModel, FlatC2, FlatT4, FubiniStudyCP2
from .immersion import SurfaceGrid


def _param_grid(nu, nv, topology):
    u = np.arange(nu) * (2 * np.pi / nu)
    if topology == "torus":
        v = np.arange(nv) * (2 * np.pi / nv)
    else:
        v = (np.arange(nv) + 0.5) * (np.pi / nv)
    return np.meshgrid(u, v, indexing="ij")


def plane(
    model: FlatC2,
    origin=(0.0, 0.0, 0.0, 0.0),
    a_dir=(1.0, 0.0, 0.0, 0.0),
    b_dir=(0.0, 1.0, 0.0, 0.0),
    extent=(1.0, 1.0),
    nu=32,
    nv=32,
) -> SurfaceGrid:
    """Quasi-periodic linear patch F = origin + (u/2pi) Lu A + (v/2pi) Lv B.

    With the default spans this is a holomorphic line; a_dir/b_dir choose
    Lagrangian or tilted planes.  The parameter cell is extent[0] x extent[1]
    in the chart coordinates.
    """
    origin = np.asarray(origin, dtype=float)
    a_dir = np.asarray(a_dir, dtype=float)
    b_dir = np.asarray(b_dir, dtype=float)
    uu, vv = _param_grid(nu, nv, "torus")
    su = uu / (2 * np.pi) * extent[0]
    sv = vv / (2 * np.pi) * extent[1]
    coords = origin + su[..., None] * a_dir + sv[..., None] * b_dir
    offsets = np.stack([extent[0] * a_dir, extent[1] * b_dir])
    return SurfaceGrid(
        topology="torus",
        model=model,
        chart_ids=np.zeros((nu, nv), dtype=int),
        coords=coords,
        period_offsets=offsets,
    )


def torus_graph(
    model: FlatT4, amplitude=0.2, frequencies=(1, 1), nu=32, nv=32
) -> SurfaceGrid:
    """F(u, v) = (u, v, eps sin(k1 u), eps cos(k2 v)) in the flat 4-torus, closed
    by the offsets 2pi e1, 2pi e2; SurfaceGrid raises ValueError when they are
    not lattice vectors."""
    k1, k2 = frequencies
    uu, vv = _param_grid(nu, nv, "torus")
    coords = np.stack(
        [
            uu,
            vv,
            amplitude * np.sin(k1 * uu),
            amplitude * np.cos(k2 * vv),
        ],
        axis=-1,
    )
    return SurfaceGrid(
        topology="torus",
        model=model,
        chart_ids=np.zeros((nu, nv), dtype=int),
        coords=coords,
        period_offsets=2 * np.pi * np.eye(2, 4),
    )


def round_sphere(
    model: FlatC2, radius=1.0, center=(0.0, 0.0, 0.0, 0.0), nu=64, nv=32
) -> SurfaceGrid:
    """Round sphere of the given radius in the (x1, y1, x2) slice."""
    center = np.asarray(center, dtype=float)
    uu, vv = _param_grid(nu, nv, "sphere")
    coords = center + radius * np.stack(
        [
            np.sin(vv) * np.cos(uu),
            np.sin(vv) * np.sin(uu),
            np.cos(vv),
            np.zeros_like(uu),
        ],
        axis=-1,
    )
    return SurfaceGrid(
        topology="sphere",
        model=model,
        chart_ids=np.zeros((nu, nv), dtype=int),
        coords=coords,
    )


def cp1(
    model: FubiniStudyCP2, line_coeffs=(0.0, 0.0), nu=64, nv=32
) -> SurfaceGrid:
    """Degree-1 holomorphic curve [Z0 : Z1 : c Z0 + d Z1] in CP^2.

    Default (c, d) = (0, 0) is the standard line {Z2 = 0}.  The orientation
    of the parametrization gives cos(alpha) = +1.
    """
    return _cp1_grid(model, line_coeffs, 0.0, 0, nu, nv)


def perturbed_cp1(
    model: FubiniStudyCP2,
    delta=0.05,
    frequency=2,
    line_coeffs=(0.0, 0.0),
    nu=64,
    nv=32,
) -> SurfaceGrid:
    """Near-holomorphic sphere: the cp1 line with a smooth non-holomorphic
    displacement of amplitude delta and zonal frequency m."""
    return _cp1_grid(model, line_coeffs, delta, frequency, nu, nv)


def _cp1_grid(model, line_coeffs, delta, m, nu, nv):
    c, d = complex(line_coeffs[0]), complex(line_coeffs[1])
    uu, vv = _param_grid(nu, nv, "sphere")
    Z0 = np.cos(vv / 2).astype(complex)
    Z1 = np.sin(vv / 2) * np.exp(-1j * uu)
    Z2 = c * Z0 + d * Z1
    if delta != 0.0:
        # |Z0|^2 + |Z1|^2 = 1 on this parametrization
        Z2 = Z2 + delta * Z0 * (Z1 * np.conj(Z0)) ** m
    Z = np.stack([Z0, Z1, Z2], axis=-1)
    coords, chart_ids = model.from_homogeneous(Z)
    return SurfaceGrid(
        topology="sphere", model=model, chart_ids=chart_ids, coords=coords
    )


# family -> (builder, required ambient model).  The builders' keyword
# defaults, nu and nv aside, are the run config's surface.params defaults.
FAMILIES = {
    "plane": (plane, "flat-C2"),
    "torus-graph": (torus_graph, "flat-T4"),
    "round-sphere": (round_sphere, "flat-C2"),
    "cp1": (cp1, "Fubini-Study-CP2"),
    "perturbed-cp1": (perturbed_cp1, "Fubini-Study-CP2"),
}


def build_surface(name: str, model: AmbientModel, **params) -> SurfaceGrid:
    if name not in FAMILIES:
        raise ValueError(f"unknown surface family {name!r}; choices: {sorted(FAMILIES)}")
    return FAMILIES[name][0](model, **params)
