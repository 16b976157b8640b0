"""Identity batteries: ambient structure checks, pointwise surface
inequalities, a homological oracle and density closed-form oracles.

The ambient checks run the contractions the flow runs (`inner`,
`connection`, `apply_J`) on random vectors at random points: together they
say that the flow's connection is the Levi-Civita connection of a Kähler
metric.  `check_einstein` reads the curvature tensors.

Each check returns (name, passed, detail).  `run_battery("quick")` keeps
everything under a minute; "full" adds the evolution-residual refinement
study with printed observed orders.
"""

from __future__ import annotations

import numpy as np

from .ambient import ChartPoint, apply_J, get_model
from .density import DensityQuery, parabolic_density
from .diagnostics import evolution_residual
from .flow import FlowConfig, FlowState, step
from .immersion import compute_geometry, frame_rotated_scalars, integrate_scalar
from .surfaces import perturbed_cp1, plane, torus_graph


def _samples(model, n=40, seed=7):
    """n random coordinate samples with three random tangent vectors at
    each (the last of unit length).  The contractions are the same
    formulas in every chart, so each check evaluates them once."""
    rng = np.random.default_rng(seed)
    xs = np.array([model.random_point(rng).x for _ in range(n)])
    u, w, e = rng.normal(size=(3, n, 4))
    return xs, u, w, e / np.linalg.norm(e, axis=-1, keepdims=True)


def check_complex_structure(model):
    """J^2 = -Id and g(Ju, Jw) = g(u, w), through `apply_J` and `inner`."""
    xs, u, w, _ = _samples(model)
    err = max(
        np.abs(apply_J(apply_J(u)) + u).max(),
        np.abs(model.inner(xs, apply_J(u), apply_J(w)) - model.inner(xs, u, w)).max(),
    )
    return f"{model.name}: complex structure / compatibility", err < 1e-12, f"max err {err:.2e}"


def check_parallel_J(model):
    """Kähler: the connection commutes with J, Gamma(u, Jw) = J Gamma(u, w)
    (nabla J = 0 for a constant J), and is torsion-free, Gamma(u, w) =
    Gamma(w, u).  Both hold exactly for the closed forms."""
    xs, u, w, _ = _samples(model)
    gamma = model.connection(xs, u, w)
    err = max(
        np.abs(model.connection(xs, u, apply_J(w)) - apply_J(gamma)).max(),
        np.abs(model.connection(xs, w, u) - gamma).max(),
    )
    return f"{model.name}: parallel J (exact)", err < 1e-12, f"max err {err:.2e}"


def check_metric_compatibility(model):
    """d_e g(u, w) = g(Gamma(e, u), w) + g(u, Gamma(e, w)) for constant
    u, w: with symmetry this makes `connection` the Levi-Civita connection
    of `inner`.  The left side is a 4th-order central difference of `inner`
    along e; its residual must fall at order >= 3.5 as the step halves,
    or vanish to rounding (flat models)."""
    xs, u, w, e = _samples(model, n=20)
    rhs = model.inner(xs, model.connection(xs, e, u), w)
    rhs += model.inner(xs, u, model.connection(xs, e, w))
    errs = []
    for h in (0.02, 0.01):
        g = [model.inner(xs + k * h * e, u, w) for k in (2, 1, -1, -2)]
        lhs = (-g[0] + 8 * g[1] - 8 * g[2] + g[3]) / (12 * h)
        errs.append(np.abs(lhs - rhs).max())
    name = f"{model.name}: metric compatibility"
    if errs[0] < 1e-11:
        return name, True, f"residual {errs[0]:.2e} (exact)"
    order = float(np.log(errs[0] / errs[1]) / np.log(2.0))  # the step halves
    return name, order >= 3.5, f"residuals {errs[0]:.2e} -> {errs[1]:.2e}, order {order:.2f}"


def check_einstein(model):
    xs = _samples(model, n=10)[0]
    _, ricci, _ = model.curvature(xs)
    err = np.abs(ricci - (model.scalar_curvature / 4.0) * model.metric(xs)).max()
    return f"{model.name}: Einstein (Ric = R/4 g)", err < 1e-10, f"max residual {err:.2e}"


def check_exp_log_roundtrip(model):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        p = model.random_point(rng)
        v = rng.normal(size=4)
        v = 0.3 * v / model.norm(p.x, v)
        xs, cs = model.exp(p.x[None], p.chart_id, v[None])
        q = ChartPoint(int(cs[0]), xs[0])
        w = model.log(p, q)
        worst = max(worst, float(np.linalg.norm(w - v)))
    return f"{model.name}: exp/log round trip", worst < 1e-12, f"max |log(exp(v)) - v| {worst:.2e}"


def check_curvature_bound(grid, geom):
    """|dJ|^2 >= |H|^2 / 2 at every node (the four-term identity)."""
    gap = float(np.min(geom.nablaJ_sq - 0.5 * geom.H_norm_sq))
    name = f"{grid.model.name}: |dJ|^2 >= |H|^2/2"
    return name, gap > -1e-12, f"min gap {gap:.2e}"


def check_symplectic_degree(grid, geom):
    """The symplectic area over pi of a degree-1 curve is 1: omega is closed
    and a line has area pi (potential log(1 + |z|^2)).  The defect is the
    quadrature's error, 3e-5 on the 32x16 perturbed degree-1 curve."""
    ratio = integrate_scalar(grid, geom.cos_alpha, geom) / np.pi
    defect = abs(ratio - 1.0)
    return (
        f"{grid.model.name}: symplectic area / pi = degree 1",
        defect < 1e-3,
        f"{ratio:.7f}, defect {defect:.2e}",
    )


def check_frame_invariance(grid, geom):
    n_rotations = 50
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(n_rotations):
        th, ps = rng.uniform(0, 2 * np.pi, size=2)
        rot = frame_rotated_scalars(geom, th, ps)
        nj, ca, h2 = rot["nablaJ_sq"], rot["cos_alpha"], rot["H_norm_sq"]
        scale = max(np.abs(geom.nablaJ_sq).max(), 1.0)
        worst = max(
            worst,
            np.abs(nj - geom.nablaJ_sq).max() / scale,
            np.abs(ca - geom.cos_alpha).max(),
            np.abs(h2 - geom.H_norm_sq).max() / max(np.abs(geom.H_norm_sq).max(), 1.0),
        )
    return (
        f"{grid.model.name}: frame invariance ({n_rotations} rotations)",
        worst < 1e-10,
        f"max relative change {worst:.2e}",
    )


def check_density_oracles():
    c2 = get_model("flat-C2")
    tau, ext = 0.01, 4.0
    r = 8 * np.sqrt(tau)
    x0 = ChartPoint(0, np.zeros(4))
    q = DensityQuery(x0=x0, t0=tau, r=r)
    g1 = plane(c2, origin=(-ext / 2, -ext / 2, 0, 0), extent=(ext, ext), nu=192, nv=192)
    p1 = parabolic_density(g1, 0.0, q)
    errs = [abs(p1 - 1.0)]
    d = np.sqrt(tau)
    g2 = plane(c2, origin=(-ext / 2, -ext / 2, d, 0), extent=(ext, ext), nu=192, nv=192)
    errs.append(abs(parabolic_density(g2, 0.0, q) - np.exp(-d * d / (4 * tau))))
    g3 = plane(
        c2,
        origin=(0, 0, -ext / 2, -ext / 2),
        a_dir=(0, 0, 1, 0),
        b_dir=(0, 0, 0, 1),
        extent=(ext, ext),
        nu=192,
        nv=192,
    )
    errs.append(abs(p1 + parabolic_density(g3, 0.0, q) - 2.0))
    lam = 2.5
    gs = g1.copy()
    gs.coords *= lam
    qs = DensityQuery(x0=x0, t0=lam * lam * tau, r=lam * r)
    errs.append(abs(parabolic_density(gs, 0.0, qs) - p1))
    err = max(errs)
    return "density: plane/offset/transverse/rescaling oracles", err < 1e-6, f"max err {err:.2e}"


def _residual_refinement(name, make_grid, sizes):
    """The max evolution residual must fall at order >= 1.8 across a
    grid-refinement sequence."""
    cfg = FlowConfig(t_end=1.0)
    res = []
    for n in sizes:
        st = FlowState(grid=make_grid(n))
        snaps = [(st.grid.copy(), st.t)]
        for _ in range(2):
            st = step(st, cfg)
            snaps.append((st.grid.copy(), st.t))
        res.append(evolution_residual(*snaps)[1])
    orders = [np.log2(a / b) for a, b in zip(res, res[1:])]
    detail = ", ".join(f"{r:.2e}" for r in res) + "; orders " + ", ".join(f"{o:.2f}" for o in orders)
    return f"evolution residual refinement ({name})", min(orders) >= 1.8, "residuals " + detail


def check_residual_refinement_torus():
    t4 = get_model("flat-T4")
    grid = lambda n: torus_graph(t4, amplitude=0.2, nu=n, nv=n)
    return _residual_refinement("torus graph", grid, (32, 64, 128))


def check_residual_refinement_sphere():
    cp2 = get_model("Fubini-Study-CP2")
    grid = lambda n: perturbed_cp1(cp2, delta=0.05, nu=n, nv=n // 2)
    return _residual_refinement("perturbed degree-1 curve", grid, (64, 128, 256))


def run_battery(level="quick"):
    results = []
    models = [get_model(n) for n in ("flat-C2", "flat-T4", "Fubini-Study-CP2")]
    for m in models:
        results.append(check_complex_structure(m))
        results.append(check_parallel_J(m))
        results.append(check_metric_compatibility(m))
        results.append(check_einstein(m))
        results.append(check_exp_log_roundtrip(m))
    tg = torus_graph(models[1], amplitude=0.2, nu=32, nv=32)
    pc = perturbed_cp1(models[2], delta=0.05, nu=32, nv=16)
    tg_geom, pc_geom = compute_geometry(tg), compute_geometry(pc)
    results.append(check_curvature_bound(tg, tg_geom))
    results.append(check_curvature_bound(pc, pc_geom))
    results.append(check_symplectic_degree(pc, pc_geom))
    results.append(check_frame_invariance(tg, tg_geom))
    results.append(check_density_oracles())
    if level == "full":
        results.append(check_residual_refinement_torus())
        results.append(check_residual_refinement_sphere())
    return results
