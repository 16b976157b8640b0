"""Run and sweep configuration: strict JSON schemas with materialized
defaults.

Unknown keys are rejected at every nesting level so a typo cannot silently
fall back to a default and invalidate an experiment.  `resolve` returns a
plain dict with every default made explicit; a run directory's
config.resolved.json therefore reproduces the run by itself.
"""

from __future__ import annotations

import json

from .errors import ConfigError

_MODELS = ("flat-C2", "flat-T4", "Fubini-Study-CP2")

_SURFACE_PARAMS = {
    "plane": {
        "origin": [0.0, 0.0, 0.0, 0.0],
        "a_dir": [1.0, 0.0, 0.0, 0.0],
        "b_dir": [0.0, 1.0, 0.0, 0.0],
        "extent": [1.0, 1.0],
    },
    "torus-graph": {"amplitude": 0.2, "frequencies": [1, 1]},
    "round-sphere": {"radius": 1.0, "center": [0.0, 0.0, 0.0, 0.0]},
    "cp1": {"line_coeffs": [0.0, 0.0]},
    "perturbed-cp1": {"delta": 0.05, "frequency": 2, "line_coeffs": [0.0, 0.0]},
}

_SURFACE_MODELS = {
    "plane": ("flat-C2",),
    "torus-graph": ("flat-T4",),
    "round-sphere": ("flat-C2",),
    "cp1": ("Fubini-Study-CP2",),
    "perturbed-cp1": ("Fubini-Study-CP2",),
}

_FLOW_DEFAULTS = {
    "t_end": None,  # required
    "cfl_factor": 0.2,
    "snapshot_stride": 50,
    "diagnostics_stride": 10,
    "redistribution": None,  # or {"every": k, "strength": lam}
    "blowup_threshold": None,
    "converged_H_tol": 1e-4,
}

_DENSITY_DEFAULTS = {"eps0": 0.1, "monitor": False, "r0": None}


def _check_keys(section, d, allowed):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(
            f"{section}: unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _merge(section, given, defaults):
    _check_keys(section, given, defaults)
    out = dict(defaults)
    out.update(given)
    return out


def resolve_run_config(doc: dict) -> dict:
    """Validate a run config document and materialize all defaults."""
    if not isinstance(doc, dict):
        raise ConfigError("run config must be a JSON object")
    top = ("model", "model_params", "surface", "flow", "density", "seed", "output_dir")
    _check_keys("config", doc, top)
    for key in ("model", "surface", "flow", "output_dir"):
        if key not in doc:
            raise ConfigError(f"config: missing required key {key!r}")
    model = doc["model"]
    if model not in _MODELS:
        raise ConfigError(f"config: unknown model {model!r}; choices: {_MODELS}")
    model_params = doc.get("model_params", {})
    if model == "flat-T4":
        _check_keys("model_params", model_params, ("periods",))
    elif model_params:
        raise ConfigError(f"model_params: {model} takes no parameters")

    surf = doc["surface"]
    _check_keys("surface", surf, ("family", "params", "nu", "nv"))
    family = surf.get("family")
    if family not in _SURFACE_PARAMS:
        raise ConfigError(
            f"surface: unknown family {family!r}; choices: {sorted(_SURFACE_PARAMS)}"
        )
    if model not in _SURFACE_MODELS[family]:
        raise ConfigError(
            f"surface: family {family!r} requires model in {_SURFACE_MODELS[family]}"
        )
    params = _merge(f"surface.params[{family}]", surf.get("params", {}), _SURFACE_PARAMS[family])
    nu = int(surf.get("nu", 64))
    nv = int(surf.get("nv", 32))
    if nu < 8 or nv < 8:
        raise ConfigError("surface: nu and nv must be at least 8")

    flow = _merge("flow", doc["flow"], _FLOW_DEFAULTS)
    if flow["t_end"] is None:
        raise ConfigError("flow: t_end is required")
    if not 0.0 < flow["cfl_factor"] <= 0.5:
        raise ConfigError("flow: cfl_factor must lie in (0, 0.5]")
    if flow["snapshot_stride"] < 1 or flow["diagnostics_stride"] < 1:
        raise ConfigError("flow: strides must be >= 1")
    if flow["redistribution"] is not None:
        red = flow["redistribution"]
        _check_keys("flow.redistribution", red, ("every", "strength"))
        if "every" not in red or "strength" not in red:
            raise ConfigError("flow.redistribution needs 'every' and 'strength'")
        flow["redistribution"] = {"every": int(red["every"]), "strength": float(red["strength"])}

    density = _merge("density", doc.get("density", {}), _DENSITY_DEFAULTS)
    if density["eps0"] <= 0:
        raise ConfigError("density: eps0 must be positive")

    return {
        "model": model,
        "model_params": dict(model_params),
        "surface": {"family": family, "params": params, "nu": nu, "nv": nv},
        "flow": flow,
        "density": density,
        "seed": int(doc.get("seed", 0)),
        "output_dir": str(doc["output_dir"]),
    }


_SWEEP_DEFAULTS = {
    "deltas": None,  # required
    "base": None,  # required
    "eps0": 0.1,
}


def resolve_sweep_spec(doc: dict) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError("sweep spec must be a JSON object")
    spec = _merge("sweep", doc, _SWEEP_DEFAULTS)
    if spec["base"] is None or spec["deltas"] is None:
        raise ConfigError("sweep: 'base' and 'deltas' are required")
    deltas = [float(d) for d in spec["deltas"]]
    if any(d <= 0 for d in deltas) or sorted(deltas) != deltas:
        raise ConfigError("sweep: deltas must be positive and sorted ascending")
    base = resolve_run_config(spec["base"])
    if base["surface"]["family"] != "perturbed-cp1":
        raise ConfigError("sweep: base surface family must be perturbed-cp1")
    spec["base"] = base
    spec["deltas"] = deltas
    return spec


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
