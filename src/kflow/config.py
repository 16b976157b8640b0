"""Run and sweep configuration: strict JSON schemas with materialized
defaults.

Unknown keys are rejected at every nesting level, and a value must have the
JSON kind of its default, so a typo cannot silently fall back to a default
and invalidate an experiment.  `resolve` returns a plain dict with every
default made explicit; a run directory's config.resolved.json therefore
reproduces the run by itself.

A setting is defined by the code that uses it.  `ambient.get_model` checks
`model_params`; `surfaces.FAMILIES` holds each family's required model and
builder, whose keyword defaults are the `surface.params` defaults (a tuple
as a JSON list); `flow.FlowConfig` holds the `flow` defaults and checks;
`density.check_kernel_radius` checks a configured `density.r0`;
the grid build checks what needs the grid (an even longitude count on
spheres).  Every failure is a ConfigError.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math

from .ambient import get_model
from .density import check_kernel_radius
from .errors import ConfigError, check_kind
from .flow import FlowConfig
from .surfaces import FAMILIES

# None marks a required key
_TOP_DEFAULTS = {"model": None, "model_params": {}, "surface": None, "flow": None,
                 "density": {}, "seed": 0, "output_dir": None}
_SURFACE_DEFAULTS = {"family": None, "params": {}, "nu": 64, "nv": 32}
_DENSITY_DEFAULTS = {"eps0": 0.1, "monitor": False, "r0": None}


def _check_keys(section, d, allowed):
    if not isinstance(d, dict):
        raise ConfigError(f"{section} must be a JSON object")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(
            f"{section}: unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _merge(section, given, defaults):
    _check_keys(section, given, defaults)
    for key, value in given.items():
        check_kind(f"{section}.{key}", value, defaults[key])
    return {**defaults, **given}


def resolve_run_config(doc: dict) -> dict:
    """Validate a run config document and materialize all defaults."""
    doc = _merge("config", doc, _TOP_DEFAULTS)
    for key in ("model", "surface", "flow", "output_dir"):
        if doc[key] is None:
            raise ConfigError(f"config: missing required key {key!r}")
    model = doc["model"]
    ambient = get_model(model, **doc["model_params"])

    surf = _merge("surface", doc["surface"], _SURFACE_DEFAULTS)
    family = surf["family"]
    if not isinstance(family, str) or family not in FAMILIES:
        raise ConfigError(f"surface: unknown family {family!r}; choices: {sorted(FAMILIES)}")
    builder, required_model = FAMILIES[family]
    if model != required_model:
        raise ConfigError(f"surface: family {family!r} requires model {required_model!r}")
    defaults = {
        p.name: list(p.default) if isinstance(p.default, tuple) else p.default
        for p in inspect.signature(builder).parameters.values()
        if p.default is not p.empty and p.name not in ("nu", "nv")
    }
    surf["params"] = _merge(f"surface.params[{family}]", surf["params"], defaults)
    if surf["nu"] < 8 or surf["nv"] < 8:
        raise ConfigError("surface: nu and nv must be at least 8")

    flow = _merge("flow", doc["flow"], {f.name: f.default for f in dataclasses.fields(FlowConfig)})
    if flow["t_end"] is dataclasses.MISSING:
        raise ConfigError("flow: t_end is required")
    try:
        flow = dataclasses.asdict(FlowConfig(**flow))
    except ConfigError as exc:
        raise ConfigError(f"flow: {exc}") from exc

    density = _merge("density", doc["density"], _DENSITY_DEFAULTS)
    if not density["eps0"] > 0:
        raise ConfigError("density: eps0 must be positive")
    if density["r0"] is not None:  # a null r0 is calibrated
        check_kind("density.r0", density["r0"], 0.0)
        try:
            check_kernel_radius(ambient, density["r0"])
        except ValueError as exc:
            raise ConfigError(f"density: {exc}") from exc
    return {**doc, "model_params": dict(doc["model_params"]), "surface": surf, "flow": flow,
            "density": density, "output_dir": str(doc["output_dir"])}


_SWEEP_DEFAULTS = {
    "deltas": None,  # required
    "base": None,  # required
    "eps0": 0.1,
}


def resolve_sweep_spec(doc: dict) -> dict:
    spec = _merge("sweep", doc, _SWEEP_DEFAULTS)
    if spec["base"] is None or spec["deltas"] is None:
        raise ConfigError("sweep: 'base' and 'deltas' are required")
    deltas = spec["deltas"]
    if not isinstance(deltas, list) or not deltas:
        raise ConfigError(f"sweep: deltas must be a non-empty list of numbers, not {deltas!r}")
    check_kind("sweep.deltas", deltas, [0.0] * len(deltas))
    deltas = [float(d) for d in deltas]
    if not all(0 < d < math.inf for d in deltas) or sorted(deltas) != deltas:
        raise ConfigError("sweep: deltas must be positive, finite and sorted ascending")
    if not spec["eps0"] > 0:
        raise ConfigError(f"sweep: eps0 must be positive, not {spec['eps0']!r}")
    base = resolve_run_config(spec["base"])
    for key in ("eps0", "monitor"):  # every sweep run monitors at the sweep's eps0
        if key in spec["base"].get("density", {}):
            raise ConfigError(f"sweep: base density.{key} is set by the sweep; remove it from the base")
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
