"""Mean curvature flow of parametrized surfaces in Kähler 4-manifolds.

Layers: `ambient` (models of the target space), `immersion` (discrete
surface geometry), `flow` (time stepping), `diagnostics` (integral
functionals and inequality checks), `density` (parabolic density and the
regularity monitor), `cli` (runs, sweeps, verification batteries).
"""

from .ambient import ChartPoint, get_model
from .flow import FlowConfig, FlowResult, FlowState, run
from .immersion import SurfaceGrid, compute_geometry, integrate_scalar
from .surfaces import build_surface

__all__ = [
    "ChartPoint",
    "get_model",
    "FlowConfig",
    "FlowResult",
    "FlowState",
    "run",
    "SurfaceGrid",
    "compute_geometry",
    "integrate_scalar",
    "build_surface",
]
