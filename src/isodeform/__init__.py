"""isodeform: deform an isometric hypersurface immersion along a commuting
Codazzi tensor and verify every structural identity numerically.

The high-level entry points are re-exported here: build a chart (from the
catalog or DSL components), pick a deformation source, and either call
``verify_deformation`` directly or drive everything through a scene file
with ``parse_scene`` + ``run_suites``.
"""

from .catalog import CATALOG, build
from .codazzi import (
    Explicit,
    GHPair,
    GHPairData,
    MinusA,
    Parallel,
    gh_gauss_translation,
    gh_parallel_offset,
)
from .deformation import (
    closed_form_immersion,
    extract_gh,
    gauge_fit,
    verify_deformation,
)
from .errors import HypothesisError, SceneError
from .geometry import Chart, chart_jets, frame_at, frame_from_jets, make_chart
from .mesh import export_mesh
from .report import VerificationReport
from .scene import Scene, load_scene, parse_scene
from .suites import run_suites

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "Chart",
    "Explicit",
    "GHPair",
    "GHPairData",
    "HypothesisError",
    "MinusA",
    "Parallel",
    "Scene",
    "SceneError",
    "VerificationReport",
    "build",
    "chart_jets",
    "closed_form_immersion",
    "export_mesh",
    "extract_gh",
    "frame_at",
    "frame_from_jets",
    "gauge_fit",
    "gh_gauss_translation",
    "gh_parallel_offset",
    "load_scene",
    "make_chart",
    "parse_scene",
    "run_suites",
    "verify_deformation",
    "__version__",
]
