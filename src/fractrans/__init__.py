"""Measure transport with memory: fractional-in-time transport equations
solved by averaging push-forward flows over a random internal clock."""

from .errors import MassMismatchError, PicardConvergenceError, TailMassError
from .measures import EmpiricalMeasure, MeasurePath
from .specfun import FracOrder, QuadratureRule
from .subordinator import RngSpec

__version__ = "0.1.0"

__all__ = [
    "FracOrder",
    "QuadratureRule",
    "EmpiricalMeasure",
    "MeasurePath",
    "RngSpec",
    "TailMassError",
    "MassMismatchError",
    "PicardConvergenceError",
    "__version__",
]
