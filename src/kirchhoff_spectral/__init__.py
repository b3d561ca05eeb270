"""Spectral simulator and verification workbench for the Kirchhoff equation on the d-torus."""

from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    GridMismatchError,
    NumericalError,
    ParameterError,
)
from .fields import (
    ComplexField,
    ConjugatePair,
    PairStack,
    RealPair,
    field_from_dict,
    field_to_dict,
    hermitian_defect,
    random_field,
    sobolev_norm,
)
from .grid import DEFAULT_BALL_RADIUS, SpectralGrid, regularity_threshold

__version__ = "0.1.0"

__all__ = [
    "ComplexField",
    "ConfigError",
    "ConjugatePair",
    "ConvergenceError",
    "DEFAULT_BALL_RADIUS",
    "DomainError",
    "GridMismatchError",
    "NumericalError",
    "PairStack",
    "ParameterError",
    "RealPair",
    "SpectralGrid",
    "field_from_dict",
    "field_to_dict",
    "hermitian_defect",
    "random_field",
    "regularity_threshold",
    "sobolev_norm",
    "__version__",
]
