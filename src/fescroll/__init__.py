"""Exact-arithmetic invariants of rank-two bundles on Hirzebruch surfaces
and of the threefold scrolls they embed.

Everything is integer or exact-rational; there are no tolerances anywhere.
"""

from .bundle_family import FamilyParams
from .errors import ConsistencyError, HypothesesError, ParameterError
from .surface_lattice import (
    CohomologyTable,
    DivisorClass,
    canonical_class,
    cohomology,
    intersect,
)

__version__ = "0.1.0"

__all__ = [
    "CohomologyTable",
    "ConsistencyError",
    "DivisorClass",
    "FamilyParams",
    "HypothesesError",
    "ParameterError",
    "canonical_class",
    "cohomology",
    "intersect",
    "__version__",
]
