"""Ratios of directional derivative norms of concave functions on convex
planar domains: exact norms for piecewise-linear functions, closed-form
upper bounds, witness search for lower bounds, and randomized property
verification.

The package exports the names of the README quickstart; every other name
imports from its module, ``normratio.<module>``.
"""

from .bounds import directional_k1_upper
from .concave import concave_envelope
from .geometry import E1, E2, diamond
from .norms import lp_directional_norm
from .search import estimate_kp_lower

__version__ = "0.1.0"

__all__ = [
    "E1",
    "E2",
    "concave_envelope",
    "diamond",
    "directional_k1_upper",
    "estimate_kp_lower",
    "lp_directional_norm",
]
