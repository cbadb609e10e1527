"""Counting connected components of moduli of product-quotient surfaces."""
from __future__ import annotations

__version__ = "0.1.4"

from .errors import BudgetExceeded, UserInputError
from .groups import AbelianGroup, CayleyGroup, Group, PermutationGroup, construct_group
from .ramification import SignatureType, surface_invariants
from .orbits import EquivalenceConfig, OrbitReport, count_components, side_orbits

__all__ = [
    "AbelianGroup",
    "BudgetExceeded",
    "CayleyGroup",
    "EquivalenceConfig",
    "Group",
    "OrbitReport",
    "PermutationGroup",
    "SignatureType",
    "UserInputError",
    "construct_group",
    "count_components",
    "side_orbits",
    "surface_invariants",
    "__version__",
]
