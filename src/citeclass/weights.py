"""Sparse category-weight vectors, represented as dict[str, float].

All helpers return plain dicts with keys in sorted order; entries below
PRUNE_EPS are dropped so vectors stay sparse.
"""

from __future__ import annotations

import math
from typing import Mapping

from .corpus import ValidationError

CategoryVector = dict[str, float]

# weights at or above this count toward support size
SUPPORT_EPS = 1e-9
# entries below this are dropped from stored vectors
PRUNE_EPS = 1e-12
# a vector whose weights sum this close to 1 counts as normalized
NORMALIZATION_TOL = 1e-6


def normalize(vec: Mapping[str, float]) -> CategoryVector:
    """Scale to unit sum, prune, return keys sorted. Errors on empty or
    non-positive total."""
    total = math.fsum(vec.values())
    if not vec or total <= 0.0:
        raise ValidationError([f"cannot normalize vector with total {total}"])
    out = {k: v / total for k, v in sorted(vec.items()) if v / total >= PRUNE_EPS}
    if not out:
        raise ValidationError(["normalization left an empty vector"])
    return out

