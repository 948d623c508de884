"""Category-weight constants and the exact per-row sum that the classifiers
and the flow kernel share.
"""

from __future__ import annotations

import math

import numpy as np

# weights at or above this count toward support size
SUPPORT_EPS = 1e-9
# entries below this are dropped from stored vectors
PRUNE_EPS = 1e-12
# a vector whose weights sum this close to 1 counts as normalized
NORMALIZATION_TOL = 1e-6


def row_fsum(row: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """The sums of values grouped by row, for rows 0..n-1 and row sorted
    ascending, each equal to math.fsum of its row's values. A sum of two
    terms is rounded once, so only rows with three or more terms need fsum."""
    total = np.bincount(row, weights=values, minlength=n)
    bounds = np.searchsorted(row, np.arange(n + 1))
    for r in np.flatnonzero(np.diff(bounds) > 2).tolist():
        total[r] = math.fsum(values[bounds[r]:bounds[r + 1]].tolist())
    return total
