"""The two matrix kernels the V-FPI needs per system: A v and the squared
row norms of A. System matrices are ``scipy.sparse.csc_matrix`` with no
duplicate entries.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError


def spmv(a: sp.csc_matrix, x: np.ndarray) -> np.ndarray:
    """Return A @ x for a 1-D array x."""
    if x.shape != (a.shape[0],):
        raise DimensionMismatchError(f"spmv: x has shape {x.shape}, expected ({a.shape[0]},)")
    return a @ x


def row_norms_sq(a: sp.csc_matrix) -> np.ndarray:
    """Squared 2-norm of each row: the squares of the stored entries summed
    by their row index."""
    return np.bincount(a.indices, a.data**2, minlength=a.shape[0])
