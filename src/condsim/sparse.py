"""The two matrix kernels the V-FPI needs per system: A v and the squared
row norms of A. System matrices are symmetric ``scipy.sparse.csc_matrix``
with both triangles stored.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError


def spmv(a: sp.csc_matrix, x: np.ndarray) -> np.ndarray:
    """Return A @ x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (a.shape[0],):
        raise DimensionMismatchError(f"spmv: x has shape {x.shape}, expected ({a.shape[0]},)")
    return a.dot(x)


def row_norms_sq(a: sp.csc_matrix) -> np.ndarray:
    """Squared 2-norm of each row (column sums of A∘A, as A is symmetric)."""
    return np.asarray(a.multiply(a).sum(axis=0)).ravel()
