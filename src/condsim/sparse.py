"""The two matrix kernels the V-FPI needs per system: A v and the squared
row norms of A. System matrices are ``scipy.sparse.csc_matrix`` with no
duplicate entries.

They are bitwise symmetric: the node-block assembly of
``dynamics.assemble_step`` stores (i, j) and (j, i) as the same float, and
``contacts.augment_dynamics`` adds the same tie products to both in the same
order. On tie-free systems, which are the assembled matrix itself,
``solver.solve_vfpi`` hands ``spmv`` the CSR view ``a.T`` of a CSC matrix,
which is A x bit for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError


def spmv(a: sp.spmatrix, x: np.ndarray) -> np.ndarray:
    """Return A @ x for a 1-D array x and a sparse matrix A of any format."""
    if x.shape != (a.shape[0],):
        raise DimensionMismatchError(f"spmv: x has shape {x.shape}, expected ({a.shape[0]},)")
    return a @ x


def row_norms_sq(a: sp.csc_matrix) -> np.ndarray:
    """Squared 2-norm of each row: the squares of the stored entries summed
    by their row index."""
    return np.bincount(a.indices, a.data**2, minlength=a.shape[0])
