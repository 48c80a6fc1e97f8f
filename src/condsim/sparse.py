"""The matrix kernels the V-FPI needs per system: A v, the squared row norms
of A and the positions of its diagonal entries, and the templates that make
each step's matrix. System matrices are ``scipy.sparse.csc_matrix`` with no
duplicate entries.

They are bitwise symmetric: the node-block assembly of
``dynamics.assemble_step`` stores (i, j) and (j, i) as the same float, and
``contacts.augment_dynamics`` adds the same tie products to both in the same
order. On tie-free systems, which are the assembled matrix itself,
``solver.solve_vfpi`` hands ``spmv`` the CSR view ``a.T`` of a CSC matrix,
which is A x bit for bit, and ``solver.step_matrix_frobenius`` takes the row
norms as ``column_norms_sq``: the same view's product of the squared entries
with a vector of ones. That sums column c's squares in ascending row order,
from 0.0, and the bincount of ``row_norms_sq`` sums row c's squares in
ascending column order, from 0.0; symmetry makes these the same floats in the
same order, so the bits match. Systems with virtual nodes keep the bincount:
on their small rigid-body ties, building the view each solve costs more than
the bincount.

Systems with virtual nodes of at most ``BINCOUNT_NNZ_MAX`` entries, the
rigid bodies' small ties, multiply through ``BincountMatvec``, the same bits
as scipy's CSC kernel without its per-call dispatch; the tie layout keeps
its ``entry_columns``.

A layout of entries (``dynamics.BlockPattern``, ``contacts.TieLayout``) keeps
one ``csc_template`` over its read-only ``indices`` and ``indptr``, and every
step's matrix is ``with_data`` of it: a new ``csc_matrix`` that shares the
index arrays and owns the step's values, at a fraction of the cost of the
tuple constructor, which checks and converts the index arrays each call.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, InvalidMatrixError

# up to this many entries, a system with virtual nodes multiplies through
# BincountMatvec, faster than scipy's dispatch below about 1k entries
# (timings in CHANGES.md)
BINCOUNT_NNZ_MAX = 1024


def spmv(a, x: np.ndarray) -> np.ndarray:
    """Return A @ x for a 1-D array x and a sparse matrix A of any format,
    or a ``BincountMatvec``."""
    if x.shape != (a.shape[0],):
        raise DimensionMismatchError(f"spmv: x has shape {x.shape}, expected ({a.shape[0]},)")
    return a @ x


class BincountMatvec:
    """A x for a CSC matrix A as one ``np.bincount`` over its entries, for
    ``spmv``. scipy's kernel adds data[k] x[column] into its row entry by
    entry in column order, from 0.0, and so does the bincount over the
    entries in storage order: the bits are the same. It skips scipy's
    dispatch, most of a product's cost on a small matrix (1.6-2.9 against
    4.1-6.1 us on the 18-DOF box); above about 1k entries scipy's kernel is
    faster. ``cols`` is A's ``entry_columns``, found here when None."""

    def __init__(self, a: sp.csc_matrix, cols: np.ndarray | None = None):
        self.shape = a.shape
        self.indices, self.data = a.indices, a.data
        self.cols = entry_columns(a.indptr) if cols is None else cols

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.indices, self.data * x[self.cols], minlength=self.shape[0])


def entry_columns(indptr: np.ndarray) -> np.ndarray:
    """The column of every stored entry of a CSC pattern, in storage order."""
    return np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))


def row_norms_sq(a: sp.csc_matrix) -> np.ndarray:
    """Squared 2-norm of each row: the squares of the stored entries summed
    by their row index."""
    return np.bincount(a.indices, a.data**2, minlength=a.shape[0])


def column_norms_sq(a: sp.csc_matrix) -> np.ndarray:
    """Squared 2-norm of each column, as the CSR view of A^T with the
    squared entries times a vector of ones: on a bitwise symmetric A, the
    bits of ``row_norms_sq`` (module docstring)."""
    squares = sp.csr_matrix((a.data**2, a.indices, a.indptr), shape=a.shape[::-1])
    return squares @ np.ones(a.shape[0])


def diagonal_positions(indices: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Position in ``data`` of every column's diagonal entry, for a square
    CSC pattern with no duplicate entries. Gathering ``data`` there gives
    ``diagonal()`` bit for bit. A column that stores no diagonal entry
    raises ``InvalidMatrixError``: a system matrix is positive definite."""
    n = indptr.shape[0] - 1
    cols = entry_columns(indptr)
    pos = np.flatnonzero(indices == cols)
    if pos.shape[0] != n:
        missing = np.setdiff1d(np.arange(n), cols[pos])
        raise InvalidMatrixError(f"column {missing[0]} stores no diagonal entry")
    return pos


def csc_template(indices: np.ndarray, indptr: np.ndarray, n: int) -> sp.csc_matrix:
    """An n x n ``csc_matrix`` over read-only ``indices``/``indptr`` whose
    ``data`` is a read-only zero that takes no memory; ``with_data`` makes
    the matrices of a step from it."""
    zeros = np.broadcast_to(np.float64(0.0), indices.shape)
    return sp.csc_matrix((zeros, indices, indptr), shape=(n, n))


def with_data(template: sp.csc_matrix, data: np.ndarray) -> sp.csc_matrix:
    """A new ``csc_matrix`` with the template's pattern and the values
    ``data``, which it keeps without a copy; the template is unchanged."""
    a = sp.csc_matrix(template)
    a.data = data
    return a
