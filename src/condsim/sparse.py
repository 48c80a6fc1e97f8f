"""The matrix kernels the V-FPI needs per system: A v, the squared row norms
of A and the positions of its diagonal entries, and the templates that make
each step's matrix. System matrices are ``scipy.sparse.csc_matrix`` with no
duplicate entries.

Every system matrix has one ``Pattern``: its read-only index arrays, the
``csc_template`` from which ``with_data`` makes each step's matrix (a new
``csc_matrix`` that shares the index arrays and owns the step's values, at a
fraction of the cost of the tuple constructor, which checks and converts the
index arrays each call), the positions of its diagonal entries, and one set
of kernels, chosen by its number of entries alone:

- up to ``BINCOUNT_NNZ_MAX`` entries (a rigid body's small ties, a small
  tie-free system), ``entry_cols``: the product goes through
  ``BincountMatvec``, the same bits as scipy's CSC kernel without its
  per-call dispatch, and the row norms through the bincount of
  ``row_norms_sq``;
- above it, ``norm_chunks``: the product goes through the CSR view of the
  CSC matrix, ``a.T``, which scipy multiplies by gathering rows and which
  ``with_data`` makes from the pattern's ``view`` template, and the row
  norms through ``column_norms_sq``, that view's product of the squared
  entries with a vector of ones, squared in chunks of at most
  NORM_CHUNK_ROWS rows (CSR templates over slices of the index arrays), so
  a W setup holds a chunk's squares rather than a copy of A's data.

The two sets give the same bits because the matrices are bitwise symmetric:
the node-block assembly of ``dynamics.assemble_step`` stores (i, j) and
(j, i) as the same float, and ``contacts.augment_dynamics`` adds the same
tie products to both in the same order. So ``a.T @ x`` is A x bit for bit,
and ``column_norms_sq`` sums column c's squares in ascending row order, from
0.0, as the bincount sums row c's in ascending column order, from 0.0; each
chunk's rows sum in the same order from 0.0, so chunking keeps the bits.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, InvalidMatrixError

# up to this many entries, a system multiplies through BincountMatvec,
# faster than scipy's dispatch below about 1k entries (timings in CHANGES.md)
BINCOUNT_NNZ_MAX = 1024
# rows of the CSR view whose entries column_norms_sq squares at a time: about
# 0.75 MB of squares on the 19k-DOF lattice, against 7.0 MB for all of A's
# data, and a chunk that stays in cache for its product makes W's setup
# faster too (timings in CHANGES.md)
NORM_CHUNK_ROWS = 2048


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


def column_norms_sq(a: sp.csc_matrix, chunks: tuple | None = None) -> np.ndarray:
    """Squared 2-norm of each column, as the CSR view of A^T with the
    squared entries times a vector of ones: on a bitwise symmetric A, the
    bits of ``row_norms_sq`` (module docstring). The entries are squared in
    the row chunks of ``norm_chunks`` (built here when ``chunks`` is None):
    each chunk's product sums each of its rows in ascending column order from
    0.0, as the whole view's product does, so the bits are the same and only
    one chunk's squares are held at a time."""
    if chunks is None:
        chunks = norm_chunks(a.indices, a.indptr)
    ones = np.ones(a.shape[0])
    out = np.empty(a.shape[1])
    for r0, lo, hi, template in chunks:
        part = with_data(template, a.data[lo:hi] ** 2) @ ones
        out[r0 : r0 + part.shape[0]] = part
    return out


def norm_chunks(indices: np.ndarray, indptr: np.ndarray) -> tuple:
    """The row chunks of the CSR view of a square CSC pattern for
    ``column_norms_sq``: per chunk of at most NORM_CHUNK_ROWS rows, its first
    row, the span ``lo:hi`` of its entries in ``data`` and a ``csr_matrix``
    template over its slice of ``indices``, whose ``data`` takes no memory.
    Building the templates checks their index arrays once; each product
    then makes its matrix with ``with_data``."""
    n = indptr.shape[0] - 1
    chunks = []
    for r0 in range(0, n, NORM_CHUNK_ROWS):
        r1 = min(r0 + NORM_CHUNK_ROWS, n)
        lo, hi = int(indptr[r0]), int(indptr[r1])
        zeros = np.broadcast_to(np.float64(0.0), (hi - lo,))
        template = sp.csr_matrix((zeros, indices[lo:hi], indptr[r0 : r1 + 1] - lo), shape=(r1 - r0, n))
        template.indices = indices[lo:hi]  # the constructor copies a slice of a larger array
        chunks.append((r0, lo, hi, template))
    return tuple(chunks)


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


def with_data(template, data: np.ndarray):
    """A new matrix of the template's format (CSC or CSR) with its pattern
    and the values ``data``, which it keeps without a copy; the template is
    unchanged. A shallow copy of the template shares its index arrays as
    they are: scipy's constructors would run their checks, and copy an index
    array that is a slice of a larger one, as a ``norm_chunks`` template's
    is."""
    a = copy.copy(template)
    a.data = data
    return a


@dataclass(frozen=True, eq=False)
class Pattern:
    """The square CSC pattern of one system matrix (module docstring):
    read-only ``indices``, ``indptr`` and ``diag_pos``, the ``template`` of
    its matrices, and either ``entry_cols`` (at most ``BINCOUNT_NNZ_MAX``
    entries) or ``norm_chunks``, the other None; a pattern with
    ``norm_chunks`` makes its CSR ``view`` template on first use."""

    indices: np.ndarray
    indptr: np.ndarray
    template: sp.csc_matrix
    diag_pos: np.ndarray
    entry_cols: np.ndarray | None
    norm_chunks: tuple | None

    @classmethod
    def build(cls, indices: np.ndarray, indptr: np.ndarray, diag_pos: np.ndarray) -> Pattern:
        """Over ``indices``, ``indptr`` and ``diag_pos``, which become
        read-only."""
        indices.flags.writeable = indptr.flags.writeable = diag_pos.flags.writeable = False
        template = csc_template(indices, indptr, indptr.shape[0] - 1)
        if indices.shape[0] <= BINCOUNT_NNZ_MAX:
            return cls(indices, indptr, template, diag_pos, entry_columns(indptr), None)
        return cls(indices, indptr, template, diag_pos, None, norm_chunks(indices, indptr))

    @cached_property
    def view(self) -> sp.csr_matrix:
        """The CSR template over the pattern's index arrays, whose matrix
        with A's data is ``a.T``: ``with_data`` makes it without the checks
        of the constructor that ``a.T`` runs on every call (15 us)."""
        return self.template.T

    def operator(self, a: sp.csc_matrix):
        """What ``spmv`` multiplies by for A x, A a matrix of this pattern."""
        return with_data(self.view, a.data) if self.entry_cols is None else BincountMatvec(a, self.entry_cols)

    def row_norms_sq(self, a: sp.csc_matrix) -> np.ndarray:
        """A's squared row norms, A a matrix of this pattern."""
        return column_norms_sq(a, self.norm_chunks) if self.entry_cols is None else row_norms_sq(a)
