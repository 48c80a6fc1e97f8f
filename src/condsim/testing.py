"""Shared random-scene generators for the self-verify command and the tests."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .contacts import AugmentedDynamics, NodalContactSet, contact_frames
from .solver import step_matrix_frobenius
from .sparse import diagonal_positions


def random_spd(rng: np.random.Generator, n: int, density: float = 0.3) -> sp.csc_matrix:
    """Random sparse SPD matrix: B B^T + n I over a sprandn pattern."""
    b = sp.random(n, n, density=density, random_state=np.random.RandomState(int(rng.integers(2**31))))
    m = (b @ b.T) + n * sp.identity(n)
    return m.tocsc()


def contact_set(n: int, col_i=(), frames=(), mu=0.0, col_j=-1, phi=0.0) -> NodalContactSet:
    """Contacts on the particle nodes of an n-DOF system (none by default),
    with no virtual nodes: per contact a column offset, a frame (rows n, t1,
    t2), mu, the second side's column (-1 for a static primitive) and phi. A
    scalar applies to every contact, and mu2 is mu. A node that carries two
    contact sides raises ``InvalidMatrixError``."""
    col_i = np.asarray(col_i, dtype=int).reshape(-1)
    mu = np.full(col_i.shape, mu, dtype=float)
    return NodalContactSet(
        n,
        0.0,
        col_i=col_i,
        col_j=np.full(col_i.shape, col_j, dtype=int),
        frames=np.asarray(frames, dtype=float).reshape(-1, 3, 3),
        mu=mu,
        mu2=mu,
        phi=np.full(col_i.shape, phi, dtype=float),
    )


def random_contact_set(
    rng: np.random.Generator, n_nodes: int | None = None, n_contacts: int | None = None
) -> NodalContactSet:
    """Random nodalized contacts over particle nodes (no virtual nodes).

    Matching the nodalization output, every node carries at most one
    contact; D-contacts link two distinct nodes.
    """
    if n_nodes is None:
        n_nodes = int(rng.integers(4, 20))
    free = list(rng.permutation(n_nodes))
    if n_contacts is None:
        n_contacts = int(rng.integers(1, n_nodes))
    col_i, col_j, normals, mu = [], [], [], []
    while n_contacts > 0 and free:
        col_i.append(3 * free.pop())
        normals.append(rng.standard_normal(3) + np.array([0.0, 0.0, 1e-3]))
        col_j.append(3 * free.pop() if rng.random() < 0.5 and free else -1)
        mu.append(rng.uniform(0.1, 1.0))
        n_contacts -= 1
    return contact_set(3 * n_nodes, col_i, contact_frames(np.reshape(normals, (-1, 3))), mu, col_j)


def build_augmented(a: sp.csc_matrix, b: np.ndarray, nodal: NodalContactSet) -> AugmentedDynamics:
    """Wrap an already-assembled system and particle-node contacts."""
    n = a.shape[0]
    return AugmentedDynamics(a, b.copy(), n, n, nodal, diagonal_positions(a.indices, a.indptr))


def random_contact_augmentation(rng: np.random.Generator):
    """Random SPD system plus contacts plus the (n,) diagonal of its tied
    Frobenius step matrix."""
    nodal = random_contact_set(rng)
    n = nodal.n_orig
    a = random_spd(rng, n)
    b = rng.standard_normal(n)
    aug = build_augmented(a, b, nodal)
    w = step_matrix_frobenius(aug)
    return aug, w
