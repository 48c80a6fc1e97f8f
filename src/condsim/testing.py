"""Shared random-scene generators for the self-verify command and the tests."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .contacts import AugmentedDynamics, Contact, NodalContactSet, contact_frame
from .solver import step_matrix_frobenius


def random_spd(rng: np.random.Generator, n: int, density: float = 0.3) -> sp.csc_matrix:
    """Random sparse SPD matrix: B B^T + n I over a sprandn pattern."""
    b = sp.random(n, n, density=density, random_state=np.random.RandomState(int(rng.integers(2**31))))
    m = (b @ b.T) + n * sp.identity(n)
    return m.tocsc()


def random_contact_set(rng: np.random.Generator, n_nodes: int | None = None, n_contacts: int | None = None):
    """Random nodalized contacts over particle nodes (no virtual nodes).

    Returns (n, contacts) with n the velocity dimension. Matching the
    nodalization output, every node carries at most one contact; D-contacts
    link two distinct nodes.
    """
    if n_nodes is None:
        n_nodes = int(rng.integers(4, 20))
    free = list(rng.permutation(n_nodes))
    if n_contacts is None:
        n_contacts = int(rng.integers(1, n_nodes))
    contacts = []
    while n_contacts > 0 and free:
        i = int(free.pop())
        frame = contact_frame(rng.standard_normal(3) + np.array([0.0, 0.0, 1e-3]))
        if rng.random() < 0.5 and len(free) >= 1:
            j = int(free.pop())
            contacts.append(Contact(3 * i, frame, float(rng.uniform(0.1, 1.0)), 0.0, col_j=3 * j))
        else:
            contacts.append(Contact(3 * i, frame, float(rng.uniform(0.1, 1.0)), 0.0))
        n_contacts -= 1
    return 3 * n_nodes, contacts


def build_augmented(a: sp.csc_matrix, b: np.ndarray, contacts) -> AugmentedDynamics:
    """Wrap an already-assembled system and particle-node contacts; a node
    that carries two contact sides raises ``InvalidMatrixError``."""
    n_c = len(contacts)
    n = a.shape[0]
    nodal = NodalContactSet(
        n,
        0.0,
        col_i=np.array([c.col_i for c in contacts], dtype=int),
        col_j=np.array([c.col_j for c in contacts], dtype=int),
        frames=np.array([c.frame for c in contacts]) if n_c else np.zeros((0, 3, 3)),
        mu=np.array([c.mu for c in contacts], dtype=float),
        mu2=np.array([c.mu if c.mu2 is None else c.mu2 for c in contacts], dtype=float),
        phi=np.array([c.phi_n for c in contacts], dtype=float),
    )
    return AugmentedDynamics(a, b.copy(), n, n, nodal)


def random_contact_augmentation(rng: np.random.Generator, pair_tie: bool = False):
    """Random SPD system plus contacts plus the (n,) diagonal of its tied
    Frobenius step matrix."""
    n, contacts = random_contact_set(rng)
    a = random_spd(rng, n)
    b = rng.standard_normal(n)
    aug = build_augmented(a, b, contacts)
    w = step_matrix_frobenius(a, aug, pair_tie)
    return aug, w
