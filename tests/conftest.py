"""Shared fixtures for the test suite."""

import os

import numpy as np
import pytest

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

ALL_SCENARIOS = [
    "free_fall",
    "resting_particle",
    "particle_stack",
    "box_slide",
    "anisotropic_slide",
    "lattice_invertible",
    "lattice_drag",
]


def scenario_path(name: str) -> str:
    return os.path.join(SCENARIO_DIR, name + ".json")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def skew(r):
    return np.array([[0.0, -r[2], r[1]], [r[2], 0.0, -r[0]], [-r[1], r[0], 0.0]])


def reference_nodalize(detected, state, stab=None):
    """Contact by contact: column offsets of both sides (-1 static), dense Jv,
    phi, and per virtual node its source's velocity offset, rigid flag and
    lever arm (zero for a node source). ``stab`` defaults to
    ``StabilizationParams()``."""
    from condsim.contacts import StabilizationParams

    stab = stab or StabilizationParams()
    n = state.v.shape[0]
    used, blocks, ties, cols, phi = set(), [], [], [], []

    def column(v_off, q_off, point):
        if v_off < 0:
            return -1
        if q_off < 0 and v_off not in used:
            used.add(v_off)
            return v_off
        if q_off < 0:
            blocks.append((v_off, np.eye(3)))
            ties.append((v_off, False, np.zeros(3)))
        else:
            lever = point - state.q[q_off : q_off + 3]
            blocks.append((v_off, np.hstack([np.eye(3), -skew(lever)])))
            ties.append((v_off, True, lever))
        return n + 3 * (len(blocks) - 1)

    def velocity(v_off, q_off, point):
        if v_off < 0:
            return np.zeros(3)
        v = state.v[v_off : v_off + 6]
        if q_off < 0:
            return v[:3]
        return v[:3] + np.cross(v[3:], point - state.q[q_off : q_off + 3])

    for point, frame, depth, v_off, q_off in zip(
        detected.point, detected.frame, detected.depth, detected.v_off.tolist(), detected.q_off.tolist()
    ):
        cols.append([column(v, q, point) for v, q in zip(v_off, q_off)])
        vel = [velocity(v, q, point) for v, q in zip(v_off, q_off)]
        v_n = frame[0] @ (vel[0] - vel[1])
        phi_n = -(stab.beta_err / state.dt) * depth
        if abs(v_n) > stab.v_rest_threshold:
            phi_n += stab.e_rest * min(0.0, v_n)
        phi.append(phi_n)
    jv = np.zeros((3 * len(blocks), n))
    for k, (off, block) in enumerate(blocks):
        jv[3 * k : 3 * k + 3, off : off + block.shape[1]] = block
    src = np.array([t[0] for t in ties], dtype=int)
    rigid = np.array([t[1] for t in ties], dtype=bool)
    lever = np.array([t[2] for t in ties]).reshape(-1, 3)
    return np.array(cols).reshape(-1, 2), jv, np.array(phi), (src, rigid, lever)
