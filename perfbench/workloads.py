"""The benchmark's three workloads: generated scenario, run settings, oracle.

Each workload turns a seed into a scenario dict (the same seed gives the same
dict), fixes the ``RunConfig`` settings and the number of simulated steps of
one round, and names the checks that judge a round's outputs. Nothing here
imports condsim, so the generated inputs do not depend on the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DT = 0.01  # s, step size of every workload
G = 9.81  # m/s^2

CUBE_HALF = 0.1  # m, half edge of the rigid cube
CUBE_MASS = 0.5  # kg
CUBE_INERTIA = CUBE_MASS * (2 * CUBE_HALF) ** 2 / 6.0  # kg m^2, solid cube


@dataclass(frozen=True)
class Workload:
    name: str
    steps: int  # simulated steps per round
    run_config: dict  # RunConfig keyword arguments
    kind: str  # "lattice" | "box" | "aniso": selects the scenario function and the oracle


def _cube(position, velocity=(0.0, 0.0, 0.0)) -> dict:
    h = CUBE_HALF
    return {
        "type": "rigid",
        "mass": CUBE_MASS,
        "position": list(position),
        "velocity": list(velocity),
        "inertia": [CUBE_INERTIA] * 3,
        "contact_points": [[sx * h, sy * h, -h] for sy in (-1, 1) for sx in (-1, 1)],
    }


_FLOOR = {"planes": [{"point": [0.0, 0.0, 0.0], "normal": [0.0, 0.0, 1.0]}]}


def lattice_scenario(seed: int, steps: int, side: int = 46) -> dict:
    """The dragged ``lattice_drag`` lattice with a ``side`` x ``side`` x 3
    footprint (46 gives 19,044 velocity DOF and 2,116 floor contacts).

    The seed sets the in-plane jitter of the node positions (the springs take
    their rest lengths from the jittered positions) and the direction of the
    drag on the top layer.
    """
    rng = np.random.default_rng(seed)
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    return {
        "name": "lattice_19k",
        "duration": steps * DT,
        "step_size": DT,
        "seed": int(seed),
        "lattice": {
            "nx": side, "ny": side, "nz": 3, "spacing": 0.05, "mass": 0.01,
            "stiffness": 1000.0, "origin": [0.0, 0.0, 0.02], "node_radius": 0.02,
            "diagonals": True, "position_jitter": 0.002,
        },
        "geometry": _FLOOR,
        "contact": {"mu": 0.3, "beta_err": 0.2, "kv": 1e5},
        "forces": [{
            "force": [0.05 * math.cos(angle), 0.05 * math.sin(angle), 0.0],
            "lattice": "top",
        }],
        "damping": {"variant": "constant", "value": 2.0},
    }


def box_params(seed: int) -> dict:
    """Push on the cube: magnitude, in-plane direction and start offset."""
    rng = np.random.default_rng(seed)
    return {
        "force": float(rng.uniform(1.9, 2.1)),  # N, above mu m g = 0.981 N
        "angle": float(rng.uniform(0.0, 2.0 * math.pi)),
        "start": rng.uniform(-1.0, 1.0, size=2).tolist(),  # m
        "mu": 0.2,
    }


def box_scenario(seed: int, steps: int) -> dict:
    """The ``box_slide`` cube pushed across the floor on 4 virtual-node
    contacts, with the seed's push magnitude, direction and start point."""
    p = box_params(seed)
    f = [p["force"] * math.cos(p["angle"]), p["force"] * math.sin(p["angle"]), 0.0]
    return {
        "name": "box_slide",
        "duration": steps * DT,
        "step_size": DT,
        "bodies": [_cube([p["start"][0], p["start"][1], CUBE_HALF])],
        "geometry": _FLOOR,
        "contact": {"mu": p["mu"], "beta_err": 0.2, "kv": 1e5},
        "forces": [{"force": f, "body": 0}],
    }


def aniso_params(seed: int) -> dict:
    """Initial slide velocity and start offset of the anisotropic slide."""
    rng = np.random.default_rng(seed)
    speed = float(rng.uniform(1.35, 1.48))  # m/s
    angle = math.radians(float(rng.uniform(40.0, 50.0)))
    return {
        "velocity": [speed * math.cos(angle), speed * math.sin(angle)],
        "start": rng.uniform(-1.0, 1.0, size=2).tolist(),  # m
        "mu": 0.1,
        "mu2": 0.3,
    }


def aniso_scenario(seed: int, steps: int) -> dict:
    """The ``anisotropic_slide`` cube: launched across the floor and braked
    by an elliptic friction cone (mu 0.1 along x, 0.3 along y)."""
    p = aniso_params(seed)
    return {
        "name": "anisotropic_slide",
        "duration": steps * DT,
        "step_size": DT,
        "bodies": [_cube([p["start"][0], p["start"][1], CUBE_HALF], [*p["velocity"], 0.0])],
        "geometry": _FLOOR,
        "contact": {"mu": p["mu"], "mu2": p["mu2"], "beta_err": 0.2, "kv": 1e3},
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lattice_19k", 2,
            {"operator": "strict", "residual_tol": 1e-4, "chebyshev": True,
             "kv": 1e5, "max_iters": 4000, "record_positions": True},
            "lattice",
        ),
        Workload(
            "box_slide", 50,
            {"operator": "strict", "residual_tol": 1e-6, "chebyshev": True,
             "kv": 1e5, "max_iters": 20000, "record_positions": True},
            "box",
        ),
        Workload(
            "anisotropic_slide", 50,
            {"operator": "strict-anisotropic", "residual_tol": 1e-7, "chebyshev": True,
             "kv": 1e3, "max_iters": 4000, "record_positions": True},
            "aniso",
        ),
    )
}

_SCENARIOS = {"lattice": lattice_scenario, "box": box_scenario, "aniso": aniso_scenario}


def scenario(w: Workload, seed: int) -> dict:
    """The workload's generated scenario for ``seed``."""
    return _SCENARIOS[w.kind](seed, w.steps)


def warmup_scenario(w: Workload, seed: int) -> dict:
    """One step of a small instance, to load lazily imported code first."""
    if w.kind == "lattice":
        return lattice_scenario(seed, 1, side=4)
    return _SCENARIOS[w.kind](seed, 1)
