"""Scenario loading, the per-step simulation loop, oracles and benchmarks.

Scenarios are JSON files validated against a strict schema (unknown keys are
rejected). A run performs, per step: assemble dynamics, detect contacts,
nodalize, augment, solve, integrate; per-step metrics land in CSV rows with
deterministic formatting so identical (scenario, seed, solver) runs produce
identical bytes.

``build_scene`` builds no cache, but its records are frozen and their
arrays read-only, so a scene's layout never changes once it is built; its
rigid bodies are one ``RigidBodies`` record of arrays. Its layouts are built
on its first step and hang off its objects, so they die with it: the node
triples, rigid index rows and contact layouts on its ``Bodies``, the block
pattern on its ``Springs``, and the gravity force vector of
``external_force`` on the ``Scene`` itself, which each step copies before
adding the scheduled forces. Each state keeps the rotations, world
inertias and mass blocks of the rigid bodies (``SystemState.rigid_pose``).
"""

from __future__ import annotations

import json
import math
import time
import typing
from dataclasses import dataclass, field
from functools import cached_property

import jsonschema
import numpy as np

from . import baselines as bl
from .contacts import (
    DEFAULT_MARGIN,
    Geometry,
    Plane,
    StabilizationParams,
    StaticSphere,
    augment_dynamics,
    detect_contacts,
    nodalize,
)
from .dynamics import (
    MIN_SPRING_LENGTH,
    Bodies,
    DampingPolicy,
    RigidBodies,
    Springs,
    SystemState,
    _read_only,
    assemble_step,
    integrate,
    kinetic_energy,
    triples,
)
from .errors import (
    DivergenceError,
    ScenarioValidationError,
    UnsupportedRegimeError,
)
from .solver import OPERATORS, SolverConfig, SolverReport, solve_vfpi

DEFAULT_GRAVITY = (0.0, 0.0, -9.81)
# runs of every size in ``bench_scaling``: at 3 the R^2 of test_09's fit
# still fell to 0.95 in resampled timings, at 5 it stayed at or above 0.978
BENCH_REPEATS = 5

_VEC3 = {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3}
_VEC4 = {"type": "array", "items": {"type": "number"}, "minItems": 4, "maxItems": 4}

SCENARIO_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["step_size", "duration"],
    "properties": {
        "name": {"type": "string"},
        "duration": {"type": "number", "exclusiveMinimum": 0},
        "step_size": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "gravity": _VEC3,
        "bodies": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["type", "mass"],
                "properties": {
                    "type": {"enum": ["particle", "rigid"]},
                    "mass": {"type": "number", "exclusiveMinimum": 0},
                    "position": _VEC3,
                    "velocity": _VEC3,
                    "orientation": _VEC4,
                    "angular_velocity": _VEC3,
                    "radius": {"type": "number", "minimum": 0},
                    "inertia": {**_VEC3, "items": {"type": "number", "exclusiveMinimum": 0}},
                    "contact_points": {"type": "array", "items": _VEC3},
                    "contact_radius": {"type": "number", "minimum": 0},
                },
            },
        },
        "lattice": {
            "type": "object",
            "additionalProperties": False,
            "required": ["nx", "ny", "nz", "spacing", "mass", "stiffness"],
            "properties": {
                "nx": {"type": "integer", "minimum": 1},
                "ny": {"type": "integer", "minimum": 1},
                "nz": {"type": "integer", "minimum": 1},
                "spacing": {"type": "number", "exclusiveMinimum": 0},
                "mass": {"type": "number", "exclusiveMinimum": 0},
                "stiffness": {"type": "number", "exclusiveMinimum": 0},
                "origin": _VEC3,
                "node_radius": {"type": "number", "minimum": 0},
                "diagonals": {"type": "boolean"},
                "position_jitter": {"type": "number", "minimum": 0},
            },
        },
        "springs": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["i", "j", "stiffness"],
                "properties": {
                    "i": {"type": "integer", "minimum": 0},
                    "j": {"type": "integer", "minimum": 0},
                    "stiffness": {"type": "number", "exclusiveMinimum": 0},
                    "rest": {"type": "number"},
                },
            },
        },
        "geometry": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "planes": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["point", "normal"],
                        "properties": {"point": _VEC3, "normal": _VEC3},
                    },
                },
                "spheres": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["center", "radius"],
                        "properties": {
                            "center": _VEC3,
                            "radius": {"type": "number", "exclusiveMinimum": 0},
                        },
                    },
                },
                "margin": {"type": "number", "minimum": 0},
            },
        },
        "contact": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mu": {"type": "number", "minimum": 0},
                "mu2": {"type": "number", "minimum": 0},
                "beta_err": {"type": "number", "minimum": 0},
                "e_rest": {"type": "number", "minimum": 0, "maximum": 1},
                "restitution_threshold": {"type": "number", "minimum": 0},
                "kv": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "damping": {
            "type": "object",
            "additionalProperties": False,
            "required": ["variant"],
            "properties": {
                "variant": {"enum": ["constant", "geometric-projection"]},
                "value": {"type": "number", "minimum": 0},
            },
        },
        "forces": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["force"],
                "properties": {
                    "force": _VEC3,
                    "start": {"type": "number", "minimum": 0},
                    "end": {"type": "number", "minimum": 0},
                    "body": {"type": "integer", "minimum": 0},
                    "bodies": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                    "lattice": {"enum": ["all", "top", "bottom"]},
                    "per_node": {"type": "boolean"},
                },
            },
        },
    },
}


def _scenario_validator():
    cls = jsonschema.validators.validator_for(SCENARIO_SCHEMA)
    cls.check_schema(SCENARIO_SCHEMA)
    return cls(SCENARIO_SCHEMA)


# built once: jsonschema.validate checks the schema itself again on every call
_SCENARIO_VALIDATOR = _scenario_validator()


@dataclass
class Scenario:
    """Validated scenario description, still close to the JSON shape.
    Making one runs ``validate_scenario`` on ``raw``, once."""

    raw: dict
    path: str | None = None

    def __post_init__(self):
        validate_scenario(self.raw)

    @property
    def step_size(self) -> float:
        return float(self.raw["step_size"])

    @property
    def duration(self) -> float:
        return float(self.raw["duration"])

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.step_size))

    @property
    def seed(self) -> int:
        return int(self.raw.get("seed", 0))


@dataclass
class MetricsRow:
    step: int
    dyn_ms: float
    solve_ms: float
    iters: int
    residual: float
    max_pen_m: float
    contacts: int
    ke_J: float
    diverged: bool = False
    # not part of the CSV contract, kept for in-process checks
    converged: bool = False
    consistency: float = float("nan")


SOLVERS = ("cond", "pgs", "apgd")


@dataclass
class RunConfig:
    solver: str = "cond"  # one of SOLVERS
    operator: str = "strict"  # one of solver.OPERATORS
    residual_tol: float = 1e-4
    max_iters: int = 500
    chebyshev: bool = False
    kv: float | None = None
    seed: int | None = None
    record_positions: bool = False


@dataclass(eq=False)
class RunResult:
    rows: list
    state: SystemState
    positions: list = field(default_factory=list)  # optional per-step q snapshots

    @property
    def any_diverged(self) -> bool:
        return any(r.diverged for r in self.rows)


def validate_scenario(data: dict) -> None:
    exc = jsonschema.exceptions.best_match(_SCENARIO_VALIDATOR.iter_errors(data))
    if exc is not None:
        loc = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ScenarioValidationError(f"scenario invalid at {loc}: {exc.message}") from exc
    _check_finite(data, "")
    _check_directions(data)
    steps = data["duration"] / data["step_size"]
    if abs(steps - round(steps)) > 1e-9 * max(1.0, steps) or round(steps) < 1:
        raise ScenarioValidationError(
            "duration/step_size must be an integer step count of at least 1, "
            f"got {steps!r} for duration={data['duration']} step_size={data['step_size']}"
        )
    _check_targets(data)


def _check_finite(node, loc: str) -> None:
    """Reject NaN and infinite numbers, which pass every bound of the
    schema, naming where they sit."""
    if isinstance(node, float) and not math.isfinite(node):
        raise ScenarioValidationError(f"scenario invalid at {loc or '<root>'}: {node!r} is not a finite number")
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        _check_finite(value, f"{loc}/{key}" if loc else str(key))


def _check_directions(data: dict) -> None:
    """Reject plane normals and rigid-body orientations too short to have a
    direction: a plane builds its contact frame from its normal, and a body
    normalizes its quaternion."""
    planes = data.get("geometry", {}).get("planes", [])
    vectors = [(p["normal"], f"geometry/planes/{k}/normal") for k, p in enumerate(planes)]
    for k, body in enumerate(data.get("bodies", [])):
        if "orientation" in body:
            vectors.append((body["orientation"], f"bodies/{k}/orientation"))
    for vec, loc in vectors:
        if math.hypot(*vec) < 1e-12:
            raise ScenarioValidationError(f"scenario invalid at {loc}: {vec!r} has no direction")


def _check_targets(data: dict) -> None:
    """Reject springs and forces that name a missing body, springs that join
    a body to itself or two bodies that start at one point, forces with no
    target, and lattice targets in a scenario without a lattice."""
    bodies = data.get("bodies", [])

    def position(ref: int, loc: str) -> np.ndarray:
        if ref >= len(bodies):
            raise ScenarioValidationError(f"{loc} names body {ref}, but the scenario has {len(bodies)} bodies")
        return np.array(bodies[ref].get("position", [0.0, 0.0, 0.0]), dtype=float)

    for m, spring in enumerate(data.get("springs", [])):
        i, j = spring["i"], spring["j"]
        p_i, p_j = position(i, f"springs/{m}/i"), position(j, f"springs/{m}/j")
        if i == j:
            raise ScenarioValidationError(f"springs/{m} joins body {i} to itself")
        if np.linalg.norm(p_i - p_j) < MIN_SPRING_LENGTH:
            raise ScenarioValidationError(f"springs/{m} joins bodies {i} and {j}, which start at the same point")
    for m, force in enumerate(data.get("forces", [])):
        if "body" in force:
            position(force["body"], f"forces/{m}/body")
        for k, ref in enumerate(force.get("bodies", [])):
            position(ref, f"forces/{m}/bodies/{k}")
        if "lattice" in force and "lattice" not in data:
            raise ScenarioValidationError(f"forces/{m}/lattice targets the lattice, but the scenario has none")
        if not ("body" in force or force.get("bodies") or "lattice" in force):
            raise ScenarioValidationError(f"forces/{m} targets no body")


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario file. ``json`` reads the literals NaN,
    Infinity and -Infinity as floats, which ``validate_scenario`` rejects."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    return Scenario(data, path)


@dataclass(frozen=True, eq=False)
class Scene:
    """Instantiated scenario: bodies, springs, geometry and force schedule.
    ``gravity``, ``force_entries`` (a tuple) and the entries' arrays are
    read-only."""

    bodies: Bodies
    state: SystemState
    geometry: Geometry
    constraints: Springs
    force_entries: tuple  # (start, end, (k, 3) velocity indices, (k, 3) forces)
    stab: StabilizationParams
    mu: float
    mu2: float | None
    k_v: float
    gravity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gravity", _read_only(self.gravity, float))
        entries = tuple((s, e, _read_only(i), _read_only(f, float)) for s, e, i, f in self.force_entries)
        object.__setattr__(self, "force_entries", entries)

    @cached_property
    def gravity_force(self) -> np.ndarray:
        """Gravity on every node and rigid body as one read-only vector over
        the scene's velocities, built on its first step."""
        f = np.zeros(self.state.v.shape[0])
        # the bodies' own triples are made after the first step's pattern build
        f[triples(self.bodies.node_v)] += self.bodies.node_mass[:, None] * self.gravity
        f[triples(self.bodies.rigid.v_off)] += self.bodies.rigid.mass[:, None] * self.gravity
        f.flags.writeable = False
        return f


def _lattice_nodes(spec: dict, seed: int) -> np.ndarray:
    """Node positions, x fastest, then y, then z; the seed draws the jitter."""
    k, j, i = np.indices((spec["nz"], spec["ny"], spec["nx"])).reshape(3, -1)
    origin = np.array(spec.get("origin", [0.0, 0.0, 0.0]), dtype=float)
    pts = origin + spec["spacing"] * np.stack([i, j, k], axis=1).astype(float)
    jitter = spec.get("position_jitter", 0.0)
    if jitter > 0:
        pts[:, :2] += np.random.default_rng(seed).uniform(-jitter, jitter, size=(pts.shape[0], 2))
    return pts


# per node (i, j, k), candidate edges as grid steps (end a, end b): the three
# axis edges, then both diagonals of the xy, xz and yz faces
_EDGE_STEPS = np.array(
    [
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 1, 1, 0],
        [1, 0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 1],
        [1, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 1],
        [0, 1, 0, 0, 0, 1],
    ]
)


def _lattice_edges(nx: int, ny: int, nz: int, diagonals: bool) -> np.ndarray:
    """(m, 2) node index pairs, node by node in ``_lattice_nodes`` order."""
    steps = _EDGE_STEPS if diagonals else _EDGE_STEPS[:3]
    k, j, i = np.indices((nz, ny, nx)).reshape(3, -1, 1)
    reach = np.maximum(steps[:, :3], steps[:, 3:])
    inside = (i + reach[:, 0] < nx) & (j + reach[:, 1] < ny) & (k + reach[:, 2] < nz)

    def node(s):
        return ((k + s[:, 2]) * ny + j + s[:, 1]) * nx + i + s[:, 0]

    return np.stack([node(steps[:, :3])[inside], node(steps[:, 3:])[inside]], axis=1)


def build_scene(s: Scenario, cfg: RunConfig | None = None) -> Scene:
    cfg = cfg or RunConfig()
    data = s.raw
    seed = cfg.seed if cfg.seed is not None else s.seed
    dt = s.step_size

    geo = data.get("geometry", {})
    geometry = Geometry(
        [Plane(np.array(p["point"], dtype=float), np.array(p["normal"], dtype=float)) for p in geo.get("planes", [])],
        [StaticSphere(np.array(sp["center"], dtype=float), sp["radius"]) for sp in geo.get("spheres", [])],
        geo.get("margin", DEFAULT_MARGIN),
    )

    # layout: the listed bodies in order, then the lattice nodes
    specs = data.get("bodies", [])
    is_rigid = np.array([bs["type"] == "rigid" for bs in specs], dtype=bool)
    q_ends = np.cumsum(np.where(is_rigid, 7, 3))
    v_ends = np.cumsum(np.where(is_rigid, 6, 3))
    body_q = np.concatenate([[0], q_ends]).astype(int)
    body_v = np.concatenate([[0], v_ends]).astype(int)
    lat = data.get("lattice")
    n_lat = lat["nx"] * lat["ny"] * lat["nz"] if lat is not None else 0
    lat_q = body_q[-1] + 3 * np.arange(n_lat)
    lat_v = body_v[-1] + 3 * np.arange(n_lat)
    q = np.zeros(body_q[-1] + 3 * n_lat)
    v = np.zeros(body_v[-1] + 3 * n_lat)
    body_q, body_v = body_q[:-1], body_v[:-1]

    particles = [bs for bs in specs if bs["type"] == "particle"]
    part_q, part_v = body_q[~is_rigid], body_v[~is_rigid]
    q[triples(part_q)] = np.array([bs.get("position", [0, 0, 0]) for bs in particles], dtype=float).reshape(-1, 3)
    v[triples(part_v)] = np.array([bs.get("velocity", [0, 0, 0]) for bs in particles], dtype=float).reshape(-1, 3)

    # one row per rigid body: velocity, angular velocity, position, orientation,
    # then mass, contact radius and the inertia diagonal
    rigid_specs = [bs for bs in specs if bs["type"] == "rigid"]
    rows = [[*bs.get("velocity", [0, 0, 0]), *bs.get("angular_velocity", [0, 0, 0]), *bs.get("position", [0, 0, 0]),
             *bs.get("orientation", [1, 0, 0, 0]), bs["mass"], bs.get("contact_radius", 0.0),
             *bs.get("inertia", [1.0] * 3)] for bs in rigid_specs]
    rows = np.array(rows, dtype=float).reshape(-1, 18)
    points = [np.array(bs.get("contact_points", []), dtype=float).reshape(-1, 3) for bs in rigid_specs]
    point_body = np.repeat(np.arange(len(points)), [p.shape[0] for p in points])
    rigid = RigidBodies(rows[:, 13], body_q[is_rigid], body_v[is_rigid], rows[:, 15:, None] * np.eye(3),
                        np.concatenate([np.zeros((0, 3))] + points), point_body, rows[:, 14])
    quat = np.ascontiguousarray(rows[:, 9:13])
    norm = np.sqrt((quat[:, None, :] @ quat[:, :, None]).ravel())  # each rounds as np.linalg.norm of its row
    q[rigid.q_idx] = np.hstack([rows[:, 6:9], quat / norm[:, None]])
    v[rigid.v_idx] = rows[:, :6]

    node_mass = [np.array([bs["mass"] for bs in particles], dtype=float)]
    node_radius = [np.array([bs.get("radius", 0.0) for bs in particles], dtype=float)]
    spring_specs = data.get("springs", [])
    si = np.array([sp["i"] for sp in spring_specs], dtype=int)
    sj = np.array([sp["j"] for sp in spring_specs], dtype=int)
    ends = [(body_q[si], body_q[sj], body_v[si], body_v[sj])]
    stiffness = [np.array([sp["stiffness"] for sp in spring_specs], dtype=float)]
    lengths = np.linalg.norm(q[triples(body_q[si])] - q[triples(body_q[sj])], axis=1)
    rest = [np.array([sp.get("rest", d) for sp, d in zip(spring_specs, lengths)], dtype=float)]
    if lat is not None:
        q[triples(lat_q)] = _lattice_nodes(lat, seed)
        node_mass.append(np.full(n_lat, float(lat["mass"])))
        node_radius.append(np.full(n_lat, float(lat.get("node_radius", 0.45 * lat["spacing"]))))
        a, b = _lattice_edges(lat["nx"], lat["ny"], lat["nz"], lat.get("diagonals", True)).T
        ends.append((lat_q[a], lat_q[b], lat_v[a], lat_v[b]))
        stiffness.append(np.full(a.shape[0], float(lat["stiffness"])))
        rest.append(np.linalg.norm(q[triples(lat_q[a])] - q[triples(lat_q[b])], axis=1))

    node_arrays = [
        np.concatenate([part_q, lat_q]),
        np.concatenate([part_v, lat_v]),
        np.concatenate(node_mass),
        np.concatenate(node_radius),
    ]
    spring_arrays = [np.concatenate(parts) for parts in (*zip(*ends), stiffness, rest)]
    # fresh arrays that nothing else holds: read-only, the records keep them rather than copies
    for a in node_arrays + spring_arrays + [q, v]:
        a.flags.writeable = False
    bodies = Bodies(*node_arrays, rigid)
    damp_spec = data.get("damping", {"variant": "constant", "value": 0.0})
    springs = Springs(*spring_arrays, DampingPolicy(damp_spec["variant"], damp_spec.get("value", 0.0)))
    state = SystemState(q, v, dt)

    contact = data.get("contact", {})
    mu = contact.get("mu", 0.5)
    mu2 = contact.get("mu2")
    k_v = cfg.kv if cfg.kv is not None else contact.get("kv")
    if k_v is None:
        masses = np.concatenate([bodies.node_mass, rigid.mass])
        k_v = 1e5 * float(np.median(masses if masses.size else [1.0])) / dt
    stab = StabilizationParams(
        beta_err=contact.get("beta_err", 0.2),
        e_rest=contact.get("e_rest", 0.0),
        v_rest_threshold=contact.get("restitution_threshold", 0.01),
    )

    force_entries = []
    for f in data.get("forces", []):
        start = f.get("start", 0.0)
        end = f.get("end", s.duration)
        vec = np.array(f["force"], dtype=float)
        offsets = [body_v[f["body"]]] if "body" in f else []
        offsets.extend(body_v[bi] for bi in f.get("bodies", []))
        sel = f.get("lattice")
        if sel is not None:
            per_layer = lat["nx"] * lat["ny"]
            offsets.extend({"all": lat_v, "top": lat_v[-per_layer:], "bottom": lat_v[:per_layer]}[sel])
        if not f.get("per_node", True):
            vec = vec / len(offsets)
        # per-target rows: np.add.at (NumPy 2.4.6) writes garbage when it
        # has to broadcast a (3,) value over (k, 3) indices
        force_entries.append((start, end, triples(offsets), np.tile(vec, (len(offsets), 1))))

    gravity = np.array(data.get("gravity", DEFAULT_GRAVITY), dtype=float)
    return Scene(bodies, state, geometry, springs, force_entries, stab, mu, mu2, k_v, gravity)


def external_force(scene: Scene, t: float) -> np.ndarray:
    """Gravity plus the piecewise-constant schedule, at simulation time t,
    over the scene's velocities."""
    f = scene.gravity_force.copy()
    for start, end, idx, force in scene.force_entries:
        if start <= t < end:
            np.add.at(f, idx, force)
    return f


def _warm_velocity(prev_vhat: np.ndarray, aug, n_orig: int) -> np.ndarray:
    """Previous-step representative velocity (the scene's velocity on the
    first step), extended to this step's virtual nodes as their sources'
    velocities, v + w x r on a rigid body."""
    v0 = np.zeros(aug.n)
    v0[:n_orig] = prev_vhat[:n_orig]
    if aug.contacts.n_virtual:
        v0[n_orig:] = aug.contacts.virtual_velocity(v0[:n_orig])
    return v0


def _warm_impulses(key: np.ndarray, prev_key: np.ndarray, prev_lam: np.ndarray) -> np.ndarray | None:
    """Each contact's impulse from the previous step, matched by provenance
    key, zero for a new contact; None when the previous step had none."""
    if not prev_key.shape[0]:
        return None
    order = np.argsort(prev_key)
    pos = order[np.minimum(np.searchsorted(prev_key, key, sorter=order), order.shape[0] - 1)]
    return np.where((prev_key[pos] == key)[:, None], prev_lam[pos], 0.0).ravel()


def run(s: Scenario, cfg: RunConfig | None = None) -> RunResult:
    """Simulate a scenario and collect per-step metrics.

    A run holds one step's arrays at a time: each step runs in ``_step``,
    and only the next state and the warm starts outlive it.

    Settings it cannot run are rejected before the first step: an unknown
    solver or operator, a ``kv`` or ``residual_tol`` that is not a finite
    positive number, ``max_iters`` below 1, a negative seed, and the
    strict-anisotropic operator under a baseline, which solves the isotropic
    proximal model only.
    """
    cfg = cfg or RunConfig()
    if cfg.solver not in SOLVERS:
        raise ScenarioValidationError(f"unknown solver {cfg.solver!r}, expected one of {SOLVERS}")
    if cfg.operator not in OPERATORS:
        raise ScenarioValidationError(f"unknown operator {cfg.operator!r}, expected one of {OPERATORS}")
    if not (math.isfinite(cfg.residual_tol) and cfg.residual_tol > 0):
        raise ScenarioValidationError(f"residual_tol must be finite and > 0, got {cfg.residual_tol!r}")
    if cfg.kv is not None and not (math.isfinite(cfg.kv) and cfg.kv > 0):
        raise ScenarioValidationError(f"kv must be finite and > 0, got {cfg.kv!r}")
    if cfg.max_iters < 1:
        raise ScenarioValidationError(f"max_iters must be at least 1, got {cfg.max_iters}")
    if cfg.seed is not None and cfg.seed < 0:
        raise ScenarioValidationError(f"seed must be at least 0, got {cfg.seed}")
    baseline = None if cfg.solver == "cond" else bl.solve_pgs if cfg.solver == "pgs" else bl.solve_apgd
    if baseline is not None and cfg.operator == "strict-anisotropic":
        raise ScenarioValidationError(f"solver {cfg.solver!r} does not support operator 'strict-anisotropic'")
    solver_cfg = SolverConfig(
        operator=cfg.operator,
        residual_tol=cfg.residual_tol,
        max_iters=cfg.max_iters,
        chebyshev=cfg.chebyshev,
    )
    scene = build_scene(s, cfg)
    state = scene.state
    rows = []
    result = RunResult(rows, state)
    prev = (state.v, np.zeros(0, dtype=np.int64), np.zeros((0, 3)))
    for step in range(s.n_steps):
        state, prev, row = _step(scene, state, prev, step, step * s.step_size, cfg, solver_cfg, baseline)
        rows.append(row)
        if cfg.record_positions:
            result.positions.append(state.q.copy())

    result.state = state
    return result


def _step(scene: Scene, state: SystemState, prev: tuple, step: int, t_sim: float, cfg: RunConfig, solver_cfg: SolverConfig, baseline):
    """One step of ``run`` from ``state`` at simulation time ``t_sim``.

    ``prev`` is what the step before left for this one's warm starts: its
    representative velocity (the scene's velocity on the first step), its
    contacts' provenance keys and their impulses. Returns the next state,
    this step's ``prev`` and its metrics row. The step's assembled and
    augmented systems, its contacts and its solution are locals here and
    are freed on return, before the next step assembles.
    """
    prev_vhat, prev_key, prev_lam = prev
    bodies = scene.bodies
    t0 = time.perf_counter()
    f_ext = external_force(scene, t_sim)
    asm = assemble_step(state, bodies, scene.constraints, f_ext)
    detected = detect_contacts(state, bodies, scene.geometry)
    max_pen = detected.depth.max(initial=0.0)
    nodal = nodalize(detected, state, scene.k_v, scene.mu, scene.mu2, scene.stab)
    aug = augment_dynamics(asm, nodal)
    dyn_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    if baseline is None or not len(nodal):
        try:
            v_hat_full, lam, rep = solve_vfpi(aug, solver_cfg, _warm_velocity(prev_vhat, aug, asm.n))
        except DivergenceError:
            v_hat_full, rep = None, SolverReport()
    else:
        prob = bl.assemble_delassus(aug)
        t1 = time.perf_counter()  # keep assembly out of solver time
        bcfg = bl.BaselineConfig(
            residual_tol=cfg.residual_tol,
            max_iters=cfg.max_iters,
            warm_start=_warm_impulses(detected.key, prev_key, prev_lam),
        )
        lam, rep = baseline(prob, bcfg)
        v_hat_full = bl.recover_velocity(prob, lam.ravel())
    diverged = v_hat_full is None or not np.all(np.isfinite(v_hat_full))
    if diverged:
        # flagged zero-impulse fallback: take the contact-free step
        from scipy.sparse.linalg import cg

        v_hat_full, info = cg(asm.a, asm.b, rtol=1e-10, maxiter=10 * asm.n)
        if info != 0:
            raise DivergenceError("contact-free fallback did not converge")
        v_hat_full = np.concatenate([v_hat_full, np.zeros(aug.n - asm.n)])
        lam = np.zeros((len(nodal), 3))
    solve_s = time.perf_counter() - t1

    v_hat = v_hat_full[: asm.n]
    state = integrate(state, v_hat, bodies)
    row = MetricsRow(
        step=step,
        dyn_ms=1e3 * dyn_s,
        solve_ms=1e3 * solve_s,
        iters=rep.iterations,
        residual=float(rep.residual_trace[-1]) if rep.residual_trace else 0.0,
        max_pen_m=float(max_pen),
        contacts=len(nodal),
        ke_J=kinetic_energy(state, bodies),
        diverged=diverged,
        converged=rep.converged,
        consistency=rep.consistency,
    )
    return state, (v_hat, detected.key, lam), row


def analytic_box_slide(params: dict) -> np.ndarray:
    """Sliding-box oracle under constant tangential force.

    Returns the y positions at each step boundary, computed with the same
    midpoint discretization as the integrator so the comparison isolates
    contact error. Static friction holds the box when F_y <= mu m g.
    """
    m, mu, f_y, g = params["m"], params["mu"], params["F_y"], params.get("g", 9.81)
    t = params["t_k"]
    n = int(round(params["T"] / t))
    y0 = params.get("y0", 0.0)
    if params.get("F_z", 0.0) >= m * g:
        raise UnsupportedRegimeError("vertical force implies lift-off")
    ys = np.empty(n + 1)
    ys[0] = y0
    if f_y <= mu * m * g:
        ys[:] = y0
        return ys
    a = (f_y - mu * m * g) / m
    v = params.get("v0", 0.0)
    y = y0
    for k in range(n):
        v_hat = v + 0.5 * a * t
        y += t * v_hat
        v += a * t
        ys[k + 1] = y
    return ys


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


# the CSV contract: the MetricsRow fields written, in this order
CSV_COLUMNS = ("step", "dyn_ms", "solve_ms", "iters", "residual", "max_pen_m", "contacts", "ke_J")
CSV_HEADER = ",".join(CSV_COLUMNS)


def report_csv(rows, path: str) -> None:
    """Write metrics rows with deterministic 17-significant-digit formatting."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(_fmt(getattr(r, c)) for c in CSV_COLUMNS))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_csv(path: str):
    """Round-trip reader for report_csv output; each column is parsed by its
    MetricsRow field type."""
    types = typing.get_type_hints(MetricsRow)
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ScenarioValidationError(f"unexpected CSV header {header!r}")
        for line in fh:
            parts = line.strip().split(",")
            rows.append(MetricsRow(**{c: types[c](x) for c, x in zip(CSV_COLUMNS, parts)}))
    return rows


def scenario_with_size(s: Scenario, n_dof: int) -> Scenario:
    """Rescale the scenario's lattice footprint to roughly n_dof velocity DOF,
    keeping layer count and spacing."""
    data = json.loads(json.dumps(s.raw))
    lat = data.get("lattice")
    if lat is None:
        raise ScenarioValidationError("bench sizes require a lattice scenario")
    nz = lat["nz"]
    nodes = max(1, n_dof // 3)
    side = max(1, int(round(math.sqrt(nodes / nz))))
    lat["nx"] = side
    lat["ny"] = side
    return Scenario(data, s.path)


@dataclass
class BenchPoint:
    n: int
    solve_s: float  # per step: median over the repeated runs; then the mean over steps
    mean_dyn_s: float
    mean_iters: float


@dataclass
class BenchResult:
    points: list
    exponent: float | None = None
    r_squared: float | None = None


def bench_scaling(s: Scenario, sizes, cfg: RunConfig | None = None, steps_cap: int | None = None) -> BenchResult:
    """Run the scenario at several lattice sizes and fit log(time) vs log(n).

    The sizes run ``BENCH_REPEATS`` times in turn, so a drift in host speed
    reaches every size alike. A size's time is the median over its runs of
    each step's solve time, averaged over the steps: a slow run moves a
    median less than a mean, and every size averages the same steps.

    No size, a size below 1, or lattices not growing in DOF from size to
    size raise ``ScenarioValidationError``.
    """
    cfg = cfg or RunConfig()
    if not len(sizes) or min(sizes) < 1:
        raise ScenarioValidationError(f"bench needs one or more sizes, each at least 1, got {list(sizes)}")
    scenarios = []
    for size in sizes:
        sc = scenario_with_size(s, size)
        if steps_cap is not None:
            sc = Scenario({**sc.raw, "duration": sc.raw["step_size"] * steps_cap}, sc.path)
        scenarios.append(sc)
    dofs = [3 * math.prod(sc.raw["lattice"][axis] for axis in ("nx", "ny", "nz")) for sc in scenarios]
    bad = next((k for k in range(1, len(dofs)) if dofs[k] <= dofs[k - 1]), None)
    if bad is not None:
        raise ScenarioValidationError(
            f"bench sizes {sizes[bad - 1]} and {sizes[bad]} give lattices of {dofs[bad - 1]} and {dofs[bad]} DOF; "
            "each size must give a larger lattice"
        )
    rows = [[] for _ in sizes]
    for _ in range(BENCH_REPEATS):
        for k, sc in enumerate(scenarios):
            rows[k].extend(run(sc, cfg).rows)
    points = []
    for n_dof, size_rows in zip(dofs, rows):
        solve_ms = np.reshape([r.solve_ms for r in size_rows], (BENCH_REPEATS, -1))  # run x step
        points.append(
            BenchPoint(
                n_dof,
                float(np.median(solve_ms, axis=0).mean()) / 1e3,
                float(np.mean([r.dyn_ms for r in size_rows])) / 1e3,
                float(np.mean([r.iters for r in size_rows])),
            )
        )

    result = BenchResult(points)
    if len(points) >= 2:
        xs = np.log(np.array([p.n for p in points], dtype=float))
        ys = np.log(np.array([max(p.solve_s, 1e-12) for p in points]))
        slope, intercept = np.polyfit(xs, ys, 1)
        pred = slope * xs + intercept
        ss_res = float(np.sum((ys - pred) ** 2))
        ss_tot = float(np.sum((ys - ys.mean()) ** 2))
        result.exponent = float(slope)
        result.r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return result
