"""Serial benchmark of condsim: one workload in one single-threaded process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; condsim is imported from ``src/``.
The seed generates the workload's scenario, which is written to
``perfbench/out/`` and set up through ``harness.load_scenario`` and
``harness.build_scene``. Whole rounds of the workload's fixed number of steps
then run through ``harness.run`` for about S seconds, each from a freshly
built scene, and every step is checked against the oracles in ``oracles.py``.
Every timed interval (a set-up, a simulated step) is bracketed by the
calibration job of ``calibrate.py`` and rescaled to a reference host speed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(``setup_s``, ``run_s``, ``peak_rss_mb``); with ``--trace 1`` it reports the
per-layer metrics of ``tracing.Tracer`` from alternating traced and untraced
rounds, and the trace is written to ``perfbench/out/``. Metric names and
units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

# one thread for BLAS and OpenMP; this must happen before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy.sparse as sp

import oracles
import tracing
import workloads as W
from calibrate import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 9  # set-ups per run; setup_s is their median


def load_condsim():
    """Import condsim from the checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "condsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no condsim sources at {src}")
    sys.path.insert(0, str(src))
    import condsim
    from condsim import contacts, harness, solver

    if Path(condsim.__file__).resolve().parent != src / "condsim":
        raise SystemExit(f"perfbench: condsim imported from {condsim.__file__}, not {src}")
    return harness, solver, contacts


class BoundaryCheck:
    """Wraps ``solve_vfpi`` to check every solve where it returns; the time
    the check takes is excluded from the step's timing."""

    def __init__(self, tol: float, clock: Clock):
        self.tol = tol
        self.clock = clock
        self.results = []  # per solve: oracles.check_contact_step dict, None if it raised

    def wrap(self, solve):
        def wrapped(aug, *args, **kwargs):
            try:
                out = solve(aug, *args, **kwargs)
            except Exception:
                self.results.append(None)
                raise
            t0 = perf_counter()
            arrays = boundary_arrays(aug, out[0], out[1])
            self.results.append(oracles.check_contact_step(**arrays, tol=self.tol))
            self.clock.exclude(perf_counter() - t0)
            return out

        return wrapped


def boundary_arrays(aug, v, lam) -> dict:
    """What ``oracles.check_contact_step`` needs from one solve: the augmented
    system, the velocity and impulses it returned, J_c built from the contact
    frames and columns, and the contacts' phi and mu."""
    cs = aug.contacts.contacts
    return {
        "a": sp.csc_matrix((aug.a.data, aug.a.indices, aug.a.indptr), shape=(aug.n, aug.n)),
        "b": aug.b,
        "v": v,
        "lam": np.asarray(lam).reshape(-1, 3),
        "jc": oracles.contact_jacobian(aug.frames, aug.col_i, aug.col_j, aug.n),
        "phi": np.array([c.phi_n for c in cs], dtype=float),
        "mu": np.array([c.mu for c in cs], dtype=float),
    }


def check_round(w, params: dict, res, boundary: list) -> dict:
    """Per-step verdicts of one round: flagged by the program (diverged or
    unconverged) or failing an oracle."""
    rows = res.rows
    flagged = np.array([r.diverged or not r.converged for r in rows])
    q = np.array(res.positions)
    checks = {}
    if w.kind == "lattice":
        checks["penetration"] = oracles.check_nodes_above_floor(q[:, 2::3], params["node_radius"])
        for key in ("balance", "cone", "gap_violation", "complementarity"):
            vals = [np.inf if b is None else b[key] for b in boundary]
            checks[key] = (np.array([b is not None and b["ok"] for b in boundary]), float(max(vals)))
    else:
        oracle = oracles.check_box_slide if w.kind == "box" else oracles.check_aniso_slide
        checks["trajectory"] = oracle(q[:, :3], params)
        checks["height"] = oracles.check_cube_on_floor(q[:, :3])
    bad = np.zeros(len(rows), dtype=bool)
    for ok, _ in checks.values():
        if len(ok) != len(rows):
            raise RuntimeError(f"check covers {len(ok)} of {len(rows)} steps")
        bad |= ~ok
    digest = hashlib.sha256(q.tobytes() + np.array([r.iters for r in rows]).tobytes()).hexdigest()
    return {
        "steps": len(rows),
        "failed": int(np.sum(flagged | bad)),
        "check_failed": int(np.sum(bad)),
        "worst": {k: v[1] for k, v in checks.items()},
        "digest": digest,
    }


def oracle_params(w, seed: int) -> dict:
    if w.kind == "box":
        return W.box_params(seed)
    if w.kind == "aniso":
        return W.aniso_params(seed)
    return {"node_radius": W.scenario(w, seed)["lattice"]["node_radius"]}


def run_round(mods, w, path: str, params: dict, tracer=None) -> dict:
    """Set up a fresh scene, run it through ``harness.run`` and check it.

    Each step is timed from one ``external_force`` call (the first layer of
    a step) to the next, with calibration jobs in between.
    """
    harness, solver, contacts = mods
    cfg = harness.RunConfig(**w.run_config)
    s = harness.load_scenario(path)
    scene = harness.build_scene(s, cfg)

    def prebuilt(s_arg, cfg_arg=None):
        if s_arg is not s:
            raise RuntimeError("harness.run built an unexpected scenario")
        return scene

    clock = Clock()
    check = BoundaryCheck(cfg.residual_tol, clock)
    with contextlib.ExitStack() as stack:
        stack.enter_context(tracing.replaced(harness, "build_scene", prebuilt))
        if tracer is not None:
            stack.enter_context(tracer.attached(harness, solver, contacts.ContactMap))
        if w.kind == "lattice":
            stack.enter_context(tracing.replaced(harness, "solve_vfpi", check.wrap(harness.solve_vfpi)))
        external_force = harness.external_force

        begun = False

        def step_boundary(*args, **kwargs):
            nonlocal begun
            if begun:
                clock.split()
            begun = True
            return external_force(*args, **kwargs)

        stack.enter_context(tracing.replaced(harness, "external_force", step_boundary))
        clock.start()
        res = harness.run(s, cfg)
        clock.split()
    if tracer is not None:
        tracer.round_s[tracer.round] = sum(clock.wall)
    out = check_round(w, params, res, check.results)
    out["run_s"] = sum(clock.scaled())
    out["wall_s"] = sum(clock.wall)
    return out


def timed_setups(harness, cfg, path: str, reps: int, tracer=None) -> tuple[list, list]:
    """Time ``load_scenario`` + ``build_scene`` ``reps`` times; returns the
    rescaled and the wall times of each."""
    clock = Clock()
    clock.start()
    for _ in range(reps):
        t0 = perf_counter()
        s = harness.load_scenario(path)
        t1 = perf_counter()
        harness.build_scene(s, cfg)
        t2 = perf_counter()
        clock.split()
        if tracer is not None:
            tracer.record_setup("harness.load_scenario", t0, t1)
            tracer.record_setup("harness.build_scene", t1, t2)
    return clock.scaled(), clock.wall


def declared_units(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def write_json(path: Path, data) -> str:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
    return str(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = declared_units(bool(args.trace))
    mods = load_condsim()
    harness = mods[0]
    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    w = W.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}"
    path = write_json(OUT / f"{stem}.json", W.scenario(w, args.seed))
    params = oracle_params(w, args.seed)
    cfg = harness.RunConfig(**w.run_config)

    warm = write_json(OUT / f"{stem}-warmup.json", W.warmup_scenario(w, args.seed))
    harness.run(harness.load_scenario(warm), cfg)

    tracer = tracing.Tracer() if args.trace else None
    setup_s, setup_wall = timed_setups(harness, cfg, path, SETUP_REPS, tracer)

    rounds = []
    t_start = perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        t0 = perf_counter()
        r = run_round(mods, w, path, params, tracer if traced else None)
        r["traced"] = traced
        r["round_s"] = perf_counter() - t0
        rounds.append(r)
        typical = statistics.median(x["round_s"] for x in rounds)
        done = perf_counter() - t_start + typical > args.seconds
        if done and (tracer is None or len(rounds) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reproducible = all(r["digest"] == rounds[0]["digest"] for r in rounds)
    attempted = sum(r["steps"] for r in rounds)
    failed = attempted if not reproducible else sum(r["failed"] for r in rounds)
    correct = reproducible and not any(r["check_failed"] for r in rounds)
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_s),
            "run_s": statistics.median(r["run_s"] for r in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        values = tracer.per_layer()
        traced_s = statistics.median(r["wall_s"] for r in rounds if r["traced"])
        values["trace.run_s"] = traced_s
        values["trace.overhead_s"] = traced_s - statistics.median(
            r["wall_s"] for r in rounds if not r["traced"]
        )
        tracer.dump(OUT / f"{stem}-trace.json")
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")

    worst = {}
    for r in rounds:
        for k, v in r["worst"].items():
            worst[k] = max(worst.get(k, 0.0), v)
    summary = {
        "workload": w.name, "seed": args.seed, "trace": args.trace, "rounds": len(rounds),
        "round_run_s": [r["run_s"] for r in rounds], "round_wall_s": [r["wall_s"] for r in rounds],
        "setup_s": setup_s, "setup_wall_s": setup_wall,
        "worst": worst, "reproducible": reproducible,
    }
    write_json(OUT / f"{stem}-trace{args.trace}-summary.json", summary)
    print(json.dumps(summary))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
