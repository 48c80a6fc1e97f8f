"""Command-line interface: run a scenario or benchmark scaling.

Exit codes: 0 success, 2 scenario or option validation error (also a
baseline solver on a system beyond its dense capacity or under the
strict-anisotropic operator), 3 divergence in any step (also when the
contact-free fallback of a diverged step does not converge), 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import CapacityError, DivergenceError, ScenarioValidationError
from .harness import (
    SOLVERS,
    RunConfig,
    bench_scaling,
    load_scenario,
    report_csv,
    run,
)
from .solver import OPERATORS

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--solver", choices=SOLVERS, default="cond")
    p.add_argument("--operator", choices=OPERATORS, default="strict")
    p.add_argument("--residual-tol", type=float, default=1e-4)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--chebyshev", choices=["on", "off"], default="off",
                   help="Chebyshev weighting on tie-free systems; tied ones use Anderson acceleration")
    p.add_argument("--kv", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="condsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("--scenario", required=True)
    _add_solver_args(p_run)

    p_bench = sub.add_parser("bench", help="scaling benchmark over lattice sizes")
    p_bench.add_argument("--scenario", required=True)
    p_bench.add_argument("--sizes", required=True, help="comma-separated DOF counts, ascending")
    _add_solver_args(p_bench)
    return parser


def _run_cfg(args) -> RunConfig:
    return RunConfig(
        solver=args.solver,
        operator=args.operator,
        residual_tol=args.residual_tol,
        max_iters=args.max_iter,
        chebyshev=args.chebyshev == "on",
        kv=args.kv,
        seed=args.seed,
    )


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    result = run(scenario, _run_cfg(args))
    if args.out:
        report_csv(result.rows, args.out)
    else:
        last = result.rows[-1] if result.rows else None
        unconverged = sum(not r.converged and not r.diverged for r in result.rows)
        diverged = sum(r.diverged for r in result.rows)
        print(f"steps={len(result.rows)} unconverged={unconverged} diverged={diverged}")
        if last is not None:
            print(
                f"final: iters={last.iters} residual={last.residual:.3e} "
                f"max_pen_m={last.max_pen_m:.3e} ke_J={last.ke_J:.6e}"
            )
    if result.any_diverged:
        print("warning: divergence fallback used on at least one step", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_bench(args) -> int:
    scenario = load_scenario(args.scenario)
    try:
        sizes = [int(x) for x in args.sizes.split(",") if x]
    except ValueError:
        raise ScenarioValidationError(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    res = bench_scaling(scenario, sizes, _run_cfg(args))
    lines = ["n,solve_s,mean_dyn_s,mean_iters"]
    for p in res.points:
        lines.append(
            f"{p.n},{p.solve_s:.17g},{p.mean_dyn_s:.17g},{p.mean_iters:.17g}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if res.exponent is not None:
        print(f"fit: exponent={res.exponent:.4f} r_squared={res.r_squared:.4f}")
    else:
        print("fit: exponent=absent (need at least two sizes)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_bench(args)
    except (ScenarioValidationError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
