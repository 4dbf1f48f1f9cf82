"""Command line front end.

Subcommands cover the main workflows: ``validate`` checks Monte-Carlo
estimates against the closed forms, ``figure`` reproduces the result
sweeps, ``allocate`` prints a pilot power allocation for one scenario,
``bench`` times the allocator, and ``fixture-check`` lints a saved
attenuation table.  All tabular output is CSV with LF line endings and
full-precision floats, so reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .estimators import LS, METHODS
from .harness import (EXPERIMENTS, SCHEMES, bench_allocators, default_config,
                      drop_gains, plan_for, reference_solve, run_experiment)
from .ppa import eppa_profile, objective_value, ppa_allocate
from .scenario import ConfigurationError, SystemConfig, load_beta_fixture

SEED_ENV = "MIMO_PILOT_SEED"

FIGURES = tuple(e for e in EXPERIMENTS if e != "validate")
ALLOCATE_COLUMNS = ("user", "rho_pilot", "group", "objective")
BENCH_COLUMNS = ("K", "ppa_seconds", "refsolver_seconds", "speedup")

# Monte-Carlo agreement bands for ``validate --check``
RCEE_CHECK_RTOL = 0.03
SINR_CHECK_RTOL = 0.05
# ``allocate --check``: the minimized objective of the printed allocation
# vs the iterative reference solver
ALLOCATE_CHECK_RTOL = 1.0e-4


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def emit_csv(columns, rows, out: str | None = None) -> None:
    """Write rows as CSV; ``out=None`` means stdout.  None cells are blank."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="\n")


def _gamma_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated integer list")


def _resolve_seed(args) -> int | None:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigurationError(f"{SEED_ENV}={env!r} is not an integer")
    return None


def _load_config(args, experiment: str) -> SystemConfig:
    cfg = (SystemConfig.from_file(args.config) if args.config
           else default_config(experiment))
    seed = _resolve_seed(args)
    if seed is not None:
        cfg = cfg.replace(seed=seed)
    return cfg


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="key = value configuration file")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"root seed (default: ${SEED_ENV} or the config)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write CSV here instead of stdout")


def _cmd_validate(args) -> int:
    cfg = _load_config(args, "validate")
    plan = plan_for("validate", n_small=args.trials, jobs=args.jobs)
    report = run_experiment(plan, cfg)
    emit_csv(report.columns, report.rows, args.out)
    if not args.check:
        return 0
    return _check_report(report)


def _check_report(report) -> int:
    """Compare each Monte-Carlo mean with its closed form; 0 if all agree."""
    idx = {c: i for i, c in enumerate(report.columns)}
    failed = 0
    for row in report.rows:
        metric = row[idx["metric"]]
        mc, se, closed = (row[idx["mc_mean"]], row[idx["mc_stderr"]],
                          row[idx["closed_form"]])
        rtol = RCEE_CHECK_RTOL if metric == "exp_rcee" else SINR_CHECK_RTOL
        rel = abs(mc - closed) / abs(closed)
        ok = rel <= rtol or (se is not None and abs(mc - closed) <= 3.0 * se)
        status = "PASS" if ok else "FAIL"
        failed += not ok
        print(f"check {metric} {row[idx['scheme']]}/{row[idx['method']]}: "
              f"mc={mc:.6g} closed={closed:.6g} rel={rel:.2%} {status}",
              file=sys.stderr)
    return 1 if failed else 0


def _cmd_figure(args) -> int:
    cfg = _load_config(args, args.name)
    schemes = ("eppa", "ppa", "ref") if args.with_ref else None
    plan = plan_for(args.name, paper_scale=args.paper_scale, gammas=args.gamma,
                    jobs=args.jobs, schemes=schemes, n_large=args.drops,
                    n_small=args.trials)
    report = run_experiment(plan, cfg)
    emit_csv(report.columns, report.rows, args.out)
    return 0


def _cmd_allocate(args) -> int:
    seed = _resolve_seed(args)
    if args.beta:
        beta_slice = load_beta_fixture(args.beta)
        L, K = beta_slice.shape
        if args.config:
            cfg = SystemConfig.from_file(args.config)
            if cfg.K != K:
                raise ConfigurationError(
                    f"config has K={cfg.K} but the fixture has {K} users")
        else:
            cfg = default_config("fig3")
            cfg = cfg.replace(K=K, L=L, mu=min(cfg.mu, (K + 1) / 2))
        if seed is not None:
            cfg = cfg.replace(seed=seed)
    else:
        cfg = _load_config(args, "fig3")
        beta_slice = drop_gains(cfg, 0)  # drop 0 of the sweeps

    profile = eppa_profile(beta_slice, cfg.P_total, cfg.K)
    ref = (reference_solve(args.method, profile, cfg)
           if args.scheme == "ref" or args.check else None)
    groups = [""] * cfg.K
    if args.scheme == "eppa":
        rho = np.full(cfg.K, cfg.P_total / cfg.K)
    elif args.scheme == "ref":
        rho = ref.x
    else:
        alloc = ppa_allocate(args.method, profile, cfg)
        rho = alloc.rho
        for k in alloc.at_min:
            groups[k] = "min"
        for k in alloc.at_max:
            groups[k] = "max"
        for k in alloc.free:
            groups[k] = "free"

    objective = objective_value(args.method, rho, profile, cfg.M)
    rows = [(k, float(rho[k]), groups[k], objective if k == 0 else None)
            for k in range(cfg.K)]
    emit_csv(ALLOCATE_COLUMNS, rows, args.out)
    if not args.check:
        return 0
    # both solvers minimize the bound (the exact error under LS), so the
    # check compares it, not the CSV's exact error
    objective = objective_value(args.method, rho, profile, cfg.M, exact=False)
    reference = objective_value(args.method, ref.x, profile, cfg.M, exact=False)
    rel = (objective - reference) / abs(reference)
    # an unconverged reference bounds nothing, so the check fails on it
    ok = ref.converged and rel <= ALLOCATE_CHECK_RTOL
    solver = ("" if ref.converged else f" kkt={ref.kkt:.3e} converged=False "
              f"iterations={ref.iterations} pg_norm={ref.pg_norm:.3e}")
    print(f"check allocate {args.scheme}/{args.method}: objective={objective!r} "
          f"refsolver={reference!r} rel={rel:.3e}{solver} {'PASS' if ok else 'FAIL'}",
          file=sys.stderr)
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    if args.kmax < 2:
        raise ValueError("kmax must be at least 2")
    seed = _resolve_seed(args)
    rows = bench_allocators(k_values=tuple(range(2, args.kmax + 1)),
                            seed=0 if seed is None else seed)
    emit_csv(BENCH_COLUMNS, rows, args.out)
    return 0


def _cmd_fixture_check(args) -> int:
    L, K = load_beta_fixture(args.beta).shape
    print(f"ok: cells={L} users={K}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimo-pilot",
        description="Multi-cell massive-MIMO pilot contamination simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate",
                       help="Monte-Carlo vs closed forms on one user drop")
    _add_common(p)
    p.add_argument("--trials", type=int, default=None,
                   help="fading trials (default 4000)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the drops' Monte-Carlo")
    p.add_argument("--check", action="store_true",
                   help="exit 1 unless Monte-Carlo matches the closed forms")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("figure", help="run one result sweep and emit CSV")
    p.add_argument("name", choices=FIGURES)
    _add_common(p)
    p.add_argument("--gamma", type=_gamma_list, default=None, metavar="LIST",
                   help="comma-separated reuse factors, e.g. 1,3,7")
    p.add_argument("--paper-scale", action="store_true",
                   help="full sampling depth instead of desk scale")
    p.add_argument("--drops", type=int, default=None,
                   help="override the number of user drops")
    p.add_argument("--trials", type=int, default=None,
                   help="override the fading trials per drop")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the drops' Monte-Carlo and reference solves")
    p.add_argument("--with-ref", action="store_true",
                   help="also run the iterative reference solver")
    p.set_defaults(handler=_cmd_figure)

    p = sub.add_parser("allocate",
                       help="pilot powers for one scenario realization")
    _add_common(p)
    p.add_argument("--method", choices=METHODS, default=LS)
    p.add_argument("--scheme", choices=SCHEMES, default="ppa")
    p.add_argument("--beta", metavar="FILE",
                   help="attenuation fixture instead of a random drop")
    p.add_argument("--check", action="store_true",
                   help="exit 1 unless the objective matches the reference "
                        "solver within 1e-4 relative")
    p.set_defaults(handler=_cmd_allocate)

    p = sub.add_parser("bench", help="time the allocator vs the reference solver")
    _add_common(p)
    p.add_argument("--kmax", type=int, default=10,
                   help="largest cell load to time")
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("fixture-check", help="lint an attenuation fixture")
    p.add_argument("beta", metavar="FILE")
    p.set_defaults(handler=_cmd_fixture_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
