"""Command line interface.

Exit codes: 0 success, 2 bad configuration or arguments, 3 scaffold
verification found violations, 1 unexpected internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .harness import (
    BACKENDS,
    PLAIN_MATERIALIZE_MAX,
    ConfigError,
    ScenarioConfig,
    check_dominance,
    dump_summary,
    measure_costs,
    run_monte_carlo,
    run_trial,
    write_trials_csv,
)
from .primitives import OutputRef, Rng
from .scaffold import (
    DEPOSIT_ATOMIC,
    DEPOSIT_HASHLOCKED,
    MODE_MULTIINPUT,
    MODE_PLAIN,
    IdealMpcOracle,
    build_tournament,
    dump_tournament,
    export_dot,
    load_tournament,
    verify_as_honest,
)
from .strategies import strategy_names

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_VIOLATIONS = 3


def _parse_seed(text: str):
    return int(text) if text.lstrip("-").isdigit() else text


def _statistics_only(args) -> bool:
    """Whether the scaffold is plain beyond the size cap: reported by closed form, never written out."""
    return args.mode == MODE_PLAIN and args.n > PLAIN_MATERIALIZE_MAX


def _build_scaffold(args, write_out: bool):
    """Construct a scaffold from CLI parameters with synthetic funding refs.

    Construction checks the parameters first (its plain kernels are built
    only when read, so this is cheap at any n); then asking to write out
    (`write_out`) a statistics-only scaffold is a configuration error.
    """
    rng = Rng(_parse_seed(args.seed))
    n = args.n
    keys = [rng.child(f"key/{i}").bytes(32) for i in range(n)]
    funding = [OutputRef(rng.child(f"funding/{i}").bytes(32), 0) for i in range(n)]
    mpc_digest = None
    if args.deposit == DEPOSIT_HASHLOCKED:
        mpc = IdealMpcOracle(n)
        for i in range(n):
            mpc.collect(i, rng.child(f"mpc/{i}").nonzero_bytes(32))
        mpc_digest = mpc.digest()
    t = build_tournament(
        n,
        keys,
        funding,
        rng.child("scaffold"),
        args.t_commit,
        args.bet,
        args.tau,
        mode=args.mode,
        deposit_option=args.deposit,
        mpc_digest=mpc_digest,
    )
    if write_out and _statistics_only(args):
        raise ConfigError(f"plain scaffolds with n={n} are statistics-only and cannot be written out")
    return t


def _add_scaffold_args(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, default=4, help="player count (power of two)")
    p.add_argument("--mode", choices=(MODE_PLAIN, MODE_MULTIINPUT), default=MODE_PLAIN)
    p.add_argument("--deposit", choices=(DEPOSIT_ATOMIC, DEPOSIT_HASHLOCKED), default=DEPOSIT_ATOMIC)
    p.add_argument("--tau", type=int, default=6, help="timeout period in heights")
    p.add_argument("--t-commit", type=int, default=10, help="height the bracket starts")
    p.add_argument("--bet", type=int, default=1)
    p.add_argument("--seed", default="commitlotto")


def _add_scenario_args(p: argparse.ArgumentParser):
    p.add_argument("--backend", choices=BACKENDS, required=True)
    p.add_argument("--n", type=int, default=4)
    p.add_argument(
        "--strategies",
        default="honest",
        help="comma-separated per-player strategies, or one name for all "
        f"(known: {', '.join(strategy_names())})",
    )
    p.add_argument("--tau", type=int, default=6)
    p.add_argument("--t-commit", type=int, default=10)
    p.add_argument("--bet", type=int, default=1)
    p.add_argument("--deposit", choices=(DEPOSIT_ATOMIC, DEPOSIT_HASHLOCKED), default=DEPOSIT_ATOMIC)
    p.add_argument("--sig-model", choices=("multisig", "aggregate"), default="multisig")
    p.add_argument("--seed", default="commitlotto")


def _scenario_from_args(args, trials: int) -> ScenarioConfig:
    names = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if len(names) == 1:
        names = names * args.n
    return ScenarioConfig(
        backend=args.backend,
        n=args.n,
        strategies=tuple(names),
        tau=args.tau,
        t_commit=args.t_commit,
        bet=args.bet,
        deposit_option=args.deposit,
        sig_model=args.sig_model,
        trials=trials,
        master_seed=_parse_seed(args.seed),
    )


def cmd_build(args) -> int:
    """Emit scaffold statistics, materializing the full body set when feasible.

    Plain scaffolds beyond the size cap report the closed form, flagged
    materialized=false; asking for the scaffold file itself is then a
    configuration error.
    """
    t = _build_scaffold(args, write_out=bool(args.scaffold_out or args.dot))
    stats = t.stats
    if _statistics_only(args):
        stats = dataclasses.replace(stats, materialized=False)
    doc = {
        "n": args.n,
        "mode": args.mode,
        "deposit": args.deposit,
        "materialized": stats.materialized,
        "stats": stats.to_json(),
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fp:
            fp.write(text)
    if args.scaffold_out:
        with open(args.scaffold_out, "w") as fp:
            fp.write(dump_tournament(t))
        print(f"wrote scaffold with {stats.total_offchain} bodies -> {args.scaffold_out}", file=sys.stderr)
    if args.dot:
        with open(args.dot, "w") as fp:
            fp.write(export_dot(t))
    return EXIT_OK


def cmd_verify(args) -> int:
    with open(args.scaffold) as fp:
        t = load_tournament(fp.read())
    violations = verify_as_honest(t)
    if not violations:
        print(f"scaffold ok: n={t.n} mode={t.mode} bodies={t.stats.total_offchain}")
        return EXIT_OK
    for v in violations:
        where = f"kernel {tuple(v.kernel)}" if v.kernel is not None else "scaffold"
        print(f"VIOLATION {v.rule} at {where}: {v.detail}")
    print(f"{len(violations)} violation(s); do not sign", file=sys.stderr)
    return EXIT_VIOLATIONS


def cmd_run(args) -> int:
    cfg = _scenario_from_args(args, trials=1)
    result = run_trial(cfg, args.trial)
    print(json.dumps(result.__dict__, indent=2, sort_keys=True, default=str))
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _scenario_from_args(args, trials=args.trials)
    if not 0 <= args.eps <= 1:
        raise ConfigError(f"eps must be in [0, 1], got {args.eps}")
    summary = run_monte_carlo(cfg)
    if args.csv:
        with open(args.csv, "w", newline="") as fp:
            write_trials_csv(fp, summary.results, cfg.n)
    text = dump_summary(summary)
    if args.json and args.json != "-":
        with open(args.json, "w") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)
    report = check_dominance(summary, eps=args.eps)
    # keep stdout parseable when the summary goes there
    for line in report.lines:
        print(line, file=sys.stderr)
    if args.require_dominance and not report.ok:
        print("dominance check FAILED", file=sys.stderr)
        return EXIT_VIOLATIONS
    return EXIT_OK


def cmd_costs(args) -> int:
    report = measure_costs(
        args.backend,
        args.n,
        tau=args.tau,
        t_commit=args.t_commit,
        bet=args.bet,
        deposit_option=args.deposit,
        sig_model=args.sig_model,
        master_seed=_parse_seed(args.seed),
    )
    print(json.dumps(report.to_json(), indent=2))
    return EXIT_OK


def cmd_export_dot(args) -> int:
    if args.scaffold:
        with open(args.scaffold) as fp:
            t = load_tournament(fp.read())
    else:
        t = _build_scaffold(args, write_out=True)
    text = export_dot(t)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fp:
            fp.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commitlotto",
        description="Simulator for zero-collateral N-player commitment lotteries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a pre-signed scaffold and report its statistics")
    _add_scaffold_args(p)
    p.add_argument("--out", default="-", help="stats JSON path, - for stdout")
    p.add_argument("--scaffold-out", default=None, help="also write the full scaffold JSON here")
    p.add_argument("--dot", default=None, help="also write the spend graph as Graphviz")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("verify", help="check a scaffold file against honest construction")
    p.add_argument("scaffold", help="scaffold JSON file")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("run", help="run one trial and print the result")
    _add_scenario_args(p)
    p.add_argument("--trial", type=int, default=0, help="trial index (seeds the RNG)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="run many trials; write CSV rows and a JSON summary")
    _add_scenario_args(p)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--csv", default=None, help="write per-trial rows here")
    p.add_argument("--json", default="-", help="summary path, - for stdout")
    p.add_argument("--eps", type=float, default=0.02, help="win-frequency tolerance")
    p.add_argument("--require-dominance", action="store_true")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("costs", help="measure on-chain and off-chain footprint")
    p.add_argument("--backend", choices=BACKENDS, required=True)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--tau", type=int, default=6)
    p.add_argument("--t-commit", type=int, default=10)
    p.add_argument("--bet", type=int, default=1)
    p.add_argument("--deposit", choices=(DEPOSIT_ATOMIC, DEPOSIT_HASHLOCKED), default=DEPOSIT_ATOMIC)
    p.add_argument("--sig-model", choices=("multisig", "aggregate"), default="multisig")
    p.add_argument("--seed", default="costs")
    p.set_defaults(fn=cmd_costs)

    p = sub.add_parser("export-dot", help="render the scaffold spend graph as Graphviz")
    _add_scaffold_args(p)
    p.add_argument("--scaffold", default=None, help="read this scaffold file instead of building")
    p.add_argument("--out", default="-", help="output path, - for stdout")
    p.set_defaults(fn=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
