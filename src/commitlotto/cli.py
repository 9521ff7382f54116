"""Command line interface.

Exit codes: 0 success, 2 bad configuration or arguments, 3 scaffold
verification found violations, 1 unexpected internal error.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
from typing import Optional

from .harness import (
    BACKENDS,
    ConfigError,
    ScenarioConfig,
    check_dominance,
    dump_summary,
    measure_costs,
    run_monte_carlo,
    run_trial,
    write_trials_csv,
)
from .primitives import OutputRef, Rng, sha256

# at module level, unlike `harness`: in a contract-only process this import
# is what puts `scaffold`, `chain` and `script` in sys.modules, where the
# benchmark's tracer looks up the layers it wraps
from .scaffold import (
    DEPOSIT_ATOMIC,
    DEPOSIT_HASHLOCKED,
    MODE_MULTIINPUT,
    MODE_PLAIN,
    SIG_MODELS,
    build_tournament,
    dump_tournament,
    export_dot,
    joint_preimage,
    load_tournament,
    verify_as_honest,
)
from .strategies import strategy_names

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_VIOLATIONS = 3


def _parse_seed(text: str):
    """An integer in ASCII digits, or else text; digits outside ASCII, and
    text UTF-8 cannot encode (a lone surrogate), are refused."""
    if re.fullmatch("-?[0-9]+", text):
        return int(text)
    if text.lstrip("-").isdigit() or re.search("[\ud800-\udfff]", text):
        raise ConfigError(f"--seed: expected -?[0-9]+ in ASCII, or other text UTF-8 can encode, got {text!r}")
    return text


def _build_scaffold(args):
    """Construct a scaffold from CLI parameters with synthetic funding refs.

    Construction checks the parameters (its kernels are built only when
    read, so this is cheap at any n).
    """
    rng = Rng(_parse_seed(args.seed))
    n = args.n
    keys = [rng.child(f"key/{i}").bytes(32) for i in range(n)]
    funding = [OutputRef(rng.child(f"funding/{i}").bytes(32), 0) for i in range(n)]
    mpc_digest = sha256(joint_preimage(n, rng)) if args.deposit == DEPOSIT_HASHLOCKED else None
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
    return t


def _add_bracket_args(p: argparse.ArgumentParser):
    """The bracket's size, schedule and deposits, which build, run, sweep and costs take."""
    p.add_argument("--n", type=int, default=4, help="player count (power of two)")
    p.add_argument("--tau", type=int, default=ScenarioConfig.tau, help="timeout period in heights")
    p.add_argument("--t-commit", type=int, default=ScenarioConfig.t_commit, help="height the bracket starts")
    p.add_argument("--deposit", choices=(DEPOSIT_ATOMIC, DEPOSIT_HASHLOCKED), default=DEPOSIT_ATOMIC)


def _add_seeded_bracket_args(p: argparse.ArgumentParser):
    """The bracket's flags plus the bet and the seed, which build, run and sweep read."""
    _add_bracket_args(p)
    p.add_argument("--bet", type=int, default=ScenarioConfig.bet)
    p.add_argument("--seed", default=ScenarioConfig.master_seed)


def _add_scenario_args(p: argparse.ArgumentParser):
    p.add_argument("--backend", choices=BACKENDS, required=True)
    _add_seeded_bracket_args(p)
    p.add_argument(
        "--strategies",
        default="honest",
        help="comma-separated per-player strategies, or one name for all "
        f"(known: {', '.join(strategy_names())})",
    )


STDOUT_PATHS = ("-", "")


def _one_stdout(**paths: Optional[str]) -> None:
    """Refuse two outputs aimed at stdout: their texts would run together."""
    aimed = [f"--{flag.replace('_', '-')}" for flag, path in paths.items() if path in STDOUT_PATHS]
    if len(aimed) > 1:
        raise ConfigError(f"{' and '.join(aimed)} cannot share stdout; send all but one to a file")


def _write(path: str, text: str) -> None:
    """Write `text` to the file at `path`, or to stdout if `path` is - or empty.

    Every output flag goes through here. A file gets the text's characters
    as they are, with no newline translation.
    """
    if path in STDOUT_PATHS:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fp:
            fp.write(text)


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
        trials=trials,
        master_seed=_parse_seed(args.seed),
    )


def cmd_build(args) -> int:
    """Emit the scaffold's closed-form statistics, and write it out on request.

    A scaffold too large to write out is flagged materialized=false;
    asking for the scaffold file itself is then a configuration error.
    """
    _one_stdout(out=args.out, scaffold_out=args.scaffold_out, dot=args.dot)
    t = _build_scaffold(args)
    stats = t.stats
    if not stats.materialized and (args.scaffold_out is not None or args.dot is not None):
        raise ConfigError(f"{t.mode} scaffolds with n={args.n} are statistics-only and cannot be written out")
    doc = {
        "n": args.n,
        "mode": args.mode,
        "deposit": args.deposit,
        "materialized": stats.materialized,
        "stats": stats.to_json(),
    }
    _write(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if args.scaffold_out is not None:
        _write(args.scaffold_out, dump_tournament(t))
        print(f"wrote scaffold with {stats.total_offchain} bodies -> {args.scaffold_out}", file=sys.stderr)
    if args.dot is not None:
        _write(args.dot, export_dot(t))
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
    _one_stdout(csv=args.csv, json=args.json)
    cfg = _scenario_from_args(args, trials=args.trials)
    if not 0 <= args.eps <= 1:
        raise ConfigError(f"eps must be in [0, 1], got {args.eps}")
    summary = run_monte_carlo(cfg)
    if args.csv is not None:
        rows = io.StringIO()
        write_trials_csv(rows, summary.results, cfg.n)
        _write(args.csv, rows.getvalue())
    _write(args.json, dump_summary(summary))
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
        deposit_option=args.deposit,
        sig_model=args.sig_model,
    )
    print(json.dumps(report.to_json(), indent=2))
    return EXIT_OK


def cmd_export_dot(args) -> int:
    with open(args.scaffold) as fp:
        t = load_tournament(fp.read())
    _write(args.out, export_dot(t))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commitlotto",
        description="Simulator for zero-collateral N-player commitment lotteries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a pre-signed scaffold and report its statistics")
    _add_seeded_bracket_args(p)
    p.add_argument("--mode", choices=(MODE_PLAIN, MODE_MULTIINPUT), default=MODE_PLAIN)
    p.add_argument("--out", default="-", help="stats JSON path, - for stdout")
    p.add_argument("--scaffold-out", default=None, help="also write the full scaffold JSON here, - for stdout")
    p.add_argument("--dot", default=None, help="also write the spend graph as Graphviz, - for stdout")
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
    p.add_argument("--csv", default=None, help="write per-trial rows here, - for stdout")
    p.add_argument("--json", default="-", help="summary path, - for stdout")
    p.add_argument("--eps", type=float, default=0.02, help="win-frequency tolerance")
    p.add_argument("--require-dominance", action="store_true")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("costs", help="measure on-chain and off-chain footprint")
    p.add_argument("--backend", choices=BACKENDS, required=True)
    _add_bracket_args(p)
    p.add_argument("--sig-model", choices=SIG_MODELS, default="multisig", help="sizes authorization bytes")
    p.set_defaults(fn=cmd_costs)

    p = sub.add_parser("export-dot", help="render a scaffold file's spend graph as Graphviz")
    p.add_argument("--scaffold", required=True, help="scaffold JSON file, as build --scaffold-out writes")
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
        for dest, value in vars(args).items():
            if isinstance(value, list):  # argparse hands a flag given `--` over as []
                raise ConfigError(f"--{dest.replace('_', '-')}: expected a value, got '--'")
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
