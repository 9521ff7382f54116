"""Acceptance gate: the ten protocol-level guarantees, one test each.

Each test reports a single PASS/FAIL line through the criterion fixture;
the lines are echoed in the terminal summary. Heavy sweeps are shared via
the session registry so the zero-collateral criterion can range over every
scenario the suite ran.
"""

import json
import time

import pytest

from commitlotto.chain import Chain
from commitlotto.cli import main as cli_main
from commitlotto.harness import (
    BTC_PLAIN,
    ETH,
    ScaffoldRuntime,
    ScenarioConfig,
    run_monte_carlo,
    trial_rng,
)
from commitlotto.scaffold import (
    MODE_MULTIINPUT,
    KernelId,
    iter_bodies,
    kernel_count,
    kernel_count_geometric,
    load_tournament,
    matches_at,
    num_levels,
    scaffold_stats,
    signing_ceremony,
    tournament_to_json,
    verify_as_honest,
)
from commitlotto.script import KeySign, SignatureOracle, parity_bit
from commitlotto.strategies import BTC_MULTI, adversary_library, supports

from conftest import small_tournament

TAU = 6
T_COMMIT = 10
BITCOIN = (BTC_PLAIN, BTC_MULTI)
SWEEP_BACKENDS = (ETH, BTC_PLAIN)  # criteria 5, 6, 8 statistics run here


def scenario(backend, n, strategies, trials, seed, deposit="atomic"):
    return ScenarioConfig(
        backend=backend,
        n=n,
        strategies=tuple(strategies),
        tau=TAU,
        t_commit=T_COMMIT,
        bet=1,
        deposit_option=deposit,
        trials=trials,
        master_seed=seed,
    )


def mixes_for(backend, n):
    """All built-in strategy mixes: all-honest plus one adversary per table."""
    yield "honest", ("honest",) * n
    for name, _backends in adversary_library():
        if supports(name, backend):
            yield name, ("honest",) * (n - 1) + (name,)


@pytest.fixture(scope="session")
def round_bound_sweeps(acceptance_registry):
    """Criterion 4 matrix: every backend, deposit option, size and mix."""
    out = {}
    for backend in (ETH,) + BITCOIN:
        deposits = ("atomic",) if backend == ETH else ("atomic", "hashlocked")
        for deposit in deposits:
            for n in (2, 4, 8):
                for mix_name, strategies in mixes_for(backend, n):
                    key = (backend, deposit, n, mix_name)
                    cfg = scenario(
                        backend, n, strategies, trials=25,
                        seed=f"c4/{backend}/{deposit}/{n}/{mix_name}", deposit=deposit,
                    )
                    out[key] = run_monte_carlo(cfg)
                    acceptance_registry[("c4",) + key] = out[key]
    return out


@pytest.fixture(scope="session")
def honest_sweeps(acceptance_registry):
    """Criterion 5 statistics: 10000 all-honest trials per backend, timed."""
    out = {}
    t0 = time.perf_counter()
    for backend in SWEEP_BACKENDS:
        cfg = scenario(backend, 4, ("honest",) * 4, trials=10000, seed="c5-ideal")
        out[backend] = run_monte_carlo(cfg, keep_trials=False)
        acceptance_registry[("c5", backend)] = out[backend]
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def dominance_sweeps(acceptance_registry):
    """Criterion 6 matrix: each adversary holding 3 of 4 seats, 10000 trials."""
    out = {}
    for name, backends in adversary_library():
        for backend in backends:
            if backend not in SWEEP_BACKENDS:
                continue
            cfg = scenario(
                backend, 4, ("honest",) + (name,) * 3, trials=10000,
                seed=f"c6/{backend}/{name}",
            )
            out[(name, backend)] = run_monte_carlo(cfg, keep_trials=False)
            acceptance_registry[("c6", name, backend)] = out[(name, backend)]
    return out


def test_criterion_01_kernel_counting(criterion):
    t0 = time.perf_counter()
    ok = [kernel_count(l) for l in range(4)] == [1, 9, 729, 4782969]
    # the geometric closed form 9**l agrees only below level 2
    ok = ok and [kernel_count_geometric(l) for l in range(4)] == [1, 9, 81, 729]
    ok = ok and kernel_count_geometric(2) < kernel_count(2)
    per_match_ok = True
    for n in (2, 4, 8):
        t = small_tournament(n, seed=f"c1/{n}")
        for level in range(num_levels(n)):
            for match in range(matches_at(n, level)):
                built = sum(
                    1 for kid in t.kernels if (kid.level, kid.match) == (level, match)
                )
                per_match_ok = per_match_ok and built == kernel_count(level)
    elapsed = time.perf_counter() - t0
    # wall time shows only on failure, so the PASS line is the same on every run
    slow = f", but took {elapsed:.2f}s (limit 10s)" if elapsed >= 10.0 else ""
    criterion(
        1,
        ok and per_match_ok and elapsed < 10.0,
        f"kernel counts 1/9/729/4782969, geometric 9^l diverges from level 2, "
        f"per-match enumeration exact for N<=8{slow}",
    )


def test_criterion_02_offchain_totals(criterion):
    expected = {}
    for n in (2, 4, 8, 16):
        expected[n] = 1 + sum(
            matches_at(n, l) * kernel_count(l) * 5 for l in range(num_levels(n))
        )
    built_ok = all(
        len(iter_bodies(small_tournament(n, seed=f"c2/{n}"))) == expected[n]
        for n in (2, 4, 8)
    )
    stats16 = scaffold_stats(16).total_offchain
    criterion(
        2,
        built_ok
        and (expected[2], expected[4], expected[8]) == (6, 56, 3756)
        and stats16 == expected[16] == 23922356,
        f"built bodies 6/56/3756 for N=2/4/8, closed form matches, "
        f"N=16 stats-only = {stats16}",
    )


def test_criterion_03_multiinput_scaling(criterion):
    multi = {n: scaffold_stats(n, MODE_MULTIINPUT).total_offchain for n in (4, 8, 16, 32)}
    plain = {n: scaffold_stats(n).total_offchain for n in (4, 8, 16, 32)}
    multi_ratios = [multi[2 * n] / multi[n] for n in (4, 8, 16)]
    plain_ratios = [plain[2 * n] / plain[n] for n in (4, 8, 16)]
    criterion(
        3,
        all(r <= 4.5 for r in multi_ratios) and all(r > 9 for r in plain_ratios),
        f"multiinput doubling ratios {[f'{r:.2f}' for r in multi_ratios]} <= 4.5; "
        f"plain ratios {[f'{r:.1f}' for r in plain_ratios]} > 9",
    )


def test_criterion_04_round_bounds(criterion, round_bound_sweeps):
    ok = True
    worst = ""
    for (backend, deposit, n, mix), s in round_bound_sweeps.items():
        stride = 4 * TAU if backend == BTC_MULTI else 2 * TAU
        bound = T_COMMIT + stride * num_levels(n)
        for r in s.results:
            if r.committed:
                good = r.final_height is not None and r.final_height <= bound
            else:
                good = (
                    r.abort_height is not None
                    and r.abort_height <= T_COMMIT
                    and r.deposited == r.returned
                    and all(p == 0 for p in r.payoffs)
                )
            if not good:
                ok = False
                worst = f" first failure: {backend}/{deposit}/n={n}/{mix} trial {r.trial}"
    criterion(
        4,
        ok,
        "all committed trials settle by t_commit + stride*log2(N) "
        "(stride 2tau plain/contract, 4tau multiinput) and every aborted trial "
        f"refunds exactly within the commit window, N in 2/4/8, all mixes{worst}",
    )


def test_criterion_05_ideal_statistics(criterion, honest_sweeps):
    elapsed = honest_sweeps["elapsed"]
    ok = elapsed < 120.0
    detail = []
    for backend in SWEEP_BACKENDS:
        s = honest_sweeps[backend]
        freqs_ok = all(abs(f - 0.25) <= 0.013 for f in s.win_freq)
        ok = ok and freqs_ok and s.zero_sum_ok and s.committed == 10000
        detail.append(f"{backend} [{', '.join(f'{f:.4f}' for f in s.win_freq)}]")
    criterion(
        5,
        ok,
        f"win frequencies within 0.25+-0.013 over 10000 trials: {'; '.join(detail)}; "
        "payoffs zero-sum in every trial"
        + (f"; ran in {elapsed:.1f}s (limit 120s)" if elapsed >= 120.0 else ""),
    )


def test_criterion_06_adversarial_dominance(criterion, dominance_sweeps):
    ok = True
    lines = []
    for (name, backend), s in sorted(dominance_sweeps.items()):
        if s.committed == 0:
            good = (
                s.aborted == s.trials
                and s.payoff_min[0] == 0
                and s.payoff_max[0] == 0
                and s.refunds_ok
            )
            lines.append(f"{name}@{backend}: all abort, honest flat")
        else:
            good = s.win_freq[0] >= 0.25 - 0.02
            lines.append(f"{name}@{backend}: honest {s.win_freq[0]:.4f}")
        ok = ok and good
    criterion(6, ok, "; ".join(lines))


def test_criterion_08_replay_defense(criterion, dominance_sweeps, tmp_path, capsys):
    replay = dominance_sweeps[("replay-commit", ETH)]
    eth_ok = replay.committed == replay.trials and sum(replay.wins[1:]) == 0

    # bitcoin side: duplicate a commitment digest and check the whole path:
    # the verifier names the rule, the CLI refuses, an honest verifier
    # refuses to sign, and no funded output ever moves
    t = small_tournament(4, seed="c8")
    donor = t.kernels[KernelId(0, 0, 0)]
    doc = tournament_to_json(t)
    for k in doc["kernels"]:
        if (k["level"], k["match"], k["combo"]) == (0, 1, 0):
            k["left_commit"] = donor.left_commit.hex()
    bad_path = tmp_path / "doctored.json"
    bad_path.write_text(json.dumps(doc))
    exit_code = cli_main(["verify", str(bad_path)])
    out = capsys.readouterr().out
    cli_ok = exit_code == 3 and "DuplicateCommitment" in out

    doctored = load_tournament(bad_path.read_text())

    class VerifyingHonest:
        def __init__(self):
            self.clean = None

        def at_signing(self, view):
            if self.clean is None:
                self.clean = not verify_as_honest(view.tournament)
            return self.clean

        at_deposit = at_signing

    oracle = SignatureOracle()
    chain = Chain(oracle)
    for i, key in enumerate(doctored.master_keys):
        oracle.register_key(i, key)
        chain.mint(1, KeySign(key))
    mints = len(chain.log)
    res = signing_ceremony(doctored, [VerifyingHonest() for _ in range(4)], oracle)
    funds_ok = res.aborted_by == 0 and res.bodies_signed == 0 and len(chain.log) == mints
    chain.audit()

    criterion(
        8,
        eth_ok and cli_ok and funds_ok,
        f"replay-commit never won a committed contract trial "
        f"({replay.committed} committed, adversary wins {sum(replay.wins[1:])}); "
        "doctored scaffold: verify exits 3 naming DuplicateCommitment, honest "
        "verifier refuses to sign, funded outputs untouched",
    )


def test_criterion_09_exclusivity_and_conservation(criterion, monkeypatch, acceptance_registry):
    # audit the ledger after every accepted transaction, not just at the end
    original_submit = Chain.submit

    def audited_submit(self, body, witness):
        res = original_submit(self, body, witness)
        self.audit()
        return res

    monkeypatch.setattr(Chain, "submit", audited_submit)

    ok = True
    # mixed-strategy populations on both utxo backends
    for backend in BITCOIN:
        for mix_name, strategies in mixes_for(backend, 4):
            for i in range(10):
                cfg = scenario(backend, 4, strategies, 1, f"c9/{backend}/{mix_name}")
                rt = ScaffoldRuntime(cfg, trial_rng(cfg.master_seed, i), i)
                rt.run()
                rt.chain.audit()
                for kid, k in rt.t.kernels.items():
                    landed = sum(
                        1
                        for entry in rt.chain.log
                        if entry.ntxid in k.outcome_ntxids
                    )
                    if landed > 1:
                        ok = False

    # exhaustive 3x3 behavior grid on a single kernel
    behaviors = ("honest", "abort-at-open", "abort-at-deposit")
    grid_ok = True
    seen_parities = set()
    for left in behaviors:
        for right in behaviors:
            for i in range(6):
                cfg = scenario(BTC_PLAIN, 2, (left, right), 1, f"c9-grid/{left}/{right}")
                rt = ScaffoldRuntime(cfg, trial_rng(cfg.master_seed, i), i)
                r = rt.run()
                rt.chain.audit()
                k = rt.t.kernel(0, 0, 0)
                landed = [
                    j
                    for j, ntxid in enumerate(k.outcome_ntxids)
                    if any(e.ntxid == ntxid for e in rt.chain.log)
                ]
                if "abort-at-deposit" in (left, right):
                    expect_winner, expect_tx = None, []
                elif left == "abort-at-open":
                    expect_winner, expect_tx = 1, [1]  # silence at t1 pays right
                elif right == "abort-at-open":
                    expect_winner, expect_tx = 0, [0]  # reveal, then t2 pays left
                else:
                    odd = parity_bit(rt.t.secret(KernelId(0, 0, 0), 0)) ^ parity_bit(
                        rt.t.secret(KernelId(0, 0, 0), 1)
                    )
                    seen_parities.add(odd)
                    expect_winner, expect_tx = (1, [2]) if odd else (0, [0])
                if (r.winner, landed) != (expect_winner, expect_tx):
                    grid_ok = False
                if expect_winner is None and any(p != 0 for p in r.payoffs):
                    grid_ok = False
    grid_ok = grid_ok and seen_parities == {0, 1}

    criterion(
        9,
        ok and grid_ok,
        "ledger audited after every accepted transaction (conservation + no "
        "double spend), at most one terminal outcome per kernel, and the 3x3 "
        "honest/abort grid lands exactly the prescribed winner and outcome tx",
    )


def test_criterion_10_onchain_counts(criterion, round_bound_sweeps, dominance_sweeps):
    ok = True
    achieved = {}
    for (backend, deposit, n, mix), s in round_bound_sweeps.items():
        if backend not in BITCOIN or s.onchain_max is None:
            continue
        # one compression lands per advancing winner in multiinput mode, and
        # the hashlocked option pays n deposits instead of one
        per_match = 4 if backend == BTC_MULTI else 3
        deposit_txs = n if deposit == "hashlocked" else 1
        bound = per_match * (n - 1) + deposit_txs
        if s.onchain_max > bound:
            ok = False
        if mix == "force-timeout" and deposit == "atomic":
            achieved[(backend, n)] = (s.onchain_min, s.onchain_max, bound)
    ft = dominance_sweeps[("force-timeout", BTC_PLAIN)]
    tight = ft.onchain_max == ft.onchain_min == 3 * 3 + 1
    for (backend, n), (lo, hi, bound) in achieved.items():
        tight = tight and lo == hi == bound
    criterion(
        10,
        ok and tight,
        "plain trials stay within 3(N-1)+1 on-chain transactions and the "
        "all-timeout mix lands the bound exactly; multiinput adds one "
        "compression per winner (4(N-1)+1) and hashlocked n-1 extra deposits, "
        "both tight under all-timeout",
    )


def test_criterion_07_zero_collateral(criterion, acceptance_registry, round_bound_sweeps, honest_sweeps, dominance_sweeps):
    # runs last: every sweep the suite performed is in the registry
    total_trials = 0
    worst = 0
    for s in acceptance_registry.values():
        total_trials += s.trials
        worst = max(worst, s.max_locked_beyond_bet)
    criterion(
        7,
        worst == 0 and total_trials >= 100000,
        f"max locked-beyond-bet = {worst} across {total_trials} trials in "
        f"{len(acceptance_registry)} scenarios",
    )
