"""Scenario runner: determinism, payoffs, bounds, dominance, costs."""

import dataclasses
import gc
import hashlib
import io
import itertools
import json
import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from commitlotto.chain import SCRIPT_FAIL, FixedInput, TransactionBody, TxOutput, sig_digest_for
from commitlotto import chain, contracts, harness, scaffold, utxo
from commitlotto.contracts import Master, TwoPartyLottery, Vm, match_winner
from commitlotto.primitives import OutputRef, Rng, level_schedule, level_stride, num_levels
from commitlotto.scaffold import (
    BRANCH_DEPOSIT_REFUND,
    MODE_MULTIINPUT,
    MODE_PLAIN,
    OUTCOMES,
    SIDE_LEFT,
    SIDE_RIGHT,
    SIG_MODELS,
    auth_bytes,
    players_of,
    scaffold_stats,
    signing_ceremony,
    winner_side,
)
from commitlotto.script import InputWitness, KeySign, Witness, parity_bit
from commitlotto.strategies import BTC_MULTI, Strategy, make_strategy, strategy_names
from commitlotto.harness import (
    BTC_PLAIN,
    CSV_FIXED_COLUMNS,
    ETH,
    ConfigError,
    ContractRuntime,
    ScaffoldRuntime,
    ScenarioConfig,
    Summary,
    TrialResult,
    check_dominance,
    measure_costs,
    run_monte_carlo,
    run_trial,
    summary_to_json,
    trial_rng,
    write_trials_csv,
)

from conftest import ETH_MIXED_SEATS, fresh_players, iter_bodies

HONEST4 = ("honest",) * 4
MIXED8 = (
    "honest", "force-timeout", "abort-at-open", "coalition",
    "honest", "coalition", "honest", "honest",
)


def cfg(backend=ETH, n=4, strategies=None, **kw):
    return ScenarioConfig(
        backend=backend, n=n, strategies=strategies or ("honest",) * n, **kw
    )


# configuration validation


@pytest.mark.parametrize(
    "kw",
    [
        dict(backend="solana"),
        dict(n=3, strategies=("honest",) * 3),
        dict(n=1, strategies=("honest",)),
        dict(backend=BTC_PLAIN, n=6, strategies=("honest",) * 6),
        dict(strategies=("honest",) * 3),
        dict(strategies=("honest", "honest", "honest", "force-timeout")),
        dict(tau=1),
        dict(t_commit=1),
        dict(bet=0),
        dict(deposit_option="escrow"),
        dict(deposit_option="hashlocked"),
        dict(trials=0),
    ],
)
def test_config_rejections(kw):
    with pytest.raises(ConfigError):
        cfg(**kw)


def test_config_accepts_the_boundary():
    cfg(tau=2, t_commit=2, bet=1, trials=1)
    cfg(backend=BTC_PLAIN, n=8, strategies=("honest",) * 8)
    cfg(backend=BTC_MULTI, n=16, strategies=("honest",) * 16)
    cfg(backend=BTC_PLAIN, deposit_option="hashlocked", strategies=HONEST4)


@pytest.mark.parametrize("n", [16, 32])
def test_plain_trials_run_beyond_the_materialize_cap(n):
    # kernels are built on demand, so a trial pays for one kernel per match
    for i in range(3):
        r = run_trial(cfg(backend=BTC_PLAIN, n=n, master_seed=f"plain-{n}"), i)
        assert r.committed and r.winner is not None
        assert sum(r.payoffs) == 0
        assert r.payoffs[r.winner] == n - 1
        assert r.onchain_tx_count <= 3 * (n - 1) + 1


def test_mode_follows_backend():
    assert cfg(backend=ETH).mode == "plain"
    assert cfg(backend=BTC_PLAIN).mode == "plain"
    assert cfg(backend=BTC_MULTI).mode == "multiinput"


# determinism


def test_trial_rng_stable_and_distinct():
    a = trial_rng("seed", 0).nonzero_bytes(32)
    assert a == trial_rng("seed", 0).nonzero_bytes(32)
    assert a != trial_rng("seed", 1).nonzero_bytes(32)
    assert a != trial_rng("other", 0).nonzero_bytes(32)


@pytest.mark.parametrize("backend", [ETH, BTC_PLAIN, BTC_MULTI])
def test_runs_are_reproducible(backend):
    c = cfg(backend=backend, trials=8, master_seed="repro")
    a, b = run_monte_carlo(c), run_monte_carlo(c)
    assert a.results == b.results
    assert summary_to_json(a) == summary_to_json(b)


def test_different_seeds_change_outcomes():
    winners_a = [run_trial(cfg(master_seed="a", trials=1), i).winner for i in range(12)]
    winners_b = [run_trial(cfg(master_seed="b", trials=1), i).winner for i in range(12)]
    assert winners_a != winners_b


# payoff structure


@pytest.mark.parametrize("backend", [ETH, BTC_PLAIN, BTC_MULTI])
def test_all_honest_payoffs(backend):
    s = run_monte_carlo(cfg(backend=backend, trials=40, master_seed="payoffs"))
    assert s.committed == 40 and s.aborted == 0
    assert s.zero_sum_ok and s.refunds_ok
    assert s.max_locked_beyond_bet == 0
    for r in s.results:
        assert r.committed and r.winner is not None
        assert sorted(r.payoffs) == [-1, -1, -1, 3]
        assert r.payoffs[r.winner] == 3
        assert r.winner in range(4)


def test_win_frequency_uses_committed_denominator():
    s = run_monte_carlo(cfg(trials=50, master_seed="freq"))
    assert sum(s.wins) == s.committed
    assert s.win_freq == tuple(w / s.committed for w in s.wins)
    assert abs(sum(s.win_freq) - 1.0) < 1e-9


def test_aborted_runs_refund_exactly():
    for backend in (ETH, BTC_PLAIN, BTC_MULTI):
        strategies = ("honest", "honest", "honest", "abort-at-deposit")
        s = run_monte_carlo(cfg(backend=backend, strategies=strategies, trials=5))
        assert s.committed == 0 and s.aborted == 5
        assert s.refunds_ok and s.zero_sum_ok
        for r in s.results:
            assert r.winner is None
            assert r.payoffs == (0, 0, 0, 0)
            assert r.deposited == r.returned
            assert r.abort_height is not None and r.abort_height <= 10
        assert s.abort_height_max <= 10  # refund available by the commit deadline


def test_hashlocked_abort_refunds_within_commit_window():
    strategies = ("honest", "honest", "honest", "abort-at-deposit")
    s = run_monte_carlo(
        cfg(backend=BTC_PLAIN, strategies=strategies, deposit_option="hashlocked", trials=5)
    )
    assert s.committed == 0 and s.refunds_ok
    assert s.abort_height_max <= 10


@pytest.mark.parametrize("deposit_option", ["atomic", "hashlocked"])
@pytest.mark.parametrize("backend", [BTC_PLAIN, BTC_MULTI])
def test_a_refused_ceremony_ends_the_trial_at_setup(backend, deposit_option):
    # no key signs anything and nothing reaches the chain, so the trial
    # aborts at the setup height with every stake untouched
    mix = ("honest", "honest", "abort-at-signing", "honest")
    c = cfg(backend, 4, mix, deposit_option=deposit_option, master_seed="golden")
    zeros = (0,) * 4
    for i in range(3):
        assert run_trial(c, i) == TrialResult(
            trial=i, committed=False, winner=None, final_height=None, abort_height=1,
            payoffs=zeros, deposited=zeros, returned=zeros, locked_beyond_bet=zeros,
            onchain_tx_count=0,
        )


@pytest.mark.parametrize("backend", [BTC_PLAIN, BTC_MULTI])
def test_a_declined_deposit_was_never_signed(backend):
    # a signature exists only once its owner chooses to broadcast, so no one
    # can put a hashlocked deposit on chain that its owner declined
    mix = ("honest",) * 3 + ("abort-at-deposit",)
    c = cfg(backend, 4, mix, deposit_option="hashlocked", master_seed="consent")
    rt = ScaffoldRuntime(c, trial_rng(c.master_seed, 0), 0)
    r = rt.run()
    assert not r.committed and r.deposited == (1, 1, 1, 0)
    res = rt.chain.submit(rt.t.deposit_bodies[3], Witness((InputWitness((rt.keys[3],)),)))
    assert not res.accepted
    assert "signature check failed" in res.detail


# the ledger (chain or VM) is the runtime's only record of play


def owner_witness(rt, player, body, branch=None):
    """The player's own signature over `body`, spending one output it alone can spend."""
    rt.oracle.sign(player, rt.keys[player], sig_digest_for(body))
    return Witness((InputWitness((rt.keys[player],), {}, branch, None),))


def run_with_early_deposit(c):
    """Play trial 0 after player 0 has put its deposit on the ledger itself."""
    if c.backend == ETH:
        rt = ContractRuntime(c, trial_rng(c.master_seed, 0), 0)
        rt.vm.call(rt.accounts[0], rt.tree.master, "deposit", value=c.bet)
        return rt.run()
    rt = ScaffoldRuntime(c, trial_rng(c.master_seed, 0), 0)
    rt.chain.advance_to(rt.SETUP_HEIGHT)
    body = rt.t.deposit_bodies[0]
    assert rt.chain.submit(body, owner_witness(rt, 0, body)).accepted
    return rt.run()


@pytest.mark.parametrize("backend", [ETH, BTC_PLAIN, BTC_MULTI])
def test_deposit_broadcast_before_the_run_counts(backend):
    # the owner places its deposit (hashlocked on the UTXO backend) before
    # the driver runs; the driver must see it there and play the same trial
    deposit = "atomic" if backend == ETH else "hashlocked"
    c = cfg(backend=backend, deposit_option=deposit, master_seed="early-deposit")
    untouched = run_trial(c, 0)
    r = run_with_early_deposit(c)
    assert untouched.committed and r.committed
    assert (r.winner, r.payoffs, r.deposited, r.onchain_tx_count) == (
        untouched.winner,
        untouched.payoffs,
        untouched.deposited,
        untouched.onchain_tx_count,
    )
    # a table that never fills refunds the early deposit too
    c = dataclasses.replace(c, strategies=("honest",) * 3 + ("abort-at-deposit",))
    r = run_with_early_deposit(c)
    assert not r.committed
    assert r.payoffs == (0, 0, 0, 0)
    assert r.deposited == r.returned == (c.bet,) * 3 + (0,)


class Scripted(Strategy):
    """Commits and opens only as told; a late opener waits for its last opening height."""

    def __init__(self, player, secret, commits, opens, late=False):
        super().__init__(player)
        self.secret, self.commits, self.opens, self.late = secret, commits, opens, late
        self.open_views = []

    def choose_secret(self, rng):
        return self.secret

    def at_commit(self, view):
        return super().at_commit(view) if self.commits else None

    def at_open(self, view):
        if self.late and not view.last_chance:
            return None
        self.open_views.append(view)
        return view.my_secret if self.opens else None


@pytest.mark.parametrize("my_secret", [2, 3])  # odd and even parity against 5
@pytest.mark.parametrize("opponent", ["uncommitted", "committed", "opened"])
@pytest.mark.parametrize("seat", [0, 1])
def test_open_view_flags_agree_with_get_winner(seat, opponent, my_secret):
    # the player asked last sees the opponent as it stands at the last
    # opening height; its flags must predict what the contract then decides
    c = cfg(n=2)
    flags = {}
    for opens in (True, False):
        rt = ContractRuntime(c, trial_rng(c.master_seed, 0), 0)
        me = Scripted(seat, my_secret, commits=True, opens=opens, late=True)
        them = Scripted(
            1 - seat, 5, commits=opponent != "uncommitted", opens=opponent == "opened"
        )
        rt.strats[seat], rt.strats[1 - seat] = me, them
        r = rt.run()
        (view,) = me.open_views
        assert (view.opponent_commit is not None) == (opponent != "uncommitted")
        assert r.winner == rt.player_of[
            rt.vm.static_call("observer", rt.tree.final, "get_winner")
        ]
        flags[opens] = view.wins_if_open
        if opens:
            assert view.wins_if_open == (r.winner == seat)
    assert flags[True] == flags[False]  # the flag does not depend on the choice it informs


def test_a_match_secret_comes_only_from_the_rng_choose_secret_receives():
    # ROADMAP 10 and 14 rest on this: no strategy holds coins of its own, and a
    # contract secret is drawn from the trial rng's child for its seat and match
    for name in strategy_names():
        strategy = make_strategy(name, 0, {})
        assert not any(isinstance(value, Rng) for value in vars(strategy).values()), name
    drawn = []

    class Drawing(Strategy):
        def choose_secret(self, rng):
            drawn.append(rng.bytes(32))
            return int.from_bytes(drawn[-1], "big")

    c = cfg(n=4)
    for i in range(3):
        drawn.clear()
        rt = ContractRuntime(c, trial_rng(c.master_seed, i), i)
        rt.strats = [Drawing(p) for p in range(c.n)]
        assert rt.run() == run_trial(c, i)  # the honest secrets are these bytes
        assert len(drawn) == len(rt._secrets) == 6
        assert drawn == [
            trial_rng(c.master_seed, i).child(f"secret/{p}/{level}/{match}").bytes(32)
            for p, level, match in rt._secrets
        ]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 4(b): a hashlocked refund is valid at t_commit, the height the level-0 entries start",
)
@pytest.mark.parametrize("backend", [BTC_PLAIN, BTC_MULTI])
def test_refund_is_rejected_once_every_deposit_is_on_chain(backend):
    c = cfg(backend=backend, deposit_option="hashlocked", master_seed="refund-race")
    rt = ScaffoldRuntime(c, trial_rng(c.master_seed, 0), 0)
    t = rt.t
    rt.chain.advance_to(rt.SETUP_HEIGHT)
    assert signing_ceremony(t, rt.strats, rt.oracle).complete
    for i, body in enumerate(t.deposit_bodies):
        assert rt.chain.submit(body, owner_witness(rt, i, body)).accepted
    assert t.refund_time == c.t_commit == t.schedule(0)[0]
    rt.chain.advance_to(c.t_commit)
    refund = TransactionBody(
        inputs=(FixedInput(OutputRef(t.deposit_ntxids[3], 0)),),
        outputs=(TxOutput(c.bet, KeySign(rt.keys[3])),),
        locktime=t.refund_time,
    )
    res = rt.chain.submit(refund, owner_witness(rt, 3, refund, BRANCH_DEPOSIT_REFUND))
    assert not res.accepted


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 4(b): every trial has a winner, but check_dominance needs each of the four "
    "honest seats to win at least 5 of the 20 trials, and the wins are (7, 3, 3, 7) plain "
    "and (6, 3, 5, 6) multiinput",
)
@pytest.mark.parametrize("backend", [BTC_PLAIN, BTC_MULTI])
def test_an_honest_hashlocked_table_at_the_earliest_commit_height_has_a_winner(backend):
    s = run_monte_carlo(cfg(backend=backend, deposit_option="hashlocked", t_commit=2, trials=20))
    assert all(r.winner is not None for r in s.results)
    assert check_dominance(s).ok


@pytest.mark.parametrize("backend", [BTC_PLAIN, BTC_MULTI])
def test_an_honest_hashlocked_table_at_the_earliest_commit_height_plays_to_the_end(backend):
    # ROADMAP 4(b), runtime half: at t_commit = 2 the deposits land inside the
    # drain at t_commit; the release rule is applied before the next pass, so
    # the entries go out ahead of the refunds and no honest owner takes one
    c = cfg(backend=backend, deposit_option="hashlocked", t_commit=2, trials=20)
    s = run_monte_carlo(c)
    assert all(r.committed and r.winner is not None for r in s.results)
    assert all(r.returned == (0,) * c.n for r in s.results)
    assert all(sum(r.payoffs) == 0 for r in s.results) and s.zero_sum_ok
    assert min(s.payoff_min) >= -c.bet


# transaction-count bounds


def test_plain_onchain_bound_is_tight():
    # the all-timeout mix realizes the worst case exactly: 3 per match + deposit
    strategies = ("honest", "force-timeout", "force-timeout", "force-timeout")
    s = run_monte_carlo(cfg(backend=BTC_PLAIN, strategies=strategies, trials=5))
    assert s.onchain_max == s.onchain_min == 3 * 3 + 1
    # honest play never exceeds it either
    s = run_monte_carlo(cfg(backend=BTC_PLAIN, trials=30, master_seed="bound"))
    assert s.onchain_max <= 3 * 3 + 1


def test_multiinput_onchain_bound():
    s = run_monte_carlo(cfg(backend=BTC_MULTI, trials=30, master_seed="bound"))
    assert s.onchain_max <= 4 * 3 + 1
    strategies = ("honest", "force-timeout", "force-timeout", "force-timeout")
    s = run_monte_carlo(cfg(backend=BTC_MULTI, strategies=strategies, trials=5))
    assert s.onchain_max == 4 * 3 + 1


def test_eth_final_height_is_schedule_bound():
    s = run_monte_carlo(cfg(trials=20, master_seed="heights"))
    assert s.final_height_max <= 10 + 2 * 6 * 2  # t_commit + 2*tau*log2(n)


def test_btc_final_height_bound():
    s = run_monte_carlo(cfg(backend=BTC_PLAIN, trials=20, master_seed="heights"))
    assert s.final_height_max <= 10 + 2 * 6 * 2
    s = run_monte_carlo(cfg(backend=BTC_MULTI, trials=20, master_seed="heights"))
    assert s.final_height_max <= 10 + 4 * 6 * 2


def test_contract_trials_visit_the_same_stops_whatever_tau(monkeypatch):
    # a contract trial visits only the heights at which an action can land,
    # so its cost does not grow with tau, and the same players win
    advances = []
    advance_to = Vm.advance_to
    monkeypatch.setattr(Vm, "advance_to", lambda vm, h: advances.append(h) or advance_to(vm, h))
    mix = ("honest", "selective-abort-open", "replay-commit", "coalition")
    counts, results = {}, {}
    for tau in (6, 600):
        advances.clear()
        results[tau] = run_trial(cfg(strategies=mix, tau=tau, master_seed="stops"), 0)
        counts[tau] = len(advances)
    assert counts[6] == counts[600] == 3 + 4 * 2  # deposit, refund, payout; 4 per level
    short, long = results[6], results[600]
    assert short.committed and long.committed
    assert (short.winner, short.payoffs) == (long.winner, long.payoffs)


def test_contract_rollback_cost_grows_with_what_a_trial_touches(monkeypatch):
    # ROADMAP 2's scaling gate as an exact count: doubling the table from 64
    # to 128 seats may at most 2.5x the contract snapshots a trial takes
    snapshots = []
    for cls in (Master, TwoPartyLottery):
        snapshot = cls.snapshot
        monkeypatch.setattr(
            cls, "snapshot", lambda c, snapshot=snapshot: snapshots.append(1) or snapshot(c)
        )
    counts = {}
    for n in (64, 128):
        snapshots.clear()
        result = run_trial(cfg(n=n, master_seed="rollback"), 0)
        assert result.committed and result.winner is not None
        counts[n] = len(snapshots)
    assert counts[128] <= 2.5 * counts[64], counts


def test_a_settled_match_is_resolved_once_per_trial(monkeypatch):
    # ROADMAP 2: a read of a late match must not re-walk its subtree, so the
    # winner reads of a trial grow with the bracket, not with its depth
    reads, evaluated, entered = [], [], []
    get_winner = TwoPartyLottery.get_winner

    def counted_get_winner(lot, ctx):
        reads.append(lot.address)
        entered.append(lot.address)
        try:
            return get_winner(lot, ctx)
        finally:
            entered.pop()

    def counted_match_winner(*args):
        evaluated.append(entered[-1])
        return match_winner(*args)

    monkeypatch.setattr(TwoPartyLottery, "get_winner", counted_get_winner)
    monkeypatch.setattr(contracts, "match_winner", counted_match_winner)
    counts = {}
    for n in (64, 128):
        reads.clear(), evaluated.clear()
        result = run_trial(cfg(n=n, master_seed="rollback"), 0)
        assert result.committed and result.winner is not None
        assert len(evaluated) == len(set(evaluated)) == n - 1
        counts[n] = len(reads)
    assert counts[128] <= 2.1 * counts[64], counts


def test_a_contract_trial_journals_only_its_state_changing_calls(monkeypatch):
    # ROADMAP 2 as an exact count: a view enters no journal, so an honest
    # n=64 trial takes one snapshot per state-changing call (64 deposits, 126
    # commits, 126 opens, one payout) and reads each match's players once
    snapshots, static_calls = [], []
    for cls in (Master, TwoPartyLottery):
        snapshot = cls.snapshot
        monkeypatch.setattr(
            cls, "snapshot", lambda c, snapshot=snapshot: snapshots.append(1) or snapshot(c)
        )
    static_call = Vm.static_call
    monkeypatch.setattr(
        Vm, "static_call", lambda vm, *args: static_calls.append(args[2]) or static_call(vm, *args)
    )
    c = cfg(n=64, master_seed="rollback")
    rt = ContractRuntime(c, trial_rng(c.master_seed, 0), 0)
    result = rt.run()
    assert result.committed and result.winner is not None
    assert all(rec.ok for rec in rt.vm.trace)
    assert len(snapshots) == len(rt.vm.trace) == 317
    assert len(static_calls) == 64
    assert static_calls.count("participants") == 63


def test_an_honest_contract_trial_enters_the_vm_only_for_its_calls_and_reads(monkeypatch):
    # an exact count: a match reads its players from its children once and
    # keeps them, so a commit re-enters the VM for nothing; balances are
    # sampled only after the deposits, after the payout and for the payoffs
    invokes, samples = [], []
    invoke = Vm._invoke
    monkeypatch.setattr(Vm, "_invoke", lambda vm, *args: invokes.append(1) or invoke(vm, *args))
    balances = ContractRuntime.balances
    monkeypatch.setattr(ContractRuntime, "balances", lambda rt: samples.append(1) or balances(rt))
    result = run_trial(cfg(n=64, master_seed="rollback"), 0)
    assert result.committed and result.winner is not None
    # 317 calls and 64 static calls; 31 matches above level 0 read two
    # child winners each, once; the payout reads the final's winner
    assert len(invokes) == 317 + 64 + 31 * 2 + 1 == 444
    assert len(samples) == 3


class Vault:
    """Test contract: holds what a sender sends and pays it back on request."""

    METHODS = ("hold", "release")

    def __init__(self):
        self.address = ""
        self.held = {}

    def snapshot(self):
        return dict(self.held)

    def restore(self, state):
        self.held = dict(state)

    def hold(self, ctx):
        self.held[ctx.sender] = self.held.get(ctx.sender, 0) + ctx.value

    def release(self, ctx):
        ctx.pay(ctx.sender, self.held.pop(ctx.sender))


class Lender(ContractRuntime):
    """A contract runtime whose seat 0 sends `amount` to a vault just before
    the stop `lend_at` is played and takes it back just after the stop
    `repay_at`."""

    def __init__(self, cfg, rng, index, loan):
        super().__init__(cfg, rng, index)
        self.lend_at, self.repay_at, self.amount = loan
        self.vm.create("vault", Vault())

    def step(self, h):
        if h == self.lend_at:
            self.vm.call(self.accounts[0], "vault", "hold", value=self.amount)
        super().step(h)
        if h == self.repay_at:
            self.vm.call(self.accounts[0], "vault", "release")


@pytest.mark.parametrize("during", ["deposits", "play"])
def test_a_balance_that_falls_between_samples_is_measured(during):
    # a positive control for the locked-beyond-bet sampler: seat 0 holds
    # nothing for a while, one bet beyond its stake. Lent at the first stop,
    # its whole funding of two bets leaves it unable to deposit, and it is
    # repaid at t_commit; lent at the first commit stop, the bet it kept
    # beside its stake is repaid at the first open stop
    c = cfg(n=4, bet=3, master_seed="lender")
    t0, t1, _ = level_schedule(c.t_commit, level_stride(c.tau), c.tau, 0)
    loan = (1, c.t_commit, 2 * c.bet) if during == "deposits" else (t0 + 1, t1 + 1, c.bet)
    rt = Lender(c, trial_rng(c.master_seed, 0), 0, loan)
    result = rt.run()
    assert result.committed == (during == "play")
    assert sum(result.payoffs) == 0 and rt.vm.balance("vault") == 0
    assert result.locked_beyond_bet == (3, 0, 0, 0)


class ViewProbe(ContractRuntime):
    """A contract runtime that, after every stop, reads every view of every
    contract through `static_call` and checks that the read changed nothing."""

    def step(self, h):
        super().step(h)
        vm = self.vm
        for addr, contract in vm.contracts.items():
            for method in contract.VIEWS:
                before = {a: c.snapshot() for a, c in vm.contracts.items()}
                balances, calls = dict(vm.balances), len(vm.trace)
                try:
                    vm.static_call("observer", addr, method)
                except contracts.Reverted:
                    pass  # an early winner read
                assert {a: c.snapshot() for a, c in vm.contracts.items()} == before
                assert vm.balances == balances and len(vm.trace) == calls


@pytest.mark.parametrize("mix", [("honest",) * 8, ETH_MIXED_SEATS], ids=["honest", "mixed"])
def test_every_view_read_at_every_stop_changes_nothing(mix):
    c = cfg(n=8, strategies=mix, master_seed="views")
    for i in range(3):
        probed = ViewProbe(c, trial_rng(c.master_seed, i), i)
        plain = ContractRuntime(c, trial_rng(c.master_seed, i), i)
        assert probed.run() == plain.run()  # the reads do not change play either
        assert probed.vm.trace == plain.vm.trace


class PlayersProbe(ContractRuntime):
    """A contract runtime that, after every stop, reads every lottery's
    players and checks each pair a lottery keeps against a fresh read."""

    def step(self, h):
        super().step(h)
        vm = self.vm
        for addr in self.tree.lotteries.values():
            try:
                vm.static_call("observer", addr, "participants")
            except contracts.Reverted:
                pass  # a child match has not settled
        for addr in self.tree.lotteries.values():
            lot = vm.contracts[addr]
            if lot._players is not None:
                assert h >= lot.t0
                assert lot._players == fresh_players(vm, addr)


@pytest.mark.parametrize("mix", [("honest",) * 8, ETH_MIXED_SEATS], ids=["honest", "mixed"])
def test_every_kept_pair_of_players_equals_a_fresh_read(mix):
    c = cfg(n=8, strategies=mix, master_seed="players")
    for i in range(3):
        probed = PlayersProbe(c, trial_rng(c.master_seed, i), i)
        plain = ContractRuntime(c, trial_rng(c.master_seed, i), i)
        result = probed.run()
        assert result == plain.run() and probed.vm.trace == plain.vm.trace
        assert result.committed
        # every match of a full table was played, so each keeps its pair
        for runtime in (probed, plain):
            vm = runtime.vm
            for addr in runtime.tree.lotteries.values():
                assert vm.contracts[addr]._players == fresh_players(vm, addr)


def test_contract_trials_keep_no_python_memory():
    # ROADMAP 2: once warm, contract trials leave nothing behind in the
    # package's own allocations; allocator growth is outside this heap
    config = cfg(n=16, master_seed="memory")
    for i in range(50):
        run_trial(config, i)
    package = os.path.join(os.path.dirname(harness.__file__), "*")
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, package)])
        for i in range(200):
            run_trial(config, 50 + i)
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, package)])
    finally:
        tracemalloc.stop()
    growth = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert growth < 1024, growth


@pytest.mark.parametrize("deposit_option", ["atomic", "hashlocked"])
@pytest.mark.parametrize("backend", [BTC_PLAIN, BTC_MULTI])
def test_each_body_is_encoded_at_most_once_per_trial(monkeypatch, backend, deposit_option):
    # ROADMAP 12: a body carries its digests, so neither the scaffold nor
    # Chain.submit encodes a body that someone has already encoded
    config = cfg(backend, 8, deposit_option=deposit_option, master_seed="encode-once")
    run_trial(config, 0)  # fills the per-process closed-form stats cache
    encoded, built = [], []  # the bodies themselves, so no id() is reused
    body_bytes, body_cls = chain.body_bytes, chain.TransactionBody

    def recording_body_bytes(body):
        encoded.append(body)
        return body_bytes(body)

    def counted_body(*args, **kwargs):
        body = body_cls(*args, **kwargs)
        built.append(body)
        return body

    for module in (chain, scaffold, utxo):
        if getattr(module, "body_bytes", None) is body_bytes:
            monkeypatch.setattr(module, "body_bytes", recording_body_bytes)
    for module in (scaffold, utxo):  # chain builds only mints
        monkeypatch.setattr(module, "TransactionBody", counted_body)
    rt = ScaffoldRuntime(config, trial_rng(config.master_seed, 1), 1)
    assert rt.run().winner is not None
    mints = sum(1 for entry in rt.chain.log if entry.witness is None)
    assert len({id(body) for body in encoded}) == len(encoded), "a body was encoded twice"
    assert len(encoded) <= len(built) + mints


def test_a_forged_outcome_is_encoded_afresh_and_rejected():
    # the chain trusts only digests computed from a body's own bytes: an
    # outcome redirected to another key is a new body, whose signature
    # digest no one approved
    c = cfg(BTC_PLAIN, 4, ("force-timeout",) * 4, master_seed="forge")
    rt = ScaffoldRuntime(c, trial_rng(c.master_seed, 0), 0)
    rt.chain.advance_to(rt.SETUP_HEIGHT)
    rt.ceremony = signing_ceremony(rt.t, rt.strats, rt.oracle)
    t0, _, t2 = rt.t.schedule(0)
    for h in rt.stops():
        if h <= t0:  # the deposit, then the level-0 entries and reveals
            rt.step(h)
    rt.chain.advance_to(t2)
    k = rt.t.kernel(0, 0, 0)
    genuine = k.bodies[OUTCOMES[0]]
    assert k.ntxids[1] in rt.chain.entries and k.ntxids[OUTCOMES[0]] not in rt.chain.entries
    thief = KeySign(rt.keys[players_of(4, 0, 0, 0)[1]])
    forged = genuine._replace(outputs=(genuine.outputs[0]._replace(predicate=thief),))
    assert "digests" not in vars(forged)
    timed_out = Witness((InputWitness(rt.keys, {}, 1, None),))  # the reveal's timeout branch
    res = rt.chain.submit(forged, timed_out)
    assert res.reason == SCRIPT_FAIL and "signature check failed" in res.detail
    assert forged.digests[0] != k.ntxids[OUTCOMES[0]]
    assert rt.chain.submit(genuine, timed_out).ntxid == k.ntxids[OUTCOMES[0]]


# dominance checks


def test_dominance_passes_for_honest_table():
    # 400 trials would sit within one sigma of the 0.23 floor; 2000 gives
    # enough resolution for the fixed seed to clear it comfortably
    s = run_monte_carlo(cfg(trials=2000, master_seed="dom"), keep_trials=False)
    rep = check_dominance(s)
    assert rep.ok
    assert len(rep.lines) == 4


def test_dominance_flags_depressed_win_rate():
    s = run_monte_carlo(cfg(trials=50, master_seed="dom2"))
    # doctor one honest player's frequency below 1/n - eps
    freqs = list(s.win_freq)
    freqs[0] = 0.20
    doctored = dataclasses.replace(s, win_freq=tuple(freqs))
    rep = check_dominance(doctored)
    assert not rep.ok
    assert any("VIOLATED" in line and "player 0" in line for line in rep.lines)


def test_dominance_vacuous_when_everything_aborts():
    strategies = ("honest", "honest", "honest", "abort-at-deposit")
    s = run_monte_carlo(cfg(strategies=strategies, trials=10))
    rep = check_dominance(s)
    assert rep.ok
    assert all("aborted" in line for line in rep.lines if "honest" in line)


def test_dominance_skips_tables_without_honest_players():
    strategies = ("abort-at-deposit",) * 4
    s = run_monte_carlo(cfg(strategies=strategies, trials=2))
    rep = check_dominance(s)
    assert rep.ok and rep.lines == ["no honest players in scenario"]


# cost reports


def test_costs_ethereum_n8():
    r = measure_costs(ETH, 8)
    assert r.collateral_beyond_bet == 0
    assert r.onchain_tx_count == 37  # 8 deposits + 28 match calls + 1 withdraw
    assert r.onchain_bytes == 3264
    assert r.offchain_signed_per_party == 0
    assert r.rounds_to_final == 46
    assert r.materialized


def test_costs_bitcoin_plain_n4():
    r = measure_costs(BTC_PLAIN, 4)
    assert r.collateral_beyond_bet == 0
    assert r.offchain_signed_per_party == 56
    assert r.onchain_tx_count == 10
    assert r.rounds_to_final == 34
    assert r.materialized


def test_costs_bitcoin_plain_n16_is_statistics_only():
    r = measure_costs(BTC_PLAIN, 16)
    assert not r.materialized
    assert r.offchain_signed_per_party == 23922356
    assert r.onchain_tx_count == 46
    assert r.rounds_to_final == 58


def test_costs_multiinput_hashlocked_n8():
    r = measure_costs(BTC_MULTI, 8, deposit_option="hashlocked")
    assert r.collateral_beyond_bet == 0
    assert r.onchain_tx_count == 36  # 4*(n-1)+1 outcomes plus n-1 extra deposits
    assert r.offchain_signed_per_party == 165
    assert r.offchain_bodies == 172  # per-player deposits replace the atomic one
    assert r.rounds_to_final == 70


def test_cost_report_json_round_trip():
    doc = measure_costs(ETH, 4).to_json()
    json.dumps(doc)
    assert doc["collateral_beyond_bet"] == 0
    assert doc["backend"] == ETH


# sha256 over `costs`' JSON at n = 2..32 for every deposit option the backend
# takes, both signature models and two (tau, t_commit) schedules, in that
# nesting order; recorded while plain n > 8 still came from a closed form, and
# while each schedule also set a bet (1, then 5), which moved no report
COSTS_GOLDEN = {
    BTC_MULTI: "0b7201e7a9696ff0c15be6e99c1ecda603ad88d419e2920e470626af7a2700df",
    BTC_PLAIN: "271a139194e290ac5bb97fc824079d63b76971923cdb269dcec2c3bef3b8b64b",
    ETH: "c567534968be46e9f0a9c67421a175b0b44829eb5396d81c88e4e7604c9590b3",
}


@pytest.mark.parametrize("backend", sorted(COSTS_GOLDEN))
def test_cost_reports_match_the_golden_digests(backend):
    digest = hashlib.sha256()
    for n in (2, 4, 8, 16, 32):
        for deposit_option in ("atomic",) if backend == ETH else ("atomic", "hashlocked"):
            for sig_model in SIG_MODELS:
                for tau, t_commit in ((6, 10), (3, 7)):
                    r = measure_costs(
                        backend, n, tau=tau, t_commit=t_commit,
                        deposit_option=deposit_option, sig_model=sig_model,
                    )
                    digest.update(json.dumps(r.to_json(), indent=2).encode())
    assert digest.hexdigest() == COSTS_GOLDEN[backend]


@pytest.mark.parametrize("sig_model", SIG_MODELS)
@pytest.mark.parametrize("deposit_option", ["atomic", "hashlocked"])
@pytest.mark.parametrize("n", [16, 32])
def test_plain_costs_beyond_the_write_out_cap_equal_the_closed_form(n, deposit_option, sig_model):
    # the force-timeout trial publishes the slowest path of every match, so
    # what it puts on chain is the closed form's worst case, byte for byte
    r = measure_costs(BTC_PLAIN, n, deposit_option=deposit_option, sig_model=sig_model)
    stats = scaffold_stats(n, MODE_PLAIN, deposit_option)
    saved = auth_bytes("multisig", n) - auth_bytes(sig_model, n)  # the closed form sizes multisig
    assert r.collateral_beyond_bet == 0
    assert r.onchain_tx_count == stats.on_chain_worst_case
    assert r.onchain_bytes == stats.bytes_on_chain - stats.on_chain_worst_case * saved
    assert r.offchain_signed_per_party == stats.kernel_bodies + stats.compression_count + 1
    assert r.offchain_bodies == stats.total_offchain
    assert r.rounds_to_commit == 2
    assert r.rounds_to_final == level_schedule(10, level_stride(6), 6, num_levels(n))[0]
    assert not r.materialized


@pytest.mark.parametrize("sig_model", SIG_MODELS)
@pytest.mark.parametrize("deposit_option", ["atomic", "hashlocked"])
@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_multiinput_costs_fall_short_of_the_closed_form_by_the_left_winners_members(
    n, deposit_option, sig_model
):
    # the force-timeout trial settles every match by outcome a, so each
    # compression it lands is a left candidate's: half the MultiInput members
    # of the right candidate's that the closed form sizes. Per level that is
    # n/2 members of 36 bytes (an OutputRef) fewer than the closed form.
    r = measure_costs(BTC_MULTI, n, deposit_option=deposit_option, sig_model=sig_model)
    stats = scaffold_stats(n, MODE_MULTIINPUT, deposit_option)
    saved = auth_bytes("multisig", n) - auth_bytes(sig_model, n)  # the closed form sizes multisig
    levels = num_levels(n)
    assert r.collateral_beyond_bet == 0
    assert r.onchain_tx_count == stats.on_chain_worst_case
    closed_form = stats.bytes_on_chain - stats.on_chain_worst_case * saved
    assert closed_form - r.onchain_bytes == 36 * levels * n // 2
    assert r.offchain_signed_per_party == stats.kernel_bodies + stats.compression_count + 1
    assert r.offchain_bodies == stats.total_offchain
    assert r.rounds_to_commit == 2
    # the final compression lands with outcome a, at the last level's t2
    assert r.rounds_to_final == level_schedule(10, level_stride(6, True), 6, levels - 1)[2]
    assert r.materialized


def test_an_unknown_signature_model_is_refused_before_the_probe_plays(monkeypatch):
    # it was once sized as aggregate
    with pytest.raises(ConfigError, match="unknown signature model 'schnorr'"):
        auth_bytes("schnorr", 4)
    monkeypatch.setattr(harness, "_runtime", lambda cfg: pytest.fail("the probe played"))
    for backend in (ETH, BTC_PLAIN):
        with pytest.raises(ConfigError, match="unknown signature model 'schnorr'"):
            measure_costs(backend, 4, sig_model="schnorr")


@pytest.mark.parametrize("backend,n", [(ETH, 2**31), (BTC_MULTI, 2**30)])
def test_a_player_count_above_the_largest_is_refused_before_the_seats_are_made(backend, n):
    # the probe's seats are a per-player table: at these n they would take
    # gigabytes, and once raised MemoryError ahead of the bracket check
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=f"player count {n} is above the largest"):
            measure_costs(backend, n)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


# csv export


def test_csv_header_and_shape():
    s = run_monte_carlo(cfg(trials=3, master_seed="csv"))
    buf = io.StringIO()
    write_trials_csv(buf, s.results, 4)
    lines = buf.getvalue().strip().splitlines()
    header = lines[0].split(",")
    assert tuple(header[:7]) == CSV_FIXED_COLUMNS
    assert header[7:] == ["payoff_0", "payoff_1", "payoff_2", "payoff_3"]
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"  # committed flag renders 0/1


# randomized scenario mixes stay safe


MIX = ("honest", "abort-at-deposit", "abort-at-open", "force-timeout", "withhold-broadcast")


@settings(max_examples=10, deadline=None)
@given(
    pair=hs.tuples(hs.sampled_from(MIX), hs.sampled_from(MIX)),
    seed=hs.integers(0, 2**16),
)
def test_any_two_player_mix_conserves_value(pair, seed):
    c = ScenarioConfig(
        backend=BTC_PLAIN, n=2, strategies=pair, trials=2, master_seed=f"mix{seed}"
    )
    s = run_monte_carlo(c)
    assert s.zero_sum_ok and s.refunds_ok
    assert s.max_locked_beyond_bet == 0
    for r in s.results:
        if r.committed:
            assert sorted(r.payoffs) == [-1, 1]
        else:
            assert r.payoffs == (0, 0)


@pytest.mark.parametrize(
    "backend,deposit_option,strategies",
    [
        (ETH, "atomic", ("honest",) * 8),
        (BTC_PLAIN, "atomic", ("honest",) * 8),
        (BTC_MULTI, "hashlocked", MIXED8),
    ],
)
def test_a_finished_trial_leaves_no_garbage(backend, deposit_option, strategies):
    # a reference cycle in what a trial builds would leave each trial's
    # scaffold to the cycle collector, and memory would grow between passes
    config = cfg(backend, 8, strategies, deposit_option=deposit_option)
    gc.collect()
    gc.disable()
    try:
        assert run_trial(config, 0).committed
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("backend,deposit_option", [(BTC_PLAIN, "atomic"), (BTC_MULTI, "hashlocked")])
def test_a_settled_match_has_nothing_left_to_offer(backend, deposit_option):
    # the scaffold runtime offers only the candidates of unsettled matches,
    # which holds because every transaction of a settled match's kernel, and
    # its compression, spends an output that is already spent
    c = cfg(backend, 8, MIXED8, deposit_option=deposit_option, master_seed="settled")
    for i in range(2):
        rt = ScaffoldRuntime(c, trial_rng(c.master_seed, i), i)
        assert rt.run().winner is not None
        entries, utxo = rt.chain.entries, rt.chain.utxo.keys()
        outcomes = [
            (k, ntxid) for k in rt.t.kernels.values() for ntxid in [k.ntxids[i] for i in OUTCOMES] if ntxid in entries
        ]
        assert len(outcomes) == 7  # one per match of the bracket
        for k, ntxid in outcomes:
            for body in k.bodies:
                assert not {spec.ref for spec in body.inputs} <= utxo
            if backend == BTC_MULTI:  # the compression choosing the outcome spent it
                assert OutputRef(ntxid, 0) not in utxo


# sha256 over `Chain.export_log_jsonl()` of the first three trials of each mix
# in order, recorded before the scaffold runtime derived its candidates and
# witnesses from one table of kernel plays; the export records each
# witness's branch, preimage slots, chosen ref and signature count. The
# mixed seats repeat MIXED8 past n = 8. The multiinput n = 16 and 32
# entries were recorded before kernel ids came from byte templates: a
# wrong member id in a compression's set changes no winner, height or
# payoff, only the ntxids these logs carry
CHAIN_LOG_GOLDEN = {
    (BTC_MULTI, 4, "atomic"): "73057196ac68d65ea5c22cd140cc0131fa086f267b05bf3f65fcd09ba1da4336",
    (BTC_MULTI, 4, "hashlocked"): "b26c2bf9afa243724577947138b88b4596010c76fce2ceecb034d1621e0e0728",
    (BTC_MULTI, 8, "atomic"): "07495caf841edccf7ebebf62d53f27a0460d57f3c33fc9f3d545d1ea57805b9d",
    (BTC_MULTI, 8, "hashlocked"): "ba08027f76ac30533f169038f537ccc3de43c583d5cd1b02a09a3eed27f9fb56",
    (BTC_MULTI, 16, "hashlocked"): "a5e1f7c9808a5f85383b1d1dff198da4f1de698233b788db00dba0a00db8e13d",
    (BTC_MULTI, 32, "atomic"): "9a03a31f9da7f602ed26eab88c1064e82be4087b419faed18f733f852eff3479",
    (BTC_PLAIN, 4, "atomic"): "cd1012a103f5dfe610e40d9b9b7b34ef8d131fb47d29c4a379c9f97b614e5f42",
    (BTC_PLAIN, 4, "hashlocked"): "f6b1d319af93a220f41612eb7d5a6e2abaa7f0446bb2c10a88cebfb88b8b694a",
    (BTC_PLAIN, 8, "atomic"): "78f15a0c7e66f60eda3570cdc6e99a2cf629f65279960bdbb3eaa28fbf8de343",
    (BTC_PLAIN, 8, "hashlocked"): "626dbbba88df4f0b575bb55ef66a2cb276a0ace622c57a80a7dd2d865de8bfe0",
}


@pytest.mark.parametrize("backend,n,deposit_option", sorted(CHAIN_LOG_GOLDEN))
def test_chain_logs_match_the_golden_digests(backend, n, deposit_option):
    digest = hashlib.sha256()
    for mix in (
        ("honest",) * n,
        (MIXED8 * n)[:n],
        ("honest", "withhold-broadcast") + ("honest",) * (n - 2),
    ):
        c = cfg(backend, n, mix, deposit_option=deposit_option, master_seed="golden")
        for i in range(3):
            rt = ScaffoldRuntime(c, trial_rng(c.master_seed, i), i)
            rt.run()
            digest.update(rt.chain.export_log_jsonl().encode())
    assert digest.hexdigest() == CHAIN_LOG_GOLDEN[(backend, n, deposit_option)]


# sha256 over every offer `record_offers` sees (the view's repr, the answer and
# the chain log's length) in the first three trials of each mix in order; it
# pins declined offers too, which no chain log shows. Re-recorded when the
# view lost its unread `player` and `height`, with only that deletion applied
OFFER_GOLDEN = {
    (BTC_MULTI, 4, "atomic"): "ed2f58969da59a2afb7fd16952d39f080d50dcbb84a4ab09bf767820242a7691",
    (BTC_MULTI, 4, "hashlocked"): "2c9056942626e72962ae537504a0e77eebdbe7a570ebbbddbfd28319a41ad6b5",
    (BTC_MULTI, 8, "atomic"): "ab55d760669c89a6bac42638f14da6f6bbba2ec8c97257e40b4c946fe8a44dd7",
    (BTC_MULTI, 8, "hashlocked"): "4e1867bc0cdc3404032e0b49da6c2da7e3dd281f021516da9f863f54f9a25d5c",
    (BTC_PLAIN, 4, "atomic"): "99b3bd373a60febff1006c93a3ad85e720e3d87b25fc2c85392f7f664d822ff5",
    (BTC_PLAIN, 4, "hashlocked"): "4629574bdedf542d515a0d4e0953e723260682a187cb3690739c07e5dd89cbbf",
    (BTC_PLAIN, 8, "atomic"): "9327376ce87181a7cddc9f4a76fc20e4feedb6b8e7db5fe6e82eacc6d37ff38f",
    (BTC_PLAIN, 8, "hashlocked"): "673c5d4ef8ab979efcdd403b199ee5ebbb925e0c763c2e5eaaa4880ca26f5d01",
}


@pytest.mark.parametrize("backend,n,deposit_option", sorted(OFFER_GOLDEN))
def test_offer_sequences_match_the_golden_digests(backend, n, deposit_option):
    digest = hashlib.sha256()
    for mix in (
        ("honest",) * n,
        MIXED8[:n],
        ("honest", "withhold-broadcast") + ("honest",) * (n - 2),
        ("honest",) * (n - 1) + ("abort-at-deposit",),
    ):
        c = cfg(backend, n, mix, deposit_option=deposit_option, master_seed="golden")
        for i in range(3):
            rt = ScaffoldRuntime(c, trial_rng(c.master_seed, i), i)
            offers = record_offers(rt)
            rt.run()
            for _, view, answer, length in offers:
                digest.update(f"{view!r} {answer} {length}\n".encode())
    assert digest.hexdigest() == OFFER_GOLDEN[(backend, n, deposit_option)]


def seats_with_every_preimage(rt, cand):
    """The seats the per-seat rule serves, in order: a seat can give `cand`
    when each digest it opens is public or a secret of a kernel side among
    that seat's allies."""

    def lookup(player, digest):
        pre = rt.public.get(digest)
        if pre is not None or cand.kernel is None:
            return pre
        k, allies = cand.kernel, rt.allies[player]
        left, right = players_of(rt.cfg.n, *k.id, rt.cfg.mode)
        if digest == k.commits[0] and left in allies:
            return rt.t.secret(k.id, SIDE_LEFT)
        if digest == k.commits[1] and right in allies:
            return rt.t.secret(k.id, SIDE_RIGHT)
        return None

    seats = (cand.owner,) if cand.owner is not None else range(rt.cfg.n)
    return [p for p in seats if all(lookup(p, digest) is not None for _, digest in cand.opens)]


@pytest.mark.parametrize("deposit_option", ["atomic", "hashlocked"])
@pytest.mark.parametrize("backend", [BTC_PLAIN, BTC_MULTI])
def test_a_witness_is_asked_of_exactly_the_seats_holding_its_preimages(backend, deposit_option):
    # a withholding seat never broadcasts its own hashlocked deposit, so with
    # it that table is only ever offered deposits and refunds
    withholding = MIXED8[:7] + ("withhold-broadcast",)
    served = set()
    for mix, i in itertools.product((withholding * 2, MIXED8 * 2), range(4)):
        c = cfg(backend, 16, mix, deposit_option=deposit_option, master_seed="holders")
        rt = ScaffoldRuntime(c, trial_rng(c.master_seed, i), i)

        def witness(cand, build=rt._witness, rt=rt):
            want = seats_with_every_preimage(rt, cand)
            given = build(cand)
            if given is None:
                if want:  # only outcome b' on even parity is refused to seats that hold it
                    assert cand.role == "outcome-bp"
                    left, right = (rt.t.secret(cand.kernel.id, side) for side in (SIDE_LEFT, SIDE_RIGHT))
                    assert parity_bit(left) == parity_bit(right)
            else:
                assert list(given[1]) == want
                served.add(len(want))
            return given

        rt._witness = witness
        rt.run()
    # lone sides, the coalition of four and the whole table were all asked
    assert {1, 4, 16} <= served


def test_a_plain_n64_trial_builds_one_witness_per_offer(monkeypatch):
    calls = {"_witness": 0, "_offer": 0}
    for name in calls:
        def counted(self, *args, method=getattr(ScaffoldRuntime, name), name=name):
            calls[name] += 1
            return method(self, *args)
        monkeypatch.setattr(ScaffoldRuntime, name, counted)
    c = cfg(BTC_PLAIN, 64, master_seed=1)
    rt = ScaffoldRuntime(c, trial_rng(c.master_seed, 0), 0)
    assert rt.run().winner is not None
    submitted = sum(1 for entry in rt.chain.log if entry.witness is not None)
    assert calls["_witness"] == calls["_offer"] <= 3 * submitted


# sha256 over the repr of every `Vm.trace` record of the first three trials of
# each mix in order, recorded before both runtimes shared one trial loop
VM_TRACE_GOLDEN = {
    4: "192f03ad73ea95dad3d39c7bf392d174accc3265f843dd2c379b86195cdaac4b",
    8: "f2c4e376bd9e2589aa3fb43c08564faa1aa385ea8820cedfd73eecb2641f98da",
}


@pytest.mark.parametrize("n", sorted(VM_TRACE_GOLDEN))
def test_vm_traces_match_the_golden_digests(n):
    digest = hashlib.sha256()
    for mix in (
        ("honest",) * n,
        ETH_MIXED_SEATS[:n],
        ("honest",) * (n - 1) + ("abort-at-deposit",),
    ):
        c = cfg(ETH, n, mix, master_seed="golden")
        for i in range(3):
            rt = ContractRuntime(c, trial_rng(c.master_seed, i), i)
            rt.run()
            for rec in rt.vm.trace:
                digest.update(repr(rec).encode())
    assert digest.hexdigest() == VM_TRACE_GOLDEN[n]


# the broadcast view


def record_offers(rt):
    """Wrap every strategy's broadcast hook; each offer is kept as (the seat
    asked, the view, its answer, the chain log's length when it was made)."""
    offers = []
    for seat, strat in enumerate(rt.strats):
        def at_broadcast(view, decide=strat.at_broadcast, seat=seat):
            answer = decide(view)
            offers.append((seat, view, answer, len(rt.chain.log)))
            return answer
        strat.at_broadcast = at_broadcast
    return offers


def accepted_offers(rt, offers):
    """(view, log entry) of every offer the chain accepted: an accepted
    offer ends a pass, so the next offer sees the log one entry longer."""
    lengths = [length for *_, length in offers[1:]] + [len(rt.chain.log)]
    return [
        (view, rt.chain.log[length])
        for (_, view, answer, length), after in zip(offers, lengths)
        if answer and after == length + 1
    ]


KERNEL_KINDS = {"entry", "reveal", "outcome-a", "outcome-b", "outcome-bp"}


@pytest.mark.parametrize(
    "backend,n,deposit_option,strategies,offered",
    [
        (
            BTC_PLAIN, 4, "atomic", ("honest",) + ("force-timeout",) * 3,
            {"deposit", "entry", "reveal", "outcome-a", "outcome-bp"},
        ),
        (BTC_MULTI, 8, "hashlocked", MIXED8, {"deposit", "compression"} | KERNEL_KINDS),
        (BTC_MULTI, 4, "hashlocked", HONEST4[:3] + ("abort-at-deposit",), {"deposit", "refund"}),
    ],
    ids=["plain-force-timeout", "multiinput-hashlocked-mixed", "multiinput-hashlocked-refund"],
)
def test_broadcast_views_name_who_a_transaction_pays_and_who_plays(
    backend, n, deposit_option, strategies, offered
):
    c = cfg(backend, n, strategies, deposit_option=deposit_option, master_seed="views")
    rt = ScaffoldRuntime(c, trial_rng(c.master_seed, 0), 0)
    offers = record_offers(rt)
    rt.run()
    t = rt.t
    hashlocked = deposit_option == "hashlocked"
    on_chain = {
        kid: players_of(n, *kid, t.mode) for kid, k in t.kernels.items()
        if k.ntxids[0] in rt.chain.entries
    }
    pairs = set(on_chain.values())
    winners = {
        pair[winner_side(i)]
        for kid, pair in on_chain.items()
        for i, ntxid in enumerate([t.kernels[kid].ntxids[o] for o in OUTCOMES])
        if ntxid in rt.chain.entries
    }
    paid_side = {"outcome-a": 0, "outcome-b": 1, "outcome-bp": 1}  # entry and reveal pay no one
    for seat, view, _, _ in offers:
        if view.kind in KERNEL_KINDS:
            players = (view.left_player, view.right_player)
            assert players in pairs
            side = paid_side.get(view.kind)
            assert view.beneficiary == (None if side is None else players[side])
            continue
        assert view.left_player is view.right_player is None
        if view.kind == "compression":
            assert view.beneficiary in winners
        elif view.kind == "refund" or (view.kind == "deposit" and hashlocked):
            assert view.beneficiary == seat  # only the owner can sign it
        else:
            assert view.kind == "deposit" and view.beneficiary is None
    # every accepted offer names the parties of the transaction that landed
    roles = {item.ntxid: item for item in iter_bodies(t)}
    kinds = set()
    for view, entry in accepted_offers(rt, offers):
        kinds.add(view.kind)
        item = roles.get(entry.ntxid)
        if item is None:  # a refund: it spends its owner's deposit
            (spec,) = entry.body.inputs
            assert view.kind == "refund"
            assert spec.ref == OutputRef(t.deposit_ntxids[view.beneficiary], 0)
            continue
        assert view.kind == item.role
        if item.role == "deposit":
            assert view.beneficiary == (item.key if hashlocked else None)
        elif item.role == "compression":
            assert view.beneficiary == item.key[2]
        else:
            pair = players_of(n, *item.key, t.mode)
            assert (view.left_player, view.right_player) == pair
            assert view.beneficiary in (None, *pair)
    assert {view.kind for _, view, _, _ in offers} == offered
    assert kinds <= offered and "deposit" in kinds
