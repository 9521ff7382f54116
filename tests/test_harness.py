"""Scenario runner: determinism, payoffs, bounds, dominance, costs."""

import dataclasses
import gc
import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from commitlotto.chain import FixedInput, TransactionBody, TxOutput, sig_digest_for
from commitlotto.contracts import Vm
from commitlotto.primitives import OutputRef
from commitlotto.scaffold import BRANCH_DEPOSIT_REFUND, iter_bodies, signing_ceremony
from commitlotto.script import InputWitness, KeySign, Witness
from commitlotto.strategies import BTC_MULTI, Strategy
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

from conftest import ETH_MIXED_SEATS

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
        dict(sig_model="schnorr"),
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
        super().__init__(player, rng=None)
        self.secret, self.commits, self.opens, self.late = secret, commits, opens, late
        self.open_views = []

    def choose_secret(self, view):
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
        assert (view.opponent_open is not None) == (opponent == "opened")
        assert r.winner == rt.player_of[
            rt.vm.static_call("observer", rt.tree.final, "get_winner")
        ]
        flags[opens] = (view.wins_if_open, view.wins_if_silent)
        assert (view.wins_if_open if opens else view.wins_if_silent) == (r.winner == seat)
    assert flags[True] == flags[False]  # the flags do not depend on the choice they inform


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


# sha256 over `Chain.export_log_jsonl()` of the first three trials of each mix
# in order, recorded before the scaffold runtime derived its candidates and
# witnesses from one table of kernel plays; the export records each
# witness's branch, preimage slots, chosen ref and signature count
CHAIN_LOG_GOLDEN = {
    (BTC_MULTI, 4, "atomic"): "73057196ac68d65ea5c22cd140cc0131fa086f267b05bf3f65fcd09ba1da4336",
    (BTC_MULTI, 4, "hashlocked"): "b26c2bf9afa243724577947138b88b4596010c76fce2ceecb034d1621e0e0728",
    (BTC_MULTI, 8, "atomic"): "07495caf841edccf7ebebf62d53f27a0460d57f3c33fc9f3d545d1ea57805b9d",
    (BTC_MULTI, 8, "hashlocked"): "ba08027f76ac30533f169038f537ccc3de43c583d5cd1b02a09a3eed27f9fb56",
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
        MIXED8[:n],
        ("honest", "withhold-broadcast") + ("honest",) * (n - 2),
    ):
        c = cfg(backend, n, mix, deposit_option=deposit_option, master_seed="golden")
        for i in range(3):
            rt = ScaffoldRuntime(c, trial_rng(c.master_seed, i), i)
            rt.run()
            digest.update(rt.chain.export_log_jsonl().encode())
    assert digest.hexdigest() == CHAIN_LOG_GOLDEN[(backend, n, deposit_option)]


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
    """Wrap every strategy's broadcast hook; each offer is kept as
    (view, its answer, the chain log's length when it was made)."""
    offers = []
    for strat in rt.strats:
        def at_broadcast(view, decide=strat.at_broadcast):
            answer = decide(view)
            offers.append((view, answer, len(rt.chain.log)))
            return answer
        strat.at_broadcast = at_broadcast
    return offers


def accepted_offers(rt, offers):
    """(view, log entry) of every offer the chain accepted: an accepted
    offer ends a pass, so the next offer sees the log one entry longer."""
    lengths = [length for _, _, length in offers[1:]] + [len(rt.chain.log)]
    return [
        (view, rt.chain.log[length])
        for (view, answer, length), after in zip(offers, lengths)
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
    on_chain = [k for k in t.kernels.values() if k.entry_ntxid in rt.chain.entries]
    pairs = {(k.left_player, k.right_player) for k in on_chain}
    winners = {
        k.left_player if i == 0 else k.right_player
        for k in on_chain
        for i, ntxid in enumerate(k.outcome_ntxids)
        if ntxid in rt.chain.entries
    }
    paid_side = {"outcome-a": 0, "outcome-b": 1, "outcome-bp": 1}  # entry and reveal pay no one
    for view, _, _ in offers:
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
            assert view.beneficiary == view.player  # only the owner can sign it
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
            k = t.kernels[item.key]
            assert (view.left_player, view.right_player) == (k.left_player, k.right_player)
            assert view.beneficiary in (None, k.left_player, k.right_player)
    assert {view.kind for view, _, _ in offers} == offered
    assert kinds <= offered and "deposit" in kinds
