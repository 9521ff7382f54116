"""Scenario harness: deterministic trials, sweeps and measurement.

One trial is a full protocol run on a fresh simulated ledger: funding,
setup (scaffold ceremony or contract deployment), play under the given
strategy assignment, and settlement. Trials are reproducible: the trial
RNG is derived from the master seed and trial index, and play is
event-ordered with no hidden iteration-order dependence. Both backends
play the same bracket of two-party lotteries and differ only in
settlement, so one loop, `Runtime._trial`, plays every trial, and each
runtime supplies only its stops, its step, its done test and what only
its ledger can tell.

A runtime keeps no record of play: it reads play from its ledger, and any
action on it counts, whoever made it. The contract runtime, here, builds
a player's open-phase view with `contracts.match_winner`, the rule
`get_winner` applies. The scaffold runtime, `ScaffoldRuntime`, lives in
`utxo` with the scaffold stack it plays on (`scaffold`, `chain`,
`script`). This module imports none of them at module level: `_runtime`
loads `utxo` the first time a config names a bitcoin backend, and a
module `__getattr__` (PEP 562) keeps `harness.ScaffoldRuntime` a name of
this module. So a process that runs only contract trials never compiles
the scaffold stack. The names both sides read (`MODE_*`, `DEPOSIT_*`,
`matches_at`) are in `primitives`. `cli` still imports `scaffold` at
module level: the benchmark's tracer finds the modules it wraps in
`sys.modules`, and in a contract-only run that import puts them there.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import statistics
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .contracts import CallRecord, Reverted, TwoPartyLottery, Vm, build_tree, match_winner
from .primitives import (
    DEPOSIT_ATOMIC,
    DEPOSIT_HASHLOCKED,
    MODE_MULTIINPUT,
    MODE_PLAIN,
    ConfigError,
    Rng,
    check_params,
    matches_at,
    num_levels,
)
from .strategies import (
    ALL_BACKENDS,
    BTC_MULTI,
    BTC_PLAIN,
    ETH,
    CommitView,
    OpenView,
    Strategy,
    make_strategy,
    supports,
)

BACKENDS = ALL_BACKENDS


@dataclass(frozen=True)
class ScenarioConfig:
    backend: str
    n: int
    strategies: tuple[str, ...]
    tau: int = 6
    t_commit: int = 10
    bet: int = 1
    deposit_option: str = DEPOSIT_ATOMIC
    trials: int = 1
    master_seed: object = "commitlotto"

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}; known: {', '.join(BACKENDS)}")
        check_params(self.n, self.tau, self.t_commit, self.bet)
        if len(self.strategies) != self.n:
            raise ConfigError(f"need {self.n} strategies, got {len(self.strategies)}")
        for name in self.strategies:
            if not supports(name, self.backend):
                raise ConfigError(f"strategy {name!r} is not defined for backend {self.backend}")
        if self.deposit_option not in (DEPOSIT_ATOMIC, DEPOSIT_HASHLOCKED):
            raise ConfigError(f"unknown deposit option {self.deposit_option!r}")
        if self.backend == ETH and self.deposit_option != DEPOSIT_ATOMIC:
            raise ConfigError("the contract backend escrows stakes in the master; use atomic")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")

    @property
    def mode(self) -> str:
        return MODE_MULTIINPUT if self.backend == BTC_MULTI else MODE_PLAIN

    @property
    def levels(self) -> int:
        return num_levels(self.n)

    def to_json(self) -> dict:
        return {
            **dataclasses.asdict(self),
            "strategies": list(self.strategies),
            "master_seed": str(self.master_seed),
            "sig_model": "multisig",  # every trial's witnesses name all n master keys
        }


@dataclass
class TrialResult:
    trial: int
    committed: bool
    winner: Optional[int]
    final_height: Optional[int]
    abort_height: Optional[int]
    payoffs: tuple[int, ...]
    deposited: tuple[int, ...]
    returned: tuple[int, ...]
    locked_beyond_bet: tuple[int, ...]
    onchain_tx_count: int

    @property
    def max_locked_beyond_bet(self) -> int:
        return max(self.locked_beyond_bet)


def trial_rng(master_seed, index: int) -> Rng:
    return Rng(master_seed).child("trial").child(str(index))


class Runtime:
    """One trial on one backend, played by `_trial`, the one trial loop.

    A runtime supplies `stops()`, the heights at which an action can land;
    `step(h)`, which advances its ledger to h and offers every action that
    can land there; `done(h)`; `value_moves`, a count that grows whenever
    a balance may have moved (the VM's applied transfers, or the length of
    the chain log); `balances()`; and `_fields()`, the result fields only
    it can read.
    """

    def __init__(self, cfg: ScenarioConfig, rng: Rng, trial_index: int = 0):
        self.cfg = cfg
        self.rng = rng
        self.trial_index = trial_index
        self.funded = 2 * cfg.bet  # one bet to stake plus an untouched margin
        shared: dict = {}  # what a coalition's members share
        self.strats: list[Strategy] = [
            make_strategy(cfg.strategies[i], i, shared) for i in range(cfg.n)
        ]

    def _trial(self) -> TrialResult:
        """Step through the stops until done, sampling every balance after a
        stop at which value may have moved."""
        cfg = self.cfg
        min_balance = [self.funded] * cfg.n
        sampled = -1  # `value_moves` at the last sample: a balance moves only when it grows
        for h in self.stops():
            self.step(h)
            if self.value_moves != sampled:
                sampled = self.value_moves
                min_balance = list(map(min, min_balance, self.balances()))
            if self.done(h):
                break
        return TrialResult(
            trial=self.trial_index,
            payoffs=tuple(bal - self.funded for bal in self.balances()),
            # how far a balance ever fell below the margin
            locked_beyond_bet=tuple(max(0, self.funded - bal - cfg.bet) for bal in min_balance),
            **self._fields(),
        )


# contract backend


class ContractRuntime(Runtime):
    """One trial against the account-model backend.

    The VM is the only record of play: who deposited and who was refunded
    are read from the master, and the winner and final height from the one
    successful withdraw once the table is complete. The runtime visits only
    the heights at which an action can land (`stops`), and holds the
    players' secrets and, per match, its two players once resolved. Each
    action is one `Vm.call`; a revert is recorded in the trace and play
    goes on. Each level's schedule and each match's lottery are looked up
    once, when the tree is deployed.
    """

    def __init__(self, cfg: ScenarioConfig, rng: Rng, trial_index: int = 0):
        super().__init__(cfg, rng, trial_index)
        self.vm = Vm()
        self.accounts = [f"P{i}" for i in range(cfg.n)]
        for account in self.accounts:
            self.vm.fund(account, self.funded)
        self.tree = build_tree(self.vm, cfg.n, cfg.bet, cfg.tau, cfg.t_commit)
        self.master = self.vm.contracts[self.tree.master]
        # per level its (t0, t1, t2) and, per match, its lottery's (address, contract)
        self._schedules = [self.tree.schedule(level) for level in range(cfg.levels)]
        self._lotteries: list[list[tuple[str, TwoPartyLottery]]] = []
        for level in range(cfg.levels):
            addrs = [self.tree.lottery(level, match) for match in range(matches_at(cfg.n, level))]
            self._lotteries.append([(addr, self.vm.contracts[addr]) for addr in addrs])
        self.player_of = {self.accounts[i]: i for i in range(cfg.n)}
        self._secrets: dict[tuple[int, int, int], int] = {}
        self._participants: dict[str, tuple[Optional[str], Optional[str]]] = {}  # by lottery address

    @property
    def value_moves(self) -> int:
        return self.vm.transfers

    def balances(self) -> list[int]:
        balances = self.vm.balances
        return [balances[account] for account in self.accounts]

    def _master_calls(self, method: str) -> list[CallRecord]:
        """The successful calls of `method` on the master, in chain order."""
        master = self.tree.master
        return [r for r in self.vm.trace if r.ok and r.contract == master and r.method == method]

    @property
    def deposit_complete_h(self) -> Optional[int]:
        """Height of the deposit that filled the table; None while a seat is free."""
        deposits = self._master_calls("deposit")
        return deposits[-1].height if len(deposits) == self.cfg.n else None

    def _secret(self, player: int, level: int, match: int) -> int:
        key = (player, level, match)
        if key not in self._secrets:
            rng = self.rng.child(f"secret/{player}/{level}/{match}")
            self._secrets[key] = self.strats[player].choose_secret(rng)
        return self._secrets[key]

    def _resolve_participants(self, addr: str):
        if addr not in self._participants:
            self._participants[addr] = self.vm.static_call("observer", addr, "participants")
        return self._participants[addr]

    def _play_match(self, level: int, match: int, h: int) -> None:
        """Offer each player of a match its commit or its opening at height h.

        Player a is asked first, so b's view shows a's call. A commit is
        offered until made; an opening is offered to a committed player until
        made, so a visit after both players have acted returns at once. The
        open view's flag is `match_winner` with the player's own opening
        added.
        """
        addr, lot = self._lotteries[level][match]
        committing = h < lot.t1
        # only players commit and only committers open: two entries mean both have acted
        if len(lot.commits if committing else lot.opens) == 2:
            return
        a, b = self._resolve_participants(addr)
        for mine, theirs in ((a, b), (b, a)):
            player = self.player_of.get(mine)
            if committing:
                offered = mine not in lot.commits
            else:
                offered = mine in lot.commits and mine not in lot.opens
            if player is None or not offered:
                continue
            secret = self._secret(player, level, match)
            if committing:
                view = CommitView(
                    my_address=mine, my_secret=secret,
                    opponent_player=self.player_of.get(theirs),
                    opponent_commit=lot.commits.get(theirs),
                )
                method, arg = "commit", self.strats[player].at_commit(view)
            else:
                opened = {**lot.opens, mine: secret}
                view = OpenView(
                    my_address=mine, my_secret=secret,
                    opponent_player=self.player_of.get(theirs),
                    opponent_commit=lot.commits.get(theirs),
                    last_chance=h == lot.t2 - 1,
                    wins_if_open=match_winner(a, b, lot.commits, opened) == mine,
                )
                method, arg = "open", self.strats[player].at_open(view)
            if arg is not None:
                try:
                    self.vm.call(mine, addr, method, arg)
                except Reverted:
                    pass

    def stops(self) -> list[int]:
        """Each height at which an action can land: 1 (deposits), t_commit
        (refunds), t_final (the payout), and per level the first and last
        height of the commit and the open window, (t0, t1) and (t1, t2)."""
        stops = {1, self.cfg.t_commit, self.tree.t_final}
        for t0, t1, t2 in self._schedules:
            stops.update((t0 + 1, t1 - 1, t1 + 1, t2 - 1))
        return sorted(stops)

    def step(self, h: int) -> None:
        """Deposits before t_commit, refunds from t_commit if the table never
        filled; once it has, the commits and openings of the level whose
        window (t0, t2) holds h, and the payout at t_final."""
        cfg, vm, tree, master = self.cfg, self.vm, self.tree, self.master
        vm.advance_to(h)
        if h < cfg.t_commit and not master.is_complete():
            for i, account in enumerate(self.accounts):
                if account in master.players:
                    continue
                if self.strats[i].at_deposit(None):
                    try:
                        vm.call(account, tree.master, "deposit", value=cfg.bet)
                    except Reverted:
                        pass
        if not master.is_complete():
            if h >= cfg.t_commit:
                for account in self.accounts:
                    if account in master.players and account not in master.refunded:
                        try:
                            vm.call(account, tree.master, "withdraw")
                        except Reverted:
                            pass
            return
        for level, (t0, _, t2) in enumerate(self._schedules):
            if t0 < h < t2:
                for match in range(len(self._lotteries[level])):
                    self._play_match(level, match, h)
        if h == tree.t_final:
            winner = vm.static_call("observer", tree.final, "get_winner")
            if winner in self.player_of:
                try:
                    vm.call(winner, tree.master, "withdraw")
                except Reverted:
                    pass

    def done(self, h: int) -> bool:
        """A table that never filled refunds every deposit at t_commit; nothing
        can land after that."""
        return h >= self.cfg.t_commit and not self.master.is_complete()

    def run(self) -> TrialResult:
        """The trial loop; each runtime has its own `run`, which bench/tracer.py times."""
        return self._trial()

    def _fields(self) -> dict:
        cfg, vm, master = self.cfg, self.vm, self.master
        assert sum(vm.balances.values()) == cfg.n * self.funded, "account money leaked"
        committed = master.is_complete()
        # a complete table admits no refund, so its only withdraw pays the pot
        payout = self._master_calls("withdraw") if committed else []
        return dict(
            committed=committed,
            winner=self.player_of[payout[0].sender] if payout else None,
            final_height=payout[0].height if payout else None,
            abort_height=None if committed else cfg.t_commit,
            deposited=tuple(cfg.bet if a in master.players else 0 for a in self.accounts),
            returned=tuple(cfg.bet if a in master.refunded else 0 for a in self.accounts),
            onchain_tx_count=sum(1 for rec in vm.trace if rec.ok),
        )


# monte carlo


def _runtime(cfg: ScenarioConfig, index: int = 0) -> Runtime:
    """The runtime of trial `index` on the config's backend, seeded from its
    master seed; a bitcoin backend's loads `utxo` and its scaffold stack."""
    if cfg.backend == ETH:
        runtime = ContractRuntime
    else:
        from .utxo import ScaffoldRuntime as runtime
    return runtime(cfg, trial_rng(cfg.master_seed, index), index)


def __getattr__(name: str):
    """`harness.ScaffoldRuntime`, which loads `utxo` when first read (PEP 562)."""
    if name == "ScaffoldRuntime":
        from .utxo import ScaffoldRuntime

        return ScaffoldRuntime
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_trial(cfg: ScenarioConfig, index: int = 0) -> TrialResult:
    return _runtime(cfg, index).run()


@dataclass
class Summary:
    config: ScenarioConfig
    trials: int
    committed: int
    aborted: int
    wins: tuple[int, ...]
    win_freq: tuple[float, ...]
    payoff_min: tuple[int, ...]
    payoff_max: tuple[int, ...]
    payoff_mean: tuple[float, ...]
    zero_sum_ok: bool
    refunds_ok: bool
    max_locked_beyond_bet: int
    onchain_max: Optional[int]
    onchain_min: Optional[int]
    final_height_max: Optional[int]
    abort_height_max: Optional[int]
    results: list[TrialResult] = field(repr=False, default_factory=list)


def run_monte_carlo(cfg: ScenarioConfig, keep_trials: bool = True) -> Summary:
    n = cfg.n
    wins = [0] * n
    payoff_lists: list[list[int]] = [[] for _ in range(n)]
    committed = 0
    zero_sum_ok = True
    refunds_ok = True
    max_locked = 0
    onchain_committed: list[int] = []
    final_heights: list[int] = []
    abort_heights: list[int] = []
    results: list[TrialResult] = []
    for i in range(cfg.trials):
        r = run_trial(cfg, i)
        if keep_trials:
            results.append(r)
        if sum(r.payoffs) != 0:
            zero_sum_ok = False
        for p in range(n):
            payoff_lists[p].append(r.payoffs[p])
        max_locked = max(max_locked, r.max_locked_beyond_bet)
        if r.committed:
            committed += 1
            if r.winner is not None:
                wins[r.winner] += 1
            onchain_committed.append(r.onchain_tx_count)
            if r.final_height is not None:
                final_heights.append(r.final_height)
        else:
            if r.returned != r.deposited:
                refunds_ok = False
            if r.abort_height is not None:
                abort_heights.append(r.abort_height)
    win_freq = tuple(w / committed if committed else 0.0 for w in wins)
    return Summary(
        config=cfg,
        trials=cfg.trials,
        committed=committed,
        aborted=cfg.trials - committed,
        wins=tuple(wins),
        win_freq=win_freq,
        payoff_min=tuple(min(xs) for xs in payoff_lists),
        payoff_max=tuple(max(xs) for xs in payoff_lists),
        payoff_mean=tuple(statistics.fmean(xs) for xs in payoff_lists),
        zero_sum_ok=zero_sum_ok,
        refunds_ok=refunds_ok,
        max_locked_beyond_bet=max_locked,
        onchain_max=max(onchain_committed) if onchain_committed else None,
        onchain_min=min(onchain_committed) if onchain_committed else None,
        final_height_max=max(final_heights) if final_heights else None,
        abort_height_max=max(abort_heights) if abort_heights else None,
        results=results,
    )


@dataclass
class DominanceReport:
    ok: bool
    lines: list[str]


def check_dominance(summary: Summary, eps: float = 0.02) -> DominanceReport:
    """Honest play must keep its fair share and never risk more than the bet.

    For committed trials each honest player's win frequency must reach
    1/n - eps and its worst payoff must stay >= -bet. If no trial ever
    committed, honest players must end exactly flat with full refunds.
    """
    cfg = summary.config
    honest = [i for i, name in enumerate(cfg.strategies) if name == "honest"]
    lines: list[str] = []
    ok = True
    if not honest:
        return DominanceReport(True, ["no honest players in scenario"])
    if summary.committed > 0:
        floor = 1.0 / cfg.n - eps
        for i in honest:
            freq = summary.win_freq[i]
            good = freq >= floor and summary.payoff_min[i] >= -cfg.bet
            ok = ok and good
            lines.append(
                f"player {i} (honest): win_freq={freq:.4f} (floor {floor:.4f}), "
                f"min_payoff={summary.payoff_min[i]} (floor {-cfg.bet}) -> "
                f"{'ok' if good else 'VIOLATED'}"
            )
    else:
        for i in honest:
            flat = summary.payoff_min[i] == 0 and summary.payoff_max[i] == 0
            good = flat and summary.refunds_ok
            ok = ok and good
            lines.append(
                f"player {i} (honest): all trials aborted, payoffs flat={flat}, "
                f"refunds_ok={summary.refunds_ok} -> {'ok' if good else 'VIOLATED'}"
            )
    return DominanceReport(ok, lines)


# cost measurement


@dataclass
class CostReport:
    backend: str
    n: int
    sig_model: str
    deposit_option: str
    collateral_beyond_bet: int
    onchain_tx_count: int  # worst observed
    onchain_bytes: int
    offchain_signed_per_party: int
    offchain_bodies: int
    rounds_to_commit: int
    rounds_to_final: Optional[int]
    materialized: bool

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def measure_costs(
    backend: str,
    n: int,
    tau: int = ScenarioConfig.tau,
    t_commit: int = ScenarioConfig.t_commit,
    deposit_option: str = DEPOSIT_ATOMIC,
    sig_model: str = "multisig",
) -> CostReport:
    """On-chain load of the slowest path plus total off-chain footprint.

    The scaffold backends are probed with the force-timeout strategy, which
    drives every match through its slowest path: the worst case in rounds
    and transactions, and in plain mode in bytes. In multiinput mode each
    compression it lands is a left candidate's, with half the members of a
    right candidate's, so `onchain_bytes` is 36 * levels * n/2 below the
    closed form's `bytes_on_chain`. The contract backend cost is the honest
    run; its calls are fixed by the schedule.
    `materialized` says whether `build` can write the scaffold out. The
    probe plays the default bet under the seed "costs", as neither moves a
    figure; `sig_model` sizes only the authorization bytes.
    """
    from .chain import body_bytes
    from .scaffold import auth_bytes

    auth = auth_bytes(sig_model, n)  # an unknown model is refused before the probe plays
    check_params(n, tau, t_commit, ScenarioConfig.bet)  # before the seats, a per-player table
    cfg = ScenarioConfig(
        backend=backend,
        n=n,
        strategies=("honest" if backend == ETH else "force-timeout",) * n,
        tau=tau,
        t_commit=t_commit,
        deposit_option=deposit_option,
        master_seed="costs",
    )
    rt = _runtime(cfg)
    result = rt.run()
    if backend == ETH:
        onchain_bytes = sum(32 * (1 + rec.arg_count) + 32 for rec in rt.vm.trace if rec.ok)
        signed_per_party = offchain_bodies = 0
        materialized = True
    else:
        accepted = [entry for entry in rt.chain.log if entry.witness is not None]
        onchain_bytes = sum(len(body_bytes(entry.body)) + auth for entry in accepted)
        signed_per_party = rt.ceremony.bodies_signed + (1 if deposit_option == DEPOSIT_HASHLOCKED else 0)
        offchain_bodies = rt.t.stats.total_offchain
        materialized = rt.t.stats.materialized
    return CostReport(
        backend=backend,
        n=n,
        sig_model=sig_model,
        deposit_option=deposit_option,
        collateral_beyond_bet=result.max_locked_beyond_bet,
        onchain_tx_count=result.onchain_tx_count,
        onchain_bytes=onchain_bytes,
        offchain_signed_per_party=signed_per_party,
        offchain_bodies=offchain_bodies,
        rounds_to_commit=rt.deposit_complete_h or t_commit,
        rounds_to_final=result.final_height,
        materialized=materialized,
    )


# result export


CSV_FIXED_COLUMNS = (
    "trial",
    "committed",
    "winner",
    "final_height",
    "abort_height",
    "onchain_txs",
    "max_locked_beyond_bet",
)


def write_trials_csv(fp, results: Sequence[TrialResult], n: int) -> None:
    """Fixed column order: the listed fields, then payoff_0..payoff_{n-1}."""
    writer = csv.writer(fp)
    writer.writerow(list(CSV_FIXED_COLUMNS) + [f"payoff_{i}" for i in range(n)])
    for r in results:
        writer.writerow(
            [
                r.trial,
                int(r.committed),
                "" if r.winner is None else r.winner,
                "" if r.final_height is None else r.final_height,
                "" if r.abort_height is None else r.abort_height,
                r.onchain_tx_count,
                r.max_locked_beyond_bet,
            ]
            + list(r.payoffs)
        )


def summary_to_json(summary: Summary) -> dict:
    """Every Summary field except the per-trial results; tuples become lists."""
    doc = {f.name: getattr(summary, f.name) for f in dataclasses.fields(Summary) if f.name != "results"}
    doc = {key: list(v) if isinstance(v, tuple) else v for key, v in doc.items()}
    return {**doc, "config": summary.config.to_json()}


def dump_summary(summary: Summary) -> str:
    return json.dumps(summary_to_json(summary), indent=2, sort_keys=True) + "\n"
