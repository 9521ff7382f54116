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
action on it counts, whoever made it. The contract runtime builds a
player's open-phase view with `contracts.match_winner`, the rule
`get_winner` applies. The scaffold runtime holds knowledge only. A player
can broadcast a transaction only when it holds every witness ingredient:
the signatures of the keys its inputs need, recorded when every player
approved the scaffold in the ceremony or when an owner chooses to
broadcast its own, and the preimages it owns, shares through a coalition
or has seen in an on-chain witness. Honest players relay every
assemblable transaction, so one honest participant keeps the bracket live
regardless of who benefits. A transaction is offered while every output
it spends is unspent: the deposits, the bodies of each kernel a match
reached, a multiinput compression choosing its match's settled outcome,
and, while the table has not committed, the refunds. `PLAYS` describes a
kernel's five transactions once; offers go in the order (priority, level,
match, ntxid).
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import statistics
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .chain import (
    Chain,
    FixedInput,
    TransactionBody,
    TxOutput,
    body_bytes,
    compute_ntxid,
    sig_digest_for,
)
from .contracts import CallRecord, Vm, build_tree, match_winner
from .primitives import ConfigError, OutputRef, Rng, check_params, level_schedule, level_stride
from .script import (
    InputWitness,
    KeySign,
    SignatureOracle,
    Witness,
    commitment,
    parity_bit,
)
from .scaffold import (
    BRANCH_DEPOSIT_REFUND,
    BRANCH_DEPOSIT_SPEND,
    BRANCH_REVEAL,
    BRANCH_TIMEOUT,
    DEPOSIT_ATOMIC,
    DEPOSIT_HASHLOCKED,
    MODE_MULTIINPUT,
    MODE_PLAIN,
    ROLE_COMPRESSION,
    ROLE_DEPOSIT,
    ROLE_ENTRY,
    ROLE_OUTCOME_A,
    ROLE_OUTCOME_B,
    ROLE_OUTCOME_BP,
    ROLE_REFUND,
    ROLE_REVEAL,
    SLOT_LEFT,
    SLOT_MPC,
    SLOT_RIGHT,
    SIDE_LEFT,
    SIDE_RIGHT,
    SIG_MODELS,
    CeremonyResult,
    IdealMpcOracle,
    Kernel,
    KernelId,
    Tournament,
    auth_bytes,
    build_tournament,
    matches_at,
    multi_combo_index,
    num_levels,
    pack_index,
    scaffold_stats,
    signing_ceremony,
)
from .strategies import (
    ALL_BACKENDS,
    BTC_PLAIN,
    ETH,
    BroadcastView,
    CommitView,
    DepositView,
    OpenView,
    SecretView,
    Strategy,
    make_strategy,
    supports,
)

BACKENDS = ALL_BACKENDS

# plain mode squares per level; beyond this a plain scaffold is too large to
# write out or cost by a run, so `build` and `costs` report the closed form
# (trials still run: they build only the kernels play reaches)
PLAIN_MATERIALIZE_MAX = 8


@dataclass(frozen=True)
class ScenarioConfig:
    backend: str
    n: int
    strategies: tuple[str, ...]
    tau: int = 6
    t_commit: int = 10
    bet: int = 1
    deposit_option: str = DEPOSIT_ATOMIC
    sig_model: str = "multisig"
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
        if self.sig_model not in SIG_MODELS:
            raise ConfigError(f"unknown signature model {self.sig_model!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")

    @property
    def mode(self) -> str:
        return MODE_MULTIINPUT if self.backend == "bitcoin-multiinput" else MODE_PLAIN

    @property
    def levels(self) -> int:
        return num_levels(self.n)

    def to_json(self) -> dict:
        return {
            **dataclasses.asdict(self),
            "strategies": list(self.strategies),
            "master_seed": str(self.master_seed),
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
    can land there; `done(h)`; `ledger`, its record (`Vm.trace` or
    `Chain.log`); `balances()`; and `_fields()`, the result fields only it
    can read.
    """

    def __init__(self, cfg: ScenarioConfig, rng: Rng, trial_index: int = 0):
        self.cfg = cfg
        self.rng = rng
        self.trial_index = trial_index
        self.funded = 2 * cfg.bet  # one bet to stake plus an untouched margin
        shared: dict = {}  # what a coalition's members share
        self.strats: list[Strategy] = [
            make_strategy(cfg.strategies[i], i, rng.child(f"strategy/{i}"), shared)
            for i in range(cfg.n)
        ]

    def _trial(self) -> TrialResult:
        """Step through the stops until done, sampling every balance after a
        stop at which the ledger's record grew."""
        cfg = self.cfg
        min_balance = [self.funded] * cfg.n
        sampled = -1  # ledger length at the last sample: only a new record moves value
        for h in self.stops():
            self.step(h)
            if len(self.ledger) != sampled:
                sampled = len(self.ledger)
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
    players' secrets and, per match, its two players once resolved.
    """

    def __init__(self, cfg: ScenarioConfig, rng: Rng, trial_index: int = 0):
        super().__init__(cfg, rng, trial_index)
        self.vm = Vm()
        self.ledger = self.vm.trace
        self.accounts = [f"P{i}" for i in range(cfg.n)]
        for account in self.accounts:
            self.vm.fund(account, self.funded)
        self.tree = build_tree(self.vm, cfg.n, cfg.bet, cfg.tau, cfg.t_commit)
        self.master = self.vm.contracts[self.tree.master]
        self.player_of = {self.accounts[i]: i for i in range(cfg.n)}
        self._secrets: dict[tuple[int, int, int], int] = {}
        self._participants: dict[tuple[int, int], tuple[Optional[str], Optional[str]]] = {}

    def balances(self) -> list[int]:
        return [self.vm.balance(account) for account in self.accounts]

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
            view = SecretView(
                player=player,
                level=level,
                match=match,
                rng=self.rng.child(f"secret/{player}/{level}/{match}"),
            )
            self._secrets[key] = self.strats[player].choose_secret(view)
        return self._secrets[key]

    def _resolve_participants(self, level: int, match: int):
        key = (level, match)
        if key not in self._participants:
            addr = self.tree.lottery(level, match)
            self._participants[key] = (
                self.vm.static_call("observer", addr, "player_a"),
                self.vm.static_call("observer", addr, "player_b"),
            )
        return self._participants[key]

    def _play_match(self, level: int, match: int, h: int) -> None:
        """Offer each player of a match its commit or its opening at height h.

        Player a is asked first, so b's view shows a's call. A commit is
        offered until made; an opening is offered to a committed player until
        made. The open view's flags are `match_winner` with the player's own
        opening added and as things stand.
        """
        addr = self.tree.lottery(level, match)
        lot = self.vm.contracts[addr]
        committing = h < lot.t1
        a, b = self._resolve_participants(level, match)
        for mine, theirs in ((a, b), (b, a)):
            player = self.player_of.get(mine)
            if committing:
                offered = mine not in lot.commits
            else:
                offered = mine in lot.commits and mine not in lot.opens
            if player is None or not offered:
                continue
            secret = self._secret(player, level, match)
            seen = dict(
                player=player, my_address=mine, height=h, level=level, match=match, t0=lot.t0,
                t1=lot.t1, t2=lot.t2, my_secret=secret, opponent_player=self.player_of.get(theirs),
                opponent_commit=lot.commits.get(theirs),
            )
            if committing:
                view = CommitView(**seen, last_chance=h == lot.t1 - 1)
                method, arg = "commit", self.strats[player].at_commit(view)
            else:
                opened = {**lot.opens, mine: secret}
                view = OpenView(
                    **seen,
                    last_chance=h == lot.t2 - 1,
                    opponent_open=lot.opens.get(theirs),
                    wins_if_open=match_winner(a, b, lot.commits, opened) == mine,
                    wins_if_silent=match_winner(a, b, lot.commits, lot.opens) == mine,
                )
                method, arg = "open", self.strats[player].at_open(view)
            if arg is not None:
                self.vm.try_call(mine, addr, method, arg)

    def stops(self) -> list[int]:
        """Each height at which an action can land: 1 (deposits), t_commit
        (refunds), t_final (the payout), and per level the first and last
        height of the commit and the open window, (t0, t1) and (t1, t2)."""
        stops = {1, self.cfg.t_commit, self.tree.t_final}
        for level in range(self.cfg.levels):
            t0, t1, t2 = self.tree.schedule(level)
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
                view = DepositView(player=i, height=h, t_commit=cfg.t_commit, bet=cfg.bet)
                if self.strats[i].at_deposit(view):
                    vm.try_call(account, tree.master, "deposit", value=cfg.bet)
        if not master.is_complete():
            if h >= cfg.t_commit:
                for account in self.accounts:
                    if account in master.players and account not in master.refunded:
                        vm.try_call(account, tree.master, "withdraw")
            return
        for level in range(cfg.levels):
            t0, _, t2 = tree.schedule(level)
            if t0 < h < t2:
                for match in range(matches_at(cfg.n, level)):
                    self._play_match(level, match, h)
        if h == tree.t_final:
            winner = vm.static_call("observer", tree.final, "get_winner")
            if winner in self.player_of:
                vm.try_call(winner, tree.master, "withdraw")

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


# scaffold backend


class Play(NamedTuple):
    """How one kernel body is offered and witnessed; a row of `PLAYS`."""

    role: str
    priority: int  # first key of the offer order (priority, level, match, ntxid)
    opens: tuple[int, ...]  # the sides whose commitments the witness opens
    branch: Optional[int]  # the AnyOf branch of the spent output's predicate
    pays: Optional[int]  # the side the body pays


# a kernel's five transactions, in `Kernel.bodies` order (entry, reveal,
# outcome a, b, b'); each is offered from max(t0, its locktime)
PLAYS = (
    Play(ROLE_ENTRY, 3, (), None, None),
    Play(ROLE_REVEAL, 4, (SIDE_LEFT,), BRANCH_REVEAL, None),
    Play(ROLE_OUTCOME_A, 1, (), BRANCH_TIMEOUT, SIDE_LEFT),
    Play(ROLE_OUTCOME_B, 1, (), BRANCH_TIMEOUT, SIDE_RIGHT),
    Play(ROLE_OUTCOME_BP, 5, (SIDE_LEFT, SIDE_RIGHT), BRANCH_REVEAL, SIDE_RIGHT),
)
PRIORITY_DEPOSIT, PRIORITY_COMPRESSION, PRIORITY_REFUND = 0, 2, 6
SIDE_SLOTS = (SLOT_LEFT, SLOT_RIGHT)


class Candidate(NamedTuple):
    """A scaffold transaction, offered while every output in `spends` is unspent."""

    role: str
    priority: int
    level: int  # -1 for deposits and refunds
    match: int
    ntxid: bytes
    body: TransactionBody
    not_before: int
    spends: frozenset[OutputRef]
    kernel: Optional[Kernel] = None  # the kernel of an entry, a reveal or an outcome
    opens: tuple[tuple[str, bytes], ...] = ()  # (slot, commitment digest) the witness opens
    branch: Optional[int] = None
    beneficiary: Optional[int] = None  # the player it pays
    owner: Optional[int] = None  # the one player who can sign it, alone
    chosen_ref: Optional[OutputRef] = None  # a compression's member: the settled outcome


def _spends(body: TransactionBody) -> frozenset[OutputRef]:
    return frozenset(spec.ref for spec in body.inputs)


class ScaffoldRuntime(Runtime):
    """One trial against the UTXO backend.

    The chain is the only record of play: whether a transaction is on
    chain, whether the scaffold committed, which kernel each match reached
    and who won are all read from it. The runtime itself holds knowledge
    only, the preimages it has seen in on-chain witnesses and the joint
    preimage once released; a kernel's secret is known to its side's
    player and that player's allies, and is read from the scaffold when a
    witness needs it. Facts about a match that can never change again (the
    kernel it reached, the outcome it settled on, the candidates of that
    kernel) are memoised as the chain reads find them.
    """

    SETUP_HEIGHT = 1  # ceremony and (attempted) deposits happen here

    def __init__(self, cfg: ScenarioConfig, rng: Rng, trial_index: int = 0):
        super().__init__(cfg, rng, trial_index)
        n = cfg.n
        self.oracle = SignatureOracle()
        self.chain = Chain(self.oracle)
        self.ledger = self.chain.log
        self.keys = tuple(rng.child(f"key/{i}").bytes(32) for i in range(n))
        for i, key in enumerate(self.keys):
            self.oracle.register_key(i, key)
        self.funding = [self.chain.mint(cfg.bet, KeySign(key)) for key in self.keys]
        for key in self.keys:
            self.chain.mint(cfg.bet, KeySign(key))  # the untouched margin

        self.mpc: Optional[IdealMpcOracle] = None
        mpc_digest = None
        if cfg.deposit_option == DEPOSIT_HASHLOCKED:
            self.mpc = IdealMpcOracle(n)
            for i in range(n):
                self.mpc.collect(i, rng.child(f"mpc/{i}").nonzero_bytes(32))
            mpc_digest = self.mpc.digest()

        self.t: Tournament = build_tournament(
            n,
            self.keys,
            self.funding,
            rng.child("scaffold"),
            cfg.t_commit,
            cfg.bet,
            cfg.tau,
            mode=cfg.mode,
            deposit_option=cfg.deposit_option,
            mpc_digest=mpc_digest,
        )
        groups = [s.coalition_members() for s in self.strats]
        self.allies: list[frozenset] = [
            g if g is not None else frozenset((i,)) for i, g in enumerate(groups)
        ]

        # public knowledge: commitment digest -> preimage seen in an on-chain
        # witness, plus the joint preimage once released
        self.public: dict[bytes, bytes] = {}
        self.ceremony: Optional[CeremonyResult] = None  # held at the setup height by `run`
        self._multi = cfg.mode == MODE_MULTIINPUT
        self._levels = cfg.levels
        # memo of chain reads, facts that never change once found: the kernel
        # each (level, match) reached, and its `_match_result` once settled
        self._reached: dict[tuple[int, int], Kernel] = {}
        self._settled: dict[tuple[int, int], tuple[Kernel, int, int, bytes]] = {}
        self._kernel_plays: dict[KernelId, tuple[Candidate, ...]] = {}

    # knowledge

    def _lookup(self, player: int, digest: bytes, kernel: Optional[Kernel]) -> Optional[bytes]:
        """A preimage the player can supply: public, or a secret of its side or an ally's."""
        pre = self.public.get(digest)
        if pre is not None or kernel is None:
            return pre
        allies = self.allies[player]
        if digest == kernel.left_commit and kernel.left_player in allies:
            return self.t.secret(kernel.id, SIDE_LEFT)
        if digest == kernel.right_commit and kernel.right_player in allies:
            return self.t.secret(kernel.id, SIDE_RIGHT)
        return None

    def _learn_public(self, witness: Witness) -> None:
        for iw in witness.inputs:
            for pre in iw.preimages.values():
                self.public[commitment(pre)] = pre

    # play, read from the chain

    def _committed(self) -> bool:
        """Atomic: the deposit is on chain. Hashlocked: the joint preimage was released."""
        if self.mpc is None:
            return self.t.deposit_ntxids[0] in self.chain.entries
        return self.t.mpc_digest in self.public

    @property
    def deposit_complete_h(self) -> Optional[int]:
        """The height the last deposit landed at, once every deposit is on chain."""
        entries = self.chain.entries
        if not all(ntxid in entries for ntxid in self.t.deposit_ntxids):
            return None
        return max(entries[ntxid].height for ntxid in self.t.deposit_ntxids)

    def _refunded(self, player: int) -> bool:
        """A hashlocked deposit has two spenders: its level-0 entry and the owner's refund."""
        if self.mpc is None:
            return False
        if not self.chain.was_spent(OutputRef(self.t.deposit_ntxids[player], 0)):
            return False
        kernel = self._kernel_reached(0, player // 2)
        return kernel is None or kernel.entry_ntxid not in self.chain.entries

    def _kernel_reached(self, level: int, match: int) -> Optional[Kernel]:
        """The kernel a match reached: combo 0 at level 0 once committed, above
        that the one its child matches' results enter."""
        kernel = self._reached.get((level, match))
        if kernel is not None:
            return kernel
        if level == 0:
            if not self._committed():
                return None
            combo = 0
        else:
            left = self._match_result(level - 1, 2 * match)
            right = self._match_result(level - 1, 2 * match + 1) if left else None
            if right is None:
                return None
            if self._multi:
                combo = multi_combo_index(self.cfg.n, level, match, left[2], right[2])
            else:
                combo = pack_index(level, left[0].id.combo, left[1], right[0].id.combo, right[1])
        kernel = self._reached[(level, match)] = self.t.kernels[KernelId(level, match, combo)]
        return kernel

    def _outcome(self, kernel: Kernel) -> Optional[tuple[int, int]]:
        """(outcome index, winner) if one of the kernel's three outcomes is on chain."""
        for tx_idx, ntxid in enumerate(kernel.outcome_ntxids):
            if ntxid in self.chain.entries:
                return tx_idx, kernel.left_player if tx_idx == 0 else kernel.right_player
        return None

    def _match_result(self, level: int, match: int) -> Optional[tuple[Kernel, int, int, bytes]]:
        """(kernel, outcome index, winner, ntxid) once the match has settled, that is
        once `ntxid`, the transaction that carries its pot on, is on chain: plain,
        the outcome; multiinput, the winner's compression."""
        result = self._settled.get((level, match))
        if result is not None:
            return result
        kernel = self._kernel_reached(level, match)
        outcome = self._outcome(kernel) if kernel else None
        if outcome is None:
            return None
        tx_idx, winner = outcome
        if self._multi:
            ntxid = self.t.compressions[(level, match, winner)].ntxid
        else:
            ntxid = kernel.outcome_ntxids[tx_idx]
        if ntxid not in self.chain.entries:
            return None
        result = self._settled[(level, match)] = (kernel, tx_idx, winner, ntxid)
        return result

    def _final(self) -> Optional[tuple[int, int]]:
        """(winner, height) once the final match's result is on chain."""
        result = self._match_result(self._levels - 1, 0)
        return None if result is None else (result[2], self.chain.entries[result[3]].height)

    # candidates: a scaffold transaction is offered while its inputs are unspent

    def _candidates(self, h: int) -> list[Candidate]:
        utxo = self.chain.utxo.keys()
        committed = self._committed()
        out = [c for c in self._deposits if c.spends <= utxo]
        if self.mpc is not None and not committed and h >= self.t.refund_time:
            out.extend(c for c in self._refunds if c.spends <= utxo)
        if committed:
            out.extend(self._kernel_candidates(utxo))
        out.sort(key=lambda c: (c.priority, c.level, c.match, c.ntxid))
        return out

    def _kernel_candidates(self, utxo) -> list[Candidate]:
        """Walk the bracket bottom-up; a level with no settled match stops the walk."""
        reached, settled = self._reached, self._settled  # memo hits skip the calls
        out: list[Candidate] = []
        for level in range(self._levels):
            any_settled = False
            for match in range(matches_at(self.cfg.n, level)):
                if (level, match) in settled:
                    any_settled = True
                    continue
                kernel = reached.get((level, match)) or self._kernel_reached(level, match)
                if kernel is None:
                    continue
                offered = [c for c in self._plays(kernel) if c.spends <= utxo]
                out.extend(offered)
                if not offered and self._match_result(level, match) is not None:
                    any_settled = True
            if not any_settled:
                break  # no kernel above this level can have been reached
        return out

    def _plays(self, kernel: Kernel) -> tuple[Candidate, ...]:
        """A reached kernel's candidates: one per row of `PLAYS`, and in
        multiinput mode, once an outcome is on chain, the winner's
        compression choosing it. A candidate never changes, so each is kept."""
        plays = self._kernel_plays.get(kernel.id)
        if plays is None:
            plays = self._kernel_plays[kernel.id] = tuple(
                self._play(kernel, row, body, ntxid)
                for row, body, ntxid in zip(PLAYS, kernel.bodies, kernel.ntxids)
            )
        if self._multi and len(plays) == len(PLAYS):  # no compression yet
            outcome = self._outcome(kernel)
            if outcome is not None:
                tx_idx, winner = outcome
                comp = self.t.compressions[(kernel.id.level, kernel.id.match, winner)]
                chosen = OutputRef(kernel.outcome_ntxids[tx_idx], 0)
                compression = Candidate(
                    ROLE_COMPRESSION, PRIORITY_COMPRESSION, comp.level, comp.match, comp.ntxid,
                    comp.body, comp.body.locktime, frozenset((chosen,)),
                    beneficiary=winner, chosen_ref=chosen,
                )
                plays = self._kernel_plays[kernel.id] = plays + (compression,)
        return plays

    def _play(self, kernel: Kernel, row: Play, body: TransactionBody, ntxid: bytes) -> Candidate:
        level, match, _ = kernel.id
        commits = (kernel.left_commit, kernel.right_commit)
        opens = tuple((SIDE_SLOTS[side], commits[side]) for side in row.opens)
        branch = row.branch
        if row.role == ROLE_ENTRY and level == 0 and self.mpc is not None:
            # it spends the hashlocked deposits, which the joint preimage opens
            opens, branch = ((SLOT_MPC, self.t.mpc_digest),), BRANCH_DEPOSIT_SPEND
        players = (kernel.left_player, kernel.right_player)
        return Candidate(
            row.role, row.priority, level, match, ntxid, body, max(kernel.t0, body.locktime),
            _spends(body), kernel, opens, branch, None if row.pays is None else players[row.pays],
        )

    @functools.cached_property
    def _deposits(self) -> tuple[Candidate, ...]:
        """One atomic deposit everyone signs, or one hashlocked deposit per owner."""
        owned = self.mpc is not None
        return tuple(
            Candidate(
                ROLE_DEPOSIT, PRIORITY_DEPOSIT, -1, -1, ntxid, body, body.locktime, _spends(body),
                beneficiary=i if owned else None, owner=i if owned else None,
            )
            for i, (body, ntxid) in enumerate(zip(self.t.deposit_bodies, self.t.deposit_ntxids))
        )

    @functools.cached_property
    def _refunds(self) -> tuple[Candidate, ...]:
        """Each hashlocked deposit's owner taking it back, built when first offered."""
        t = self.t
        out = []
        for player, (ntxid, key) in enumerate(zip(t.deposit_ntxids, self.keys)):
            body = TransactionBody(
                inputs=(FixedInput(OutputRef(ntxid, 0)),),
                outputs=(TxOutput(self.cfg.bet, KeySign(key)),),
                locktime=t.refund_time,
            )
            out.append(
                Candidate(
                    ROLE_REFUND, PRIORITY_REFUND, -1, -1, compute_ntxid(body), body,
                    body.locktime, _spends(body), branch=BRANCH_DEPOSIT_REFUND,
                    beneficiary=player, owner=player,
                )
            )
        return tuple(out)

    # witness assembly

    def _assemble(self, cand: Candidate, player: int) -> Optional[Witness]:
        """The witness `player` can give `cand`, or None if it lacks a preimage.

        Every input names all keys as its signers, whose approval the
        ceremony recorded, or its owner alone, who signs it once it chooses
        to broadcast (`_offer`), with the
        preimages the candidate opens, its branch and its chosen ref. Input
        i of the atomic deposit names key i alone, and outcome b' is not
        assembled on even parity, since its predicate can never pass.
        """
        preimages: dict[str, bytes] = {}
        for slot, digest in cand.opens:
            pre = self._lookup(player, digest, cand.kernel)
            if pre is None:
                return None
            preimages[slot] = pre
        if cand.role == ROLE_OUTCOME_BP:
            if parity_bit(preimages[SLOT_LEFT]) ^ parity_bit(preimages[SLOT_RIGHT]) != 1:
                return None
        signers = self.keys
        if cand.owner is not None:
            signers = (self.keys[player],)
        elif cand.role == ROLE_DEPOSIT:  # atomic: input i is key i's funding output
            return Witness(tuple(InputWitness((key,)) for key in self.keys))
        iw = InputWitness(signers, preimages, cand.branch, cand.chosen_ref)
        return Witness((iw,) * len(cand.body.inputs))

    # the trial

    def balances(self) -> list[int]:
        return [self.chain.key_balance(key) for key in self.keys]

    def stops(self) -> list[int]:
        """The first block after setup, each level's t0, t1 and t2, and the
        refund time; none if the ceremony was refused."""
        if not self.ceremony.complete:
            return []
        t = self.t
        stops = {self.SETUP_HEIGHT + 1}
        for level in range(self.cfg.levels):
            t0, t1, t2 = t.schedule(level)
            stops.update((t0, t1, t2))
        if t.refund_time is not None:
            stops.add(t.refund_time)
        return sorted(stops)

    def step(self, h: int) -> None:
        self.chain.advance_to(h)
        if self.mpc is not None and h >= self.cfg.t_commit and not self._committed():
            if self.deposit_complete_h is not None:
                # the ideal functionality hands everyone the joint preimage
                # once the full deposit set is observable
                self.public[self.t.mpc_digest] = self.mpc.combined()
        self._drain(h)

    def done(self, h: int) -> bool:
        """The final match settled, or the atomic deposit is missing at t_commit."""
        missing = self.mpc is None and h >= self.cfg.t_commit and not self._committed()
        return missing or self._final() is not None

    def run(self) -> TrialResult:
        self.chain.advance_to(self.SETUP_HEIGHT)
        self.ceremony = signing_ceremony(self.t, self.strats, self.oracle)
        return self._trial()

    def _drain(self, h: int) -> None:
        """Offer the candidates in order; after each accept, enumerate them again."""
        while any(self._offer(cand, h) for cand in self._candidates(h) if h >= cand.not_before):
            pass

    def _offer(self, cand: Candidate, h: int) -> bool:
        players = (cand.owner,) if cand.owner is not None else range(self.cfg.n)
        kernel = cand.kernel
        left, right = (kernel.left_player, kernel.right_player) if kernel else (None, None)
        for player in players:
            witness = self._assemble(cand, player)
            if witness is None:
                continue
            view = BroadcastView(
                player=player,
                kind=cand.role,
                height=h,
                beneficiary=cand.beneficiary,
                left_player=left,
                right_player=right,
            )
            if not self.strats[player].at_broadcast(view):
                continue
            if cand.owner is not None:  # an owner signs only what it chose to broadcast
                self.oracle.sign(player, self.keys[player], sig_digest_for(cand.body))
            res = self.chain.submit(cand.body, witness)
            if res.accepted:
                self._learn_public(witness)
                return True
            return False  # structurally rejected; no other player will fare better
        return False

    def _fields(self) -> dict:
        """Aborted, the funds are home at once, at refund_time if a (hashlocked)
        deposit landed, and at the setup height if the ceremony was refused."""
        cfg, chain = self.cfg, self.chain
        chain.audit()
        committed = self._committed()
        winner, final_height = self._final() or (None, None)
        if not self.ceremony.complete:
            abort_height = self.SETUP_HEIGHT
        elif any(d in chain.entries for d in self.t.deposit_ntxids):
            abort_height = self.t.refund_time
        else:
            abort_height = cfg.t_commit
        return dict(
            committed=committed,
            winner=winner,
            final_height=final_height,
            abort_height=None if committed else abort_height,
            deposited=tuple(cfg.bet if chain.was_spent(ref) else 0 for ref in self.funding),
            returned=tuple(cfg.bet if self._refunded(i) else 0 for i in range(cfg.n)),
            onchain_tx_count=sum(1 for entry in chain.log if entry.witness is not None),
        )


# monte carlo


def run_trial(cfg: ScenarioConfig, index: int = 0) -> TrialResult:
    runtime = ContractRuntime if cfg.backend == ETH else ScaffoldRuntime
    return runtime(cfg, trial_rng(cfg.master_seed, index), index).run()


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
    tau: int = 6,
    t_commit: int = 10,
    bet: int = 1,
    deposit_option: str = DEPOSIT_ATOMIC,
    sig_model: str = "multisig",
    master_seed: object = "costs",
) -> CostReport:
    """Worst-case on-chain load plus total off-chain footprint.

    The scaffold backend is probed with the force-timeout strategy, which
    drives every match through its slowest, largest path. The contract
    backend cost is the honest run; its calls are fixed by the schedule.
    The scenario is checked before any branch, so the closed-form branch
    rejects the same arguments as a run.
    """
    cfg = ScenarioConfig(
        backend=backend,
        n=n,
        strategies=("honest" if backend == ETH else "force-timeout",) * n,
        tau=tau,
        t_commit=t_commit,
        bet=bet,
        deposit_option=deposit_option,
        sig_model=sig_model,
        trials=1,
        master_seed=master_seed,
    )
    if backend == BTC_PLAIN and n > PLAIN_MATERIALIZE_MAX:
        # too large to enumerate; every figure comes from the closed forms
        stats = scaffold_stats(
            n,
            mode=MODE_PLAIN,
            deposit_option=deposit_option,
            sig_model=sig_model,
            bet=bet,
            tau=tau,
            t_commit=t_commit,
        )
        return CostReport(
            backend=backend,
            n=n,
            sig_model=sig_model,
            deposit_option=deposit_option,
            collateral_beyond_bet=0,
            onchain_tx_count=stats.on_chain_worst_case,
            onchain_bytes=stats.bytes_on_chain,
            offchain_signed_per_party=stats.kernel_bodies + stats.compression_count + 1,
            offchain_bodies=stats.total_offchain,
            rounds_to_commit=2,  # deposits land at the first block after setup
            rounds_to_final=level_schedule(t_commit, level_stride(tau), tau, num_levels(n))[0],
            materialized=False,
        )
    runtime = ContractRuntime if backend == ETH else ScaffoldRuntime
    rt = runtime(cfg, trial_rng(cfg.master_seed, 0))
    result = rt.run()
    if backend == ETH:
        onchain_bytes = sum(32 * (1 + rec.arg_count) + 32 for rec in rt.vm.trace if rec.ok)
        signed_per_party = offchain_bodies = 0
    else:
        auth = auth_bytes(sig_model, n)
        accepted = [entry for entry in rt.chain.log if entry.witness is not None]
        onchain_bytes = sum(len(body_bytes(entry.body)) + auth for entry in accepted)
        signed_per_party = rt.ceremony.bodies_signed + (1 if deposit_option == DEPOSIT_HASHLOCKED else 0)
        offchain_bodies = rt.t.stats.total_offchain
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
        materialized=True,
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
