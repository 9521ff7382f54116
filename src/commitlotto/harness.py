"""Scenario harness: deterministic trial drivers and measurement.

One trial is a full protocol run on a fresh simulated chain: funding,
setup (scaffold ceremony or contract deployment), play under the given
strategy assignment, and settlement. Trials are reproducible: the trial
RNG is derived from the master seed and trial index, and both drivers are
event-ordered with no hidden iteration-order dependence.

The scaffold driver keeps no record of play: the chain is the record,
and any transaction on it counts, whoever broadcast it. What the driver
holds is knowledge. A player can broadcast a transaction only when it
holds every witness ingredient: the signature tags of the scaffold every
player approved in the ceremony and the preimages it either owns, shares
through a coalition, or has seen in an on-chain witness. Honest players
relay every assemblable transaction, so one honest participant keeps the
bracket live regardless of who benefits.
"""

from __future__ import annotations

import csv
import dataclasses
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
from .contracts import Reverted, Vm, build_tree
from .primitives import ConfigError, OutputRef, Rng, check_params, level_schedule, level_stride
from .script import (
    InputWitness,
    KeySign,
    SignatureOracle,
    Witness,
    commitment,
    parity_bit,
    sig_tag,
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
    SLOT_LEFT,
    SLOT_MPC,
    SLOT_RIGHT,
    SIDE_LEFT,
    SIDE_RIGHT,
    IdealMpcOracle,
    Kernel,
    KernelId,
    Tournament,
    _auth_bytes,
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
    KIND_COMPRESSION,
    KIND_DEPOSIT,
    KIND_ENTRY,
    KIND_PARITY_WIN,
    KIND_REFUND,
    KIND_REVEAL,
    KIND_TIMEOUT_A,
    KIND_TIMEOUT_B,
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
SIG_MODELS = ("multisig", "aggregate")

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


# contract backend driver


class ContractRuntime:
    """One trial against the account-model backend."""

    def __init__(self, cfg: ScenarioConfig, rng: Rng, trial_index: int = 0):
        self.cfg = cfg
        self.rng = rng
        self.trial_index = trial_index
        self.vm = Vm()
        self.accounts = [f"P{i}" for i in range(cfg.n)]
        self.funded = 2 * cfg.bet  # one bet to stake plus untouched margin
        for account in self.accounts:
            self.vm.fund(account, self.funded)
        self.tree = build_tree(self.vm, cfg.n, cfg.bet, cfg.tau, cfg.t_commit)
        shared: dict = {}
        self.strats: list[Strategy] = [
            make_strategy(cfg.strategies[i], i, rng.child(f"strategy/{i}"), shared)
            for i in range(cfg.n)
        ]
        self.player_of = {self.accounts[i]: i for i in range(cfg.n)}
        self.deposit_complete_h: Optional[int] = None
        self._secrets: dict[tuple[int, int, int], int] = {}
        self._participants: dict[tuple[int, int], tuple[Optional[str], Optional[str]]] = {}

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
            try:
                a = self.vm.static_call("observer", addr, "player_a")
                b = self.vm.static_call("observer", addr, "player_b")
            except Reverted:
                return None, None  # children not settled yet; retry next height
            self._participants[key] = (a, b)
        return self._participants[key]

    def _parity_wins(self, i_am_a: bool, mine: int, theirs: int) -> bool:
        even = (mine ^ theirs) % 2 == 0
        return even if i_am_a else not even

    def _commit_phase(self, level: int, match: int, h: int):
        addr = self.tree.lottery(level, match)
        lot = self.vm.contracts[addr]
        a, b = self._resolve_participants(level, match)
        for mine, theirs in ((a, b), (b, a)):
            if mine is None or mine in lot.commits:
                continue
            player = self.player_of.get(mine)
            if player is None:
                continue
            view = CommitView(
                player=player,
                my_address=mine,
                height=h,
                level=level,
                match=match,
                t0=lot.t0,
                t1=lot.t1,
                t2=lot.t2,
                my_secret=self._secret(player, level, match),
                opponent_player=self.player_of.get(theirs) if theirs else None,
                opponent_commit=lot.commits.get(theirs) if theirs else None,
                last_chance=h == lot.t1 - 1,
            )
            chash = self.strats[player].at_commit(view)
            if chash is not None:
                self.vm.try_call(mine, addr, "commit", chash)

    def _open_phase(self, level: int, match: int, h: int):
        addr = self.tree.lottery(level, match)
        lot = self.vm.contracts[addr]
        a, b = self._resolve_participants(level, match)
        for mine, theirs in ((a, b), (b, a)):
            if mine is None or mine not in lot.commits or mine in lot.opens:
                continue
            player = self.player_of.get(mine)
            if player is None:
                continue
            i_am_a = mine == a
            opp_committed = theirs in lot.commits if theirs else False
            opp_open = lot.opens.get(theirs) if theirs else None
            secret = self._secret(player, level, match)
            if not opp_committed:
                wins_if_open = True
                wins_if_silent = True
            elif opp_open is None:
                wins_if_open = True
                wins_if_silent = not i_am_a
            else:
                wins_if_open = self._parity_wins(i_am_a, secret, opp_open)
                wins_if_silent = False
            view = OpenView(
                player=player,
                my_address=mine,
                height=h,
                level=level,
                match=match,
                t0=lot.t0,
                t1=lot.t1,
                t2=lot.t2,
                my_secret=secret,
                opponent_player=self.player_of.get(theirs) if theirs else None,
                opponent_commit=lot.commits.get(theirs) if theirs else None,
                opponent_open=opp_open,
                wins_if_open=wins_if_open,
                wins_if_silent=wins_if_silent,
                last_chance=h == lot.t2 - 1,
            )
            secret_to_open = self.strats[player].at_open(view)
            if secret_to_open is not None:
                self.vm.try_call(mine, addr, "open", secret_to_open)

    def run(self) -> TrialResult:
        cfg = self.cfg
        vm = self.vm
        tree = self.tree
        master = vm.contracts[tree.master]
        deposited = [0] * cfg.n
        returned = [0] * cfg.n
        min_balance = [self.funded] * cfg.n
        final_height: Optional[int] = None
        winner: Optional[int] = None

        for h in range(1, tree.t_final + 1):
            vm.advance_to(h)
            if h < cfg.t_commit:
                for i, account in enumerate(self.accounts):
                    if deposited[i]:
                        continue
                    view = DepositView(player=i, height=h, t_commit=cfg.t_commit, bet=cfg.bet)
                    if self.strats[i].at_deposit(view):
                        ok, _ = vm.try_call(account, tree.master, "deposit", value=cfg.bet)
                        if ok:
                            deposited[i] = cfg.bet
            complete = master.is_complete()
            if complete and self.deposit_complete_h is None:
                self.deposit_complete_h = h
            if not complete and h >= cfg.t_commit:
                for i, account in enumerate(self.accounts):
                    if deposited[i] and not returned[i]:
                        ok, amount = vm.try_call(account, tree.master, "withdraw")
                        if ok:
                            returned[i] = amount
            if complete:
                for (level, match), addr in sorted(tree.lotteries.items()):
                    lot = vm.contracts[addr]
                    if lot.t0 < h < lot.t1:
                        self._commit_phase(level, match, h)
                    elif lot.t1 < h < lot.t2:
                        self._open_phase(level, match, h)
                if h >= tree.t_final and winner is None:
                    try:
                        winner_addr = vm.static_call("observer", tree.final, "get_winner")
                    except Reverted:
                        winner_addr = None
                    if winner_addr in self.player_of:
                        winner = self.player_of[winner_addr]
                        ok, _ = vm.try_call(winner_addr, tree.master, "withdraw")
                        if ok:
                            final_height = h
            for i, account in enumerate(self.accounts):
                min_balance[i] = min(min_balance[i], vm.balance(account))

        committed = master.is_complete()
        payoffs = tuple(vm.balance(a) - self.funded for a in self.accounts)
        assert sum(vm.balances.values()) == cfg.n * self.funded, "account money leaked"
        locked = tuple(
            max(0, self.funded - bal - cfg.bet) for bal in min_balance
        )
        return TrialResult(
            trial=self.trial_index,
            committed=committed,
            winner=winner if committed else None,
            final_height=final_height if committed else None,
            abort_height=None if committed else cfg.t_commit,
            payoffs=payoffs,
            deposited=tuple(deposited),
            returned=tuple(returned),
            locked_beyond_bet=locked,
            onchain_tx_count=sum(1 for rec in vm.trace if rec.ok),
        )


# scaffold backend driver


class Candidate(NamedTuple):
    kind: str
    priority: int
    level: int
    match: int
    kernel_id: Optional[KernelId]
    body: TransactionBody
    ntxid: bytes
    not_before: int
    needs: tuple[bytes, ...]  # commitment digests whose preimages the witness requires
    beneficiary: Optional[int]
    left: Optional[int]
    right: Optional[int]
    owner_only: Optional[int]
    extra: object = None  # kind-specific payload (compression winner ref, deposit index)


PRIORITY = {
    KIND_DEPOSIT: 0,
    KIND_TIMEOUT_A: 1,
    KIND_TIMEOUT_B: 1,
    KIND_COMPRESSION: 2,
    KIND_ENTRY: 3,
    KIND_REVEAL: 4,
    KIND_PARITY_WIN: 5,
    KIND_REFUND: 6,
}


class ScaffoldRuntime:
    """One trial against the UTXO backend.

    The chain is the only record of play: whether a transaction is on
    chain, whether the scaffold committed, which kernel each match reached
    and who won are all read from it. The runtime itself holds knowledge
    only, the preimages it has seen in on-chain witnesses and the joint
    preimage once released; a kernel's secret is known to its side's
    player and that player's allies, and is read from the scaffold when a
    witness needs it. Facts about a match that can never change again (the
    kernel it reached, the outcome it settled on) are memoised as the chain
    reads find them.
    """

    SETUP_HEIGHT = 1  # ceremony and (attempted) deposits happen here

    def __init__(self, cfg: ScenarioConfig, rng: Rng, trial_index: int = 0):
        self.cfg = cfg
        self.rng = rng
        self.trial_index = trial_index
        n = cfg.n
        self.oracle = SignatureOracle()
        self.chain = Chain(self.oracle)
        self.keys = [rng.child(f"key/{i}").bytes(32) for i in range(n)]
        for i, key in enumerate(self.keys):
            self.oracle.register_key(i, key)
        self.funding = [self.chain.mint(cfg.bet, KeySign(key)) for key in self.keys]
        for key in self.keys:
            self.chain.mint(cfg.bet, KeySign(key))  # untouched margin, see locked metric
        self.funded = 2 * cfg.bet

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
            funding_values=[cfg.bet] * n,
            mpc_digest=mpc_digest,
            sig_model=cfg.sig_model,
        )
        shared: dict = {}
        self.strats: list[Strategy] = [
            make_strategy(cfg.strategies[i], i, rng.child(f"strategy/{i}"), shared)
            for i in range(n)
        ]
        groups = [s.coalition_members() for s in self.strats]
        self.allies: list[frozenset] = [
            g if g is not None else frozenset((i,)) for i, g in enumerate(groups)
        ]

        # public knowledge: commitment digest -> preimage seen in an on-chain
        # witness, plus the joint preimage once released
        self.public: dict[bytes, bytes] = {}
        self.bodies_signed = 0
        self._multi = cfg.mode == MODE_MULTIINPUT
        self._levels = cfg.levels
        # memo of chain reads, facts that never change once found: the kernel
        # each (level, match) reached, and its `_match_result` once settled
        self._reached: dict[tuple[int, int], Kernel] = {}
        self._settled: dict[tuple[int, int], tuple[Kernel, int, int, bytes]] = {}
        self._refund_bodies: dict[int, tuple[TransactionBody, bytes]] = {}

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

    # candidate enumeration

    def _candidates(self, h: int) -> list[Candidate]:
        cfg = self.cfg
        t = self.t
        entries = self.chain.entries
        committed = self._committed()
        out: list[Candidate] = []
        # one atomic deposit everyone signs, or one hashlocked deposit per owner
        for i, (body, ntxid) in enumerate(zip(t.deposit_bodies, t.deposit_ntxids)):
            if ntxid not in entries:
                owner = None if self.mpc is None else i
                out.append(
                    Candidate(
                        KIND_DEPOSIT, PRIORITY[KIND_DEPOSIT], -1, -1, None,
                        body, ntxid, self.SETUP_HEIGHT, (), owner, None, None, owner, i,
                    )
                )
        if self.mpc is not None and not committed and h >= t.refund_time:
            for i in range(cfg.n):
                if self.chain.is_unspent(OutputRef(t.deposit_ntxids[i], 0)):
                    body, ntxid = self._refund_body(i)
                    out.append(
                        Candidate(
                            KIND_REFUND, PRIORITY[KIND_REFUND], -1, -1, None,
                            body, ntxid, t.refund_time, (), i, None, None, i, i,
                        )
                    )
        if committed:
            out.extend(self._kernel_candidates())
        out.sort(key=lambda c: (c.priority, c.level, c.match, c.ntxid))
        return out

    def _kernel_candidates(self) -> list[Candidate]:
        """Walk the bracket bottom-up; a level with no settled match stops the walk."""
        t = self.t
        entries = self.chain.entries
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
                kid = kernel.id
                if kernel.entry_ntxid not in entries:  # every other body spends the entry
                    if all(self.chain.is_unspent(spec.ref) for spec in kernel.entry_tx.inputs):
                        needs = ()
                        if t.mpc_digest is not None and level == 0:
                            needs = (t.mpc_digest,)
                        out.append(
                            Candidate(
                                KIND_ENTRY, PRIORITY[KIND_ENTRY], level, match, kid,
                                kernel.entry_tx, kernel.entry_ntxid, kernel.t0,
                                needs, None, kernel.left_player, kernel.right_player, None,
                            )
                        )
                    continue
                outcome = self._outcome(kernel)
                if outcome is not None:
                    if self._match_result(level, match) is not None:
                        any_settled = True
                        continue
                    tx_idx, winner = outcome  # multiinput: the winner's compression is next
                    comp = t.compressions[(level, match, winner)]
                    out.append(
                        Candidate(
                            KIND_COMPRESSION, PRIORITY[KIND_COMPRESSION], level, match, kid,
                            comp.body, comp.ntxid, 0, (), winner, None, None, None,
                            OutputRef(kernel.outcome_ntxids[tx_idx], 0),
                        )
                    )
                elif kernel.reveal_ntxid not in entries:
                    out.append(
                        Candidate(
                            KIND_REVEAL, PRIORITY[KIND_REVEAL], level, match, kid,
                            kernel.reveal_tx, kernel.reveal_ntxid, kernel.t0,
                            (kernel.left_commit,), None,
                            kernel.left_player, kernel.right_player, None,
                        )
                    )
                    out.append(
                        Candidate(
                            KIND_TIMEOUT_B, PRIORITY[KIND_TIMEOUT_B], level, match, kid,
                            kernel.outcome_txs[1], kernel.outcome_ntxids[1], kernel.t1,
                            (), kernel.right_player,
                            kernel.left_player, kernel.right_player, None,
                        )
                    )
                else:
                    out.append(
                        Candidate(
                            KIND_TIMEOUT_A, PRIORITY[KIND_TIMEOUT_A], level, match, kid,
                            kernel.outcome_txs[0], kernel.outcome_ntxids[0], kernel.t2,
                            (), kernel.left_player,
                            kernel.left_player, kernel.right_player, None,
                        )
                    )
                    out.append(
                        Candidate(
                            KIND_PARITY_WIN, PRIORITY[KIND_PARITY_WIN], level, match, kid,
                            kernel.outcome_txs[2], kernel.outcome_ntxids[2], kernel.t0,
                            (kernel.left_commit, kernel.right_commit), kernel.right_player,
                            kernel.left_player, kernel.right_player, None,
                        )
                    )
            if not any_settled:
                break  # no kernel above this level can have been reached
        return out

    def _refund_body(self, player: int) -> tuple[TransactionBody, bytes]:
        if player not in self._refund_bodies:
            t = self.t
            body = TransactionBody(
                inputs=(FixedInput(OutputRef(t.deposit_ntxids[player], 0)),),
                outputs=(TxOutput(self.cfg.bet, KeySign(self.keys[player])),),
                locktime=t.refund_time,
            )
            self._refund_bodies[player] = (body, compute_ntxid(body))
        return self._refund_bodies[player]

    # witness assembly

    def _all_sigs(self, ntxid: bytes) -> tuple:
        """Every player's tag over a scaffold body the ceremony approved."""
        digest = self.t.sig_digests[ntxid]
        return tuple((key, sig_tag(key, digest)) for key in self.keys)

    def _solo_sig(self, player: int, body: TransactionBody) -> tuple:
        tag = self.oracle.sign(player, self.keys[player], sig_digest_for(body))
        return ((self.keys[player], tag),)

    def _assemble(self, cand: Candidate, player: int) -> Optional[Witness]:
        t = self.t
        kernel = t.kernels[cand.kernel_id] if cand.kernel_id else None
        preimages: dict[bytes, bytes] = {}
        for digest in cand.needs:
            pre = self._lookup(player, digest, kernel)
            if pre is None:
                return None
            preimages[digest] = pre
        kind = cand.kind
        if kind == KIND_DEPOSIT:
            if self.cfg.deposit_option == DEPOSIT_ATOMIC:
                sigs = self._all_sigs(cand.ntxid)
                return Witness(tuple(InputWitness((sig,), {}, None, None) for sig in sigs))
            return Witness((InputWitness(self._solo_sig(player, cand.body), {}, None, None),))
        if kind == KIND_REFUND:
            return Witness(
                (InputWitness(self._solo_sig(player, cand.body), {}, BRANCH_DEPOSIT_REFUND, None),)
            )
        sigs = self._all_sigs(cand.ntxid)
        if kind == KIND_ENTRY:
            if t.mpc_digest is not None and cand.level == 0:
                iw = InputWitness(
                    sigs, {SLOT_MPC: preimages[t.mpc_digest]}, BRANCH_DEPOSIT_SPEND, None
                )
            else:
                iw = InputWitness(sigs, {}, None, None)
            return Witness(tuple(iw for _ in cand.body.inputs))
        if kind == KIND_REVEAL:
            pre = preimages[kernel.left_commit]
            return Witness((InputWitness(sigs, {SLOT_LEFT: pre}, BRANCH_REVEAL, None),))
        if kind == KIND_TIMEOUT_A or kind == KIND_TIMEOUT_B:
            return Witness((InputWitness(sigs, {}, BRANCH_TIMEOUT, None),))
        if kind == KIND_PARITY_WIN:
            left = preimages[kernel.left_commit]
            right = preimages[kernel.right_commit]
            if parity_bit(left) ^ parity_bit(right) != 1:
                return None  # even parity: this outcome can never validate
            return Witness(
                (InputWitness(sigs, {SLOT_LEFT: left, SLOT_RIGHT: right}, BRANCH_REVEAL, None),)
            )
        if kind == KIND_COMPRESSION:
            return Witness((InputWitness(sigs, {}, None, cand.extra),))
        raise AssertionError(f"unhandled candidate kind {kind}")

    # main loop

    def _stops(self) -> list[int]:
        t = self.t
        stops = {self.SETUP_HEIGHT + 1}
        for level in range(self.cfg.levels):
            t0, t1, t2 = t.schedule(level)
            stops.update((t0, t1, t2))
        if t.refund_time is not None:
            stops.add(t.refund_time)
        return sorted(stops)

    def run(self) -> TrialResult:
        cfg = self.cfg
        chain = self.chain
        chain.advance_to(self.SETUP_HEIGHT)
        ceremony = signing_ceremony(self.t, self.strats, self.oracle)
        self.bodies_signed = ceremony.bodies_signed
        if not ceremony.complete:
            chain.audit()
            return self._result(abort_height=self.SETUP_HEIGHT)
        min_balance = [self.funded] * cfg.n

        for h in self._stops():
            chain.advance_to(h)
            if (
                self.mpc is not None
                and not self._committed()
                and h >= cfg.t_commit
                and all(ntxid in chain.entries for ntxid in self.t.deposit_ntxids)
            ):
                # the ideal functionality hands everyone the joint preimage
                # once the full deposit set is observable
                self.public[self.t.mpc_digest] = self.mpc.combined()
            self._drain(h)
            for i in range(cfg.n):
                min_balance[i] = min(min_balance[i], chain.key_balance(self.keys[i]))
            if self._final() is not None:
                break
            if not self._committed() and h >= cfg.t_commit and cfg.deposit_option == DEPOSIT_ATOMIC:
                break  # the all-or-nothing deposit never appeared; nothing is at stake

        chain.audit()
        locked = tuple(max(0, self.funded - bal - cfg.bet) for bal in min_balance)
        if self._committed():
            return self._result(locked=locked)
        # aborted: funds are home at refund_time if a (hashlocked) deposit landed, else at once
        landed = any(d in chain.entries for d in self.t.deposit_ntxids)
        abort_h = self.t.refund_time if landed else cfg.t_commit
        return self._result(abort_height=abort_h, locked=locked)

    def _drain(self, h: int) -> None:
        progressed = True
        while progressed:
            progressed = False
            for cand in self._candidates(h):
                if h < cand.not_before:
                    continue
                if self._offer(cand, h):
                    progressed = True
                    break  # state changed; re-enumerate

    def _offer(self, cand: Candidate, h: int) -> bool:
        players = (
            (cand.owner_only,) if cand.owner_only is not None else range(self.cfg.n)
        )
        for player in players:
            witness = self._assemble(cand, player)
            if witness is None:
                continue
            view = BroadcastView(
                player=player,
                kind=cand.kind,
                height=h,
                not_before=cand.not_before,
                level=cand.level if cand.level >= 0 else None,
                match=cand.match if cand.match >= 0 else None,
                kernel_id=cand.kernel_id,
                beneficiary=cand.beneficiary,
                left_player=cand.left,
                right_player=cand.right,
                tournament=self.t,
            )
            if not self.strats[player].at_broadcast(view):
                continue
            res = self.chain.submit(cand.body, witness)
            if res.accepted:
                self._learn_public(witness)
                return True
            return False  # structurally rejected; no other player will fare better
        return False

    def _result(
        self, abort_height: Optional[int] = None, locked: Optional[tuple[int, ...]] = None
    ) -> TrialResult:
        cfg = self.cfg
        chain = self.chain
        payoffs = tuple(chain.key_balance(self.keys[i]) - self.funded for i in range(cfg.n))
        deposited = tuple(
            cfg.bet if chain.was_spent(self.funding[i]) else 0 for i in range(cfg.n)
        )
        returned = tuple(cfg.bet if self._refunded(i) else 0 for i in range(cfg.n))
        committed = self._committed()
        winner, final_height = self._final() or (None, None)
        tx_count = sum(1 for entry in chain.log if entry.witness is not None)
        return TrialResult(
            trial=self.trial_index,
            committed=committed,
            winner=winner,
            final_height=final_height,
            abort_height=None if committed else abort_height,
            payoffs=payoffs,
            deposited=deposited,
            returned=returned,
            locked_beyond_bet=locked if locked is not None else (0,) * cfg.n,
            onchain_tx_count=tx_count,
        )


# monte carlo


def run_trial(cfg: ScenarioConfig, index: int = 0) -> TrialResult:
    rng = trial_rng(cfg.master_seed, index)
    if cfg.backend == ETH:
        return ContractRuntime(cfg, rng, index).run()
    return ScaffoldRuntime(cfg, rng, index).run()


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
    if backend == ETH:
        rt = ContractRuntime(cfg, trial_rng(cfg.master_seed, 0))
        result = rt.run()
        ok_calls = [rec for rec in rt.vm.trace if rec.ok]
        onchain_bytes = sum(32 * (1 + rec.arg_count) + 32 for rec in ok_calls)
        return CostReport(
            backend=backend,
            n=n,
            sig_model=sig_model,
            deposit_option=deposit_option,
            collateral_beyond_bet=result.max_locked_beyond_bet,
            onchain_tx_count=len(ok_calls),
            onchain_bytes=onchain_bytes,
            offchain_signed_per_party=0,
            offchain_bodies=0,
            rounds_to_commit=rt.deposit_complete_h or t_commit,
            rounds_to_final=result.final_height,
            materialized=True,
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
    rt = ScaffoldRuntime(cfg, trial_rng(cfg.master_seed, 0))
    result = rt.run()
    auth = _auth_bytes(sig_model, n)
    accepted = [entry for entry in rt.chain.log if entry.witness is not None]
    onchain_bytes = sum(len(body_bytes(entry.body)) + auth for entry in accepted)
    signed_per_party = rt.bodies_signed + (1 if deposit_option == DEPOSIT_HASHLOCKED else 0)
    return CostReport(
        backend=backend,
        n=n,
        sig_model=sig_model,
        deposit_option=deposit_option,
        collateral_beyond_bet=result.max_locked_beyond_bet,
        onchain_tx_count=len(accepted),
        onchain_bytes=onchain_bytes,
        offchain_signed_per_party=signed_per_party,
        offchain_bodies=rt.t.stats.total_offchain,
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
