"""The UTXO runtime: one trial played on a pre-signed scaffold.

Only this module of the trial path loads the scaffold stack (`scaffold`,
`chain`, `script`), and `harness._runtime` loads it only when a config
names a bitcoin backend, so a process that runs only contract trials
never compiles it.

The scaffold runtime holds knowledge only. A player can broadcast a
transaction only when it holds every witness ingredient: the signatures
of the keys its inputs need, recorded when every player approved the
scaffold in the ceremony or when an owner chooses to broadcast its own,
and the preimages it owns, shares through a coalition or has seen in an
on-chain witness. Honest players relay every assemblable transaction, so
one honest participant keeps the bracket live regardless of who
benefits. A transaction is offered while every output it spends is
unspent: the deposits, the bodies of each kernel a match reached, a
multiinput compression choosing its match's settled outcome, and, while
the table has not committed, the refunds. Every body offered is built by
`scaffold`, the refunds too (`build_refunds`); of the hashlocked
deposits, play decides only when the joint preimage is released
(`ScaffoldRuntime._drain`). A kernel's five transactions are offered and
witnessed by their rows of `scaffold.KERNEL`, which states their shape
once; offers go in the order (priority, level, match, ntxid). Each
reached match has one record: its kernel, its candidates and, once
settled, its result. A settled match offers nothing, as each of its
transactions spends an output already spent, so no walk of the bracket
is needed: play offers what the unsettled records hold.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .chain import Chain, TransactionBody, sig_digest_for
from .harness import Runtime, ScenarioConfig, TrialResult
from .primitives import OutputRef, Rng, sha256
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
    DEPOSIT_HASHLOCKED,
    KERNEL,
    MODE_MULTIINPUT,
    OUTCOMES,
    ROLE_COMPRESSION,
    ROLE_DEPOSIT,
    ROLE_REFUND,
    SLOT_LEFT,
    SLOT_MPC,
    SLOT_RIGHT,
    SIDE_LEFT,
    SIDE_RIGHT,
    CeremonyResult,
    Kernel,
    Tournament,
    build_refunds,
    build_tournament,
    join_combo,
    joint_preimage,
    matches_at,
    signing_ceremony,
    winner_side,
)
from .strategies import BroadcastView

# a kernel's bodies are offered by their `KERNEL` rows' priorities; these are the rest
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
    return frozenset([spec.ref for spec in body.inputs])


@dataclass
class MatchRecord:
    """A reached match: its kernel, that kernel's (left, right) players and
    candidates and, once the match has settled, its result (the side choice
    it hands its parent, winner, carrier ntxid). The side choice is what
    `scaffold.split_combo` reads from a parent's combo: plain, outcome o of
    kernel k is len(OUTCOMES) * k + o, o indexing `scaffold.OUTCOMES`, the
    `KERNEL` rows that pay; multiinput, the winner's place among the
    match's candidates."""

    kernel: Kernel
    players: tuple[int, int]
    candidates: list[Candidate]
    result: Optional[tuple[int, int, bytes]] = None


class ScaffoldRuntime(Runtime):
    """One trial against the UTXO backend.

    The chain is the only record of play: whether a transaction is on
    chain, whether the scaffold committed, which kernel each match reached
    and who won are all read from it. The runtime itself holds knowledge
    only, the preimages it has seen in on-chain witnesses and the joint
    preimage once released; a kernel's secret is held by its side's player
    and that player's allies. A witness is built once per offer and asked
    only of the players who hold every preimage it opens. What the chain
    says of a match never changes once found, so a reached match keeps one
    `MatchRecord`: the kernel it reached, its players and its candidates, made by
    `_reach` once both child matches have settled, and its result, found
    by `_result` once the transaction carrying its pot on is on chain.
    """

    SETUP_HEIGHT = 1  # ceremony and (attempted) deposits happen here

    def __init__(self, cfg: ScenarioConfig, rng: Rng, trial_index: int = 0):
        super().__init__(cfg, rng, trial_index)
        n = cfg.n
        self.oracle = SignatureOracle()
        self.chain = Chain(self.oracle)
        self.keys = tuple(rng.child(f"key/{i}").bytes(32) for i in range(n))
        for i, key in enumerate(self.keys):
            self.oracle.register_key(i, key)
        self.funding = [self.chain.mint(cfg.bet, KeySign(key)) for key in self.keys]
        for key in self.keys:
            self.chain.mint(cfg.bet, KeySign(key))  # the untouched margin

        # the joint preimage that hashlocked deposits lock on, no one's until `_drain` releases it
        self.mpc = joint_preimage(n, rng) if cfg.deposit_option == DEPOSIT_HASHLOCKED else None

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
            mpc_digest=None if self.mpc is None else sha256(self.mpc),
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
        self._matches: dict[tuple[int, int], MatchRecord] = {}  # the one memo of chain reads

    # knowledge

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
        if self.mpc is None or not self.chain.was_spent(OutputRef(self.t.deposit_ntxids[player], 0)):
            return False
        record = self._matches.get((0, player // 2))  # reached once the table committed
        return record is None or record.kernel.ntxids[0] not in self.chain.entries  # row 0: the entry

    def _reach(self, level: int, match: int) -> Optional[MatchRecord]:
        """A match's record, made once, when play reaches it: at level 0,
        combo 0 between the seeded players; above, once both child matches
        have settled, the kernel their side choices join into a combo,
        between their winners. Its candidates are the kernel's `KERNEL` rows."""
        combo, players = 0, (2 * match, 2 * match + 1)
        if level > 0:
            left = self._result(level - 1, 2 * match)
            right = self._result(level - 1, 2 * match + 1) if left else None
            if right is None:
                return None  # a child is unsettled, or the final match has no parent
            combo = join_combo(level, left.result[0], right.result[0], self.cfg.mode)
            players = (left.result[1], right.result[1])
        kernel = self.t.kernel(level, match, combo)
        record = self._matches[(level, match)] = MatchRecord(kernel, players, self._rows(kernel, players))
        return record

    def _result(self, level: int, match: int) -> Optional[MatchRecord]:
        """A reached match's record once its carrier, the transaction that
        carries its pot on, is on chain: plain, the outcome; multiinput, the
        winner's compression, which joins the candidates once the outcome has."""
        record = self._matches.get((level, match))
        if record is None or record.result is not None:
            return record
        kernel, entries = record.kernel, self.chain.entries
        outcome = next((o for o, row in enumerate(OUTCOMES) if kernel.ntxids[row] in entries), None)
        if outcome is None:
            return None
        winner = record.players[winner_side(outcome)]
        carrier = kernel.ntxids[OUTCOMES[outcome]]
        choice = len(OUTCOMES) * kernel.id.combo + outcome
        if self._multi:
            comp = self.t.compressions[(level, match, winner)]
            if len(record.candidates) == len(KERNEL):
                chosen = OutputRef(carrier, 0)
                record.candidates.append(Candidate(
                    ROLE_COMPRESSION, PRIORITY_COMPRESSION, level, match, comp.digests[0], comp,
                    comp.locktime, frozenset((chosen,)), beneficiary=winner, chosen_ref=chosen,
                ))
            carrier = comp.digests[0]
            choice = winner - (match << (level + 1))
        if carrier not in entries:
            return None
        record.result = (choice, winner, carrier)
        return record

    def _final(self) -> Optional[tuple[int, int]]:
        """(winner, height) once the final match's result is on chain."""
        record = self._result(self.cfg.levels - 1, 0)
        return record and (record.result[1], self.chain.entries[record.result[2]].height)

    # candidates: a scaffold transaction is offered while its inputs are unspent

    def _candidates(self, h: int) -> list[Candidate]:
        """The live deposits and refunds until the table commits, when every deposit
        is on chain; then the unsettled matches' candidates. A match with no live
        candidate has settled, and its parent may now be reached."""
        utxo = self.chain.utxo.keys()
        if not self._committed():
            out = [c for c in self._deposits if c.spends <= utxo]
            if self.mpc is not None and h >= self.t.refund_time:
                out.extend(c for c in self._refunds if c.spends <= utxo)
        else:  # every level-0 match is reached once the table commits
            out = []
            records = list(self._matches.values()) or [
                self._reach(0, match) for match in range(matches_at(self.cfg.n, 0))
            ]
            for record in records:  # grows by each parent a settling match reaches
                if record.result is not None:
                    continue
                level, match, _ = record.kernel.id
                if self._multi and len(record.candidates) == len(KERNEL):
                    self._result(level, match)  # adds the compression once an outcome lands
                live = [c for c in record.candidates if c.spends <= utxo]
                out.extend(live)
                if not live and self._result(level, match):
                    parent = self._reach(level + 1, match // 2)
                    if parent is not None:
                        records.append(parent)
        out.sort(key=lambda c: (c.priority, c.level, c.match, c.ntxid))
        return out

    def _rows(self, kernel: Kernel, players: tuple[int, int]) -> list[Candidate]:
        """A reached kernel's five candidates, one per `KERNEL` row, each
        offered from its level's t0 or its locktime, whichever is later."""
        level, match, _ = kernel.id
        t0 = self.t.schedule(level)[0]
        pays = {None: None, SIDE_LEFT: players[0], SIDE_RIGHT: players[1]}
        rows = [
            Candidate(
                row.role, row.priority, level, match, ntxid, body, max(t0, body.locktime), _spends(body), kernel,
                tuple([(SIDE_SLOTS[side], kernel.commits[side]) for side in row.opens]), row.branch, pays[row.pays],
            )
            for row, body, ntxid in zip(KERNEL, kernel.bodies, kernel.ntxids)
        ]
        if level == 0 and self.mpc is not None:
            # the entry spends the hashlocked deposits, which the joint preimage opens
            opens = ((SLOT_MPC, self.t.mpc_digest),)
            rows[0] = rows[0]._replace(opens=opens, branch=BRANCH_DEPOSIT_SPEND)
        return rows

    @functools.cached_property
    def _deposits(self) -> tuple[Candidate, ...]:
        """One atomic deposit everyone signs, or one hashlocked deposit per owner."""
        owned = self.mpc is not None
        return tuple(
            Candidate(
                ROLE_DEPOSIT, PRIORITY_DEPOSIT, -1, -1, body.digests[0], body, body.locktime,
                _spends(body), beneficiary=i if owned else None, owner=i if owned else None,
            )
            for i, body in enumerate(self.t.deposit_bodies)
        )

    @functools.cached_property
    def _refunds(self) -> tuple[Candidate, ...]:
        """Each hashlocked deposit's owner taking it back, built when first offered."""
        return tuple(
            Candidate(
                ROLE_REFUND, PRIORITY_REFUND, -1, -1, body.digests[0], body, body.locktime,
                _spends(body), branch=BRANCH_DEPOSIT_REFUND, beneficiary=player, owner=player,
            )
            for player, body in enumerate(build_refunds(self.t))
        )

    # witness assembly

    def _witness(self, cand: Candidate) -> Optional[tuple[Witness, Sequence[int]]]:
        """The witness `cand` takes, whoever gives it, and the players who
        can give it, in seat order; None if no one can.

        Each preimage it opens is public, or a kernel side's secret, held by
        that side's player and its allies; the joint preimage is no one's
        until released. Every input names all keys as its signers, whose
        approval the ceremony recorded, or its owner alone, who signs it
        once it chooses to broadcast (`_offer`). Input i of the atomic
        deposit names key i alone, and a row that opens both sides is not
        assembled on even parity, since its predicate can never pass.
        """
        players = (cand.owner,) if cand.owner is not None else range(self.cfg.n)
        kernel = cand.kernel
        preimages: dict[str, bytes] = {}
        for slot, digest in cand.opens:
            pre = self.public.get(digest)
            if pre is None:
                if slot == SLOT_MPC:
                    return None
                side = SIDE_SLOTS.index(slot)
                holders = self.allies[self._matches[(cand.level, cand.match)].players[side]]
                players = [p for p in players if p in holders]
                pre = self.t.secret(kernel.id, side)
            preimages[slot] = pre
        if len(preimages) == len(SIDE_SLOTS):  # both sides opened: their parity must be odd
            if parity_bit(preimages[SLOT_LEFT]) ^ parity_bit(preimages[SLOT_RIGHT]) != 1:
                return None
        signers = self.keys
        if cand.owner is not None:
            signers = (self.keys[cand.owner],)
        elif cand.role == ROLE_DEPOSIT:  # atomic: input i is key i's funding output
            return Witness(tuple(InputWitness((key,)) for key in self.keys)), players
        iw = InputWitness(signers, preimages, cand.branch, cand.chosen_ref)
        return Witness((iw,) * len(cand.body.inputs)), players

    # the trial

    @property
    def value_moves(self) -> int:
        return len(self.chain.log)

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
        """Offer the candidates in order; after each accept, enumerate them
        again. Each pass first applies the release rule: from t_commit, once
        every hashlocked deposit is on chain, the ideal functionality hands
        everyone the joint preimage. So a deposit that lands in this drain
        releases it before the next pass, and the entries it opens go out
        ahead of the refunds."""
        while True:
            if self.mpc is not None and h >= self.cfg.t_commit and not self._committed():
                if self.deposit_complete_h is not None:
                    self.public[self.t.mpc_digest] = self.mpc
            if not any(self._offer(cand) for cand in self._candidates(h) if h >= cand.not_before):
                return

    def _offer(self, cand: Candidate) -> bool:
        witness, players = self._witness(cand) or (None, ())
        left, right = self._matches[(cand.level, cand.match)].players if cand.kernel else (None, None)
        for player in players:
            view = BroadcastView(
                kind=cand.role,
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
