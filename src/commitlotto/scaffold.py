"""Pre-signed transaction scaffold for the UTXO tournament backend.

A tournament over N = 2^L players is a binary bracket. Each match is played
by a family of five-transaction kernels: an entry that joins the two stakes,
a reveal that opens the left player's commitment, and three mutually
exclusive outcomes (left wins by reveal timeout, right wins by entry
timeout, right wins by revealing odd parity). Because a match at level l+1
must be wired to concrete child outputs, plain mode needs one kernel per
combination of child (kernel, outcome) pairs, which squares per level:

    kernels(0) = 1,   kernels(l+1) = (3 * kernels(l)) ** 2

Multiinput mode collapses that blowup: per candidate winner of a match, one
compression transaction spends whichever outcome output actually paid that
candidate (a MultiInput set), so the next level only needs one kernel per
pair of candidate identities, 4^l per match.

Everything here is built unsigned, and NTXIDs never cover witness data.
No record takes an id: a compression is its body, and kernels and
deposits derive theirs from their bodies (`TransactionBody.digests`), so
none can disagree. Nor does a record hold a fact its key and the
parameters fix: a kernel is its id, its two commitments and its five
bodies, and its players, heights and pot are `players_of` its id,
`Tournament.schedule` of its level and `(2 << level) * bet`. A kernel is
a pure function of the public parameters, its two commitments and its
two stake refs, and a compression of the
outcome ntxids that pay its candidate, so `Tournament.kernels` and
`Tournament.compressions` build each entry the first time it is read,
with what it spends, and keep it (`LazyTable`). A trial builds only what
play reaches and what that spends: a plain trial one kernel per match;
iterating a table builds the rest of it, with the same bytes. The signing
ceremony approves the honest scaffold as a whole: a key's approval is
membership in the tournament's registry of signature digests, which
honest construction fills as it builds bodies.

Each fact of the hashlocked deposits is stated once, here: the joint
preimage they lock on (`joint_preimage`), the height their refund branch
unlocks (`refund_time_for`), and the refunds that spend them
(`build_refunds`). When the preimage is released is play's decision.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from collections.abc import MutableMapping
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .chain import (
    BODY_JSON,
    FixedInput,
    TransactionBody,
    TxOutput,
    body_bytes,
    multi_input,
    sig_digest_for,
)
# re-exported, as the names both backends read: DEPOSIT_*, MODE_*, ROLE_DEPOSIT,
# ROLE_OUTCOME_BP, ROLE_REVEAL, NotPowerOfTwo, matches_at and num_levels
from .primitives import (
    DEPOSIT_ATOMIC,
    DEPOSIT_HASHLOCKED,
    HASH_BYTES,
    MODE_MULTIINPUT,
    MODE_PLAIN,
    REF_JSON,
    ROLE_DEPOSIT,
    ROLE_OUTCOME_BP,
    ROLE_REVEAL,
    SIG_LAMBDA,
    ConfigError,
    ListOf,
    NotPowerOfTwo,
    Nullable,
    OutputRef,
    Record,
    Rng,
    Sized,
    check_params,
    json_value,
    level_schedule,
    level_stride,
    matches_at,
    num_levels,
    sha256,
    to_json,
)
from .script import (
    AfterHeight,
    AllOf,
    AllSign,
    AnyOf,
    HashPreimage,
    KeySign,
    Predicate,
    SignatureOracle,
    XorParityOdd,
    commitment,
)

SLOT_LEFT = "left"
SLOT_RIGHT = "right"
SLOT_MPC = "mpc"

# AnyOf branch indexes shared by all kernel and deposit predicates
BRANCH_REVEAL = 0
BRANCH_TIMEOUT = 1
BRANCH_DEPOSIT_SPEND = 0
BRANCH_DEPOSIT_REFUND = 1

ROLE_ENTRY = "entry"
ROLE_OUTCOME_A = "outcome-a"
ROLE_OUTCOME_B = "outcome-b"
ROLE_OUTCOMES = (ROLE_OUTCOME_A, ROLE_OUTCOME_B, ROLE_OUTCOME_BP)
ROLE_KERNEL = (ROLE_ENTRY, ROLE_REVEAL) + ROLE_OUTCOMES  # `Kernel.bodies` order
ROLE_COMPRESSION = "compression"
ROLE_REFUND = "refund"  # a hashlocked deposit's owner taking it back (`build_refunds`); never signed

SIDE_LEFT = 0
SIDE_RIGHT = 1


class IndexOutOfRange(IndexError):
    pass


class KernelId(NamedTuple):
    level: int
    match: int
    combo: int


def kernel_count(level: int, mode: str = MODE_PLAIN) -> int:
    """Kernels needed per match at a level.

    Plain mode follows the squaring recurrence (closed form 9^(2^l - 1)).
    Multiinput mode needs one kernel per pair of candidate winners, 4^l.
    """
    if level < 0:
        raise IndexOutOfRange("level must be >= 0")
    if mode == MODE_MULTIINPUT:
        return 4**level
    count = 1
    for _ in range(level):
        count = 9 * count * count
    return count


def unpack_index(level: int, match: int, combo: int) -> tuple[int, int, int, int]:
    """Split a plain-mode combination index into child coordinates.

    Returns (left_kernel, left_tx, right_kernel, right_tx) for the two child
    matches of `match`. The combination index enumerates left-major over
    3 * kernels(level-1) child outcomes per side.
    """
    if level < 1:
        raise IndexOutOfRange("level-0 kernels have no child coordinates")
    child_kernels = kernel_count(level - 1)
    per_side = 3 * child_kernels
    if not (0 <= combo < per_side * per_side):
        raise IndexOutOfRange(f"combo {combo} out of range for level {level}")
    left_idx, right_idx = divmod(combo, per_side)
    return (left_idx // 3, left_idx % 3, right_idx // 3, right_idx % 3)


def pack_index(level: int, left_kernel: int, left_tx: int, right_kernel: int, right_tx: int) -> int:
    """Inverse of `unpack_index`: child coordinates -> plain-mode combination index."""
    if level < 1:
        raise IndexOutOfRange("level-0 kernels have no child coordinates")
    child_kernels = kernel_count(level - 1)
    for kernel, tx in ((left_kernel, left_tx), (right_kernel, right_tx)):
        if not (0 <= kernel < child_kernels and 0 <= tx < 3):
            raise IndexOutOfRange(f"child ({kernel}, {tx}) out of range for level {level}")
    return (3 * left_kernel + left_tx) * 3 * child_kernels + 3 * right_kernel + right_tx


def winner_side(tx_index: int) -> int:
    """Which side a kernel outcome pays: outcome 0 pays left, 1 and 2 pay right."""
    if tx_index not in (0, 1, 2):
        raise IndexOutOfRange(f"outcome index {tx_index} out of range")
    return SIDE_LEFT if tx_index == 0 else SIDE_RIGHT


def candidates(n: int, level: int, match: int) -> list[int]:
    """Players whose bracket path can reach match `match` at `level`."""
    num_levels(n)
    width = 1 << (level + 1)
    if not (0 <= match < matches_at(n, level)):
        raise IndexOutOfRange(f"match {match} out of range at level {level}")
    return list(range(match * width, (match + 1) * width))


def multi_candidate_pair(n: int, level: int, match: int, combo: int) -> tuple[int, int]:
    """Multiinput combination index -> (left candidate, right candidate)."""
    side = 1 << level
    if not (0 <= combo < side * side):
        raise IndexOutOfRange(f"combo {combo} out of range for level {level}")
    left_cands = candidates(n, level - 1, 2 * match) if level else [2 * match]
    right_cands = candidates(n, level - 1, 2 * match + 1) if level else [2 * match + 1]
    return left_cands[combo // side], right_cands[combo % side]


def multi_combo_index(n: int, level: int, match: int, left: int, right: int) -> int:
    """Inverse of `multi_candidate_pair`: (left, right candidate) -> combination index."""
    if not (0 <= match < matches_at(n, level)):
        raise IndexOutOfRange(f"match {match} out of range at level {level}")
    side = 1 << level
    left_idx, right_idx = left - 2 * match * side, right - (2 * match + 1) * side
    if not (0 <= left_idx < side and 0 <= right_idx < side):
        raise IndexOutOfRange(f"players {left}, {right} do not meet in match {match}")
    return left_idx * side + right_idx


def players_of(n: int, level: int, match: int, combo: int, mode: str = MODE_PLAIN) -> tuple[int, int]:
    """Left and right player identity of a kernel, by pure index arithmetic."""
    levels = num_levels(n)
    if not (0 <= level < levels):
        raise IndexOutOfRange(f"level {level} out of range")
    if not (0 <= match < matches_at(n, level)):
        raise IndexOutOfRange(f"match {match} out of range at level {level}")
    if level == 0:
        if combo != 0:
            raise IndexOutOfRange("level 0 has a single kernel per match")
        return 2 * match, 2 * match + 1
    if mode == MODE_MULTIINPUT:
        return multi_candidate_pair(n, level, match, combo)
    lk, lt, rk, rt = unpack_index(level, match, combo)
    left_pair = players_of(n, level - 1, 2 * match, lk, mode)
    right_pair = players_of(n, level - 1, 2 * match + 1, rk, mode)
    return left_pair[winner_side(lt)], right_pair[winner_side(rt)]


def joint_preimage(n: int, rng: Rng) -> bytes:
    """The ideal multiparty computation's output, x1 xor ... xor xN.

    Input i is drawn from `rng.child("mpc/i")`; a hashlocked deposit locks
    on its hash. No strict subset of the players can learn it, so it is
    no one's until the runtime releases it.
    """
    acc = 0
    for i in range(n):
        acc ^= int.from_bytes(rng.child(f"mpc/{i}").nonzero_bytes(32), "big")
    return acc.to_bytes(32, "big")


@dataclass(frozen=True)
class Kernel:
    """One five-transaction match kernel, fully wired and unsigned: its id,
    its two commitment digests and its bodies. Its ids are not arguments:
    each is derived from its body, also by `dataclasses.replace`. What the
    id fixes is not held: the players are `players_of` the id, the heights
    the level's `Tournament.schedule`, and t1, t2 and the pot are in the
    bodies' locktimes, predicates and output values."""

    id: KernelId
    left_commit: bytes
    right_commit: bytes
    entry_tx: TransactionBody
    reveal_tx: TransactionBody
    outcome_txs: tuple[TransactionBody, TransactionBody, TransactionBody]
    entry_ntxid: bytes = field(init=False)
    reveal_ntxid: bytes = field(init=False)
    outcome_ntxids: tuple[bytes, bytes, bytes] = field(init=False)

    def __post_init__(self):
        ids = vars(self)  # the dataclass is frozen, so the ids go straight into its dict
        ids["entry_ntxid"] = self.entry_tx.digests[0]
        ids["reveal_ntxid"] = self.reveal_tx.digests[0]
        ids["outcome_ntxids"] = tuple(b.digests[0] for b in self.outcome_txs)

    @property
    def bodies(self) -> tuple[TransactionBody, ...]:
        """Entry, reveal, outcome a, b and b' (`ROLE_KERNEL` order)."""
        return (self.entry_tx, self.reveal_tx, *self.outcome_txs)

    @property
    def ntxids(self) -> tuple[bytes, ...]:
        return (self.entry_ntxid, self.reveal_ntxid, *self.outcome_ntxids)


KERNEL_JSON = Record(
    {"level": int, "match": int, "combo": int, "left_commit": bytes, "right_commit": bytes,
     "entry": BODY_JSON, "reveal": BODY_JSON, "outcomes": Sized(ListOf(BODY_JSON), len(ROLE_OUTCOMES))},
    lambda level, match, combo, *rest: Kernel(KernelId(level, match, combo), *rest),
    lambda k: (*k.id, k.left_commit, k.right_commit, k.entry_tx, k.reveal_tx, k.outcome_txs),
)


@dataclass(frozen=True)
class TransactionStats:
    total_offchain: int
    per_level: tuple[int, ...]
    kernel_bodies: int
    compression_count: int
    deposit_count: int
    on_chain_worst_case: int
    bytes_on_chain: int
    materialized: bool  # `build` can write this scaffold out

    def to_json(self) -> dict:
        return {**dataclasses.asdict(self), "per_level": list(self.per_level)}


@dataclass
class Tournament:
    """A scaffold: public parameters, commitments and bodies. Treat as
    immutable once constructed.

    An honestly constructed scaffold builds its kernels and compressions on
    first read (see `LazyTable`); one decoded from a file has them all. The
    registries `scaffold_digests` and `secrets` hold what the built bodies
    and kernels contribute, so they grow with the tables. No id is an
    argument: `deposit_ntxids` is derived from `deposit_bodies` whenever
    they are set, the kernels derive theirs, and a compression is its body.
    Nor is any fact that the parameters fix: `level_stride`, `refund_time`,
    `stats` and `schedule`, and a kernel's players and pot, are derived
    from them when read, so none is stored, written to a file or checked
    by `verify_as_honest`.
    """

    mode: str
    n: int
    bet: int
    tau: int
    t_commit: int
    deposit_option: str
    master_keys: tuple[bytes, ...]
    funding: tuple[OutputRef, ...]
    kernels: MutableMapping[KernelId, Kernel]
    compressions: MutableMapping[tuple[int, int, int], TransactionBody]  # (level, match, candidate)
    deposit_bodies: tuple[TransactionBody, ...]
    mpc_digest: Optional[bytes]
    # signature digests of the built kernel and compression bodies: what the ceremony approves
    scaffold_digests: set[bytes] = field(repr=False)
    secrets: dict[tuple[KernelId, int], bytes] = field(default_factory=dict, repr=False)
    deposit_ntxids: tuple[bytes, ...] = field(init=False, repr=False, compare=False)

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        # the ids follow the bodies whenever they are set; kept, not a
        # property, because play reads them many times per trial
        if name == "deposit_bodies":
            super().__setattr__("deposit_ntxids", tuple(b.digests[0] for b in value))

    @property
    def levels(self) -> int:
        return num_levels(self.n)

    @property
    def level_stride(self) -> int:
        return level_stride(self.tau, self.mode == MODE_MULTIINPUT)

    @property
    def refund_time(self) -> Optional[int]:
        """The height a hashlocked deposit's refund branch unlocks; None for the atomic deposit."""
        return refund_time_for(self.t_commit) if self.deposit_option == DEPOSIT_HASHLOCKED else None

    @property
    def stats(self) -> TransactionStats:
        return scaffold_stats(self.n, self.mode, self.deposit_option)

    def schedule(self, level: int) -> tuple[int, int, int]:
        return level_schedule(self.t_commit, self.level_stride, self.tau, level)

    def kernel(self, level: int, match: int, combo: int) -> Kernel:
        return self.kernels[KernelId(level, match, combo)]

    def secret(self, kid: KernelId, side: int) -> bytes:
        return self.secrets[(kid, side)]


class ScaffoldTx(NamedTuple):
    """A body in canonical signing/export order."""

    role: str
    key: object  # KernelId, (level, match, candidate) or deposit index
    body: TransactionBody

    @property
    def ntxid(self) -> bytes:
        return self.body.digests[0]


def iter_bodies(t: Tournament) -> list[ScaffoldTx]:
    """All scaffold bodies in deterministic order; deposits come last."""
    out: list[ScaffoldTx] = []
    for kid in sorted(t.kernels):
        out.extend(ScaffoldTx(role, kid, b) for role, b in zip(ROLE_KERNEL, t.kernels[kid].bodies))
    for ckey in sorted(t.compressions):
        out.append(ScaffoldTx(ROLE_COMPRESSION, ckey, t.compressions[ckey]))
    out.extend(ScaffoldTx(ROLE_DEPOSIT, i, body) for i, body in enumerate(t.deposit_bodies))
    return out


def _entry_predicate(master: Predicate, left_commit: bytes, t1: int) -> Predicate:
    return AnyOf(
        (
            AllOf((master, HashPreimage(left_commit, SLOT_LEFT))),
            AllOf((master, AfterHeight(t1))),
        )
    )


def _reveal_predicate(master: Predicate, left_commit: bytes, right_commit: bytes, t2: int) -> Predicate:
    return AnyOf(
        (
            AllOf(
                (
                    master,
                    HashPreimage(left_commit, SLOT_LEFT),
                    HashPreimage(right_commit, SLOT_RIGHT),
                    XorParityOdd(SLOT_LEFT, SLOT_RIGHT),
                )
            ),
            AllOf((master, AfterHeight(t2))),
        )
    )


def _hashlocked_deposit_predicate(
    master: Predicate, mpc_digest: bytes, player_key: bytes, refund_time: int
) -> Predicate:
    return AnyOf(
        (
            AllOf((master, HashPreimage(mpc_digest, SLOT_MPC))),
            AllOf((KeySign(player_key), AfterHeight(refund_time))),
        )
    )


def _kernel_bodies(
    master: Predicate,
    left_commit: bytes,
    right_commit: bytes,
    t1: int,
    t2: int,
    pot: int,
    left_ref: OutputRef,
    right_ref: OutputRef,
    pay_left: Predicate,
    pay_right: Predicate,
) -> tuple[TransactionBody, ...]:
    """The bodies entry, reveal, outcome a, b and b'.

    Outcome a pays `pay_left`, b and b' pay `pay_right`.
    """
    entry = TransactionBody(
        inputs=(FixedInput(left_ref), FixedInput(right_ref)),
        outputs=(TxOutput(pot, _entry_predicate(master, left_commit, t1)),),
    )
    entry_ref = OutputRef(entry.digests[0], 0)
    reveal = TransactionBody(
        inputs=(FixedInput(entry_ref),),
        outputs=(TxOutput(pot, _reveal_predicate(master, left_commit, right_commit, t2)),),
    )
    reveal_ref = OutputRef(reveal.digests[0], 0)
    # outcome 0: left wins after the reveal times out at t2
    # outcome 1: right wins after the entry times out at t1 (left never revealed)
    # outcome 2: right wins by revealing odd parity
    tx_a = TransactionBody(
        inputs=(FixedInput(reveal_ref),),
        outputs=(TxOutput(pot, pay_left),),
        locktime=t2,
    )
    tx_b = TransactionBody(
        inputs=(FixedInput(entry_ref),),
        outputs=(TxOutput(pot, pay_right),),
        locktime=t1,
    )
    tx_bp = TransactionBody(
        inputs=(FixedInput(reveal_ref),),
        outputs=(TxOutput(pot, pay_right),),
    )
    return entry, reveal, tx_a, tx_b, tx_bp


def build_deposit_atomic(funding: Sequence[OutputRef], bet: int, master: Predicate) -> TransactionBody:
    """Single all-or-nothing deposit: N bet inputs, N bet stake outputs.

    Output 2i and 2i+1 are the stakes consumed by first-round match i. The
    body is fixed (and referenced) before anyone signs it; the ceremony
    signs it last so no player is ever exposed without a full scaffold.
    """
    return TransactionBody(
        inputs=tuple(FixedInput(ref) for ref in funding),
        outputs=tuple(TxOutput(bet, master) for _ in funding),
    )


def refund_time_for(t_commit: int) -> int:
    """The height from which a hashlocked deposit's refund branch unlocks:
    the commit deadline, so an aborted run returns every stake within the
    commit window."""
    return t_commit


def build_deposit_hashlocked(
    funding: Sequence[OutputRef],
    bet: int,
    master: Predicate,
    player_keys: Sequence[bytes],
    mpc_digest: bytes,
    refund_time: int,
) -> tuple[TransactionBody, ...]:
    """Per-player deposits spendable into the tree only with the shared preimage.

    Each output either feeds a first-round entry (all signatures plus the
    preimage of the jointly computed digest) or refunds its owner once
    refund_time passes (`build_refunds`).
    """
    bodies = []
    for ref, key in zip(funding, player_keys):
        pred = _hashlocked_deposit_predicate(master, mpc_digest, key, refund_time)
        bodies.append(
            TransactionBody(inputs=(FixedInput(ref),), outputs=(TxOutput(bet, pred),))
        )
    return tuple(bodies)


def build_refunds(t: Tournament) -> tuple[TransactionBody, ...]:
    """Each hashlocked deposit's owner taking its bet back, through the
    deposit's refund branch, from `t.refund_time`."""
    return tuple(
        TransactionBody(
            inputs=(FixedInput(OutputRef(ntxid, 0)),),
            outputs=(TxOutput(t.bet, KeySign(key)),),
            locktime=t.refund_time,
        )
        for ntxid, key in zip(t.deposit_ntxids, t.master_keys)
    )


def _payout(master: Predicate, key: bytes, last: bool) -> Predicate:
    """The bracket's last transaction pays the winner's key; earlier ones keep the stake under the master."""
    return KeySign(key) if last else master


def _param_problem(
    n: int,
    keys: Sequence[bytes],
    funding: Sequence[OutputRef],
    mode: str,
    deposit_option: str,
    mpc_digest: Optional[bytes],
) -> Optional[str]:
    """Why honest construction cannot run on these inputs, or None; `check_params` has passed."""
    if len(keys) != n or len(set(keys)) != n:
        return "need one distinct key per player"
    if len(funding) != n or len(set(funding)) != n:
        return "need one distinct funding output per player"
    if any(len(ref.txid) != HASH_BYTES for ref in funding):
        # `body_bytes` writes a txid with no length prefix
        return f"every funding txid must be {HASH_BYTES} bytes"
    if mode not in (MODE_PLAIN, MODE_MULTIINPUT):
        return f"unknown mode {mode!r}"
    if deposit_option not in (DEPOSIT_ATOMIC, DEPOSIT_HASHLOCKED):
        return f"unknown deposit option {deposit_option!r}"
    if deposit_option == DEPOSIT_HASHLOCKED and mpc_digest is None:
        return "hashlocked deposits need the joint mpc digest"
    return None


KERNELS = "kernels"
COMPRESSIONS = "compressions"


@dataclass
class _HonestWiring:
    """What honest construction of one kernel or compression reads and where it registers.

    The parameters are fixed when the scaffold is constructed, so an entry
    built later is the one construction would have built then.
    `commits(kid)` supplies a kernel's (left, right) commitment digests.
    The signature digest of every body built goes into `scaffold_digests`,
    and every entry into `built`, by table; the `LazyTable`s read through
    here, so nothing the wiring holds refers back to them.
    """

    n: int
    keys: tuple[bytes, ...]
    bet: int
    tau: int
    t_commit: int
    mode: str
    deposit_option: str
    master: Predicate
    deposit_ntxids: tuple[bytes, ...]
    commits: Callable[[KernelId], tuple[bytes, bytes]]
    scaffold_digests: set[bytes] = field(default_factory=set)

    def __post_init__(self):
        self.levels = num_levels(self.n)
        self.stride = level_stride(self.tau, self.mode == MODE_MULTIINPUT)
        self.built: dict[str, dict] = {KERNELS: {}, COMPRESSIONS: {}}

    def _indexes(self, table: str, level: int, match: int) -> range:
        """The last coordinate of a table's keys in one match: the kernel
        combinations, or the compression candidates (multiinput only)."""
        if not (0 <= level < self.levels and 0 <= match < matches_at(self.n, level)):
            return range(0)
        if table == KERNELS:
            return range(kernel_count(level, self.mode))
        width = 1 << (level + 1) if self.mode == MODE_MULTIINPUT else 0  # plain mode has none
        return range(match * width, (match + 1) * width)

    def ids(self, table: str) -> Iterator[tuple[int, int, int]]:
        """Every key of a table, in bracket order."""
        for level in range(self.levels):
            for match in range(matches_at(self.n, level)):
                for index in self._indexes(table, level, match):
                    yield KernelId(level, match, index) if table == KERNELS else (level, match, index)

    def get(self, table: str, key):
        """Entry `key` of `table`, built and kept the first time it is read."""
        memo = self.built[table]
        entry = memo.get(key)
        if entry is None:
            level, match, index = key
            if index not in self._indexes(table, level, match):
                raise KeyError(key)
            if table == KERNELS:
                key = KernelId(*key)
                entry = memo[key] = self.kernel(key)
            else:
                entry = memo[key] = self.compression(*key)
        return entry

    def _stake_ref(self, kid: KernelId, side: int) -> OutputRef:
        """Where the stake on one side of kernel `kid` lives: plain, above
        level 0, the child outcome its combination names; otherwise the
        deposit output or the child compression of that side's player."""
        level, match, combo = kid
        child_match = 2 * match + side
        if level > 0 and self.mode == MODE_PLAIN:
            lk, lt, rk, rt = unpack_index(level, match, combo)
            child_kernel, child_tx = (lk, lt) if side == SIDE_LEFT else (rk, rt)
            child = self.get(KERNELS, KernelId(level - 1, child_match, child_kernel))
            return OutputRef(child.outcome_ntxids[child_tx], 0)
        player = players_of(self.n, *kid, self.mode)[side]
        if level > 0:
            return OutputRef(self.get(COMPRESSIONS, (level - 1, child_match, player)).digests[0], 0)
        if self.deposit_option == DEPOSIT_ATOMIC:
            return OutputRef(self.deposit_ntxids[0], player)
        return OutputRef(self.deposit_ntxids[player], 0)

    def kernel(self, kid: KernelId) -> Kernel:
        level = kid.level
        _t0, t1, t2 = level_schedule(self.t_commit, self.stride, self.tau, level)
        pays = (self.master, self.master)
        if level == self.levels - 1 and self.mode == MODE_PLAIN:  # multiinput pays out in the compression
            pays = tuple(KeySign(self.keys[p]) for p in players_of(self.n, *kid, self.mode))
        left_commit, right_commit = self.commits(kid)
        bodies = _kernel_bodies(
            self.master,
            left_commit,
            right_commit,
            t1,
            t2,
            (1 << (level + 1)) * self.bet,
            self._stake_ref(kid, SIDE_LEFT),
            self._stake_ref(kid, SIDE_RIGHT),
            *pays,
        )
        self.scaffold_digests.update(b.digests[1] for b in bodies)
        return Kernel(kid, left_commit, right_commit, bodies[0], bodies[1], bodies[2:])

    def compression(self, level: int, match: int, cand: int) -> TransactionBody:
        """The multiinput compression paying `cand`: it spends every outcome
        output of its match that pays `cand`, so it reads the kernels that do."""
        side = 1 << level
        idx = cand - 2 * match * side  # the candidate's place among the match's 2 * side
        if idx < side:  # a left candidate wins by outcome a of the combos it plays
            combos, outcomes = range(idx * side, (idx + 1) * side), (0,)
        else:  # a right candidate wins by outcome b or b'
            combos, outcomes = range(idx - side, side * side, side), (1, 2)
        members = [
            OutputRef(self.get(KERNELS, KernelId(level, match, combo)).outcome_ntxids[tx], 0)
            for combo in combos
            for tx in outcomes
        ]
        pot = (1 << (level + 1)) * self.bet
        body = TransactionBody(
            inputs=(multi_input(members),),
            outputs=(TxOutput(pot, _payout(self.master, self.keys[cand], level == self.levels - 1)),),
        )
        self.scaffold_digests.add(body.digests[1])
        return body


class LazyTable(MutableMapping):
    """The kernels or the compressions of an honestly constructed scaffold,
    each built the first time it is read.

    Reading an entry builds it, and the entries it spends, and keeps it.
    Iterating, taking the length or writing first builds every entry not
    yet built, in bracket order; from then on the table is a plain dict, so
    an entry a write deletes stays deleted. The construction state lives on
    the table, so a deep copy builds into its own registries.
    """

    def __init__(self, wiring: _HonestWiring, table: str):
        self._wiring: Optional[_HonestWiring] = wiring  # None once `_all` built every entry
        self._table = table

    def __getitem__(self, key):
        if self._wiring is None:
            return self._built[key]
        return self._wiring.get(self._table, key)

    def _all(self) -> dict:
        if self._wiring is not None:
            wiring, table = self._wiring, self._table
            self._built = {key: wiring.get(table, key) for key in wiring.ids(table)}
            self._wiring = None
        return self._built

    def __iter__(self) -> Iterator:
        return iter(self._all())

    def __len__(self) -> int:
        return len(self._all())

    def __setitem__(self, key, entry) -> None:
        self._all()[key] = entry

    def __delitem__(self, key) -> None:
        del self._all()[key]


def _honest_scaffold(
    n: int,
    keys: Sequence[bytes],
    funding: Sequence[OutputRef],
    bet: int,
    tau: int,
    t_commit: int,
    mode: str,
    deposit_option: str,
    mpc_digest: Optional[bytes],
    commits: Callable[[KernelId], tuple[bytes, bytes]],
    secrets: dict[tuple[KernelId, int], bytes],
) -> Tournament:
    """The scaffold honest construction gives for these parameters.

    Everything in a scaffold is public except the kernels' commitment
    digests, which `commits(kid)` supplies as (left, right) when kernel
    `kid` is built. Build draws them from fresh secrets; verify passes the
    ones a scaffold carries, so the result differs from that scaffold
    exactly where it is not honest. The deposits are built here; kernels
    and compressions in either mode when first read (`LazyTable`).
    `secrets` is stored as given; what the parameters fix is derived by
    the `Tournament` itself.
    """
    master = AllSign(tuple(keys))
    if deposit_option == DEPOSIT_ATOMIC:
        deposit_bodies = (build_deposit_atomic(funding, bet, master),)
        mpc_digest = None
    else:
        deposit_bodies = build_deposit_hashlocked(
            funding, bet, master, keys, mpc_digest, refund_time_for(t_commit)
        )
    wiring = _HonestWiring(
        n=n,
        keys=tuple(keys),
        bet=bet,
        tau=tau,
        t_commit=t_commit,
        mode=mode,
        deposit_option=deposit_option,
        master=master,
        deposit_ntxids=tuple(b.digests[0] for b in deposit_bodies),
        commits=commits,
    )
    return Tournament(
        mode=mode,
        n=n,
        bet=bet,
        tau=tau,
        t_commit=t_commit,
        deposit_option=deposit_option,
        master_keys=tuple(keys),
        funding=tuple(funding),
        kernels=LazyTable(wiring, KERNELS),
        compressions=LazyTable(wiring, COMPRESSIONS),
        deposit_bodies=deposit_bodies,
        mpc_digest=mpc_digest,
        scaffold_digests=wiring.scaffold_digests,
        secrets=secrets,
    )


@dataclass
class _FreshSecrets:
    """Commitments over fresh kernel secrets, drawn by label from `source` and kept in `secrets`."""

    source: Rng
    secrets: dict[tuple[KernelId, int], bytes] = field(default_factory=dict)

    def __call__(self, kid: KernelId) -> tuple[bytes, bytes]:
        label = f"{kid.level}.{kid.match}.{kid.combo}"
        left = self.secrets[(kid, SIDE_LEFT)] = self.source.child(f"{label}.L").nonzero_bytes(32)
        right = self.secrets[(kid, SIDE_RIGHT)] = self.source.child(f"{label}.R").nonzero_bytes(32)
        return commitment(left), commitment(right)


# a plain match at level l has 9^(2^l - 1) kernels, so beyond this player
# count a plain scaffold is too large to write out or verify (n=16 has
# 23,922,356 bodies); trials still run, as they build only what play reaches
PLAIN_MATERIALIZE_MAX = 8


def _writable(n: int, mode: str) -> bool:
    """Whether the whole scaffold for n players in `mode` can be built and written out."""
    return mode != MODE_PLAIN or n <= PLAIN_MATERIALIZE_MAX


def build_tournament(
    n: int,
    player_keys: Sequence[bytes],
    funding: Sequence[OutputRef],
    secret_source: Rng,
    t_commit: int,
    bet: int,
    tau: int,
    mode: str = MODE_PLAIN,
    deposit_option: str = DEPOSIT_ATOMIC,
    mpc_digest: Optional[bytes] = None,
) -> Tournament:
    """Construct the unsigned honest scaffold; its kernels are built when first read.

    Secrets are drawn per kernel per player from `secret_source`, by the
    kernel's label, when the kernel is built; their commitment digests are
    baked into the spending predicates. The returned object carries the
    secrets for simulation purposes; exports strip them. Its schedule
    stride, refund height and stats follow from the parameters (`Tournament`).
    """
    check_params(n, tau, t_commit, bet)
    problem = _param_problem(n, player_keys, funding, mode, deposit_option, mpc_digest)
    if problem:
        raise ValueError(problem)
    fresh = _FreshSecrets(secret_source.child("kernel-secrets"))
    return _honest_scaffold(
        n, player_keys, funding, bet, tau, t_commit, mode, deposit_option, mpc_digest, fresh,
        fresh.secrets,
    )


# cost model


# signatures one transaction carries for n master keys, per signature model:
# multisig carries one per key, aggregate folds them into one
SIG_MODELS: dict[str, Callable[[int], int]] = {"multisig": lambda n: n, "aggregate": lambda n: 1}


def auth_bytes(sig_model: str, n: int) -> int:
    """On-chain authorization bytes of one transaction under `sig_model`."""
    if sig_model not in SIG_MODELS:
        raise ConfigError(f"unknown signature model {sig_model!r}")
    return SIG_MODELS[sig_model](n) * SIG_LAMBDA


@functools.cache
def scaffold_stats(n: int, mode: str = MODE_PLAIN, deposit_option: str = DEPOSIT_ATOMIC) -> TransactionStats:
    """Closed-form transaction statistics without materializing the tree.

    Representative bodies (one kernel per level, dummy digests) give exact
    byte sizes because every height, value, digest and reference field is
    fixed-width, so they are sized at one fixed valid schedule and stake,
    and a scaffold's `stats` are these figures whatever its own. Every
    transaction is authorized by multisig, as every trial's witnesses are.
    `materialized` tells whether the whole scaffold can be written out.
    The figures depend only on the arguments, so they are computed once per
    argument list; the result is frozen because every caller shares it.
    """
    bet, tau, t_commit = 1, 6, 10
    levels = num_levels(n)
    per_level = tuple(
        matches_at(n, level) * kernel_count(level, mode) * 5 for level in range(levels)
    )
    kernel_bodies = sum(per_level)
    compression_count = n * levels if mode == MODE_MULTIINPUT else 0
    deposit_count = 1 if deposit_option == DEPOSIT_ATOMIC else n
    total = kernel_bodies + compression_count + deposit_count
    txs_per_match = 4 if mode == MODE_MULTIINPUT else 3
    on_chain_worst = txs_per_match * (n - 1) + deposit_count

    dummy_keys = tuple(sha256(b"size-probe-key:%d" % i) for i in range(n))
    master = AllSign(dummy_keys)
    dummy_ref = OutputRef(b"\x11" * 32, 0)
    dummy_digest = sha256(b"size-probe-commit")
    auth = auth_bytes("multisig", n)

    if deposit_option == DEPOSIT_ATOMIC:
        dep = build_deposit_atomic([dummy_ref] * n, bet, master)
        worst_bytes = len(body_bytes(dep)) + auth
    else:
        deps = build_deposit_hashlocked(
            [dummy_ref] * n, bet, master, dummy_keys, dummy_digest, refund_time_for(t_commit)
        )
        worst_bytes = sum(len(body_bytes(b)) + auth for b in deps)

    stride = level_stride(tau, mode == MODE_MULTIINPUT)
    for level in range(levels):
        _t0, t1, t2 = level_schedule(t_commit, stride, tau, level)
        pot = (1 << (level + 1)) * bet
        final = level == levels - 1
        last = final and mode == MODE_PLAIN
        # the slowest path through a match publishes entry, reveal and the
        # reveal-timeout outcome; multiinput adds the winner's compression
        entry, reveal, outcome_a, *_ = _kernel_bodies(
            master, dummy_digest, sha256(dummy_digest), t1, t2, pot, dummy_ref,
            OutputRef(b"\x22" * 32, 0),
            _payout(master, dummy_keys[0], last),
            _payout(master, dummy_keys[1], last),
        )
        per_match = (
            len(body_bytes(entry)) + len(body_bytes(reveal)) + len(body_bytes(outcome_a))
        ) + 3 * auth
        if mode == MODE_MULTIINPUT:
            # representative compression set: a right-side candidate has two
            # outcome outputs per kernel it appears in, the worst case
            members = [OutputRef(sha256(b"m%d" % i), 0) for i in range(2 * (1 << level))]
            comp = TransactionBody(
                inputs=(multi_input(members),),
                outputs=(TxOutput(pot, _payout(master, dummy_keys[0], final)),),
            )
            per_match += len(body_bytes(comp)) + auth
        worst_bytes += per_match * matches_at(n, level)

    return TransactionStats(
        total_offchain=total,
        per_level=per_level,
        kernel_bodies=kernel_bodies,
        compression_count=compression_count,
        deposit_count=deposit_count,
        on_chain_worst_case=on_chain_worst,
        bytes_on_chain=worst_bytes,
        materialized=_writable(n, mode),
    )


# verification


class Violation(NamedTuple):
    kernel: Optional[KernelId]
    rule: str
    detail: str


def verify_as_honest(t: Tournament) -> list[Violation]:
    """Rebuild the scaffold honestly from its public fields and diff.

    Everything except the secret preimages is public, so the verifier runs
    honest construction on the tournament's own parameters and the
    commitment digests it carries, then flags every divergence: rewired
    inputs, altered locktimes or predicates (a deposit's refund height
    included), pots or payout keys, and duplicated commitment digests (the
    replay defense). What the parameters fix (`level_stride`,
    `refund_time`, `stats`, and each kernel's players, heights and pot) is
    derived, not carried, so there is no copy of it to check: a kernel's
    t1 and t2 are in its bodies' locktimes and `AfterHeight` predicates,
    its pot in their output values and its payees in the `KeySign`
    payouts, all compared body by body, and t0 is in no body at all.
    A scaffold too large to write out is refused as it
    stands, before anything is rebuilt. An empty list means the scaffold
    is safe to sign, from every seat.
    """
    try:
        check_params(t.n, t.tau, t.t_commit, t.bet)
    except ConfigError as e:
        return [Violation(None, "BadParams", str(e))]
    problem = _param_problem(t.n, t.master_keys, t.funding, t.mode, t.deposit_option, t.mpc_digest)
    if problem:
        return [Violation(None, "BadParams", problem)]
    if not _writable(t.n, t.mode):
        return [Violation(None, "BadParams", f"{t.mode} scaffolds with n={t.n} are too large to verify")]

    def commits(kid: KernelId) -> tuple[bytes, bytes]:
        k = t.kernels.get(kid)
        # a missing kernel gets placeholders: it is reported before anything is compared
        return (k.left_commit, k.right_commit) if k else (bytes(32), bytes(32))

    h = _honest_scaffold(
        t.n, t.master_keys, t.funding, t.bet, t.tau, t.t_commit, t.mode, t.deposit_option,
        t.mpc_digest, commits, {},
    )
    v: list[Violation] = []
    if t.mpc_digest != h.mpc_digest:
        v.append(Violation(None, "BadDeposit", "atomic deposits take no joint mpc digest"))
    for kid in sorted(h.kernels.keys() - t.kernels.keys()):
        v.append(Violation(kid, "MissingKernel", "kernel absent from scaffold"))
    for kid in sorted(t.kernels.keys() - h.kernels.keys()):
        v.append(Violation(kid, "UnexpectedKernel", "kernel not part of the bracket"))
    if any(rule == "MissingKernel" for _, rule, _ in v):
        return v

    # commitment digests must be pairwise distinct across the whole tree
    seen: dict[bytes, tuple[KernelId, int]] = {}
    for kid in sorted(h.kernels):
        k = t.kernels[kid]
        for side, digest in ((SIDE_LEFT, k.left_commit), (SIDE_RIGHT, k.right_commit)):
            if digest in seen:
                other_kid, other_side = seen[digest]
                detail = f"side {side} repeats commitment of kernel {other_kid} side {other_side}"
                v.append(Violation(kid, "DuplicateCommitment", detail))
            else:
                seen[digest] = (kid, side)

    # The ceremony approves the digest registry, so it must be that of the
    # stored bodies, or signing would cover something other than what was checked.
    stored = {}
    signable = set()
    for item in iter_bodies(t):
        stored[(item.role, item.key)] = item.body
        if item.role != ROLE_DEPOSIT:
            signable.add(item.body.digests[1])
    if t.scaffold_digests != signable:
        detail = "the approved digests are not those of the kernel and compression bodies"
        v.append(Violation(None, "BadDigest", detail))
    for item in iter_bodies(h):
        body = stored.pop((item.role, item.key), None)
        if body != item.body:
            v.append(_body_divergence(item.role, item.key, body, item.body))
    for (role, key), body in stored.items():
        if not isinstance(key, KernelId):  # bodies of extra kernels are reported above
            v.append(_body_divergence(role, key, body, None))
    return v


def _body_divergence(
    role: str, key: object, stored: Optional[TransactionBody], rebuilt: Optional[TransactionBody]
) -> Violation:
    """Classify a body that differs from honest construction; None marks a side that lacks it."""
    kid = key if isinstance(key, KernelId) else None
    if role == ROLE_DEPOSIT:
        rule = "BadDeposit"
    elif role == ROLE_COMPRESSION:
        rule = "BadCompression"
    elif stored.inputs != rebuilt.inputs:
        rule = "BadWiring"
    elif stored.locktime != rebuilt.locktime:
        rule = "BadTimeout"
    else:
        rule = "BadScript"
    what = f"{role} transaction" if kid else f"{role} {key}"
    if stored is None:
        return Violation(kid, rule, f"{what} is missing")
    if rebuilt is None:
        return Violation(kid, rule, f"{what} is not part of honest construction")
    return Violation(kid, rule, f"{what} diverges from honest construction")


# signing ceremony


@dataclass
class SigningView:
    """What a party sees when asked to approve the whole scaffold or the deposit."""

    player: int
    tournament: Tournament


@dataclass
class CeremonyResult:
    aborted_by: Optional[int]
    bodies_signed: int

    @property
    def complete(self) -> bool:
        return self.aborted_by is None


def signing_ceremony(
    t: Tournament, deciders: Sequence, oracle: SignatureOracle
) -> CeremonyResult:
    """Each party is asked about the whole scaffold, then approves all of it at once.

    Every party is asked once (`at_signing`) with a view of the whole
    scaffold. A party may check it with `verify_as_honest`, but no
    catalogued strategy does: the runtime builds the scaffold honestly, so
    `honest` approves it as it stands. A single refusal aborts before any
    key signs anything, which has no on-chain effect because nothing
    spendable exists until the deposit is complete.
    Once all approve, each party's key approves every kernel and
    compression body in one act (`SignatureOracle.sign_all`): from then on
    its signature over a digest verifies if and only if the digest is in
    the tournament's registry `scaffold_digests`. The registry holds the
    bodies built so far and grows as play builds kernels, but only with
    bodies of the honest scaffold that was approved, and a body's inputs
    can be on chain only once play has built its kernel, so this is the
    same as approving the whole scaffold up front. The count of bodies
    signed comes from the closed form in `t.stats`. The atomic deposit is
    asked about (`at_deposit`) and signed last, so no player is ever
    exposed without a full scaffold; hashlocked deposits are authorized
    solo by their owners at submission time.
    """
    atomic = t.deposit_option == DEPOSIT_ATOMIC
    scaffold_bodies = t.stats.kernel_bodies + t.stats.compression_count
    total = scaffold_bodies + (1 if atomic else 0)
    views = [SigningView(player, t) for player in range(t.n)]
    for player, view in enumerate(views):
        if not deciders[player].at_signing(view):
            return CeremonyResult(aborted_by=player, bodies_signed=0)
    for player, key in enumerate(t.master_keys):
        oracle.sign_all(player, key, t.scaffold_digests)
    if atomic:
        for player, view in enumerate(views):
            if not deciders[player].at_deposit(view):
                return CeremonyResult(aborted_by=player, bodies_signed=scaffold_bodies)
        deposit_digest = sig_digest_for(t.deposit_bodies[0])
        for player, key in enumerate(t.master_keys):
            oracle.sign(player, key, deposit_digest)
    return CeremonyResult(aborted_by=None, bodies_signed=total)


# serialization


# v2 drops v1's `level_stride`, `refund_time` and `stats`, and v3 each
# kernel's players, heights and pot: the parameters fix them all
FORMAT_TAG = "tournament-scaffold-v3"

# a compression record is one ((level, match, candidate), body) item of `Tournament.compressions`
COMPRESSION_JSON = Record(
    {"level": int, "match": int, "candidate": int, "body": BODY_JSON},
    lambda level, match, candidate, body: ((level, match, candidate), body),
    lambda item: (*item[0], item[1]),
)


def _keyed(items, table: str, what: str) -> dict:
    """(key, entry) items as a dict; a key given twice is refused, naming the record that repeats it."""
    keyed = {}
    for i, (key, entry) in enumerate(items):
        if key in keyed:
            raise ValueError(f"{table}[{i}]: repeats {what} {tuple(key)}")
        keyed[key] = entry
    return keyed


def _tournament(_format, mode, n, bet, tau, t_commit, deposit_option, keys, funding, kernels, compressions,
                deposits, mpc_digest) -> Tournament:
    """A scaffold from its file record's values; the approved digests are those of the bodies read."""
    kernels = _keyed(((k.id, k) for k in kernels), KERNELS, "kernel")
    compressions = _keyed(compressions, COMPRESSIONS, "compression")
    bodies = [b for k in kernels.values() for b in k.bodies] + list(compressions.values())
    return Tournament(mode, n, bet, tau, t_commit, deposit_option, keys, funding, kernels, compressions,
                      deposits, mpc_digest, {b.digests[1] for b in bodies})


# the file: parameters, commitments and bodies; secrets are never written,
# nor anything the parameters fix, and `format` is checked before the rest is read
SCAFFOLD_JSON = Record(
    {
        "format": str,
        "mode": str, "n": int, "bet": int, "tau": int, "t_commit": int, "deposit_option": str,
        "master_keys": ListOf(bytes),
        "funding": ListOf(REF_JSON),
        "kernels": ListOf(KERNEL_JSON),
        "compressions": ListOf(COMPRESSION_JSON),
        "deposits": ListOf(BODY_JSON),
        "mpc_digest": Nullable(bytes),
    },
    _tournament,
    lambda t: (
        FORMAT_TAG, t.mode, t.n, t.bet, t.tau, t.t_commit, t.deposit_option, t.master_keys, t.funding,
        [t.kernels[kid] for kid in sorted(t.kernels)], sorted(t.compressions.items()), t.deposit_bodies,
        t.mpc_digest,
    ),
)


def dump_tournament(t: Tournament) -> str:
    return json.dumps(to_json(t, SCAFFOLD_JSON), indent=2, sort_keys=True) + "\n"


def load_tournament(text: str) -> Tournament:
    """Decode a scaffold file; malformed input, nesting too deep to decode included, raises ValueError."""
    try:
        doc = json.loads(text)
        if isinstance(doc, dict) and doc.get("format") != FORMAT_TAG:
            raise ValueError(f"not a scaffold file (format {doc.get('format')!r})")
        t = json_value(doc, SCAFFOLD_JSON, "scaffold")
    except RecursionError:
        raise ValueError("scaffold: nested too deeply to decode") from None
    if t.mode not in (MODE_PLAIN, MODE_MULTIINPUT):
        raise ValueError(f"mode: unknown mode {t.mode!r}")
    if t.deposit_option not in (DEPOSIT_ATOMIC, DEPOSIT_HASHLOCKED):
        raise ValueError(f"deposit_option: unknown deposit option {t.deposit_option!r}")
    return t


# DAG export


def export_dot(t: Tournament) -> str:
    """Graphviz rendering of the scaffold's spend graph."""
    lines = ["digraph scaffold {", "  rankdir=LR;", "  node [shape=box, fontsize=9];"]
    producer: dict[bytes, str] = {}
    for i, ref in enumerate(t.funding):
        name = f"funding_{i}"
        producer[ref.txid] = name
        lines.append(f'  {name} [label="funding P{i}", shape=ellipse];')
    nodes: list[tuple[str, str, TransactionBody]] = []  # name, label, body
    for i, body in enumerate(t.deposit_bodies):
        name = f"deposit_{i}" if len(t.deposit_bodies) > 1 else "deposit"
        nodes.append((name, name, body))
    for kid in sorted(t.kernels):
        base = f"k{kid.level}_{kid.match}_{kid.combo}"
        for role, body in zip(ROLE_KERNEL, t.kernels[kid].bodies):
            role = role.replace("-", "_")
            # outcome a waits for t2 and b for t1: exactly their locktimes
            label = f"{base}.{role}" + (f"\\nlock={body.locktime}" if body.locktime else "")
            nodes.append((f"{base}_{role}", label, body))
    for (level, match, cand), body in sorted(t.compressions.items()):
        nodes.append((f"c{level}_{match}_p{cand}", f"compress L{level} M{match} -> P{cand}", body))
    for name, label, body in nodes:
        producer[body.digests[0]] = name
        lines.append(f'  {name} [label="{label}"];')
    for target, _, body in nodes:
        for spec in body.inputs:
            fixed = isinstance(spec, FixedInput)
            for ref in (spec.ref,) if fixed else spec.refs:
                src = producer.get(ref.txid)
                if src:
                    style = "" if fixed else " [style=dashed]"
                    lines.append(f"  {src} -> {target}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"
