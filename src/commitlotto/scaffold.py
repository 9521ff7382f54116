"""Pre-signed transaction scaffold for the UTXO tournament backend.

A tournament over N = 2^L players is a binary bracket. Each match is played
by a family of five-transaction kernels: an entry that joins the two stakes,
a reveal that opens the left player's commitment, and three mutually
exclusive outcomes (left wins by reveal timeout, right wins by entry
timeout, right wins by revealing odd parity). `KERNEL` states that shape
once, one row per body: what it spends and through which branch, its lock,
the sides it opens, the side it pays and its offer priority. Construction
(`_kernel_bodies`), play (`utxo`) and the cost model (`scaffold_stats`)
read it, and `OUTCOMES` are its rows that pay. Because a match at level
l+1 must be wired to concrete child outputs, a kernel's combo names the
child result each of its two stakes comes from, one side choice per side,
left-major (`split_combo`). Plain mode needs one kernel per pair of child
(kernel, outcome) results, which squares per level:

    kernels(0) = 1,   kernels(l+1) = (len(OUTCOMES) * kernels(l)) ** 2

Multiinput mode collapses that blowup: per candidate winner of a match, one
compression transaction spends whichever outcome output actually paid that
candidate (a MultiInput set), so a side choice is a candidate of the child
match, and the next level only needs one kernel per pair of candidate
identities, 4^l per match.

Everything here is built unsigned, and NTXIDs never cover witness data.
No record takes an id: a compression is its body, and kernels and
deposits derive theirs from their bodies (`TransactionBody.digests`), so
none can disagree; a body's digests are computed from its bytes, or
filled by the kernel template that encoded them. Nor does a record hold
a fact its key and the parameters fix: a kernel is its id, its two
commitments and its five bodies, and its players, heights and pot are
`players_of` its id, `Tournament.schedule` of its level and
`(2 << level) * bet`. A kernel is a pure function of the public
parameters, its two commitments and its two stake refs, and a
compression of the outcome ntxids that pay its candidate, so
`Tournament.kernels` and `Tournament.compressions` build each entry the
first time it is read, with what it spends, and keep it (`LazyTable`).

A kernel's bytes come from its level's byte template
(`_kernel_template`), which `_kernel_bodies` and `body_bytes` make once
per parameter tuple: filled with the kernel's commitments, stakes and
payees, it gives each row's bytes and ntxid with one join and one hash a
row. So a compression reads the ids of the kernels it spends
(`Tournament.kernel_ids`) without building them, and a built kernel's
bodies carry the digests of the bytes the template encoded. A trial
builds only what play reaches: one kernel per match, and in multiinput
mode the compressions their stakes and winners name; reading every entry
builds the rest, with the same bytes. A scaffold file is therefore only
the parameters and the commitments, and reading one constructs a
`Tournament` from them as a build does: a scaffold has one constructor,
`Tournament` itself, however it was made. The signing ceremony approves
the honest scaffold as a whole: a key's approval is membership in the
tournament's registry of signature digests, which honest construction
fills as it builds bodies.

Each fact of the hashlocked deposits is stated once, here: the joint
preimage they lock on (`joint_preimage`), the height their refund branch
unlocks (`refund_time_for`), and the refunds that spend them
(`build_refunds`). When the preimage is released is play's decision.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .chain import (
    SIGMSG_TAG,
    BodyTemplate,
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
    check_params,
    json_value,
    level_schedule,
    level_stride,
    matches_at,
    num_levels,
    sha256,
    to_json,
    u32,
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
ROLE_COMPRESSION = "compression"
ROLE_REFUND = "refund"  # a hashlocked deposit's owner taking it back (`build_refunds`); never signed

SIDE_LEFT = 0
SIDE_RIGHT = 1

T1, T2 = 1, 2  # a lock: the index of the height it waits for in `Tournament.schedule`


class KernelRow(NamedTuple):
    """One body of a match kernel: a row of `KERNEL`."""

    role: str
    spends: Optional[int]  # the row whose output it spends; None: the two stakes
    branch: Optional[int]  # the AnyOf branch of that output it takes; None for the stakes
    lock: Optional[int]  # T1 or T2, its locktime; None: none
    opens: tuple[int, ...]  # the sides whose commitments its witness opens
    pays: Optional[int]  # the side it pays; None: later rows spend its output
    priority: int  # first key of play's offer order (priority, level, match, ntxid)


# a kernel's five transactions, in `Kernel.bodies` order: the one statement
# of their shape, which construction, play and the cost model read
KERNEL = (
    KernelRow(ROLE_ENTRY, None, None, None, (), None, 3),
    KernelRow(ROLE_REVEAL, 0, BRANCH_REVEAL, None, (SIDE_LEFT,), None, 4),
    KernelRow(ROLE_OUTCOME_A, 1, BRANCH_TIMEOUT, T2, (), SIDE_LEFT, 1),
    KernelRow(ROLE_OUTCOME_B, 0, BRANCH_TIMEOUT, T1, (), SIDE_RIGHT, 1),
    KernelRow(ROLE_OUTCOME_BP, 1, BRANCH_REVEAL, None, (SIDE_LEFT, SIDE_RIGHT), SIDE_RIGHT, 5),
)
OUTCOMES = tuple(i for i, row in enumerate(KERNEL) if row.pays is not None)  # the rows that pay, by place
# per row, the rows that spend its output, in its predicate's branch order
_SPENDERS = tuple(
    tuple(sorted((r for r in KERNEL if r.spends == i), key=lambda r: r.branch)) for i in range(len(KERNEL))
)
# per side, the rows that pay it
_PAYING = tuple(tuple(i for i in OUTCOMES if KERNEL[i].pays == side) for side in (SIDE_LEFT, SIDE_RIGHT))


class IndexOutOfRange(IndexError):
    pass


class KernelId(NamedTuple):
    level: int
    match: int
    combo: int


def side_choices(level: int, mode: str = MODE_PLAIN) -> int:
    """The child results one side of a kernel at a level can be wired to.

    At level 0 there is one: the deposit output. Above it, plain, choice c
    is outcome c % len(OUTCOMES) of child kernel c // len(OUTCOMES), one per
    outcome of each child kernel; multiinput, choice c is the child match's
    c-th candidate winner, of 2^l.
    """
    if level < 0:
        raise IndexOutOfRange("level must be >= 0")
    if level == 0:
        return 1
    if mode == MODE_MULTIINPUT:
        return 1 << level
    return len(OUTCOMES) * kernel_count(level - 1)


def kernel_count(level: int, mode: str = MODE_PLAIN) -> int:
    """Kernels needed per match at a level: one per pair of side choices.

    Plain mode follows the squaring recurrence (closed form 9^(2^l - 1)).
    Multiinput mode needs one kernel per pair of candidate winners, 4^l.
    """
    return side_choices(level, mode) ** 2


def split_combo(level: int, combo: int, mode: str = MODE_PLAIN) -> tuple[int, int]:
    """A combination index -> its (left, right) side choices; combos enumerate them left-major."""
    choices = side_choices(level, mode)
    if not (0 <= combo < choices * choices):
        raise IndexOutOfRange(f"combo {combo} out of range for level {level}")
    return divmod(combo, choices)


def join_combo(level: int, left: int, right: int, mode: str = MODE_PLAIN) -> int:
    """Inverse of `split_combo`: (left, right) side choices -> combination index."""
    choices = side_choices(level, mode)
    if not (0 <= left < choices and 0 <= right < choices):
        raise IndexOutOfRange(f"side choices ({left}, {right}) out of range for level {level}")
    return left * choices + right


def winner_side(tx_index: int) -> int:
    """Which side a kernel outcome pays, by its index in `OUTCOMES`."""
    if not 0 <= tx_index < len(OUTCOMES):
        raise IndexOutOfRange(f"outcome index {tx_index} out of range")
    return KERNEL[OUTCOMES[tx_index]].pays


def players_of(n: int, level: int, match: int, combo: int, mode: str = MODE_PLAIN) -> tuple[int, int]:
    """Left and right player identity of a kernel, by pure index arithmetic:
    at level 0 the bracket's seeding, above it the winner each side choice names."""
    levels = num_levels(n)
    if not (0 <= level < levels):
        raise IndexOutOfRange(f"level {level} out of range")
    if not (0 <= match < matches_at(n, level)):
        raise IndexOutOfRange(f"match {match} out of range at level {level}")
    left, right = split_combo(level, combo, mode)
    if level == 0:
        return 2 * match, 2 * match + 1
    if mode == MODE_MULTIINPUT:  # a child match's candidates are 2^l consecutive players
        return ((2 * match) << level) + left, ((2 * match + 1) << level) + right
    (lk, lt), (rk, rt) = divmod(left, len(OUTCOMES)), divmod(right, len(OUTCOMES))
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
    its (left, right) commitment digests and its bodies, one per `KERNEL`
    row, in that order, so row i's body is `bodies[i]` and outcome o's id
    `ntxids[OUTCOMES[o]]`. Its ids are not arguments: they are derived from
    its bodies, also by `dataclasses.replace`. What the id fixes is not
    held: the players are `players_of` the id, the heights the level's
    `Tournament.schedule`, and t1, t2 and the pot are in the bodies'
    locktimes, predicates and output values."""

    id: KernelId
    commits: tuple[bytes, bytes]
    bodies: tuple[TransactionBody, ...]
    ntxids: tuple[bytes, ...] = field(init=False)

    def __post_init__(self):
        # the dataclass is frozen, so the ids go straight into its dict
        vars(self)["ntxids"] = tuple([b.digests[0] for b in self.bodies])


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


class LazyTable(Mapping):
    """A view of the kernels or the compressions of a `Tournament`.

    Its keys are those the parameters fix, in bracket order, known without
    building anything: per match of the bracket, the indexes
    `per_match(level, match)` gives, each made a key by `key`. Reading an
    entry builds it with `build`, with the entries it spends, and keeps it
    in `memo`, the tournament's; nothing writes to the table. The view is
    made afresh on each read of `Tournament.kernels` or `.compressions` and
    the tournament never holds it, so nothing the tournament stores refers
    back to it, and a deep copy builds into its own memos and registries.
    """

    __slots__ = ("_n", "_per_match", "_build", "_key", "_memo")

    def __init__(self, n: int, per_match: Callable, build: Callable, key: Callable, memo: dict):
        self._n, self._per_match, self._build, self._key, self._memo = n, per_match, build, key, memo

    def __getitem__(self, key):
        entry = self._memo.get(key)
        if entry is None:
            if key not in self:
                raise KeyError(key)
            key = self._key(key)
            entry = self._memo[key] = self._build(key)
        return entry

    def __contains__(self, key) -> bool:
        level, match, index = key
        # the levels are taken only when a key is asked about, so that a file
        # whose player count no bracket has still loads, for `verify_as_honest`
        if not (0 <= level < num_levels(self._n) and 0 <= match < matches_at(self._n, level)):
            return False
        return index in self._per_match(level, match)

    def __iter__(self) -> Iterator:
        for level in range(num_levels(self._n)):
            for match in range(matches_at(self._n, level)):
                for index in self._per_match(level, match):
                    yield self._key((level, match, index))

    def __len__(self) -> int:
        return sum(1 for _ in self)


@dataclass(frozen=True)
class Tournament:
    """A scaffold: public parameters, commitments and the bodies they fix.

    It is its own constructor, whether for a build or from a file: the
    arguments are the parameters, `commitments` and `secrets`, and the
    rest is derived from them. `__post_init__` builds the deposits; the
    kernels and compressions are built on first read (`LazyTable`), with
    what they spend, and kept in a memo per table. `commitments` holds
    each kernel's (left, right) digests: a file's records, or in a build
    pairs over fresh secrets, drawn when first read. The registries
    `scaffold_digests` and `secrets` hold what the built bodies and drawn
    commitments contribute, so they grow with the tables. No id is an
    argument: `deposit_ntxids` is derived from `deposit_bodies`, a kernel's
    ids are its level's template filled with its wiring (`kernel_ids`,
    kept for built and unbuilt kernels alike, and the digests its bodies
    carry), and a compression is its body. Nor is any fact
    that the parameters fix: `level_stride`, `refund_time`, `stats` and
    `schedule`, and a kernel's players and pot, are derived from them when
    read, so none is stored, written to a file or checked by
    `verify_as_honest`. The deposits need the mode, deposit option and
    joint digest, so construction refuses those (ValueError, naming the
    field); only a kernel or compression read needs the player count, so
    other parameters construction cannot run on still make a tournament,
    for `verify_as_honest` to refuse.
    """

    mode: str
    n: int
    bet: int
    tau: int
    t_commit: int
    deposit_option: str
    master_keys: tuple[bytes, ...]
    funding: tuple[OutputRef, ...]
    commitments: Mapping[KernelId, tuple[bytes, bytes]] = field(repr=False)
    mpc_digest: Optional[bytes]
    secrets: dict[tuple[KernelId, int], bytes] = field(default_factory=dict, repr=False)
    # derived, never arguments
    master: Predicate = field(init=False, repr=False, compare=False)
    deposit_bodies: tuple[TransactionBody, ...] = field(init=False, repr=False, compare=False)
    deposit_ntxids: tuple[bytes, ...] = field(init=False, repr=False, compare=False)
    # signature digests of the built kernel and compression bodies: what the ceremony approves
    scaffold_digests: set[bytes] = field(init=False, repr=False, compare=False)
    _kernel_memo: dict = field(init=False, repr=False, compare=False)
    _compression_memo: dict = field(init=False, repr=False, compare=False)
    _ids_memo: dict = field(init=False, repr=False, compare=False)  # `kernel_ids`, built or not

    def __post_init__(self):
        # the deposits cannot be built without these, so they are checked here, once
        if self.mode not in (MODE_PLAIN, MODE_MULTIINPUT):
            raise ValueError(f"mode: unknown mode {self.mode!r}")
        if self.deposit_option not in (DEPOSIT_ATOMIC, DEPOSIT_HASHLOCKED):
            raise ValueError(f"deposit_option: unknown deposit option {self.deposit_option!r}")
        if self.deposit_option == DEPOSIT_HASHLOCKED and self.mpc_digest is None:
            raise ValueError("mpc_digest: hashlocked deposits need the joint mpc digest")
        master = AllSign(self.master_keys)
        if self.deposit_option == DEPOSIT_ATOMIC:
            deposits = (build_deposit_atomic(self.funding, self.bet, master),)
        else:
            deposits = build_deposit_hashlocked(
                self.funding, self.bet, master, self.master_keys, self.mpc_digest,
                refund_time_for(self.t_commit),
            )
        # the dataclass is frozen, so what is derived goes straight into its
        # dict; the ids are kept, not a property, because play reads them many
        # times per trial
        vars(self).update(
            master=master, deposit_bodies=deposits, deposit_ntxids=tuple(b.digests[0] for b in deposits),
            scaffold_digests=set(), _kernel_memo={}, _compression_memo={}, _ids_memo={},
        )

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

    @property
    def kernels(self) -> LazyTable:
        return LazyTable(self.n, self._combos, self._kernel, KernelId._make, self._kernel_memo)

    @property
    def compressions(self) -> LazyTable:
        """Keyed (level, match, candidate); plain mode has none."""
        return LazyTable(self.n, self._candidates, self._compression, tuple, self._compression_memo)

    def schedule(self, level: int) -> tuple[int, int, int]:
        return level_schedule(self.t_commit, self.level_stride, self.tau, level)

    def kernel(self, level: int, match: int, combo: int) -> Kernel:
        return self.kernels[KernelId(level, match, combo)]

    def secret(self, kid: KernelId, side: int) -> bytes:
        return self.secrets[(kid, side)]

    def _combos(self, level: int, match: int) -> range:
        return range(kernel_count(level, self.mode))

    def _candidates(self, level: int, match: int) -> range:
        width = 1 << (level + 1) if self.mode == MODE_MULTIINPUT else 0
        return range(match * width, (match + 1) * width)

    def _stake_ref(self, kid: KernelId, side: int) -> OutputRef:
        """Where the stake on one side of kernel `kid` lives: the child result
        its side choice names. At level 0, the deposit output of that side's
        player; above, plain, the child kernel's outcome, and multiinput, the
        child compression paying the candidate."""
        level, match, combo = kid
        choice = split_combo(level, combo, self.mode)[side]
        child_match = 2 * match + side  # at level 0, the side's player
        if level == 0:
            if self.deposit_option == DEPOSIT_ATOMIC:
                return OutputRef(self.deposit_ntxids[0], child_match)
            return OutputRef(self.deposit_ntxids[child_match], 0)
        if self.mode == MODE_PLAIN:
            child_kernel, outcome = divmod(choice, len(OUTCOMES))
            ntxids = self.kernel_ids(KernelId(level - 1, child_match, child_kernel))
            return OutputRef(ntxids[OUTCOMES[outcome]], 0)
        candidate = (child_match << level) + choice
        return OutputRef(self.compressions[(level - 1, child_match, candidate)].digests[0], 0)

    def kernel_ids(self, kid: KernelId) -> tuple[bytes, ...]:
        """A kernel's ntxids, one per `KERNEL` row, read without building
        it, and kept: the ids its bodies carry once built."""
        ids = self._ids_memo.get(kid)
        if ids is None:
            filled = self._encode(kid)[1]
            ids = self._ids_memo[kid] = tuple(filled[1]) if filled else self.kernels[kid].ntxids
        return ids

    def _encode(self, kid: KernelId) -> tuple[tuple, Optional[tuple[list[bytes], list[bytes]]]]:
        """The arguments `_kernel_bodies` builds a kernel from, and its
        level's template filled with them: each row's bytes and ntxid, or
        None for a value of another length than its hole's (a file's odd
        key or commitment), whose kernel is encoded only by building it."""
        level, payees = kid.level, ()
        if level == self.levels - 1 and self.mode == MODE_PLAIN:  # multiinput pays out in the compression
            payees = tuple(self.master_keys[p] for p in players_of(self.n, *kid, self.mode))
        stakes = (self._stake_ref(kid, SIDE_LEFT), self._stake_ref(kid, SIDE_RIGHT))
        pot = (1 << (level + 1)) * self.bet
        args = (self.master, self.commitments[kid], self.schedule(level), pot, stakes, payees)
        return args, _kernel_template(self.n, *args[2:4], bool(payees)).fill(_hole_values(*args))

    def _kernel(self, kid: KernelId) -> Kernel:
        args, encoded = self._encode(kid)
        bodies = _kernel_bodies(*args, encoded)
        kernel = Kernel(kid, self.commitments[kid], bodies)
        self._ids_memo[kid] = kernel.ntxids
        self.scaffold_digests.update(b.digests[1] for b in bodies)
        return kernel

    def _compression(self, key: tuple[int, int, int]) -> TransactionBody:
        """The multiinput compression paying a candidate: it spends every
        outcome output of its match that pays the candidate, so it reads
        the ids of the kernels that do, and builds none of them."""
        level, match, cand = key
        # the candidate's side of the match and its side choice there
        choices = side_choices(level, self.mode)
        side, choice = divmod(cand - (match << (level + 1)), choices)
        members = []
        # it wins by the rows paying its side, of each kernel its choice plays in
        for other in range(choices):
            pair = (choice, other) if side == SIDE_LEFT else (other, choice)
            ntxids = self.kernel_ids(KernelId(level, match, join_combo(level, *pair, self.mode)))
            members.extend([OutputRef(ntxids[row], 0) for row in _PAYING[side]])
        pot = (1 << (level + 1)) * self.bet
        body = TransactionBody(
            inputs=(multi_input(members),),
            outputs=(TxOutput(pot, _payout(self.master, self.master_keys[cand], level == self.levels - 1)),),
        )
        self.scaffold_digests.add(body.digests[1])
        return body


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
    commits: tuple[bytes, bytes],
    schedule: tuple[int, int, int],
    pot: int,
    stakes: tuple[OutputRef, OutputRef],
    payees: tuple[bytes, ...],
    encoded: Optional[tuple[list[bytes], list[bytes]]] = None,
) -> tuple[TransactionBody, ...]:
    """A kernel's bodies, one per `KERNEL` row, from its (left, right)
    commitments, stakes and payee keys and its level's schedule (t0, t1,
    t2); with no payee keys, `master` keeps the pot.

    A row that pays a side locks the pot to that side's payee. Any other
    carries it on under `master`, with one branch per row that spends it:
    a reveal branch opens the spender's sides, and tests odd parity when it
    opens both; a timeout branch waits for the spender's lock. Given each
    row's bytes and ntxid as its template `encoded` them, each body carries
    their digests from construction, and none is encoded again.
    """
    opened = (HashPreimage(commits[SIDE_LEFT], SLOT_LEFT), HashPreimage(commits[SIDE_RIGHT], SLOT_RIGHT))
    pays = tuple(map(KeySign, payees)) or (master, master)
    bodies: list[TransactionBody] = []
    digests = None if encoded is None else zip(encoded[1], [sha256(SIGMSG_TAG + data) for data in encoded[0]])
    for row, spenders in zip(KERNEL, _SPENDERS):
        if row.spends is None:
            inputs = (FixedInput(stakes[SIDE_LEFT]), FixedInput(stakes[SIDE_RIGHT]))
        else:
            inputs = (FixedInput(OutputRef(bodies[row.spends].digests[0], 0)),)
        if row.pays is None:
            pay = AnyOf(tuple([AllOf(_branch(s, master, opened, schedule)) for s in spenders]))
        else:
            pay = pays[row.pays]
        bodies.append(TransactionBody(inputs, (TxOutput(pot, pay),), schedule[row.lock] if row.lock else 0))
        if digests is not None:
            # a body is immutable, so its digests go straight into its dict
            vars(bodies[-1])["digests"] = next(digests)
    return tuple(bodies)


_PARITY = XorParityOdd(SLOT_LEFT, SLOT_RIGHT)


def _branch(spender: KernelRow, master: Predicate, opened: tuple, schedule: tuple[int, int, int]) -> tuple:
    """The terms of the branch `spender` takes, given each side's preimage term."""
    if spender.branch == BRANCH_TIMEOUT:
        return (master, AfterHeight(schedule[spender.lock]))
    terms = (master, *[opened[side] for side in spender.opens])
    return terms + (_PARITY,) if len(spender.opens) == len(opened) else terms


def _hole_values(
    master: AllSign,
    commits: tuple[bytes, bytes],
    schedule: tuple[int, int, int],
    pot: int,
    stakes: tuple[OutputRef, OutputRef],
    payees: tuple[bytes, ...],
) -> list[bytes]:
    """The holes in the template of the kernel `_kernel_bodies` builds from
    these arguments: each stake's txid and index, each commitment, the
    master's encoding and each payee key, or none."""
    left, right = stakes
    payees = payees or (b"", b"")
    return [left.txid + u32(left.index), right.txid + u32(right.index), *commits, master.encoded, *payees]


@functools.cache
def _kernel_template(n: int, schedule: tuple[int, int, int], pot: int, final: bool) -> BodyTemplate:
    """The byte template of a kernel of n players at a level with this
    schedule and pot, paying payee keys at plain mode's final level.

    `_kernel_bodies` builds its probes, so no second byte layout is
    written. The master's keys are a hole, so the template depends only on
    the parameters and is made once per process.
    """

    def probe(tag: bytes) -> tuple[list[bytes], tuple[TransactionBody, ...]]:
        sentinel = lambda what: sha256(b"kernel-template/%s/%s" % (tag, what))
        args = (
            AllSign((sentinel(b"master"),) * n),  # a hole as a whole, so one key will do
            (sentinel(b"commit-left"), sentinel(b"commit-right")),
            schedule,
            pot,
            (OutputRef(sentinel(b"stake-left"), 0), OutputRef(sentinel(b"stake-right"), 1)),
            (sentinel(b"payee-left"), sentinel(b"payee-right")) if final else (),
        )
        return _hole_values(*args), _kernel_bodies(*args)

    return BodyTemplate.derive(probe)


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


def _param_problem(n: int, keys: Sequence[bytes], funding: Sequence[OutputRef]) -> Optional[str]:
    """Why honest construction cannot run on these keys and funding outputs,
    or None; `check_params` has passed, and `Tournament` checks the rest."""
    if len(keys) != n or len(set(keys)) != n:
        return "need one distinct key per player"
    if len(funding) != n or len(set(funding)) != n:
        return "need one distinct funding output per player"
    if any(len(ref.txid) != HASH_BYTES for ref in funding):
        # `body_bytes` writes a txid with no length prefix
        return f"every funding txid must be {HASH_BYTES} bytes"
    if any(not 0 <= ref.index < 1 << 32 for ref in funding):
        # `body_bytes` writes an index as an unsigned 32-bit integer
        return "every funding output index must be in 0..2**32-1"
    return None


class _FreshSecrets(dict):
    """A build's commitments: each kernel's (left, right) digests over fresh
    secrets, drawn by the kernel's label from `source` the first time they
    are read and kept, the secrets in `secrets`."""

    def __init__(self, source: Rng):
        super().__init__()
        self.source = source
        self.secrets: dict[tuple[KernelId, int], bytes] = {}

    def __missing__(self, kid: KernelId) -> tuple[bytes, bytes]:
        label = f"{kid.level}.{kid.match}.{kid.combo}"
        left = self.secrets[(kid, SIDE_LEFT)] = self.source.child(f"{label}.L").nonzero_bytes(32)
        right = self.secrets[(kid, SIDE_RIGHT)] = self.source.child(f"{label}.R").nonzero_bytes(32)
        pair = self[kid] = (commitment(left), commitment(right))
        return pair


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
    kernel's label, when the kernel is built or its commitments are read;
    their commitment digests are baked into the spending predicates. The
    returned object carries the secrets for simulation purposes; exports
    strip them. Its schedule stride, refund height and stats follow from
    the parameters (`Tournament`). An atomic deposit takes no joint digest,
    so one given with it is dropped.
    """
    check_params(n, tau, t_commit, bet)
    problem = _param_problem(n, player_keys, funding)
    if problem:
        raise ValueError(problem)
    if deposit_option == DEPOSIT_ATOMIC:
        mpc_digest = None
    fresh = _FreshSecrets(secret_source.child("kernel-secrets"))
    return Tournament(
        mode, n, bet, tau, t_commit, deposit_option, tuple(player_keys), tuple(funding), fresh, mpc_digest,
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
        matches_at(n, level) * kernel_count(level, mode) * len(KERNEL) for level in range(levels)
    )
    kernel_bodies = sum(per_level)
    compression_count = n * levels if mode == MODE_MULTIINPUT else 0
    deposit_count = 1 if deposit_option == DEPOSIT_ATOMIC else n
    total = kernel_bodies + compression_count + deposit_count
    # the slowest path through a match publishes the outcome that waits
    # longest and the rows it spends; multiinput adds the winner's compression
    path, i = [], max(OUTCOMES, key=lambda i: KERNEL[i].lock or 0)
    while i is not None:
        path.append(i)
        i = KERNEL[i].spends
    txs_per_match = len(path) + (mode == MODE_MULTIINPUT)
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
        pot = (1 << (level + 1)) * bet
        final = level == levels - 1
        last = final and mode == MODE_PLAIN
        bodies = _kernel_bodies(
            master, (dummy_digest, sha256(dummy_digest)), level_schedule(t_commit, stride, tau, level), pot,
            (dummy_ref, OutputRef(b"\x22" * 32, 0)), dummy_keys[:2] if last else (),
        )
        per_match = sum(len(body_bytes(bodies[row])) for row in path) + len(path) * auth
        if mode == MODE_MULTIINPUT:
            # representative compression set: the side paid by the most
            # outcomes has that many outcome outputs per kernel it appears in,
            # the worst case
            paying = max(len(outcomes) for outcomes in _PAYING)
            members = [OutputRef(sha256(b"m%d" % i), 0) for i in range(paying << level)]
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
    """Check what honest construction cannot fix by itself: its inputs.

    Every body is a function of the public parameters and of the two
    commitment digests of its kernel, and a scaffold, built or read from a
    file, has only the bodies its `Tournament` builds from those, the
    deposits on construction and the rest when first read. So no body is
    compared; a signer approves digests its own construction registered.
    What is checked: parameters construction can run on (`check_params`
    and `_param_problem`), and a scaffold small enough to write out; that
    an atomic deposit carries no joint digest; one commitment record per
    kernel of the bracket; and commitment digests pairwise distinct across
    the tree (the replay defense). No kernel or compression is built, and
    bad parameters are refused before anything else is read. An empty list
    means the scaffold is safe to sign, from every seat.
    """
    try:
        check_params(t.n, t.tau, t.t_commit, t.bet)
    except ConfigError as e:
        return [Violation(None, "BadParams", str(e))]
    problem = _param_problem(t.n, t.master_keys, t.funding)
    if problem:
        return [Violation(None, "BadParams", problem)]
    if not _writable(t.n, t.mode):
        return [Violation(None, "BadParams", f"{t.mode} scaffolds with n={t.n} are too large to verify")]

    v: list[Violation] = []
    if t.deposit_option == DEPOSIT_ATOMIC and t.mpc_digest is not None:
        v.append(Violation(None, "BadDeposit", "atomic deposits take no joint mpc digest"))
    pairs: dict[KernelId, tuple[bytes, bytes]] = {}
    for kid in t.kernels:  # the bracket's kernel ids, in order
        try:
            pairs[kid] = t.commitments[kid]  # a build draws the pair here
        except KeyError:
            v.append(Violation(kid, "MissingKernel", "kernel absent from scaffold"))
    for kid in sorted(t.commitments.keys() - pairs.keys()):
        v.append(Violation(kid, "UnexpectedKernel", "kernel not part of the bracket"))

    seen: dict[bytes, tuple[KernelId, int]] = {}
    for kid, sides in pairs.items():
        for side, digest in enumerate(sides):
            if digest in seen:
                other_kid, other_side = seen[digest]
                detail = f"side {side} repeats commitment of kernel {tuple(other_kid)} side {other_side}"
                v.append(Violation(kid, "DuplicateCommitment", detail))
            else:
                seen[digest] = (kid, side)
    return v


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
    bodies honest construction built from the approved parameters and
    commitments, whether the scaffold was built or read from a file, and
    a body's inputs can be on chain only once play has built its kernel,
    so this is the same as approving the whole scaffold up front. The
    count of bodies signed comes from the closed form in `t.stats`. The
    atomic deposit is asked about (`at_deposit`) and signed last, so no
    player is ever exposed without a full scaffold; hashlocked deposits
    are authorized solo by their owners at submission time.
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


# v2 drops v1's `level_stride`, `refund_time` and `stats`, v3 each
# kernel's players, heights and pot, and v4 every body: the parameters and
# commitments fix them all
FORMAT_TAG = "tournament-scaffold-v4"

# a kernel record is one (id, (left, right)) item of `Tournament.commitments`
KERNEL_JSON = Record(
    {"level": int, "match": int, "combo": int, "left_commit": bytes, "right_commit": bytes},
    lambda level, match, combo, *pair: (KernelId(level, match, combo), pair),
    lambda item: (*item[0], *item[1]),
)


def _keyed(items, table: str, what: str) -> dict:
    """(key, entry) items as a dict; a key given twice is refused, naming the record that repeats it."""
    keyed = {}
    for i, (key, entry) in enumerate(items):
        if key in keyed:
            raise ValueError(f"{table}[{i}]: repeats {what} {tuple(key)}")
        keyed[key] = entry
    return keyed


# the file: parameters and commitments; secrets are never written, nor
# anything they fix, and `format` is checked before the rest is read
SCAFFOLD_JSON = Record(
    {
        "format": str,
        "mode": str, "n": int, "bet": int, "tau": int, "t_commit": int, "deposit_option": str,
        "master_keys": ListOf(bytes),
        "funding": ListOf(REF_JSON),
        "kernels": ListOf(KERNEL_JSON),
        "mpc_digest": Nullable(bytes),
    },
    lambda *values: values,
    lambda t: (
        FORMAT_TAG, t.mode, t.n, t.bet, t.tau, t.t_commit, t.deposit_option, t.master_keys, t.funding,
        [(kid, t.commitments[kid]) for kid in t.kernels], t.mpc_digest,
    ),
)


def dump_tournament(t: Tournament) -> str:
    return json.dumps(to_json(t, SCAFFOLD_JSON), indent=2, sort_keys=True) + "\n"


def load_tournament(text: str) -> Tournament:
    """The `Tournament` of a file's parameters and commitments: the
    object `build_tournament` makes, constructed the same way, with no
    secrets.

    Malformed input, nesting too deep to decode included, raises
    ValueError, as do the mode, deposit option and joint digest
    `Tournament` refuses. Other parameters construction cannot run on
    still load, for `verify_as_honest` to refuse before anything is built.
    """
    try:
        doc = json.loads(text)
        if isinstance(doc, dict) and doc.get("format") != FORMAT_TAG:
            raise ValueError(f"not a scaffold file (format {doc.get('format')!r})")
        _, mode, n, bet, tau, t_commit, deposit_option, keys, funding, records, mpc_digest = json_value(
            doc, SCAFFOLD_JSON, "scaffold"
        )
    except RecursionError:
        raise ValueError("scaffold: nested too deeply to decode") from None
    commits = _keyed(records, "kernels", "kernel")
    return Tournament(mode, n, bet, tau, t_commit, deposit_option, keys, funding, commits, mpc_digest)


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
        for row, body in zip(KERNEL, t.kernels[kid].bodies):
            role = row.role.replace("-", "_")
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
