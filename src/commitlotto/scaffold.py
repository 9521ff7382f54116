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

Everything here is built unsigned. NTXIDs never cover witness data, so the
whole tree is wired before the signing ceremony runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .chain import (
    ChainParams,
    FixedInput,
    MultiInput,
    TransactionBody,
    TxOutput,
    body_bytes,
    body_digests,
    compute_ntxid,
    multi_input,
)
from .primitives import SIG_LAMBDA, OutputRef, Rng, sha256
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
    predicate_from_json,
    predicate_to_json,
)

MODE_PLAIN = "plain"
MODE_MULTIINPUT = "multiinput"

DEPOSIT_ATOMIC = "atomic"
DEPOSIT_HASHLOCKED = "hashlocked"

SLOT_LEFT = "left"
SLOT_RIGHT = "right"
SLOT_MPC = "mpc"

# AnyOf branch indexes shared by all kernel and deposit predicates
BRANCH_REVEAL = 0
BRANCH_TIMEOUT = 1
BRANCH_DEPOSIT_SPEND = 0
BRANCH_DEPOSIT_REFUND = 1

ROLE_ENTRY = "entry"
ROLE_REVEAL = "reveal"
ROLE_OUTCOMES = ("outcome-a", "outcome-b", "outcome-bp")
ROLE_COMPRESSION = "compression"
ROLE_DEPOSIT = "deposit"

SIDE_LEFT = 0
SIDE_RIGHT = 1


class NotPowerOfTwo(ValueError):
    pass


class IndexOutOfRange(IndexError):
    pass


class MpcIncomplete(Exception):
    pass


class KernelId(NamedTuple):
    level: int
    match: int
    combo: int


def num_levels(n: int) -> int:
    if n < 2 or n & (n - 1):
        raise NotPowerOfTwo(f"player count {n} is not a power of two >= 2")
    return n.bit_length() - 1


def matches_at(n: int, level: int) -> int:
    return n >> (level + 1)


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


def kernel_count_geometric(level: int) -> int:
    """The tempting per-level closed form 9^l.

    It matches the squaring recurrence only for levels 0 and 1; from level 2
    on it undercounts (729 vs 81 at level 2) because each parent kernel must
    name a concrete child kernel, not just a child outcome class. Exposed so
    the discrepancy stays documented by tests.
    """
    return 9**level


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


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


class IdealMpcOracle:
    """Ideal multiparty computation of hash(x1 xor ... xor xN).

    Parties contribute private inputs; the oracle publishes only the digest.
    The combined preimage is available once every input arrived, modelling
    the fact that no strict subset of parties can learn it early.
    """

    def __init__(self, n: int):
        self.n = n
        self._inputs: dict[int, bytes] = {}

    def collect(self, player: int, secret: bytes) -> None:
        if len(secret) != 32 or not any(secret):
            raise ValueError("mpc inputs are nonzero 32-byte strings")
        self._inputs[player] = secret

    @property
    def complete(self) -> bool:
        return len(self._inputs) == self.n

    def combined(self) -> bytes:
        if not self.complete:
            raise MpcIncomplete(f"{len(self._inputs)}/{self.n} inputs collected")
        acc = b"\x00" * 32
        for player in sorted(self._inputs):
            acc = _xor(acc, self._inputs[player])
        return acc

    def digest(self) -> bytes:
        return sha256(self.combined())


@dataclass
class Kernel:
    """One five-transaction match kernel, fully wired and unsigned."""

    id: KernelId
    left_player: int
    right_player: int
    left_commit: bytes
    right_commit: bytes
    t0: int
    t1: int
    t2: int
    pot: int
    entry_tx: TransactionBody
    reveal_tx: TransactionBody
    outcome_txs: tuple[TransactionBody, TransactionBody, TransactionBody]
    entry_ntxid: bytes = b""
    reveal_ntxid: bytes = b""
    outcome_ntxids: tuple[bytes, bytes, bytes] = (b"", b"", b"")


class CompressionTx(NamedTuple):
    level: int
    match: int
    candidate: int
    body: TransactionBody
    ntxid: bytes


@dataclass
class TransactionStats:
    total_offchain: int
    per_level: tuple[int, ...]
    kernel_bodies: int
    compression_count: int
    deposit_count: int
    on_chain_worst_case: int
    bytes_on_chain: int
    materialized: bool

    def to_json(self) -> dict:
        return {
            "total_offchain": self.total_offchain,
            "per_level": list(self.per_level),
            "kernel_bodies": self.kernel_bodies,
            "compression_count": self.compression_count,
            "deposit_count": self.deposit_count,
            "on_chain_worst_case": self.on_chain_worst_case,
            "bytes_on_chain": self.bytes_on_chain,
            "materialized": self.materialized,
        }


@dataclass
class Tournament:
    """A built scaffold. Treat as immutable once constructed."""

    mode: str
    n: int
    bet: int
    tau: int
    t_commit: int
    level_stride: int
    deposit_option: str
    master_keys: tuple[bytes, ...]
    funding: tuple[OutputRef, ...]
    kernels: dict[KernelId, Kernel]
    compressions: dict[tuple[int, int, int], CompressionTx]
    deposit_bodies: tuple[TransactionBody, ...]
    deposit_ntxids: tuple[bytes, ...]
    refund_time: Optional[int]
    mpc_digest: Optional[bytes]
    stats: TransactionStats
    # ntxid -> signature digest of every body, filled in the pass that computes the ntxids
    sig_digests: dict[bytes, bytes] = field(repr=False)
    secrets: dict[tuple[KernelId, int], bytes] = field(default_factory=dict, repr=False)

    @property
    def levels(self) -> int:
        return num_levels(self.n)

    def schedule(self, level: int) -> tuple[int, int, int]:
        t0 = self.t_commit + self.level_stride * level
        return t0, t0 + self.tau, t0 + 2 * self.tau

    def final_level(self) -> int:
        return self.levels - 1

    def kernel(self, level: int, match: int, combo: int) -> Kernel:
        return self.kernels[KernelId(level, match, combo)]

    def secret(self, kid: KernelId, side: int) -> bytes:
        return self.secrets[(kid, side)]


class ScaffoldTx(NamedTuple):
    """A body in canonical signing/export order."""

    role: str
    key: object  # KernelId, (level, match, candidate) or deposit index
    body: TransactionBody
    ntxid: bytes


def iter_bodies(t: Tournament, include_deposits: bool = True) -> list[ScaffoldTx]:
    """All scaffold bodies in deterministic order; deposits come last."""
    out: list[ScaffoldTx] = []
    for kid in sorted(t.kernels):
        k = t.kernels[kid]
        out.append(ScaffoldTx(ROLE_ENTRY, kid, k.entry_tx, k.entry_ntxid))
        out.append(ScaffoldTx(ROLE_REVEAL, kid, k.reveal_tx, k.reveal_ntxid))
        for idx in range(3):
            out.append(ScaffoldTx(ROLE_OUTCOMES[idx], kid, k.outcome_txs[idx], k.outcome_ntxids[idx]))
    for ckey in sorted(t.compressions):
        c = t.compressions[ckey]
        out.append(ScaffoldTx(ROLE_COMPRESSION, ckey, c.body, c.ntxid))
    if include_deposits:
        for i, body in enumerate(t.deposit_bodies):
            out.append(ScaffoldTx(ROLE_DEPOSIT, i, body, t.deposit_ntxids[i]))
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
    out_preds: tuple[Predicate, Predicate, Predicate],
) -> tuple[tuple[TransactionBody, ...], tuple[tuple[bytes, bytes], ...]]:
    """The bodies entry, reveal, outcome a, b and b', and their (ntxid, sig digest)."""
    entry = TransactionBody(
        inputs=(FixedInput(left_ref), FixedInput(right_ref)),
        outputs=(TxOutput(pot, _entry_predicate(master, left_commit, t1)),),
    )
    entry_d = body_digests(entry)
    reveal = TransactionBody(
        inputs=(FixedInput(OutputRef(entry_d[0], 0)),),
        outputs=(TxOutput(pot, _reveal_predicate(master, left_commit, right_commit, t2)),),
    )
    reveal_d = body_digests(reveal)
    # outcome 0: left wins after the reveal times out at t2
    # outcome 1: right wins after the entry times out at t1 (left never revealed)
    # outcome 2: right wins by revealing odd parity
    tx_a = TransactionBody(
        inputs=(FixedInput(OutputRef(reveal_d[0], 0)),),
        outputs=(TxOutput(pot, out_preds[0]),),
        locktime=t2,
    )
    tx_b = TransactionBody(
        inputs=(FixedInput(OutputRef(entry_d[0], 0)),),
        outputs=(TxOutput(pot, out_preds[1]),),
        locktime=t1,
    )
    tx_bp = TransactionBody(
        inputs=(FixedInput(OutputRef(reveal_d[0], 0)),),
        outputs=(TxOutput(pot, out_preds[2]),),
    )
    return (
        (entry, reveal, tx_a, tx_b, tx_bp),
        (entry_d, reveal_d, body_digests(tx_a), body_digests(tx_b), body_digests(tx_bp)),
    )


def build_deposit_atomic(
    funding: Sequence[OutputRef],
    funding_values: Optional[Sequence[int]],
    bet: int,
    master: Predicate,
) -> TransactionBody:
    """Single all-or-nothing deposit: N bet inputs, N bet stake outputs.

    Output 2i and 2i+1 are the stakes consumed by first-round match i. The
    body is fixed (and referenced) before anyone signs it; the ceremony
    signs it last so no player is ever exposed without a full scaffold.
    """
    if funding_values is not None:
        for i, v in enumerate(funding_values):
            if v != bet:
                raise ValueError(f"ValueMismatch: funding input {i} carries {v}, expected {bet}")
    return TransactionBody(
        inputs=tuple(FixedInput(ref) for ref in funding),
        outputs=tuple(TxOutput(bet, master) for _ in funding),
    )


def build_deposit_hashlocked(
    funding: Sequence[OutputRef],
    funding_values: Optional[Sequence[int]],
    bet: int,
    master: Predicate,
    player_keys: Sequence[bytes],
    mpc_digest: bytes,
    refund_time: int,
) -> tuple[TransactionBody, ...]:
    """Per-player deposits spendable into the tree only with the shared preimage.

    Each output either feeds a first-round entry (all signatures plus the
    preimage of the jointly computed digest) or refunds its owner once
    refund_time passes. The refund branch unlocks exactly at the commit
    deadline, so an aborted run returns every stake within the commit window.
    """
    if funding_values is not None:
        for i, v in enumerate(funding_values):
            if v != bet:
                raise ValueError(f"ValueMismatch: funding input {i} carries {v}, expected {bet}")
    bodies = []
    for ref, key in zip(funding, player_keys):
        pred = _hashlocked_deposit_predicate(master, mpc_digest, key, refund_time)
        bodies.append(
            TransactionBody(inputs=(FixedInput(ref),), outputs=(TxOutput(bet, pred),))
        )
    return tuple(bodies)


def build_tournament(
    n: int,
    player_keys: Sequence[bytes],
    funding: Sequence[OutputRef],
    secret_source: Rng,
    t_commit: int,
    params: ChainParams,
    mode: str = MODE_PLAIN,
    deposit_option: str = DEPOSIT_ATOMIC,
    funding_values: Optional[Sequence[int]] = None,
    mpc_digest: Optional[bytes] = None,
    sig_model: str = "multisig",
) -> Tournament:
    """Build the full unsigned scaffold bottom-up.

    Secrets are drawn fresh per kernel per player from `secret_source`;
    their commitment digests are baked into the spending predicates. The
    returned object carries the secrets for simulation purposes; exports
    strip them.
    """
    levels = num_levels(n)
    if len(player_keys) != n or len(set(player_keys)) != n:
        raise ValueError("need one distinct key per player")
    if len(funding) != n:
        raise ValueError("need one funding output per player")
    if mode not in (MODE_PLAIN, MODE_MULTIINPUT):
        raise ValueError(f"unknown mode {mode!r}")
    if deposit_option not in (DEPOSIT_ATOMIC, DEPOSIT_HASHLOCKED):
        raise ValueError(f"unknown deposit option {deposit_option!r}")
    if t_commit < 1:
        raise ValueError("t_commit must be >= 1")

    bet = params.bet_value
    tau = params.tau
    stride = 2 * tau if mode == MODE_PLAIN else 4 * tau
    master = AllSign(tuple(player_keys))
    refund_time = None

    if deposit_option == DEPOSIT_ATOMIC:
        deposit_bodies = (build_deposit_atomic(funding, funding_values, bet, master),)
        mpc_digest = None
    else:
        if mpc_digest is None:
            raise ValueError("hashlocked deposits need the joint mpc digest")
        refund_time = t_commit  # refunds must be live by the commit deadline
        deposit_bodies = build_deposit_hashlocked(
            funding, funding_values, bet, master, player_keys, mpc_digest, refund_time
        )
    deposit_digests = [body_digests(b) for b in deposit_bodies]
    deposit_ntxids = tuple(ntxid for ntxid, _ in deposit_digests)
    sig_digests = dict(deposit_digests)

    kernels: dict[KernelId, Kernel] = {}
    compressions: dict[tuple[int, int, int], CompressionTx] = {}
    secrets: dict[tuple[KernelId, int], bytes] = {}
    srng = secret_source.child("kernel-secrets")

    def stake_ref(level: int, match: int, combo: int, side: int) -> OutputRef:
        """Where one side's stake for kernel (level, match, combo) lives."""
        if level == 0:
            player = 2 * match + side
            if deposit_option == DEPOSIT_ATOMIC:
                return OutputRef(deposit_ntxids[0], player)
            return OutputRef(deposit_ntxids[player], 0)
        child_match = 2 * match + side
        if mode == MODE_MULTIINPUT:
            cand = multi_candidate_pair(n, level, match, combo)[side]
            return OutputRef(compressions[(level - 1, child_match, cand)].ntxid, 0)
        lk, lt, rk, rt = unpack_index(level, match, combo)
        child_kernel, child_tx = (lk, lt) if side == SIDE_LEFT else (rk, rt)
        child = kernels[KernelId(level - 1, child_match, child_kernel)]
        return OutputRef(child.outcome_ntxids[child_tx], 0)

    for level in range(levels):
        t0 = t_commit + stride * level
        t1, t2 = t0 + tau, t0 + 2 * tau
        pot = (1 << (level + 1)) * bet
        final = level == levels - 1
        for match in range(matches_at(n, level)):
            for combo in range(kernel_count(level, mode)):
                kid = KernelId(level, match, combo)
                left, right = players_of(n, level, match, combo, mode)
                secret_l = srng.child(f"{level}.{match}.{combo}.L").nonzero_bytes(32)
                secret_r = srng.child(f"{level}.{match}.{combo}.R").nonzero_bytes(32)
                secrets[(kid, SIDE_LEFT)] = secret_l
                secrets[(kid, SIDE_RIGHT)] = secret_r
                if final and mode == MODE_PLAIN:
                    out_preds = (
                        KeySign(player_keys[left]),
                        KeySign(player_keys[right]),
                        KeySign(player_keys[right]),
                    )
                else:
                    out_preds = (master, master, master)
                left_commit, right_commit = commitment(secret_l), commitment(secret_r)
                bodies, digests = _kernel_bodies(
                    master,
                    left_commit,
                    right_commit,
                    t1,
                    t2,
                    pot,
                    stake_ref(level, match, combo, SIDE_LEFT),
                    stake_ref(level, match, combo, SIDE_RIGHT),
                    out_preds,
                )
                sig_digests.update(digests)
                kernels[kid] = _kernel(
                    bodies,
                    digests,
                    id=kid,
                    left_player=left,
                    right_player=right,
                    left_commit=left_commit,
                    right_commit=right_commit,
                    t0=t0,
                    t1=t1,
                    t2=t2,
                    pot=pot,
                )
            if mode == MODE_MULTIINPUT:
                for cand in candidates(n, level, match):
                    pred = KeySign(player_keys[cand]) if final else master
                    members = _compression_members(kernels, level, match, cand, mode)
                    body = TransactionBody(
                        inputs=(multi_input(members),),
                        outputs=(TxOutput(pot, pred),),
                    )
                    ntxid, sig_digest = body_digests(body)
                    sig_digests[ntxid] = sig_digest
                    compressions[(level, match, cand)] = CompressionTx(
                        level, match, cand, body, ntxid
                    )

    stats = _stats_from_build(
        n, mode, deposit_option, sig_model, kernels, compressions, deposit_bodies
    )
    return Tournament(
        mode=mode,
        n=n,
        bet=bet,
        tau=tau,
        t_commit=t_commit,
        level_stride=stride,
        deposit_option=deposit_option,
        master_keys=tuple(player_keys),
        funding=tuple(funding),
        kernels=kernels,
        compressions=compressions,
        deposit_bodies=deposit_bodies,
        deposit_ntxids=deposit_ntxids,
        refund_time=refund_time,
        mpc_digest=mpc_digest,
        stats=stats,
        sig_digests=sig_digests,
        secrets=secrets,
    )


def _kernel(bodies, digests, **fields) -> Kernel:
    """A Kernel from five bodies and their (ntxid, sig digest) in `_kernel_bodies` order."""
    return Kernel(
        entry_tx=bodies[0],
        reveal_tx=bodies[1],
        outcome_txs=bodies[2:],
        entry_ntxid=digests[0][0],
        reveal_ntxid=digests[1][0],
        outcome_ntxids=tuple(ntxid for ntxid, _ in digests[2:]),
        **fields,
    )


def _compression_members(
    kernels: dict[KernelId, Kernel], level: int, match: int, candidate: int, mode: str
) -> list[OutputRef]:
    """Every outcome output across a match's kernels that pays `candidate`."""
    members = []
    for combo in range(kernel_count(level, mode)):
        k = kernels[KernelId(level, match, combo)]
        if k.left_player == candidate:
            members.append(OutputRef(k.outcome_ntxids[0], 0))
        if k.right_player == candidate:
            members.append(OutputRef(k.outcome_ntxids[1], 0))
            members.append(OutputRef(k.outcome_ntxids[2], 0))
    return members


def build_compression(t: Tournament, level: int, match: int, candidate: int) -> CompressionTx:
    """Look up (or recompute) the compression body for one candidate winner."""
    if t.mode != MODE_MULTIINPUT:
        raise ValueError("compression transactions exist only in multiinput mode")
    key = (level, match, candidate)
    if key not in t.compressions:
        raise IndexOutOfRange(f"no compression for candidate {candidate} at {level}/{match}")
    return t.compressions[key]


# cost model


def _auth_bytes(sig_model: str, n: int) -> int:
    # multisig carries one signature per master key; aggregate folds them
    return n * SIG_LAMBDA if sig_model == "multisig" else SIG_LAMBDA


def _stats_from_build(n, mode, deposit_option, sig_model, kernels, compressions, deposit_bodies):
    levels = num_levels(n)
    per_level = tuple(
        matches_at(n, level) * kernel_count(level, mode) * 5 for level in range(levels)
    )
    kernel_bodies = sum(per_level)
    compression_count = len(compressions)
    deposit_count = len(deposit_bodies)
    auth = _auth_bytes(sig_model, n)
    txs_per_match = 4 if mode == MODE_MULTIINPUT else 3
    worst_bytes = sum(len(body_bytes(b)) + auth for b in deposit_bodies)
    for level in range(levels):
        # the slowest path through a match publishes entry, reveal and the
        # reveal-timeout outcome; multiinput adds the winner's compression
        k = kernels[KernelId(level, 0, 0)]
        per_match = (
            len(body_bytes(k.entry_tx))
            + len(body_bytes(k.reveal_tx))
            + len(body_bytes(k.outcome_txs[0]))
            + 3 * auth
        )
        if mode == MODE_MULTIINPUT:
            worst = max(
                len(body_bytes(compressions[(level, 0, cand)].body))
                for cand in candidates(n, level, 0)
            )
            per_match += worst + auth
        worst_bytes += per_match * matches_at(n, level)
    on_chain_worst = txs_per_match * (n - 1) + deposit_count
    total = kernel_bodies + compression_count + deposit_count
    return TransactionStats(
        total_offchain=total,
        per_level=per_level,
        kernel_bodies=kernel_bodies,
        compression_count=compression_count,
        deposit_count=deposit_count,
        on_chain_worst_case=on_chain_worst,
        bytes_on_chain=worst_bytes,
        materialized=True,
    )


def scaffold_stats(
    n: int,
    mode: str = MODE_PLAIN,
    deposit_option: str = DEPOSIT_ATOMIC,
    sig_model: str = "multisig",
    bet: int = 1,
    tau: int = 6,
    t_commit: int = 10,
) -> TransactionStats:
    """Closed-form transaction statistics without materializing the tree.

    Representative bodies (one kernel per level, dummy digests) give exact
    byte sizes because every digest and reference field is fixed-width.
    Used for player counts whose plain-mode trees are too large to build.
    """
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
    auth = _auth_bytes(sig_model, n)

    if deposit_option == DEPOSIT_ATOMIC:
        dep = build_deposit_atomic([dummy_ref] * n, None, bet, master)
        worst_bytes = len(body_bytes(dep)) + auth
    else:
        deps = build_deposit_hashlocked(
            [dummy_ref] * n, None, bet, master, dummy_keys, dummy_digest, t_commit + 1
        )
        worst_bytes = sum(len(body_bytes(b)) + auth for b in deps)

    stride = 2 * tau if mode == MODE_PLAIN else 4 * tau
    for level in range(levels):
        t0 = t_commit + stride * level
        pot = (1 << (level + 1)) * bet
        final = level == levels - 1
        if final and mode == MODE_PLAIN:
            out_preds = (KeySign(dummy_keys[0]), KeySign(dummy_keys[1]), KeySign(dummy_keys[1]))
        else:
            out_preds = (master, master, master)
        (entry, reveal, outcome_a, *_), _digests = _kernel_bodies(
            master, dummy_digest, sha256(dummy_digest), t0 + tau, t0 + 2 * tau,
            pot, dummy_ref, OutputRef(b"\x22" * 32, 0), out_preds,
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
                outputs=(TxOutput(pot, KeySign(dummy_keys[0]) if final else master),),
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
        materialized=False,
    )


# verification


class Violation(NamedTuple):
    kernel: Optional[KernelId]
    rule: str
    detail: str


def verify_as_honest(t: Tournament, me: int = 0) -> list[Violation]:
    """Check a scaffold against what honest construction would produce.

    Everything except the secret preimages is recomputable from public
    parameters, so the verifier rebuilds each body from the tournament's
    own public fields and flags any divergence: rewired inputs, altered
    schedules or predicates, wrong payout keys, and duplicated commitment
    digests (the replay defense). An empty list means the scaffold is safe
    to sign.
    """
    v: list[Violation] = []
    try:
        levels = num_levels(t.n)
    except NotPowerOfTwo as e:
        return [Violation(None, "BadParams", str(e))]
    if not (0 <= me < t.n):
        return [Violation(None, "BadParams", f"player {me} out of range")]
    if len(t.master_keys) != t.n or len(set(t.master_keys)) != t.n:
        v.append(Violation(None, "BadParams", "master keys must be one distinct key per player"))
        return v
    master = AllSign(t.master_keys)
    stride = 2 * t.tau if t.mode == MODE_PLAIN else 4 * t.tau
    if t.level_stride != stride:
        v.append(Violation(None, "BadSchedule", f"level stride {t.level_stride} != {stride}"))

    expected_ids = {
        KernelId(level, match, combo)
        for level in range(levels)
        for match in range(matches_at(t.n, level))
        for combo in range(kernel_count(level, t.mode))
    }
    for kid in expected_ids - set(t.kernels):
        v.append(Violation(kid, "MissingKernel", "kernel absent from scaffold"))
    for kid in set(t.kernels) - expected_ids:
        v.append(Violation(kid, "UnexpectedKernel", "kernel not part of the bracket"))
    if any(rule == "MissingKernel" for _, rule, _ in v):
        return v

    # deposits
    v.extend(_verify_deposits(t, master))

    # commitment digests must be pairwise distinct across the whole tree
    seen: dict[bytes, tuple[KernelId, int]] = {}
    for kid in sorted(expected_ids):
        k = t.kernels[kid]
        for side, digest in ((SIDE_LEFT, k.left_commit), (SIDE_RIGHT, k.right_commit)):
            if digest in seen:
                other = seen[digest]
                v.append(
                    Violation(
                        kid,
                        "DuplicateCommitment",
                        f"side {side} repeats commitment of kernel {other[0]} side {other[1]}",
                    )
                )
            else:
                seen[digest] = (kid, side)

    for kid in sorted(expected_ids):
        k = t.kernels[kid]
        level, match, combo = kid
        t0, t1, t2 = t.t_commit + stride * level, 0, 0
        t1, t2 = t0 + t.tau, t0 + 2 * t.tau
        if (k.t0, k.t1, k.t2) != (t0, t1, t2):
            v.append(Violation(kid, "BadSchedule", f"timeouts {(k.t0, k.t1, k.t2)} != {(t0, t1, t2)}"))
        try:
            left, right = players_of(t.n, level, match, combo, t.mode)
        except (IndexOutOfRange, NotPowerOfTwo) as e:
            v.append(Violation(kid, "BadPlayers", str(e)))
            continue
        if (k.left_player, k.right_player) != (left, right):
            v.append(
                Violation(
                    kid,
                    "BadPlayers",
                    f"players {(k.left_player, k.right_player)} != {(left, right)}",
                )
            )
        pot = (1 << (level + 1)) * t.bet
        final = level == levels - 1
        if final and t.mode == MODE_PLAIN:
            out_preds = (
                KeySign(t.master_keys[left]),
                KeySign(t.master_keys[right]),
                KeySign(t.master_keys[right]),
            )
        else:
            out_preds = (master, master, master)
        try:
            left_ref = _expected_stake_ref(t, level, match, combo, SIDE_LEFT)
            right_ref = _expected_stake_ref(t, level, match, combo, SIDE_RIGHT)
        except KeyError as e:
            v.append(Violation(kid, "BadWiring", f"missing child transaction: {e}"))
            continue
        rebuilt_bodies, _digests = _kernel_bodies(
            master, k.left_commit, k.right_commit, t1, t2, pot, left_ref, right_ref, out_preds
        )
        stored_bodies = (k.entry_tx, k.reveal_tx) + tuple(k.outcome_txs)
        for role, stored, rebuilt in zip(
            (ROLE_ENTRY, ROLE_REVEAL) + ROLE_OUTCOMES, stored_bodies, rebuilt_bodies
        ):
            if stored == rebuilt:
                continue
            if stored.inputs != rebuilt.inputs:
                rule = "BadWiring"
            elif stored.locktime != rebuilt.locktime:
                rule = "BadTimeout"
            else:
                rule = "BadScript"
            v.append(Violation(kid, rule, f"{role} transaction diverges from honest construction"))

    if t.mode == MODE_MULTIINPUT:
        v.extend(_verify_compressions(t, master, levels))
    v.extend(_verify_digests(t))
    return v


def _verify_digests(t: Tournament) -> list[Violation]:
    """The stored ntxids and signature digests must be those of the stored bodies.

    The ceremony approves the stored digests and the runtime trusts the
    stored ntxids, so a mismatch would sign something other than what was
    checked.
    """
    v: list[Violation] = []
    for item in iter_bodies(t):
        if body_digests(item.body) != (item.ntxid, t.sig_digests.get(item.ntxid)):
            kid = item.key if isinstance(item.key, KernelId) else None
            detail = f"{item.role} {item.key}: stored digests do not match the body"
            v.append(Violation(kid, "BadDigest", detail))
    return v


def _expected_stake_ref(t: Tournament, level: int, match: int, combo: int, side: int) -> OutputRef:
    if level == 0:
        player = 2 * match + side
        if t.deposit_option == DEPOSIT_ATOMIC:
            return OutputRef(t.deposit_ntxids[0], player)
        return OutputRef(t.deposit_ntxids[player], 0)
    child_match = 2 * match + side
    if t.mode == MODE_MULTIINPUT:
        cand = multi_candidate_pair(t.n, level, match, combo)[side]
        return OutputRef(t.compressions[(level - 1, child_match, cand)].ntxid, 0)
    lk, lt, rk, rt = unpack_index(level, match, combo)
    child_kernel, child_tx = (lk, lt) if side == SIDE_LEFT else (rk, rt)
    child = t.kernels[KernelId(level - 1, child_match, child_kernel)]
    return OutputRef(compute_ntxid(child.outcome_txs[child_tx]), 0)


def _verify_deposits(t: Tournament, master: Predicate) -> list[Violation]:
    v: list[Violation] = []
    if t.deposit_option == DEPOSIT_ATOMIC:
        if len(t.deposit_bodies) != 1:
            return [Violation(None, "BadDeposit", "atomic option needs exactly one deposit body")]
        expected = build_deposit_atomic(t.funding, None, t.bet, master)
        if t.deposit_bodies[0] != expected:
            v.append(Violation(None, "BadDeposit", "deposit body diverges from honest construction"))
    else:
        if len(t.deposit_bodies) != t.n:
            return [Violation(None, "BadDeposit", "hashlocked option needs one deposit per player")]
        if t.mpc_digest is None or t.refund_time != t.t_commit:
            v.append(Violation(None, "BadDeposit", "refund time must equal the commit deadline"))
            return v
        expected_bodies = build_deposit_hashlocked(
            t.funding, None, t.bet, master, t.master_keys, t.mpc_digest, t.refund_time
        )
        for i, (stored, rebuilt) in enumerate(zip(t.deposit_bodies, expected_bodies)):
            if stored != rebuilt:
                v.append(Violation(None, "BadDeposit", f"deposit {i} diverges from honest construction"))
    return v


def _verify_compressions(t: Tournament, master: Predicate, levels: int) -> list[Violation]:
    v: list[Violation] = []
    expected_keys = {
        (level, match, cand)
        for level in range(levels)
        for match in range(matches_at(t.n, level))
        for cand in candidates(t.n, level, match)
    }
    for key in expected_keys - set(t.compressions):
        v.append(Violation(None, "BadCompression", f"missing compression {key}"))
    for key in set(t.compressions) - expected_keys:
        v.append(Violation(None, "BadCompression", f"unexpected compression {key}"))
    for key in sorted(expected_keys & set(t.compressions)):
        level, match, cand = key
        c = t.compressions[key]
        members = _compression_members(t.kernels, level, match, cand, t.mode)
        pot = (1 << (level + 1)) * t.bet
        pred = KeySign(t.master_keys[cand]) if level == levels - 1 else master
        rebuilt = TransactionBody(
            inputs=(multi_input(members),), outputs=(TxOutput(pot, pred),)
        )
        if c.body != rebuilt:
            v.append(Violation(None, "BadCompression", f"compression {key} diverges"))
    return v


# signing ceremony


@dataclass
class SigningView:
    """What a party sees when asked to approve the whole scaffold or the deposit."""

    player: int
    tournament: Tournament
    total_bodies: int  # bodies the approval covers, the atomic deposit included


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
    """Each party verifies the whole scaffold, then approves all of it at once.

    Every party is asked once (`at_signing`) with a view of the whole
    scaffold; an honest party checks it with `verify_as_honest`. A single
    refusal aborts before any key signs anything, which has no on-chain
    effect because nothing spendable exists until the deposit is complete.
    Once all approve, each party's key signs the digests of every kernel and
    compression body in one act (`SignatureOracle.sign_all`). The atomic
    deposit is asked about (`at_deposit`) and signed last, so no player is
    ever exposed without a full scaffold; hashlocked deposits are authorized
    solo by their owners at submission time.
    """
    plan = iter_bodies(t, include_deposits=False)
    atomic = t.deposit_option == DEPOSIT_ATOMIC
    total = len(plan) + (1 if atomic else 0)
    views = [SigningView(player, t, total) for player in range(t.n)]
    for player, view in enumerate(views):
        if not deciders[player].at_signing(view):
            return CeremonyResult(aborted_by=player, bodies_signed=0)
    digests = frozenset(t.sig_digests[item.ntxid] for item in plan)
    for player, key in enumerate(t.master_keys):
        oracle.sign_all(player, key, digests)
    if atomic:
        for player, view in enumerate(views):
            if not deciders[player].at_deposit(view):
                return CeremonyResult(aborted_by=player, bodies_signed=len(plan))
        deposit_digest = t.sig_digests[t.deposit_ntxids[0]]
        for player, key in enumerate(t.master_keys):
            oracle.sign(player, key, deposit_digest)
    return CeremonyResult(aborted_by=None, bodies_signed=total)


# serialization


def _body_to_json(body: TransactionBody) -> dict:
    inputs = []
    for spec in body.inputs:
        if isinstance(spec, FixedInput):
            inputs.append({"kind": "fixed", "txid": spec.ref.txid.hex(), "index": spec.ref.index})
        else:
            inputs.append(
                {
                    "kind": "multi",
                    "refs": [{"txid": r.txid.hex(), "index": r.index} for r in spec.refs],
                }
            )
    return {
        "inputs": inputs,
        "outputs": [
            {"value": out.value, "predicate": predicate_to_json(out.predicate)}
            for out in body.outputs
        ],
        "locktime": body.locktime,
    }


def _body_from_json(obj: dict) -> TransactionBody:
    inputs: list = []
    for spec in obj["inputs"]:
        if spec["kind"] == "fixed":
            inputs.append(FixedInput(OutputRef(bytes.fromhex(spec["txid"]), spec["index"])))
        else:
            inputs.append(
                MultiInput(
                    tuple(OutputRef(bytes.fromhex(r["txid"]), r["index"]) for r in spec["refs"])
                )
            )
    outputs = tuple(
        TxOutput(out["value"], predicate_from_json(out["predicate"])) for out in obj["outputs"]
    )
    return TransactionBody(tuple(inputs), outputs, obj["locktime"])


FORMAT_TAG = "tournament-scaffold-v1"


def tournament_to_json(t: Tournament) -> dict:
    """Public scaffold description. Secrets are never exported."""
    kernels = []
    for kid in sorted(t.kernels):
        k = t.kernels[kid]
        kernels.append(
            {
                "level": kid.level,
                "match": kid.match,
                "combo": kid.combo,
                "left_player": k.left_player,
                "right_player": k.right_player,
                "left_commit": k.left_commit.hex(),
                "right_commit": k.right_commit.hex(),
                "t0": k.t0,
                "t1": k.t1,
                "t2": k.t2,
                "pot": k.pot,
                "entry": _body_to_json(k.entry_tx),
                "reveal": _body_to_json(k.reveal_tx),
                "outcomes": [_body_to_json(b) for b in k.outcome_txs],
            }
        )
    compressions = [
        {
            "level": key[0],
            "match": key[1],
            "candidate": key[2],
            "body": _body_to_json(t.compressions[key].body),
        }
        for key in sorted(t.compressions)
    ]
    return {
        "format": FORMAT_TAG,
        "mode": t.mode,
        "n": t.n,
        "bet": t.bet,
        "tau": t.tau,
        "t_commit": t.t_commit,
        "level_stride": t.level_stride,
        "deposit_option": t.deposit_option,
        "refund_time": t.refund_time,
        "mpc_digest": t.mpc_digest.hex() if t.mpc_digest else None,
        "master_keys": [k.hex() for k in t.master_keys],
        "funding": [{"txid": r.txid.hex(), "index": r.index} for r in t.funding],
        "deposits": [_body_to_json(b) for b in t.deposit_bodies],
        "kernels": kernels,
        "compressions": compressions,
        "stats": t.stats.to_json(),
    }


def tournament_from_json(obj: dict) -> Tournament:
    if obj.get("format") != FORMAT_TAG:
        raise ValueError(f"not a scaffold file (format {obj.get('format')!r})")
    kernels: dict[KernelId, Kernel] = {}
    sig_digests: dict[bytes, bytes] = {}
    for rec in obj["kernels"]:
        kid = KernelId(rec["level"], rec["match"], rec["combo"])
        bodies = tuple(_body_from_json(b) for b in [rec["entry"], rec["reveal"], *rec["outcomes"]])
        digests = tuple(body_digests(b) for b in bodies)
        sig_digests.update(digests)
        kernels[kid] = _kernel(
            bodies,
            digests,
            id=kid,
            left_player=rec["left_player"],
            right_player=rec["right_player"],
            left_commit=bytes.fromhex(rec["left_commit"]),
            right_commit=bytes.fromhex(rec["right_commit"]),
            t0=rec["t0"],
            t1=rec["t1"],
            t2=rec["t2"],
            pot=rec["pot"],
        )
    compressions = {}
    for rec in obj.get("compressions", []):
        body = _body_from_json(rec["body"])
        key = (rec["level"], rec["match"], rec["candidate"])
        ntxid, sig_digest = body_digests(body)
        sig_digests[ntxid] = sig_digest
        compressions[key] = CompressionTx(key[0], key[1], key[2], body, ntxid)
    deposit_bodies = tuple(_body_from_json(b) for b in obj["deposits"])
    deposit_digests = [body_digests(b) for b in deposit_bodies]
    sig_digests.update(deposit_digests)
    stats_obj = obj["stats"]
    stats = TransactionStats(
        total_offchain=stats_obj["total_offchain"],
        per_level=tuple(stats_obj["per_level"]),
        kernel_bodies=stats_obj["kernel_bodies"],
        compression_count=stats_obj["compression_count"],
        deposit_count=stats_obj["deposit_count"],
        on_chain_worst_case=stats_obj["on_chain_worst_case"],
        bytes_on_chain=stats_obj["bytes_on_chain"],
        materialized=stats_obj["materialized"],
    )
    return Tournament(
        mode=obj["mode"],
        n=obj["n"],
        bet=obj["bet"],
        tau=obj["tau"],
        t_commit=obj["t_commit"],
        level_stride=obj["level_stride"],
        deposit_option=obj["deposit_option"],
        master_keys=tuple(bytes.fromhex(k) for k in obj["master_keys"]),
        funding=tuple(OutputRef(bytes.fromhex(r["txid"]), r["index"]) for r in obj["funding"]),
        kernels=kernels,
        compressions=compressions,
        deposit_bodies=deposit_bodies,
        deposit_ntxids=tuple(ntxid for ntxid, _ in deposit_digests),
        refund_time=obj.get("refund_time"),
        mpc_digest=bytes.fromhex(obj["mpc_digest"]) if obj.get("mpc_digest") else None,
        stats=stats,
        sig_digests=sig_digests,
        secrets={},
    )


def dump_tournament(t: Tournament) -> str:
    return json.dumps(tournament_to_json(t), indent=2, sort_keys=True) + "\n"


def load_tournament(text: str) -> Tournament:
    return tournament_from_json(json.loads(text))


# DAG export


def export_dot(t: Tournament) -> str:
    """Graphviz rendering of the scaffold's spend graph."""
    lines = ["digraph scaffold {", "  rankdir=LR;", "  node [shape=box, fontsize=9];"]
    producer: dict[bytes, str] = {}
    for i, ref in enumerate(t.funding):
        name = f"funding_{i}"
        producer[ref.txid] = name
        lines.append(f'  {name} [label="funding P{i}", shape=ellipse];')
    for i, ntxid in enumerate(t.deposit_ntxids):
        name = f"deposit_{i}" if len(t.deposit_ntxids) > 1 else "deposit"
        producer[ntxid] = name
        lines.append(f'  {name} [label="{name}"];')
    for kid in sorted(t.kernels):
        k = t.kernels[kid]
        base = f"k{kid.level}_{kid.match}_{kid.combo}"
        for role, ntxid, lock in (
            ("entry", k.entry_ntxid, 0),
            ("reveal", k.reveal_ntxid, 0),
            ("outcome_a", k.outcome_ntxids[0], k.t2),
            ("outcome_b", k.outcome_ntxids[1], k.t1),
            ("outcome_bp", k.outcome_ntxids[2], 0),
        ):
            name = f"{base}_{role}"
            producer[ntxid] = name
            label = f"{base}.{role}"
            if lock:
                label += f"\\nlock={lock}"
            lines.append(f'  {name} [label="{label}"];')
    for key in sorted(t.compressions):
        c = t.compressions[key]
        name = f"c{key[0]}_{key[1]}_p{key[2]}"
        producer[c.ntxid] = name
        lines.append(f'  {name} [label="compress L{key[0]} M{key[1]} -> P{key[2]}"];')

    def edges(body: TransactionBody, target: str):
        for spec in body.inputs:
            if isinstance(spec, FixedInput):
                src = producer.get(spec.ref.txid)
                if src:
                    lines.append(f"  {src} -> {target};")
            else:
                for ref in spec.refs:
                    src = producer.get(ref.txid)
                    if src:
                        lines.append(f"  {src} -> {target} [style=dashed];")

    for i, body in enumerate(t.deposit_bodies):
        edges(body, f"deposit_{i}" if len(t.deposit_bodies) > 1 else "deposit")
    for kid in sorted(t.kernels):
        k = t.kernels[kid]
        base = f"k{kid.level}_{kid.match}_{kid.combo}"
        edges(k.entry_tx, f"{base}_entry")
        edges(k.reveal_tx, f"{base}_reveal")
        edges(k.outcome_txs[0], f"{base}_outcome_a")
        edges(k.outcome_txs[1], f"{base}_outcome_b")
        edges(k.outcome_txs[2], f"{base}_outcome_bp")
    for key in sorted(t.compressions):
        edges(t.compressions[key].body, f"c{key[0]}_{key[1]}_p{key[2]}")
    lines.append("}")
    return "\n".join(lines) + "\n"
