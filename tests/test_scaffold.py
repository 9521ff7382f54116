"""Tournament scaffold: combinatorics, wiring, ceremony, verification."""

import copy
import dataclasses
import gc
import hashlib
import json
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from commitlotto.chain import (
    FixedInput,
    LogEntry,
    TransactionBody,
    TxOutput,
    body_bytes,
    compute_ntxid,
    sig_digest_for,
)
from commitlotto.primitives import OutputRef, Rng, level_stride
from commitlotto.scaffold import (
    BRANCH_DEPOSIT_REFUND,
    BRANCH_DEPOSIT_SPEND,
    BRANCH_REVEAL,
    BRANCH_TIMEOUT,
    DEPOSIT_HASHLOCKED,
    FORMAT_TAG,
    KERNEL,
    MODE_MULTIINPUT,
    MODE_PLAIN,
    OUTCOMES,
    ROLE_ENTRY,
    ROLE_OUTCOME_A,
    ROLE_OUTCOME_B,
    ROLE_OUTCOME_BP,
    ROLE_REVEAL,
    SIDE_LEFT,
    SIDE_RIGHT,
    SLOT_LEFT,
    SLOT_MPC,
    SLOT_RIGHT,
    IndexOutOfRange,
    Kernel,
    KernelId,
    NotPowerOfTwo,
    auth_bytes,
    build_deposit_atomic,
    build_refunds,
    build_tournament,
    dump_tournament,
    export_dot,
    join_combo,
    joint_preimage,
    kernel_count,
    load_tournament,
    matches_at,
    num_levels,
    players_of,
    scaffold_stats,
    side_choices,
    signing_ceremony,
    split_combo,
    verify_as_honest,
    winner_side,
)
from commitlotto.script import (
    AfterHeight,
    AllOf,
    AllSign,
    AnyOf,
    EvalContext,
    HashPreimage,
    InputWitness,
    KeySign,
    SignatureOracle,
    XorParityOdd,
    evaluate_explain,
)

from commitlotto import scaffold as scaffold_module
from commitlotto.harness import BTC_PLAIN, ScaffoldRuntime, ScenarioConfig, run_trial, trial_rng
from commitlotto.strategies import BTC_MULTI

from conftest import count_builds, iter_bodies, make_funding, make_keys, small_tournament


# counting


def test_kernel_count_frozen_values():
    assert [kernel_count(l) for l in range(4)] == [1, 9, 729, 4782969]
    assert [kernel_count(l, MODE_MULTIINPUT) for l in range(4)] == [1, 4, 16, 64]


def test_kernel_count_recurrence():
    # each kernel pairs one of 3 outcomes of each child kernel on each side
    for level in range(1, 5):
        prev = kernel_count(level - 1)
        assert kernel_count(level) == (3 * prev) ** 2


def test_geometric_count_diverges_at_level_two():
    # the geometric guess 9**level undercounts because child multiplicity
    # compounds, not the per-level factor
    assert [9**level for level in range(2)] == [kernel_count(level) for level in range(2)]
    for level in range(2, 5):
        assert 9**level < kernel_count(level)


def test_bracket_shape():
    assert num_levels(8) == 3
    assert [matches_at(8, l) for l in range(3)] == [4, 2, 1]
    with pytest.raises(NotPowerOfTwo):
        num_levels(3)
    with pytest.raises(NotPowerOfTwo):
        num_levels(0)
    assert matches_at(8, 3) == 0  # no matches above the root


def test_offchain_totals_frozen():
    assert scaffold_stats(2).total_offchain == 6
    assert scaffold_stats(4).total_offchain == 56
    assert scaffold_stats(8).total_offchain == 3756
    assert scaffold_stats(16).total_offchain == 23922356
    assert [scaffold_stats(n, MODE_MULTIINPUT).total_offchain for n in (2, 4, 8, 16, 32)] == [
        8,
        39,
        165,
        665,
        2641,
    ]


def test_offchain_total_matches_sum_over_matches():
    for n in (2, 4, 8):
        s = scaffold_stats(n)
        expect = 1 + sum(
            matches_at(n, l) * kernel_count(l) * 5 for l in range(num_levels(n))
        )
        assert s.total_offchain == expect
        assert s.per_level == tuple(
            matches_at(n, l) * kernel_count(l) * 5 for l in range(num_levels(n))
        )


def test_worst_case_onchain_counts():
    for n in (2, 4, 8, 16):
        assert scaffold_stats(n).on_chain_worst_case == 3 * (n - 1) + 1
        assert scaffold_stats(n, MODE_MULTIINPUT).on_chain_worst_case == 4 * (n - 1) + 1
        hl = scaffold_stats(n, deposit_option=DEPOSIT_HASHLOCKED)
        assert hl.on_chain_worst_case == 3 * (n - 1) + n
        assert hl.deposit_count == n


@pytest.mark.parametrize("deposit_option", ["atomic", "hashlocked"])
@pytest.mark.parametrize("mode", ["plain", "multiinput"])
def test_a_scaffold_derives_what_its_parameters_fix(mode, deposit_option):
    # level_stride, refund_time and stats are read off the parameters, the
    # same for a build and for the file it writes, and none can be set
    multi = mode == MODE_MULTIINPUT
    built = small_tournament(4, mode=mode, deposit_option=deposit_option, tau=3, t_commit=7)
    for t in (built, load_tournament(dump_tournament(built))):
        assert t.level_stride == level_stride(3, multi) == (4 if multi else 2) * 3
        assert t.refund_time == (7 if deposit_option == DEPOSIT_HASHLOCKED else None)
        assert t.stats is scaffold_stats(4, mode, deposit_option)
        for name in ("level_stride", "refund_time", "stats"):
            with pytest.raises(AttributeError):
                setattr(t, name, getattr(t, name))
    # materialized is false only where a plain scaffold is too large to write out
    for n in (2, 4, 8, 16, 32, 64):
        assert scaffold_stats(n, mode, deposit_option).materialized == (multi or n <= 8)


def measured_worst_case_bytes(t, sig_model):
    """On-chain bytes of the slowest path, measured on the built bodies."""
    auth = 32 * t.n if sig_model == "multisig" else 32
    size = lambda body: len(body_bytes(body)) + auth
    total = sum(size(b) for b in t.deposit_bodies)
    for level in range(t.levels):
        k = t.kernel(level, 0, 0)
        per_match = size(k.bodies[0]) + size(k.bodies[1]) + size(k.bodies[OUTCOMES[0]])
        if t.mode == MODE_MULTIINPUT:
            per_match += max(
                size(t.compressions[(level, 0, cand)]) for cand in range(2 << level)
            )
        total += per_match * matches_at(t.n, level)
    return total


# (bet, tau, t_commit) per player count: the defaults, a small schedule, and
# the caps of `check_params`, a final pot n * bet and a schedule that each end
# just below 2**32
SCHEDULES = {
    "defaults": lambda n: (1, 6, 10),
    "small": lambda n: (5, 3, 7),
    "caps": lambda n: ((2**32 - 1) // n, 6, 2**32 - 1 - level_stride(6, True) * num_levels(n)),
}


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize(
    "n,mode,deposit_option,sig_model",
    [
        (2, "plain", "atomic", "multisig"),
        (4, "plain", "hashlocked", "aggregate"),
        (8, "plain", "atomic", "aggregate"),
        (4, "multiinput", "atomic", "multisig"),
        (8, "multiinput", "hashlocked", "multisig"),
        (16, "multiinput", "atomic", "aggregate"),
    ],
)
def test_built_stats_bytes_match_the_built_bodies(n, mode, deposit_option, sig_model, schedule):
    # the closed-form byte count must be what a build's own worst-case path
    # measures, whatever its schedule and stake: the closed form takes neither;
    # it sizes multisig, so another model's figure is its own per-transaction
    # authorization on each worst-case transaction
    bet, tau, t_commit = SCHEDULES[schedule](n)
    t = small_tournament(n, mode=mode, deposit_option=deposit_option, bet=bet, tau=tau, t_commit=t_commit)
    stats = scaffold_stats(n, mode, deposit_option)
    saved = auth_bytes("multisig", n) - auth_bytes(sig_model, n)
    assert stats.bytes_on_chain - stats.on_chain_worst_case * saved == measured_worst_case_bytes(t, sig_model)
    assert t.stats.total_offchain == len(iter_bodies(t))


# index packing


def test_side_choices_square_to_the_kernel_count():
    assert [side_choices(l) for l in range(4)] == [1, 3, 27, 2187]
    assert [side_choices(l, MODE_MULTIINPUT) for l in range(4)] == [1, 2, 4, 8]
    for mode in (MODE_PLAIN, MODE_MULTIINPUT):
        for level in range(5):
            assert kernel_count(level, mode) == side_choices(level, mode) ** 2
    with pytest.raises(IndexOutOfRange):
        side_choices(-1)


def test_split_combo_frozen_examples():
    # plain: (left, right) choices; choice c is outcome c % 3 of child kernel c // 3
    assert split_combo(1, 7) == (2, 1)  # (kernel 0, outcome 2), (kernel 0, outcome 1)
    assert split_combo(2, 80) == (2, 26)  # (kernel 0, outcome 2), (kernel 8, outcome 2)
    assert [divmod(c, 3) for c in split_combo(2, 80)] == [(0, 2), (8, 2)]


def test_split_combo_round_trip():
    for level in (1, 2):
        per_side = 3 * kernel_count(level - 1)
        for combo in range(kernel_count(level)):
            left, right = split_combo(level, combo)
            (lk, lt), (rk, rt) = divmod(left, 3), divmod(right, 3)
            assert 0 <= lk < kernel_count(level - 1) and lt in (0, 1, 2)
            assert 0 <= rk < kernel_count(level - 1) and rt in (0, 1, 2)
            assert (lk * 3 + lt) * per_side + (rk * 3 + rt) == combo
    with pytest.raises(IndexOutOfRange):
        split_combo(1, 81)


@pytest.mark.parametrize("mode", [MODE_PLAIN, MODE_MULTIINPUT])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_bracket_index_inverses_round_trip(level, mode):
    # level 0 has one combo: each side's one choice is the deposit output
    n = 16
    choices = side_choices(level, mode)
    for combo in range(min(kernel_count(level, mode), 1000)):
        assert join_combo(level, *split_combo(level, combo, mode), mode) == combo
        # each side's player comes from that side's child match, never the other's
        for match in range(matches_at(n, level)):
            left, right = players_of(n, level, match, combo, mode)
            assert (left >> level, right >> level) == (2 * match, 2 * match + 1)
    last = kernel_count(level, mode) - 1
    assert split_combo(level, last, mode) == (choices - 1, choices - 1)
    assert join_combo(level, *split_combo(level, last, mode), mode) == last
    with pytest.raises(IndexOutOfRange):
        split_combo(level, last + 1, mode)
    with pytest.raises(IndexOutOfRange):
        join_combo(level, choices, 0, mode)
    with pytest.raises(IndexOutOfRange):
        join_combo(level, 0, choices, mode)
    with pytest.raises(IndexOutOfRange):
        join_combo(level, -1, 0, mode)
    with pytest.raises(IndexOutOfRange):
        players_of(n, level, matches_at(n, level), 0, mode)


def test_winner_side_mapping():
    assert winner_side(0) == SIDE_LEFT
    assert winner_side(1) == SIDE_RIGHT
    assert winner_side(2) == SIDE_RIGHT
    with pytest.raises(IndexOutOfRange):
        winner_side(3)


def test_players_of_plain_tracks_child_winners():
    # n=4, final match: combo 0 pairs both level-0 left winners
    assert players_of(4, 1, 0, 0) == (0, 2)
    # combo 4 = (left child outcome 1, right child outcome 1): both right winners
    assert players_of(4, 1, 0, 4) == (1, 3)
    # level 0 is just the fixed bracket seeding
    assert players_of(4, 0, 1, 0) == (2, 3)
    for combo in range(9):
        lt, rt = split_combo(1, combo)  # one child kernel per side, so a choice is its outcome
        lp = 0 if winner_side(lt) == SIDE_LEFT else 1
        rp = 2 if winner_side(rt) == SIDE_LEFT else 3
        assert players_of(4, 1, 0, combo) == (lp, rp)
    with pytest.raises(IndexOutOfRange):
        players_of(4, 0, 0, 1)  # level 0 has a single kernel per match


def test_candidates_and_multi_pairs():
    # a match's candidates are the players whose bracket path can reach it
    n = 8
    assert players_of(n, 0, 2, 0, MODE_MULTIINPUT) == (4, 5)
    assert {p for c in range(16) for p in players_of(n, 2, 0, c, MODE_MULTIINPUT)} == set(range(8))
    assert {p for c in range(4) for p in players_of(n, 1, 1, c, MODE_MULTIINPUT)} == {4, 5, 6, 7}
    with pytest.raises(IndexOutOfRange):
        players_of(n, 1, 2, 0, MODE_MULTIINPUT)
    # multiinput combos enumerate candidate pairs left-major
    level, match = 1, 0
    pairs = [players_of(n, level, match, c, MODE_MULTIINPUT) for c in range(kernel_count(level, MODE_MULTIINPUT))]
    assert pairs == [(0, 2), (0, 3), (1, 2), (1, 3)]
    # a side choice is the candidate's place among its child match's candidates
    assert [split_combo(level, c, MODE_MULTIINPUT) for c in range(4)] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert players_of(n, 2, 0, join_combo(2, 3, 1, MODE_MULTIINPUT), MODE_MULTIINPUT) == (3, 5)


# built structure


def test_build_rejects_bad_params():
    with pytest.raises(NotPowerOfTwo):
        small_tournament(3)
    with pytest.raises(ValueError):
        small_tournament(4, mode="turbo")
    with pytest.raises(ValueError):
        small_tournament(4, deposit_option="escrow")


def test_funding_refs_must_be_distinct():
    # a deposit spending one ref twice would pass every other check, yet no
    # chain accepts it
    funding = make_funding(4)
    funding[1] = funding[0]
    with pytest.raises(ValueError, match="^need one distinct funding output per player$"):
        build_tournament(4, make_keys(4), funding, Rng("t"), t_commit=10, bet=1, tau=6)


def test_a_funding_txid_must_be_32_bytes():
    # `body_bytes` writes a txid with no length prefix, so a short one lets
    # two different bodies share their bytes; only the file reader refused it
    funding = make_funding(4)
    funding[0] = OutputRef(funding[0].txid[:31], 0)
    with pytest.raises(ValueError, match="^every funding txid must be 32 bytes$"):
        build_tournament(4, make_keys(4), funding, Rng("t"), t_commit=10, bet=1, tau=6)


@pytest.mark.parametrize("index", [1 << 32, -1])
def test_a_funding_output_index_must_fit_in_32_bits(index):
    # `body_bytes` packs an index as an unsigned 32-bit integer, so an index
    # outside that range raised struct.error from deep in the build
    funding = make_funding(4)
    funding[2] = OutputRef(funding[2].txid, index)
    with pytest.raises(ValueError, match=r"^every funding output index must be in 0\.\.2\*\*32-1$"):
        build_tournament(4, make_keys(4), funding, Rng("t"), t_commit=10, bet=1, tau=6)
    funding[2] = OutputRef(funding[2].txid, (1 << 32) - 1)
    build_tournament(4, make_keys(4), funding, Rng("t"), t_commit=10, bet=1, tau=6)


def test_kernel_population_matches_counts(plain4):
    for level in range(plain4.levels):
        for match in range(matches_at(4, level)):
            got = [kid for kid in plain4.kernels if kid.level == level and kid.match == match]
            assert len(got) == kernel_count(level)


def test_schedule_and_stride(plain4, multi8):
    assert plain4.level_stride == 2 * plain4.tau
    assert multi8.level_stride == 4 * multi8.tau
    for t in (plain4, multi8):
        for level in range(t.levels):
            t0, t1, t2 = t.schedule(level)
            assert (t0, t1, t2) == (
                t.t_commit + t.level_stride * level,
                t.t_commit + t.level_stride * level + t.tau,
                t.t_commit + t.level_stride * level + 2 * t.tau,
            )
            # a kernel holds no heights: t1 and t2 are its outcomes' locktimes
            k = t.kernel(level, 0, 0)
            assert (k.bodies[OUTCOMES[1]].locktime, k.bodies[OUTCOMES[0]].locktime) == (t1, t2)


def test_kernel_wiring_plain(plain4):
    # a final-level kernel's entry spends the two specific child outcomes
    # named by its combination index
    kid = KernelId(1, 0, 7)
    k = plain4.kernels[kid]
    (lk, lt), (rk, rt) = (divmod(choice, 3) for choice in split_combo(1, 7))
    assert (lk, lt, rk, rt) == (0, 2, 0, 1)
    left_child = plain4.kernels[KernelId(0, 0, lk)]
    right_child = plain4.kernels[KernelId(0, 1, rk)]
    refs = [spec.ref for spec in k.bodies[0].inputs]
    assert refs[0].txid == compute_ntxid(left_child.bodies[OUTCOMES[lt]])
    assert refs[1].txid == compute_ntxid(right_child.bodies[OUTCOMES[rt]])
    # pot doubles per level, outcomes each pay the full pot to one side
    for tx in (k.bodies[i] for i in OUTCOMES):
        assert sum(o.value for o in tx.outputs) == 4 * plain4.bet


def test_final_level_outcomes_pay_single_key(plain4):
    k = plain4.kernel(1, 0, 0)
    left_key, right_key = (plain4.master_keys[p] for p in players_of(4, 1, 0, 0))
    assert k.bodies[OUTCOMES[0]].outputs[0].predicate == KeySign(left_key)
    assert k.bodies[OUTCOMES[1]].outputs[0].predicate == KeySign(right_key)
    assert k.bodies[OUTCOMES[2]].outputs[0].predicate == KeySign(right_key)


def test_outcome_locktimes_follow_kernel_windows(plain4):
    for k in plain4.kernels.values():
        _, t1, t2 = plain4.schedule(k.id.level)
        assert k.bodies[OUTCOMES[0]].locktime == t2  # left wins by waiting out t2
        assert k.bodies[OUTCOMES[1]].locktime == t1  # right wins on silence at t1
        assert k.bodies[OUTCOMES[2]].locktime == 0  # parity win is immediate
        assert k.bodies[0].locktime == 0  # entries gate on availability, not height


# the kernel table


def test_the_kernel_table_races_two_rows_on_each_carried_output():
    # the rows spending each row's output, by the branch each takes: the
    # reveal against outcome b on the entry, and outcome b' against outcome
    # a on the reveal, each carried output with one spender per branch
    races: dict[str, dict[int, list[str]]] = {}
    for row in KERNEL:
        if row.spends is not None:
            races.setdefault(KERNEL[row.spends].role, {}).setdefault(row.branch, []).append(row.role)
    assert races == {
        ROLE_ENTRY: {BRANCH_REVEAL: [ROLE_REVEAL], BRANCH_TIMEOUT: [ROLE_OUTCOME_B]},
        ROLE_REVEAL: {BRANCH_REVEAL: [ROLE_OUTCOME_BP], BRANCH_TIMEOUT: [ROLE_OUTCOME_A]},
    }
    # what a row pays no one is carried on, and the rows that pay are the outcomes
    assert set(races) == {row.role for row in KERNEL if row.pays is None}
    assert [KERNEL[i].role for i in OUTCOMES] == [ROLE_OUTCOME_A, ROLE_OUTCOME_B, ROLE_OUTCOME_BP]


@pytest.mark.parametrize(
    "n,mode,deposit_option", [(4, MODE_PLAIN, "atomic"), (8, MODE_MULTIINPUT, DEPOSIT_HASHLOCKED)]
)
def test_each_built_row_takes_the_branch_its_table_row_names(n, mode, deposit_option):
    # the branch a row takes of the output it spends holds its lock, for a
    # timeout, or one preimage per side it opens, and odd parity when it opens both
    t = small_tournament(n, mode=mode, deposit_option=deposit_option)
    for kernel in t.kernels.values():
        _, t1, t2 = schedule = t.schedule(kernel.id.level)
        commits = kernel.commits
        bodies = kernel.bodies
        assert [body.locktime for body in bodies] == [0, 0, t2, t1, 0]
        for row, body in zip(KERNEL, bodies):
            if row.spends is None:
                continue
            spent = bodies[row.spends]
            assert [spec.ref for spec in body.inputs] == [OutputRef(spent.digests[0], 0)]
            assert body.locktime == (schedule[row.lock] if row.lock else 0)
            branches = spent.outputs[0].predicate.branches
            assert len(branches) == 2
            master, *terms = branches[row.branch].terms
            assert master == t.master
            if row.branch == BRANCH_TIMEOUT:
                assert terms == [AfterHeight(body.locktime)]
            else:
                opened = [HashPreimage(commits[side], (SLOT_LEFT, SLOT_RIGHT)[side]) for side in row.opens]
                parity = [XorParityOdd(SLOT_LEFT, SLOT_RIGHT)] if len(row.opens) == 2 else []
                assert terms == opened + parity


def test_deposit_atomic_shape(plain4):
    dep = plain4.deposit_bodies[0]
    assert len(dep.inputs) == 4 and len(dep.outputs) == 4
    master = AllSign(plain4.master_keys)
    assert all(o.predicate == master and o.value == plain4.bet for o in dep.outputs)
    assert build_deposit_atomic(plain4.funding, plain4.bet, master) == dep


def test_deposit_hashlocked_shape():
    t = small_tournament(4, deposit_option=DEPOSIT_HASHLOCKED)
    assert t.refund_time == t.t_commit
    assert len(t.deposit_bodies) == 4
    master = AllSign(t.master_keys)
    for i, body in enumerate(t.deposit_bodies):
        pred = body.outputs[0].predicate
        assert isinstance(pred, AnyOf) and len(pred.branches) == 2
        spend = pred.branches[BRANCH_DEPOSIT_SPEND]
        refund = pred.branches[BRANCH_DEPOSIT_REFUND]
        assert spend == AllOf((master, HashPreimage(t.mpc_digest, SLOT_MPC)))
        assert refund == AllOf((KeySign(t.master_keys[i]), AfterHeight(t.t_commit)))


def test_multiinput_compressions_gather_candidate_wins(multi8):
    from commitlotto.chain import FixedInput, MultiInput

    # entries spend one specific compression output per side
    k = multi8.kernel(1, 0, 0)
    assert all(isinstance(spec, FixedInput) for spec in k.bodies[0].inputs)
    a, b = players_of(8, 1, 0, 0, MODE_MULTIINPUT)
    assert (a, b) == (0, 2)
    assert k.bodies[0].inputs[0].ref.txid == multi8.compressions[(0, 0, a)].digests[0]
    assert k.bodies[0].inputs[1].ref.txid == multi8.compressions[(0, 1, b)].digests[0]

    # one compression per (match, candidate); its choice set holds every
    # outcome of that match paying the candidate, and exactly one can land
    comp = multi8.compressions[(1, 0, 0)]
    assert isinstance(comp.inputs[0], MultiInput)
    assert len(comp.inputs[0].refs) == 2  # candidate 0 is left in 2 of 4 combos

    # the root-level compression pays the candidate directly
    final = multi8.compressions[(2, 0, 5)]
    assert final.outputs[0].predicate == KeySign(multi8.master_keys[5])
    # non-final compressions stay in the joint custody of the group
    assert comp.outputs[0].predicate == AllSign(multi8.master_keys)


def test_secrets_are_fresh_per_kernel_per_side(plain4):
    values = list(plain4.secrets.values())
    assert len(values) == len(set(values))
    assert all(len(s) == 32 and any(s) for s in values)
    for kid, k in plain4.kernels.items():
        assert hashlib.sha256(plain4.secret(kid, SIDE_LEFT)).digest() == k.commits[0]
        assert hashlib.sha256(plain4.secret(kid, SIDE_RIGHT)).digest() == k.commits[1]


# the joint preimage and the refunds


# sha256 over joint_preimage(n, Rng(seed)) for the seeds 1, "commitlotto"
# and "mpc" and n = 1..64, recorded when an oracle object collected the
# inputs one by one before combining them
JOINT_PREIMAGE_GOLDEN = "191c82fa4765b8f7d7ff7a8c87ce24910604ff74c28937ebbf51f5c9288dc88c"


def test_the_joint_preimage_keeps_its_bytes():
    h = hashlib.sha256()
    for seed in (1, "commitlotto", "mpc"):
        for n in range(1, 65):
            h.update(joint_preimage(n, Rng(seed)))
    assert h.hexdigest() == JOINT_PREIMAGE_GOLDEN


class Draws:
    """An Rng stand-in: child `mpc/i` draws `inputs[i]`; the labels asked for are kept."""

    def __init__(self, inputs):
        self.inputs, self.labels = inputs, []

    def child(self, label):
        self.labels.append(label)
        secret = self.inputs[int(label.removeprefix("mpc/"))]
        return types.SimpleNamespace(nonzero_bytes=lambda size: secret[:size])


# a nonzero 32-byte input, its first 0 to 31 bytes zero
MPC_INPUTS = hs.tuples(hs.integers(0, 31), hs.binary(min_size=32, max_size=32)).map(
    lambda t: bytes(t[0]) + t[1][t[0]:]
).filter(any)


@settings(max_examples=200, deadline=None)
@given(hs.lists(MPC_INPUTS, min_size=1, max_size=64))
@example([b"\x01" * 32, b"\x01" * 32])
@example([bytes(31) + b"\x01", b"\x80" + bytes(31), b"\x80" + bytes(30) + b"\x02"])
def test_the_joint_preimage_is_the_bytewise_xor_of_its_draws(inputs):
    rng = Draws(inputs)
    got = joint_preimage(len(inputs), rng)
    assert rng.labels == [f"mpc/{i}" for i in range(len(inputs))]
    acc = bytes(32)
    for secret in inputs:
        acc = bytes(x ^ y for x, y in zip(acc, secret))
    assert got == acc


# sha256 over the ntxid of every seat's refund, in seat order, for hashlocked
# plain then multiinput tables with n = 2, 4, 8, 16 whose seat 0 never
# deposits; recorded when the runtime built the refund bodies itself
REFUND_GOLDEN = (60, "8bfd054c69fef79e6fb6b243c3d1d9660015f12a56ee16da073840fc4899ec2d")


def test_refunds_keep_their_ntxids():
    h = hashlib.sha256()
    count = 0
    for backend in (BTC_PLAIN, BTC_MULTI):
        for n in (2, 4, 8, 16):
            seats = ("abort-at-deposit",) + ("honest",) * (n - 1)
            cfg = ScenarioConfig(
                backend=backend, n=n, strategies=seats, deposit_option=DEPOSIT_HASHLOCKED
            )
            rt = ScaffoldRuntime(cfg, trial_rng(cfg.master_seed, 0))
            result = rt.run()
            assert not result.committed and result.returned == (0,) + (cfg.bet,) * (n - 1)
            ntxids = [body.digests[0] for body in build_refunds(rt.t)]
            assert sum(entry.ntxid in ntxids for entry in rt.chain.log) == n - 1
            for ntxid in ntxids:
                h.update(ntxid)
                count += 1
    assert (count, h.hexdigest()) == REFUND_GOLDEN


# signing ceremony


class YesDecider:
    """Approves every stage and records the (stage, view) it was asked about."""

    def __init__(self):
        self.asked = []

    def at_signing(self, view):
        self.asked.append(("signing", view))
        return True

    def at_deposit(self, view):
        self.asked.append(("deposit", view))
        return True


class RefuseAt(YesDecider):
    """Refuses the whole-scaffold view at one stage: "signing" or "deposit"."""

    def __init__(self, stage):
        super().__init__()
        self.stage = stage

    def at_signing(self, view):
        return super().at_signing(view) and self.stage != "signing"

    def at_deposit(self, view):
        return super().at_deposit(view) and self.stage != "deposit"


def keyed_oracle(t):
    oracle = SignatureOracle()
    for i, key in enumerate(t.master_keys):
        oracle.register_key(i, key)
    return oracle


def verifying_keys(oracle, t, body):
    digest = sig_digest_for(body)
    return [key for key in t.master_keys if oracle.verify(key, digest)]


def test_ceremony_collects_every_signature(plain4):
    oracle = keyed_oracle(plain4)
    deciders = [YesDecider() for _ in range(4)]
    res = signing_ceremony(plain4, deciders, oracle)
    assert res.complete and res.aborted_by is None
    assert res.bodies_signed == 56
    for item in iter_bodies(plain4):
        assert verifying_keys(oracle, plain4, item.body) == list(plain4.master_keys)
    # each player is asked once about the whole scaffold, then about the deposit
    for player, decider in enumerate(deciders):
        assert [stage for stage, _ in decider.asked] == ["signing", "deposit"]
        for _, view in decider.asked:
            assert view.player == player
            assert view.tournament is plain4


def test_ceremony_approvals_pass_the_all_key_check_by_either_path(plain4):
    # the scaffold's bodies pass by one probe of the approved registry; the
    # atomic deposit, signed key by key with `sign`, passes by the per-key check
    oracle = keyed_oracle(plain4)
    assert signing_ceremony(plain4, [YesDecider() for _ in range(4)], oracle).complete
    keys = plain4.master_keys
    master, named = AllSign(keys), InputWitness(keys)
    entry = sig_digest_for(plain4.kernel(0, 0, 0).bodies[0])
    deposit = sig_digest_for(plain4.deposit_bodies[0])
    assert oracle.verify_all(keys, entry) and not oracle.verify_all(keys, deposit)
    for digest in (entry, deposit):
        assert evaluate_explain(master, named, EvalContext(0, digest, oracle)) == (True, None)


def test_ceremony_abort_stops_before_any_exposure(plain4):
    oracle = keyed_oracle(plain4)
    deciders = [YesDecider(), YesDecider(), RefuseAt("signing"), YesDecider()]
    res = signing_ceremony(plain4, deciders, oracle)
    assert res.aborted_by == 2
    assert res.bodies_signed == 0
    assert [len(d.asked) for d in deciders] == [1, 1, 1, 0]
    for item in iter_bodies(plain4):
        assert verifying_keys(oracle, plain4, item.body) == []


def test_ceremony_deposit_refusal_leaves_deposit_unsigned(plain4):
    oracle = keyed_oracle(plain4)
    deciders = [YesDecider(), RefuseAt("deposit"), YesDecider(), YesDecider()]
    res = signing_ceremony(plain4, deciders, oracle)
    assert res.aborted_by == 1
    assert res.bodies_signed == 55
    assert verifying_keys(oracle, plain4, plain4.deposit_bodies[0]) == []


@pytest.mark.parametrize(
    "mode,deposit_option",
    [
        pytest.param(MODE_MULTIINPUT, "atomic", id="atomic"),
        pytest.param(MODE_MULTIINPUT, DEPOSIT_HASHLOCKED, id="hashlocked"),
        pytest.param("plain", "atomic", id="plain-atomic"),
    ],
)
def test_oracle_accepts_exactly_the_approved_scaffold(mode, deposit_option):
    t = small_tournament(4, mode=mode, deposit_option=deposit_option)
    oracle = keyed_oracle(t)
    assert signing_ceremony(t, [YesDecider() for _ in range(4)], oracle).complete
    atomic = deposit_option == "atomic"
    # a plain scaffold's kernels are built here, after the ceremony
    for item in iter_bodies(t):
        if item.role == "deposit" and not atomic:
            continue
        assert verifying_keys(oracle, t, item.body) == list(t.master_keys)
    k = t.kernels[KernelId(0, 0, 0)]
    outsiders = [k.bodies[0]._replace(locktime=k.bodies[0].locktime + 1)]
    if not atomic:
        # hashlocked deposits and their refunds are signed solo at submission
        outsiders.extend(t.deposit_bodies)
        outsiders.append(
            TransactionBody(
                inputs=(FixedInput(OutputRef(t.deposit_ntxids[0], 0)),),
                outputs=(TxOutput(t.bet, KeySign(t.master_keys[0])),),
                locktime=t.refund_time,
            )
        )
    for body in outsiders:
        assert verifying_keys(oracle, t, body) == []


# sha256 over ntxid || sig digest of every body, in iter_bodies order. The
# constants pin the canonical encoding: any change to it moves every ntxid,
# every signature digest and so every sweep output.
GOLDEN_ENCODINGS = {
    ("plain", "atomic"): (56, "b00d289f3413ddac420f54d1c8e8775fffa625cd277b7f0b4a085a7cacaab420"),
    ("multiinput", "hashlocked"): (
        42,
        "c5ac5e755042818d9eed5a590c9243562fe33cc84975e6bcf0db665ff80ceaea",
    ),
}


@pytest.mark.parametrize("mode,deposit_option", sorted(GOLDEN_ENCODINGS))
def test_scaffold_encoding_golden(mode, deposit_option):
    t = small_tournament(4, mode=mode, deposit_option=deposit_option, seed="golden")
    h = hashlib.sha256()
    bodies = iter_bodies(t)
    for item in bodies:
        h.update(item.ntxid + sig_digest_for(item.body))
    assert (len(bodies), h.hexdigest()) == GOLDEN_ENCODINGS[(mode, deposit_option)]


def test_ceremony_orders_deposit_last(plain4):
    plan = iter_bodies(plain4)
    assert plan[-1].role == "deposit"
    assert len(plan) == 56
    # without the deposit: kernels and nothing else
    assert sum(item.role != "deposit" for item in plan) == 55


# kernels built on demand


LAZY_CASES = [
    (BTC_PLAIN, 4, "atomic"),
    (BTC_PLAIN, 8, "atomic"),
    (BTC_PLAIN, 8, DEPOSIT_HASHLOCKED),
    (BTC_MULTI, 8, "atomic"),
]


@pytest.mark.parametrize("backend,n,deposit_option", LAZY_CASES)
def test_kernels_built_in_play_equal_an_upfront_build(backend, n, deposit_option):
    cfg = ScenarioConfig(
        backend=backend, n=n, strategies=("honest",) * n, deposit_option=deposit_option
    )
    upfront = ScaffoldRuntime(cfg, trial_rng(cfg.master_seed, 0)).t
    eager = dict(upfront.kernels)  # every kernel, before anything else reads one
    played = ScaffoldRuntime(cfg, trial_rng(cfg.master_seed, 0))
    # nothing but the deposits exists before play: no kernel and no compression
    assert not played.t.scaffold_digests
    assert played.run().committed
    t = played.t
    if backend == BTC_PLAIN:
        assert len(t.secrets) == 2 * (n - 1)  # play built one kernel per match
    assert dict(t.kernels) == eager  # every field, every body and every ntxid
    assert t.compressions == upfront.compressions
    assert t.scaffold_digests == upfront.scaffold_digests
    assert t.secrets == upfront.secrets
    for item in iter_bodies(t):
        if item.role == "deposit":
            continue
        assert sig_digest_for(item.body) in t.scaffold_digests
    assert verify_as_honest(t) == []


def test_honest_plain_trial_builds_one_kernel_per_match(monkeypatch):
    built = count_builds(monkeypatch)
    cfg = ScenarioConfig(backend=BTC_PLAIN, n=8, strategies=("honest",) * 8)
    result = run_trial(cfg, 0)
    assert result.committed and result.onchain_tx_count == 22
    kernels = built["kernel"]
    assert len(kernels) == len(set(kernels)) == 7
    assert sorted(kid.level for kid in kernels) == [0, 0, 0, 0, 1, 1, 2]
    assert built["compression"] == []


@pytest.mark.parametrize("n,kernels,compressions", [(8, 7, 13), (32, 31, 103)])
def test_honest_multiinput_trial_builds_what_its_compressions_spend(
    monkeypatch, n, kernels, compressions
):
    # a compression spends every outcome that pays its candidate, and each
    # of those kernels spends the compressions of its opponents, so play
    # forces more than one compression per match, though fewer than the
    # whole scaffold (24 at n=8, 160 at n=32); but a compression reads only
    # the ids of the kernels it spends (`Tournament.kernel_ids`), so play
    # builds one kernel per match, of 28 at n=8 and 496 at n=32
    built = count_builds(monkeypatch)
    cfg = ScenarioConfig(backend=BTC_MULTI, n=n, strategies=("honest",) * n)
    result = run_trial(cfg, 0)
    assert result.committed and result.onchain_tx_count == 4 * (n - 1) + 1
    assert len(built["kernel"]) == len(set(built["kernel"])) == kernels
    assert len(built["compression"]) == len(set(built["compression"])) == compressions


def test_copies_of_a_partly_built_scaffold_stay_independent():
    t = small_tournament(8)
    top, other = KernelId(2, 0, 500), KernelId(2, 0, 7)
    t.kernels[top]  # builds it and the child kernels its stakes spend
    built = (len(t.secrets), len(t.scaffold_digests))
    assert built[0] == 2 * 7

    twin = copy.deepcopy(t)
    twin.kernels[other]
    assert (len(t.secrets), len(t.scaffold_digests)) == built
    assert len(twin.secrets) > built[0]
    t.kernels[KernelId(1, 1, 3)]
    assert (KernelId(1, 1, 3), SIDE_LEFT) not in twin.secrets

    # a tournament is its own constructor: one made with other keys builds
    # from them, as a fresh build with those keys does, and leaves `t` as it
    # was; the tables take no writes
    base = small_tournament(8)
    fresh = dict(base.kernels)
    keys = tuple(reversed(t.master_keys))
    swapped = dataclasses.replace(t, master_keys=keys)
    rebuilt = build_tournament(8, keys, make_funding(8), Rng("t"), t_commit=10, bet=1, tau=6)
    late = KernelId(2, 0, 8)
    assert swapped.kernels[late] == rebuilt.kernels[late] != fresh[late]
    assert dict(swapped.kernels) == dict(rebuilt.kernels)
    assert swapped == rebuilt and swapped.deposit_bodies == rebuilt.deposit_bodies
    assert swapped.scaffold_digests == rebuilt.scaffold_digests
    assert t.kernels[top] == fresh[top]
    with pytest.raises(TypeError):
        t.kernels[top] = fresh[other]
    with pytest.raises(TypeError):
        del twin.kernels[top]
    assert dict(t.kernels) == fresh == dict(twin.kernels)
    assert t == base != swapped


@pytest.mark.parametrize("mode,deposit_option", [("plain", "atomic"), ("multiinput", DEPOSIT_HASHLOCKED)])
@pytest.mark.parametrize("source", ["build", "file"])
def test_a_scaffold_read_whole_leaves_no_garbage(mode, deposit_option, source):
    # the tables are views made on each read, so nothing a tournament
    # stores refers back to it, however much of it has been built; the
    # file is written first, as json's indenting encoder leaves cycles
    text = dump_tournament(small_tournament(8, mode=mode, deposit_option=deposit_option))

    def read_whole():
        if source == "file":
            t = load_tournament(text)
        else:
            t = small_tournament(8, mode=mode, deposit_option=deposit_option)
        assert len(dict(t.kernels)) == t.stats.kernel_bodies // 5
        assert len(dict(t.compressions)) == t.stats.compression_count
        assert verify_as_honest(t) == []
        assert export_dot(t).startswith("digraph")

    gc.collect()
    gc.disable()
    try:
        read_whole()
        assert gc.collect() == 0
    finally:
        gc.enable()


# honest verification


def test_verify_accepts_honest_build(plain4, multi8):
    assert verify_as_honest(plain4) == []
    assert verify_as_honest(multi8) == []
    t = small_tournament(4, deposit_option=DEPOSIT_HASHLOCKED)
    assert verify_as_honest(t) == []


def doctored(t, edit):
    """`t` written out, its file record edited in place by `edit`, and read back."""
    doc = json.loads(dump_tournament(t))
    edit(doc)
    return load_tournament(json.dumps(doc))


def kernel_record(doc, kid):
    (record,) = [k for k in doc["kernels"] if (k["level"], k["match"], k["combo"]) == tuple(kid)]
    return record


def test_verify_flags_duplicate_commitment(plain4):
    def edit(doc):
        kernel_record(doc, (0, 1, 0))["left_commit"] = kernel_record(doc, (0, 0, 0))["left_commit"]

    assert verify_as_honest(doctored(plain4, edit)) == [
        scaffold_module.Violation(
            KernelId(0, 1, 0), "DuplicateCommitment", "side 0 repeats commitment of kernel (0, 0, 0) side 0"
        )
    ]


def test_verify_flags_missing_and_extra_kernels(plain4):
    def drop(doc):
        doc["kernels"].remove(kernel_record(doc, (1, 0, 8)))

    def extra(doc):
        doc["kernels"].append({**kernel_record(doc, (1, 0, 8)), "combo": 9})

    missing = scaffold_module.Violation(KernelId(1, 0, 8), "MissingKernel", "kernel absent from scaffold")
    assert verify_as_honest(doctored(plain4, drop)) == [missing]
    unexpected = scaffold_module.Violation(KernelId(1, 0, 9), "UnexpectedKernel", "kernel not part of the bracket")
    assert verify_as_honest(doctored(plain4, extra)) == [unexpected]


def test_a_replaced_body_brings_its_own_id(multi8):
    # no record stores an id beside its body, so none can go stale
    k = multi8.kernel(1, 0, 0)
    forged = k.bodies[0]._replace(locktime=k.bodies[0].locktime + 1)
    want = forged.digests[0]
    assert want != k.ntxids[0]
    for i in range(len(KERNEL)):
        bodies = tuple(forged if j == i else b for j, b in enumerate(k.bodies))
        got = dataclasses.replace(k, bodies=bodies).ntxids
        assert got == tuple(want if j == i else n for j, n in enumerate(k.ntxids))
    item = iter_bodies(multi8)[0]
    assert item._replace(body=forged).ntxid == want != item.ntxid
    assert LogEntry(item.body, None, 0)._replace(body=forged).ntxid == want
    # an id cannot be passed in, nor set afterwards, on a kernel; a
    # scaffold's deposits are built from its parameters, so neither they
    # nor their ids can be passed in or set
    fields = {f.name: getattr(k, f.name) for f in dataclasses.fields(k) if f.init}
    with pytest.raises(TypeError):
        Kernel(**fields, ntxids=(want,) * len(KERNEL))
    with pytest.raises(dataclasses.FrozenInstanceError):
        k.ntxids = (want,) * len(KERNEL)
    for name in ("deposit_bodies", "deposit_ntxids"):
        with pytest.raises(ValueError):
            dataclasses.replace(multi8, **{name: getattr(multi8, name)})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(multi8, name, getattr(multi8, name))


def test_verify_rejects_bad_player_count():
    t = small_tournament(4)
    t = dataclasses.replace(t, master_keys=t.master_keys[:3] + (t.master_keys[0],))
    assert {v.rule for v in verify_as_honest(t)} == {"BadParams"}


# serialization


@pytest.mark.parametrize(
    "n,mode,deposit_option",
    [
        (4, "plain", "atomic"), (8, "plain", "atomic"), (8, "multiinput", DEPOSIT_HASHLOCKED),
        (4, "multiinput", "atomic"), (8, "plain", DEPOSIT_HASHLOCKED),
    ],
)
def test_json_round_trip_preserves_public_state(n, mode, deposit_option):
    # a file read back is the object the build made: construction runs on
    # the same parameters and commitments, so every body, and every digest
    # a signer approves, is the one the build has
    t = small_tournament(n, mode=mode, deposit_option=deposit_option)
    text = dump_tournament(t)
    assert json.loads(text)["format"] == FORMAT_TAG
    back = load_tournament(text)
    assert back.n == t.n and back.mode == t.mode
    assert back.secrets == {}  # secrets never travel
    assert dict(back.kernels) == dict(t.kernels)
    assert dict(back.compressions) == dict(t.compressions)
    assert back.deposit_bodies == t.deposit_bodies
    assert back.scaffold_digests == t.scaffold_digests  # both tables iterated
    assert verify_as_honest(back) == []


def test_dump_load_text_round_trip(multi8):
    text = dump_tournament(multi8)
    back = load_tournament(text)
    assert back.compressions.keys() == multi8.compressions.keys()
    assert verify_as_honest(back) == []


def test_load_rejects_wrong_format_tag(plain4):
    doc = json.loads(dump_tournament(plain4))
    doc["format"] = "something-else"
    with pytest.raises(ValueError, match="not a scaffold file"):
        load_tournament(json.dumps(doc))


def test_export_dot_mentions_every_kernel(plain4):
    dot = export_dot(plain4)
    assert dot.startswith("digraph")
    for kid in plain4.kernels:
        assert f"k{kid.level}_{kid.match}_{kid.combo}" in dot
