"""Account VM and the lottery/master contracts."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from commitlotto.contracts import (
    Master,
    Reverted,
    TwoPartyLottery,
    Vm,
    build_tree,
    commit_digest,
    match_winner,
)
from commitlotto.harness import ETH, ContractRuntime, ScenarioConfig, trial_rng
from commitlotto.strategies import Strategy

from conftest import fresh_players, fresh_winner

TAU = 6
T_COMMIT = 10


def reverts(reason):
    return pytest.raises(Reverted, match=rf"^{reason}$")


# commitment digest


def test_commit_digest_frozen_formula():
    assert commit_digest("alice", 7) == hashlib.sha256(
        b"alice" + (7).to_bytes(32, "big")
    ).digest()


def test_commit_digest_binds_address():
    assert commit_digest("alice", 7) != commit_digest("bob", 7)


def test_commit_digest_rejects_degenerate_secrets():
    with pytest.raises(ValueError):
        commit_digest("alice", 0)
    with pytest.raises(ValueError):
        commit_digest("alice", 1 << 256)


# vm semantics


class Flaky:
    """Test contract: mutates state, optionally pays, then maybe reverts."""

    METHODS = ("poke", "read")

    def __init__(self):
        self.count = 0
        self.address = ""

    def snapshot(self):
        return self.count

    def restore(self, state):
        self.count = state

    def poke(self, ctx, pay_to=None, blow_up=False):
        self.count += 1
        if pay_to is not None:
            ctx.pay(pay_to, 1)
        if blow_up:
            raise Reverted("Boom")
        return self.count

    def read(self, ctx):
        return self.count


def test_call_applies_and_traces():
    vm = Vm()
    vm.create("f", Flaky())
    assert vm.call("alice", "f", "poke") == 1
    assert vm.contracts["f"].count == 1
    rec = vm.trace[-1]
    assert (rec.contract, rec.method, rec.ok) == ("f", "poke", True)


def test_revert_rolls_back_state_and_money():
    vm = Vm()
    vm.create("f", Flaky())
    vm.fund("f", 5)
    with reverts("Boom"):
        vm.call("alice", "f", "poke", "bob", True)
    assert vm.contracts["f"].count == 0
    assert vm.balance("bob") == 0
    assert vm.balance("f") == 5
    rec = vm.trace[-1]
    assert (rec.ok, rec.info) == (False, "Boom")


class WrongOpening(Strategy):
    """Test-only seat: commits to its secret, then opens with another."""

    def at_open(self, view):
        return view.my_secret ^ 1


def test_every_runtime_action_is_one_vm_call(monkeypatch):
    # the runtime's only way onto the chain is `Vm.call`, once per action,
    # whether the action lands or reverts; the benchmark's tracer counts it there
    calls = []
    call = Vm.call

    def counted(self, *args, **kw):
        calls.append(args)
        return call(self, *args, **kw)

    monkeypatch.setattr(Vm, "call", counted)
    # 64 deposits, 2 commits and 2 opens in each of 63 matches, and the payout
    c = ScenarioConfig(backend=ETH, n=64, strategies=("honest",) * 64)
    rt = ContractRuntime(c, trial_rng(c.master_seed, 0), 0)
    rt.run()
    assert len(calls) == len(rt.vm.trace) == 64 + 4 * 63 + 1
    assert all(rec.ok for rec in rt.vm.trace)

    # no catalogued strategy sends a call that reverts, so a test seat does:
    # its opening, offered at the first and the last height of the open
    # window, reverts each time, is traced once each time, and play goes on
    c = ScenarioConfig(backend=ETH, n=8, strategies=("honest",) * 8)
    rt = ContractRuntime(c, trial_rng(c.master_seed, 0), 0)
    rt.strats[2] = WrongOpening(2)
    calls.clear()
    r = rt.run()
    assert len(calls) == len(rt.vm.trace)
    _, t1, t2 = rt.tree.schedule(0)
    reverted = [
        (rec.height, rec.sender, rec.contract, rec.method, rec.info) for rec in rt.vm.trace if not rec.ok
    ]
    assert reverted == [(h, "P2", "lot:0:1", "open", "BadOpening") for h in (t1 + 1, t2 - 1)]
    assert r.committed and r.winner is not None and sum(r.payoffs) == 0
    assert rt.vm.static_call("observer", "lot:0:1", "get_winner") == "P3"


def test_static_call_rolls_back_and_leaves_no_trace():
    vm = Vm()
    vm.create("f", Flaky())
    before = len(vm.trace)
    assert vm.static_call("alice", "f", "poke") == 1
    assert vm.contracts["f"].count == 0
    assert len(vm.trace) == before


class Relay:
    """Test contract: records a payee, pays it, then enters another contract twice."""

    METHODS = ("relay",)

    def __init__(self):
        self.payees = []
        self.address = ""

    def snapshot(self):
        return list(self.payees)

    def restore(self, state):
        self.payees = list(state)

    def relay(self, ctx, payee, target, blow_up):
        self.payees.append(payee)
        ctx.pay(payee, 1)
        ctx.call(target, "poke")  # a write the second entry must not re-snapshot
        return ctx.call(target, "poke", None, blow_up)


def relay_vm():
    vm = Vm()
    vm.create("r", Relay())
    vm.create("f", Flaky())
    vm.fund("r", 5)
    vm.fund("alice", 3)
    vm.fund("dave", 0)  # a key held at zero must stay a key
    return vm


@pytest.mark.parametrize("payee", ["carol", "dave"])
def test_revert_restores_every_contract_and_the_exact_balance_keys(payee):
    vm = relay_vm()
    before = dict(vm.balances)
    with reverts("Boom"):
        vm.call("alice", "r", "relay", payee, "f", True, value=1)
    assert vm.contracts["r"].payees == []
    assert vm.contracts["f"].count == 0
    assert vm.balances == before
    if payee not in before:
        vm.create(payee, Flaky())  # the address a reverted call paid is still free
    assert (vm.trace[-1].ok, vm.trace[-1].info) == (False, "Boom")


def test_static_call_of_a_nested_write_leaves_both_contracts_unchanged():
    vm = relay_vm()
    before = dict(vm.balances)
    assert vm.static_call("alice", "r", "relay", "carol", "f", False) == 2
    assert vm.contracts["r"].payees == []
    assert vm.contracts["f"].count == 0
    assert vm.balances == before
    assert vm.trace == []
    vm.create("carol", Flaky())


def test_a_call_snapshots_only_the_contracts_it_enters(monkeypatch):
    # one call's rollback cost follows what it touches, not what is deployed
    entered = []
    for cls in (Relay, Flaky):
        snapshot = cls.snapshot
        monkeypatch.setattr(
            cls, "snapshot", lambda c, snapshot=snapshot: entered.append(c.address) or snapshot(c)
        )
    counts = {}
    for others in (1, 200):
        vm = relay_vm()
        for i in range(others):
            vm.create(f"other{i}", Flaky())
        entered.clear()
        vm.call("alice", "r", "relay", "carol", "f", False)
        vm.static_call("alice", "r", "relay", "carol", "f", False)
        with reverts("Boom"):
            vm.call("alice", "r", "relay", "carol", "f", True)
        counts[others] = sorted(entered)
    assert counts[1] == counts[200] == ["f", "f", "f", "r", "r", "r"]


def test_vm_guards():
    vm = Vm()
    vm.create("f", Flaky())
    with reverts("NoSuchContract"):
        vm.call("alice", "ghost", "poke")
    with reverts("NoSuchMethod"):
        vm.call("alice", "f", "snapshot")
    with reverts("NoSuchMethod"):
        vm.call("alice", "f", "_private")
    with reverts("InsufficientFunds"):
        vm.call("alice", "f", "poke", value=1)
    with pytest.raises(ValueError):
        vm.create("f", Flaky())
    with pytest.raises(ValueError):
        vm.advance(-1)


def test_value_transfer_conserves_total():
    vm = Vm()
    vm.create("f", Flaky())
    vm.fund("alice", 3)
    vm.call("alice", "f", "poke", value=2)
    assert vm.balance("alice") == 1
    assert vm.balance("f") == 2
    assert sum(vm.balances.values()) == 3


# two-party lottery


def fresh_match():
    """A lone match "m" between alice and bob, the two seats of a full master."""
    vm = Vm()
    vm.create("master", Master(n=2, bet=1, t_commit=T_COMMIT, t_final=T_COMMIT + 2 * TAU))
    for who in ("alice", "bob"):
        vm.fund(who, 1)
        vm.call(who, "master", "deposit", value=1)
    vm.create(
        "m",
        TwoPartyLottery(
            t0=T_COMMIT, t1=T_COMMIT + TAU, t2=T_COMMIT + 2 * TAU, master="master", seats=(0, 1)
        ),
    )
    return vm


def commit(vm, who, secret):
    vm.call(who, "m", "commit", commit_digest(who, secret))


def test_commit_window_is_strict():
    vm = fresh_match()
    vm.advance_to(T_COMMIT)
    with reverts("TooEarly"):
        commit(vm, "alice", 6)
    vm.advance()
    commit(vm, "alice", 6)
    vm.advance_to(T_COMMIT + TAU)
    with reverts("TooLate"):
        commit(vm, "bob", 3)


def test_commit_rejections():
    vm = fresh_match()
    vm.advance_to(T_COMMIT + 1)
    with reverts("BadCommitment"):
        vm.call("alice", "m", "commit", b"\x00" * 32)
    with reverts("BadCommitment"):
        vm.call("alice", "m", "commit", b"\x01" * 31)
    with reverts("NotAPlayer"):
        vm.call("carol", "m", "commit", commit_digest("carol", 5))
    vm.fund("alice", 1)
    with reverts("WrongValue"):
        vm.call("alice", "m", "commit", commit_digest("alice", 6), value=1)
    commit(vm, "alice", 6)
    with reverts("AlreadyCommitted"):
        commit(vm, "alice", 6)


def test_open_window_and_rejections():
    vm = fresh_match()
    vm.advance_to(T_COMMIT + 1)
    commit(vm, "alice", 6)
    commit(vm, "bob", 3)
    with reverts("TooEarly"):
        vm.call("alice", "m", "open", 6)
    vm.advance_to(T_COMMIT + TAU + 1)
    with reverts("NoCommit"):
        vm.call("carol", "m", "open", 5)
    with reverts("BadOpening"):
        vm.call("alice", "m", "open", 7)  # wrong preimage
    with reverts("BadOpening"):
        vm.call("alice", "m", "open", 0)
    vm.call("alice", "m", "open", 6)
    with reverts("AlreadyOpened"):
        vm.call("alice", "m", "open", 6)
    vm.advance_to(T_COMMIT + 2 * TAU)
    with reverts("TooLate"):
        vm.call("bob", "m", "open", 3)


def test_replayed_commitment_cannot_be_opened():
    # bob copies alice's digest; binding to the sender's address makes it
    # unopenable for him even knowing the secret
    vm = fresh_match()
    vm.advance_to(T_COMMIT + 1)
    digest = commit_digest("alice", 6)
    vm.call("alice", "m", "commit", digest)
    vm.call("bob", "m", "commit", digest)
    vm.advance_to(T_COMMIT + TAU + 1)
    vm.call("alice", "m", "open", 6)
    with reverts("BadOpening"):
        vm.call("bob", "m", "open", 6)
    vm.advance_to(T_COMMIT + 2 * TAU)
    assert vm.call("carol", "m", "get_winner") == "alice"


def play(sa, sb, open_a=True, open_b=True):
    vm = fresh_match()
    vm.advance_to(T_COMMIT + 1)
    if sa is not None:
        commit(vm, "alice", sa)
    if sb is not None:
        commit(vm, "bob", sb)
    vm.advance_to(T_COMMIT + TAU + 1)
    if sa is not None and open_a:
        vm.call("alice", "m", "open", sa)
    if sb is not None and open_b:
        vm.call("bob", "m", "open", sb)
    vm.advance_to(T_COMMIT + 2 * TAU)
    return vm.call("carol", "m", "get_winner")


def test_parity_decides_when_both_open():
    assert play(6, 3) == "bob"  # 6 xor 3 = 5, odd
    assert play(6, 4) == "alice"  # 6 xor 4 = 2, even
    assert play(7, 3) == "alice"
    assert play(7, 4) == "bob"


def test_walkover_table():
    assert play(None, 3) == "bob"  # a never commits
    assert play(6, None) == "alice"  # b never commits
    assert play(None, None) == "bob"  # double default goes to the second seat
    assert play(6, 3, open_a=False) == "bob"  # a hides its opening
    assert play(6, 3, open_b=False) == "alice"
    assert play(6, 3, open_a=False, open_b=False) == "bob"


def test_winner_unreadable_before_t2():
    vm = fresh_match()
    vm.advance_to(T_COMMIT + 2 * TAU - 1)
    with reverts("TooEarly"):
        vm.call("carol", "m", "get_winner")


def test_seat_side_unresolved_until_table_fills():
    vm = Vm()
    vm.create("master", Master(n=2, bet=1, t_commit=T_COMMIT, t_final=99))
    vm.create(
        "m",
        TwoPartyLottery(
            t0=T_COMMIT,
            t1=T_COMMIT + TAU,
            t2=T_COMMIT + 2 * TAU,
            master="master",
            seats=(1, 0),
        ),
    )
    assert vm.static_call("x", "m", "participants") == (None, None)
    vm.fund("alice", 1), vm.fund("bob", 1)
    vm.call("alice", "master", "deposit", value=1)
    assert vm.static_call("x", "m", "participants") == (None, None)  # still short one seat
    vm.call("bob", "master", "deposit", value=1)
    assert vm.static_call("x", "m", "participants") == ("bob", "alice")  # in seat order


# master contract


def funded_master(n=2, bet=5):
    vm = Vm()
    vm.create("master", Master(n=n, bet=bet, t_commit=T_COMMIT, t_final=T_COMMIT + 12))
    names = [f"p{i}" for i in range(n + 1)]
    for name in names:
        # roomy balances so contract guards fire before InsufficientFunds
        vm.fund(name, 2 * bet + 1)
    return vm, names


def test_deposit_rules():
    vm, names = funded_master(n=2, bet=5)
    with reverts("WrongValue"):
        vm.call("p0", "master", "deposit", value=4)
    vm.call("p0", "master", "deposit", value=5)
    with reverts("AlreadyDeposited"):
        vm.call("p0", "master", "deposit", value=5)
    vm.call("p1", "master", "deposit", value=5)
    with reverts("Full"):
        vm.call("p2", "master", "deposit", value=5)
    assert vm.static_call("x", "master", "is_complete")
    assert vm.contracts["master"].players == ["p0", "p1"]


def test_deposit_closes_at_commit_deadline():
    vm, _ = funded_master()
    vm.advance_to(T_COMMIT)
    with reverts("TooLate"):
        vm.call("p0", "master", "deposit", value=5)


def test_refund_path_when_table_never_fills():
    vm, _ = funded_master(n=2, bet=5)
    vm.call("p0", "master", "deposit", value=5)
    with reverts("TooEarly"):
        vm.call("p0", "master", "withdraw")
    vm.advance_to(T_COMMIT)
    before = vm.balance("p0")
    assert vm.call("p0", "master", "withdraw") == 5
    assert vm.balance("p0") == before + 5
    with reverts("NothingToWithdraw"):
        vm.call("p0", "master", "withdraw")
    with reverts("NothingToWithdraw"):
        vm.call("p1", "master", "withdraw")


def test_winner_withdraw_pays_whole_pot_once():
    vm = Vm()
    tree = build_tree(vm, 2, bet=5, tau=TAU, t_commit=T_COMMIT)
    for name in ("p0", "p1"):
        vm.fund(name, 5)
        vm.call(name, tree.master, "deposit", value=5)
    vm.advance_to(T_COMMIT + 1)
    vm.call("p0", tree.final, "commit", commit_digest("p0", 6))
    vm.call("p1", tree.final, "commit", commit_digest("p1", 3))
    vm.advance_to(T_COMMIT + TAU + 1)
    vm.call("p0", tree.final, "open", 6)
    vm.call("p1", tree.final, "open", 3)
    with reverts("TooEarly"):
        vm.call("p1", tree.master, "withdraw")
    vm.advance_to(tree.t_final)
    with reverts("NotWinner"):
        vm.call("p0", tree.master, "withdraw")  # parity went to p1
    assert vm.call("p1", tree.master, "withdraw") == 10
    assert vm.balance("p1") == 10
    with reverts("AlreadyPaid"):
        vm.call("p1", tree.master, "withdraw")
    assert sum(vm.balances.values()) == 10


# tree deployment


def test_build_tree_shape_and_schedule():
    vm = Vm()
    tree = build_tree(vm, 8, bet=1, tau=TAU, t_commit=T_COMMIT)
    assert len(tree.lotteries) == 7
    assert tree.t_final == T_COMMIT + 2 * TAU * 3
    assert tree.final == tree.lottery(2, 0)
    for level in range(3):
        t0, t1, t2 = tree.schedule(level)
        assert (t0, t1, t2) == (T_COMMIT + 2 * TAU * level,) + (t0 + TAU, t0 + 2 * TAU)
        for match in range(8 >> (level + 1)):
            lot = vm.contracts[tree.lottery(level, match)]
            assert (lot.t0, lot.t1, lot.t2) == (t0, t1, t2)
    # level-0 matches are seat-wired, later ones child-wired
    for match in range(4):
        lot = vm.contracts[tree.lottery(0, match)]
        assert (lot.master, lot.seats, lot.children) == (tree.master, (2 * match, 2 * match + 1), ())
    lot = vm.contracts[tree.lottery(1, 1)]
    assert (lot.master, lot.seats, lot.children) == ("", (), (tree.lottery(0, 2), tree.lottery(0, 3)))


def test_build_tree_rejects_bad_params():
    with pytest.raises(ValueError):
        build_tree(Vm(), 3, 1, TAU, T_COMMIT)
    with pytest.raises(ValueError):
        build_tree(Vm(), 4, 1, 1, T_COMMIT)


def test_later_round_resolves_child_winner_lazily():
    vm = Vm()
    tree = build_tree(vm, 4, bet=1, tau=TAU, t_commit=T_COMMIT)
    for i in range(4):
        vm.fund(f"p{i}", 1)
        vm.call(f"p{i}", tree.master, "deposit", value=1)
    # play round 0: both matches decided by parity
    vm.advance_to(T_COMMIT + 1)
    secrets = {"p0": 6, "p1": 3, "p2": 8, "p3": 2}
    for match, pair in ((0, ("p0", "p1")), (1, ("p2", "p3"))):
        for who in pair:
            vm.call(who, tree.lottery(0, match), "commit", commit_digest(who, secrets[who]))
    vm.advance_to(T_COMMIT + TAU + 1)
    for match, pair in ((0, ("p0", "p1")), (1, ("p2", "p3"))):
        for who in pair:
            vm.call(who, tree.lottery(0, match), "open", secrets[who])
    # 6^3 odd -> p1; 8^2 even -> p2
    t0, t1, t2 = tree.schedule(1)
    vm.advance_to(t0 + 1)
    assert vm.static_call("x", tree.final, "participants") == ("p1", "p2")
    vm.call("p1", tree.final, "commit", commit_digest("p1", 9))
    vm.call("p2", tree.final, "commit", commit_digest("p2", 4))
    vm.advance_to(t1 + 1)
    vm.call("p1", tree.final, "open", 9)
    vm.call("p2", tree.final, "open", 4)
    vm.advance_to(tree.t_final)
    # 9^4 = 13, odd -> p2
    assert vm.call("p2", tree.master, "withdraw") == 4


# a settled match's winner


class Peek:
    """Test contract: reads a lottery's winner inside a call, then maybe reverts."""

    METHODS = ("peek",)

    def __init__(self):
        self.address = ""

    def snapshot(self):
        return None

    def restore(self, state):
        pass

    def peek(self, ctx, target, blow_up):
        winner = ctx.call(target, "get_winner")
        if blow_up:
            raise Reverted("Boom")
        return winner


def kept(vm, address):
    """The winner a lottery keeps from earlier reads; None when it keeps none."""
    return getattr(vm.contracts[address], "_winner", None)


def test_an_early_read_keeps_nothing_and_the_read_at_t2_is_final():
    for bob_opens, expected in ((True, "bob"), (False, "alice")):  # 6 ^ 3 odd; walkover
        vm = fresh_match()
        vm.advance_to(T_COMMIT + 1)
        commit(vm, "alice", 6)
        commit(vm, "bob", 3)
        vm.advance_to(T_COMMIT + TAU + 1)
        vm.call("alice", "m", "open", 6)
        vm.advance_to(T_COMMIT + 2 * TAU - 1)
        with reverts("TooEarly"):
            vm.call("carol", "m", "get_winner")
        with reverts("TooEarly"):
            vm.static_call("carol", "m", "get_winner")
        assert kept(vm, "m") is None
        if bob_opens:
            vm.call("bob", "m", "open", 3)  # the last open height, after the early reads
        vm.advance_to(T_COMMIT + 2 * TAU)
        assert vm.static_call("carol", "m", "get_winner") == expected
        assert vm.call("carol", "m", "get_winner") == expected
        assert kept(vm, "m") in (None, expected)


def played_tree(n, deposits=None):
    """A tree whose first `deposits` seats filled and whose matches all played."""
    vm = Vm()
    tree = build_tree(vm, n, bet=1, tau=TAU, t_commit=T_COMMIT)
    vm.create("peek", Peek())
    for i in range(n if deposits is None else deposits):
        vm.fund(f"p{i}", 1)
        vm.call(f"p{i}", tree.master, "deposit", value=1)
    secret = lambda who, level: int(who[1:]) + level + 1
    for level in range(n.bit_length() - 1):
        t0, t1, _ = tree.schedule(level)
        lotteries = [tree.lottery(level, match) for match in range(n >> (level + 1))]
        vm.advance_to(t0 + 1)
        for addr in lotteries:
            for who in vm.static_call("x", addr, "participants"):
                if who is not None:
                    vm.call(who, addr, "commit", commit_digest(who, secret(who, level)))
        vm.advance_to(t1 + 1)
        for addr in lotteries:
            for who in list(vm.contracts[addr].commits):
                vm.call(who, addr, "open", secret(who, level))
    vm.advance_to(tree.t_final)
    return vm, tree


def test_a_tree_read_below_t2_reverts_and_keeps_nothing():
    vm = Vm()
    tree = build_tree(vm, 4, bet=1, tau=TAU, t_commit=T_COMMIT)
    for i in range(4):
        vm.fund(f"p{i}", 1)
        vm.call(f"p{i}", tree.master, "deposit", value=1)
    _, _, t2 = tree.schedule(0)
    vm.advance_to(t2)  # level 0 is settled, the final is not
    with reverts("TooEarly"):
        vm.static_call("x", tree.final, "get_winner")
    assert kept(vm, tree.final) is None
    for match in (0, 1):
        addr = tree.lottery(0, match)
        assert vm.static_call("x", addr, "get_winner") == fresh_winner(vm, addr)


@pytest.mark.parametrize("how", ["reverted call", "static call"])
def test_a_read_that_is_rolled_back_keeps_the_fresh_winner(how):
    vm, tree = played_tree(4)
    if how == "reverted call":
        with reverts("Boom"):
            vm.call("x", "peek", "peek", tree.final, True)
    else:
        assert vm.static_call("x", "peek", "peek", tree.final, False) == fresh_winner(vm, tree.final)
    for addr in tree.lotteries.values():
        winner = fresh_winner(vm, addr)
        assert winner is not None
        assert kept(vm, addr) in (None, winner)
        assert vm.static_call("x", addr, "get_winner") == winner
    assert vm.call("x", "peek", "peek", tree.final, False) == fresh_winner(vm, tree.final)


def test_a_table_that_never_filled_has_no_winner_and_keeps_none():
    vm, tree = played_tree(4, deposits=3)
    for addr in tree.lotteries.values():
        assert vm.static_call("x", addr, "get_winner") is None
        assert vm.call("x", addr, "get_winner") is None
        assert kept(vm, addr) is None


@settings(max_examples=60, deadline=None)
@given(
    choices=hs.lists(
        hs.tuples(hs.booleans(), hs.booleans(), hs.booleans(), hs.integers(1, 15)),
        min_size=14,
        max_size=14,
    ),
    reads=hs.lists(hs.sampled_from(["static", "call", "reverted"]), min_size=1, max_size=8),
    top_down=hs.booleans(),
)
def test_every_winner_read_from_t2_on_equals_a_fresh_recomputation(choices, reads, top_down):
    # per (match, side): commit?, open?, act on the window's first height?, secret
    n = 8
    vm = Vm()
    tree = build_tree(vm, n, bet=1, tau=TAU, t_commit=T_COMMIT)
    vm.create("peek", Peek())
    for i in range(n):
        vm.fund(f"p{i}", 1)
        vm.call(f"p{i}", tree.master, "deposit", value=1)
    order = sorted(tree.lotteries, reverse=top_down)
    stops = sorted(
        {h for level in range(3) for t0, t1, t2 in [tree.schedule(level)]
         for h in (t0 + 1, t1 - 1, t1 + 1, t2 - 1, t2)}
    )
    count = 0
    for h in stops:
        vm.advance_to(h)
        for k, (level, match) in enumerate(sorted(tree.lotteries)):
            addr = tree.lottery(level, match)
            lot = vm.contracts[addr]
            if not lot.t0 < h < lot.t2:
                continue
            for side, who in enumerate(vm.static_call("x", addr, "participants")):
                commits, opens, early, secret = choices[2 * k + side]
                at = (lot.t0 + 1, lot.t1 + 1) if early else (lot.t1 - 1, lot.t2 - 1)
                if h == at[0] and commits:
                    vm.call(who, addr, "commit", commit_digest(who, secret))
                if h == at[1] and opens and who in lot.commits:
                    vm.call(who, addr, "open", secret)
        for level, match in order:
            addr = tree.lottery(level, match)
            if h < vm.contracts[addr].t2:
                continue
            expected = fresh_winner(vm, addr)
            how = reads[count % len(reads)]
            count += 1
            if how == "static":
                assert vm.static_call("x", addr, "get_winner") == expected
            elif how == "call":
                assert vm.call("x", "peek", "peek", addr, False) == expected
            else:
                with reverts("Boom"):
                    vm.call("x", "peek", "peek", addr, True)
            assert kept(vm, addr) in (None, expected)
            assert vm.static_call("x", addr, "get_winner") == expected


# views: methods that write no state and so enter no undo journal


@pytest.mark.parametrize("cls", [TwoPartyLottery, Master])
def test_every_view_is_a_method(cls):
    assert cls.VIEWS
    assert set(cls.VIEWS) <= set(cls.METHODS)


def test_a_match_reads_its_players_one_way():
    assert TwoPartyLottery.METHODS == ("commit", "open", "get_winner", "participants")
    assert Master.METHODS == ("deposit", "withdraw", "is_complete")


def test_participants_reads_both_players_in_one_call():
    vm, tree = played_tree(4)
    for addr in tree.lotteries.values():
        players = fresh_players(vm, addr)
        assert None not in players
        assert vm.static_call("x", addr, "participants") == players


class Squatter:
    """Test contract: deposits the last stake, reads a lottery's players, then maybe reverts."""

    METHODS = ("squat",)

    def __init__(self):
        self.address = ""

    def snapshot(self):
        return None

    def restore(self, state):
        pass

    def squat(self, ctx, master, lottery, bet, blow_up):
        ctx.call(master, "deposit", value=bet)
        players = ctx.call(lottery, "participants")
        if blow_up:
            raise Reverted("Boom")
        return players


@pytest.mark.parametrize("how", ["reverted call", "static call"])
def test_players_read_before_t0_by_a_rolled_back_deposit_are_not_kept(how):
    # before t_commit a deposit can still be rolled back, so a pair read then
    # may name a player who never played; only a read from t0 on is kept
    vm = Vm()
    tree = build_tree(vm, 4, bet=1, tau=TAU, t_commit=T_COMMIT)
    vm.create("squatter", Squatter())
    vm.fund("squatter", 1)
    for i in range(4):
        vm.fund(f"p{i}", 1)
    for i in range(3):
        vm.call(f"p{i}", tree.master, "deposit", value=1)
    addr = tree.lottery(0, 1)
    vm.advance_to(T_COMMIT - 1)
    args = ("squatter", "squatter", "squat", tree.master, addr, 1)
    if how == "reverted call":
        with reverts("Boom"):
            vm.call(*args, True)
    else:
        assert vm.static_call(*args, False) == ("p2", "squatter")
    assert vm.contracts[addr]._players is None
    assert vm.contracts[tree.master].players == ["p0", "p1", "p2"]
    vm.call("p3", tree.master, "deposit", value=1)
    vm.advance_to(tree.schedule(0)[0])
    assert vm.static_call("x", addr, "participants") == ("p2", "p3")
    assert vm.contracts[addr]._players == ("p2", "p3")
    vm.advance_to(tree.schedule(0)[0] + 1)
    with reverts("NotAPlayer"):
        vm.call("squatter", addr, "commit", commit_digest("squatter", 1))
    vm.call("p3", addr, "commit", commit_digest("p3", 1))


def test_a_reverted_commit_that_read_child_winners_leaves_everything_as_it_found_it(monkeypatch):
    # the final's commit reads both child winners through `get_winner`, a view,
    # then reverts; only the final itself, entered by a write, is journaled
    vm = Vm()
    tree = build_tree(vm, 4, bet=1, tau=TAU, t_commit=T_COMMIT)
    for i in range(4):
        vm.fund(f"p{i}", 1)
        vm.call(f"p{i}", tree.master, "deposit", value=1)
    t0, t1, _ = tree.schedule(0)
    vm.advance_to(t0 + 1)
    for match in (0, 1):
        addr = tree.lottery(0, match)
        for who in vm.static_call("x", addr, "participants"):
            vm.call(who, addr, "commit", commit_digest(who, 1))
    vm.advance_to(t1 + 1)
    for match in (0, 1):
        addr = tree.lottery(0, match)
        for who in list(vm.contracts[addr].commits):
            vm.call(who, addr, "open", 1)
    vm.advance_to(tree.schedule(1)[0] + 1)
    snapshots = {addr: c.snapshot() for addr, c in vm.contracts.items()}
    balances, calls = dict(vm.balances), len(vm.trace)
    entered = []
    for cls in (Master, TwoPartyLottery):
        snapshot = cls.snapshot
        monkeypatch.setattr(
            cls, "snapshot", lambda c, snapshot=snapshot: entered.append(c.address) or snapshot(c)
        )
    with reverts("NotAPlayer"):
        vm.call("outsider", tree.final, "commit", commit_digest("outsider", 1))
    assert entered == [tree.final]
    monkeypatch.undo()
    assert {addr: c.snapshot() for addr, c in vm.contracts.items()} == snapshots
    assert vm.balances == balances
    assert len(vm.trace) == calls + 1 and vm.trace[-1].info == "NotAPlayer"
