"""Contract-style backend: a minimal account VM and the lottery contracts.

The VM is just enough to express the protocol honestly: accounts with
balances, contracts with state, height-gated calls with value transfer,
and transactional semantics (an outer call that reverts leaves no trace of
its nested effects). There is no gas and no real cryptography; commitment
hashes use sha256 and bind the committer's address so a copied commitment
can never be opened by anyone else.

Money flows through a single Master contract per tournament. The per-match
TwoPartyLottery contracts carry no value; they only fix who advances. A
match above the first level names its players lazily, as "the winner of
that child lottery", which is resolvable by the time its commit window
opens because schedules are staggered by two timeout periods per level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

from .primitives import check_params, level_schedule, level_stride, num_levels, sha256

SECRET_BYTES = 32
ZERO_HASH = b"\x00" * 32


class Reverted(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class CallRecord(NamedTuple):
    height: int
    sender: str
    contract: str
    method: str
    arg_count: int
    value: int
    ok: bool
    info: str


@dataclass
class CallContext:
    """Execution context handed to contract methods."""

    vm: "Vm"
    sender: str
    this: str
    value: int

    @property
    def height(self) -> int:
        return self.vm.height

    def call(self, address: str, method: str, *args, value: int = 0):
        """Nested call from contract code; reverts propagate to the frame."""
        return self.vm._invoke(self.this, address, method, args, value)

    def pay(self, to: str, amount: int) -> None:
        self.vm._transfer(self.this, to, amount)


class Vm:
    """Single-chain account model with per-call rollback."""

    def __init__(self):
        self.height = 0
        self.balances: dict[str, int] = {}
        self.contracts: dict[str, Any] = {}
        self.trace: list[CallRecord] = []

    def advance(self, blocks: int = 1) -> None:
        if blocks < 0:
            raise ValueError("the chain only moves forward")
        self.height += blocks

    def advance_to(self, height: int) -> None:
        self.advance(height - self.height)

    def fund(self, account: str, amount: int) -> None:
        self.balances[account] = self.balances.get(account, 0) + amount

    def balance(self, account: str) -> int:
        return self.balances.get(account, 0)

    def create(self, address: str, contract: Any) -> str:
        if address in self.contracts or address in self.balances:
            raise ValueError(f"address {address!r} already taken")
        self.contracts[address] = contract
        contract.address = address
        return address

    def _snapshot(self):
        return (
            dict(self.balances),
            {addr: c.snapshot() for addr, c in self.contracts.items()},
        )

    def _restore(self, snap) -> None:
        balances, states = snap
        self.balances = balances
        for addr, state in states.items():
            self.contracts[addr].restore(state)

    def _transfer(self, frm: str, to: str, amount: int) -> None:
        if amount < 0:
            raise Reverted("NegativeValue")
        if self.balances.get(frm, 0) < amount:
            raise Reverted("InsufficientFunds")
        self.balances[frm] = self.balances.get(frm, 0) - amount
        self.balances[to] = self.balances.get(to, 0) + amount

    def _invoke(self, sender: str, address: str, method: str, args, value: int):
        contract = self.contracts.get(address)
        if contract is None:
            raise Reverted("NoSuchContract")
        if method.startswith("_") or method not in getattr(contract, "METHODS", ()):
            raise Reverted("NoSuchMethod")
        if value:
            self._transfer(sender, address, value)
        ctx = CallContext(vm=self, sender=sender, this=address, value=value)
        return getattr(contract, method)(ctx, *args)

    def call(self, sender: str, address: str, method: str, *args, value: int = 0):
        """Outer transaction: applied atomically, recorded in the trace."""
        snap = self._snapshot()
        try:
            result = self._invoke(sender, address, method, args, value)
        except Reverted as e:
            self._restore(snap)
            self.trace.append(
                CallRecord(self.height, sender, address, method, len(args), value, False, e.reason)
            )
            raise
        self.trace.append(
            CallRecord(self.height, sender, address, method, len(args), value, True, "")
        )
        return result

    def try_call(self, sender: str, address: str, method: str, *args, value: int = 0):
        """Outer call that swallows the revert; returns (ok, result_or_reason)."""
        try:
            return True, self.call(sender, address, method, *args, value=value)
        except Reverted as e:
            return False, e.reason

    def static_call(self, sender: str, address: str, method: str, *args):
        """Read-only call: state is always rolled back, nothing is traced."""
        snap = self._snapshot()
        try:
            return self._invoke(sender, address, method, args, 0)
        finally:
            self._restore(snap)


def commit_digest(address: str, secret: int) -> bytes:
    """Commitment binding the opener's address to a 256-bit secret."""
    if not (0 < secret < 1 << 256):
        raise ValueError("secret must be a nonzero 256-bit integer")
    return sha256(address.encode() + secret.to_bytes(SECRET_BYTES, "big"))


# side descriptors for lazily resolved match participants
def side_addr(addr: str) -> tuple:
    return ("addr", addr)


def side_seat(master: str, index: int) -> tuple:
    return ("seat", master, index)


def side_child(lottery: str) -> tuple:
    return ("child", lottery)


@dataclass
class TwoPartyLottery:
    """Commit-reveal coin flip between two (possibly lazily named) parties.

    Timeline, strict windows: commit in (t0, t1), open in (t1, t2), winner
    readable from t2 on. Missing actions forfeit: a party that never
    commits, or commits but never opens, loses to its opponent, with the
    double-default tie going to the second party. Opening requires the
    preimage to match the commitment bound to the opener's own address.
    """

    t0: int
    t1: int
    t2: int
    side_a: tuple
    side_b: tuple
    address: str = ""
    commits: dict = field(default_factory=dict)
    opens: dict = field(default_factory=dict)

    METHODS = ("commit", "open", "get_winner", "player_a", "player_b")

    def snapshot(self):
        return dict(self.commits), dict(self.opens)

    def restore(self, state) -> None:
        self.commits, self.opens = dict(state[0]), dict(state[1])

    def _resolve(self, ctx: CallContext, side: tuple) -> Optional[str]:
        kind = side[0]
        if kind == "addr":
            return side[1]
        if kind == "seat":
            master = ctx.vm.contracts[side[1]]
            if not master.is_complete():
                return None
            return master.players[side[2]]
        if kind == "child":
            return ctx.call(side[1], "get_winner")
        raise Reverted("BadSide")

    def player_a(self, ctx: CallContext) -> Optional[str]:
        return self._resolve(ctx, self.side_a)

    def player_b(self, ctx: CallContext) -> Optional[str]:
        return self._resolve(ctx, self.side_b)

    def commit(self, ctx: CallContext, chash: bytes) -> None:
        if ctx.value:
            raise Reverted("WrongValue")
        if ctx.height <= self.t0:
            raise Reverted("TooEarly")
        if ctx.height >= self.t1:
            raise Reverted("TooLate")
        if not isinstance(chash, bytes) or len(chash) != 32 or chash == ZERO_HASH:
            raise Reverted("BadCommitment")
        a, b = self.player_a(ctx), self.player_b(ctx)
        if ctx.sender not in (a, b):
            raise Reverted("NotAPlayer")
        if ctx.sender in self.commits:
            raise Reverted("AlreadyCommitted")
        self.commits[ctx.sender] = chash

    def open(self, ctx: CallContext, secret: int) -> None:
        if ctx.value:
            raise Reverted("WrongValue")
        if ctx.height <= self.t1:
            raise Reverted("TooEarly")
        if ctx.height >= self.t2:
            raise Reverted("TooLate")
        chash = self.commits.get(ctx.sender)
        if chash is None:
            raise Reverted("NoCommit")
        if ctx.sender in self.opens:
            raise Reverted("AlreadyOpened")
        if not isinstance(secret, int) or not (0 < secret < 1 << 256):
            raise Reverted("BadOpening")
        if commit_digest(ctx.sender, secret) != chash:
            raise Reverted("BadOpening")
        self.opens[ctx.sender] = secret

    def get_winner(self, ctx: CallContext) -> Optional[str]:
        if ctx.height < self.t2:
            raise Reverted("TooEarly")
        a, b = self.player_a(ctx), self.player_b(ctx)
        if a is None and b is None:
            return None
        if a is None:
            return b
        if b is None:
            return a
        if a not in self.commits:
            return b
        if b not in self.commits:
            return a
        sa, sb = self.opens.get(a), self.opens.get(b)
        if sa is None:
            return b
        if sb is None:
            return a
        return a if (sa ^ sb) % 2 == 0 else b


@dataclass
class Master:
    """Holds every stake and pays the bracket winner (or refunds).

    Deposits are one bet each, close at t_commit, and cap at exactly n
    players; the n-th deposit fills the table and the (n+1)-th reverts.
    If the table never fills, each depositor reclaims its bet from
    t_commit on. Otherwise the only way money leaves is a withdraw by
    whoever the final match reports as tournament winner.
    """

    n: int
    bet: int
    t_commit: int
    t_final: int
    final_lottery: str = ""
    address: str = ""
    players: list = field(default_factory=list)
    refunded: set = field(default_factory=set)

    METHODS = ("deposit", "withdraw", "get_player", "is_complete")

    def snapshot(self):
        return list(self.players), set(self.refunded), self.final_lottery

    def restore(self, state) -> None:
        self.players, self.refunded, self.final_lottery = (
            list(state[0]),
            set(state[1]),
            state[2],
        )

    def is_complete(self, ctx: CallContext = None) -> bool:
        return len(self.players) == self.n

    def get_player(self, ctx: CallContext, index: int) -> str:
        if not (0 <= index < len(self.players)):
            raise Reverted("NoSuchSeat")
        return self.players[index]

    def deposit(self, ctx: CallContext) -> None:
        if ctx.value != self.bet:
            raise Reverted("WrongValue")
        if ctx.height >= self.t_commit:
            raise Reverted("TooLate")
        if ctx.sender in self.players:
            raise Reverted("AlreadyDeposited")
        if len(self.players) >= self.n:
            raise Reverted("Full")
        self.players.append(ctx.sender)

    def withdraw(self, ctx: CallContext) -> int:
        if ctx.value:
            raise Reverted("WrongValue")
        if not self.is_complete():
            # the tournament never assembled; stakes unlock at the commit deadline
            if ctx.height < self.t_commit:
                raise Reverted("TooEarly")
            if ctx.sender not in self.players or ctx.sender in self.refunded:
                raise Reverted("NothingToWithdraw")
            self.refunded.add(ctx.sender)
            ctx.pay(ctx.sender, self.bet)
            return self.bet
        if ctx.height < self.t_final:
            raise Reverted("TooEarly")
        winner = ctx.call(self.final_lottery, "get_winner")
        if winner is None or ctx.sender != winner:
            raise Reverted("NotWinner")
        pot = ctx.vm.balance(self.address)
        if pot <= 0:
            raise Reverted("AlreadyPaid")
        ctx.pay(ctx.sender, pot)
        return pot


@dataclass
class ContractTree:
    """Deployed tournament: the master plus one lottery per match."""

    master: str
    lotteries: dict[tuple[int, int], str]
    final: str
    n: int
    t_commit: int
    t_final: int
    tau: int

    def lottery(self, level: int, match: int) -> str:
        return self.lotteries[(level, match)]

    def schedule(self, level: int) -> tuple[int, int, int]:
        return level_schedule(self.t_commit, level_stride(self.tau), self.tau, level)


def build_tree(vm: Vm, n: int, bet: int, tau: int, t_commit: int) -> ContractTree:
    """Deploy master and bracket in one shot, wired by seat and child refs.

    First-round matches name their players as master seats (deposit order);
    later matches name theirs as child-match winners. Level l runs in the
    window [t_commit + 2*tau*l, t_commit + 2*tau*(l+1)), so the whole
    bracket settles at t_commit + 2*tau*log2(n).
    """
    check_params(n, tau, t_commit, bet)
    levels = num_levels(n)
    stride = level_stride(tau)
    t_final = level_schedule(t_commit, stride, tau, levels)[0]
    master_addr = vm.create("master", Master(n=n, bet=bet, t_commit=t_commit, t_final=t_final))
    lotteries: dict[tuple[int, int], str] = {}
    for level in range(levels):
        t0, t1, t2 = level_schedule(t_commit, stride, tau, level)
        for match in range(n >> (level + 1)):
            if level == 0:
                side_a = side_seat(master_addr, 2 * match)
                side_b = side_seat(master_addr, 2 * match + 1)
            else:
                side_a = side_child(lotteries[(level - 1, 2 * match)])
                side_b = side_child(lotteries[(level - 1, 2 * match + 1)])
            addr = vm.create(
                f"lot:{level}:{match}",
                TwoPartyLottery(t0=t0, t1=t1, t2=t2, side_a=side_a, side_b=side_b),
            )
            lotteries[(level, match)] = addr
    final = lotteries[(levels - 1, 0)]
    vm.contracts[master_addr].final_lottery = final
    return ContractTree(
        master=master_addr,
        lotteries=lotteries,
        final=final,
        n=n,
        t_commit=t_commit,
        t_final=t_final,
        tau=tau,
    )
