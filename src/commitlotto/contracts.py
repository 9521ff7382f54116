"""Contract-style backend: a minimal account VM and the lottery contracts.

The VM is just enough to express the protocol honestly: accounts with
balances, contracts with state, height-gated calls with value transfer,
and transactional semantics (an outer call that reverts leaves no trace of
its nested effects). Each outer call opens an undo journal that records a
contract's snapshot when a non-view method first enters it and an
account's old balance, or its absence, when the call first moves it; a
reverted `call` replays the journal and a `static_call` always does, so a
call costs what it can write rather than what is deployed. A view, a
method a contract names in `VIEWS`, writes no state, so entering one
enters no journal. There is no gas and no real cryptography; commitment
hashes use sha256 and bind the committer's address so a copied
commitment can never be opened by anyone else.

Money flows through a single Master contract per tournament. The per-match
TwoPartyLottery contracts carry no value; they only fix who advances. A
first-level match is played by two of the master's seats, and every later
match by the winners of its two child matches; `participants` is the one
read of both. A child's winner is readable by the time its parent's commit
window opens because schedules are staggered by two timeout periods per
level.
A lottery resolves its players and its winner once each is final and
keeps them. Its players are final from its t0 on: deposits revert from
t_commit, which is the first level's t0, and a child's t2 is at most its
parent's t0. Its winner is final from t2 on, when its commits and opens
can no longer change. So a later read returns the kept value instead of
asking the master or walking the subtree again. A kept value is a cache
of final state, not state, so the journal never records or rolls it
back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

from .primitives import check_params, level_schedule, level_stride, matches_at, num_levels, sha256

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
    """Single-chain account model with per-call rollback by an undo journal.

    `call` and `static_call` each open an empty journal: a contract's
    `snapshot()` the first time a non-view method of it is entered, and an
    account's old balance (None when the account had no entry) the first
    time the call moves it. A revert in `call`, and every `static_call`,
    replays the journal, so the contracts and the exact set of balance keys
    return to where the call found them. A view (a name in the contract's
    `VIEWS`, which must also be in its `METHODS`) changes no state, so it
    enters no journal, and a `static_call` of a view has nothing to undo.
    A call pays for what it can write, not for everything deployed.
    """

    def __init__(self):
        self.height = 0
        self.balances: dict[str, int] = {}
        self.contracts: dict[str, Any] = {}
        self.trace: list[CallRecord] = []
        # transfers applied, reverted ones included: if it has not grown, no balance moved
        self.transfers = 0
        # (contract states, balances) as the open outer call found them
        self._journal: tuple[dict[str, Any], dict[str, Optional[int]]] = ({}, {})

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

    def _transfer(self, frm: str, to: str, amount: int) -> None:
        if amount < 0:
            raise Reverted("NegativeValue")
        if self.balances.get(frm, 0) < amount:
            raise Reverted("InsufficientFunds")
        saved = self._journal[1]
        for account in (frm, to):
            if account not in saved:
                saved[account] = self.balances.get(account)  # None: absent
        self.transfers += 1
        self.balances[frm] = self.balances.get(frm, 0) - amount
        self.balances[to] = self.balances.get(to, 0) + amount

    def _invoke(self, sender: str, address: str, method: str, args, value: int):
        contract = self.contracts.get(address)
        if contract is None:
            raise Reverted("NoSuchContract")
        if method.startswith("_") or method not in getattr(contract, "METHODS", ()):
            raise Reverted("NoSuchMethod")
        states = self._journal[0]
        if address not in states and method not in getattr(contract, "VIEWS", ()):
            states[address] = contract.snapshot()
        if value:
            self._transfer(sender, address, value)
        return getattr(contract, method)(CallContext(self, sender, address, value), *args)

    def _undo(self) -> None:
        """Put back every contract state and balance the open call changed."""
        states, saved = self._journal
        for address, state in states.items():
            self.contracts[address].restore(state)
        for account, amount in saved.items():
            if amount is None:
                del self.balances[account]
            else:
                self.balances[account] = amount

    def call(self, sender: str, address: str, method: str, *args, value: int = 0):
        """Outer transaction: applied atomically, recorded in the trace."""
        self._journal = ({}, {})
        try:
            result = self._invoke(sender, address, method, args, value)
        except Reverted as e:
            self._undo()
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
        self._journal = ({}, {})
        try:
            return self._invoke(sender, address, method, args, 0)
        finally:
            self._undo()


def commit_digest(address: str, secret: int) -> bytes:
    """Commitment binding the opener's address to a 256-bit secret."""
    if not (0 < secret < 1 << 256):
        raise ValueError("secret must be a nonzero 256-bit integer")
    return sha256(address.encode() + secret.to_bytes(SECRET_BYTES, "big"))


def match_winner(
    a: Optional[str], b: Optional[str], commits: dict, opens: dict
) -> Optional[str]:
    """Who advances from a match between a and b: the walkover and parity rule.

    Missing actions forfeit: a missing party, a party that never commits,
    or one that commits but never opens loses to its opponent, with the
    double-default tie going to b. Two openings go to a when their XOR is
    even and to b when it is odd. Pure, so a player can ask it about an
    opening it has not yet made.
    """
    if a is None or b is None:
        return b if a is None else a
    if a not in commits:
        return b
    if b not in commits:
        return a
    sa, sb = opens.get(a), opens.get(b)
    if sa is None:
        return b
    if sb is None:
        return a
    return a if (sa ^ sb) % 2 == 0 else b


@dataclass
class TwoPartyLottery:
    """Commit-reveal coin flip between two seats of `master` (level 0) or
    the winners of two `children` (above).

    Timeline, strict windows: commit in (t0, t1), open in (t1, t2), winner
    readable from t2 on, by `match_winner`. Opening requires the preimage
    to match the commitment bound to the opener's own address.

    The first `participants` read from t0 on that names two players keeps
    the pair in `_players`, and the first winner read from t2 on that
    names a winner keeps it in `_winner`; every later read returns what
    was kept. That is safe because nothing either depends on can change
    by then. From t0 on, deposits are closed (they revert from t_commit,
    the first level's t0) and each child match has settled (its t2 is at
    most this match's t0; an unsettled child reverts, and then nothing is
    kept). From t2 on, commits and opens are closed too. A pair read
    before t0 is never kept: a call that deposits the last stake, reads
    the pair and reverts would leave behind players who never played.
    Nor is what a table that never filled reads, a pair with a `None`
    player or a `None` winner. `_players` and `_winner` are outside
    `snapshot`/`restore`, equality and repr: a rolled-back read still
    leaves the right answer behind.
    """

    t0: int
    t1: int
    t2: int
    # level 0: the master whose two seats play; above: the two child lotteries
    master: str = ""
    seats: tuple = ()
    children: tuple = ()
    address: str = ""
    commits: dict = field(default_factory=dict)
    opens: dict = field(default_factory=dict)
    # the players and the winner once final; caches of final state, so never journaled
    _players: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _winner: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    METHODS = ("commit", "open", "get_winner", "participants")
    VIEWS = ("get_winner", "participants")

    def snapshot(self):
        return dict(self.commits), dict(self.opens)

    def restore(self, state) -> None:
        self.commits, self.opens = dict(state[0]), dict(state[1])

    def participants(self, ctx: CallContext) -> tuple[Optional[str], Optional[str]]:
        """The two players: the children's winners, or the master's two
        seats once its table is full (None, None before). A pair of two
        players read from t0 on is final and kept."""
        if self._players is not None:
            return self._players
        if self.children:
            a, b = self.children
            players = ctx.call(a, "get_winner"), ctx.call(b, "get_winner")
        else:
            master = ctx.vm.contracts[self.master]
            if not master.is_complete():
                return None, None
            a, b = self.seats
            players = master.players[a], master.players[b]
        if ctx.height >= self.t0 and None not in players:
            self._players = players
        return players

    def commit(self, ctx: CallContext, chash: bytes) -> None:
        if ctx.value:
            raise Reverted("WrongValue")
        if ctx.height <= self.t0:
            raise Reverted("TooEarly")
        if ctx.height >= self.t1:
            raise Reverted("TooLate")
        if not isinstance(chash, bytes) or len(chash) != 32 or chash == ZERO_HASH:
            raise Reverted("BadCommitment")
        if ctx.sender not in self.participants(ctx):
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
        if self._winner is None:
            self._winner = match_winner(*self.participants(ctx), self.commits, self.opens)
        return self._winner


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

    METHODS = ("deposit", "withdraw", "is_complete")
    VIEWS = ("is_complete",)

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
    t_commit: int
    t_final: int
    tau: int

    def lottery(self, level: int, match: int) -> str:
        return self.lotteries[(level, match)]

    def schedule(self, level: int) -> tuple[int, int, int]:
        return level_schedule(self.t_commit, level_stride(self.tau), self.tau, level)


def build_tree(vm: Vm, n: int, bet: int, tau: int, t_commit: int) -> ContractTree:
    """Deploy master and bracket in one shot, wired by seats and children.

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
        for match in range(matches_at(n, level)):
            if level == 0:
                lot = TwoPartyLottery(t0, t1, t2, master=master_addr, seats=(2 * match, 2 * match + 1))
            else:
                children = (lotteries[(level - 1, 2 * match)], lotteries[(level - 1, 2 * match + 1)])
                lot = TwoPartyLottery(t0, t1, t2, children=children)
            addr = vm.create(f"lot:{level}:{match}", lot)
            lotteries[(level, match)] = addr
    final = lotteries[(levels - 1, 0)]
    vm.contracts[master_addr].final_lottery = final
    return ContractTree(
        master=master_addr,
        lotteries=lotteries,
        final=final,
        t_commit=t_commit,
        t_final=t_final,
        tau=tau,
    )
