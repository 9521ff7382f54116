"""Player strategies for both backends.

A strategy is a bundle of decision hooks the trial driver consults at each
protocol step. Hooks never touch chain state directly; they see a view
object describing the decision and answer with an action (or decline).
A view carries only what some strategy reads. A strategy holds no coins of
its own: its one draw, a contract match's secret, comes from the rng that
`choose_secret` receives, the trial rng's child for that seat and match.
The honest strategy acts at the first opportunity and, on the UTXO
backend, also rebroadcasts every mature pre-signed transaction it can
assemble, whoever it pays. That altruistic relay is what keeps brackets
live when opponents go silent: timeout claims are signed by everyone in
advance, so any single honest player suffices to push a match forward.

Hooks are asked only at stops, the heights at which an action can land:
on the contract backend height 1 for deposits and the first and the last
height of each commit and open window; on the UTXO backend the height
after setup, each level's start and timeouts, and the refund time. So an
answer depends on the view's state, not on the bare height: a hook that
declines at a window's first height is asked again only at its last, which
an open view marks with `last_chance`.

Adversaries deviate in one specific way each, which keeps measured effects
attributable. They control when to stop participating (abort family),
whether to disclose secrets (open/broadcast family), or what to commit
(replay). The coalition strategy coordinates any number of players: in a
match between two members the lower-indexed one is handed the win via a
deliberate walkover, and against outsiders members play honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .contracts import commit_digest
from .primitives import ROLE_DEPOSIT, ROLE_OUTCOME_BP, ROLE_REVEAL, Rng

ETH = "ethereum"
BTC_PLAIN = "bitcoin-plain"
BTC_MULTI = "bitcoin-multiinput"
ALL_BACKENDS = (ETH, BTC_PLAIN, BTC_MULTI)
BTC_BACKENDS = (BTC_PLAIN, BTC_MULTI)

# the scaffold roles whose witnesses publish a kernel secret
DISCLOSING_ROLES = (ROLE_REVEAL, ROLE_OUTCOME_BP)


@dataclass(slots=True)
class CommitView:
    """Asks for a commitment to the player's match secret (contract backend)."""

    my_address: str
    my_secret: int
    opponent_player: Optional[int]
    opponent_commit: Optional[bytes]


@dataclass(slots=True)
class OpenView(CommitView):
    """Asks a committed player for its opening (contract backend).

    `last_chance` is set at the last height of the open window.
    `wins_if_open` says whether `match_winner` makes the player win with
    its opening, as things stand.
    """

    last_chance: bool
    wins_if_open: bool


@dataclass
class BroadcastView:
    """Asks whether to put one assembled transaction on chain now.

    `kind` is the transaction's scaffold role (`scaffold.ROLE_*`).
    `beneficiary` is the player it pays: the paid side of an outcome, the
    winner of a compression, the owner of a hashlocked deposit or refund,
    and None for an entry, a reveal or the atomic deposit. `left_player`
    and `right_player` are the kernel's players for an entry, a reveal or
    an outcome, and None otherwise.
    """

    kind: str
    beneficiary: Optional[int]
    left_player: Optional[int]
    right_player: Optional[int]


class Strategy:
    """Honest baseline: act immediately, disclose on schedule, relay all."""

    name = "honest"
    backends = ALL_BACKENDS

    def __init__(self, player: int, shared: Optional[dict] = None):
        self.player = player
        self.shared = shared if shared is not None else {}

    def coalition_members(self) -> Optional[frozenset]:
        return None

    # secret choice (contract backend; scaffold secrets are drawn at build)
    def choose_secret(self, rng: Rng) -> int:
        """A match secret drawn from `rng`, the match's own child stream."""
        return rng.nonzero_u256()

    # scaffold ceremony
    def at_signing(self, view) -> bool:
        return True

    def at_deposit(self, view) -> bool:
        """Whether to stake now. The scaffold's ceremony passes its
        `SigningView`; the contract backend passes no view (None)."""
        return True

    # contract backend actions; None means "not now"
    def at_commit(self, view: CommitView) -> Optional[bytes]:
        return commit_digest(view.my_address, view.my_secret)

    def at_open(self, view: OpenView) -> Optional[int]:
        return view.my_secret

    # scaffold backend broadcasts
    def at_broadcast(self, view: BroadcastView) -> bool:
        return True


class AbortAtSigning(Strategy):
    """Walks away from the very first signature request."""

    name = "abort-at-signing"
    backends = BTC_BACKENDS

    def at_signing(self, view) -> bool:
        return False

    def at_deposit(self, view) -> bool:
        return False


class AbortAtDeposit(Strategy):
    """Cooperates through signing, then never stakes anything."""

    name = "abort-at-deposit"
    backends = ALL_BACKENDS

    def at_deposit(self, view) -> bool:
        return False

    def at_broadcast(self, view: BroadcastView) -> bool:
        return view.kind != ROLE_DEPOSIT


class AbortAtCommit(Strategy):
    """Stakes, then never sends a commitment."""

    name = "abort-at-commit"
    backends = (ETH,)

    def at_commit(self, view: CommitView) -> Optional[bytes]:
        return None

    def at_open(self, view: OpenView) -> Optional[int]:
        return None


class AbortAtOpen(Strategy):
    """Commits but never discloses a secret anywhere.

    On the scaffold backend that means refusing to broadcast the two
    transactions whose witnesses would publish a preimage.
    """

    name = "abort-at-open"
    backends = ALL_BACKENDS

    def at_open(self, view: OpenView) -> Optional[int]:
        return None

    def at_broadcast(self, view: BroadcastView) -> bool:
        return view.kind not in DISCLOSING_ROLES


class SelectiveAbortOpen(Strategy):
    """Waits until the last opening height and discloses only when winning.

    The walkover rules make this pointless: withholding against an opened
    opponent forfeits, so the choice only exercises the fallthrough logic.
    """

    name = "selective-abort-open"
    backends = (ETH,)

    def at_open(self, view: OpenView) -> Optional[int]:
        if not view.last_chance:
            return None
        return view.my_secret if view.wins_if_open else None


class ReplayCommit(Strategy):
    """Copies the opponent's commitment hash verbatim.

    Address-bound commitments make the copy unopenable, so this player can
    only ever win by the opponent failing to open.
    """

    name = "replay-commit"
    backends = (ETH,)

    def at_commit(self, view: CommitView) -> Optional[bytes]:
        if view.opponent_commit is not None:
            return bytes(view.opponent_commit)
        return None

    def at_open(self, view: OpenView) -> Optional[int]:
        return None


class WithholdBroadcast(Strategy):
    """Never submits a transaction that pays itself, relying on others.

    Pure spite test: honest relaying means pots still move, just not at
    this player's initiative.
    """

    name = "withhold-broadcast"
    backends = BTC_BACKENDS

    def at_broadcast(self, view: BroadcastView) -> bool:
        return view.beneficiary != self.player


class ForceTimeout(Strategy):
    """Drives every match through its slowest path.

    As the left player it reveals on schedule but the right player version
    never claims the parity win, so matches always settle by the reveal
    timeout. Used to realize worst-case round and transaction counts. At an
    all-force-timeout table each match pays its left player, whose
    multiinput compression spends half the outputs of a right player's,
    so the bytes on chain are the worst case in plain mode only.
    """

    name = "force-timeout"
    backends = BTC_BACKENDS

    def at_broadcast(self, view: BroadcastView) -> bool:
        return view.kind != ROLE_OUTCOME_BP


class Coalition(Strategy):
    """Colluding block: members throw internal matches to the lowest index.

    The thrown match is a walkover (the designated loser never commits or
    discloses), so no rule outside the honest protocol is needed. Against
    non-members the coalition plays honestly; shared knowledge of member
    secrets is modelled by the runtime merging their knowledge sets.
    """

    name = "coalition"
    backends = ALL_BACKENDS

    def __init__(self, player: int, shared: Optional[dict] = None):
        super().__init__(player, shared)
        self.shared.setdefault("coalition-members", set()).add(player)

    def coalition_members(self) -> Optional[frozenset]:
        return frozenset(self.shared.get("coalition-members", ()))

    def _throws_to(self, opponent: Optional[int]) -> bool:
        """True when this member is the designated loser of an internal match."""
        if opponent is None:
            return False
        members = self.shared.get("coalition-members", ())
        return opponent in members and opponent < self.player

    def at_commit(self, view: CommitView) -> Optional[bytes]:
        if self._throws_to(view.opponent_player):
            return None
        return super().at_commit(view)

    def at_open(self, view: OpenView) -> Optional[int]:
        if self._throws_to(view.opponent_player):
            return None
        return super().at_open(view)

    def at_broadcast(self, view: BroadcastView) -> bool:
        if view.kind in DISCLOSING_ROLES:
            opponent = None
            if view.left_player == self.player:
                opponent = view.right_player
            elif view.right_player == self.player:
                opponent = view.left_player
            if self._throws_to(opponent):
                return False
        return True


REGISTRY: dict[str, type] = {
    cls.name: cls
    for cls in (
        Strategy,
        AbortAtSigning,
        AbortAtDeposit,
        AbortAtCommit,
        AbortAtOpen,
        SelectiveAbortOpen,
        ReplayCommit,
        WithholdBroadcast,
        ForceTimeout,
        Coalition,
    )
}


def strategy_names() -> list[str]:
    return sorted(REGISTRY)


def supports(name: str, backend: str) -> bool:
    cls = REGISTRY.get(name)
    return cls is not None and backend in cls.backends


def make_strategy(name: str, player: int, shared: dict) -> Strategy:
    cls = REGISTRY.get(name)
    if cls is None:
        raise ValueError(f"unknown strategy {name!r}; known: {', '.join(strategy_names())}")
    return cls(player, shared)


def adversary_library() -> list[tuple[str, tuple[str, ...]]]:
    """Every non-honest strategy with the backends it targets."""
    return [(name, REGISTRY[name].backends) for name in strategy_names() if name != "honest"]
