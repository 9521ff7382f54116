"""Shared builders, plus the acceptance-criteria reporter."""

import re
from typing import NamedTuple

import pytest

from commitlotto import scaffold
from commitlotto.chain import TransactionBody
from commitlotto.contracts import match_winner
from commitlotto.primitives import OutputRef, Rng
from commitlotto.scaffold import (
    KERNEL,
    ROLE_COMPRESSION,
    ROLE_DEPOSIT,
    Tournament,
    build_tournament,
)

_criterion_lines: list[str] = []


@pytest.fixture(scope="session")
def criterion():
    """Record one pass/fail line per acceptance criterion, then enforce it."""

    def record(num: int, ok: bool, detail: str) -> None:
        line = f"CRITERION {num:>2} {'PASS' if ok else 'FAIL'}: {detail}"
        _criterion_lines.append(line)
        assert ok, line

    return record


@pytest.fixture(scope="session")
def acceptance_registry():
    """Every Summary produced by the acceptance suite, for cross-criterion sweeps."""
    return {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    order = lambda line: int(re.search(r"CRITERION\s+(\d+)", line).group(1))
    for line in sorted(_criterion_lines, key=order):
        terminalreporter.write_line(line)


# every contract-only adversary, with two coalition members; n=4 takes the first four
ETH_MIXED_SEATS = (
    "honest", "replay-commit", "selective-abort-open", "abort-at-commit",
    "coalition", "abort-at-open", "coalition", "honest",
)


def fresh_players(vm, address):
    """A lottery's two players, read afresh from its seats or its children."""
    lot = vm.contracts[address]
    if lot.children:
        return tuple(fresh_winner(vm, child) for child in lot.children)
    master = vm.contracts[lot.master]
    return tuple(master.players[seat] if master.is_complete() else None for seat in lot.seats)


def fresh_winner(vm, address):
    """`match_winner` over the lottery's players, commits and opens, read afresh."""
    lot = vm.contracts[address]
    return match_winner(*fresh_players(vm, address), lot.commits, lot.opens)


def make_keys(n):
    return [bytes([0x40 + i]) * 32 for i in range(n)]


def make_funding(n):
    return [OutputRef(bytes([0x80 + i]) * 32, 0) for i in range(n)]


def small_tournament(n=4, mode="plain", deposit_option="atomic", seed="t", **kw):
    """An unsigned scaffold detached from any chain, for structure tests."""
    mpc_digest = kw.pop("mpc_digest", None)
    if deposit_option == "hashlocked" and mpc_digest is None:
        mpc_digest = b"\x99" * 32
    return build_tournament(
        n,
        kw.pop("keys", None) or make_keys(n),
        make_funding(n),
        Rng(seed),
        t_commit=kw.pop("t_commit", 10),
        bet=kw.pop("bet", 1),
        tau=kw.pop("tau", 6),
        mode=mode,
        deposit_option=deposit_option,
        mpc_digest=mpc_digest,
        **kw,
    )


class ScaffoldTx(NamedTuple):
    """A body in canonical order (`iter_bodies`), with its role and table key."""

    role: str
    key: object  # KernelId, (level, match, candidate) or deposit index
    body: TransactionBody

    @property
    def ntxid(self) -> bytes:
        return self.body.digests[0]


def iter_bodies(t: Tournament) -> list[ScaffoldTx]:
    """All scaffold bodies in deterministic order, building any not yet built; deposits come last."""
    out: list[ScaffoldTx] = []
    for kid in sorted(t.kernels):
        out.extend(ScaffoldTx(role, kid, b) for role, b in zip((row.role for row in KERNEL), t.kernels[kid].bodies))
    for ckey in sorted(t.compressions):
        out.append(ScaffoldTx(ROLE_COMPRESSION, ckey, t.compressions[ckey]))
    out.extend(ScaffoldTx(ROLE_DEPOSIT, i, body) for i, body in enumerate(t.deposit_bodies))
    return out


def count_builds(monkeypatch) -> dict[str, list]:
    """Record every kernel and compression honest construction builds, while `monkeypatch` holds."""
    built = {"kernel": [], "compression": []}
    for name, keys in built.items():
        build = getattr(scaffold.Tournament, f"_{name}")

        def counted(t, key, build=build, keys=keys):
            keys.append(key)
            return build(t, key)

        monkeypatch.setattr(scaffold.Tournament, f"_{name}", counted)
    return built


@pytest.fixture(scope="session")
def plain4():
    return small_tournament(4)


@pytest.fixture(scope="session")
def multi8():
    return small_tournament(8, mode="multiinput")
