"""Shared builders, plus the acceptance-criteria reporter."""

import re

import pytest

from commitlotto.primitives import OutputRef, Rng
from commitlotto.scaffold import build_tournament

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
        make_keys(n),
        make_funding(n),
        Rng(seed),
        t_commit=kw.pop("t_commit", 10),
        bet=1,
        tau=kw.pop("tau", 6),
        mode=mode,
        deposit_option=deposit_option,
        mpc_digest=mpc_digest,
        **kw,
    )


@pytest.fixture(scope="session")
def plain4():
    return small_tournament(4)


@pytest.fixture(scope="session")
def multi8():
    return small_tournament(8, mode="multiinput")
