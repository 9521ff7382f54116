"""Scaffold play: a reached kernel's offer rows, and what is offered once the table commits."""

import pytest

from commitlotto import harness
from commitlotto.harness import (
    BTC_MULTI,
    BTC_PLAIN,
    ScaffoldRuntime,
    ScenarioConfig,
)
from commitlotto.scaffold import (
    BRANCH_DEPOSIT_SPEND,
    DEPOSIT_ATOMIC,
    DEPOSIT_HASHLOCKED,
    ROLE_DEPOSIT,
    ROLE_ENTRY,
    ROLE_REFUND,
    SLOT_LEFT,
    SLOT_MPC,
    SLOT_RIGHT,
    players_of,
)
from commitlotto.utxo import PLAYS, Candidate

# The reference: `ScaffoldRuntime._play` as it stood when `OFFER_GOLDEN`
# was recorded, which built one `PLAYS` row of a reached kernel per call.

SIDE_SLOTS = (SLOT_LEFT, SLOT_RIGHT)


def ref_play(rt, kernel, row, body, ntxid):
    level, match, _ = kernel.id
    commits = (kernel.left_commit, kernel.right_commit)
    opens = tuple((SIDE_SLOTS[side], commits[side]) for side in row.opens)
    branch = row.branch
    if row.role == ROLE_ENTRY and level == 0 and rt.mpc is not None:
        opens, branch = ((SLOT_MPC, rt.t.mpc_digest),), BRANCH_DEPOSIT_SPEND
    players = players_of(rt.cfg.n, *kernel.id, rt.cfg.mode)
    t0 = rt.t.schedule(level)[0]
    return Candidate(
        row.role, row.priority, level, match, ntxid, body, max(t0, body.locktime),
        frozenset(spec.ref for spec in body.inputs), kernel, opens, branch,
        None if row.pays is None else players[row.pays],
    )


MIXED8 = (
    "honest", "force-timeout", "abort-at-open", "coalition",
    "honest", "coalition", "honest", "honest",
)
TABLES = [
    (backend, deposit, n, seats)
    for backend in (BTC_PLAIN, BTC_MULTI)
    for deposit in (DEPOSIT_ATOMIC, DEPOSIT_HASHLOCKED)
    for n in (2, 4, 8, 16)
    for seats in ("honest", "mixed")
]


def trials(backend, deposit, n, seats, count=3):
    """Each trial's runtime, played to its end."""
    strategies = ("honest",) * n if seats == "honest" else (MIXED8 * 2)[:n]
    cfg = ScenarioConfig(
        backend=backend, n=n, strategies=strategies, deposit_option=deposit, master_seed=1
    )
    for index in range(count):
        rt = harness._runtime(cfg, index)
        rt.run()
        yield rt


@pytest.mark.parametrize("backend,deposit,n,seats", TABLES)
def test_each_reached_kernel_offers_the_rows_play_built(backend, deposit, n, seats):
    reached = 0
    for rt in trials(backend, deposit, n, seats):
        for record in rt._matches.values():
            kernel = record.kernel
            want = [ref_play(rt, kernel, *row) for row in zip(PLAYS, kernel.bodies, kernel.ntxids)]
            got = record.candidates[: len(PLAYS)]
            assert [c._asdict() for c in got] == [c._asdict() for c in want]
            reached += 1
    assert reached


@pytest.mark.parametrize("backend,deposit,n,seats", TABLES)
def test_no_deposit_or_refund_is_live_once_the_table_commits(monkeypatch, backend, deposit, n, seats):
    candidates = ScaffoldRuntime._candidates
    probes = []

    def probe(rt, h):
        out = candidates(rt, h)
        if rt._committed():
            utxo = rt.chain.utxo.keys()
            assert not [c for c in rt._deposits if c.spends <= utxo]
            assert not [c for c in out if c.role in (ROLE_DEPOSIT, ROLE_REFUND)]
            probes.append(h)
        return out

    monkeypatch.setattr(ScaffoldRuntime, "_candidates", probe)
    for _ in trials(backend, deposit, n, seats):
        pass
    assert probes
