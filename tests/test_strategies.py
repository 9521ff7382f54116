"""Strategy registry and decision rules that don't need a full run."""

import hashlib

import pytest

from commitlotto import primitives
from commitlotto.primitives import Rng
from commitlotto.scaffold import KERNEL
from commitlotto.strategies import (
    DISCLOSING_ROLES,
    adversary_library,
    make_strategy,
    strategy_names,
    supports,
)

ALL = (
    "abort-at-commit",
    "abort-at-deposit",
    "abort-at-open",
    "abort-at-signing",
    "coalition",
    "force-timeout",
    "honest",
    "replay-commit",
    "selective-abort-open",
    "withhold-broadcast",
)


def test_registry_names_frozen():
    assert tuple(strategy_names()) == ALL


def test_the_disclosing_roles_are_the_kernel_rows_that_open_a_side():
    # `strategies` may not import `scaffold`, so this ties its copy to the table
    assert DISCLOSING_ROLES == tuple(row.role for row in KERNEL if row.opens)


def test_adversary_library_excludes_honest():
    lib = adversary_library()
    assert len(lib) == 9
    names = [name for name, _ in lib]
    assert "honest" not in names
    assert sorted(names) == names
    for name, backends in lib:
        assert backends  # every adversary runs somewhere
        for backend in backends:
            assert supports(name, backend)


def test_supports_matrix():
    assert supports("honest", "ethereum")
    assert supports("honest", "bitcoin-plain")
    assert supports("abort-at-commit", "ethereum")
    assert not supports("abort-at-commit", "bitcoin-plain")  # no commit phase there
    assert not supports("force-timeout", "ethereum")
    assert not supports("replay-commit", "bitcoin-multiinput")
    assert not supports("honest", "solana")
    assert not supports("mystery", "ethereum")


def test_make_strategy_unknown_name():
    with pytest.raises(ValueError):
        make_strategy("mystery", 0, {})


def test_make_strategy_builds_each_registered_name():
    shared = {}
    for name in strategy_names():
        s = make_strategy(name, 0, shared)
        assert s.player == 0
        assert s.name == name


def test_coalition_membership_accumulates_via_shared_dict():
    shared = {}
    members = [make_strategy("coalition", i, shared) for i in (1, 2, 3)]
    lone_honest = make_strategy("honest", 0, shared)
    assert lone_honest.coalition_members() is None
    for s in members:
        assert s.coalition_members() == frozenset({1, 2, 3})
    # separate runs don't leak membership
    other = make_strategy("coalition", 5, {})
    assert other.coalition_members() == frozenset({5})


def test_coalition_throws_to_lowest_index():
    shared = {}
    s1 = make_strategy("coalition", 1, shared)
    s2 = make_strategy("coalition", 2, shared)
    assert s2._throws_to(1)  # internal match, higher index defers
    assert not s1._throws_to(2)  # the lower index plays to win
    assert not s2._throws_to(0)  # outsiders get an honest game
    assert not s2._throws_to(None)


# the coins every strategy draws from


def test_a_child_rng_is_keyed_by_its_parent_and_label_with_one_hash(monkeypatch):
    parent = Rng(7)
    assert parent._key == hashlib.sha256(b"rng-seed:7").digest()
    parent.bytes(40)  # how far a parent has read does not move its children
    hashes = []
    sha256 = primitives.sha256
    monkeypatch.setattr(primitives, "sha256", lambda data: hashes.append(data) or sha256(data))
    child = parent.child("secret/3/1/0")
    key = hashlib.sha256(parent._key + b"/secret/3/1/0").digest()
    assert hashes == [parent._key + b"/secret/3/1/0"]
    assert child._key == key
    assert child.bytes(40) == b"".join(
        hashlib.sha256(key + i.to_bytes(8, "little")).digest() for i in range(2)
    )[:40]


@pytest.mark.parametrize("counter", [0, 1, 7, 2**32 + 5])
def test_a_draw_is_its_counter_blocks_joined_and_cut(counter):
    key = Rng(7)._key
    for n in range(101):
        rng = Rng(7)
        rng._counter = counter
        blocks = -(-n // 32)
        assert rng.bytes(n) == b"".join(
            hashlib.sha256(key + (counter + i).to_bytes(8, "little")).digest() for i in range(blocks)
        )[:n]
        assert rng._counter == counter + blocks
