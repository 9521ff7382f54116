"""CLI: exit codes, output contracts, determinism."""

import hashlib
import json

import pytest

from commitlotto.cli import main
from commitlotto.scaffold import KernelId, load_tournament, tournament_to_json

from conftest import ETH_MIXED_SEATS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# build


def test_build_stats_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "build", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["materialized"] is True
    assert doc["stats"]["total_offchain"] == 56
    assert doc["stats"]["on_chain_worst_case"] == 10


def test_build_rejects_bad_player_count(capsys):
    code, _, err = run_cli(capsys, "build", "--n", "3")
    assert code == 2
    assert "power of two" in err


def test_build_large_plain_is_statistics_only(capsys, tmp_path):
    out_path = tmp_path / "stats.json"
    code, _, _ = run_cli(capsys, "build", "--n", "16", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["materialized"] is False
    assert doc["stats"]["total_offchain"] == 23922356
    # asking for the body set at that size is a config error
    code, _, err = run_cli(
        capsys, "build", "--n", "16", "--scaffold-out", str(tmp_path / "t.json")
    )
    assert code == 2
    assert "statistics-only" in err


def test_build_multiinput_large_n_materializes(capsys, tmp_path):
    scaffold = tmp_path / "m16.json"
    code, out, _ = run_cli(
        capsys,
        "build", "--n", "16", "--mode", "multiinput", "--scaffold-out", str(scaffold),
    )
    assert code == 0
    assert json.loads(out)["stats"]["total_offchain"] == 665
    assert scaffold.exists()


def test_build_writes_dot(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    code, _, _ = run_cli(capsys, "build", "--n", "2", "--dot", str(dot))
    assert code == 0
    assert dot.read_text().startswith("digraph")


def test_unknown_flag_is_config_error(capsys):
    assert run_cli(capsys, "build", "--turbo")[0] == 2
    assert run_cli(capsys, "frobnicate")[0] == 2


# verify


@pytest.fixture()
def scaffold_file(capsys, tmp_path):
    path = tmp_path / "scaffold.json"
    code, _, _ = run_cli(
        capsys, "build", "--n", "4", "--out", str(tmp_path / "s.json"),
        "--scaffold-out", str(path),
    )
    assert code == 0
    return path


def test_verify_accepts_honest_scaffold(capsys, scaffold_file):
    code, out, _ = run_cli(capsys, "verify", str(scaffold_file))
    assert code == 0
    assert "scaffold ok" in out


def test_verify_rejects_doctored_scaffold(capsys, scaffold_file, tmp_path):
    t = load_tournament(scaffold_file.read_text())
    donor = t.kernels[KernelId(0, 0, 0)]
    victim = t.kernels[KernelId(0, 1, 0)]
    doc = tournament_to_json(t)
    for k in doc["kernels"]:
        if (k["level"], k["match"], k["combo"]) == (0, 1, 0):
            k["left_commit"] = donor.left_commit.hex()
    bad = tmp_path / "doctored.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(bad))
    assert code == 3
    assert "DuplicateCommitment" in out
    assert "do not sign" in err


def test_verify_flags_doctored_stats(capsys, scaffold_file, tmp_path):
    doc = json.loads(scaffold_file.read_text())
    doc["stats"]["total_offchain"] = 999
    doc["stats"]["bytes_on_chain"] = 1  # not checkable: the file has no sig model
    bad = tmp_path / "stats.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(bad))
    assert code == 3
    assert "VIOLATION BadStats at scaffold: stats.total_offchain 999 != 56" in out
    assert "bytes_on_chain" not in out
    assert "scaffold ok" not in out


@pytest.mark.parametrize("field,value", [("tau", 0), ("tau", 1), ("t_commit", 1), ("bet", 0)])
def test_verify_reports_out_of_range_params(capsys, scaffold_file, tmp_path, field, value):
    doc = json.loads(scaffold_file.read_text())
    doc[field] = value
    bad = tmp_path / "params.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(bad))
    assert code == 3
    assert out.count("VIOLATION") == 1
    assert out.startswith(f"VIOLATION BadParams at scaffold: {field} must be ")


def _drop_kernels(doc):
    del doc["kernels"]


def _drop_ref_txid(doc):
    del doc["kernels"][0]["entry"]["inputs"][0]["txid"]


def _two_outcomes(doc):
    doc["kernels"][0]["outcomes"].pop()


def _word_for_n(doc):
    doc["n"] = "four"


def _unknown_predicate_op(doc):
    doc["deposits"][0]["outputs"][0]["predicate"]["op"] = "mystery"


MALFORMED = {
    "no-kernels": _drop_kernels,
    "ref-without-txid": _drop_ref_txid,
    "two-outcomes": _two_outcomes,
    "n-as-word": _word_for_n,
    "unknown-predicate-op": _unknown_predicate_op,
    "top-level-list": lambda doc: [doc],
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_verify_malformed_scaffold_is_input_error(capsys, scaffold_file, tmp_path, name):
    doc = json.loads(scaffold_file.read_text())
    doc = MALFORMED[name](doc) or doc
    bad = tmp_path / f"{name}.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 2
    assert err.startswith("error: ")
    assert "internal error" not in err


# run


def test_run_prints_trial_json(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--backend", "ethereum", "--n", "4", "--seed", "cli-run"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["committed"] is True
    assert sorted(doc["payoffs"]) == [-1, -1, -1, 3]


def test_run_rejects_bad_strategy_mix(capsys):
    code, _, err = run_cli(
        capsys,
        "run", "--backend", "ethereum", "--n", "4", "--strategies", "force-timeout",
    )
    assert code == 2
    assert "configuration error" in err


# sweep


def test_sweep_outputs_are_byte_identical_across_runs(capsys, tmp_path):
    csvs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, out, _ = run_cli(
            capsys,
            "sweep", "--backend", "bitcoin-plain", "--n", "2",
            "--trials", "20", "--seed", "sweep-det",
            "--csv", str(path), "--json", str(tmp_path / (name + ".json")),
        )
        assert code == 0
        csvs.append(path.read_bytes())
    assert csvs[0] == csvs[1]
    a = json.loads((tmp_path / "a.csv.json").read_text())
    b = json.loads((tmp_path / "b.csv.json").read_text())
    assert a == b
    assert a["trials"] == 20 and a["zero_sum_ok"] is True


# the benchmark's mixed seats (bench/run.py, multi-n8-hashlocked-mixed); n=4 takes the first four
MIXED_SEATS = (
    "honest", "force-timeout", "abort-at-open", "coalition",
    "honest", "coalition", "honest", "honest",
)

# sha256 over the sweep CSV and summary JSON of each mix in order, recorded
# from the code before the scaffold runtime read play from the chain (bitcoin)
# and before the contract runtime read play from the VM (ethereum)
SWEEP_GOLDEN = {
    ("bitcoin-plain", 4, "atomic"): "3a3b06f9119adfdd98a56ec7b12436a62de58e8edf7d4c4ad38546b104df236a",
    ("bitcoin-plain", 4, "hashlocked"): "39492dddeafbf091bc0c0dc814ae11c42cf5cee2bed322c4bb8e40b2ca8d2ad1",
    ("bitcoin-plain", 8, "atomic"): "f72663900e88497e708aae97a9b1ec951d7d7531437df6478086741862e44c38",
    ("bitcoin-plain", 8, "hashlocked"): "5d86cba5bdc30b3d33a270af3a6f43585d55139360349e752aa9951fb1a331f4",
    ("bitcoin-multiinput", 4, "atomic"): "5d43ed5c75870944aa26889328adc751fbc663ab2a50168d3de8138acbc61d12",
    ("bitcoin-multiinput", 4, "hashlocked"): "a67448bb6b031658ce8fe56948735f5335ce172ad686eba9fba5a514d2b01a41",
    ("bitcoin-multiinput", 8, "atomic"): "cff54046689b42323faa9d5d4bde664e3b1f3dc8fbf70caf96b1368e609d119b",
    ("bitcoin-multiinput", 8, "hashlocked"): "bb8da98fb3cbfe44d3fada5bc5bd6bda8d6e146c114a1a0e6742a1297a4f53d7",
    ("ethereum", 4, "atomic"): "8cbd1fb2c905cd4a7c9080dd02464172e0fe61db88ee1fc73e7fc5459e50b498",
    ("ethereum", 8, "atomic"): "f8b42462f0a128bc8ebfe1207604b2765b9470e18308a8845a035f151c9ca2b3",
}


@pytest.mark.parametrize("backend,n,deposit", sorted(SWEEP_GOLDEN))
def test_sweep_outputs_match_the_golden_digests(capsys, tmp_path, backend, n, deposit):
    if backend == "ethereum":
        mixes = (
            ("honest",) * n,
            ETH_MIXED_SEATS[:n],
            ("honest",) * (n - 1) + ("abort-at-deposit",),
        )
    else:
        mixes = (
            ("honest",) * n,
            MIXED_SEATS[:n],
            ("honest",) * (n - 1) + ("abort-at-deposit",),
            ("honest", "withhold-broadcast") + ("honest",) * (n - 2),
        )
    digest = hashlib.sha256()
    for mix in mixes:
        csv_path, json_path = tmp_path / "trials.csv", tmp_path / "summary.json"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--backend", backend, "--n", str(n), "--deposit", deposit,
            "--strategies", ",".join(mix), "--trials", "8", "--seed", "golden",
            "--csv", str(csv_path), "--json", str(json_path),
        )
        assert code == 0
        digest.update(csv_path.read_bytes())
        digest.update(json_path.read_bytes())
    assert digest.hexdigest() == SWEEP_GOLDEN[(backend, n, deposit)]


def test_sweep_require_dominance_fails_on_rigged_table(capsys):
    # two colluders against nobody honest at n=2: the lower index always wins,
    # so seat 1 never does; with honest absent the check is vacuous and passes
    code, _, err = run_cli(
        capsys,
        "sweep", "--backend", "ethereum", "--n", "2",
        "--strategies", "coalition,coalition", "--trials", "10",
        "--require-dominance",
    )
    assert code == 0
    assert "no honest players" in err


def test_sweep_reports_dominance_lines(capsys):
    # report lines land on stderr so `--json -` stays parseable
    code, out, err = run_cli(
        capsys,
        "sweep", "--backend", "ethereum", "--n", "2",
        "--trials", "200", "--seed", "dom-cli", "--require-dominance",
    )
    assert code == 0
    assert "player 0 (honest)" in err and "player 1 (honest)" in err
    json.loads(out)


def test_sweep_dominance_failure_exits_three(capsys):
    # 11 committed trials cannot split a 2-player bracket 50/50, so one
    # honest frequency sits strictly below 0.5 and eps=0 must trip
    code, _, err = run_cli(
        capsys,
        "sweep", "--backend", "ethereum", "--n", "2",
        "--trials", "11", "--eps", "0.0", "--require-dominance",
    )
    assert code == 3
    assert "dominance check FAILED" in err


@pytest.mark.parametrize("eps", ["-5", "1.5", "nan"])
def test_sweep_rejects_eps_outside_the_unit_interval(capsys, eps):
    code, out, err = run_cli(
        capsys, "sweep", "--backend", "ethereum", "--n", "2", "--trials", "1", "--eps", eps
    )
    assert code == 2
    assert out == ""
    assert err == f"configuration error: eps must be in [0, 1], got {float(eps)}\n"


# costs


def test_costs_reports_zero_collateral(capsys):
    code, out, _ = run_cli(capsys, "costs", "--backend", "bitcoin-plain", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["collateral_beyond_bet"] == 0
    assert doc["offchain_signed_per_party"] == 56
    assert doc["onchain_tx_count"] == 10


def test_costs_statistics_only_for_big_plain(capsys):
    code, out, _ = run_cli(capsys, "costs", "--backend", "bitcoin-plain", "--n", "16")
    assert code == 0
    doc = json.loads(out)
    assert doc["materialized"] is False
    assert doc["onchain_tx_count"] == 46


def test_costs_rejects_hashlocked_deposits_on_ethereum(capsys):
    costs = run_cli(capsys, "costs", "--backend", "ethereum", "--deposit", "hashlocked")
    run = run_cli(capsys, "run", "--backend", "ethereum", "--deposit", "hashlocked")
    assert costs[0] == run[0] == 2
    assert costs[1] == ""
    assert costs[2] == run[2] == (
        "configuration error: the contract backend escrows stakes in the master; use atomic\n"
    )


PARAM_COMMANDS = {
    "build": ("build",),
    "export-dot": ("export-dot",),
    "run": ("run", "--backend", "bitcoin-plain"),
    "sweep": ("sweep", "--backend", "bitcoin-plain", "--trials", "1"),
    "costs": ("costs", "--backend", "bitcoin-plain"),
    "costs-multiinput": ("costs", "--backend", "bitcoin-multiinput"),
    "costs-ethereum": ("costs", "--backend", "ethereum"),
}


@pytest.mark.parametrize("command", sorted(PARAM_COMMANDS))
@pytest.mark.parametrize(
    "flag",
    [
        ("--tau", "0"), ("--bet", "0"), ("--t-commit", "0"), ("--bet", "-3"), ("--tau", "-5"),
        ("--tau", "1"), ("--t-commit", "1"), ("--n", "3"),
        # heights and pots must fit the 32-bit integers of a scaffold file
        ("--tau", str(2**33)), ("--t-commit", str(2**70)), ("--bet", str(2**32)),
    ],
    ids=lambda flag: flag[0].lstrip("-") + flag[1],
)
def test_statistics_only_branches_reject_bad_input(capsys, command, flag):
    # every command rejects the same values with the same message, and
    # plain n=16 (the closed-form branch of build, export-dot and costs)
    # checks what n=4 checks
    reference = run_cli(capsys, "build", *flag)
    prefix = PARAM_COMMANDS[command]
    small = run_cli(capsys, *prefix, "--n", "4", *flag)
    big = run_cli(capsys, *prefix, "--n", "16", *flag)
    assert reference[0] == small[0] == big[0] == 2
    assert big[2] == small[2] == reference[2]
    assert small[2].startswith("configuration error: ")
    assert small[1] == big[1] == ""


# export-dot


def test_export_dot_from_fresh_build(capsys):
    code, out, _ = run_cli(capsys, "export-dot", "--n", "2")
    assert code == 0
    assert out.startswith("digraph")


def test_export_dot_from_file(capsys, scaffold_file, tmp_path):
    out_path = tmp_path / "g.dot"
    code, _, _ = run_cli(
        capsys, "export-dot", "--scaffold", str(scaffold_file), "--out", str(out_path)
    )
    assert code == 0
    assert "k1_0_8" in out_path.read_text()


def test_export_dot_refuses_unbuildable_size(capsys):
    assert run_cli(capsys, "export-dot", "--n", "16")[0] == 2
