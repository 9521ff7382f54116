"""CLI: exit codes, output contracts, determinism."""

import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import pytest

from commitlotto import cli, scaffold
from commitlotto.chain import BODY_JSON
from commitlotto.cli import _parse_seed, main
from commitlotto.primitives import MAX_PLAYERS, check_params, to_json
from commitlotto.scaffold import KernelId, load_tournament

from conftest import ETH_MIXED_SEATS, count_builds


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


# sha256 of build's stats JSON on stdout, recorded before the kernel's shape
# was read from one table: `bytes_on_chain` is otherwise checked only
# against bodies the same builder built
STATS_GOLDEN = [
    (("--n", "4"), "f20b049c8fe7f19d955b3e221b692474418e031bf57bc1fe1f9ceb2c26293832"),
    (("--n", "64"), "e6d3327584a740494be01248b3e39c2d690dd1c129aadf3752c95ed14de2e011"),
    (
        ("--n", "64", "--mode", "multiinput", "--deposit", "hashlocked"),
        "b77518771b0dffe8cd73b17effd5e63c4c01a87ea112f1dd3c542c1b1614acad",
    ),
]


@pytest.mark.parametrize("argv,digest", STATS_GOLDEN, ids=[" ".join(argv) for argv, _ in STATS_GOLDEN])
def test_build_stats_match_their_pinned_digests(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "build", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    doc = json.loads(scaffold_file.read_text())
    for k in doc["kernels"]:
        if (k["level"], k["match"], k["combo"]) == (0, 1, 0):
            k["left_commit"] = donor.commits[0].hex()
    bad = tmp_path / "doctored.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(bad))
    assert code == 3
    assert "DuplicateCommitment" in out
    assert "do not sign" in err


def test_export_dot_refuses_a_doctored_scaffold(capsys, scaffold_file, tmp_path, monkeypatch):
    # the same doctored file: export-dot draws honest construction, so it
    # names verify's violation in one line and builds nothing
    doc = json.loads(scaffold_file.read_text())
    left = {(k["level"], k["match"], k["combo"]): k for k in doc["kernels"]}
    left[(0, 1, 0)]["left_commit"] = left[(0, 0, 0)]["left_commit"]
    bad = tmp_path / "doctored.json"
    bad.write_text(json.dumps(doc))
    built = count_builds(monkeypatch)
    dot = tmp_path / "g.dot"
    code, out, err = run_cli(capsys, "export-dot", "--scaffold", str(bad), "--out", str(dot))
    assert (code, out) == (2, "")
    assert err == (
        "configuration error: cannot draw a scaffold verify rejects: DuplicateCommitment at "
        "kernel (0, 1, 0): side 0 repeats commitment of kernel (0, 0, 0) side 0\n"
    )
    assert not dot.exists()
    assert built == {"kernel": [], "compression": []}


# sha256 of files `build --scaffold-out` wrote in older formats: versions
# 1 to 3 also stored every body (each kernel's five, the compressions and
# the deposits), versions 1 and 2 each kernel's players, heights and pot,
# and version 1 the level stride, refund time and stats; the version-2 and
# version-3 digests are the ones the workflow pinned then
OLD_SCAFFOLD_FILES = {
    "v1-plain4": (1, "plain4", "6e5166a9d8d7d6d9b6d5b988936db5699240f04b10d2d2dcf5371bc2e1ca96cd"),
    "v2-plain4": (2, "plain4", "b44038aeaf82dadd7215524125224d07772525b4ecebf4c85d7b662bba9fe94e"),
    "v2-multi8": (2, "multi8", "704fda7493bf9af86d27ea5f55d55921637077c80fabdc865f12a0e07e8b0b7c"),
    "v3-plain4": (3, "plain4", "59aafba1e228e2d7594cde60eccfc1d02a1afa12ce0f8688090d7e89a28535c8"),
    "v3-multi8": (3, "multi8", "d8f167769ff76165667ed3d4ff50d9e795583cce379472e4a5b1b3490d4b4370"),
}


@pytest.mark.parametrize("old", sorted(OLD_SCAFFOLD_FILES))
def test_verify_refuses_an_older_scaffold_file(capsys, tmp_path, old):
    # an older file is the current one plus the bodies honest construction
    # builds from it and what the parameters fix, under its old tag; that
    # it hashes to the old pin shows the dropped bodies and facts are the
    # ones a file used to store
    version, name, digest = OLD_SCAFFOLD_FILES[old]
    path = tmp_path / f"{name}.json"
    argv = ("--out", str(tmp_path / "s.json"), "--scaffold-out", str(path))
    assert run_cli(capsys, "build", *WORKFLOW_SCAFFOLD_GOLDEN[name][0], *argv)[0] == 0
    doc = json.loads(path.read_text())
    t = load_tournament(path.read_text())
    for k in doc["kernels"]:
        kid = (k["level"], k["match"], k["combo"])
        kernel = t.kernel(*kid)
        k["entry"], k["reveal"] = to_json(kernel.bodies[0], BODY_JSON), to_json(kernel.bodies[1], BODY_JSON)
        k["outcomes"] = [to_json(kernel.bodies[i], BODY_JSON) for i in scaffold.OUTCOMES]
        if version < 3:
            k["left_player"], k["right_player"] = scaffold.players_of(t.n, *kid, t.mode)
            k["t0"], k["t1"], k["t2"] = t.schedule(k["level"])
            k["pot"] = (2 << k["level"]) * t.bet
    doc["compressions"] = [
        {"level": level, "match": match, "candidate": cand, "body": to_json(body, BODY_JSON)}
        for (level, match, cand), body in t.compressions.items()
    ]
    doc["deposits"] = [to_json(body, BODY_JSON) for body in t.deposit_bodies]
    if version == 1:
        doc.update(level_stride=t.level_stride, refund_time=t.refund_time, stats=t.stats.to_json())
    doc["format"] = f"tournament-scaffold-v{version}"
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    path.write_text(text)
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: not a scaffold file (format 'tournament-scaffold-v{version}')\n"


def _repeat_a_funding_ref(doc):
    # the deposit would spend funding 0 twice, so the chain would never accept it
    doc["funding"][1] = doc["funding"][0]


def _give_an_atomic_scaffold_a_joint_digest(doc):
    assert doc["mpc_digest"] is None  # honest atomic construction writes none
    doc["mpc_digest"] = "ab" * 32


@pytest.mark.parametrize(
    "edit,line",
    [
        (_repeat_a_funding_ref,
         "VIOLATION BadParams at scaffold: need one distinct funding output per player"),
        (_give_an_atomic_scaffold_a_joint_digest,
         "VIOLATION BadDeposit at scaffold: atomic deposits take no joint mpc digest"),
    ],
)
def test_verify_flags_deposit_inputs_honest_construction_never_writes(
    capsys, scaffold_file, tmp_path, edit, line
):
    doc = json.loads(scaffold_file.read_text())
    edit(doc)
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(bad))
    assert code == 3
    assert out.splitlines() == [line]
    assert "do not sign" in err


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


def _relabel_n16(doc):
    # an n=4 file relabelled n=16: honest plain construction at that size
    # has 23,922,356 bodies, so neither command may build any
    doc["n"] = 16
    doc["master_keys"] = [hashlib.sha256(b"key%d" % i).hexdigest() for i in range(16)]
    doc["funding"] = [
        {"txid": hashlib.sha256(b"funding%d" % i).hexdigest(), "index": 0} for i in range(16)
    ]


def _relabel_n3(doc):
    # no bracket has three players, so there is no kernel id to build
    doc["n"] = 3


def _drop_the_last_record(doc):
    # the final kernel has no commitments to build it from
    last = doc["kernels"].pop()
    assert (last["level"], last["match"], last["combo"]) == (1, 0, 8)


# a file honest construction cannot draw, and the one violation verify finds in it
UNBUILDABLE = {
    "plain-n16": (_relabel_n16, "BadParams at scaffold: plain scaffolds with n=16 are too large to verify"),
    "n3": (_relabel_n3, "BadParams at scaffold: player count 3 is not a power of two >= 2"),
    "missing-kernel": (_drop_the_last_record, "MissingKernel at kernel (1, 0, 8): kernel absent from scaffold"),
}


@pytest.mark.parametrize("command", ["verify", "export-dot"])
@pytest.mark.parametrize("name", sorted(UNBUILDABLE))
def test_a_scaffold_construction_cannot_draw_is_refused_before_anything_is_built(
    capsys, scaffold_file, tmp_path, monkeypatch, command, name
):
    # verify reports the violation and exits 3; export-dot, which draws
    # honest construction, says in one line why it cannot and exits 2
    edit, violation = UNBUILDABLE[name]
    doc = json.loads(scaffold_file.read_text())
    edit(doc)
    bad = tmp_path / f"{name}.json"
    bad.write_text(json.dumps(doc))
    built = count_builds(monkeypatch)
    dot = tmp_path / "g.dot"
    if command == "verify":
        code, out, err = run_cli(capsys, "verify", str(bad))
        assert (code, out) == (3, f"VIOLATION {violation}\n")
        assert "do not sign" in err
    else:
        code, out, err = run_cli(capsys, "export-dot", "--scaffold", str(bad), "--out", str(dot))
        assert (code, out) == (2, "")
        assert err == f"configuration error: cannot draw a scaffold verify rejects: {violation}\n"
        assert not dot.exists()
    assert built == {"kernel": [], "compression": []}


def _drop_kernels(doc):
    del doc["kernels"]


def _drop_ref_txid(doc):
    del doc["funding"][0]["txid"]


def _drop_right_commit(doc):
    del doc["kernels"][0]["right_commit"]


def _word_for_n(doc):
    doc["n"] = "four"


def _short_funding_txid(doc):
    # the canonical encoding writes a txid with no length prefix, so it is
    # unambiguous only while every txid is 32 bytes
    doc["funding"][0]["txid"] = doc["funding"][0]["txid"][:62]


def _unknown_mode(doc):
    doc["mode"] = "segwit"


def _unknown_deposit_option(doc):
    doc["deposit_option"] = "escrow"


def _drop_mpc_digest(doc):
    # hashlocked deposits lock on it, so there is nothing to build them from
    doc["mpc_digest"] = None


def _add_a_field(steps, key="extra"):
    """An edit giving the record at `steps` (keys and indexes from the top) a field the format lacks."""
    def edit(doc):
        record = doc
        for step in steps:
            record = record[step]
        record[key] = 1
    return edit


# a record of each kind and the path an error names it by
RECORDS = {
    "top-level": ((), "scaffold"),
    "kernel": (("kernels", 0), "kernels[0]"),
    "ref": (("funding", 0), "funding[0]"),
}

# each edit of a multiinput hashlocked file, which has every kind of record, and the error it gives
MALFORMED = {
    "no-kernels": (_drop_kernels, "scaffold: missing field 'kernels'"),
    "ref-without-txid": (_drop_ref_txid, "funding[0]: missing field 'txid'"),
    "kernel-without-right-commit": (_drop_right_commit, "kernels[0]: missing field 'right_commit'"),
    "n-as-word": (_word_for_n, "n: expected a non-negative 32-bit integer, got 'four'"),
    "txid-of-31-bytes": (_short_funding_txid, "funding[0].txid: expected 32 bytes, got 31"),
    "unknown-mode": (_unknown_mode, "mode: unknown mode 'segwit'"),
    "unknown-deposit-option": (_unknown_deposit_option, "deposit_option: unknown deposit option 'escrow'"),
    "hashlocked-without-mpc-digest": (
        _drop_mpc_digest, "mpc_digest: hashlocked deposits need the joint mpc digest"
    ),
    "top-level-list": (
        lambda doc: [doc], "scaffold: expected an object, got [{'bet': 1, 'deposit_option': 'hashlocke"
    ),
    **{
        f"unknown-field-in-{record}": (_add_a_field(steps), f"{where}: unknown field 'extra'")
        for record, (steps, where) in RECORDS.items()
    },
    # the bodies a version-3 file carried: honest construction builds them now
    "deposits": (_add_a_field((), "deposits"), "scaffold: unknown field 'deposits'"),
    "compressions": (_add_a_field((), "compressions"), "scaffold: unknown field 'compressions'"),
    "kernel-body": (_add_a_field(("kernels", 0), "entry"), "kernels[0]: unknown field 'entry'"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_verify_malformed_scaffold_is_input_error(capsys, tmp_path, name):
    path = tmp_path / "multi4.json"
    argv = ("--n", "4", "--mode", "multiinput", "--deposit", "hashlocked", "--out", str(tmp_path / "s.json"))
    assert run_cli(capsys, "build", *argv, "--scaffold-out", str(path))[0] == 0
    edit, error = MALFORMED[name]
    doc = json.loads(path.read_text())
    doc = edit(doc) or doc
    bad = tmp_path / f"{name}.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: {error}\n"


@pytest.mark.parametrize(
    "command", [("verify",), ("export-dot", "--scaffold")], ids=["verify", "export-dot"]
)
def test_a_v3_file_that_also_carries_derived_facts_is_malformed_input(
    capsys, scaffold_file, tmp_path, command
):
    # the workflow's plain4.json with players, a pot, a level stride and stats
    # beside its records, at values no check compares; read by looking up
    # only the keys the format had, a version-3 file like it passed verify
    # with "scaffold ok"
    assert hashlib.sha256(scaffold_file.read_bytes()).hexdigest() == WORKFLOW_SCAFFOLD_GOLDEN["plain4"][1]
    doc = json.loads(scaffold_file.read_text())
    for k in doc["kernels"]:
        k.update(left_player=3, right_player=3, pot=999)
    doc.update(level_stride=77, stats={"total_offchain": 1})
    bad = tmp_path / "plain4.json"
    bad.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    code, out, err = run_cli(capsys, *command, str(bad))
    assert (code, out) == (2, "")
    assert err == "error: scaffold: unknown field 'level_stride'\n"


@pytest.mark.parametrize(
    "command", [("verify",), ("export-dot", "--scaffold")], ids=["verify", "export-dot"]
)
def test_a_string_utf8_cannot_encode_is_malformed_input(capsys, scaffold_file, tmp_path, command):
    # the JSON escape "\udc80" decodes to a lone surrogate, which the
    # canonical encoding cannot take; the error names the field, not the codec
    doc = json.loads(scaffold_file.read_text())
    doc["mode"] = "\udc80"
    bad = tmp_path / "surrogate.json"
    bad.write_text(json.dumps(doc))
    assert '"\\udc80"' in bad.read_text()
    code, out, err = run_cli(capsys, *command, str(bad))
    assert (code, out) == (2, "")
    assert err == "error: mode: expected a string UTF-8 can encode, got '\\udc80'\n"


@pytest.mark.parametrize(
    "command", [("verify",), ("export-dot", "--scaffold")], ids=["verify", "export-dot"]
)
def test_a_repeated_record_is_malformed_input(capsys, scaffold_file, tmp_path, command):
    # a tampered copy placed before the genuine record must not be dropped
    # silently: the file names two records for one kernel
    doc = json.loads(scaffold_file.read_text())
    tampered = dict(doc["kernels"][0], left_commit="ab" * 32)
    doc["kernels"].insert(0, tampered)
    bad = tmp_path / "repeated.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *command, str(bad))
    assert (code, out) == (2, "")
    assert err == "error: kernels[1]: repeats kernel (0, 0, 0)\n"


def _deep_record(scaffold_file):
    # a scaffold whose first kernel record nests its left commitment in 5,000 objects
    doc = json.loads(scaffold_file.read_text())
    doc["kernels"][0]["left_commit"] = "DEEP"
    levels = 5000
    return json.dumps(doc).replace('"DEEP"', '{"a": ' * levels + "1" + "}" * levels)


NESTED_TOO_DEEP = {
    "arrays": lambda scaffold_file: "[" * 100000 + "]" * 100000,
    "record": _deep_record,
}


@pytest.mark.parametrize(
    "command", [("verify",), ("export-dot", "--scaffold")], ids=["verify", "export-dot"]
)
@pytest.mark.parametrize("nesting", sorted(NESTED_TOO_DEEP))
def test_input_nested_too_deeply_to_decode_is_malformed_input(
    capsys, scaffold_file, tmp_path, command, nesting
):
    # once a RecursionError, reported as an internal error
    bad = tmp_path / "deep.json"
    bad.write_text(NESTED_TOO_DEEP[nesting](scaffold_file))
    code, out, err = run_cli(capsys, *command, str(bad))
    assert (code, out) == (2, "")
    assert err == "error: scaffold: nested too deeply to decode\n"


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
    assert a["config"]["sig_model"] == "multisig"  # the one model every trial plays


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


# sha256 of the summary each console-script sweep in .github/workflows/tests.yml
# writes to stdout, run here in-process with the same flags
WORKFLOW_SWEEP_GOLDEN = [
    (
        ("--backend", "ethereum", "--n", "64", "--strategies", ",".join(ETH_MIXED_SEATS * 8)),
        "2abfb3160663532d9e5de07a05971aaac32b53ed6398720d7b0ff2c025d3ce83",
    ),
    (
        ("--backend", "bitcoin-plain", "--deposit", "atomic", "--n", "32",
         "--strategies", ",".join(MIXED_SEATS * 4)),
        "33721c1be9223822348f9d7646b22c6bbccefe795cc625d3cd064f16843770bd",
    ),
    (
        ("--backend", "bitcoin-multiinput", "--deposit", "hashlocked", "--n", "32",
         "--strategies", ",".join(MIXED_SEATS * 4)),
        "f1ae6616d291d5731efb8766a0506d095b54a0d9bd419c25946e532d745c56a1",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", WORKFLOW_SWEEP_GOLDEN, ids=["ethereum-n64", "plain-n32", "multiinput-n32"]
)
def test_the_workflow_sweeps_match_their_pinned_digests(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "sweep", *argv, "--trials", "20", "--json", "-")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


# sha256 of each costs report the workflow writes, run here in-process with
# the same flags
WORKFLOW_COSTS_GOLDEN = [
    (("--backend", "bitcoin-plain", "--n", "16"),
     "faff7dbe888e23179e3171d36487ef2e19ee08f80290b9dbfe39d8ea818053ce"),
    (("--backend", "bitcoin-multiinput", "--n", "64", "--deposit", "hashlocked"),
     "1e621c64f725ba8151f56123db7dcf822e7f0e430a91dae03534ba0510b98e32"),
    (("--backend", "ethereum", "--n", "128"),
     "75adba71eca19cf88c8f5204b381f8491ac1c6650fd4ae2e32bda6cf2d421da4"),
]


@pytest.mark.parametrize(
    "argv, digest", WORKFLOW_COSTS_GOLDEN, ids=["plain-n16", "multiinput-n64-hashlocked", "ethereum-n128"]
)
def test_the_workflow_costs_reports_match_their_pinned_digests(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "costs", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    "run": ("run", "--backend", "bitcoin-plain"),
    "sweep": ("sweep", "--backend", "bitcoin-plain", "--trials", "1"),
    "costs": ("costs", "--backend", "bitcoin-plain"),
    "costs-multiinput": ("costs", "--backend", "bitcoin-multiinput"),
    "costs-ethereum": ("costs", "--backend", "ethereum"),
}
PARAM_FLAGS = [
    ("--tau", "0"), ("--bet", "0"), ("--t-commit", "0"), ("--bet", "-3"), ("--tau", "-5"),
    ("--tau", "1"), ("--t-commit", "1"), ("--n", "3"),
    # heights and pots must fit the 32-bit integers of a scaffold file
    ("--tau", str(2**33)), ("--t-commit", str(2**70)), ("--bet", str(2**32)),
]
# costs probes at the default bet, so it takes no --bet
PARAM_CASES = [
    (flag, command) for flag in PARAM_FLAGS for command in sorted(PARAM_COMMANDS)
    if not (flag[0] == "--bet" and PARAM_COMMANDS[command][0] == "costs")
]


@pytest.mark.parametrize(
    "flag,command",
    PARAM_CASES,
    ids=[f"{flag[0].lstrip('-')}{flag[1]}-{command}" for flag, command in PARAM_CASES],
)
def test_statistics_only_branches_reject_bad_input(capsys, command, flag):
    # every command rejects the same values with the same message, and
    # plain n=16 (the closed-form branch of build and costs) checks what
    # n=4 checks
    reference = run_cli(capsys, "build", *flag)
    prefix = PARAM_COMMANDS[command]
    small = run_cli(capsys, *prefix, "--n", "4", *flag)
    big = run_cli(capsys, *prefix, "--n", "16", *flag)
    assert reference[0] == small[0] == big[0] == 2
    assert big[2] == small[2] == reference[2]
    assert small[2].startswith("configuration error: ")
    assert small[1] == big[1] == ""


def run_cli_peak(capsys, *argv):
    """`run_cli`, with the peak of the bytes Python allocated during the call."""
    tracemalloc.start()
    try:
        return (*run_cli(capsys, *argv), tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


# a player count above the largest: each per-player table would take tens of GB
HUGE_N = [
    ("run", "--backend", "ethereum", "--n", str(2**31)),
    ("sweep", "--backend", "ethereum", "--n", str(2**31)),
    ("costs", "--backend", "ethereum", "--n", str(2**31)),
    ("build", "--n", str(2**31)),
    ("costs", "--backend", "bitcoin-multiinput", "--n", str(2**30)),
]


@pytest.mark.parametrize("argv", HUGE_N, ids=[" ".join(argv) for argv in HUGE_N])
def test_a_player_count_above_the_largest_is_refused_before_anything_is_made(capsys, argv):
    code, out, err, peak = run_cli_peak(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"configuration error: player count {argv[-1]} is above the largest, 2^16 = 65536\n"
    assert peak < 1 << 20
    # the largest is admitted, and every n a test, CI step or workload plays is below it
    check_params(MAX_PLAYERS, 6, 10, 1)
    assert MAX_PLAYERS == 1 << 16


def test_verify_reports_a_player_count_above_the_largest_as_bad_params(capsys, scaffold_file, tmp_path):
    doc = json.loads(scaffold_file.read_text())
    doc["n"] = 2**31
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, _, peak = run_cli_peak(capsys, "verify", str(path))
    assert code == 3
    assert out == f"VIOLATION BadParams at scaffold: player count {2**31} is above the largest, 2^16 = 65536\n"
    assert peak < 1 << 20


# export-dot


# sha256 of each scaffold file the workflow builds and verifies, recorded
# when the format became version 4: each is the version-3 file minus every
# body, under the new format tag
WORKFLOW_SCAFFOLD_GOLDEN = {
    "plain4": (("--n", "4"), "a55d0b1d11811ca50fb51e6f3d983c5b224ee4ab6673312b4b2fe6cefe6cf6bb"),
    "multi8": (
        ("--n", "8", "--mode", "multiinput", "--deposit", "hashlocked"),
        "a620e501ba0e14e567034514138fd0b0afd85be6e6c99bb3d5d7f67f630ecac5",
    ),
    "multi16": (
        ("--n", "16", "--mode", "multiinput", "--deposit", "hashlocked"),
        "45408158898c70891a74b9edd75b3955632bf912d290225b551bdc89a6be138b",
    ),
}


@pytest.mark.parametrize("name", sorted(WORKFLOW_SCAFFOLD_GOLDEN))
def test_the_workflow_scaffold_files_match_their_pinned_digests(capsys, tmp_path, monkeypatch, name):
    argv, digest = WORKFLOW_SCAFFOLD_GOLDEN[name]
    path = tmp_path / f"{name}.json"
    argv += ("--out", str(tmp_path / "s.json"), "--scaffold-out", str(path))
    assert run_cli(capsys, "build", *argv)[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    # verify judges the parameters and commitments as they stand: it builds no body
    built = count_builds(monkeypatch)
    assert run_cli(capsys, "verify", str(path))[0] == 0
    assert built == {"kernel": [], "compression": []}


def test_export_dot_from_file(capsys, scaffold_file, tmp_path):
    out_path = tmp_path / "g.dot"
    code, _, _ = run_cli(
        capsys, "export-dot", "--scaffold", str(scaffold_file), "--out", str(out_path)
    )
    assert code == 0
    assert "k1_0_8" in out_path.read_text()


def test_build_dot_refuses_unbuildable_size(capsys, tmp_path):
    argv = ("build", "--n", "16", "--out", str(tmp_path / "s.json"), "--dot", str(tmp_path / "g.dot"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "statistics-only" in err
    assert list(tmp_path.iterdir()) == []


# sha256 of the Graphviz output of a fresh build: every node, label, lock
# and edge of the spend graph, byte for byte
DOT_GOLDEN = [
    (("--n", "4"), "6f4962e956095712c907cd7ead4e64873e46b1e1d5ac90432c69551484572b73"),
    (
        ("--n", "8", "--mode", "multiinput", "--deposit", "hashlocked"),
        "3e54b744876a909b27a6bfabad5a6324842f2b16939196826a4580a93a2f195b",
    ),
    # every kernel's wiring two levels of combos deep (3,756 bodies) and five (2,641 bodies)
    (("--n", "8"), "e3b4922dc77466813454c4b6b17dc89ee19212d3fb074a9f3b18cc0fd9937038"),
    (("--n", "32", "--mode", "multiinput"), "23a589eb096d32dbea93a836d71d1dd8b46454d2d2d8024c44935e6c4d68eec9"),
]


@pytest.mark.parametrize("command", ["build", "export-dot"])
@pytest.mark.parametrize(
    "argv, digest", DOT_GOLDEN, ids=["plain-n4", "multiinput-n8-hashlocked", "plain-n8", "multiinput-n32"]
)
def test_build_dot_golden(capsys, tmp_path, monkeypatch, argv, digest, command):
    # export-dot draws the file build --scaffold-out wrote, by honest construction
    monkeypatch.chdir(tmp_path)
    if command == "build":
        code, out, _ = run_cli(capsys, "build", *argv, "--out", "s.json", "--dot", "-")
    else:
        assert run_cli(capsys, "build", *argv, "--out", "s.json", "--scaffold-out", "t.json")[0] == 0
        code, out, _ = run_cli(capsys, "export-dot", "--scaffold", "t.json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_every_digest_the_workflow_pins_is_checked_in_process():
    # the workflow runs only in CI, so each output it pins has a golden here
    pinned = set(re.findall(r"\b[0-9a-f]{64}\b", WORKFLOW.read_text()))
    goldens = {digest for _, digest in WORKFLOW_SWEEP_GOLDEN + WORKFLOW_COSTS_GOLDEN + DOT_GOLDEN + STATS_GOLDEN}
    goldens |= {digest for _, digest in WORKFLOW_SCAFFOLD_GOLDEN.values()}
    assert pinned, "no digest found in the workflow"
    assert pinned - goldens == set()


# export-dot takes no bracket flags: the file it reads fixes the bracket, so
# it draws what build --dot drew for that file, byte for byte
DOT_BUILDS = [
    ("--n", "2"),
    ("--n", "4"),
    ("--n", "4", "--deposit", "hashlocked"),
    ("--n", "4", "--tau", "3", "--t-commit", "7", "--bet", "5", "--seed", "9"),
    ("--n", "8"),
    ("--n", "2", "--mode", "multiinput"),
    ("--n", "8", "--mode", "multiinput", "--deposit", "hashlocked"),
    ("--n", "16", "--mode", "multiinput"),
]


@pytest.mark.parametrize(
    "argv",
    DOT_BUILDS,
    ids=["plain-n2", "plain-n4", "plain-n4-hashlocked", "plain-n4-schedule-bet-seed", "plain-n8",
         "multiinput-n2", "multiinput-n8-hashlocked", "multiinput-n16"],
)
def test_export_dot_of_a_built_file_draws_what_build_dot_drew(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, drawn, _ = run_cli(
        capsys, "build", *argv, "--out", "s.json", "--scaffold-out", "t.json", "--dot", "-"
    )
    assert code == 0
    assert drawn.startswith("digraph")
    assert run_cli(capsys, "export-dot", "--scaffold", "t.json", "--out", "g.dot")[0] == 0
    assert (tmp_path / "g.dot").read_bytes().decode() == drawn
    for path in ("-", ""):
        assert run_cli(capsys, "export-dot", "--scaffold", "t.json", "--out", path)[:2] == (0, drawn)
    assert not (tmp_path / "-").exists()


# one rule for output paths: "-" and "" both mean stdout, and never name a file


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("build", "--n", "4"), "--out"),
        (("build", "--n", "4", "--out", "stats.json"), "--scaffold-out"),
        (("build", "--n", "4", "--out", "stats.json"), "--dot"),
        (("sweep", "--backend", "bitcoin-plain", "--n", "2", "--trials", "3"), "--json"),
        (("sweep", "--backend", "bitcoin-plain", "--n", "2", "--trials", "3", "--json", "s.json"), "--csv"),
    ],
    ids=["build", "build-scaffold-out", "build-dot", "sweep", "sweep-csv"],
)
def test_an_empty_output_path_writes_to_stdout_like_dash(capsys, tmp_path, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv, flag, "file.out")[0] == 0
    expected = (tmp_path / "file.out").read_bytes().decode()
    for path in ("-", ""):
        code, out, _ = run_cli(capsys, *argv, flag, path)
        assert code == 0
        assert out and out == expected
    assert not (tmp_path / "-").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "--n", "2", "--scaffold-out", "-"),
        ("build", "--n", "2", "--out", "", "--dot", "-"),
        ("build", "--n", "2", "--out", "s.json", "--scaffold-out", "", "--dot", "-"),
        ("build", "--n", "2", "--scaffold-out", "-", "--dot", "-"),
        ("sweep", "--backend", "ethereum", "--n", "2", "--trials", "2", "--csv", "-"),
        ("sweep", "--backend", "ethereum", "--n", "2", "--trials", "2", "--csv", "", "--json", "-"),
    ],
    ids=["build-scaffold", "build-dot", "scaffold-and-dot", "all-three", "sweep", "sweep-empty"],
)
def test_two_outputs_aimed_at_stdout_are_refused(capsys, tmp_path, monkeypatch, argv):
    # their texts would run together, so the stream would parse as neither
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error: ") and "cannot share stdout" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("build", "--n", "4"), "--scaffold-out"),
        (("sweep", "--backend", "ethereum", "--n", "2", "--trials", "3", "--csv", "-"), "--json"),
    ],
    ids=["build", "sweep"],
)
def test_a_failed_command_writes_nothing_to_stdout(capsys, tmp_path, argv, flag):
    # every output is rendered first and stdout written last, so an output
    # that cannot be written leaves stdout empty instead of half the command's work
    path = str(tmp_path / "missing" / "out.json")
    code, out, err = run_cli(capsys, *argv, flag, path)
    assert code == 2
    assert out == ""
    assert path in err


SEED_COMMANDS = {
    "build": ("build", "--n", "2"),
    "run": ("run", "--backend", "ethereum", "--n", "2"),
    "sweep": ("sweep", "--backend", "ethereum", "--n", "2", "--trials", "2"),
}


@pytest.mark.parametrize("command", sorted(SEED_COMMANDS))
@pytest.mark.parametrize(
    "seed",
    ["--5", "²", "١٢", "-１", "\udcff"],
    ids=["two-signs", "superscript", "arabic-indic", "fullwidth", "not-utf8"],
)
def test_a_seed_neither_an_ascii_integer_nor_utf8_text_names_the_flag(capsys, command, seed):
    # digits outside ASCII once became int() errors or, worse, a different seed;
    # "\udcff" is how Python hands over the argv byte 0xff, which is not UTF-8
    code, out, err = run_cli(capsys, *SEED_COMMANDS[command], f"--seed={seed}")
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error: --seed: ")


@pytest.mark.parametrize(
    "text,seed",
    [("12", 12), ("-12", -12), ("007", 7), ("commitlotto", "commitlotto"), ("1 2", "1 2"),
     ("-", "-"), ("5-", "5-"), ("süß", "süß")],
)
def test_a_seed_is_an_integer_only_in_ascii_digits(text, seed):
    got = _parse_seed(text)
    assert got == seed and type(got) is type(seed)


RUN = ("run", "--backend", "ethereum", "--n", "2")
SWEEP = ("sweep", "--backend", "ethereum", "--n", "2", "--trials", "2")
# (command line, the flag given `--`), which argparse hands over as an empty list
DASHDASH = [
    (RUN + ("--seed=--",), "--seed"),
    (RUN + ("--tau=--",), "--tau"),
    (RUN + ("--trial=--",), "--trial"),
    (("costs", "--backend", "ethereum", "--n", "2", "--tau=--"), "--tau"),
    (("build", "--n", "2", "--out=--"), "--out"),
    (("build", "--n", "2", "--dot=--"), "--dot"),
    (("build", "--n", "2", "--scaffold-out=--"), "--scaffold-out"),
    (SWEEP + ("--json=--",), "--json"),
    (SWEEP + ("--csv=--",), "--csv"),
    (SWEEP + ("--strategies=--",), "--strategies"),
    (("export-dot", "--scaffold=--", "--out", "f.dot"), "--scaffold"),
]


@pytest.mark.parametrize(
    "argv,flag", DASHDASH, ids=[f"{argv[0]}{flag}" for argv, flag in DASHDASH]
)
def test_a_flag_given_dashdash_never_plays_and_names_the_flag(
    capsys, tmp_path, monkeypatch, argv, flag
):
    # once, --out=-- crashed as an internal error, --trial=-- played trial []
    # and export-dot --scaffold=-- built a scaffold instead of reading one
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"configuration error: {flag}: expected a value, got '--'\n"
    assert list(tmp_path.iterdir()) == []


# flags that once changed no output: a scenario's signature model, the
# seed and bet of the costs probe, and export-dot's bracket flags, which
# the scaffold file it reads fixes
REMOVED_FLAGS = [
    RUN + ("--sig-model", "multisig"),
    SWEEP + ("--sig-model", "aggregate"),
    ("costs", "--backend", "ethereum", "--n", "2", "--seed", "1"),
    ("costs", "--backend", "ethereum", "--n", "2", "--bet", "2"),
    *[
        ("export-dot", "--scaffold", "plain4.json") + flag
        for flag in (
            ("--n", "64"), ("--tau", "6"), ("--t-commit", "10"), ("--deposit", "atomic"),
            ("--bet", "1"), ("--seed", "commitlotto"), ("--mode", "plain"),
        )
    ],
]


@pytest.mark.parametrize("argv", REMOVED_FLAGS, ids=[f"{a[0]}{a[-2]}" for a in REMOVED_FLAGS])
def test_a_removed_flag_is_refused_and_plays_nothing(capsys, monkeypatch, argv):
    played = []
    for name in ("run_trial", "run_monte_carlo", "measure_costs"):
        monkeypatch.setattr(cli, name, lambda *a, **kw: played.append(a))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, played) == (2, "", [])
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_costs_takes_exactly_the_signature_models_of_the_table(capsys):
    argv = ("costs", "--backend", "bitcoin-plain", "--n", "4")
    for model in scaffold.SIG_MODELS:
        code, out, _ = run_cli(capsys, *argv, "--sig-model", model)
        assert code == 0
        assert json.loads(out)["sig_model"] == model
    code, out, err = run_cli(capsys, *argv, "--sig-model", "schnorr")
    assert (code, out) == (2, "")
    assert "invalid choice: 'schnorr'" in err


def test_costs_sizes_authorization_by_its_signature_model(capsys):
    argv = ("costs", "--backend", "bitcoin-plain", "--n", "4")
    multisig = json.loads(run_cli(capsys, *argv)[1])
    aggregate = json.loads(run_cli(capsys, *argv, "--sig-model", "aggregate")[1])
    assert (multisig["sig_model"], aggregate["sig_model"]) == ("multisig", "aggregate")
    # each of the 10 transactions carries one 32-byte signature instead of four
    assert multisig["onchain_tx_count"] == 10
    assert multisig["onchain_bytes"] - aggregate["onchain_bytes"] == 10 * 3 * 32
