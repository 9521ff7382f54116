#!/usr/bin/env python3
"""The benchmark's own test. Run from the repository root:

    python3 bench/selftest.py

It checks that:
- a short run of every workload reports every metric BENCHMARK.json names,
  with --trace 0 the end-to-end ones and with --trace 1 the per-layer ones,
  is correct and has no failed trial;
- two traced runs of one seed give identical counts (every `.calls`,
  `scaffold.bodies_built`, `scaffold.onchain_share` and the other counts);
- self times recomputed from the written spans match the reported ones;
- the default and held-out seeds reproduce the digests in bench/expected.json;
- in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from run import WORKLOADS  # noqa: E402
from tracer import read_spans, self_seconds_from_spans  # noqa: E402

# per-layer values that are counts or ratios of counts, so must repeat exactly
EXACT_SUFFIXES = (".calls", "bodies_built", "onchain_share", "onchain_txs", "_ratio")
TIMING_PREFIX = "trace."


def run(workload: str, seed: int, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    with open(os.path.join(BENCH, "expected.json")) as fp:
        expected = json.load(fp)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems: list[str] = []

    def expect(cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            problems.append(what)

    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "BENCHMARK.json names the workloads of run.py")
    seeds = (expected["default_seed"], expected["held_out_seed"])
    for name in WORKLOADS:
        for seed in seeds:
            record, last = result_of(run(name, seed, 0))
            expect(last["correct"] and last["failed"] == 0, f"{name} seed {seed}: correct, no failed trial")
            expect(
                {k: v["unit"] for k, v in last["metrics"].items()} == e2e,
                f"{name} seed {seed}: every end-to-end metric, with its unit",
            )
            digest = record["check"]["output_digest"]
            expect(
                digest is not None and digest == expected["output_digest"][name].get(str(seed)),
                f"{name} seed {seed}: output digest as recorded in expected.json",
            )

        traced = []
        for attempt in range(2):
            record, last = result_of(run(name, seeds[0], 1))
            traced.append(last["metrics"])
            expect(last["correct"] and last["failed"] == 0, f"{name} traced run {attempt}: correct")
            expect(
                {k: v["unit"] for k, v in last["metrics"].items()} == layers,
                f"{name} traced run {attempt}: every per-layer metric, with its unit",
            )
            if attempt == 0:
                names, spans = read_spans(os.path.join(
                    BENCH, "out", f"{name}-seed{seeds[0]}-trace1", "spans"))
                per_trial = {k: v * 1e3 / record["traced_trials"]
                             for k, v in self_seconds_from_spans(names, spans).items()}
                worst = max(
                    abs(per_trial[layer] - last["metrics"][f"{layer}.self_ms"]["value"])
                    for layer in names if layer != "trial"
                )
                expect(worst < 1e-6, f"{name}: self times from spans match the report ({worst:.2e} ms)")
        exact = [k for k in layers if k.endswith(EXACT_SUFFIXES) and not k.startswith(TIMING_PREFIX)]
        differ = [k for k in exact if traced[0][k]["value"] != traced[1][k]["value"]]
        expect(not differ, f"{name}: {len(exact)} counts repeat exactly between two traced runs {differ}")

    bare = os.path.join(BENCH, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(next(iter(WORKLOADS)), seeds[0], 0, cwd=bare)
    printed = proc.stdout.strip().splitlines()
    expect(
        proc.returncode != 0 and not (printed and printed[-1].startswith("{")),
        f"without the sources: exit {proc.returncode}, no result printed",
    )
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
