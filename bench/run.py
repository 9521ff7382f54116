#!/usr/bin/env python3
"""commitlotto benchmark: closed-loop Monte Carlo trials on fixed workloads.

    python3 bench/run.py --workload plain-n8-honest --seed 1 --seconds 30 --trace 0

One client in this process runs `harness.run_trial(cfg, i)` for
i = 0, 1, ... one trial after another, with no threads, for --seconds and
for at least the workload's check trials. The seed is the scenario's
`master_seed`.

--trace 0 reports the end-to-end metrics, with trial and setup times
scaled to a fixed reference speed by bench/speed.py (the record keeps the
wall-clock values). --trace 1 runs the check trials
in passes until --seconds are spent, each trial once untraced and once
under the tracer of bench/tracer.py, and reports per-layer metrics per
traced trial and the tracing overhead.

Every run checks its outputs: each trial's payoffs sum to 0, no player
locks more than the bet, and a committed trial has a winner. The sweep CSV
and summary JSON of the check trials must be byte-identical to
`commitlotto sweep` run in-process for the same flags, and, for the seeds
recorded in bench/expected.json, hash to the recorded digest.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it is the full record, also written with the sweep files
and spans to bench/out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import NamedTuple, Optional

from speed import REFERENCE_UNIT_S, SpeedGauge, time_reference

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
EXPECTED = os.path.join(BENCH, "expected.json")

SETUP_PROBES = 9  # fresh processes timed per run; setup_s is their median
WARMUP_TRIAL = -1  # an index outside every timed and checked trial set


class Workload(NamedTuple):
    backend: str
    n: int
    strategies: tuple[str, ...]
    deposit: str
    check_trials: int  # trials 0..k-1 behind the output digest and the traced run

    def config(self, harness, seed: int, trials: int = 1):
        return harness.ScenarioConfig(
            backend=self.backend,
            n=self.n,
            strategies=self.strategies,
            deposit_option=self.deposit,
            trials=trials,
            master_seed=seed,
        )

    def sweep_argv(self, seed: int) -> list[str]:
        return [
            "sweep",
            "--backend", self.backend,
            "--n", str(self.n),
            "--strategies", ",".join(self.strategies),
            "--deposit", self.deposit,
            "--seed", str(seed),
            "--trials", str(self.check_trials),
        ]


# Why each workload is here: bench/README.md.
WORKLOADS = {
    "eth-n64-honest": Workload("ethereum", 64, ("honest",) * 64, "atomic", 32),
    "plain-n8-honest": Workload("bitcoin-plain", 8, ("honest",) * 8, "atomic", 4),
    "multi-n8-hashlocked-mixed": Workload(
        "bitcoin-multiinput",
        8,
        ("honest", "force-timeout", "abort-at-open", "coalition",
         "honest", "coalition", "honest", "honest"),
        "hashlocked",
        32,
    ),
}


class Attempt(NamedTuple):
    result: object  # TrialResult, or None when the trial raised
    faults: list[str]
    seconds: float


def trial_faults(r) -> list[str]:
    """Invariants every trial must keep, whatever the strategies."""
    faults = []
    if sum(r.payoffs) != 0:
        faults.append(f"trial {r.trial}: payoffs sum to {sum(r.payoffs)}")
    if r.max_locked_beyond_bet != 0:
        faults.append(f"trial {r.trial}: {r.max_locked_beyond_bet} locked beyond the bet")
    if r.committed and r.winner is None:
        faults.append(f"trial {r.trial}: committed without a winner")
    return faults


def attempt(harness, cfg, index: int, tracer=None) -> Attempt:
    start = time.perf_counter()
    try:
        if tracer is None:
            result = harness.run_trial(cfg, index)
        else:
            with tracer.trial(index):
                result = harness.run_trial(cfg, index)
    except Exception as e:  # a failed trial is counted and the run goes on
        seconds = time.perf_counter() - start
        traceback.print_exc()
        return Attempt(None, [f"trial {index} raised {type(e).__name__}: {e}"], seconds)
    seconds = time.perf_counter() - start
    return Attempt(result, trial_faults(result), seconds)


class Tally:
    """Attempts and faults of one run, and the results of its check trials."""

    def __init__(self, check_trials: int):
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []
        self.checked: list[object] = [None] * check_trials

    def add(self, a: Attempt, index: int, extra_faults=()) -> None:
        faults = a.faults + list(extra_faults)
        self.attempted += 1
        self.failed += bool(faults)
        self.faults.extend(faults)
        if index < len(self.checked) and self.checked[index] is None:
            self.checked[index] = a.result


def run_timed(harness, cfg, wl: Workload, seconds: float):
    tally = Tally(wl.check_trials)
    gauge = SpeedGauge()
    times = []
    start = end = time.perf_counter()
    deadline = start + seconds
    index = 0
    while index < wl.check_trials or end < deadline:
        gauge.before_trial(index)
        a = attempt(harness, cfg, index)
        end = time.perf_counter()
        gauge.after_trial(a.seconds)
        times.append(a.seconds)
        tally.add(a, index)
        index += 1
    gauge.sample(index)
    return tally, times, end - start, gauge


def run_traced(harness, cfg, wl: Workload, seconds: float):
    from tracer import LAYER_NAMES, Tracer

    tracer = Tracer()
    tally = Tally(wl.check_trials)
    untraced_s = traced_s = 0.0
    onchain_txs = 0
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for index in range(wl.check_trials):
            # alternate which side runs first so neither always gets the warmer start
            first = (index + passes) % 2 == 1
            runs = {on: attempt(harness, cfg, index, tracer if on else None)
                    for on in (first, not first)}
            untraced, traced = runs[False], runs[True]
            untraced_s += untraced.seconds
            traced_s += traced.seconds
            mismatch = []
            if untraced.result is not None and traced.result is not None:
                onchain_txs += traced.result.onchain_tx_count
                if untraced.result != traced.result:
                    mismatch = [f"trial {index}: traced result differs from untraced"]
            tally.add(untraced, index)
            tally.add(traced, index, mismatch)
        passes += 1
        tracer.keep_spans = False  # spans of the first pass only; totals go on

    k = tracer.trials
    idx = {name: i for i, name in enumerate(LAYER_NAMES)}
    metrics = {}
    for i, name in enumerate(LAYER_NAMES):
        metrics[f"{name}.calls"] = (tracer.calls[i] / k, "count")
        metrics[f"{name}.ms"] = (tracer.total_s[i] * 1e3 / k, "ms")
        metrics[f"{name}.self_ms"] = (tracer.self_s[i] * 1e3 / k, "ms")

    def ratio(num, den):
        return num / den if den else 0.0

    submit, vm_call = idx["chain.Chain.submit"], idx["contracts.Vm.call"]
    run_s = tracer.total_s[idx["harness.ScaffoldRuntime.run"]]
    ceremony_s = tracer.total_s[idx["scaffold.signing_ceremony"]]
    metrics.update({
        "scaffold.bodies_built": (tracer.bodies_built / k, "count"),
        "chain.onchain_txs": (onchain_txs / k, "count"),
        "scaffold.onchain_share": (ratio(onchain_txs, tracer.bodies_built), "ratio"),
        "chain.submit_accept_ratio": (ratio(tracer.ok[submit], tracer.calls[submit]), "ratio"),
        "contracts.vm_call_ok_ratio": (ratio(tracer.ok[vm_call], tracer.calls[vm_call]), "ratio"),
        "harness.ScaffoldRuntime.play.ms": ((run_s - ceremony_s) * 1e3 / k, "ms"),
        "trace.untraced_trial_ms": (untraced_s * 1e3 / k, "ms"),
        "trace.traced_trial_ms": (traced_s * 1e3 / k, "ms"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    })
    return tally, metrics, tracer, passes


def measure_setup(wl_name: str, seed: int) -> tuple[list[float], list[float]]:
    """Fresh-process time up to the first timed trial: start, import, config, warm-up.

    Returns the wall times and the same scaled to reference speed by the
    reference kernel, which each probe times after it is ready.
    """
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", wl_name, "--seed", str(seed), "--seconds", "0"]
    wall, scaled = [], []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
        ready, reference_s = (float(x) for x in proc.stdout.split()[-2:])
        wall.append(ready - start)
        scaled.append(wall[-1] * REFERENCE_UNIT_S / reference_s)
    return wall, scaled


def percentile90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def summarize(harness, cfg, results):
    """The sweep summary of already-run trials, built by harness.run_monte_carlo.

    run_monte_carlo looks run_trial up at call time, so pointing it at the
    stored results reuses its aggregation instead of copying it here.
    """
    real = harness.run_trial
    harness.run_trial = lambda _cfg, index: results[index]
    try:
        return harness.run_monte_carlo(cfg)
    finally:
        harness.run_trial = real


def file_digest(*paths: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fp:
            h.update(fp.read())
    return h.hexdigest()


def check_outputs(harness, cli, name: str, seed: int, results, out_dir: str) -> dict:
    """Digest the check trials' sweep files and compare with `commitlotto sweep`."""
    wl = WORKLOADS[name]
    check = {"output_digest": None, "sweep_digest": None, "expected_digest": None, "ok": False}
    with open(EXPECTED) as fp:
        check["expected_digest"] = json.load(fp)["output_digest"][name].get(str(seed))
    if any(r is None for r in results):
        return check
    cfg = wl.config(harness, seed, trials=wl.check_trials)
    summary = summarize(harness, cfg, results)
    csv_path, json_path = os.path.join(out_dir, "trials.csv"), os.path.join(out_dir, "summary.json")
    with open(csv_path, "w", newline="") as fp:
        harness.write_trials_csv(fp, summary.results, cfg.n)
    with open(json_path, "w") as fp:
        fp.write(harness.dump_summary(summary))
    check["output_digest"] = file_digest(csv_path, json_path)

    sweep_csv, sweep_json = os.path.join(out_dir, "sweep.csv"), os.path.join(out_dir, "sweep.json")
    with open(os.path.join(out_dir, "sweep.stderr"), "w") as err, contextlib.redirect_stderr(err):
        rc = cli.main(wl.sweep_argv(seed) + ["--csv", sweep_csv, "--json", sweep_json])
    if rc == 0:
        check["sweep_digest"] = file_digest(sweep_csv, sweep_json)
    digest, expected = check["output_digest"], check["expected_digest"]
    check["ok"] = digest == check["sweep_digest"] and expected in (None, digest)
    return check


def loadavg() -> Optional[list[float]]:
    try:
        with open("/proc/loadavg") as fp:
            return [float(x) for x in fp.read().split()[:3]]
    except OSError:
        return None


def git_commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over src/ (relative path and bytes of each file), which a checkout without git still has."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fp:
                h.update(fp.read())
    return h.hexdigest()


def parse_args(argv):
    p = argparse.ArgumentParser(description="commitlotto benchmark (see bench/README.md)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="the scenario's master_seed")
    p.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "commitlotto", "harness.py")):
        print(f"bench: no commitlotto sources under {SRC}", file=sys.stderr)
        return 2
    load_start = loadavg()
    sys.path.insert(0, SRC)
    from commitlotto import harness

    wl = WORKLOADS[args.workload]
    cfg = wl.config(harness, args.seed)
    harness.run_trial(cfg, WARMUP_TRIAL)
    if args.setup_probe:
        ready = time.monotonic()
        time_reference(5)  # the kernel's first units in a fresh process run slow
        print(repr(ready), repr(time_reference(50)))
        return 0

    from commitlotto import cli

    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "config": cfg.to_json(), "check_trials": wl.check_trials}
    if args.trace:
        from tracer import write_spans

        tally, metrics, tracer, passes = run_traced(harness, cfg, wl, args.seconds)
        write_spans(tracer, os.path.join(out_dir, "spans"))
        record.update(traced_trials=tracer.trials, passes=passes)
    else:
        tally, times, elapsed, gauge = run_timed(harness, cfg, wl, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_wall, setup = measure_setup(args.workload, args.seed)
        scaled = gauge.scale(times)
        completed = tally.attempted - tally.failed
        metrics = {
            "trials_per_s": (completed / sum(scaled), "1/s"),
            "trial_ms_p50": (statistics.median(scaled) * 1e3, "ms"),
            "trial_ms_p90": (percentile90(scaled) * 1e3, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        record.update(
            samples=len(times),
            timed_s=elapsed,
            wall={
                "trials_per_s": completed / sum(times),
                "trial_ms_p50": statistics.median(times) * 1e3,
                "trial_ms_p90": percentile90(times) * 1e3,
                "setup_s": statistics.median(setup_wall),
            },
            setup_samples_s=setup,
            setup_wall_samples_s=setup_wall,
            reference_samples=len(gauge.samples),
            reference_unit_ms_median=statistics.median(gauge.samples) * 1e3,
        )

    check = check_outputs(harness, cli, args.workload, args.seed, tally.checked, out_dir)
    correct = tally.failed == 0 and check["ok"]
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    record.update(
        correct=correct,
        attempted=tally.attempted,
        failed=tally.failed,
        failed_share=tally.failed / tally.attempted,
        faults=tally.faults[:20],
        check=check,
        metrics=metrics,
        environment={
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "loadavg_start": load_start,
            "loadavg_end": loadavg(),
        },
    )
    with open(os.path.join(out_dir, "result.json"), "w") as fp:
        json.dump(record, fp, indent=2)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
