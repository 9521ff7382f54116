"""Operation counts of fixed trials, a gate that does not depend on the host.

Each case plays its trials under the benchmark's per-layer `Tracer`
(bench/tracer.py) and compares every nonzero per-layer call count, the
scaffold bodies built and the summed on-chain transactions with the
figures below. Times vary with the machine; these counts do not, so a
change that moves one is seen here. Such a change re-pins the count and
says why. The same counts, divided by on-chain transactions, must stay
nearly flat as the bracket grows.
"""

import functools
import importlib.util
from pathlib import Path

import pytest

from commitlotto import contracts, scaffold, utxo  # noqa: F401  (the tracer wraps what is loaded)
from commitlotto.harness import ScenarioConfig, run_trial

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

MIXED_SEATS = (
    "honest", "force-timeout", "abort-at-open", "coalition", "honest", "coalition", "honest", "honest",
)

# name: (backend, n, seats, deposit, trials) at seed 1, trials 0..trials-1;
# the first three are the benchmark's workloads over their check trials
CASES = {
    "eth-n64-honest": ("ethereum", 64, ("honest",) * 64, "atomic", 32),
    "plain-n8-honest": ("bitcoin-plain", 8, ("honest",) * 8, "atomic", 4),
    "multi-n8-hashlocked-mixed": ("bitcoin-multiinput", 8, MIXED_SEATS, "hashlocked", 32),
    "plain-n64-honest": ("bitcoin-plain", 64, ("honest",) * 64, "atomic", 1),
    "multi-n64-honest": ("bitcoin-multiinput", 64, ("honest",) * 64, "atomic", 1),
}

# (on-chain transactions, bodies built, nonzero calls per layer), summed over the trials
EXPECTED = {
    "eth-n64-honest": (10_144, 0, {
        "primitives.sha256": 16_224,
        "contracts.Vm.call": 10_144,
        "contracts.Vm.static_call": 2_048,
        "harness.ContractRuntime.run": 32,
    }),
    "plain-n8-honest": (88, 190, {
        "primitives.sha256": 872,
        "script.predicate_bytes": 161,
        "chain.body_bytes": 126,
        "chain.sig_digest_for": 4,
        "scaffold.build_tournament": 4,
        "scaffold.signing_ceremony": 4,
        "script.SignatureOracle.sign": 32,
        "chain.Chain.submit": 88,
        "script.evaluate_explain": 144,
        "harness.ScaffoldRuntime.run": 4,
        "harness.ScaffoldRuntime.drain": 30,
    }),
    "multi-n8-hashlocked-mixed": (1_120, 1_848, {
        "primitives.sha256": 10_978,
        "script.predicate_bytes": 1_252,
        "chain.body_bytes": 1_252,
        "chain.sig_digest_for": 256,
        "scaffold.build_tournament": 32,
        "scaffold.signing_ceremony": 32,
        "script.SignatureOracle.sign": 256,
        "chain.Chain.submit": 1_120,
        "script.evaluate_explain": 1_344,
        "harness.ScaffoldRuntime.run": 32,
        "harness.ScaffoldRuntime.drain": 282,
    }),
    "plain-n64-honest": (190, 407, {
        "primitives.sha256": 1_916,
        "script.predicate_bytes": 370,
        "chain.body_bytes": 244,
        "chain.sig_digest_for": 1,
        "scaffold.build_tournament": 1,
        "scaffold.signing_ceremony": 1,
        "script.SignatureOracle.sign": 64,
        "chain.Chain.submit": 190,
        "script.evaluate_explain": 316,
        "harness.ScaffoldRuntime.run": 1,
        "harness.ScaffoldRuntime.drain": 14,
    }),
    "multi-n64-honest": (253, 677, {
        "primitives.sha256": 9_723,
        "script.predicate_bytes": 640,
        "chain.body_bytes": 514,
        "chain.sig_digest_for": 1,
        "scaffold.build_tournament": 1,
        "scaffold.signing_ceremony": 1,
        "script.SignatureOracle.sign": 64,
        "chain.Chain.submit": 253,
        "script.evaluate_explain": 379,
        "harness.ScaffoldRuntime.run": 1,
        "harness.ScaffoldRuntime.drain": 17,
    }),
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", list(CASES))
def test_operation_counts_are_pinned(name):
    backend, n, seats, deposit, trials = CASES[name]
    cfg = ScenarioConfig(backend=backend, n=n, strategies=seats, deposit_option=deposit, master_seed=1)
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    tracer.keep_spans = False
    # the figures are a fresh process's: the cost model's sizes and the
    # kernel templates are computed once per argument list, so one already
    # computed would be left out
    scaffold.scaffold_stats.cache_clear()
    scaffold._kernel_template.cache_clear()
    onchain = 0
    for index in range(trials):
        with tracer.trial(index):
            onchain += run_trial(cfg, index).onchain_tx_count
    calls = {layer: c for layer, c in zip(tracer_module.LAYER_NAMES, tracer.calls) if c}
    assert (onchain, tracer.bodies_built, calls) == EXPECTED[name]


# ROADMAP 24's ratios: a count per on-chain transaction of an honest atomic
# trial (seed 1, trial 0) at n = 16, 32 and 64, in a fresh process's state;
# a trial should cost about as much as what reaches the chain, so each ratio
# may grow by at most FLAT from n = 16 to 64
RATIO_NS = (16, 32, 64)
FLAT = 1.5


@functools.cache
def per_onchain_tx(backend: str) -> dict[str, tuple[float, ...]]:
    """Bodies built and each layer's calls, per on-chain transaction, at each n."""
    tracer_module = load_tracer()
    ratios: dict[str, list[float]] = {}
    for n in RATIO_NS:
        cfg = ScenarioConfig(backend=backend, n=n, strategies=("honest",) * n, master_seed=1)
        tracer = tracer_module.Tracer()
        tracer.keep_spans = False
        scaffold.scaffold_stats.cache_clear()
        scaffold._kernel_template.cache_clear()
        with tracer.trial(0):
            onchain = run_trial(cfg, 0).onchain_tx_count
        counts = dict(zip(tracer_module.LAYER_NAMES, tracer.calls), bodies_built=tracer.bodies_built)
        for name, count in counts.items():
            ratios.setdefault(name, []).append(count / onchain)
    return {name: tuple(values) for name, values in ratios.items()}


@pytest.mark.parametrize("backend,count", [
    ("bitcoin-plain", "bodies_built"),
    ("bitcoin-plain", "chain.body_bytes"),
    ("bitcoin-plain", "primitives.sha256"),
    ("bitcoin-multiinput", "bodies_built"),
    ("bitcoin-multiinput", "chain.body_bytes"),
])
def test_a_count_per_onchain_transaction_stays_flat_from_16_to_64_players(backend, count):
    ratios = per_onchain_tx(backend)[count]
    assert ratios[-1] <= FLAT * ratios[0], dict(zip(RATIO_NS, ratios))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 12's structural remainder: a multiinput compression names every outcome that "
    "may pay its candidate, so the ids of kernels play never reaches are still hashed",
)
def test_multiinput_hashes_per_onchain_transaction_stay_flat_from_16_to_64_players():
    ratios = per_onchain_tx("bitcoin-multiinput")["primitives.sha256"]
    assert ratios[-1] <= FLAT * ratios[0], dict(zip(RATIO_NS, ratios))
