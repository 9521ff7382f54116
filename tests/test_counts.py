"""Operation counts of fixed trials, a gate that does not depend on the host.

Each case plays its trials under the benchmark's per-layer `Tracer`
(bench/tracer.py) and compares every nonzero per-layer call count, the
scaffold bodies built and the summed on-chain transactions with the
figures below. Times vary with the machine; these counts do not, so a
change that moves one is seen here. Such a change re-pins the count and
says why.
"""

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
    "plain-n8-honest": (88, 160, {
        "primitives.sha256": 784,
        "script.predicate_bytes": 259,
        "chain.body_bytes": 224,
        "chain.sig_digest_for": 4,
        "scaffold.build_tournament": 4,
        "scaffold.signing_ceremony": 4,
        "script.SignatureOracle.sign": 32,
        "chain.Chain.submit": 88,
        "script.evaluate_explain": 144,
        "harness.ScaffoldRuntime.run": 4,
        "harness.ScaffoldRuntime.drain": 30,
    }),
    "multi-n8-hashlocked-mixed": (1_120, 2_938, {
        "primitives.sha256": 12_014,
        "script.predicate_bytes": 3_450,
        "chain.body_bytes": 3_450,
        "chain.sig_digest_for": 256,
        "scaffold.build_tournament": 32,
        "scaffold.signing_ceremony": 32,
        "script.SignatureOracle.sign": 256,
        "chain.Chain.submit": 1_120,
        "script.evaluate_explain": 1_344,
        "harness.ScaffoldRuntime.run": 32,
        "harness.ScaffoldRuntime.drain": 282,
    }),
    "plain-n64-honest": (190, 347, {
        "primitives.sha256": 1_744,
        "script.predicate_bytes": 601,
        "chain.body_bytes": 475,
        "chain.sig_digest_for": 1,
        "scaffold.build_tournament": 1,
        "scaffold.signing_ceremony": 1,
        "script.SignatureOracle.sign": 64,
        "chain.Chain.submit": 190,
        "script.evaluate_explain": 316,
        "harness.ScaffoldRuntime.run": 1,
        "harness.ScaffoldRuntime.drain": 14,
    }),
    "multi-n64-honest": (253, 3_872, {
        "primitives.sha256": 12_810,
        "script.predicate_bytes": 4_126,
        "chain.body_bytes": 4_000,
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
    # the figures are a fresh process's: the cost model's sizes are computed
    # once per argument list, so one already computed would be left out
    scaffold.scaffold_stats.cache_clear()
    onchain = 0
    for index in range(trials):
        with tracer.trial(index):
            onchain += run_trial(cfg, index).onchain_tx_count
    calls = {layer: c for layer, c in zip(tracer_module.LAYER_NAMES, tracer.calls) if c}
    assert (onchain, tracer.bodies_built, calls) == EXPECTED[name]
