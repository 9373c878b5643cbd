"""DD-phase shrinking: identity-skipped gate DDs + static qubit reorder.

Two levers make the DD phase smaller rather than faster-per-node
(``docs/PERFORMANCE.md``, "Shrinking the DD phase"):

* **Identity skip** (always on in the DD phase): gate DDs span only
  their active-qubit window; ``mv``/``mm`` treat missing levels as exact
  weight-1 pass-throughs.  The state DD -- and hence the EWMA trigger,
  which watches state-DD node counts -- is unchanged; the win is gate-DD
  construction and application cost.
* **Reorder** (``--qubit-order interaction|sift``): a static
  logical-to-physical permutation keeps interacting qubits adjacent, so
  gate windows narrow *and* the state DD itself can shrink -- which is
  the lever that actually moves the EWMA conversion point.

This experiment measures three things per workload: gate-DD node counts
(package matrix-table size after building every gate, full-height vs
windowed -- the table is shared, so hash-consed identity chains are
counted once, same as the simulator pays for them), the EWMA conversion
gate index per variant (deterministic: the trigger is size-driven), and
DD-phase + conversion wall seconds per variant (min over interleaved
repeats).  Identity skip leaves the state DD unchanged, so comparing
the natural order against sift isolates the reorder's effect on the
trigger.

Shape targets: >= 2x windowed node reduction on at least one
sparse-gate workload (supremacy/dnn clear it; qft's controlled-phase
tail sits near 1.6x because control-to-target routing through
intermediate levels is genuine structure, not identity), and a
demonstrably delayed EWMA conversion point on at least one
reorder-helped workload.
"""

from __future__ import annotations

import pytest

from repro.backends.gatecache import GateDDCache
from repro.bench.tables import render_table
from repro.circuits import get_circuit
from repro.common.config import FlatDDConfig
from repro.core import FlatDDSimulator
from repro.dd.package import DDPackage

from conftest import emit, record

WORKLOADS = [
    ("qft", 20),
    ("supremacy", 16),
    ("supremacy", 18),
    ("dnn", 12),
]
#: (label, qubit_order) variants timed per workload.
VARIANTS = [("skip", "natural"), ("skip+sift", "sift")]
REPEATS = 4
MIN_NODE_REDUCTION = 2.0


def gate_dd_nodes(circuit, windowed: bool) -> int:
    """Matrix-table size after building every gate DD of ``circuit``.

    The unique table is shared, so identity chains and repeated gates
    are counted once -- exactly the footprint the simulator pays.
    """
    pkg = DDPackage(circuit.num_qubits)
    cache = GateDDCache(pkg)
    for gate in circuit.gates:
        cache.get(gate, windowed=windowed)
    return pkg.matrix_node_count


def _dd_phase_run(circuit, threads, qubit_order):
    cfg = FlatDDConfig(threads=threads, qubit_order=qubit_order)
    result = FlatDDSimulator(cfg).run(circuit)
    seconds = sum(g.seconds for g in result.gate_trace if g.phase == "dd")
    report = result.metadata.get("conversion_report")
    if result.metadata.get("converted") and report is not None:
        seconds += report.seconds
    return seconds, result


def run_experiment(threads: int = 4):
    node_rows, timed_rows = [], []
    measured = {}
    for family, n in WORKLOADS:
        circuit = get_circuit(family, n)
        name = f"{family}-{n}"
        full = gate_dd_nodes(circuit, windowed=False)
        windowed = gate_dd_nodes(circuit, windowed=True)
        reduction = full / windowed
        node_rows.append(
            [name, str(full), str(windowed), f"{reduction:.2f}x"]
        )
        best = {}
        conv_at = {}
        counters = {}
        for _ in range(REPEATS):
            for label, order in VARIANTS:
                seconds, result = _dd_phase_run(circuit, threads, order)
                best[label] = min(best.get(label, seconds), seconds)
                conv_at[label] = result.metadata.get("conversion_gate_index")
                counters[label] = result.metadata["obs"]["counters"]
        base_s = best["skip"]
        for label, _ in VARIANTS:
            timed_rows.append([
                name if label == "skip" else "",
                label,
                f"{1000.0 * best[label]:.1f}",
                f"{base_s / best[label]:.2f}x",
                str(conv_at[label]),
            ])
        measured[name] = {
            "nodes_full": full,
            "nodes_windowed": windowed,
            "node_reduction": reduction,
            "seconds": best,
            "speedup": {k: base_s / v for k, v in best.items()},
            "conversion_gate": conv_at,
            "counters": counters,
        }
    text = "\n\n".join([
        render_table(
            "Gate-DD node counts: package matrix-table size after building "
            "every gate, full-height vs identity-skipped windows",
            ["workload", "full nodes", "windowed nodes", "reduction"],
            node_rows,
        ),
        render_table(
            "DD phase + conversion: wall ms and EWMA conversion gate per "
            f"variant (min of {REPEATS} interleaved runs, {threads} "
            "threads; 'None' = never converted)",
            ["workload", "variant", "dd+conv ms", "vs skip", "conv gate"],
            timed_rows,
        ),
    ])
    return text, measured


@pytest.mark.benchmark(group="dd-shrink")
def test_dd_shrink(benchmark, threads):
    text, measured = benchmark.pedantic(
        lambda: run_experiment(threads), rounds=1, iterations=1
    )
    emit("dd_shrink", text)
    record(
        "dd_shrink",
        {
            name: {
                "gate_dd_nodes_full": m["nodes_full"],
                "gate_dd_nodes_windowed": m["nodes_windowed"],
                "node_reduction_speedup": m["node_reduction"],
                "dd_conv_sift_speedup": m["speedup"]["skip+sift"],
            }
            for name, m in measured.items()
        },
        config_digest=f"threads={threads};repeats={REPEATS}",
    )
    # Identity skipping must clear 2x on at least one sparse-gate
    # workload (the structural claim behind the feature).
    best_reduction = max(m["node_reduction"] for m in measured.values())
    assert best_reduction >= MIN_NODE_REDUCTION, (
        f"best gate-DD node reduction {best_reduction:.2f}x below "
        f"the {MIN_NODE_REDUCTION}x floor"
    )
    # Reorder must demonstrably delay the (size-driven, deterministic)
    # EWMA trigger on at least one workload.
    delayed = [
        name
        for name, m in measured.items()
        if m["conversion_gate"]["skip"] is not None
        and m["conversion_gate"]["skip+sift"] is not None
        and m["conversion_gate"]["skip+sift"] > m["conversion_gate"]["skip"]
    ]
    assert delayed, (
        "no workload showed a delayed EWMA conversion point under "
        f"reorder: {[m['conversion_gate'] for m in measured.values()]}"
    )
    # The skip actually engaged: identity counters are live.
    for name, m in measured.items():
        c = m["counters"]["skip"]
        assert (
            c.get("dd.identity.mv_skips", 0)
            + c.get("dd.identity.lift_steps", 0)
            + c.get("dd.identity.passthrough_skips", 0)
        ) > 0, name


# ---------------------------------------------------------------------------
# CI smoke: deterministic metrics only (node counts, conversion indexes,
# identity counters) so bench-compare can gate on them.
# ---------------------------------------------------------------------------

SMOKE_WORKLOADS = [("qft", 12), ("supremacy", 12)]


def run_smoke(directory: str | None = None) -> str:
    """Write ``BENCH_dd_shrink_smoke.json`` from deterministic metrics.

    Everything recorded here is machine-independent: gate-DD node counts
    are pure DD structure, the EWMA trigger is driven by state-DD node
    counts (never wall time), and the identity counters replay the same
    skip decisions on every host.  CI gates on this record with a tight
    bench-compare threshold; an intentional behavior change means
    regenerating the committed baseline.
    """
    from repro.bench.registry import write_bench_record

    metrics: dict[str, dict] = {}
    for family, n in SMOKE_WORKLOADS:
        circuit = get_circuit(family, n)
        name = f"{family}-{n}"
        full = gate_dd_nodes(circuit, windowed=False)
        windowed = gate_dd_nodes(circuit, windowed=True)
        _, skip_res = _dd_phase_run(circuit, 2, "natural")
        _, sift_res = _dd_phase_run(circuit, 2, "sift")
        counters = skip_res.metadata["obs"]["counters"]
        metrics[name] = {
            "gate_dd_nodes_full": full,
            "gate_dd_nodes_windowed": windowed,
            "node_reduction_speedup": full / windowed,
            "conversion_gate_natural": (
                skip_res.metadata.get("conversion_gate_index") or 0
            ),
            "conversion_gate_sift": (
                sift_res.metadata.get("conversion_gate_index") or 0
            ),
            "identity_mv_skips": counters.get("dd.identity.mv_skips", 0),
            "identity_lift_steps": counters.get("dd.identity.lift_steps", 0),
            "identity_passthrough_skips": counters.get(
                "dd.identity.passthrough_skips", 0
            ),
            "reorder_cost_natural": sift_res.metadata["reorder"][
                "cost_natural"
            ],
            "reorder_cost_selected": sift_res.metadata["reorder"][
                "cost_selected"
            ],
        }
    path = write_bench_record(
        "dd_shrink_smoke",
        metrics,
        directory=directory,
        config_digest="qft-12;supremacy-12;threads=2;deterministic",
    )
    print(f"bench record: {path}")
    return path


if __name__ == "__main__":
    import sys

    run_smoke(sys.argv[1] if len(sys.argv) > 1 else None)
