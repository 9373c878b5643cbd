"""Batched parameter-sweep execution (``simulate_sweep``).

The sweep contract is *bit-identity*: every row of the batch must equal
(``np.array_equal``) the state of a single-shot ``run()`` on the
equivalently bound circuit under the same config.  These tests pin that
contract across batch shapes, thread counts, cache policies, and the
degenerate inputs the API must reject, plus the memory-guard behaviour
mid-sweep.
"""

import base64
import os

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.generators.regular import qft
from repro.common.config import DENSE_BLOCK_LEVEL
from repro.common.errors import (
    CheckpointError,
    CircuitError,
    ReproError,
    ResourceExhaustedError,
    SimulationError,
)
from repro.core import dmav
from repro.core.simulator import FlatDDSimulator
from repro.resilience.snapshot import read_snapshot
from repro.verify.fuzz.oracles import phase_aligned_error


def _template(n=4, layers=2):
    """Hardware-efficient template with a leading H column.

    The H column gives every bound row an identical gate prefix, so a
    sweep with ``force_convert_at=0`` shares one DD phase per group.
    """
    c = Circuit(n, name="sweep-template")
    for q in range(n):
        c.h(q)
    for _ in range(layers):
        for q in range(n):
            c.ry(0.0, q)
        for q in range(n):
            c.rz(0.0, q)
        for q in range(n - 1):
            c.cx(q, q + 1)
    return c


def _rows(circuit, count, seed=0):
    rng = np.random.default_rng(seed)
    return [
        tuple(rng.uniform(-np.pi, np.pi, circuit.num_param_slots))
        for _ in range(count)
    ]


def _assert_rows_identical(sim, circuit, rows, result):
    for i, row in enumerate(rows):
        ref = sim.run(circuit.bind(row)).state
        assert np.array_equal(result.states[i], ref), (
            f"row {i} diverged: max|diff|="
            f"{np.max(np.abs(result.states[i] - ref))}"
        )


# ---------------------------------------------------------------------------
# Shape and degenerate-input behaviour
# ---------------------------------------------------------------------------


def test_batch_of_one_matches_single_shot():
    c = _template()
    sim = FlatDDSimulator(threads=2, force_convert_at=0)
    rows = _rows(c, 1)
    result = sim.simulate_sweep(c, rows)
    assert result.states.shape == (1, 1 << c.num_qubits)
    assert result.num_rows == 1
    _assert_rows_identical(sim, c, rows, result)


def test_empty_param_sets_rejected_with_structured_error():
    sim = FlatDDSimulator(threads=1)
    with pytest.raises(SimulationError) as exc:
        sim.simulate_sweep(_template(), [])
    assert isinstance(exc.value, ReproError)
    assert "at least one parameter set" in str(exc.value)


def test_wrong_row_width_rejected():
    c = _template()
    sim = FlatDDSimulator(threads=1)
    with pytest.raises(CircuitError):
        sim.simulate_sweep(c, [(0.1, 0.2)])


def test_non_parameterized_circuit_sweeps():
    ghz = Circuit(4, name="ghz").h(0)
    for q in range(3):
        ghz.cx(q, q + 1)
    assert ghz.num_param_slots == 0
    sim = FlatDDSimulator(threads=2)
    result = sim.simulate_sweep(ghz, [(), (), ()])
    ref = sim.run(ghz).state
    for i in range(3):
        assert np.array_equal(result.states[i], ref)
    # all three rows are the same circuit: one simulation, fanned out
    assert result.metadata["unique_rows"] == 1


def test_duplicate_rows_deduplicated_and_fanned_out():
    c = _template()
    sim = FlatDDSimulator(threads=2, force_convert_at=0)
    rows = _rows(c, 3)
    rows = [rows[0], rows[1], rows[0], rows[2], rows[1]]
    result = sim.simulate_sweep(c, rows)
    assert result.metadata["rows"] == 5
    assert result.metadata["unique_rows"] == 3
    assert np.array_equal(result.states[0], result.states[2])
    assert np.array_equal(result.states[1], result.states[4])
    _assert_rows_identical(sim, c, rows, result)


def test_qft_identical_rows_collapse_to_one_group():
    c = qft(5)
    sim = FlatDDSimulator(threads=2)
    row = c.extract_params()
    result = sim.simulate_sweep(c, [row] * 4)
    ref = sim.run(c).state
    for i in range(4):
        assert np.array_equal(result.states[i], ref)
    assert result.metadata["unique_rows"] == 1
    assert result.metadata["groups"] == 1


# ---------------------------------------------------------------------------
# Batch sizes vs thread counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batch", [1, 3, 4, 9])
def test_batch_sizes_straddling_thread_count(batch):
    """Batches below, at, and above the thread count all stay exact."""
    c = _template(n=4, layers=1)
    sim = FlatDDSimulator(threads=4, force_convert_at=0)
    rows = _rows(c, batch, seed=batch)
    result = sim.simulate_sweep(c, rows)
    assert result.states.shape == (batch, 16)
    _assert_rows_identical(sim, c, rows, result)


def test_thread_count_invariance():
    """Sweep(t) is bit-equal to run(t); states agree across thread counts.

    Bit-identity is only promised *at the same thread count* (DMAV task
    splits differ across counts, like the existing thread-invariance
    oracle); across counts the states must still agree to 1e-9 up to
    global phase.
    """
    c = _template(n=4, layers=2)
    rows = _rows(c, 5, seed=7)
    per_thread = {}
    for t in (1, 2, 4):
        sim = FlatDDSimulator(threads=t, force_convert_at=0)
        result = sim.simulate_sweep(c, rows)
        _assert_rows_identical(sim, c, rows, result)
        per_thread[t] = result.states
    for t in (2, 4):
        for i in range(len(rows)):
            err = phase_aligned_error(per_thread[1][i], per_thread[t][i])
            assert err <= 1e-9


@pytest.mark.parametrize(
    "policy,dense_level",
    [
        pytest.param(
            policy,
            level,
            id=policy if level == DENSE_BLOCK_LEVEL else f"{policy}-dl{level}",
        )
        for level in (-1, 0, DENSE_BLOCK_LEVEL)
        for policy in ("auto", "always", "never")
    ],
)
def test_cache_policies_bit_identical(policy, dense_level):
    """Every cache policy stays exact at every Run-kernel depth.

    At n=4 the default dense level bottoms out in one dense block; levels
    -1 and 0 run the lockstep kernel's pass-through, Kronecker and generic
    branches with per-row nodes.
    """
    c = _template(n=4, layers=2)
    sim = FlatDDSimulator(
        threads=2,
        cache_policy=policy,
        force_convert_at=0,
        dense_block_level=dense_level,
    )
    rows = _rows(c, 4, seed=3)
    result = sim.simulate_sweep(c, rows)
    _assert_rows_identical(sim, c, rows, result)


def _divergent_rows():
    """An n=8 circuit whose zero-angle rows make some border nodes the
    identity while other rows' are not."""
    c = Circuit(8, name="divergent-rows")
    for q in range(8):
        c.h(q)
    c.cx(0, 1)
    c.ry(0.0, 0)
    c.rz(0.0, 3)
    c.cx(2, 5)
    return c, [(0.0, 0.3), (0.3, 0.0), (0.3, 0.3), (1.1, 0.2)]


@pytest.mark.parametrize("policy", ["auto", "always", "never"])
def test_structurally_divergent_rows_fall_back_per_row(policy, monkeypatch):
    """Rows whose gate DDs differ in shape below the border level.

    Binding a zero angle makes that row's border node the identity while
    the other rows' are not, so the batched gate stays batched but the
    lockstep kernel must replay the divergent level one row at a time --
    and every row must still equal its own ``run()``.
    """
    calls = []
    rowwise = dmav._lockstep_rowwise

    def counted(*args, **kwargs):
        calls.append(1)
        return rowwise(*args, **kwargs)

    monkeypatch.setattr(dmav, "_lockstep_rowwise", counted)
    c, rows = _divergent_rows()
    sim = FlatDDSimulator(threads=2, cache_policy=policy, force_convert_at=0)
    result = sim.simulate_sweep(c, rows)
    counters = result.metadata["obs"]["counters"]
    assert calls, "the per-row fallback never ran"
    assert counters["dmav.sweep.gates_batched"] > 0
    assert counters["dmav.sweep.gates_rowloop"] == 0
    _assert_rows_identical(sim, c, rows, result)


def _two_group_rows(n=7, seed=21):
    """Rows of ``_template(n)`` that vary the final rz column and split
    into two prefix groups on the leading ry angle.  At n=7 the EWMA
    trigger fires mid-circuit, so every group converts."""
    c = _template(n=n, layers=2)
    rng = np.random.default_rng(seed)
    base = rng.uniform(-np.pi, np.pi, c.num_param_slots)
    rows = []
    for i in range(4):
        row = base.copy()
        row[-n:] = rng.uniform(-np.pi, np.pi, n)
        row[0] = 0.3 if i % 2 else -1.1
        rows.append(tuple(row))
    return c, rows


@pytest.mark.parametrize("policy", ["auto", "always", "never"])
def test_thread_pool_sweep_bit_identical(policy):
    """Planned DMAV dispatches each thread's tiles on the pool: a pooled
    converting multi-group sweep equals the inline one byte for byte, and
    every row equals its own run()."""
    c, rows = _two_group_rows()
    kw = dict(threads=4, cache_policy=policy, dense_block_level=0)
    inline = FlatDDSimulator(**kw).simulate_sweep(c, rows)
    sim = FlatDDSimulator(use_thread_pool=True, **kw)
    pooled = sim.simulate_sweep(c, rows)
    assert pooled.metadata["groups"] == 2
    assert pooled.metadata["conversion_gate_index"] is not None
    assert pooled.metadata["gates_batched"] > 0
    assert pooled.states.tobytes() == inline.states.tobytes()
    _assert_rows_identical(sim, c, rows, pooled)


@pytest.mark.parametrize(
    "policy,name", [("always", "dmav_cached"), ("never", "dmav_nocache")]
)
def test_batched_columns_call_the_dmav_entry_points(policy, name, monkeypatch):
    """Every batched gate column is one call of the module-global DMAV
    name, with the whole ``(threads, rows, h)`` batch as the third
    positional argument -- the call site layer tracing wraps."""
    from repro.core import sweep

    calls = []
    for attr in ("dmav_cached", "dmav_nocache"):
        real = getattr(sweep, attr)

        def counted(*args, _real=real, _attr=attr, **kwargs):
            calls.append((_attr, args[2].shape, len(kwargs["plans"])))
            return _real(*args, **kwargs)

        monkeypatch.setattr(sweep, attr, counted)
    c, rows = _two_group_rows()
    sim = FlatDDSimulator(threads=2, cache_policy=policy)
    result = sim.simulate_sweep(c, rows)
    md = result.metadata
    assert md["gates_rowloop"] == 0
    assert len(calls) == md["gates_batched"] > 0
    assert {attr for attr, _, _ in calls} == {name}
    # Two groups of two rows each.
    assert {(shape, k) for _, shape, k in calls} == {((2, 2, 64), 2)}


@pytest.mark.parametrize(
    "case,fusion",
    [("groups", "none"), ("groups", "koperations"), ("divergent", "none")],
)
def test_sweep_reports_run_dmav_metadata(case, fusion):
    """Batched and fusion-fallback sweeps report row 0's conversion gate
    and the per-row DMAV totals that each row's own run() reports (the
    divergent rows' plans differ in MACs)."""
    if case == "groups":
        c, rows = _two_group_rows()
        sim = FlatDDSimulator(threads=2, fusion=fusion)
    else:
        c, rows = _divergent_rows()
        sim = FlatDDSimulator(threads=2, force_convert_at=0)
    result = sim.simulate_sweep(c, rows)
    runs = [sim.run(c.bind(row)) for row in rows]
    md = result.metadata
    assert md["conversion_gate_index"] is not None
    assert md["conversion_gate_index"] == (
        runs[0].metadata["conversion_gate_index"]
    )
    macs = sum(r.metadata["dmav_macs_total"] for r in runs)
    assert md["dmav_macs_total"] == macs > 0
    counters = md["obs"]["counters"]
    for key in ("dmav.gates", "dmav.macs", "dmav.cache_hits"):
        assert counters[key] == sum(
            r.metadata["obs"]["counters"][key] for r in runs
        ), key
    assert counters["dmav.gates"] > 0


def test_ewma_timed_sweep_matches_runs():
    """No forced conversion: grouping follows each row's own trigger."""
    c = _template(n=4, layers=2)
    sim = FlatDDSimulator(threads=2)
    rows = _rows(c, 3, seed=11)
    result = sim.simulate_sweep(c, rows)
    _assert_rows_identical(sim, c, rows, result)


def test_fusion_falls_back_to_per_row_runs():
    c = _template(n=3, layers=1)
    sim = FlatDDSimulator(threads=2, fusion="koperations")
    rows = _rows(c, 3, seed=5)
    rows.append(rows[0])
    result = sim.simulate_sweep(c, rows)
    assert result.metadata["mode"] == "fallback-fusion"
    _assert_rows_identical(sim, c, rows, result)


# ---------------------------------------------------------------------------
# DD-phase shrinking (identity skip + qubit reorder)
# ---------------------------------------------------------------------------


def _shrink_case(case, qubit_order):
    """``(sim, template, rows)`` driving one DD-phase path through a sweep.

    The first four cases scan the final rz column of a 7-qubit template,
    which lies past the EWMA trigger (gate 30 of 47), so rows share their
    DD prefix and each group leader builds several rows' tail gate DDs in
    its own package.

    * ``default`` -- EWMA-timed conversion, one group.
    * ``gc_pressure`` -- a tiny GC threshold collects inside the DD phase.
    * ``guard`` -- a generous memory budget enables the guard, whose
      post-conversion GC prunes the package the tail gates are built in.
    * ``two_groups`` -- the leading ry angle takes two values, splitting
      the rows into two prefix groups of two.
    * ``prefix_history`` -- tail gate DDs that round differently in any
      package that has not seen the u2 prefix.
    * ``row_rewind`` -- tail gate DDs that round differently in a package
      still holding another row's tail builds.

    The last two were shrunk from ``sweep_consistency`` fuzz violations.
    """
    if case == "prefix_history":
        c = Circuit(2, name="prefix-history")
        c.add("u2", 0, params=(0.0, 0.0)).h(1).rz(0.0, 1)
        u2 = (2.1173197635870897, 4.322804564657765)
        rows = [u2 + (t,) for t in (0.1, -0.7, 1.3)]
    elif case == "row_rewind":
        c = Circuit(4, name="row-rewind").cx(2, 0)
        c.add("rxx", 0, 1, params=(0.0,)).add("rxx", 0, 3, params=(0.0,))
        a, b = 4.574138241519255, 1.6844350868017108
        rows = [(a, b), (a + 0.1, b + 0.11), (a - 0.2, b - 0.17)]
    if case in ("prefix_history", "row_rewind"):
        sim = FlatDDSimulator(
            threads=1, qubit_order=qubit_order, force_convert_at=0
        )
        return sim, c, rows
    c = _template(n=7, layers=2)
    rng = np.random.default_rng(13)
    base = rng.uniform(-np.pi, np.pi, c.num_param_slots)
    rows = []
    for i in range(4):
        row = base.copy()
        row[-7:] = rng.uniform(-np.pi, np.pi, 7)
        if case == "two_groups":
            row[0] = 0.3 if i % 2 else -1.1
        rows.append(tuple(row))
    budget = 10_000_000 if case == "guard" else None
    sim = FlatDDSimulator(
        threads=2, qubit_order=qubit_order, memory_budget_bytes=budget
    )
    if case == "gc_pressure":
        sim.GC_THRESHOLD = 200
    return sim, c, rows


@pytest.mark.parametrize(
    "case",
    [
        "default", "gc_pressure", "guard", "two_groups",
        "prefix_history", "row_rewind",
    ],
)
@pytest.mark.parametrize("qubit_order", ["natural", "interaction", "sift"])
def test_dd_shrink_rows_bit_identical(qubit_order, case, monkeypatch):
    """Every row built in its group leader's package equals its own run()."""
    from repro.dd.package import DDPackage

    gc_calls = []
    collect = DDPackage.collect_garbage

    def counting_collect(self, roots):
        gc_calls.append(self.unique_node_count)
        return collect(self, roots)

    monkeypatch.setattr(DDPackage, "collect_garbage", counting_collect)
    sim, c, rows = _shrink_case(case, qubit_order)
    result = sim.simulate_sweep(c, rows)
    assert result.metadata["qubit_order"] == qubit_order
    assert result.metadata["groups"] == (2 if case == "two_groups" else 1)
    assert result.metadata["gates_batched"] > 0
    if case == "gc_pressure":
        assert gc_calls, "the DD phase never reached the GC threshold"
    if case == "guard":
        assert len(gc_calls) == result.metadata["groups"]
    _assert_rows_identical(sim, c, rows, result)


def test_dd_shrink_rewind_rolls_back_windowed_prefix():
    """Forced mid-prefix conversion after a permuted, identity-skipped DD
    prefix: bit-identity against single-shot runs proves the leader
    package's windowed builds are dropped and each row's tail builds are
    rolled back exactly by build_mark()/rewind_to_mark()."""
    c = _template(n=4, layers=2)
    sim = FlatDDSimulator(threads=2, force_convert_at=2, qubit_order="sift")
    rows = _rows(c, 4, seed=17)
    rows.append(rows[1])  # duplicate exercises the dedup fan-out too
    result = sim.simulate_sweep(c, rows)
    assert result.metadata["groups"] >= 1
    _assert_rows_identical(sim, c, rows, result)


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def test_sweep_metadata_counters():
    c = _template(n=4, layers=1)
    sim = FlatDDSimulator(threads=2, force_convert_at=0)
    rows = _rows(c, 4, seed=1)
    result = sim.simulate_sweep(c, rows)
    counters = result.metadata["obs"]["counters"]
    assert counters["dmav.sweep.rows"] == 4
    assert counters["dmav.sweep.unique_rows"] == 4
    assert counters["dmav.sweep.groups"] == result.metadata["groups"]
    assert (
        counters["dmav.sweep.gates_batched"]
        + counters["dmav.sweep.gates_rowloop"]
    ) > 0
    assert result.runtime_seconds > 0
    assert result.peak_memory_bytes > 0
    assert result.backend == sim.name


# ---------------------------------------------------------------------------
# Memory guard mid-sweep
# ---------------------------------------------------------------------------


def test_guard_breach_mid_sweep_checkpoints_cleanly(tmp_path):
    """A budget breach in the batched replay writes a sweep snapshot and
    raises the structured error; the snapshot is diagnostic only."""
    c = _template(n=4, layers=1)
    path = os.fspath(tmp_path / "sweep.ckpt")
    sim = FlatDDSimulator(
        threads=2, force_convert_at=0, memory_budget_bytes=1
    )
    rows = _rows(c, 3, seed=2)
    with pytest.raises(ResourceExhaustedError) as exc:
        sim.simulate_sweep(c, rows, checkpoint_path=path)
    err = exc.value
    assert err.phase == "sweep"
    assert err.budget_bytes == 1
    assert err.checkpoint_path == path
    snap = read_snapshot(path)
    assert snap.phase == "sweep"
    assert snap.num_qubits == 4
    assert snap.circuit_fingerprint == c.fingerprint()
    assert snap.data["rows"] == 3
    raw = base64.b64decode(snap.data["states_b64"])
    states = np.frombuffer(raw, dtype=np.complex128).reshape(3, 16)
    assert states.shape == (3, 16)
    # sweep snapshots cannot seed a single-shot resume (same config, so
    # the digest pin passes and the phase rejection is what fires)
    with pytest.raises(CheckpointError, match="sweep-phase"):
        sim.run(c, resume_from=path)


def test_guard_breach_without_checkpoint_path(tmp_path):
    c = _template(n=4, layers=1)
    sim = FlatDDSimulator(
        threads=2, force_convert_at=0, memory_budget_bytes=1
    )
    with pytest.raises(ResourceExhaustedError) as exc:
        sim.simulate_sweep(c, _rows(c, 2))
    assert exc.value.phase == "sweep"
    assert exc.value.checkpoint_path is None
