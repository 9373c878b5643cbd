"""Batched parameter-sweep execution over the compiled DMAV plans.

The paper's core observation (Fig. 2) is that flat-array matrix x matrix
work vastly outperforms repeated matrix x vector work.  Variational
workloads (VQE/QAOA) evaluate one circuit *template* at many parameter
points; re-running the full DD -> plan -> array pipeline per point repeats
work that does not depend on the angles at all.  ``run_sweep`` amortizes
it three ways:

1. **Dedup + prefix grouping.**  Rows are bound
   (:meth:`~repro.circuits.circuit.Circuit.bind`), deduplicated by
   fingerprint, then greedily grouped: a row joins a group when its bound
   gates ``[0 .. convert_at]`` equal the group leader's *exactly*
   (``float.hex`` parameters).  The EWMA trigger, GC cadence, and memory
   guard only see that prefix, so an identical prefix provably reaches the
   identical conversion point -- the group shares ONE DD phase, ONE
   conversion, and ONE :class:`~repro.dd.package.DDPackage`.
2. **Plan compile-once.**  One :class:`~repro.core.plan.PlanCache` per
   group compiles each gate root once; rows of a sweep share whole plans
   for parameterless gates and share the structural border-path memo for
   per-row rotation roots.
3. **Batched replay.**  The remaining gates replay over a *tile-major*
   ``(threads, rows, 2**n / threads)`` batch through the planned mode of
   :func:`~repro.core.dmav.dmav_nocache` /
   :func:`~repro.core.dmav.dmav_cached` -- one call per gate column,
   the same executor ``run()`` calls with one row.  Every DMAV task is
   one whole tile, so it becomes one C-contiguous ``(rows, chunk)``
   block, and the array phase becomes batched matrix x matrix work.
   A gate column whose per-row plans cannot share one replay runs the
   same entry point on each row's one-row column ``v3[:, r:r+1]``.

**Bit-identity contract.**  Every batch row equals (``np.array_equal``,
the repo-wide replay standard: signed zeros aside) the state of
``FlatDDSimulator.run`` on the equivalently bound circuit with the same
config -- enforced by the ``sweep_consistency`` fuzz oracle and
``tests/test_sweep.py``.  Each group leader runs the DD phase through
:func:`~repro.core.simulator.run_dd_phase`, the same function ``run()``
calls, and converts in its own package.  Every row's tail gate DDs are
then built in that leader package, which holds exactly the state each
row's own run builds its tail in; a
:meth:`~repro.dd.package.DDPackage.build_mark` taken there and a
rewind after each row give every row that same starting state.  The
array phase then holds by construction: ``run()`` is the one-row call
of the same planned executor, and any structural incongruence between
per-row plans drops that gate (or kernel recursion level) to a per-row
replay of it.

Fusion modes are root-specific and not batched yet: ``fusion != "none"``
falls back to deduplicated per-row ``run()`` calls (noted in metadata).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.backends.gatecache import GateDDCache
from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.common.config import config_digest
from repro.common.errors import SimulationError
from repro.core.conversion import convert_parallel
from repro.core.cost_model import CostModel, resolve_use_cache
from repro.core.dmav import dmav_cached, dmav_nocache
from repro.core.ewma import EWMAMonitor
from repro.core.plan import GatePlan, PlanCache
from repro.core.reorder import (
    permute_circuit,
    plan_qubit_order,
    unpermute_axes,
)
from repro.core.simulator import release_dd_phase, run_dd_phase
from repro.dd.package import DDPackage
from repro.dd.vector import zero_state

# Unused here: the DD phase calls these through repro.core.simulator.  They
# stay bound because perfbench/layers.py wraps layer entry points by name
# in every pipeline module, this one included.
from repro.dd.operations import mv_multiply  # noqa: F401
from repro.dd.vector import node_count  # noqa: F401
from repro.metrics.memory import MemoryMeter, dd_bytes
from repro.obs.metrics import MetricsRegistry
from repro.parallel.arena import BufferArena
from repro.parallel.pool import TaskRunner, validate_thread_count
from repro.resilience.guard import MemoryGuard
from repro.resilience.snapshot import snapshot_sweep_phase, write_snapshot

__all__ = ["SweepResult", "run_sweep"]


@dataclass
class SweepResult:
    """Stacked result of one parameter sweep."""

    backend: str
    circuit_name: str
    num_qubits: int
    #: Parameter rows requested (duplicates included, original order).
    num_rows: int
    #: ``(num_rows, 2**n)`` complex128; row ``i`` is the final state of
    #: the template bound with ``param_sets[i]``.
    states: np.ndarray
    runtime_seconds: float
    peak_memory_bytes: int
    metadata: dict = field(default_factory=dict)


def _gate_key(g: Gate) -> tuple:
    """Exact (float.hex) identity of one bound gate for prefix grouping."""
    return (
        g.base_name,
        g.targets,
        g.controls,
        tuple(float(p).hex() for p in g.params),
    )


def _hit_pattern(tasks) -> tuple:
    """Per-thread first-miss-occurrence pattern of ``id(node)`` reuse.

    Mirrors ``dmav_cached``'s per-thread result cache: entry ``k`` is the
    index of the task that would serve task ``k``'s cache hit (or None
    for a miss).  Congruent batching requires every row to hit and miss
    at the same task indices.
    """
    pats = []
    for tlist in tasks:
        seen: dict[int, int] = {}
        pat = []
        for k, (node, _ip, _c) in enumerate(tlist):
            prev = seen.get(id(node))
            pat.append(prev)
            if prev is None:
                seen[id(node)] = k
        pats.append(tuple(pat))
    return tuple(pats)


def _tasks_congruent(tasks0, tasks) -> bool:
    """Same shape: per-thread task counts and offsets."""
    for t0, t in zip(tasks0, tasks):
        if len(t0) != len(t):
            return False
        for (_n0, i0, _c0), (_n1, i1, _c1) in zip(t0, t):
            if i0 != i1:
                return False
    return True


def _plans_congruent(plans: list[GatePlan], use_cache: bool) -> bool:
    """Whether one batched replay can serve every row's plan.

    Rows of a sweep share gate *structure* but not weights, so their
    plans normally agree in everything but coefficients; anything else
    (pathological cancellation producing a zero edge in one row only,
    say) is handled by falling back to per-row execution.
    """
    p0 = plans[0]
    if all(p is p0 for p in plans):
        return True
    if not use_cache:
        return all(
            _tasks_congruent(p0.row_tasks, p.row_tasks) for p in plans[1:]
        )
    a0 = p0.assignment
    pat0 = _hit_pattern(a0.tasks)
    for p in plans[1:]:
        a = p.assignment
        if (
            a.num_buffers != a0.num_buffers
            or a.buffer_of != a0.buffer_of
            or p.writers != p0.writers
            or p.direct != p0.direct
            or p.direct_out != p0.direct_out
            or not _tasks_congruent(a0.tasks, a.tasks)
            or _hit_pattern(a.tasks) != pat0
        ):
            return False
    return True


def _untile(t3):
    """Copy a ``(tiles, rows, h)`` batch back to logical ``(rows, 2**n)``."""
    rows = t3.shape[1]
    return np.ascontiguousarray(t3.transpose(1, 0, 2)).reshape(rows, -1)


def run_sweep(
    sim,
    circuit: Circuit,
    param_sets,
    tracer=None,
    checkpoint_path: str | None = None,
) -> SweepResult:
    """Execute ``circuit`` bound with every row of ``param_sets``.

    ``sim`` is the :class:`~repro.core.simulator.FlatDDSimulator` whose
    config governs the run (and whose ``run`` serves the fusion
    fallback).  ``param_sets`` is a sequence of parameter rows, one per
    sweep point, each of length ``circuit.num_param_slots``
    (:class:`~repro.common.errors.CircuitError` on width mismatch,
    :class:`~repro.common.errors.SimulationError` when empty).

    ``checkpoint_path`` receives a diagnostic sweep-phase snapshot when a
    memory-guard breach aborts the replay (carried on the raised
    :class:`~repro.common.errors.ResourceExhaustedError`); sweep
    snapshots cannot resume a single-shot run.
    """
    cfg = sim.config
    n = circuit.num_qubits
    validate_thread_count(cfg.threads, n)
    if param_sets is None or len(param_sets) == 0:
        raise SimulationError(
            "simulate_sweep needs at least one parameter set"
        )
    start = time.perf_counter()
    bound = [circuit.bind(row) for row in param_sets]
    num_rows = len(bound)
    fps = [b.fingerprint() for b in bound]
    first_of: dict[str, int] = {}
    uniq: list[Circuit] = []
    for i, fp in enumerate(fps):
        if fp not in first_of:
            first_of[fp] = len(uniq)
            uniq.append(bound[i])

    # One reorder plan for the whole sweep: the selector is structure-only
    # (qubits, not parameter values), so the template and every bound row
    # produce the same plan -- prefix grouping below stays valid because
    # identical canonical prefixes map to identical permuted prefixes.
    reorder = plan_qubit_order(circuit, cfg.qubit_order)
    dd_order = None if reorder.is_natural else reorder.order
    unperm = None if reorder.is_natural else unpermute_axes(reorder.order)

    registry = MetricsRegistry()
    registry.counter("dmav.sweep.rows").inc(num_rows)
    registry.counter("dmav.sweep.unique_rows").inc(len(uniq))
    meter = MemoryMeter()
    guard = MemoryGuard(cfg.memory_budget_bytes)
    cfg_digest = config_digest(cfg)
    metadata: dict = {
        "threads": cfg.threads,
        "cache_policy": cfg.cache_policy,
        "fusion": cfg.fusion,
        "rows": num_rows,
        "unique_rows": len(uniq),
        "qubit_order": cfg.qubit_order,
        "reorder_applied": not reorder.is_natural,
    }

    if cfg.fusion != "none":
        # Fusion emits per-run gate groupings the lockstep replay does
        # not model; dedup still pays, batching does not apply.
        metadata["mode"] = "fallback-fusion"
        runs = [sim.run(c, tracer=tracer) for c in uniq]
        ustates = [r.state for r in runs]
        peak = max(r.peak_memory_bytes for r in runs)
        metadata["conversion_gate_index"] = (
            runs[0].metadata["conversion_gate_index"]
        )
        metadata["dmav_macs_total"] = sum(
            r.metadata.get("dmav_macs_total", 0) for r in runs
        )
        for key in ("dmav.gates", "dmav.macs", "dmav.cache_hits"):
            registry.counter(key).inc(sum(
                r.metadata["obs"]["counters"].get(key, 0) for r in runs
            ))
        states = np.empty((num_rows, 1 << n), dtype=np.complex128)
        for i, fp in enumerate(fps):
            states[i] = ustates[first_of[fp]]
        snap = registry.snapshot()
        metadata["obs"] = {
            "counters": snap["counters"], "gauges": snap["gauges"],
        }
        return SweepResult(
            backend=sim.name,
            circuit_name=circuit.name,
            num_qubits=n,
            num_rows=num_rows,
            states=states,
            runtime_seconds=time.perf_counter() - start,
            peak_memory_bytes=peak,
            metadata=metadata,
        )

    metadata["mode"] = "batched"
    # ---- greedy prefix grouping over the unique rows -----------------
    groups: list[dict] = []
    for ui, bc in enumerate(uniq):
        placed = False
        for g in groups:
            ca = g["convert_at"]
            if ca is None:
                continue
            if g["prefix"] == [_gate_key(x) for x in bc.gates[:ca + 1]]:
                g["members"].append(ui)
                placed = True
                break
        if not placed:
            pkg = DDPackage(n)
            gates = GateDDCache(pkg)
            dd_circ = (
                bc if dd_order is None else permute_circuit(bc, dd_order)
            )
            dd = run_dd_phase(
                cfg, pkg, gates, dd_circ.gates, zero_state(pkg),
                EWMAMonitor(beta=cfg.beta, epsilon=cfg.epsilon), meter,
                guard, gc_threshold=sim.GC_THRESHOLD,
            )
            convert_at = dd.convert_at
            if dd.guard_forced:
                metadata["guard_forced_conversion"] = True
            groups.append({
                "pkg": pkg,
                "gates": gates,
                "state_dd": dd.state_dd,
                "convert_at": convert_at,
                "prefix": (
                    [_gate_key(x) for x in bc.gates[:convert_at + 1]]
                    if convert_at is not None
                    else None
                ),
                "members": [ui],
            })
    registry.counter("dmav.sweep.groups").inc(len(groups))

    gates_batched = 0
    gates_rowloop = 0
    row_rewinds = 0
    plan_totals = {
        "hits": 0, "misses": 0, "gate_hits": 0, "compiles": 0,
        "invalidations": 0,
    }
    arena_totals = {"output_allocs": 0, "partial_allocs": 0,
                    "partial_reuses": 0}
    dmav_gates = 0
    dmav_macs = 0
    dmav_cache_hits = 0
    ustates: list[np.ndarray | None] = [None] * len(uniq)
    conversions = []

    for g in groups:
        pkg: DDPackage = g["pkg"]
        gates: GateDDCache = g["gates"]
        convert_at = g["convert_at"]
        members: list[int] = g["members"]
        rows = len(members)
        with TaskRunner(cfg.threads, cfg.use_thread_pool) as runner:
            conv, report = convert_parallel(
                pkg, g["state_dd"], cfg.threads, runner,
                dense_level=cfg.dense_block_level,
                unpermute=unperm,
            )
            conversions.append(report.seconds)
            if convert_at is None:
                # The whole (deduplicated) circuit stayed regular: the
                # conversion IS the final state, exactly like a run that
                # never triggers -- and such groups are singletons.
                meter.sample(dd_bytes(pkg) + conv.nbytes)
                ustates[members[0]] = conv
                continue
            # Per-row tail gate DDs, built in the leader package right
            # where run() builds its own tail, rolled back to a build mark
            # after each row so every row starts from that same state, at
            # O(row's own nodes) cost.  Evicted nodes stay alive (and
            # structurally valid) through the kept edges, so the
            # columnar batch below still sees every row's DD at once;
            # the package also hosts the per-node DMAV caches (ids never
            # collide while the edges pin the nodes).
            release_dd_phase(pkg, gates, guard)
            build_mark = pkg.build_mark()
            gate_mark = gates.mark()
            edges_rows = []
            for ui in members:
                edges_rows.append([
                    gates.get(gt) for gt in uniq[ui].gates[convert_at + 1:]
                ])
                pkg.rewind_to_mark(build_mark)
                gates.rewind(gate_mark)
                row_rewinds += 1
            v3 = np.repeat(conv.reshape(cfg.threads, 1, -1), rows, axis=1)
            meter.sample(dd_bytes(pkg) + v3.nbytes)
            guard.check_array(
                meter.last_bytes, convert_at,
                checkpoint=lambda s=v3, c=0: _write_sweep_checkpoint(
                    checkpoint_path, pkg, _untile(s), convert_at, c,
                    circuit, cfg_digest,
                ),
                phase="sweep",
            )
            model = CostModel(cfg.threads, cfg.simd_width)
            plan_cache = PlanCache(
                pkg, cfg.threads, model, cfg.dense_block_level
            )
            arena = BufferArena(conv.size, tiles=cfg.threads, rows=rows)
            n_remaining = len(uniq[members[0]].gates) - convert_at - 1
            dmav_gates += rows * n_remaining
            for j in range(n_remaining):
                plans = [plan_cache.get(er[j]) for er in edges_rows]
                verdicts = [
                    resolve_use_cache(cfg.cache_policy, p.cost) for p in plans
                ]
                uc = verdicts[0]
                w_buf, w_dirty = arena.output()
                if all(v == uc for v in verdicts) and _plans_congruent(
                    plans, uc
                ):
                    calls = [(plans, uc, slice(None))]
                    gates_batched += 1
                else:
                    # Exact per-row replay: the same planned entry point
                    # on each row's one-row column of the batch.
                    calls = [
                        ([p], v, slice(r, r + 1))
                        for r, (p, v) in enumerate(zip(plans, verdicts))
                    ]
                    gates_rowloop += 1
                for bplans, use_cache, cols in calls:
                    if use_cache:
                        bufs = arena.partials(
                            bplans[0].assignment.num_buffers
                        )
                        dmav_cached(
                            pkg, None, v3[:, cols], cfg.threads, runner,
                            cfg.dense_block_level, out=w_buf[:, cols],
                            plans=bplans, buffers=[bf[:, cols] for bf in bufs],
                            out_dirty=w_dirty,
                        )
                    else:
                        dmav_nocache(
                            pkg, None, v3[:, cols], cfg.threads, runner,
                            cfg.dense_block_level, out=w_buf[:, cols],
                            plans=bplans, out_dirty=w_dirty,
                        )
                for p, v in zip(plans, verdicts):
                    dmav_macs += p.cost.macs_total
                    dmav_cache_hits += p.cost.cache_hits if v else 0
                arena.retire(v3)
                v3 = w_buf
                # Per-row rotation roots each cache full diagonals/dense
                # blocks; over a big batch that accumulates to hundreds
                # of MB of dead entries.  Recomputation is deterministic,
                # so drop them every gate column (identity flags stay).
                pkg.kron_cache.clear()
                pkg.dense_cache.clear()
                meter.sample(
                    dd_bytes(pkg) + 2 * v3.nbytes + arena.partial_bytes
                )
                guard.check_array(
                    meter.last_bytes, convert_at + 1 + j,
                    checkpoint=lambda s=v3, c=j + 1: (
                        _write_sweep_checkpoint(
                            checkpoint_path, pkg, _untile(s), convert_at, c,
                            circuit, cfg_digest,
                        )
                    ),
                    phase="sweep",
                )
            final = _untile(v3)
            for pos, ui in enumerate(members):
                ustates[ui] = final[pos]
            plan_totals["hits"] += plan_cache.hits
            plan_totals["misses"] += plan_cache.misses
            plan_totals["gate_hits"] += plan_cache.gate_hits
            plan_totals["compiles"] += plan_cache.compiles
            plan_totals["invalidations"] += plan_cache.invalidations
            arena_totals["output_allocs"] += arena.output_allocs
            arena_totals["partial_allocs"] += arena.partial_allocs
            arena_totals["partial_reuses"] += arena.partial_reuses

    states = np.empty((num_rows, 1 << n), dtype=np.complex128)
    for i, fp in enumerate(fps):
        states[i] = ustates[first_of[fp]]

    registry.counter("dmav.gates").inc(dmav_gates)
    registry.counter("dmav.macs").inc(dmav_macs)
    registry.counter("dmav.cache_hits").inc(dmav_cache_hits)
    registry.counter("dmav.sweep.gates_batched").inc(gates_batched)
    registry.counter("dmav.sweep.gates_rowloop").inc(gates_rowloop)
    registry.counter("dmav.sweep.row_rewinds").inc(row_rewinds)
    for key, val in plan_totals.items():
        registry.counter(f"dmav.plan.{key}").inc(val)
    for key, val in arena_totals.items():
        registry.counter(f"dmav.arena.{key}").inc(val)
    total_planned = plan_totals["hits"] + plan_totals["misses"]
    registry.gauge("dmav.plan.hit_rate").set(
        plan_totals["hits"] / total_planned if total_planned else 0.0
    )
    registry.gauge("sim.mem.peak_bytes").set(meter.peak_bytes)
    metadata["groups"] = len(groups)
    # Row 0's group: what row 0's own run() reports.
    metadata["conversion_gate_index"] = groups[0]["convert_at"]
    metadata["dmav_macs_total"] = dmav_macs
    metadata["gates_batched"] = gates_batched
    metadata["gates_rowloop"] = gates_rowloop
    metadata["conversion_seconds"] = sum(conversions)
    snap = registry.snapshot()
    metadata["obs"] = {
        "counters": snap["counters"], "gauges": snap["gauges"],
    }
    return SweepResult(
        backend=sim.name,
        circuit_name=circuit.name,
        num_qubits=n,
        num_rows=num_rows,
        states=states,
        runtime_seconds=time.perf_counter() - start,
        peak_memory_bytes=meter.peak_bytes,
        metadata=metadata,
    )


def _write_sweep_checkpoint(
    checkpoint_path, pkg, states, convert_at, cursor, template, cfg_digest
):
    """Guard-breach snapshot writer (None when no path is configured)."""
    if checkpoint_path is None:
        return None
    write_snapshot(
        checkpoint_path,
        snapshot_sweep_phase(
            pkg, states, convert_at, cursor, template, cfg_digest
        ),
    )
    return checkpoint_path
