"""The FlatDD simulator (Figure 3's pipeline).

Phases:

1. **DD phase** -- simulate exactly like DDSIM (DD state, DD gates, compute
   tables) while feeding the state DD's node count to the EWMA monitor
   (Section 3.1.1).
2. **Conversion** -- on trigger, convert the DD state to a flat array with
   the parallel algorithm of Section 3.1.2.
3. **DMAV phase** -- optionally fuse the remaining gates (Section 3.3),
   then apply each gate matrix DD to the array state with Algorithm 1/2,
   choosing caching per gate via the Section 3.2.3 cost model.

Circuits that stay regular never trigger and finish entirely in the DD
phase (which is why FlatDD matches DDSIM on Adder/GHZ in Table 1).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

from repro.backends.base import GateRecord, SimulationResult, Simulator
from repro.backends.gatecache import GateDDCache
from repro.circuits.circuit import Circuit
from repro.common.config import GC_THRESHOLD, FlatDDConfig, config_digest
from repro.core.conversion import convert_parallel
from repro.core.cost_model import CostModel, resolve_use_cache
from repro.core.dmav import dmav_cached, dmav_nocache
from repro.core.ewma import EWMAMonitor
from repro.core.plan import PlanCache
from repro.core.fusion import FusionResult, fuse_cost_aware, fuse_k_operations
from repro.core.reorder import (
    permute_circuit,
    plan_qubit_order,
    unpermute_axes,
)
from repro.dd.io import deserialize_vector_dd
from repro.dd.node import Edge
from repro.dd.operations import mv_multiply
from repro.dd.package import DDPackage
from repro.dd.vector import node_count, zero_state
from repro.metrics.memory import MemoryMeter, dd_bytes
from repro.obs.collect import build_obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.parallel.arena import BufferArena
from repro.parallel.pool import TaskRunner, validate_thread_count
from repro.resilience.guard import MemoryGuard
from repro.common.errors import CheckpointError
from repro.resilience.snapshot import (
    Snapshot,
    decode_array_state,
    read_snapshot,
    snapshot_array_phase,
    snapshot_dd_phase,
    validate_snapshot,
    write_snapshot,
)

__all__ = ["DDPhase", "FlatDDSimulator", "release_dd_phase", "run_dd_phase"]

_log = logging.getLogger("repro.core.simulator")


@dataclass
class DDPhase:
    """Where :func:`run_dd_phase` stopped, and what it recorded."""

    state_dd: Edge
    #: Gate index the conversion trigger fired at; None when it never did
    #: (the circuit stayed regular, or the deadline cut the phase short).
    convert_at: int | None = None
    records: list[GateRecord] = field(default_factory=list)
    guard_forced: bool = False
    timed_out: bool = False
    checkpoints_written: int = 0


def run_dd_phase(
    cfg: FlatDDConfig,
    pkg: DDPackage,
    gates: GateDDCache,
    dd_gates,
    state_dd: Edge,
    monitor: EWMAMonitor,
    meter: MemoryMeter,
    guard: MemoryGuard,
    *,
    start: int = 0,
    gc_threshold: int = GC_THRESHOLD,
    tracer=NULL_TRACER,
    deadline: float | None = None,
    circuit: Circuit | None = None,
    checkpoint_every: int | None = None,
    checkpoint_path: str | None = None,
    cfg_digest: str | None = None,
) -> DDPhase:
    """The DD phase of Figure 3: apply ``dd_gates[start:]`` until triggered.

    Every gate DD is built identity-skipped (windowed) and applied to
    ``state_dd``; the EWMA monitor sees the state DD's node count, and
    ``cfg.force_convert_at`` or a ``guard`` breach override its verdict.
    ``run()`` and the sweep executor both call this, so a sweep group
    reaches exactly the conversion point and package state of each of
    its rows' own runs.  The per-gate order -- mv, node count, EWMA,
    forced override, memory sample, guard, trigger break, checkpoint,
    GC, deadline -- is part of the bit-identity contract: checkpoint and
    GC barriers clear history-dependent caches.

    ``checkpoint_every`` writes a DD-phase snapshot of ``circuit`` (the
    canonical circuit, whose fingerprint pins the snapshot) to
    ``checkpoint_path`` every that many gates, never after the last one.
    ``deadline`` is a ``time.perf_counter()`` value.
    """
    tracing = tracer.enabled
    out = DDPhase(state_dd)
    records = out.records
    force_at = cfg.force_convert_at
    total = len(dd_gates)
    for i, gate in enumerate(dd_gates[start:], start=start):
        g0 = time.perf_counter()
        state_dd = mv_multiply(pkg, gates.get(gate, windowed=True), state_dd)
        size = node_count(state_dd)
        triggered = monitor.update(size)
        if force_at is not None:
            triggered = i == force_at
        g1 = time.perf_counter()
        records.append(
            GateRecord(
                index=i,
                name=gate.name,
                seconds=g1 - g0,
                phase="dd",
                dd_size=size,
            )
        )
        if tracing:
            tracer.record(
                gate.name, "dd", g0, g1,
                gate_index=i, dd_size=size, ewma=monitor.value,
            )
            tracer.sample("dd_size", size, ts=g1)
            tracer.sample("ewma", monitor.value, ts=g1)
        meter.sample(dd_bytes(pkg))
        if not triggered and guard.check_dd(meter.last_bytes, i):
            # Budget breach while still in the DD phase: degrade
            # gracefully by converting to the flat array early.
            triggered = True
            out.guard_forced = True
            if tracing:
                tracer.instant(
                    "guard_breach", "dd", ts=g1,
                    gate_index=i, observed_bytes=meter.last_bytes,
                    budget_bytes=guard.budget_bytes,
                )
            _log.warning(
                "memory budget breached at gate %d (%d > %d bytes); "
                "forcing DD-to-array conversion",
                i, meter.last_bytes, guard.budget_bytes,
            )
        if triggered:
            out.convert_at = i
            if tracing:
                tracer.instant(
                    "ewma_trigger", "dd", ts=g1,
                    gate_index=i, dd_size=size, ewma=monitor.value,
                )
            _log.info(
                "EWMA triggered at gate %d (dd_size=%d, ewma=%.1f)",
                i, size, monitor.value,
            )
            break
        if (
            checkpoint_every is not None
            and (i + 1) % checkpoint_every == 0
            and i + 1 < total
        ):
            # Barrier *before* the dump: the snapshot must capture the
            # exact state (unique tables = live state DD, caches cold)
            # that both the continuation and any resume evolve from.
            gates.clear()
            pkg.checkpoint_barrier([state_dd])
            write_snapshot(
                checkpoint_path,
                snapshot_dd_phase(
                    pkg, state_dd, monitor, i + 1, circuit, cfg_digest
                ),
            )
            out.checkpoints_written += 1
            if tracing:
                tracer.instant("checkpoint", "dd", gate_index=i)
        if pkg.unique_node_count > gc_threshold:
            removed = pkg.collect_garbage([state_dd, *gates.roots()])
            if tracing:
                tracer.instant("gc", "dd", gate_index=i, reclaimed=removed)
            _log.debug("GC at gate %d reclaimed %d nodes", i, removed)
        if deadline is not None and time.perf_counter() > deadline:
            out.timed_out = True
            break
    out.state_dd = state_dd
    return out


def release_dd_phase(
    pkg: DDPackage,
    gates: GateDDCache,
    guard: MemoryGuard,
    barrier: bool = False,
) -> None:
    """Package cleanup between conversion and the DMAV-tail gate builds.

    The tail's gate DDs are canonical and full height; their weights
    depend on the package state they are built in, so ``run()`` and every
    sweep row must pass through this same step.  ``barrier`` (a run that
    may write or already read a snapshot) resets every history-dependent
    cache: an array-phase resume rebuilds the tail in a fresh package, and
    both sides must build it from the same cold state or fused edges drift
    by ulps.  Otherwise, under a memory budget, the dead state DD is
    reclaimed so the degradation actually shrinks the working set
    (value-neutral: GC only frees dead nodes and clears caches).
    """
    gates.drop_windowed()
    if barrier:
        gates.clear()
        pkg.checkpoint_barrier([])
    elif guard.enabled:
        pkg.collect_garbage(gates.roots())


class FlatDDSimulator(Simulator):
    """Hybrid DD / flat-array simulator with parallel DMAV."""

    GC_THRESHOLD = GC_THRESHOLD

    def __init__(self, config: FlatDDConfig | None = None, **overrides) -> None:
        if config is None:
            config = FlatDDConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config or keyword overrides")
        self.config = config
        self.name = f"flatdd[t={config.threads}]"

    # ------------------------------------------------------------------

    def run(
        self,
        circuit: Circuit,
        max_seconds: float | None = None,
        keep_internals: bool = False,
        tracer=None,
        checkpoint_every: int | None = None,
        checkpoint_path: str | None = None,
        resume_from: "str | Snapshot | None" = None,
    ) -> SimulationResult:
        """Simulate ``circuit``; see class docstring for the phases.

        ``keep_internals=True`` stores the DD package and the DMAV-phase
        gate edges in the result metadata so benches can re-evaluate the
        cost model at other thread counts without re-simulating.

        ``tracer`` (a :class:`repro.obs.Tracer`) records phase spans
        ("dd_phase", "conversion", "fusion", "dmav_phase"), per-gate
        spans with DD-size/EWMA (DD phase) and MACs/cache-decision
        (DMAV phase) annotations, and dd_size/ewma counter samples.
        Counters are collected into ``metadata["obs"]`` regardless.

        ``checkpoint_every=N`` writes a resumable snapshot to
        ``checkpoint_path`` every N applied gates (rolling: each write
        atomically replaces the previous one).  The cadence counts circuit
        gates in the DD phase and emitted (post-fusion) gates in the DMAV
        phase; no snapshot is written at the gate where the conversion
        trigger fires, nor after the final gate.  ``resume_from`` (a path
        or a :class:`~repro.resilience.snapshot.Snapshot`) continues such
        a run *bit-identically* in a fresh process; the snapshot is pinned
        to the circuit fingerprint and semantic config digest
        (:class:`~repro.common.errors.CheckpointError` on mismatch).

        With ``config.memory_budget_bytes`` set, a
        :class:`~repro.resilience.guard.MemoryGuard` watches every memory
        sample: a DD-phase breach forces early conversion, an array-phase
        breach checkpoints (when ``checkpoint_path`` is set) and raises
        :class:`~repro.common.errors.ResourceExhaustedError`.
        """
        cfg = self.config
        n = circuit.num_qubits
        validate_thread_count(cfg.threads, n)
        # DD-phase variable order (the Reorder Trick).  The plan depends
        # only on gate structure, so it is recomputed identically on
        # resume (the config digest pins cfg.qubit_order).  The permuted
        # circuit drives *only* the DD phase; conversion un-permutes, and
        # the DMAV tail below always uses the canonical circuit.
        reorder = plan_qubit_order(circuit, cfg.qubit_order)
        dd_circuit = (
            circuit
            if reorder.is_natural
            else permute_circuit(circuit, reorder.order)
        )
        unperm = None if reorder.is_natural else unpermute_axes(reorder.order)
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if checkpoint_path is None:
                raise ValueError("checkpoint_every requires checkpoint_path")
        cfg_digest = config_digest(cfg)
        resume: Snapshot | None = None
        if resume_from is not None:
            if isinstance(resume_from, Snapshot):
                resume = resume_from
                resume_path = None
            else:
                resume_path = str(resume_from)
                resume = read_snapshot(resume_path)
            validate_snapshot(resume, circuit, cfg_digest, path=resume_path)
            if resume.phase == "sweep":
                # Sweep snapshots are diagnostic batch dumps; a sweep row
                # is not a single-shot run and cannot be resumed as one.
                raise CheckpointError(
                    "cannot resume a single-shot run from a sweep-phase "
                    "snapshot (sweep snapshots preserve batch contents "
                    "for diagnosis only)",
                    path=resume_path,
                )
        guard = MemoryGuard(cfg.memory_budget_bytes)
        checkpoints_written = 0
        tr = tracer if tracer is not None else NULL_TRACER
        tracing = tr.enabled
        registry = MetricsRegistry()
        pkg = DDPackage(n)
        gates = GateDDCache(pkg)
        monitor = EWMAMonitor(beta=cfg.beta, epsilon=cfg.epsilon)
        meter = MemoryMeter()
        metadata: dict = {
            "threads": cfg.threads,
            "beta": cfg.beta,
            "epsilon": cfg.epsilon,
            "fusion": cfg.fusion,
            "cache_policy": cfg.cache_policy,
            "converted": False,
            "conversion_gate_index": None,
            "forced_conversion": cfg.force_convert_at is not None,
            "resumed": resume is not None,
            "resume_phase": resume.phase if resume is not None else None,
            "qubit_order": cfg.qubit_order,
            "reorder": {
                "mode": reorder.mode,
                "applied": not reorder.is_natural,
                "order": list(reorder.order),
                "cost_natural": reorder.cost_natural,
                "cost_selected": reorder.cost_selected,
                "sift_moves": reorder.sift_moves,
            },
        }
        start = time.perf_counter()
        deadline = None if max_seconds is None else start + max_seconds

        def write_array_checkpoint(arr, conv_at, cursor):
            """Array-phase snapshot writer shared by cadence and guard."""
            if checkpoint_path is None:
                return None
            write_snapshot(
                checkpoint_path,
                snapshot_array_phase(
                    pkg, arr.reshape(-1), conv_at, cursor, circuit,
                    cfg_digest,
                ),
            )
            return checkpoint_path

        # ---------------- Phase 1: DD simulation with EWMA monitoring ----
        convert_at: int | None = None
        timed_out = False
        trace: list[GateRecord] = []
        dd_start = 0
        skip_dd = False
        if resume is not None:
            # Canonicalization is history-dependent: restoring the full
            # complex table makes every post-resume weight lookup resolve
            # exactly as it would have in the uninterrupted run.
            pkg.ctable.restore(resume.data["ctable"])
            if resume.phase == "dd":
                state_dd = deserialize_vector_dd(pkg, resume.data["dd"])
                monitor.restore_state(resume.data["monitor"])
                dd_start = resume.gate_cursor
            else:
                skip_dd = True
                convert_at = int(resume.data["convert_at"])
                state_dd = None
        else:
            state_dd = zero_state(pkg)
        if not skip_dd:
            dd = run_dd_phase(
                cfg, pkg, gates, dd_circuit.gates, state_dd, monitor,
                meter, guard, start=dd_start, gc_threshold=self.GC_THRESHOLD,
                tracer=tr, deadline=deadline, circuit=circuit,
                checkpoint_every=checkpoint_every,
                checkpoint_path=checkpoint_path, cfg_digest=cfg_digest,
            )
            state_dd, convert_at = dd.state_dd, dd.convert_at
            trace, timed_out = dd.records, dd.timed_out
            checkpoints_written = dd.checkpoints_written
            if dd.guard_forced:
                metadata["guard_forced_conversion"] = True
            if tracing:
                tr.record(
                    "dd_phase", "phase", start, time.perf_counter(),
                    gates=len(trace), converted=convert_at is not None,
                )
        if state_dd is not None:
            registry.gauge("dd.size").set(node_count(state_dd))
        registry.gauge("ewma").set(monitor.value)
        registry.counter("dd_phase.gates").inc(len(trace))

        with TaskRunner(
            cfg.threads, cfg.use_thread_pool, tracer=tr if tracing else None
        ) as runner:
            c0 = time.perf_counter()
            triggered = convert_at is not None
            if skip_dd:
                # Array-phase resume: the snapshot carries the exact
                # post-conversion (and post-applied-DMAV-gates) array.
                state = decode_array_state(resume)
                metadata["conversion_resumed"] = True
            else:
                # ---------------- Phase 2: parallel DD-to-array ----------
                # Untriggered, the circuit stayed regular and this is the
                # whole run's result, exactly like DDSIM.
                state, report = convert_parallel(
                    pkg, state_dd, cfg.threads, runner,
                    dense_level=cfg.dense_block_level, tracer=tr,
                    unpermute=unperm,
                )
                metadata["conversion_report"] = report
                registry.gauge("conversion.seconds").set(report.seconds)
                if triggered:
                    release_dd_phase(
                        pkg, gates, guard,
                        barrier=checkpoint_every is not None
                        or resume is not None,
                    )
            meter.sample(dd_bytes(pkg) + state.nbytes)
            if tracing and not skip_dd:
                fields = {"tasks": report.num_tasks}
                if triggered:
                    fields["gate_index"] = convert_at
                    fields["scalar_fills"] = report.num_scalar_fills
                tr.record(
                    "conversion", "phase", c0, time.perf_counter(),
                    triggered=triggered, **fields,
                )
            if triggered:
                metadata["converted"] = True
                metadata["conversion_gate_index"] = convert_at
                guard.check_array(
                    meter.last_bytes,
                    convert_at,
                    checkpoint=lambda: write_array_checkpoint(
                        state, convert_at, 0 if not skip_dd else resume.gate_cursor
                    ),
                )

                # ---------------- Phase 3: (fusion +) DMAV ---------------
                remaining = circuit.gates[convert_at + 1:]
                model = CostModel(cfg.threads, cfg.simd_width)
                f0 = time.perf_counter()
                edges = [gates.get(g) for g in remaining]
                labels = [g.name for g in remaining]
                if cfg.fusion == "cost" and edges:
                    fused = fuse_cost_aware(pkg, edges, model)
                    edges = fused.gates
                    labels = _fused_labels(labels, fused)
                    metadata["fusion_result"] = _fusion_summary(fused)
                elif cfg.fusion == "koperations" and edges:
                    fused = fuse_k_operations(pkg, edges, cfg.k_operations, model)
                    edges = fused.gates
                    labels = _fused_labels(labels, fused)
                    metadata["fusion_result"] = _fusion_summary(fused)
                f1 = time.perf_counter()
                metadata["fusion_seconds"] = f1 - f0
                if tracing and cfg.fusion != "none" and edges:
                    tr.record(
                        "fusion", "phase", f0, f1,
                        mode=cfg.fusion, emitted=len(edges),
                    )

                d0 = time.perf_counter()
                plans = PlanCache(pkg, cfg.threads, model, cfg.dense_block_level)
                # The array phase is the one-row case of the sweep's planned
                # batch: the state is held as a (threads, 1, h) view of the
                # same memory, and each gate writes the arena's next one.
                arena = BufferArena(state.size, tiles=cfg.threads)
                state = state.reshape(cfg.threads, 1, -1)
                dmav_macs = 0
                dmav_cache_hits = 0
                gate_costs: list[tuple[int, float, float, bool]] = []
                # Array-phase resume: the emitted gate list is rebuilt
                # deterministically above; skip the already-applied prefix.
                edge_start = resume.gate_cursor if skip_dd else 0
                for j, edge in enumerate(edges[edge_start:], start=edge_start):
                    g0 = time.perf_counter()
                    plan = plans.get(edge)
                    cost = plan.cost
                    use_cache = resolve_use_cache(cfg.cache_policy, cost)
                    w_buf, w_dirty = arena.output()
                    if use_cache:
                        dmav_cached(
                            pkg, None, state, cfg.threads, runner,
                            cfg.dense_block_level, out=w_buf, plans=[plan],
                            buffers=arena.partials(
                                plan.assignment.num_buffers
                            ),
                            out_dirty=w_dirty,
                        )
                    else:
                        dmav_nocache(
                            pkg, None, state, cfg.threads, runner,
                            cfg.dense_block_level, out=w_buf, plans=[plan],
                            out_dirty=w_dirty,
                        )
                    arena.retire(state)
                    state = w_buf
                    hits = cost.cache_hits if use_cache else 0
                    dmav_macs += cost.macs_total
                    dmav_cache_hits += hits
                    gate_costs.append(
                        (cost.macs_total, cost.cost_nocache, cost.cost_cache,
                         use_cache)
                    )
                    g1 = time.perf_counter()
                    trace.append(
                        GateRecord(
                            index=convert_at + 1 + j,
                            name=labels[j],
                            seconds=g1 - g0,
                            phase="dmav",
                            macs=cost.macs_total,
                            cached=use_cache,
                        )
                    )
                    if tracing:
                        tr.record(
                            labels[j], "dmav", g0, g1,
                            gate_index=convert_at + 1 + j,
                            macs=cost.macs_total, cached=use_cache,
                            cost_cache=cost.cost_cache,
                            cost_nocache=cost.cost_nocache,
                            cache_hits=hits,
                        )
                    meter.sample(
                        dd_bytes(pkg)
                        + 2 * state.nbytes
                        + arena.partial_bytes
                    )
                    guard.check_array(
                        meter.last_bytes,
                        convert_at + 1 + j,
                        checkpoint=lambda s=state, c=j + 1: (
                            write_array_checkpoint(s, convert_at, c)
                        ),
                    )
                    if (
                        checkpoint_every is not None
                        and (j + 1) % checkpoint_every == 0
                        and j + 1 < len(edges)
                    ):
                        write_array_checkpoint(state, convert_at, j + 1)
                        checkpoints_written += 1
                        if tracing:
                            tr.instant(
                                "checkpoint", "dmav",
                                gate_index=convert_at + 1 + j,
                            )
                    if deadline is not None and time.perf_counter() > deadline:
                        timed_out = True
                        break
                state = state.reshape(-1)
                if tracing:
                    tr.record(
                        "dmav_phase", "phase", d0, time.perf_counter(),
                        gates=len(edges), macs=dmav_macs,
                    )
                n_cached = sum(1 for gc in gate_costs if gc[3])
                registry.counter("dmav.gates_cached").inc(n_cached)
                registry.counter("dmav.gates_uncached").inc(
                    len(gate_costs) - n_cached
                )
                registry.counter("dmav.gates").inc(len(gate_costs))
                registry.counter("dmav.macs").inc(dmav_macs)
                registry.counter("dmav.cache_hits").inc(dmav_cache_hits)
                registry.counter("dmav.plan.hits").inc(plans.hits)
                registry.counter("dmav.plan.misses").inc(plans.misses)
                registry.counter("dmav.plan.gate_hits").inc(plans.gate_hits)
                registry.counter("dmav.plan.compiles").inc(plans.compiles)
                registry.counter("dmav.plan.invalidations").inc(
                    plans.invalidations
                )
                registry.counter("dmav.arena.partial_allocs").inc(
                    arena.partial_allocs
                )
                registry.counter("dmav.arena.partial_reuses").inc(
                    arena.partial_reuses
                )
                registry.counter("dmav.arena.output_allocs").inc(
                    arena.output_allocs
                )
                registry.gauge("dmav.arena.bytes").set(arena.bytes_held)
                registry.gauge("dmav.plan.hit_rate").set(plans.hit_rate)
                metadata["dmav_macs_total"] = dmav_macs
                metadata["dmav_gate_costs"] = gate_costs
                if keep_internals:
                    metadata["dmav_edges"] = edges
                    metadata["package"] = pkg

        runtime = time.perf_counter() - start
        metadata["timed_out"] = timed_out
        metadata["ewma_samples"] = monitor.samples
        metadata["dd_phase_gates"] = (
            convert_at + 1 if convert_at is not None else len(trace)
        )
        metadata["gate_dd_cache_hits"] = gates.hits
        metadata["gate_dd_cache_misses"] = gates.misses
        metadata["dd_stats"] = pkg.stats.as_dict()
        registry.counter("dd.identity.mv_skips").inc(
            pkg.stats.identity_mv_skips
        )
        registry.counter("dd.identity.mm_skips").inc(
            pkg.stats.identity_mm_skips
        )
        registry.counter("dd.identity.passthrough_skips").inc(
            pkg.stats.identity_passthrough_skips
        )
        registry.counter("dd.identity.lift_steps").inc(
            pkg.stats.identity_lift_steps
        )
        registry.gauge("dd.reorder.applied").set(
            0 if reorder.is_natural else 1
        )
        registry.gauge("dd.reorder.cost_natural").set(reorder.cost_natural)
        registry.gauge("dd.reorder.cost_selected").set(reorder.cost_selected)
        registry.counter("dd.reorder.sift_moves").inc(reorder.sift_moves)
        metadata["checkpoints_written"] = checkpoints_written
        if guard.enabled:
            metadata["guard"] = guard.report.to_dict()
        registry.gauge("sim.mem.peak_bytes").set(meter.peak_bytes)
        metadata["obs"] = build_obs(
            tracer=tr if tracing else None,
            registry=registry,
            package=pkg,
            gate_cache=gates,
            runner=runner,
            wall_seconds=runtime,
        )
        if keep_internals and "package" not in metadata:
            metadata["package"] = pkg
        return SimulationResult(
            backend=self.name,
            circuit_name=circuit.name,
            num_qubits=n,
            num_gates=len(circuit.gates),
            state=state,
            runtime_seconds=runtime,
            peak_memory_bytes=meter.peak_bytes,
            gate_trace=trace,
            metadata=metadata,
        )

    # ------------------------------------------------------------------

    def simulate_sweep(
        self,
        circuit: Circuit,
        param_sets,
        tracer=None,
        checkpoint_path: str | None = None,
    ):
        """Run ``circuit`` bound with every parameter row of ``param_sets``.

        Returns a :class:`~repro.core.sweep.SweepResult` whose
        ``states[i]`` is bit-identical (``np.array_equal``) to
        ``self.run(circuit.bind(param_sets[i])).state``.  The sweep
        deduplicates identical rows, shares one DD phase / conversion /
        plan compilation across rows with a common gate prefix, and
        replays the remaining gates as batched matrix x matrix kernels;
        see :func:`repro.core.sweep.run_sweep` for the full contract.

        ``checkpoint_path`` receives a diagnostic sweep-phase snapshot on
        a memory-guard breach; such snapshots cannot seed
        ``run(resume_from=...)``.
        """
        from repro.core.sweep import run_sweep

        return run_sweep(
            self, circuit, param_sets, tracer=tracer,
            checkpoint_path=checkpoint_path,
        )


def _fused_labels(labels: list[str], fused: FusionResult) -> list[str]:
    """Human-readable names for fused groups ('fused[h+cx+...x12]')."""
    out = []
    pos = 0
    for size in fused.group_sizes:
        group = labels[pos:pos + size]
        pos += size
        if size == 1:
            out.append(group[0])
        else:
            out.append(f"fused[x{size}]")
    return out


def _fusion_summary(fused: FusionResult) -> dict:
    return {
        "emitted_gates": len(fused.gates),
        "absorbed_gates": fused.fused_away,
        "total_cost": fused.total_cost,
        "ddmm_calls": fused.ddmm_calls,
        "group_sizes": fused.group_sizes,
    }
