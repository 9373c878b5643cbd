"""The benchmark workloads: seeded inputs, one timed pass, references.

Every workload uses the library defaults (``FlatDDConfig()``,
``ServeConfig()``): four partitions run inline on the calling thread.
The seed chooses only the generated inputs (generator seeds, adder
operands, sweep angles, the serve job order and which jobs
repeat); sizes are fixed per workload, so the work per pass barely moves
with the seed.  Each pass is split into units (a run, a sweep call, a
serve submit-and-drain batch) that are timed on their own.

* ``irregular`` -- supremacy, dnn, knn: the EWMA converts early and the
  DMAV kernel does most of the work (the paper's irregular regime).
* ``sweep`` -- a hardware-efficient ansatz whose rows vary only the final
  layer, through ``simulate_sweep``: batched tile replay plus per-row
  gate-DD builds under package rewind.
* ``serve_small`` -- n=8..12 jobs through ``SimulationService``, 40% of
  them repeats, in a closed loop of submit-8-then-drain: the only
  workload that runs the queue, scheduler/dedup and result cache.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from perfbench.hostclock import probe
from repro import FlatDDSimulator
from repro.algorithms.ansatz import HardwareEfficientAnsatz
from repro.backends import StatevectorSimulator
from repro.circuits import get_circuit
from repro.serve import JobState, SimulationService
from repro.verify.fuzz.oracles import TOLERANCE_LADDER, phase_aligned_error

__all__ = ["Pass", "WORKLOADS", "make_workload"]

WORKLOADS = ("irregular", "sweep", "serve_small")

#: Loosest tier of the cross-backend tolerance ladder.
TOLERANCE = TOLERANCE_LADDER[-1][1]


@dataclass
class Pass:
    """One timed pass: its wall time, work done and outputs to check."""

    wall_s: float = 0.0
    gates: int = 0
    #: Final states produced (one per run, sweep row or job).
    rows: int = 0
    #: Top-level calls completed (runs, sweeps or serve jobs).
    jobs: int = 0
    #: Operations attempted and failed; an operation is a run, a sweep
    #: row or a serve job.
    attempted: int = 0
    failed: int = 0
    #: Per top-level call: seconds from its submit to its result, and
    #: the index of the unit it ran in.
    latencies: list[float] = field(default_factory=list)
    latency_units: list[int] = field(default_factory=list)
    #: Seconds of each unit of work (a run, a sweep call or a serve
    #: submit-and-drain batch), in the same order on every pass.
    units: list[float] = field(default_factory=list)
    #: ``hostclock.probe()`` before each unit and after the last.
    probes: list[float] = field(default_factory=list)
    #: Seconds spent probing (left out of ``wall_s``).
    probe_s: float = 0.0
    peak_mem_bytes: int = 0
    #: ``(reference key, state)``; checked after the pass is timed.
    outputs: list[tuple[object, np.ndarray]] = field(default_factory=list)
    #: Public result metadata of the simulations the pass ran.
    metadata: list[dict] = field(default_factory=list)
    #: ``ServeReport`` of every drain (serve workload only).
    reports: list = field(default_factory=list)

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.probe_s += time.perf_counter() - t0


def _report_error(what: str) -> None:
    print(
        f"perfbench: {what} failed:\n{traceback.format_exc()}",
        file=sys.stderr, flush=True,
    )


def _statevector(circuit) -> np.ndarray:
    return StatevectorSimulator().run(circuit).state


def _matches(state: np.ndarray, ref: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(state))) and (
        phase_aligned_error(ref, state) <= TOLERANCE
    )


class CircuitWorkload:
    """Single-shot ``FlatDDSimulator.run`` over a fixed circuit list."""

    name = "irregular"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def build(self) -> None:
        self.circuits = _irregular(
            np.random.default_rng(self.seed), self.tiny
        )
        self.sim = FlatDDSimulator()

    def references(self) -> None:
        self.refs = [_statevector(c) for c in self.circuits]

    def run_pass(self) -> Pass:
        p = Pass()
        t0 = time.perf_counter()
        for i, circuit in enumerate(self.circuits):
            p.calibrate()
            s = time.perf_counter()
            p.attempted += 1
            try:
                result = self.sim.run(circuit)
            except Exception:
                p.units.append(time.perf_counter() - s)
                _report_error(f"run of {circuit.name}")
                p.failed += 1
                continue
            p.units.append(time.perf_counter() - s)
            p.latencies.append(p.units[-1])
            p.latency_units.append(i)
            p.gates += len(circuit.gates)
            p.rows += 1
            p.jobs += 1
            p.peak_mem_bytes = max(p.peak_mem_bytes, result.peak_memory_bytes)
            p.outputs.append((i, result.state))
            p.metadata.append(result.metadata)
        p.calibrate()
        p.wall_s = time.perf_counter() - t0 - p.probe_s
        return p

    def check(self, p: Pass) -> int:
        return sum(not _matches(s, self.refs[i]) for i, s in p.outputs)


def _irregular(rng, tiny: bool):
    s = [int(x) for x in rng.integers(0, 2**31, 3)]
    if tiny:
        return [
            get_circuit("supremacy", 8, cycles=6, seed=s[0]),
            get_circuit("dnn", 6, layers=3, seed=s[1]),
        ]
    return [
        get_circuit("supremacy", 18, cycles=16, seed=s[0]),
        get_circuit("dnn", 16, layers=12, seed=s[1]),
        get_circuit("knn", 17, seed=s[2]),
    ]


class SweepWorkload:
    """``simulate_sweep`` over rows that vary only the final layer."""

    name = "sweep"
    #: Rows re-run single-shot as the bit-identity reference.
    SAMPLED_ROWS = 3

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.n, self.layers, self.num_rows = (4, 2, 4) if tiny else (14, 3, 48)

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        ansatz = HardwareEfficientAnsatz(self.n, self.layers)
        base = rng.uniform(-np.pi, np.pi, ansatz.num_parameters)
        self.template = ansatz.build(base)
        self.param_rows = []
        for _ in range(self.num_rows):
            row = base.copy()
            # The final layer's RY and RZ angles.
            row[-2 * self.n:] = rng.uniform(-np.pi, np.pi, 2 * self.n)
            self.param_rows.append(tuple(row))
        self.sampled = sorted(
            int(i) for i in rng.choice(
                self.num_rows, self.SAMPLED_ROWS, replace=False
            )
        )
        self.sim = FlatDDSimulator()

    def references(self) -> None:
        self.refs = {
            i: self.sim.run(self.template.bind(self.param_rows[i])).state
            for i in self.sampled
        }

    def run_pass(self) -> Pass:
        p = Pass(attempted=self.num_rows)
        p.calibrate()
        t0 = time.perf_counter()
        try:
            result = self.sim.simulate_sweep(self.template, self.param_rows)
        except Exception:
            result = None
            _report_error("simulate_sweep")
        p.wall_s = time.perf_counter() - t0
        p.calibrate()
        p.units.append(p.wall_s)
        if result is None:
            p.failed = self.num_rows
            return p
        p.latencies.append(p.wall_s)
        p.latency_units.append(0)
        p.rows = result.num_rows
        p.jobs = 1
        p.gates = result.num_rows * len(self.template.gates)
        p.peak_mem_bytes = result.peak_memory_bytes
        p.failed = self.num_rows - result.states.shape[0]
        p.outputs = [(i, result.states[i]) for i in self.sampled]
        p.metadata.append(result.metadata)
        return p

    def check(self, p: Pass) -> int:
        # Sweep rows must equal their single-shot runs bit for bit.
        return sum(not np.array_equal(s, self.refs[i]) for i, s in p.outputs)


def _marks(n: int, count: int) -> list[int]:
    """The first ``count`` ``n``-bit Grover marks with ``n // 2`` bits set.

    A Grover run's cost depends on its mark (up to 1.7x between marks of
    one size), so the marks are fixed rather than drawn from the seed.
    """
    return [m for m in range(1 << n) if bin(m).count("1") == n // 2][:count]


def _cost(circuit) -> int:
    """Estimated simulation cost: gates times qubits (tracks run time)."""
    return len(circuit.gates) * circuit.num_qubits


def serve_mix(rng, batch: int, tiny: bool = False):
    """Job circuits and the index each repeat copies (None when fresh).

    Exactly 40% of the jobs repeat an earlier circuit: a quarter of the
    repeats copy a job of the same submit batch (the scheduler dedups
    them), the rest copy a job of an earlier batch (result-cache hits).
    The fresh circuits are spread as evenly as possible over the
    batches, heaviest (by ``_cost``) first, each to the least loaded
    batch with room, so the batches carry like shares of the work and
    the heaviest jobs share their batches with the lightest, whatever
    the seed.  The seed
    chooses the circuits, the order among equal costs, which repeat
    slots dedup and which job each repeat copies.
    """
    seeds = iter(int(x) for x in rng.integers(0, 2**31, 64))
    if tiny:
        fresh = [
            get_circuit("supremacy", 5, cycles=4, seed=next(seeds)),
            get_circuit("supremacy", 5, cycles=4, seed=next(seeds)),
            get_circuit("dnn", 4, layers=2, seed=next(seeds)),
            get_circuit("dnn", 4, layers=2, seed=next(seeds)),
            get_circuit("qft", 5),
            get_circuit("wstate", 4),
        ]
    else:
        # 96 distinct circuits; seedless families appear once per size.
        fresh = []
        for n in range(8, 13):
            for _ in range(5):
                fresh.append(
                    get_circuit("supremacy", n, cycles=6, seed=next(seeds))
                )
                fresh.append(get_circuit("dnn", n, layers=3, seed=next(seeds)))
            fresh += [
                get_circuit("qft", n), get_circuit("wstate", n),
                get_circuit("ghz", n),
            ]
        for n in (9, 11):
            fresh += [get_circuit("knn", n, seed=next(seeds)) for _ in range(5)]
        for n in (8, 10, 12):
            k = (n - 2) // 2
            operands = rng.choice(1 << (2 * k), 5, replace=False)
            fresh += [
                get_circuit("adder", n, a_value=int(v) >> k,
                            b_value=int(v) & ((1 << k) - 1))
                for v in operands
            ]
        # The grover-10 jobs hold the pass's peak memory (~0.95 MiB; the
        # rest stay below ~0.55 MiB whatever the seed), so peak_mem_mb
        # does not hinge on a rare large random circuit.  They are the
        # heaviest jobs by far, one to each of the first four batches:
        # those 32 jobs (20%) put job_p90_s well inside their latencies,
        # not on the edge between them and the rest.
        for n, count in ((8, 2), (10, 4)):
            fresh += [
                get_circuit("grover", n, marked=m)
                for m in _marks(n, count)
            ]
    total = round(len(fresh) / 0.6)
    repeats = total - len(fresh)
    num_batches = total // batch
    per = [
        len(fresh) // num_batches + (b < len(fresh) % num_batches)
        for b in range(num_batches)
    ]
    shuffled = [fresh[i] for i in rng.permutation(len(fresh))]
    dealt: list[list] = [[] for _ in range(num_batches)]
    load = [0] * num_batches
    for c in sorted(shuffled, key=_cost, reverse=True):
        b = min(
            (b for b in range(num_batches) if len(dealt[b]) < per[b]),
            key=load.__getitem__,
        )
        dealt[b].append(c)
        load[b] += _cost(c)
    # Repeat slots follow the fresh jobs of their batch; those of the
    # first batch can only copy within it.
    slots = [(b, j) for b in range(num_batches) for j in range(per[b], batch)]
    same = {s for s in slots if s[0] == 0}
    later = [s for s in slots if s[0] > 0]
    picked = rng.choice(len(later), repeats // 4 - len(same), replace=False)
    same |= {later[int(i)] for i in picked}
    circuits: list = []
    source: list[int | None] = []
    for b in range(num_batches):
        base = b * batch
        for j in range(batch):
            if j < per[b]:
                circuits.append(dealt[b][j])
                source.append(None)
                continue
            if (b, j) in same:
                src = int(rng.integers(base, base + per[b]))
            else:
                src = int(rng.integers(0, base))
            circuits.append(circuits[src])
            source.append(src)
    return circuits, source


class ServeWorkload:
    """Closed loop: submit a batch of jobs, ``drain()``, repeat."""

    name = "serve_small"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        #: Jobs submitted before each ``drain()``.
        self.batch = 2 if tiny else 8

    def build(self) -> None:
        self.circuits, self.source = serve_mix(
            np.random.default_rng(self.seed), self.batch, self.tiny
        )
        # The service is built fresh inside every pass (no warm cache).

    def references(self) -> None:
        self.refs = {
            i: _statevector(c)
            for i, c in enumerate(self.circuits)
            if self.source[i] is None
        }

    def _ref_index(self, i: int) -> int:
        while self.source[i] is not None:
            i = self.source[i]
        return i

    def run_pass(self) -> Pass:
        p = Pass()
        ids = []
        t0 = time.perf_counter()
        with SimulationService() as service:
            for b in range(0, len(self.circuits), self.batch):
                submitted = []
                p.calibrate()
                start = time.perf_counter()
                for c in self.circuits[b:b + self.batch]:
                    submitted.append(time.perf_counter())
                    p.attempted += 1
                    try:
                        ids.append(service.submit(c))
                    except Exception:
                        _report_error(f"submit of {c.name}")
                        ids.append(None)
                        p.failed += 1
                        submitted.pop()
                p.reports.append(service.drain())
                done = time.perf_counter()
                p.latency_units += [len(p.units)] * len(submitted)
                p.units.append(done - start)
                p.latencies.extend(done - s for s in submitted)
            p.calibrate()
            p.wall_s = time.perf_counter() - t0 - p.probe_s
            for i, job_id in enumerate(ids):
                if job_id is None:
                    continue
                job = service.poll(job_id)
                if job.state is not JobState.DONE:
                    p.failed += 1
                    continue
                p.jobs += 1
                p.rows += 1
                p.outputs.append((self._ref_index(i), job.result.state))
                if not job.result.cache_hit:
                    # Only fresh runs simulate gates; which jobs repeat
                    # changes with the seed, the fresh circuits do not.
                    p.gates += len(self.circuits[i].gates)
                    meta = job.result.metadata
                    p.metadata.append(meta)
                    p.peak_mem_bytes = max(
                        p.peak_mem_bytes,
                        int(meta["obs"]["gauges"]["sim.mem.peak_bytes"]["value"]),
                    )
        return p

    def check(self, p: Pass) -> int:
        return sum(not _matches(s, self.refs[i]) for i, s in p.outputs)


def make_workload(name: str, seed: int, tiny: bool = False):
    """The workload ``name`` with inputs drawn from ``seed``.

    ``tiny`` shrinks every input to a few qubits (for the benchmark's
    own tests).
    """
    if name == "irregular":
        return CircuitWorkload(seed, tiny)
    if name == "sweep":
        return SweepWorkload(seed, tiny)
    if name == "serve_small":
        return ServeWorkload(seed, tiny)
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")

