"""Outside-in layer tracing: wrap layer entry points where they are looked up.

The simulator and the sweep executor bind their layer functions as module
globals (``from repro.core.dmav import dmav_cached``), so a span around a
layer is recorded by replacing that *name* in the module that calls it;
layer methods are replaced on their class.  Nothing under ``src/`` is
edited and :func:`traced` always restores the originals.

Spans are ``[layer, start, end, parent_index]`` rows kept in memory.  A
layer's self time is its span durations minus the time covered by its
child spans.  The recorder keeps one span stack per thread; every
workload runs inline on the calling thread (library defaults), so all
spans of a pass share one tree.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

#: Module-level names the pipeline looks up, per calling module -> layer.
MODULE_TARGETS: dict[str, dict[str, str]] = {
    module: {
        "mv_multiply": "mv",
        "node_count": "node_count",
        "convert_parallel": "conversion",
        "dmav_nocache": "dmav",
        "dmav_cached": "dmav",
        "plan_qubit_order": "reorder",
    }
    for module in ("repro.core.simulator", "repro.core.sweep")
}

#: (module, class, method, layer, attributes of ``self`` whose change
#: across the call is counted as ``<layer>.<attr>``).
METHOD_TARGETS: tuple[tuple[str, str, str, str, tuple[str, ...]], ...] = (
    ("repro.core.simulator", "FlatDDSimulator", "run", "run", ()),
    ("repro.core.simulator", "FlatDDSimulator", "simulate_sweep", "sweep", ()),
    ("repro.backends.gatecache", "GateDDCache", "get", "gatecache",
     ("hits",)),
    ("repro.core.plan", "PlanCache", "get", "plan",
     ("gate_hits", "compiles")),
    ("repro.core.ewma", "EWMAMonitor", "update", "ewma", ()),
    ("repro.dd.package", "DDPackage", "collect_garbage", "gc", ()),
    ("repro.dd.package", "DDPackage", "rewind_to_mark", "rewind", ()),
    ("repro.serve.scheduler", "BatchScheduler", "plan", "scheduler", ()),
    ("repro.serve.cache", "ResultCache", "get", "cache", ()),
    ("repro.serve.cache", "ResultCache", "put", "cache", ()),
    ("repro.serve.queue", "JobQueue", "submit", "submit", ()),
    ("repro.serve.service", "SimulationService", "drain", "drain", ()),
    ("repro.serve.workers", "WorkerPool", "execute_groups", "worker", ()),
)


def _dmav_bytes(args, result) -> int:
    # One read of the input amplitudes and one write of the output: the
    # minimum traffic of a matrix-vector product, computed from sizes.
    return 2 * args[2].nbytes


def _conversion_bytes(args, result) -> int:
    # The flat array the conversion writes, computed from its size.
    return result[0].nbytes


#: Layer -> bytes-computed hook ``(args, result) -> int``.
BYTE_HOOKS = {"dmav": _dmav_bytes, "conversion": _conversion_bytes}


class SpanRecorder:
    """In-memory span tree plus per-layer counters."""

    def __init__(self) -> None:
        #: ``[layer, start, end, parent_index]``; parent -1 is a root.
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str) -> list:
        stack = self._stack()
        row = [layer, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(row)
        return row

    @contextlib.contextmanager
    def span(self, layer: str):
        """Record the enclosed block as one span of ``layer``."""
        row = self._open(layer)
        row[1] = time.perf_counter()
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack().pop()

    def wrap(self, layer: str, fn, probes: tuple[str, ...] = ()):
        """``fn`` recording one ``layer`` span (and counters) per call."""
        nbytes = BYTE_HOOKS.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Inlined span(): this runs thousands of times per pass.
            before = [getattr(args[0], a) for a in probes]
            row = self._open(layer)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                self._stack().pop()
            for attr, b in zip(probes, before):
                self.counters[f"{layer}.{attr}"] += getattr(args[0], attr) - b
            if nbytes is not None:
                self.counters[f"{layer}.bytes"] += nbytes(args, result)
            return result

        return wrapper

    # -- derived -------------------------------------------------------

    def layer_totals(self) -> dict[str, dict]:
        """Per layer: ``calls`` and ``self_s``."""
        child_s = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        out: dict[str, dict] = {}
        for (name, t0, t1, _), covered in zip(self.spans, child_s):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (t1 - t0) - covered
        return out

    def durations(self, layer: str) -> list[float]:
        return [t1 - t0 for name, t0, t1, _ in self.spans if name == layer]


def _targets():
    """Yield ``(owner, attribute, layer, probes)`` for every wrap site."""
    for module, names in MODULE_TARGETS.items():
        mod = importlib.import_module(module)
        for attr, layer in names.items():
            yield mod, attr, layer, ()
    for module, cls_name, attr, layer, probes in METHOD_TARGETS:
        cls = getattr(importlib.import_module(module), cls_name)
        if attr not in cls.__dict__:
            raise AttributeError(f"{cls_name}.{attr} is not defined on the class")
        yield cls, attr, layer, probes


def originals() -> list[tuple[object, str, object]]:
    """``(owner, attribute, current object)`` for every wrap site."""
    return [
        (owner, attr, owner.__dict__[attr])
        for owner, attr, _, _ in _targets()
    ]


@contextlib.contextmanager
def traced(recorder: SpanRecorder):
    """Install the layer wrappers for the enclosed block, then restore."""
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attr, layer, probes in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(layer, original, probes))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- host roofline -------------------------------------------------------

_SC_LEVEL3_CACHE_SIZE = 194  # glibc's sysconf name (answered from cpuid)


def llc_bytes() -> int:
    """Last-level cache size in bytes, 0 when the host does not say."""
    try:
        size = ctypes.CDLL(None).sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (OSError, AttributeError):
        return 0
    return max(int(size), 0)


def copy_bandwidth(amplitudes: int | None = None, repeats: int = 5) -> dict:
    """Host copy bandwidth over complex128 arrays larger than the LLC.

    By default each array holds at least four times the last-level cache
    (and at least 2**25 amplitudes), so the copy streams from memory.
    ``gbps`` counts one read and one write of the array per copy, the
    same accounting as the DMAV bytes above.
    """
    llc = llc_bytes()
    if amplitudes is None:
        amplitudes = 1 << 25
        while amplitudes * 16 < 4 * llc:
            amplitudes <<= 1
    src = np.ones(amplitudes, dtype=np.complex128)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault in the destination pages
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return {
        "gbps": 2 * src.nbytes / statistics.median(times) / 1e9,
        "array_bytes": src.nbytes,
        "llc_bytes": llc,
    }
