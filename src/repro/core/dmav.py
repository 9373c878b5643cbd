"""DMAV: DD-matrix x array-vector multiplication (Sections 3.2.1-3.2.2).

This is FlatDD's core contribution: the gate matrix stays a DD (constant
average indexing work, full structure sharing) while the state vector is a
flat array (no irregularity blow-up).

* :func:`assign_tasks` / :func:`dmav_nocache` -- Algorithm 1.  ``Assign``
  splits the t threads in half at each DD level down to the border level
  ``n - log2 t - 1`` (row-major: each thread owns a row block of the output
  and reads all of V), then ``Run`` evaluates each border sub-matrix.
* :func:`dmav_cached` -- Algorithm 2.  Column-major assignment: each thread
  owns a column block (a fixed slice of V), writes into shared partial
  output buffers, and caches per-thread results so repeated border nodes
  collapse to one SIMD scalar multiplication (Figure 6).  Buffers are
  summed into W at the end.

Both algorithms share one ``Run`` kernel, :func:`run_border_task_batch`:
border sub-matrix DDs applied to a ``(rows, size)`` slice, one DD per
row.  Each entry point has two modes:

* **unplanned** (the reference ``tests/test_dmav.py`` checks against):
  Assign descends the gate DD afresh and the state is a flat ``2**n``
  array;
* **planned** (``plans=``): compiled :class:`~repro.core.plan.GatePlan`
  task lists, one per row, replay over tile-major ``(threads, rows, h)``
  input, output and partial batches (``h = 2**n / threads``).  Every
  plan task is one whole tile, so it reaches the kernel as a
  C-contiguous ``(rows, h)`` block.  This is the only executor the
  simulator uses: ``run()`` passes its flat state viewed as
  ``(threads, 1, h)``, :mod:`repro.core.sweep` one row per parameter
  point.  A sweep row's state is therefore bit-identical to its own
  ``run()`` by construction: rows that disagree structurally are
  replayed through the same executor one row at a time.

The ``Run`` recursion bottoms out on vectorized kernels (identity
subtrees, Kronecker collapses and cached dense blocks) instead of scalar
MACs -- see DESIGN.md substitution 2; MAC counts for the cost model are
unaffected.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.common.config import DENSE_BLOCK_LEVEL
from repro.dd.analysis import dense_matrix_block, is_identity, kron_collapse
from repro.dd.node import TERMINAL, DDNode, Edge
from repro.dd.package import DDPackage
from repro.core.cost_model import CacheAssignment, assign_cache_tasks
from repro.core.plan import GatePlan
from repro.parallel.partition import border_level
from repro.parallel.pool import TaskRunner, validate_thread_count
from repro.parallel.simd import simd_add, simd_mul_into

__all__ = [
    "DMAVStats",
    "assign_tasks",
    "dmav_nocache",
    "dmav_cached",
    "run_border_task_batch",
]


@dataclass
class DMAVStats:
    """Execution statistics of one DMAV call."""

    threads: int
    tasks: int
    cache_hits: int = 0
    buffers: int = 0
    used_cache: bool = False


def assign_tasks(
    pkg: DDPackage, m: Edge, threads: int
) -> list[list[tuple[DDNode, int, complex]]]:
    """Algorithm 1's Assign: row-major border-level task lists per thread.

    Each task is ``(border_node, v_start_index, coefficient)`` where the
    coefficient is the weight product along the DD path *including* the
    border edge's own weight.
    """
    n = pkg.num_qubits
    validate_thread_count(threads, n)
    border = border_level(n, threads)
    tasks: list[list[tuple[DDNode, int, complex]]] = [[] for _ in range(threads)]

    def descend(e: Edge, f: complex, u: int, i_v: int, level: int) -> None:
        if e.is_zero:
            return
        if level == border:
            tasks[u].append((e.n, i_v, f * e.w))
            return
        stride = threads >> (n - level)
        for i in (0, 1):
            for j in (0, 1):
                descend(
                    e.n.edges[2 * i + j],
                    f * e.w,
                    u + i * stride,
                    i_v + (1 << level) * j,
                    level - 1,
                )

    if not m.is_zero:
        descend(m, 1.0 + 0j, 0, 0, n - 1)
    return tasks


def _passthrough(node: DDNode) -> bool:
    """Diagonal 2x2-block level whose two children share one node."""
    e00, e01, e10, e11 = node.edges
    return (
        e01.is_zero
        and e10.is_zero
        and not e00.is_zero
        and not e11.is_zero
        and e00.n is e11.n
    )


def _partition_sig(node: DDNode) -> tuple[int, ...]:
    """Child-grouping signature of one node's four 2x2-block edges.

    Position ``k`` maps to ``-1`` (zero edge) or the first-occurrence
    index of its child node within this node's edges.  Two nodes with
    equal signatures group their children identically, which is what the
    generic branch needs to run one stacked recursion per group.
    """
    seen: dict[int, int] = {}
    sig = []
    for child in node.edges:
        if child.is_zero:
            sig.append(-1)
        else:
            sig.append(seen.setdefault(id(child.n), len(seen)))
    return tuple(sig)


def _lockstep_rowwise(
    pkg: DDPackage,
    nodes: list[DDNode],
    vten: np.ndarray,
    dense_level: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Exact per-row fallback: the lockstep kernel on one row at a time."""
    if out is None:
        out = np.empty(vten.shape, dtype=np.complex128)
    for b, node in enumerate(nodes):
        out[b:b + 1] = _apply_lockstep(
            pkg, [node], vten[b:b + 1], dense_level
        )
    return out


def _apply_lockstep(
    pkg: DDPackage,
    nodes: list[DDNode],
    vten: np.ndarray,
    dense_level: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply per-row normalized sub-DDs to a batch of vector blocks.

    ``vten`` has shape ``(rows, m, 2**(level+1))`` and ``nodes[b]`` is row
    ``b``'s sub-DD at this recursion point.  A single-shot run passes one
    row; rows of a parameter sweep share structure but differ in edge
    weights, so their node *objects* usually differ.  The recursion groups
    the four 2x2-block children by child node, stacking their input halves
    along ``m`` into one call -- so the call count is proportional to the
    gate DD's edge count, not to the number of root-to-terminal paths (the
    pure-Python analogue of the paper's constant-average-indexing claim
    for DMAV, Section 3.2.1).

    When every row holds the same node (``shared``: always for one row,
    and for parameterless gates in a sweep) each branch reads that node
    once and scales by its scalar weights.  Otherwise the per-row dense
    blocks and weights are stacked along the leading axis: each gemm
    becomes a broadcast matmul whose trailing two dimensions are the
    one-row gemm shape, and every scale/accumulate stays elementwise, so
    each row gets the bits of its own one-row call.  Whenever rows
    disagree structurally -- different branch, Kronecker base, or child
    partition -- the level drops to :func:`_lockstep_rowwise`, which runs
    this kernel one row at a time.

    ``out`` is a best-effort, C-contiguous result destination of
    ``vten``'s shape that must not overlap ``vten``.  Branches whose final
    operation can target it directly do so (skipping one result-sized
    allocation); others -- notably identity subtrees, which return
    ``vten`` itself -- ignore it.  Callers must therefore always use the
    *returned* array.  The values written are the same bits either way.
    """
    n0 = nodes[0]
    shared = len(nodes) == 1 or all(nd is n0 for nd in nodes)
    if is_identity(pkg, n0):
        if shared or all(is_identity(pkg, nd) for nd in nodes):
            return vten
        return _lockstep_rowwise(pkg, nodes, vten, dense_level, out)
    level = n0.level
    if not shared and any(
        nd.level != level or is_identity(pkg, nd) for nd in nodes
    ):
        return _lockstep_rowwise(pkg, nodes, vten, dense_level, out)
    rows, m, size = vten.shape
    if level <= dense_level:
        if shared:
            block_t = dense_matrix_block(pkg, n0).T
        else:
            block_t = np.stack(
                [dense_matrix_block(pkg, nd) for nd in nodes]
            ).transpose(0, 2, 1)
        if out is None:
            return vten @ block_t
        np.matmul(vten, block_t, out=out)
        return out
    c0 = kron_collapse(pkg, n0, dense_level)
    if not shared:
        collapsed = [kron_collapse(pkg, nd, dense_level) for nd in nodes]
        if any(
            (c is None) != (c0 is None)
            or (c is not None and c[1].level != c0[1].level)
            for c in collapsed
        ):
            return _lockstep_rowwise(pkg, nodes, vten, dense_level, out)
    if c0 is not None:
        # Subtree acts as diag(d) (x) M_base: one reshape + matmul.
        d, base = c0
        if base is TERMINAL:
            if not shared:
                d = np.stack([c[0] for c in collapsed])[:, None, :]
            if out is None:
                return vten * d
            np.multiply(vten, d, out=out)
            return out
        if shared:
            block_t = dense_matrix_block(pkg, base).T
            d = d[None, None, :, None]
        else:
            block_t = np.stack(
                [dense_matrix_block(pkg, c[1]) for c in collapsed]
            ).transpose(0, 2, 1)[:, None]
            d = np.stack([c[0] for c in collapsed])[:, None, :, None]
        bs = 2 << base.level
        shape4 = (rows, m, size // bs, bs)
        if out is None:
            folded = vten.reshape(shape4) @ block_t
        else:
            folded = out.reshape(shape4)
            np.matmul(vten.reshape(shape4), block_t, out=folded)
        folded *= d
        return folded.reshape(rows, m, size)
    half = size // 2
    pt = _passthrough(n0)
    if not shared and any(_passthrough(nd) != pt for nd in nodes):
        return _lockstep_rowwise(pkg, nodes, vten, dense_level, out)
    if pt:
        # Pass-through level (diag block, shared child): fold the halves
        # into the block axis as a *view* and recurse once -- zero copies
        # until a non-trivial level is reached.
        children = [nd.edges[0].n for nd in nodes]
        units = [nd.edges[0].w == 1 and nd.edges[3].w == 1 for nd in nodes]
        if all(units):
            folded = _apply_lockstep(
                pkg,
                children,
                vten.reshape(rows, 2 * m, half),
                dense_level,
                None if out is None else out.reshape(rows, 2 * m, half),
            )
            return folded.reshape(rows, m, size)
        if any(units):
            # Unit rows skip the scale pass; mixing them with scaled rows
            # would differ in signed zeros -- replay per row instead.
            return _lockstep_rowwise(pkg, nodes, vten, dense_level, out)
        folded = _apply_lockstep(
            pkg, children, vten.reshape(rows, 2 * m, half), dense_level
        )
        scale = np.array(
            [[nd.edges[0].w, nd.edges[3].w] for nd in nodes],
            dtype=np.complex128,
        )[:, None, :, None]
        f4 = folded.reshape(rows, m, 2, half)
        if out is None:
            return (f4 * scale).reshape(rows, m, size)
        np.multiply(f4, scale, out=out.reshape(rows, m, 2, half))
        return out
    if not shared:
        sig = _partition_sig(n0)
        if any(_partition_sig(nd) != sig for nd in nodes):
            return _lockstep_rowwise(pkg, nodes, vten, dense_level, out)
    # Group the (up to four) child applications by child node: a child
    # that appears under several (i, j) positions runs once on a stacked
    # batch.  Equal partition signatures make the grouping identical for
    # every row, so one stacked recursion serves each group.
    groups: dict[int, list[int]] = {}
    for k, child in enumerate(n0.edges):
        if not child.is_zero:
            groups.setdefault(id(child.n), []).append(k)
    halves = (vten[:, :, :half], vten[:, :, half:])
    # Assign on first write per output half instead of accumulating onto a
    # zero-filled buffer: ``w * b`` and ``0 + w * b`` only differ in signed
    # zeros, and skipping the O(size) fill plus one temporary per first use
    # is most of this level's overhead.
    if out is None:
        out = np.empty((rows, m, size), dtype=np.complex128)
    written = [False, False]
    for ks in groups.values():
        child = n0.edges[ks[0]].n
        if shared:
            gnodes = [child] * rows
            idn = is_identity(pkg, child)
        else:
            gnodes = [nd.edges[ks[0]].n for nd in nodes]
            idn = all(is_identity(pkg, gn) for gn in gnodes)
        if idn:
            # The child applies as the identity: read the input halves
            # directly instead of stacking a copy just to get it back.
            result = halves
            slot = {0: 0, 1: 1}
        else:
            js = sorted({k % 2 for k in ks})
            if len(js) == 1:
                stacked = halves[js[0]]
            else:
                stacked = np.concatenate([halves[j] for j in js], axis=1)
            res = _apply_lockstep(pkg, gnodes, stacked, dense_level)
            slot = {j: pos for pos, j in enumerate(js)}
            result = [
                res[:, pos * m:(pos + 1) * m, :] for pos in range(len(js))
            ]
        for k in ks:
            i, j = divmod(k, 2)
            if shared:
                wts = n0.edges[k].w
            else:
                wts = np.array(
                    [nd.edges[k].w for nd in nodes], dtype=np.complex128
                )[:, None, None]
            block = result[slot[j]]
            dst = out[:, :, i * half:(i + 1) * half]
            if written[i]:
                dst += wts * block
            else:
                np.multiply(wts, block, out=dst)
                written[i] = True
    for i in (0, 1):
        if not written[i]:
            out[:, :, i * half:(i + 1) * half] = 0.0
    return out


def run_border_task_batch(
    pkg: DDPackage,
    nodes: Sequence[DDNode],
    coeffs,
    vin: np.ndarray,
    wout: np.ndarray,
    dense_level: int = DENSE_BLOCK_LEVEL,
    accumulate: bool = True,
) -> None:
    """Algorithm 1's Run: ``wout[b] (+)= coeffs[b] * M_b vin[b]`` per row.

    ``vin``/``wout`` are the task's input and output column ranges as
    ``(rows, size)`` views and ``nodes[b]`` is row ``b``'s border
    sub-matrix.  Border nodes sit at level ``n - log2 t - 1 >= 0`` (the
    thread count is at most ``2**(n-1)`` and DDs are full height), so
    ``size`` is the chunk ``h >= 2`` and no task is a terminal.  The
    unplanned references call this with one row; the planned executors
    call it with one row per batch row, slicing the views out of
    tile-major batch buffers so that every task arrives C-contiguous and
    needs no gather copy.  The scalar-MAC recursion of the paper's C++ is
    replaced by the vectorized lockstep kernel (DESIGN.md substitution
    2), so a sweep row reproduces its own one-row call bit for bit.

    With ``accumulate=False`` the block is *assigned* instead of
    accumulated, which lets planned runs write into recycled (dirty,
    never-zeroed) buffers; the values only differ from ``0 + x`` in
    signed zeros.
    """
    rows, size = vin.shape
    if not vin.flags.c_contiguous:
        vin = np.ascontiguousarray(vin)
    v3 = vin.reshape(rows, 1, size)
    # One row (every single-shot task) scales by its scalar coefficient;
    # a scalar and a broadcast column multiply to the same bits.
    if rows == 1:
        carr = coeffs[0]
        unit = carr == 1.0 + 0j
    else:
        carr = np.asarray(coeffs, dtype=np.complex128)[:, None]
        unit = all(c == 1.0 + 0j for c in coeffs)
    if accumulate:
        res = _apply_lockstep(pkg, nodes, v3, dense_level)[:, 0, :]
        wout += carr * res
        return
    # Assigning tasks hand the kernel their output slice as the result
    # destination, then scale in place -- no intermediate buffer at all.
    # ``res`` either IS that slice's memory (same positions; it is then
    # replaced by ``wout`` itself, whose identical strides let numpy
    # multiply in place without a defensive copy) or an input view the
    # kernel passed through untouched.  Operand order matters
    # bit-for-bit: numpy's FMA-based complex multiply rounds differently
    # per order, and the accumulate path computes ``carr * res``.
    fwd = wout.reshape(rows, 1, size) if wout.flags.c_contiguous else None
    res = _apply_lockstep(pkg, nodes, v3, dense_level, fwd)[:, 0, :]
    in_place = np.may_share_memory(res, wout)
    if unit:
        # Unit coefficients: ``1 * res`` differs from ``res`` only in
        # signed zeros, and assignment needs no pass at all when the
        # kernel already wrote the slice.
        if not in_place:
            np.copyto(wout, res)
        return
    np.multiply(carr, wout if in_place else res, out=wout)


def _run_task(
    pkg: DDPackage,
    node: DDNode,
    coeff: complex,
    v: np.ndarray,
    w: np.ndarray,
    i_v: int,
    i_w: int,
    dense_level: int,
) -> None:
    """One border task of a flat state: the one-row Run, accumulated."""
    size = 2 << node.level
    run_border_task_batch(
        pkg, [node], [coeff], v[None, i_v:i_v + size],
        w[None, i_w:i_w + size], dense_level,
    )


def _each_thread(runner: TaskRunner | None, threads: int, work) -> None:
    """Run ``work(u)`` for every thread ``u``, on the pool if there is one."""
    if runner is not None and runner.use_pool:
        runner.run([lambda u=u: work(u) for u in range(threads)])
    else:
        for u in range(threads):
            work(u)


#: Target bytes of one task slice per planned row block.  The Run kernel
#: makes several elementwise passes (scale, accumulate, fold) over each
#: task slice; blocking a sweep's batch into row groups whose slice fits
#: the CPU cache keeps those passes cache-resident instead of streaming
#: the whole ``rows x 2**n`` batch through DRAM once per pass.  Rows are
#: independent in every kernel branch, so the split never changes a bit.
ROW_BLOCK_BYTES = 1 << 22


def _row_blocks(plans: list[GatePlan], *batches: np.ndarray) -> list[tuple]:
    """Split the rows into blocks of at most ``ROW_BLOCK_BYTES`` per task
    slice: each block's plans, then each batch's rows of that block."""
    step = max(1, ROW_BLOCK_BYTES // (batches[0].shape[2] * 16))
    if step >= len(plans):
        return [(plans, *batches)]  # one block, as for every run(): no views
    return [
        (plans[b0:b0 + step], *(b[:, b0:b0 + step] for b in batches))
        for b0 in range(0, len(plans), step)
    ]


def _check_batch(
    pkg: DDPackage, plans: list[GatePlan], v: np.ndarray, out, threads: int
) -> None:
    """Validate a planned call's ``(threads, rows, h)`` batches."""
    shape = (threads, len(plans), (1 << pkg.num_qubits) // threads)
    if v.shape != shape:
        raise ValueError(f"planned input batch {v.shape} != {shape}")
    if out is None or out.shape != shape:
        raise ValueError(f"planned DMAV needs an output batch of {shape}")
    if np.may_share_memory(out, v):
        raise ValueError("DMAV cannot write its output over the input state")


def dmav_nocache(
    pkg: DDPackage,
    m: Edge | None,
    v: np.ndarray,
    threads: int = 1,
    runner: TaskRunner | None = None,
    dense_level: int = DENSE_BLOCK_LEVEL,
    out: np.ndarray | None = None,
    *,
    plans: list[GatePlan] | None = None,
    out_dirty: bool = True,
) -> tuple[np.ndarray, DMAVStats]:
    """DMAV without caching (Algorithm 1): returns (w, stats).

    Unplanned (the reference): Assign descends ``m`` afresh and ``v`` /
    ``out`` are flat ``2**n`` states; ``out`` is zeroed first.

    Planned (``plans`` given; ``m`` is not read): ``plans[b]`` is row
    ``b``'s compiled :class:`~repro.core.plan.GatePlan` and ``v``/``out``
    are tile-major ``(threads, rows, 2**n / threads)`` batches -- the
    one-row batch is a plain state viewed as ``(threads, 1, h)``.  Each
    thread replays its ``row_tasks`` over its own output tile: the first
    task assigns the tile and the rest accumulate, so a dirty recycled
    ``out`` only needs filling (governed by ``out_dirty``) for threads
    with no tasks.
    """
    if plans is not None:
        _check_batch(pkg, plans, v, out, threads)
        _planned_nocache(pkg, plans, v, out, runner, dense_level, out_dirty)
        return out, DMAVStats(threads=threads, tasks=plans[0].num_tasks)
    n = pkg.num_qubits
    if v.shape != (1 << n,):
        raise ValueError(f"state length {v.shape} != 2**{n}")
    if out is v:
        raise ValueError("DMAV cannot write its output over the input state")
    if out is None:
        w = np.zeros_like(v)
    else:
        w = out
        w.fill(0)
    tasks = assign_tasks(pkg, m, threads)
    h = (1 << n) // threads

    def work(u: int) -> None:
        for node, i_v, coeff in tasks[u]:
            _run_task(pkg, node, coeff, v, w, i_v, u * h, dense_level)

    _each_thread(runner, threads, work)
    stats = DMAVStats(threads=threads, tasks=sum(map(len, tasks)))
    return w, stats


def _planned_nocache(pkg, plans, v3, w3, runner, dense_level, out_dirty):
    """Planned Algorithm 1 over a tile-major batch, one thread per tile."""
    threads, _rows, h = v3.shape
    blocks = _row_blocks(plans, v3, w3)

    def work(u: int) -> None:
        if not plans[0].row_tasks[u]:
            if out_dirty:
                w3[u].fill(0)
            return
        for block, vb, wb in blocks:
            wout = wb[u]
            # ``row`` holds each row's k-th task.  The first task assigns
            # the whole tile; the rest accumulate.
            for k, row in enumerate(zip(*[p.row_tasks[u] for p in block])):
                nodes, offs, coeffs = zip(*row)
                run_border_task_batch(
                    pkg, nodes, coeffs, vb[offs[0] // h], wout, dense_level,
                    accumulate=k > 0,
                )

    _each_thread(runner, threads, work)


def dmav_cached(
    pkg: DDPackage,
    m: Edge | None,
    v: np.ndarray,
    threads: int = 1,
    runner: TaskRunner | None = None,
    dense_level: int = DENSE_BLOCK_LEVEL,
    out: np.ndarray | None = None,
    assignment: CacheAssignment | None = None,
    *,
    plans: list[GatePlan] | None = None,
    buffers: list[np.ndarray] | None = None,
    out_dirty: bool = True,
) -> tuple[np.ndarray, DMAVStats]:
    """DMAV with caching (Algorithm 2): returns (w, stats).

    Unplanned (the reference): ``assignment`` may be passed in when the
    caller already ran the cost model for this gate (it computes the
    same partition); partial buffers are fresh zeroed arrays and every
    one is summed over every output slice.

    Planned (``plans`` given; ``m`` and ``assignment`` are not read): the
    batches are laid out as in :func:`dmav_nocache`, every row follows
    row 0's task shape (:func:`repro.core.sweep.run_sweep` checks
    congruence), and ``buffers`` are ``(threads, rows, h)`` partials from
    a :class:`~repro.parallel.arena.BufferArena`.  They arrive dirty and
    are never pre-zeroed: each buffer tile is assigned by exactly one
    task, the summation reads only each output tile's ``writers``, and
    ``direct`` tasks (sole producers of their tile, never a hit source)
    write ``out`` in place.  ``out`` is likewise not pre-zeroed; tiles
    with no writer are filled only when ``out_dirty``.
    """
    if plans is not None:
        _check_batch(pkg, plans, v, out, threads)
        p0 = plans[0]
        if buffers is None or len(buffers) < p0.assignment.num_buffers:
            raise ValueError(
                f"{0 if buffers is None else len(buffers)} buffers passed, "
                f"plan needs {p0.assignment.num_buffers}"
            )
        _planned_cached(
            pkg, plans, v, out, buffers, runner, dense_level, out_dirty
        )
        stats = DMAVStats(
            threads=threads,
            tasks=p0.num_tasks,
            cache_hits=p0.cost.cache_hits,
            buffers=p0.assignment.num_buffers,
            used_cache=True,
        )
        return out, stats
    n = pkg.num_qubits
    if v.shape != (1 << n,):
        raise ValueError(f"state length {v.shape} != 2**{n}")
    if out is v:
        raise ValueError("DMAV cannot write its output over the input state")
    if assignment is None:
        assignment = assign_cache_tasks(pkg, m, threads)
    h = (1 << n) // threads
    buffers = [
        np.zeros(1 << n, dtype=np.complex128)
        for _ in range(assignment.num_buffers)
    ]
    hits = [0] * threads
    if out is None:
        w = np.zeros_like(v)
    else:
        w = out
        w.fill(0)

    def work(u: int) -> None:
        # Per-thread result cache: border node -> (coefficient, offset).
        cache: dict[int, tuple[complex, int]] = {}
        buf = buffers[assignment.buffer_of[u]] if assignment.tasks[u] else None
        for node, i_p, coeff in assignment.tasks[u]:
            hit = cache.get(id(node))
            if hit is not None:
                prev_coeff, prev_off = hit
                simd_mul_into(
                    buf[i_p:i_p + h],
                    buf[prev_off:prev_off + h],
                    coeff / prev_coeff,
                )
                hits[u] += 1
            else:
                _run_task(pkg, node, coeff, v, buf, u * h, i_p, dense_level)
                cache[id(node)] = (coeff, i_p)

    _each_thread(runner, threads, work)

    def sum_block(u: int) -> None:
        lo, hi = u * h, (u + 1) * h
        for buf in buffers:
            simd_add(w[lo:hi], buf[lo:hi])

    _each_thread(runner, threads, sum_block)
    stats = DMAVStats(
        threads=threads,
        tasks=sum(map(len, assignment.tasks)),
        cache_hits=sum(hits),
        buffers=assignment.num_buffers,
        used_cache=True,
    )
    return w, stats


def _planned_cached(pkg, plans, v3, w3, bufs, runner, dense_level, out_dirty):
    """Planned Algorithm 2 over a tile-major batch, one thread per column."""
    threads, _rows, h = v3.shape
    p0 = plans[0]
    a0 = p0.assignment
    blocks = _row_blocks(plans, v3, w3, *bufs)

    def work(u: int) -> None:
        if not a0.tasks[u]:
            return
        b = a0.buffer_of[u]
        flags = p0.direct[u]
        for block, vb, wb, *bb in blocks:
            vin = vb[u]
            buf = bb[b]
            tasks = [p.assignment.tasks[u] for p in block]
            seen: dict[int, int] = {}
            for k, row in enumerate(zip(*tasks)):
                nodes, offs, coeffs = zip(*row)
                dst = (wb if flags[k] else buf)[offs[0] // h]
                src = seen.get(id(nodes[0]))
                if src is not None:
                    # Divided per row in scalar arithmetic, as the
                    # reference does: vectorized complex division rounds
                    # differently.
                    ratios = [c / t[src][2] for c, t in zip(coeffs, tasks)]
                    simd_mul_into(
                        dst, buf[tasks[0][src][1] // h],
                        ratios[0] if len(ratios) == 1 else np.array(
                            ratios, dtype=np.complex128
                        )[:, None],
                    )
                    continue
                run_border_task_batch(
                    pkg, nodes, coeffs, vin, dst, dense_level,
                    accumulate=False,
                )
                if not flags[k]:
                    seen[id(nodes[0])] = k

    _each_thread(runner, threads, work)

    def sum_tile(u: int) -> None:
        ws = p0.writers[u]
        if not ws:
            # A direct task already wrote this tile in full.
            if out_dirty and not p0.direct_out[u]:
                w3[u].fill(0)
            return
        np.copyto(w3[u], bufs[ws[0]][u])
        for b in ws[1:]:
            simd_add(w3[u], bufs[b][u])

    _each_thread(runner, threads, sum_tile)
