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
row.  DMAV calls it with one row; :mod:`repro.core.sweep` calls it with
one row per parameter point.  A sweep row's state is therefore
bit-identical to its own ``run()`` by construction: rows that disagree
structurally are replayed through the same kernel one row at a time.

The ``Run`` recursion bottoms out on vectorized kernels (identity
subtrees, Kronecker collapses and cached dense blocks) instead of scalar
MACs -- see DESIGN.md substitution 2; MAC counts for the cost model are
unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.config import DENSE_BLOCK_LEVEL
from repro.dd.analysis import dense_matrix_block, is_identity, kron_collapse
from repro.dd.node import TERMINAL, DDNode, Edge
from repro.dd.package import DDPackage
from repro.core.cost_model import CacheAssignment, assign_cache_tasks
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
    nodes: list[DDNode],
    coeffs,
    vin: np.ndarray,
    wout: np.ndarray,
    dense_level: int = DENSE_BLOCK_LEVEL,
    accumulate: bool = True,
) -> None:
    """Algorithm 1's Run: ``wout[b] (+)= coeffs[b] * M_b vin[b]`` per row.

    ``vin``/``wout`` are the task's input and output column ranges as
    ``(rows, size)`` views (``(rows, 1)`` for terminal tasks) and
    ``nodes[b]`` is row ``b``'s border sub-matrix.  DMAV calls this with
    one row; :mod:`repro.core.sweep` calls it with one row per sweep point,
    slicing the views out of tile-major batch buffers so that
    chunk-aligned tasks arrive C-contiguous and need no gather copy.  All
    rows' nodes must be terminal together or not.  The scalar-MAC
    recursion of the paper's C++ is replaced by the vectorized lockstep
    kernel (DESIGN.md substitution 2), so a sweep row reproduces its own
    one-row call bit for bit.  Terminal tasks touch single elements and
    stay scalar Python complex arithmetic.

    With ``accumulate=False`` the block is *assigned* instead of
    accumulated, which lets planned runs write into recycled (dirty,
    never-zeroed) buffers; the values only differ from ``0 + x`` in
    signed zeros.
    """
    if nodes[0] is TERMINAL:
        if accumulate:
            for b, c in enumerate(coeffs):
                wout[b, 0] += c * vin[b, 0]
        else:
            for b, c in enumerate(coeffs):
                wout[b, 0] = c * vin[b, 0]
        return
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
    accumulate: bool = True,
) -> None:
    """One border task of a single state: the one-row Run."""
    size = 1 if node is TERMINAL else 2 << node.level
    run_border_task_batch(
        pkg, [node], [coeff], v[None, i_v:i_v + size],
        w[None, i_w:i_w + size], dense_level, accumulate,
    )


def dmav_nocache(
    pkg: DDPackage,
    m: Edge,
    v: np.ndarray,
    threads: int = 1,
    runner: TaskRunner | None = None,
    dense_level: int = DENSE_BLOCK_LEVEL,
    out: np.ndarray | None = None,
    *,
    tasks: list[list[tuple[DDNode, int, complex]]] | None = None,
    out_dirty: bool = True,
) -> tuple[np.ndarray, DMAVStats]:
    """DMAV without caching (Algorithm 1): returns (w, stats).

    ``tasks`` may be passed from a compiled :class:`~repro.core.plan.GatePlan`
    (``row_tasks``) to skip the per-call Assign descent.  In that *planned*
    mode ``out`` is not pre-zeroed: each thread's first task assigns its
    output slice and the rest accumulate, so a dirty recycled buffer only
    needs filling (governed by ``out_dirty``) for threads with no tasks.
    """
    n = pkg.num_qubits
    if v.shape != (1 << n,):
        raise ValueError(f"state length {v.shape} != 2**{n}")
    if out is v:
        raise ValueError("DMAV cannot write its output over the input state")
    planned = tasks is not None
    w = out if out is not None else np.zeros_like(v)
    if out is not None and not planned:
        w.fill(0)
    if tasks is None:
        tasks = assign_tasks(pkg, m, threads)
    h = (1 << n) // threads

    def work(u: int) -> None:
        if planned and not tasks[u]:
            if out_dirty:
                w[u * h:(u + 1) * h].fill(0)
            return
        # Planned: each thread's first task assigns its slice.
        first = planned
        for node, i_v, coeff in tasks[u]:
            if first and node is TERMINAL:
                # A terminal border task writes a single element, not
                # the whole slice -- fall back to zero-fill + add.
                w[u * h:(u + 1) * h].fill(0)
                first = False
            _run_task(
                pkg, node, coeff, v, w, i_v, u * h, dense_level,
                accumulate=not first,
            )
            first = False

    if runner is not None and runner.use_pool:
        runner.run([lambda u=u: work(u) for u in range(threads)])
    else:
        for u in range(threads):
            work(u)
    stats = DMAVStats(threads=threads, tasks=sum(map(len, tasks)))
    return w, stats


def dmav_cached(
    pkg: DDPackage,
    m: Edge,
    v: np.ndarray,
    threads: int = 1,
    runner: TaskRunner | None = None,
    dense_level: int = DENSE_BLOCK_LEVEL,
    out: np.ndarray | None = None,
    assignment: CacheAssignment | None = None,
    *,
    buffers: list[np.ndarray] | None = None,
    writers: list[list[int]] | None = None,
    out_dirty: bool = True,
    direct: list[list[bool]] | None = None,
    direct_out: list[bool] | None = None,
) -> tuple[np.ndarray, DMAVStats]:
    """DMAV with caching (Algorithm 2): returns (w, stats).

    ``assignment`` may be passed in when the caller already ran the cost
    model for this gate (it computes the same partition).

    ``buffers``/``writers`` (from a :class:`~repro.parallel.arena.BufferArena`
    and a compiled :class:`~repro.core.plan.GatePlan`) switch on *planned*
    mode: partial buffers arrive dirty and are never pre-zeroed -- each
    buffer slice is written (assigned) by exactly one task, and the
    summation reads only each output slice's writer list instead of
    scanning every buffer.  ``out`` is likewise not pre-zeroed; writerless
    slices are filled only when ``out_dirty``.

    ``direct``/``direct_out`` (also plan-compiled) flag tasks that are the
    sole producer of their output slice and never feed a later cache hit:
    they write W in place and the summation skips their slice.
    """
    n = pkg.num_qubits
    if v.shape != (1 << n,):
        raise ValueError(f"state length {v.shape} != 2**{n}")
    if out is v:
        raise ValueError("DMAV cannot write its output over the input state")
    if assignment is None:
        assignment = assign_cache_tasks(pkg, m, threads)
    planned = buffers is not None
    if planned and writers is None:
        raise ValueError("planned dmav_cached requires writer lists")
    if planned and len(buffers) < assignment.num_buffers:
        raise ValueError(
            f"{len(buffers)} buffers passed, assignment needs "
            f"{assignment.num_buffers}"
        )
    h = (1 << n) // threads
    if buffers is None:
        buffers = [
            np.zeros(1 << n, dtype=np.complex128)
            for _ in range(assignment.num_buffers)
        ]
    hits = [0] * threads
    w = out if out is not None else np.zeros_like(v)
    if out is not None and not planned:
        w.fill(0)

    def work(u: int) -> None:
        # Per-thread result cache: border node -> (coefficient, offset).
        cache: dict[int, tuple[complex, int]] = {}
        buf = buffers[assignment.buffer_of[u]] if assignment.tasks[u] else None
        flags = direct[u] if direct is not None else None
        for i, (node, i_p, coeff) in enumerate(assignment.tasks[u]):
            to_w = flags is not None and flags[i]
            hit = cache.get(id(node))
            if hit is not None:
                prev_coeff, prev_off = hit
                dst = w if to_w else buf
                simd_mul_into(
                    dst[i_p:i_p + h],
                    buf[prev_off:prev_off + h],
                    coeff / prev_coeff,
                )
                hits[u] += 1
            elif to_w:
                # Sole producer of output slice i_p // h, never a hit
                # source: write W in place; sum_block skips this slice.
                _run_task(
                    pkg, node, coeff, v, w, u * h, i_p, dense_level,
                    accumulate=False,
                )
            else:
                if planned and node is TERMINAL:
                    # Terminal border tasks write one element, not the
                    # whole slice -- zero it so stale data can't leak.
                    buf[i_p:i_p + h].fill(0)
                _run_task(
                    pkg, node, coeff, v, buf, u * h, i_p, dense_level,
                    accumulate=not planned or node is TERMINAL,
                )
                cache[id(node)] = (coeff, i_p)

    if runner is not None and runner.use_pool:
        runner.run([lambda u=u: work(u) for u in range(threads)])
    else:
        for u in range(threads):
            work(u)

    def sum_block(u: int) -> None:
        lo, hi = u * h, (u + 1) * h
        if not planned:
            for buf in buffers:
                simd_add(w[lo:hi], buf[lo:hi])
            return
        ws = writers[u]
        if not ws:
            if direct_out is not None and direct_out[u]:
                return  # a direct task already wrote this slice in full
            if out_dirty:
                w[lo:hi].fill(0)
            return
        np.copyto(w[lo:hi], buffers[ws[0]][lo:hi])
        for b in ws[1:]:
            simd_add(w[lo:hi], buffers[b][lo:hi])

    if runner is not None and runner.use_pool:
        runner.run([lambda u=u: sum_block(u) for u in range(threads)])
    else:
        for u in range(threads):
            sum_block(u)
    stats = DMAVStats(
        threads=threads,
        tasks=sum(map(len, assignment.tasks)),
        cache_hits=sum(hits),
        buffers=assignment.num_buffers,
        used_cache=True,
    )
    return w, stats
