"""Unit tests for DMAV (Algorithms 1 and 2) and its plan compiler."""

import math

import numpy as np
import pytest

from repro.backends.gatecache import build_gate_dd
from repro.circuits import Gate
from repro.common.config import DENSE_BLOCK_LEVEL
from repro.core.cost_model import CostModel, assign_cache_tasks
from repro.core.dmav import assign_tasks, dmav_cached, dmav_nocache
from repro.core.plan import PlanCache
from repro.dd import DDPackage, matrix_to_dense, single_qubit_gate
from repro.dd.matrix import controlled_gate
from repro.dd.node import TERMINAL
from repro.parallel.arena import BufferArena
from repro.parallel.partition import border_level
from repro.parallel.pool import TaskRunner
from repro.common.errors import ParallelError

from tests.conftest import random_state

H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def _random_gates(pkg, seed=0):
    """A spread of gate DDs covering 1q / controlled / low / high targets."""
    n = pkg.num_qubits
    gates = [
        Gate("h", (0,)),
        Gate("h", (n - 1,)),
        Gate("rz", (n // 2,), params=(0.7,)),
        Gate("cx", (0,), (n - 1,)),
        Gate("cx", (n - 1,), (0,)),
        Gate("swap", (0, n - 1)),
        Gate("ccx", (1,), (0, n - 1)) if n >= 3 else Gate("x", (0,)),
        Gate("cp", (n - 2,), (1,), params=(0.3,)) if n >= 3 else Gate("z", (0,)),
    ]
    return [build_gate_dd(pkg, g) for g in gates]


def _planned(fn, pkg, plans, v, threads, fill, **kw):
    """One planned call on the tile-major batch of the flat rows ``v``.

    ``v`` holds one state per row; the output batch starts filled with
    ``fill`` (a dirty recycled buffer).  Returns the ``(rows, 2**n)``
    result and the call's stats.
    """
    v = np.atleast_2d(v)
    rows, size = v.shape
    v3 = np.ascontiguousarray(v.reshape(rows, threads, -1).transpose(1, 0, 2))
    out = np.full(v3.shape, fill)
    w3, stats = fn(
        pkg, None, v3, threads, out=out, plans=plans, out_dirty=True, **kw
    )
    assert w3 is out
    return w3.transpose(1, 0, 2).reshape(rows, size), stats


class TestAssign:
    def test_border_level_definition(self):
        assert border_level(10, 4) == 10 - 2 - 1

    def test_single_thread_gets_root(self):
        pkg = DDPackage(4)
        m = single_qubit_gate(pkg, H, 2)
        tasks = assign_tasks(pkg, m, 1)
        assert len(tasks) == 1
        assert len(tasks[0]) == 1
        node, i_v, coeff = tasks[0][0]
        assert node is m.n and i_v == 0 and coeff == m.w

    def test_threads_split_row_space(self):
        pkg = DDPackage(4)
        m = pkg.identity_edge(3)
        tasks = assign_tasks(pkg, m, 4)
        # Identity: each thread gets exactly its diagonal block, reading
        # the matching V block.
        for u, thread_tasks in enumerate(tasks):
            assert len(thread_tasks) == 1
            _, i_v, _ = thread_tasks[0]
            assert i_v == u * 4

    def test_h_on_top_qubit_gives_two_tasks_per_thread(self):
        pkg = DDPackage(4)
        m = single_qubit_gate(pkg, H, 3)
        tasks = assign_tasks(pkg, m, 2)
        # H's 2x2 block at the root is dense: each thread (row block)
        # multiplies both column blocks.
        assert [len(t) for t in tasks] == [2, 2]

    def test_invalid_thread_count_rejected(self):
        pkg = DDPackage(4)
        m = single_qubit_gate(pkg, H, 0)
        with pytest.raises(ParallelError):
            assign_tasks(pkg, m, 3)
        with pytest.raises(ParallelError):
            assign_tasks(pkg, m, 32)


class TestDMAVNoCache:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_matches_dense_for_gate_suite(self, threads):
        n = 5
        pkg = DDPackage(n)
        v = random_state(n, seed=threads)
        for m in _random_gates(pkg):
            w, stats = dmav_nocache(pkg, m, v, threads)
            ref = matrix_to_dense(pkg, m) @ v
            np.testing.assert_allclose(w, ref, atol=1e-10)
            assert stats.threads == threads

    def test_out_buffer_reused_and_zeroed(self):
        pkg = DDPackage(4)
        v = random_state(4, seed=1)
        m = single_qubit_gate(pkg, H, 2)
        out = np.full(16, 99.0, dtype=complex)
        w, _ = dmav_nocache(pkg, m, v, 1, out=out)
        assert w is out
        np.testing.assert_allclose(w, matrix_to_dense(pkg, m) @ v, atol=1e-10)

    def test_aliased_output_rejected(self):
        pkg = DDPackage(3)
        v = random_state(3, seed=1)
        m = single_qubit_gate(pkg, H, 0)
        with pytest.raises(ValueError):
            dmav_nocache(pkg, m, v, 1, out=v)

    def test_wrong_state_length_rejected(self):
        pkg = DDPackage(4)
        m = single_qubit_gate(pkg, H, 0)
        with pytest.raises(ValueError):
            dmav_nocache(pkg, m, np.zeros(8, dtype=complex), 1)

    def test_thread_pool_execution(self):
        n = 5
        pkg = DDPackage(n)
        v = random_state(n, seed=5)
        m = controlled_gate(pkg, X, (0,), (4,))
        with TaskRunner(4, use_pool=True) as runner:
            w, _ = dmav_nocache(pkg, m, v, 4, runner=runner)
        np.testing.assert_allclose(w, matrix_to_dense(pkg, m) @ v, atol=1e-10)

    @pytest.mark.parametrize("dense_level", [-1, 0, 2, 8])
    def test_dense_level_sweep(self, dense_level):
        """Both algorithms, unplanned and planned, at every kernel depth.

        Low dense levels push the Run kernel's pass-through, Kronecker and
        generic branches into play; planned runs write dirty buffers and
        must match the unplanned reference bit for bit.
        """
        n = 5
        threads = 2
        pkg = DDPackage(n)
        plans = PlanCache(pkg, threads, CostModel(threads), dense_level)
        arena = BufferArena(1 << n, tiles=threads)
        v = random_state(n, seed=2)
        gates = [controlled_gate(pkg, H, (2,), (0, 4))] + _random_gates(pkg)
        for m in gates:
            ref = matrix_to_dense(pkg, m) @ v
            plan = plans.get(m)
            w, _ = dmav_nocache(pkg, m, v, threads, dense_level=dense_level)
            np.testing.assert_allclose(w, ref, atol=1e-10)
            planned, _ = _planned(
                dmav_nocache, pkg, [plan], v, threads, 99.0 + 9j,
                dense_level=dense_level,
            )
            assert np.array_equal(w, planned[0])
            wc, _ = dmav_cached(pkg, m, v, threads, dense_level=dense_level)
            np.testing.assert_allclose(wc, ref, atol=1e-10)
            planned_c, _ = _planned(
                dmav_cached, pkg, [plan], v, threads, -7.0 + 3j,
                dense_level=dense_level,
                buffers=arena.partials(plan.assignment.num_buffers),
            )
            assert np.array_equal(wc, planned_c[0])


class TestDMAVCached:
    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_matches_dense_for_gate_suite(self, threads):
        n = 5
        pkg = DDPackage(n)
        v = random_state(n, seed=threads + 10)
        for m in _random_gates(pkg):
            w, stats = dmav_cached(pkg, m, v, threads)
            ref = matrix_to_dense(pkg, m) @ v
            np.testing.assert_allclose(w, ref, atol=1e-10)
            assert stats.used_cache

    def test_cache_hits_on_shared_border_nodes(self):
        # H on the top qubit: both column tasks of a thread see the same
        # identity node below -> one real run + one scalar multiply.
        n = 5
        pkg = DDPackage(n)
        v = random_state(n, seed=3)
        m = single_qubit_gate(pkg, H, n - 1)
        w, stats = dmav_cached(pkg, m, v, 2)
        np.testing.assert_allclose(w, matrix_to_dense(pkg, m) @ v, atol=1e-10)
        assert stats.cache_hits >= 1

    def test_buffer_sharing_on_disjoint_outputs(self):
        # Identity-like gates produce non-overlapping partial outputs, so
        # threads share one buffer (Algorithm 2 lines 22-25).
        n = 5
        pkg = DDPackage(n)
        m = pkg.identity_edge(n - 1)
        assignment = assign_cache_tasks(pkg, m, 4)
        assert assignment.num_buffers == 1

    def test_dense_gate_needs_multiple_buffers(self):
        n = 5
        pkg = DDPackage(n)
        m = single_qubit_gate(pkg, H, n - 1)
        assignment = assign_cache_tasks(pkg, m, 2)
        # Both threads write both halves: outputs overlap, buffers split.
        assert assignment.num_buffers == 2

    def test_precomputed_assignment_reused(self):
        n = 4
        pkg = DDPackage(n)
        v = random_state(n, seed=4)
        m = single_qubit_gate(pkg, H, 1)
        assignment = assign_cache_tasks(pkg, m, 2)
        w, _ = dmav_cached(pkg, m, v, 2, assignment=assignment)
        np.testing.assert_allclose(w, matrix_to_dense(pkg, m) @ v, atol=1e-10)

    def test_cached_equals_uncached(self):
        n = 6
        pkg = DDPackage(n)
        v = random_state(n, seed=8)
        for m in _random_gates(pkg):
            w1, _ = dmav_nocache(pkg, m, v, 4)
            w2, _ = dmav_cached(pkg, m, v, 4)
            np.testing.assert_allclose(w1, w2, atol=1e-10)

    def test_thread_pool_execution(self):
        n = 5
        pkg = DDPackage(n)
        v = random_state(n, seed=6)
        m = single_qubit_gate(pkg, H, n - 1)
        with TaskRunner(4, use_pool=True) as runner:
            w, _ = dmav_cached(pkg, m, v, 4, runner=runner)
        np.testing.assert_allclose(w, matrix_to_dense(pkg, m) @ v, atol=1e-10)


def _plan_cache(pkg, threads):
    return PlanCache(pkg, threads, CostModel(threads), DENSE_BLOCK_LEVEL)


def _task_ids(rows):
    return [[(id(node), off, coeff) for node, off, coeff in row] for row in rows]


class TestGatePlan:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_plan_reproduces_legacy_partitions_exactly(self, threads):
        n = 5
        pkg = DDPackage(n)
        plans = _plan_cache(pkg, threads)
        for m in _random_gates(pkg):
            plan = plans.get(m)
            legacy_rows = assign_tasks(pkg, m, threads)
            legacy_cache = assign_cache_tasks(pkg, m, threads)
            # Same nodes, same offsets, bit-identical coefficients, same
            # per-thread order -- the plan is a cached transcript of the
            # legacy descents, not an approximation of them.
            assert _task_ids(plan.row_tasks) == _task_ids(legacy_rows)
            assert _task_ids(plan.assignment.tasks) == _task_ids(
                legacy_cache.tasks
            )
            assert plan.assignment.buffer_of == legacy_cache.buffer_of
            assert plan.assignment.num_buffers == legacy_cache.num_buffers

    @pytest.mark.parametrize("dense_level", [-1, 0, 5])
    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_every_task_spans_one_whole_tile(self, threads, dense_level):
        """The tileability invariant the planned executors index by.

        Every row and column task starts at a multiple of the chunk
        ``h = 2**n / t`` and spans exactly ``h``, so it is one whole tile
        of a ``(threads, rows, h)`` batch.  A task could only be terminal
        with ``h == 1``, which the thread-count rule (``t <= 2**(n-1)``)
        rules out.
        """
        for n in (4, 6):
            pkg = DDPackage(n)
            plans = PlanCache(pkg, threads, CostModel(threads), dense_level)
            h = (1 << n) // threads
            assert h >= 2
            for m in _random_gates(pkg):
                plan = plans.get(m)
                for tlist in plan.row_tasks + plan.assignment.tasks:
                    for node, off, _c in tlist:
                        assert node is not TERMINAL
                        assert off % h == 0
                        assert 2 << node.level == h

    def test_plan_cost_matches_cost_model(self):
        n = 5
        pkg = DDPackage(n)
        plans = _plan_cache(pkg, 4)
        fresh = CostModel(4)
        for m in _random_gates(pkg):
            assert plans.get(m).cost == fresh.evaluate(pkg, m)

    def test_repeated_root_served_from_plan_cache(self):
        pkg = DDPackage(5)
        plans = _plan_cache(pkg, 4)
        m = build_gate_dd(pkg, Gate("h", (0,)))
        first = plans.get(m)
        again = plans.get(m)
        assert again is first
        assert plans.compiles == 1
        assert plans.gate_hits == 1
        # A whole-plan hit is task-weighted: all of the plan's tasks count
        # as served from cache.
        assert plans.hits >= first.num_tasks

    def test_structural_memo_shares_across_distinct_roots(self):
        # h(0) and rz(0) differ at the bottom level but share the
        # identity structure above it, so the second compile is mostly
        # memo hits even though its root was never seen.
        pkg = DDPackage(6)
        plans = _plan_cache(pkg, 4)
        plans.get(build_gate_dd(pkg, Gate("h", (0,))))
        before = plans.hits
        plans.get(build_gate_dd(pkg, Gate("rz", (0,), params=(0.7,))))
        assert plans.compiles == 2
        assert plans.hits > before

    def test_gc_epoch_invalidates_plans(self):
        pkg = DDPackage(5)
        plans = _plan_cache(pkg, 2)
        m = build_gate_dd(pkg, Gate("h", (0,)))
        plans.get(m)
        assert len(plans) == 1
        pkg.collect_garbage([m])
        # Same (still-live) root: the epoch bump must drop the cache and
        # force a recompile, because GC may have swept nodes whose ids the
        # memo keys by.
        plan = plans.get(m)
        assert plans.invalidations == 1
        assert plans.compiles == 2
        assert _task_ids(plan.row_tasks) == _task_ids(
            assign_tasks(pkg, m, 2)
        )

    def test_writers_cover_exactly_the_written_slices(self):
        n = 5
        threads = 4
        pkg = DDPackage(n)
        plans = _plan_cache(pkg, threads)
        h = (1 << n) // threads
        for m in _random_gates(pkg):
            plan = plans.get(m)
            expected = [set() for _ in range(threads)]
            direct_expected = [False] * threads
            for u, tasks in enumerate(plan.assignment.tasks):
                for (_, i_p, _), is_direct in zip(tasks, plan.direct[u]):
                    if is_direct:
                        direct_expected[i_p // h] = True
                    else:
                        expected[i_p // h].add(
                            plan.assignment.buffer_of[u]
                        )
            assert [sorted(ws) for ws in expected] == plan.writers
            assert direct_expected == plan.direct_out
            # Each output slice is produced exactly one way: direct tasks
            # imply no buffered writers for the same slice.
            for k in range(threads):
                if plan.direct_out[k]:
                    assert plan.writers[k] == []

    def test_direct_tasks_are_sole_writers_and_never_hit_sources(self):
        n = 5
        threads = 4
        pkg = DDPackage(n)
        plans = _plan_cache(pkg, threads)
        h = (1 << n) // threads
        saw_direct = False
        for m in _random_gates(pkg):
            plan = plans.get(m)
            slice_tasks = [0] * threads
            for tasks in plan.assignment.tasks:
                for _, i_p, _ in tasks:
                    slice_tasks[i_p // h] += 1
            for u, tasks in enumerate(plan.assignment.tasks):
                seen = set()
                for i, ((node, i_p, _), is_direct) in enumerate(
                    zip(tasks, plan.direct[u])
                ):
                    if is_direct:
                        saw_direct = True
                        assert slice_tasks[i_p // h] == 1
                        if id(node) not in seen:
                            # A direct miss must not be a hit source: no
                            # later task in this thread shares its node.
                            assert not any(
                                id(node2) == id(node)
                                for node2, _, _ in tasks[i + 1:]
                            )
                    seen.add(id(node))
        assert saw_direct


class TestPlannedExecution:
    """The planned batch executor must be bit-identical to the reference."""

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_planned_nocache_bit_identical(self, threads):
        n = 5
        pkg = DDPackage(n)
        plans = _plan_cache(pkg, threads)
        v = random_state(n, seed=threads)
        for m in _random_gates(pkg):
            legacy, _ = dmav_nocache(pkg, m, v, threads)
            planned, _ = _planned(
                dmav_nocache, pkg, [plans.get(m)], v, threads, 99.0 + 9j
            )
            assert np.array_equal(legacy, planned[0])

    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_planned_cached_bit_identical(self, threads):
        n = 5
        pkg = DDPackage(n)
        plans = _plan_cache(pkg, threads)
        arena = BufferArena(1 << n, tiles=threads)
        v = random_state(n, seed=threads + 20)
        for m in _random_gates(pkg):
            plan = plans.get(m)
            legacy, s1 = dmav_cached(pkg, m, v, threads)
            planned, s2 = _planned(
                dmav_cached, pkg, [plan], v, threads, -7.0 + 3j,
                buffers=arena.partials(plan.assignment.num_buffers),
            )
            assert np.array_equal(legacy, planned[0])
            assert s1.cache_hits == s2.cache_hits

    @pytest.mark.parametrize("fn", [dmav_nocache, dmav_cached])
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_batch_rows_match_their_own_runs(self, fn, threads):
        """Rows with their own plans (different rz angles) in one batch,
        on the thread pool: each row equals its own unplanned run."""
        n = 5
        pkg = DDPackage(n)
        plans = _plan_cache(pkg, threads)
        rows = [0.3, -1.2, 2.5]
        gates = [
            build_gate_dd(pkg, Gate("rz", (1,), params=(a,))) for a in rows
        ]
        v = np.stack([random_state(n, seed=s) for s in range(len(rows))])
        arena = BufferArena(1 << n, tiles=threads, rows=len(rows))
        row_plans = [plans.get(m) for m in gates]
        kw = {}
        if fn is dmav_cached:
            kw["buffers"] = arena.partials(
                row_plans[0].assignment.num_buffers
            )
        with TaskRunner(threads, use_pool=True) as runner:
            batch, _ = _planned(
                fn, pkg, row_plans, v, threads, 5.0 - 5j, runner=runner, **kw
            )
        for r, m in enumerate(gates):
            ref, _ = fn(pkg, m, v[r], threads)
            assert np.array_equal(batch[r], ref)

    def test_dirty_buffers_never_leak_into_output(self):
        # Poison the arena pool, then run a gate whose writer lists leave
        # some buffer tiles untouched: the result must still match.
        n = 5
        threads = 4
        pkg = DDPackage(n)
        plans = _plan_cache(pkg, threads)
        arena = BufferArena(1 << n, tiles=threads)
        for buf in arena.partials(threads):
            buf.fill(1e9 + 1e9j)
        v = random_state(n, seed=13)
        m = build_gate_dd(pkg, Gate("cx", (0,), (n - 1,)))
        plan = plans.get(m)
        w, _ = _planned(
            dmav_cached, pkg, [plan], v, threads, 1e9 + 0j,
            buffers=arena.partials(plan.assignment.num_buffers),
        )
        np.testing.assert_allclose(
            w[0], matrix_to_dense(pkg, m) @ v, atol=1e-10
        )

    def test_planned_cached_rejects_short_buffer_list(self):
        pkg = DDPackage(4)
        plans = _plan_cache(pkg, 2)
        v = random_state(4, seed=2)
        m = single_qubit_gate(pkg, H, 3)
        plan = plans.get(m)
        assert plan.assignment.num_buffers == 2
        with pytest.raises(ValueError):
            _planned(
                dmav_cached, pkg, [plan], v, 2, 0j,
                buffers=[np.zeros((2, 1, 8), dtype=np.complex128)],
            )

    def test_planned_rejects_mismatched_batches(self):
        pkg = DDPackage(4)
        plan = _plan_cache(pkg, 2).get(single_qubit_gate(pkg, H, 0))
        v3 = random_state(4, seed=3).reshape(2, 1, 8)
        with pytest.raises(ValueError, match="input batch"):
            dmav_nocache(
                pkg, None, v3, 2, out=np.empty_like(v3), plans=[plan, plan]
            )
        with pytest.raises(ValueError, match="output batch"):
            dmav_nocache(pkg, None, v3, 2, plans=[plan])
        with pytest.raises(ValueError, match="over the input"):
            dmav_nocache(pkg, None, v3, 2, out=v3, plans=[plan])


class TestBufferArena:
    def test_output_allocated_once_then_recycled(self):
        arena = BufferArena(8, tiles=2)
        first, dirty = arena.output()
        assert not dirty
        assert first.shape == (2, 1, 4)
        assert np.all(first == 0)
        consumed = np.arange(8, dtype=np.complex128).reshape(2, 1, 4)
        arena.retire(consumed)
        second, dirty = arena.output()
        assert dirty
        assert second is consumed
        assert arena.output_allocs == 1

    def test_buffers_are_tile_major(self):
        arena = BufferArena(16, tiles=4, rows=3)
        out, _ = arena.output()
        assert out.shape == (4, 3, 4)
        assert [b.shape for b in arena.partials(2)] == [(4, 3, 4)] * 2
        # One row is the flat state's own layout: a view, not a copy.
        state = np.arange(16, dtype=np.complex128)
        one = BufferArena(16, tiles=4)
        view = state.reshape(one.output()[0].shape)
        assert np.shares_memory(view, state)
        one.retire(view)

    def test_retire_validates_shape(self):
        arena = BufferArena(8)
        with pytest.raises(ValueError):
            arena.retire(np.zeros(4, dtype=np.complex128))
        with pytest.raises(ValueError):
            arena.retire(np.zeros(8, dtype=np.complex128))

    def test_partial_pool_grows_once_then_reuses(self):
        arena = BufferArena(8, tiles=2)
        first = arena.partials(2)
        assert arena.partial_allocs == 2 and arena.partial_reuses == 0
        again = arena.partials(2)
        assert [b is a for a, b in zip(first, again)] == [True, True]
        assert arena.partial_allocs == 2 and arena.partial_reuses == 2
        arena.partials(3)
        assert arena.partial_allocs == 3 and arena.partial_reuses == 4
        assert arena.partial_bytes == 3 * 8 * 16

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            BufferArena(0)
        with pytest.raises(ValueError):
            BufferArena(8, tiles=3)
        with pytest.raises(ValueError):
            BufferArena(8, rows=0)


class TestGateSequences:
    def test_multi_gate_evolution_matches_reference(self):
        from repro.backends import StatevectorSimulator
        from repro.circuits import Circuit

        n = 5
        c = Circuit(n)
        c.h(0).cx(0, 1).rz(0.4, 2).swap(1, 3).ccx(0, 1, 4).h(4)
        ref = StatevectorSimulator().run(c).state

        pkg = DDPackage(n)
        v = np.zeros(1 << n, dtype=complex)
        v[0] = 1
        for gate in c.gates:
            m = build_gate_dd(pkg, gate)
            v, _ = dmav_cached(pkg, m, v, 2)
        np.testing.assert_allclose(v, ref, atol=1e-9)
