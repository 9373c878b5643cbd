"""End-to-end serving tests, including the PR's acceptance scenario.

The acceptance criterion: a 100-job batch manifest with 50% duplicate
circuits completes via ``repro serve`` with >= 40% cache hit rate, zero
pool crashes under one planted faulty job, and per-job results
bit-identical to single-shot ``repro simulate``.
"""

import json

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.cli import main
from repro.common.config import FlatDDConfig, ServeConfig
from repro.core import FlatDDSimulator
from repro.serve import (
    Job,
    JobState,
    SimulationService,
    clamp_threads,
    load_manifest,
    run_manifest,
)
from repro.verify.fuzz import plant_fault

pytestmark = pytest.mark.serve

FAST_RETRY = dict(retry_base_delay=0.0, retry_max_delay=0.0)


def _write_manifest(path, entries):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# generated by test_serve_service\n")
        for entry in entries:
            fh.write(json.dumps(entry) + "\n")
    return str(path)


def _duplicate_heavy_manifest(path, unique=50, repeat=2, qubits=5, gates=16):
    """``unique * repeat`` jobs where every circuit appears ``repeat`` times."""
    return _write_manifest(
        path,
        [
            {
                "family": "random",
                "qubits": qubits,
                "kwargs": {"gates": gates},
                "seed": s,
                "repeat": repeat,
                "job_id": f"rand-{s}",
            }
            for s in range(unique)
        ],
    )


class TestAcceptance:
    def test_hundred_job_manifest_with_planted_fault(self, tmp_path):
        manifest = _duplicate_heavy_manifest(tmp_path / "batch.jsonl")
        cfg = ServeConfig(threads=2, max_retries=2, **FAST_RETRY)
        with plant_fault("transient-crash"):
            report, jobs = run_manifest(manifest, config=cfg)

        assert report.jobs == 100
        assert report.states == {"DONE": 100}
        assert report.internal_errors == 0  # zero pool crashes
        assert report.retries >= 1  # the planted fault actually fired
        assert report.cache["hit_rate"] >= 0.40
        assert report.deduped_jobs == 50
        assert report.ok

        # Per-job results bit-identical to a single-shot simulation with
        # the same effective configuration.
        for job in jobs[:6] + jobs[-2:]:
            threads = clamp_threads(cfg.threads, job.circuit.num_qubits)
            solo = FlatDDSimulator(config=FlatDDConfig(threads=threads))
            expected = solo.run(job.circuit).state
            assert np.array_equal(job.result.state, expected)

    def test_duplicates_share_one_simulation(self, tmp_path):
        manifest = _duplicate_heavy_manifest(
            tmp_path / "dups.jsonl", unique=4, repeat=5
        )
        report, jobs = run_manifest(
            manifest, config=ServeConfig(threads=2, **FAST_RETRY)
        )
        assert report.jobs == 20
        assert report.cache["misses"] == 4
        assert report.cache["hits"] == 16
        by_seed = {}
        for job in jobs:
            key = job.circuit.fingerprint()
            if key in by_seed:
                assert np.array_equal(job.result.state, by_seed[key])
            else:
                by_seed[key] = job.result.state


class TestService:
    def test_submit_poll_result_roundtrip(self):
        with SimulationService(threads=2, **FAST_RETRY) as svc:
            job_id = svc.submit(get_circuit("ghz", 6), shots=200)
            assert svc.poll(job_id).state is JobState.PENDING
            report = svc.drain()
            assert report.states == {"DONE": 1}
            result = svc.result(job_id)
            assert result.counts is not None
            assert sum(result.counts.values()) == 200
            assert set(result.counts) <= {"000000", "111111"}

    def test_sampling_is_seeded_and_per_job(self):
        with SimulationService(threads=2, **FAST_RETRY) as svc:
            c = get_circuit("random", 5, gates=20, seed=3)
            a = svc.submit(c, shots=500, sample_seed=7)
            b = svc.submit(c, shots=500, sample_seed=7)
            d = svc.submit(c, shots=500, sample_seed=8)
            svc.drain()
            assert svc.result(a).counts == svc.result(b).counts
            assert svc.result(a).counts != svc.result(d).counts
            # b was a cache hit yet still sampled its own counts.
            assert svc.result(b).cache_hit

    def test_cancel_before_drain(self):
        with SimulationService(threads=2, **FAST_RETRY) as svc:
            keep = svc.submit(get_circuit("ghz", 5))
            drop = svc.submit(get_circuit("qft", 5))
            assert svc.cancel(drop)
            report = svc.drain()
            assert report.states == {"DONE": 1, "CANCELLED": 1}
            assert svc.poll(keep).state is JobState.DONE
            assert svc.poll(drop).state is JobState.CANCELLED
            # The cancelled job is not re-reported by a later drain.
            svc.submit(get_circuit("ghz", 5))
            assert svc.drain().states == {"DONE": 1}

    def test_result_raises_until_done(self):
        from repro.common.errors import ServeError

        with SimulationService(threads=2, **FAST_RETRY) as svc:
            job_id = svc.submit(get_circuit("ghz", 5))
            with pytest.raises(ServeError, match="PENDING"):
                svc.result(job_id)
            with pytest.raises(ServeError, match="unknown job id"):
                svc.poll("missing")

    def test_rejections_surface_in_report_not_exceptions(self, tmp_path):
        manifest = _write_manifest(
            tmp_path / "mixed.jsonl",
            [
                {"family": "ghz", "qubits": 5, "repeat": 3},
                {"family": "ghz", "qubits": 9},  # over max_qubits below
            ],
        )
        report, _jobs = run_manifest(
            manifest,
            config=ServeConfig(threads=2, max_qubits=6, **FAST_RETRY),
        )
        assert report.states == {"DONE": 3}
        assert report.admission["too_many_qubits"] == 1
        assert report.ok  # rejected-at-admission is not a failed job

    def test_obs_snapshot_exposes_cache_counters(self):
        with SimulationService(threads=2, **FAST_RETRY) as svc:
            c = get_circuit("ghz", 5)
            svc.submit(c)
            svc.submit(c)
            svc.drain()
            snap = svc.obs_snapshot()
            assert snap["counters"]["serve.jobs.submitted"] == 2
            assert snap["counters"]["serve.jobs.cache_hits"] == 1
            assert snap["counters"]["serve.cache.entries"] == 1


class TestLatency:
    def test_batch_report_has_all_three_histograms(self):
        jobs = 6
        with SimulationService(threads=2, **FAST_RETRY) as svc:
            for s in range(jobs):
                svc.submit(get_circuit("random", 5, gates=12, seed=s))
            report = svc.drain()
        assert report.latency is not None
        for metric in ("queue_wait", "run", "e2e"):
            stats = report.latency[metric]
            assert stats["count"] == jobs, metric
            for key in ("p50", "p90", "p99", "mean"):
                assert stats[key] is not None and stats[key] >= 0.0, key
        # e2e covers queue wait plus run, so its mean dominates both.
        assert report.latency["e2e"]["mean"] >= report.latency["run"]["mean"]
        assert (
            report.latency["e2e"]["mean"]
            >= report.latency["queue_wait"]["mean"]
        )

    def test_latency_split_per_priority_tier(self):
        with SimulationService(threads=2, **FAST_RETRY) as svc:
            svc.submit(get_circuit("ghz", 5), priority=0)
            svc.submit(get_circuit("qft", 5), priority=2)
            report = svc.drain()
        tiers = report.latency["tiers"]
        assert set(tiers) == {"0", "2"}
        assert tiers["0"]["e2e"]["count"] == 1
        assert tiers["2"]["e2e"]["count"] == 1

    def test_cancelled_jobs_excluded_from_latency(self):
        with SimulationService(threads=2, **FAST_RETRY) as svc:
            svc.submit(get_circuit("ghz", 5))
            dropped = svc.submit(get_circuit("qft", 5))
            svc.cancel(dropped)
            report = svc.drain()
        assert report.states == {"DONE": 1, "CANCELLED": 1}
        assert report.latency["e2e"]["count"] == 1

    def test_latency_in_text_json_and_job_rows(self, tmp_path, capsys):
        manifest = _duplicate_heavy_manifest(
            tmp_path / "lat.jsonl", unique=2, repeat=2
        )
        assert main(["serve", manifest, "--threads", "2"]) == 0
        text = capsys.readouterr().out
        for metric in ("queue_wait", "run", "e2e"):
            assert f"latency {metric}:" in text, metric
        assert "p50=" in text and "p99=" in text

        assert main(["serve", manifest, "--threads", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["latency"]["e2e"]["count"] == 4
        for row in payload["job_rows"]:
            lat = row["latency"]
            assert lat["e2e"] >= lat["run"] >= 0.0
            assert lat["submitted_at"] > 1e9

    def test_trace_shows_connected_span_tree_per_job(self):
        from repro.obs import Tracer, chrome_trace_events
        from repro.serve.trace import JOB_TRACK_BASE

        tracer = Tracer()
        jobs = 3
        with SimulationService(
            ServeConfig(threads=2, **FAST_RETRY), tracer=tracer
        ) as svc:
            ids = [
                svc.submit(get_circuit("random", 5, gates=10, seed=s))
                for s in range(jobs)
            ]
            svc.drain()
        by_track = {}
        for span in tracer.spans:
            if span.category == "job":
                by_track.setdefault(span.thread_id, []).append(span)
        assert len(by_track) == jobs
        assert all(tid >= JOB_TRACK_BASE for tid in by_track)
        roots = {
            s.name
            for spans in by_track.values()
            for s in spans
            if s.name.startswith("job ")
        }
        assert roots == {f"job {job_id}" for job_id in ids}
        for spans in by_track.values():
            names = {s.name for s in spans}
            assert {"queue_wait", "run"} <= names
            root = next(s for s in spans if s.name.startswith("job "))
            children = [s for s in spans if not s.name.startswith("job ")]
            # Children nest inside the root interval: one connected tree.
            for child in children:
                assert child.start >= root.start - 1e-9
                assert child.end <= root.end + 1e-9
        # And the Chrome exporter keeps the per-job tracks distinct.
        tids = {
            e["tid"]
            for e in chrome_trace_events(tracer)
            if e.get("ph") == "X" and e["name"].startswith("job ")
        }
        assert len(tids) == jobs


class TestManifest:
    def test_load_manifest_validates(self, tmp_path):
        from repro.common.errors import ServeError

        bad = _write_manifest(
            tmp_path / "bad.jsonl", [{"family": "ghz", "qubits": 5, "zap": 1}]
        )
        with pytest.raises(ServeError, match="unknown manifest key"):
            load_manifest(bad)
        retired = _write_manifest(
            tmp_path / "retired.jsonl",
            [{"family": "ghz", "qubits": 5, "identity_skip": False}],
        )
        with pytest.raises(ServeError, match="unknown manifest key"):
            load_manifest(retired)
        unparsable = tmp_path / "nojson.jsonl"
        unparsable.write_text("{not json\n")
        with pytest.raises(ServeError, match="invalid JSON"):
            load_manifest(str(unparsable))

    def test_qasm_sources_resolve_relative_to_manifest(self, tmp_path):
        (tmp_path / "bell.qasm").write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
            "qreg q[2];\nh q[0];\ncx q[0],q[1];\n"
        )
        manifest = _write_manifest(
            tmp_path / "qasm.jsonl",
            [
                {"qasm_file": "bell.qasm"},
                {
                    "qasm": (
                        'OPENQASM 2.0; include "qelib1.inc"; '
                        "qreg q[2]; h q[0]; cx q[0],q[1];"
                    )
                },
            ],
        )
        report, jobs = run_manifest(
            manifest, config=ServeConfig(threads=2, **FAST_RETRY)
        )
        assert report.states == {"DONE": 2}
        # Same circuit through two spellings: one miss, one hit.
        assert report.cache["hits"] == 1
        assert np.array_equal(jobs[0].result.state, jobs[1].result.state)

    def test_sweep_entries_run_as_batched_jobs(self, tmp_path):
        qasm = (
            'OPENQASM 2.0; include "qelib1.inc"; qreg q[2]; '
            "h q[0]; h q[1]; ry(0) q[0]; ry(0) q[1];"
        )
        rows = [[0.1, 0.2], [0.3, 0.4], [0.1, 0.2]]
        manifest = _write_manifest(
            tmp_path / "sweep.jsonl",
            [{"qasm": qasm, "param_sets": rows, "job_id": "sweep-1"}],
        )
        report, jobs = run_manifest(
            manifest, config=ServeConfig(threads=2, **FAST_RETRY)
        )
        assert report.states == {"DONE": 1}
        result = jobs[0].result
        assert result.state.shape == (3, 4)
        assert result.metadata["rows"] == 3
        assert jobs[0].summary()["sweep_rows"] == 3
        # Duplicate rows fan out bit-identically.
        assert np.array_equal(result.state[0], result.state[2])
        # Each row matches its single-shot simulation.
        from repro.circuits import parse_qasm

        c = parse_qasm(qasm)
        sim = FlatDDSimulator(threads=clamp_threads(2, c.num_qubits))
        for i, row in enumerate(rows):
            ref = sim.run(c.bind(tuple(row))).state
            assert np.array_equal(result.state[i], ref)

    def test_sweep_entry_row_validation(self, tmp_path):
        from repro.common.errors import ServeError

        manifest = _write_manifest(
            tmp_path / "badsweep.jsonl",
            [{"family": "ghz", "qubits": 4, "param_sets": "nope"}],
        )
        with pytest.raises(ServeError, match="param_sets"):
            run_manifest(manifest, config=ServeConfig(threads=2))


class TestCLI:
    def test_serve_subcommand_smoke(self, tmp_path, capsys):
        manifest = _duplicate_heavy_manifest(
            tmp_path / "cli.jsonl", unique=3, repeat=3
        )
        code = main(["serve", manifest, "--threads", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "9 job(s)" in out
        assert "hit_rate=66.7%" in out

    def test_serve_json_output(self, tmp_path, capsys):
        manifest = _duplicate_heavy_manifest(
            tmp_path / "clijson.jsonl", unique=2, repeat=2
        )
        code = main(["serve", manifest, "--threads", "2", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] and payload["jobs"] == 4
        assert payload["cache"]["hits"] == 2
        assert len(payload["job_rows"]) == 4

    def test_serve_exit_code_reflects_failures(self, tmp_path, capsys):
        manifest = _duplicate_heavy_manifest(
            tmp_path / "clifail.jsonl", unique=2, repeat=1
        )
        code = main(
            ["serve", manifest, "--threads", "2",
             "--plant-bug", "permanent-crash", "--max-retries", "0"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "failed=2" in out
        assert "FAILED" in out


@pytest.mark.slow
class TestStress:
    def test_large_manifest_under_tight_cache(self, tmp_path):
        # 240 jobs, 80 unique circuits, but only 16 cache slots: the
        # service must stay correct while evicting constantly.
        manifest = _duplicate_heavy_manifest(
            tmp_path / "stress.jsonl", unique=80, repeat=3, qubits=6, gates=24
        )
        cfg = ServeConfig(
            threads=2, cache_max_entries=16, max_retries=2, **FAST_RETRY
        )
        with plant_fault("transient-crash"):
            report, jobs = run_manifest(manifest, config=cfg)
        assert report.jobs == 240
        assert report.states == {"DONE": 240}
        assert report.internal_errors == 0
        assert report.cache["evictions"] > 0
        for job in jobs[::40]:
            threads = clamp_threads(cfg.threads, job.circuit.num_qubits)
            solo = FlatDDSimulator(config=FlatDDConfig(threads=threads))
            assert np.array_equal(
                job.result.state, solo.run(job.circuit).state
            )
