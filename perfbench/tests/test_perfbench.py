"""The benchmark's own tests, at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import hostclock, layers  # noqa: E402
from perfbench.bench import (  # noqa: E402
    END_TO_END, PER_LAYER, _wall, end_to_end, measure,
)
from perfbench.workloads import WORKLOADS, Pass, serve_mix  # noqa: E402
from repro import FlatDDSimulator  # noqa: E402

TINY = {"seconds": 0.05, "tiny": True, "copy_amplitudes": 1 << 12}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_unit(workload, trace, tmp_path):
    result = measure(workload, 3, trace=trace, spans_path=tmp_path / "s.json",
                     **TINY)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert np.isfinite(metric["value"])
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
    else:
        assert (tmp_path / "s.json").is_file()


def _corrupt(state):
    state = state.copy()
    state[..., 0] += 0.5
    return state


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_state_is_counted(workload, monkeypatch):
    if workload == "sweep":
        real = FlatDDSimulator.simulate_sweep

        def planted(self, circuit, param_sets, **kw):
            result = real(self, circuit, param_sets, **kw)
            result.states = _corrupt(result.states)
            return result

        monkeypatch.setattr(FlatDDSimulator, "simulate_sweep", planted)
    else:
        real = FlatDDSimulator.run

        def planted(self, circuit, **kw):
            result = real(self, circuit, **kw)
            result.state = _corrupt(result.state)
            return result

        monkeypatch.setattr(FlatDDSimulator, "run", planted)
    result = measure(workload, 3, trace=False, **TINY)
    assert not result["correct"]
    assert result["failed"] >= 1
    ok = result["metrics"]["ok_frac"]["value"]
    expected = (result["attempted"] - result["failed"]) / result["attempted"]
    assert ok == pytest.approx(expected) and ok < 1.0


def test_traced_run_restores_originals(tmp_path):
    before = layers.originals()
    measure("serve_small", 5, trace=True, spans_path=tmp_path / "s.json",
            **TINY)
    after = layers.originals()
    assert len(after) == len(before)
    for (owner, attr, orig), (_, _, now) in zip(before, after):
        assert now is orig, f"{owner}.{attr} still wrapped"


def test_wrappers_restored_after_an_error():
    before = layers.originals()
    with pytest.raises(RuntimeError):
        with layers.traced(layers.SpanRecorder()):
            assert layers.originals()[0][2] is not before[0][2]
            raise RuntimeError("boom")
    assert all(
        now is orig
        for (_, _, orig), (_, _, now) in zip(before, layers.originals())
    )


def test_self_time_excludes_children():
    rec = layers.SpanRecorder()
    rec.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 5.0, 6.0, 0],
                 ["b", 2.0, 3.0, 1]]
    totals = rec.layer_totals()
    assert totals["a"]["self_s"] == pytest.approx(6.0)
    assert totals["b"]["self_s"] == pytest.approx(3.0)
    assert totals["b"]["calls"] == 2


def test_times_are_host_normalised_medians():
    ref = hostclock.REF_PROBE_S
    # The host runs at reference speed around the first unit and at half
    # speed (probes twice as long) around the second.
    passes = [
        Pass(units=[1.0, 4.0 + d], probes=[ref, ref, 3 * ref],
             latencies=[1.0, 4.0 + d], latency_units=[0, 1])
        for d in (0.0, 0.3, 3.0)
    ]
    assert _wall(passes) == pytest.approx(1.0 + 2.15)
    metrics = end_to_end(passes, setup_s=1.0)
    assert metrics["job_p50_s"] == pytest.approx((1.0 + 2.15) / 2)


def test_serve_mix_repeats_exactly_forty_percent():
    batch = 8
    circuits, source = serve_mix(np.random.default_rng(11), batch)
    assert len(circuits) == 160
    repeats = [i for i, s in enumerate(source) if s is not None]
    assert len(repeats) == 64
    same = [i for i in repeats if source[i] // batch == i // batch]
    assert len(same) == 16  # scheduler dedups; the rest hit the cache
    fresh = {circuits[i].fingerprint() for i, s in enumerate(source)
             if s is None}
    assert len(fresh) == 96
    again, _ = serve_mix(np.random.default_rng(11), batch)
    assert [c.fingerprint() for c in again] == [
        c.fingerprint() for c in circuits
    ]


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, emitted in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == emitted


def test_cli_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "irregular",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
