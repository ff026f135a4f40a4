"""The benchmark's own tests.

* The workloads reproduce the committed baselines exactly (BENCH_9's
  standard table2 IRA point, BENCH_10's quick-scale hierarchical arm).
* A traced run simulates exactly what the untraced run does, and its
  layer self times account for its run time.
* A failed output check fails the command.
* Exercise versus bypass: a slowdown planted from outside in one layer
  moves that layer's self time and the run time of a workload that uses
  the layer beyond the benchmark's bound, and leaves a workload that
  bypasses the layer within it.

Run from the repository root:  python3 -m pytest perfbench/tests
(about three minutes).
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import measure
import run as bench_cli
from layers import RUN_LAYERS, Tracer
from repro.database import Database
from repro.engine import IntegrityReport
from repro.hlock import HierarchicalLockManager
from repro.storage import ObjectStore
from repro.storage.buffer import BufferPool
from workloads import QUICK, WORKLOADS, run_once

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _json(name):
    with open(os.path.join(ROOT, name)) as handle:
        return json.load(handle)


BOUNDS = {m["name"]: m["bound"]
          for m in _json("BENCHMARK.json")["end_to_end"]}


# -- anchors to the committed baselines ---------------------------------------


def test_ira_walk_reproduces_bench9_table2_standard_ira():
    figure = _json("BENCH_9.json")["figures"]["table2/standard"]
    result = run_once(WORKLOADS["ira-walk"], 42)
    assert result.integrity_ok
    assert result.counters == figure["counters"]["ira"]
    assert result.metrics.summary() == figure["metrics"]["ira"]
    summary = result.metrics.summary()
    assert (result.events, summary["completed"], summary["throughput_tps"],
            summary["p99_response_ms"]) == (86514, 2976, 32.73, 2530.0)
    assert result.digest == WORKLOADS["ira-walk"].digest_at_42
    # The benchmark's pooled figures of this one run are the program's.
    sim = {key: v for key, (v, _) in measure.sim_metrics([result]).items()}
    assert round(sim["sim_tps"], 2) == 32.73
    assert sim["sim_tps"] == result.metrics.throughput_tps
    assert round(sim["sim_rt_p99_ms"], 1) == 2530.0
    assert sim["sim_rt_p99_ms"] == result.metrics.p99_response_ms
    assert sim["sim_rt_p50_ms"] == result.metrics.percentile_response_ms(50)


def test_scan_hier_path_reproduces_bench10_quick_hier_counters():
    figure = _json("BENCH_10.json")["figures"]["locks/quick"]
    result = run_once(WORKLOADS["scan-hier"], 42, scale=QUICK,
                      update_prob=0.5, mpl=30)
    assert result.integrity_ok
    locks = result.db.engine.locks.counters_summary(force=True)
    assert locks == figure["locks"]["30"]["hier"]
    assert (locks["acquires"], locks["escalations"],
            locks["table_peak"]) == (138228, 1174, 387)
    assert result.counters == figure["counters"]["30"]["hier"]
    assert result.metrics.summary() == figure["metrics"]["30"]["hier"]


# -- tracing ---------------------------------------------------------------------


def test_traced_generator_forwards_send_throw_and_close():
    def inner():
        got = yield "first"
        try:
            yield got * 2
        except KeyError as exc:
            got = yield f"caught {exc.args[0]}"
        return got + 1

    tracer = Tracer()
    nid = tracer._name_id("inner", "workload")
    gen = tracer._traced_gen(inner(), nid, None)
    assert next(gen) == "first"
    assert gen.send(5) == 10
    assert gen.throw(KeyError("k")) == "caught k"
    with pytest.raises(StopIteration) as stop:
        gen.send(7)
    assert stop.value.value == 8

    closed = []

    def closable():
        try:
            yield 1
        finally:
            closed.append(True)

    gen = tracer._traced_gen(closable(), nid, None)
    next(gen)
    gen.close()
    assert closed == [True]
    assert tracer.calls[nid] == 5 and not tracer._stack


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_simulates_identically_and_accounts_for_run_time(name):
    metrics, check = measure.measure_layers(WORKLOADS[name], 42, seconds=0)
    # The checker compares every repetition's digest with the first
    # (untraced) one and with the digest recorded at seed 42.
    assert check.failed == 0 and check.attempted == 2
    value = {key: v for key, (v, _) in metrics.items()}
    shares = sum(value[f"{layer}.share"] for layer in RUN_LAYERS)
    assert shares + value["trace.unattributed_frac"] == pytest.approx(1.0)
    assert 0.0 <= value["trace.unattributed_frac"] < 0.01
    assert value["trace.overhead_frac"] > 0.0
    assert value["sim.events"] > 0 and value["txn.commits"] > 0


# -- output checks fail the command -----------------------------------------------


def _cli(monkeypatch, capsys, workload):
    monkeypatch.setitem(WORKLOADS, workload.name, workload)
    code = bench_cli.main(["--workload", workload.name, "--seed", "42",
                           "--seconds", "0", "--trace", "0"])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_passing_run_exits_zero(monkeypatch, capsys):
    workload = dataclasses.replace(WORKLOADS["ira-walk"], subseeds=1)
    code, result = _cli(monkeypatch, capsys, workload)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(BOUNDS)
    assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_digest_mismatch_exits_nonzero(monkeypatch, capsys):
    workload = dataclasses.replace(WORKLOADS["ira-walk"], subseeds=1,
                                   digest_at_42="0" * 16)
    code, result = _cli(monkeypatch, capsys, workload)
    assert code != 0
    assert not result["correct"] and result["failed"] == 1


def test_integrity_failure_exits_nonzero(monkeypatch, capsys):
    def broken(self):
        report = IntegrityReport()
        report.dangling_refs.append(("parent", 0, "child"))
        return report

    monkeypatch.setattr(Database, "verify_integrity", broken)
    workload = dataclasses.replace(WORKLOADS["ira-walk"], subseeds=1)
    code, result = _cli(monkeypatch, capsys, workload)
    assert code != 0
    assert not result["correct"] and result["failed"] == 1


def test_without_program_source_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ira-walk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout.strip() == ""


# -- exercise versus bypass ----------------------------------------------------------


@contextlib.contextmanager
def planted(owner, attr, delay_s):
    """Add ``delay_s`` of busy work to every call of ``owner.attr``;
    yields a one-element list counting the calls."""
    original = owner.__dict__[attr]
    calls = [0]

    def spin():
        calls[0] += 1
        until = time.perf_counter() + delay_s
        while time.perf_counter() < until:
            pass

    if inspect.isgeneratorfunction(original):
        def slowed(*args, **kwargs):
            spin()
            return (yield from original(*args, **kwargs))
    else:
        def slowed(*args, **kwargs):
            spin()
            return original(*args, **kwargs)
    setattr(owner, attr, slowed)
    try:
        yield calls
    finally:
        setattr(owner, attr, original)


def checked_run_s(workload):
    """Run time of one repetition at seed 42, which must simulate the
    recorded digest."""
    result = run_once(workload, 42)
    assert result.digest == workload.digest_at_42
    return result.run_s


def interleaved_best(workload, plant, reps):
    """Best run time without and with ``plant()``, alternating the two
    so that a slow spell of the host hits both alike."""
    base = slow = float("inf")
    for _ in range(reps):
        base = min(base, checked_run_s(workload))
        with plant():
            slow = min(slow, checked_run_s(workload))
    return base, slow


def traced(workload, layer, function):
    """One traced repetition: the layer's self time and the calls to
    ``function`` in the run phase."""
    tracer = Tracer(record_spans=False)
    with tracer.installed():
        result = measure.Checker(workload).run(
            42, mark=lambda phase, db: tracer.mark(phase))
    assert result is not None
    return (tracer.phase_self_s("run", "verify")[layer],
            tracer.phase_count("run", "verify", function))


PLANTS = {
    "storage": (ObjectStore, "children_tuple"),
    "hlock": (HierarchicalLockManager, "try_acquire"),
    "buffer": (BufferPool, "fix"),
}


@pytest.mark.parametrize("layer,name,reps", [
    ("storage", "ira-walk", 3),
    ("hlock", "scan-hier", 2),
    ("buffer", "disk-evict", 3),
])
def test_planted_slowdown_moves_the_layer_and_run_time(layer, name, reps):
    workload = WORKLOADS[name]
    owner, attr = PLANTS[layer]
    base_self, calls = traced(workload, layer, f"{owner.__name__}.{attr}")
    # Extra work worth half the run, spread over the layer's calls: twice
    # the run_s bound, so host noise cannot hide it.
    delay = 0.5 * checked_run_s(workload) / calls
    base_run, slow_run = interleaved_best(
        workload, lambda: planted(owner, attr, delay), reps)
    with planted(owner, attr, delay):
        slow_self, _ = traced(workload, layer, "")
    bound = BOUNDS["run_s"]
    assert slow_run / base_run - 1.0 > bound
    assert slow_self / base_self - 1.0 > bound


@pytest.mark.parametrize("layer,name", [
    ("buffer", "ira-walk"),
    ("hlock", "disk-evict"),
])
def test_planted_slowdown_leaves_a_bypassing_workload_alone(layer, name):
    owner, attr = PLANTS[layer]
    calls = []

    @contextlib.contextmanager
    def plant():
        with planted(owner, attr, 1e-3) as counted:
            yield
        calls.append(counted[0])

    base_run, slow_run = interleaved_best(WORKLOADS[name], plant, 3)
    assert calls == [0, 0, 0]
    assert abs(slow_run / base_run - 1.0) <= BOUNDS["run_s"]
