"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import charp  # noqa: E402
import clicmds  # noqa: E402
import harness  # noqa: E402
import multiplier  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import valuate  # noqa: E402
from harness import Op  # noqa: E402

ROOT = HERE.parent
_original_series_mul = charp.series.series_mul


def _keys(ops, count):
    return [(op.kind, str(op.key)) for op in itertools.islice(ops, count)]


def _valuate_state():
    if not hasattr(_valuate_state, "state"):
        _valuate_state.state = valuate.State(charp)
    return _valuate_state.state


def test_generation_is_deterministic_and_seed_keeps_the_mix():
    state = _valuate_state()
    first = _keys(valuate.Generator(state, 5, "timed", set()), 26)
    again = _keys(valuate.Generator(state, 5, "timed", set()), 26)
    other = _keys(valuate.Generator(state, 6, "timed", set()), 26)
    assert first == again
    assert first != other
    assert [k for k, _ in first] == [k for k, _ in other]

    wl = multiplier.Workload(charp, ROOT)
    state = wl.setup(0)
    assert _keys(wl.ops(state, 5, "timed"), 22) == \
        _keys(multiplier.Workload(charp, ROOT).ops(wl.setup(0), 5, "timed"),
              22)

    wl = clicmds.Workload(charp, ROOT)
    first = _keys(wl.ops(None, 5, "timed"), 24)
    assert first == _keys(wl.ops(None, 5, "timed"), 24)
    assert [k for k, _ in first] == \
        [k for k, _ in _keys(wl.ops(None, 6, "timed"), 24)]


def test_timed_ops_never_repeat_warmup_inputs():
    wl = valuate.Workload(charp, ROOT)
    wl.seen = set()
    state = _valuate_state()
    warm = {str(op.key) for op in wl.warmup(state, 3)}
    timed = {str(op.key) for op in itertools.islice(
        wl.ops(state, 3, "timed"), 52)}
    assert len(timed) == 52
    assert not warm & timed


def test_right_answers_pass_and_a_planted_wrong_answer_fails():
    state = _valuate_state()
    ops = list(itertools.islice(valuate.Generator(state, 7, "timed", set()),
                                13))
    good = harness.measure(iter(ops), seconds=60, limit=10)
    assert (good.attempted, good.failed) == (13, 0)

    approx = next(op for op in ops if op.kind == "valuate.approx")

    def off_by_one():
        value, cert = approx.run()
        return value + 1, cert

    planted = Op(approx.kind, approx.key, off_by_one, approx.check)
    stats = harness.measure(iter([ops[0], planted]), seconds=60, limit=10)
    assert (stats.attempted, stats.failed) == (2, 1)
    assert "expected" in stats.failures[0][2]

    wl = multiplier.Workload(charp, ROOT)
    case_op = next(iter(wl.ops(wl.setup(0), 1, "timed")))

    def wrong_splitting():
        answer = case_op.run()
        answer["splits"] = not answer["splits"]
        return answer

    planted = Op(case_op.kind, case_op.key, wrong_splitting, case_op.check)
    assert harness.run_one(planted, 10)[0] == "wrong splits"


def test_cli_outputs_are_judged_by_exit_code_and_content():
    rng_ops = clicmds.Workload(charp, ROOT).ops(None, 2, "timed",
                                                in_process=True)
    ops = list(itertools.islice(rng_ops, len(clicmds.KINDS)))
    stats = harness.measure(iter(ops), seconds=120, limit=30)
    assert stats.failed == 0, stats.failures
    distinguish = next(op for op in ops if op.kind == "cli.distinguish")
    code, out, err = distinguish.run()
    answer = json.loads(out)
    answer["in_ring_b"] = False
    assert distinguish.check((code, json.dumps(answer), err))
    assert distinguish.check((1, "", '{"error":"StreamsAgree"}'))
    usage = next(op for op in ops if op.kind == "cli.usage-error")
    assert usage.check((0, "{}", ""))


def test_a_hanging_op_is_cut_off():
    def spin():
        while True:
            pass

    start = time.perf_counter()
    stats = harness.measure(iter([Op("hang", 0, spin)]), seconds=60,
                            limit=0.3)
    assert time.perf_counter() - start < 5
    assert stats.failed == 1 and "exceeded" in stats.failures[0][2]

    def sleeper():
        return subprocess.run([sys.executable, "-c",
                               "import time; time.sleep(60)"]).returncode

    start = time.perf_counter()
    reason = harness.run_one(Op("hang", 1, sleeper), 0.5)[0]
    assert time.perf_counter() - start < 10
    assert "exceeded" in reason


def test_tail_keeps_ten_samples_beyond_it():
    pct, value = harness.tail([float(i) for i in range(100, 0, -1)])
    assert (pct, value) == (90.0, 90.0)


def test_traced_self_times_add_up_and_uninstall_restores():
    state = _valuate_state()
    ops = itertools.islice(valuate.Generator(state, 9, "traced", set()), 13)
    original = charp.series.series_mul
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert charp.series.series_mul is not original
        stats = harness.measure(ops, seconds=60, limit=10, span=tracer.op)
    finally:
        spans.uninstall(undo)
    assert charp.series.series_mul is original
    assert stats.failed == 0
    metrics = tracer.layer_metrics(1.0, 1.0, 1.0)
    shares = sum(v for name, (v, unit) in metrics.items()
                 if name.endswith(".self_share") and name.count(".") == 2)
    busy = metrics["trace.busy_s"][0]
    assert abs(shares + metrics["trace.uncovered_s"][0] / busy - 1) < 1e-6
    seconds = tracer.self_seconds()
    assert abs(sum(seconds[n + ".self_s"] for n in spans.SPANS)
               + metrics["trace.uncovered_s"][0] - busy) < 1e-6
    assert metrics["kernels.series_mul.calls"][0] > 0
    assert metrics["cartier.check_compatible.calls"][0] == 0
    assert {name for name, _ in spans.LAYER_METRICS} == set(metrics)


def test_install_refuses_a_missing_entry_point(monkeypatch):
    monkeypatch.delattr(charp.valuation, "first_difference")
    with pytest.raises(AttributeError, match="first_difference"):
        spans.install(spans.Tracer())
    assert charp.series.series_mul is _original_series_mul


def test_oracle_calls_of_streams_made_before_tracing_are_counted():
    state = _valuate_state()
    warm = state.vals[(2, 1, ("lacunary",))]
    # a valuation whose stream prefixes are not realized, over streams that
    # exist before install(), as when a prefix cache is dropped
    cold = charp.EmbeddingValuation(warm.ctx, warm.streams[1:],
                                    precision_cap=valuate.CAP)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        harness.measure(iter([Op("warm", 0, lambda: warm.images(1024))]),
                        seconds=60, limit=10, span=tracer.op)
        warm_calls = tracer.counts["streams.coefficient.calls"]
        harness.measure(iter([Op("cold", 1, lambda: cold.images(1024))]),
                        seconds=60, limit=10, span=tracer.op)
    finally:
        spans.uninstall(undo)
    assert warm_calls == 0
    assert tracer.counts["streams.coefficient.calls"] > 1000


def test_benchmark_json_names_what_a_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(spans.LAYER_METRICS)
    stats = harness.RunStats()
    stats.attempted = 12
    stats.latencies = [0.001 * i for i in range(1, 13)]
    stats.busy = sum(stats.latencies)
    stats.wall_latencies, stats.wall_busy = stats.latencies, stats.busy
    metrics, _ = harness.end_to_end(stats, 1.0, 30.0)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == \
        {(name, unit) for name, (_, unit) in metrics.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_compare_prints_deltas(tmp_path, capsys):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"metrics": {
        "ops_per_s": {"value": 10.0, "unit": "1/s"}}}))
    new.write_text(json.dumps({"metrics": {
        "ops_per_s": {"value": 12.0, "unit": "1/s"}}}))
    assert run.compare(old, new) == 0
    assert "+20.0%" in capsys.readouterr().out
