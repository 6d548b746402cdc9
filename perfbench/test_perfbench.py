"""Tests of the benchmark's own logic; they need neither timing nor charform.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
from pathlib import Path

import child
import run
import workloads
from tracer import LAYER_METRICS, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_covered_children():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        leaf_span()
        clock.now += 0.5
        leaf_span()

    def outer():
        clock.now += 3.0
        middle_span()

    leaf_span = tr.span("leaf", leaf)
    middle_span = tr.span("middle", middle)
    tr.span("outer", outer)()
    st = tr.spans
    assert (st["leaf"].calls, st["leaf"].total, st["leaf"].self_time) == (2, 4.0, 4.0)
    assert (st["middle"].total, st["middle"].self_time) == (5.5, 1.5)
    assert (st["outer"].total, st["outer"].self_time) == (8.5, 3.0)


def test_recursive_span_counts_outermost_time_once():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def rec(n):
        clock.now += 1.0
        if n:
            rec_span(n - 1)

    rec_span = tr.span("rec", rec)
    rec_span(2)
    st = tr.spans["rec"]
    assert (st.calls, st.total, st.self_time) == (3, 3.0, 3.0)


def test_counter_samples_every_nth_call():
    tr = Tracer()
    f = tr.counter("k", lambda a, b: a + b, sampled=True)
    for i in range(200):
        f(i, 1)
    assert tr.counts["k"] == [200]
    assert [s[0] for s in tr.samples["k"]] == [63, 127, 191]
    assert tr.replay_ns("k", min_calls=10) > 0


def test_tail_takes_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(1, 20)]) == (19.0, 100.0, 0)
    assert run.tail([float(i) for i in range(1, 21)]) == (10.0, 50.0, 10)
    assert run.tail([float(i) for i in range(1, 25)]) == (14.0, 58.0, 10)
    assert run.tail([float(i) for i in range(1, 41)]) == (30.0, 75.0, 10)
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
    assert run.tail([float(i) for i in range(1, 1001)]) == (990.0, 99.0, 10)
    assert run.tail([3.0]) == (3.0, 100.0, 0)


def test_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 7)
        assert a == workloads.generate(name, 7)
        assert a != workloads.generate(name, 8)
        assert len(a) == workloads.WORKLOADS[name].pool


def test_generated_inputs_have_the_documented_shape():
    gf2k = workloads.generate("extract-gf2k", 1)
    assert {(op[0]["descriptor"]["kind"], op[0]["descriptor"]["field"]) for op in gf2k[:6]} == {
        (k, f) for k in workloads.SYMPLECTIC_KINDS for f in workloads.GF2K_FIELDS
    }
    for op in workloads.generate("extract-ratfunc", 1):
        d = op[0]["descriptor"]
        slots = [d["quaternion"]["a"], d["quaternion"]["b"], *d["h"]]
        assert all(len(s["num"]) <= 2 and s["num"][-1] == "0x1" and s["den"] == ["0x1"] for s in slots)
    for op in workloads.generate("verify-suites", 1):
        assert [c["field"] for c in op] == list(workloads.VERIFY_FIELDS)
        assert op[0]["seed"] == op[1]["seed"]


def _report(cmd, **changes):
    d = cmd["descriptor"]
    report = {"case": "symplectic", "kind": d["kind"], "field": d["field"], "seed": cmd["seed"],
              "checks": [{"name": "c1", "result": "true"}, {"name": "c2", "result": "unknown"}]}
    report.update(changes)
    return json.dumps(report)


def test_failure_count_on_a_forced_failing_operation(tmp_path):
    pool = workloads.generate("extract-gf2k", 3)[:4]
    outputs = {
        0: (0, _report(pool[0][0])),
        1: (1, _report(pool[1][0], checks=[{"name": "c1", "result": "false"}])),
        2: (0, _report(pool[2][0], seed=-1)),
        3: (None, "{"),
    }
    calls = []

    def fake_main(argv):
        i = len(calls)
        calls.append(argv)
        rc, text = outputs[i]
        print(text)
        if rc is None:
            raise RuntimeError("boom")
        return rc

    records = child.run_ops(fake_main, pool, str(tmp_path), workloads.check, count=4)
    assert [bool(r["errors"]) for r in records] == [False, True, True, True]
    assert sum(r["failed_units"] for r in records) == 3
    assert sum(r["unknown"] for r in records) == 2
    assert run.summarize(records)["failed_share"] == 0.75
    assert json.loads(Path(calls[0][2]).read_text()) == pool[3][0]["descriptor"]


def test_verify_property_failure_is_a_unit_not_an_operation_failure():
    cmd = workloads.generate("verify-suites", 1)[0][1]
    report = {"suite": "all", "field": cmd["field"], "seed": cmd["seed"], "trials": cmd["trials"],
              "results": [{"name": "a", "passed": True, "trials": 50, "unknowns": 1},
                          {"name": "b", "passed": False, "trials": 50, "unknowns": 0}]}
    o = workloads.check(cmd, 1, json.dumps(report))
    assert (o.units, o.failed_units, o.results, o.unknown, o.errors) == (2, 1, 100, 1, [])
    assert workloads.check(cmd, 0, json.dumps(report)).errors  # exit code contradicts the report


def test_benchmark_json_names_every_metric_the_runs_print():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names == list(LAYER_METRICS) + list(run.RUN_LAYER_METRICS)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    records = [{"t": 1.0, "units": 1, "failed_units": 0, "results": 1, "unknown": 0, "rss_mb": 20.0 + i}
               for i in range(3)]
    metrics, _ = run.end_to_end(records, 0.1, 2)
    assert e2e == set(metrics)
    assert metrics["peak_rss_mb"] == (21.0, "MB")
