"""Workload child: one fresh interpreter, one client, one operation at a time.

Usage: python3 child.py PLAN.json  (run.py writes the plan and reads the
result from the last line of this process's standard output)

Set-up is ``import charform.cli`` plus building the workload's fields; the
child prints a ``ready`` line after it. Then it feeds the plan's operations to
``charform.cli.main`` in a closed loop for the planned seconds and checks
each output. Repeats of an operation (the pool cycles) must reproduce its
report digests; a run without repeats reruns the first operation to check.
Python's defaults apply: no gc tuning, no -O.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def emit(obj) -> None:
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def run_op(main, op, workdir: str, check) -> dict:
    """Run one operation's commands; only the ``main`` calls are timed."""
    from workloads import command_argv, digest

    record = {"t": 0.0, "units": 0, "failed_units": 0, "results": 0, "unknown": 0,
              "errors": [], "digests": []}
    for cmd in op:
        path = None
        if cmd.get("descriptor") is not None:
            path = os.path.join(workdir, "op.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(cmd["descriptor"], f)
        argv = command_argv(cmd, path)
        out, err = io.StringIO(), io.StringIO()
        rc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = main(argv)
            except Exception as exc:  # a crash fails the operation; the loop goes on
                record["errors"].append(f"{argv[0]} raised {type(exc).__name__}: {exc}")
            record["t"] += time.perf_counter() - start
        o = check(cmd, rc, out.getvalue())
        for key in ("units", "failed_units", "results", "unknown"):
            record[key] += getattr(o, key)
        record["errors"] += o.errors
        record["digests"].append(digest(out.getvalue()))
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return record


def run_ops(main, pool, workdir: str, check, *, seconds: float = 0.0, count: int = 0) -> list:
    """Closed loop over the pool (cycled): ``count`` operations, or as many
    as start within ``seconds`` of timed wall time."""
    records = []
    i = 0
    while True:
        records.append(run_op(main, pool[i % len(pool)], workdir, check))
        i += 1
        if count:
            if i >= count:
                return records
        elif sum(r["t"] for r in records) >= seconds:
            return records


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as f:
        plan = json.load(f)
    start = time.perf_counter()
    import charform.cli as cli
    from charform.fields import parse_field

    imported = time.perf_counter()
    for text in plan["fields"]:
        parse_field(text)
    emit({"ready": True, "import_s": imported - start, "fields_s": time.perf_counter() - imported})
    if plan["setup_only"]:
        return 0

    from workloads import check

    def call_main(argv):
        return cli.main(argv)  # looked up per call, so the tracer's rebinding applies

    pool, workdir, seconds = plan["ops"], plan["workdir"], plan["seconds"]
    result = {}
    if not plan["trace"]:
        records = run_ops(call_main, pool, workdir, check, seconds=seconds)
        # Every repeat of a pooled operation must reproduce its digests; a
        # run that never cycled the pool reruns the first operation.
        pairs = [(r, records[i % len(pool)]) for i, r in enumerate(records) if i >= len(pool)]
        result["rerun_errors"] = []
        if not pairs:
            rerun = run_op(call_main, pool[0], workdir, check)
            pairs = [(rerun, records[0])]
            result["rerun_errors"] = rerun["errors"]
        result["records"] = records
        result["deterministic"] = all(a["digests"] == b["digests"] for a, b in pairs)
    else:
        from tracer import Tracer

        # Untraced, then the same operations traced: the second pass is the
        # determinism rerun and the base of the tracing overhead.
        records = run_ops(call_main, pool, workdir, check, seconds=seconds / 4)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_ops(call_main, pool, workdir, check, count=len(records))
        finally:
            tracer.uninstall()
        result["records"] = records
        result["traced"] = traced
        result["deterministic"] = [r["digests"] for r in traced] == [r["digests"] for r in records]
        result["rerun_errors"] = []  # the traced records carry their own errors
        result["layers"] = tracer.layer_metrics(len(traced), tracer.time_twins())
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
