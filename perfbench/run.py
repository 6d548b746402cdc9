"""The charform benchmark: one closed-loop client per workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload extract-gf2k --seed 1 --seconds 50 --trace 0

Each run spawns fresh child interpreters (perfbench/child.py) on the
sources under src/: SETUPS of them only set up, to time set-up, and the last
one also runs the workload. With --trace 0 the last line of standard output
is a JSON object with the end-to-end metrics; with --trace 1, the per-layer
metrics of a traced run (see tracer.py). The line before it holds the
details: tail percentile and sample count, and each operation's report
digests. Exit status 0 means every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUPS = 5
DEADLINE_S = 170.0
TAIL_LADDER = (999, *range(990, 499, -10))  # 99.9, 99, 98, ..., 50, in tenths of a percent
# Per-layer metrics a traced run reports besides the tracer's own.
RUN_LAYER_METRICS = {"setup.import_s": "s", "setup.fields_s": "s", "trace.overhead_ratio": "ratio",
                     "failed_share": "share", "undecided_share": "share"}

sys.path.insert(0, str(HERE))
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def tail(values: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest of the percentiles
    99.9 and 99 down to 50 that has at least ten samples beyond it, by nearest
    rank. With fewer than twenty samples none qualifies, and the tail is the
    maximum, with percentile 100 and no sample beyond."""
    xs = sorted(values)
    n = len(xs)
    for p10 in TAIL_LADDER:
        k = -(-p10 * n // 1000)
        if n - k >= 10:
            return xs[k - 1], p10 / 10, n - k
    return xs[-1], 100.0, 0


def validate_pool(pool: List[List[dict]]) -> None:
    """Parse every generated descriptor and field before any timing, so that a
    generator bug is never counted against the program."""
    sys.path.insert(0, str(SRC))
    from charform.fields import parse_field
    from charform.serialize import descriptor_from_json

    for op in pool:
        for cmd in op:
            if cmd["op"] == "extract":
                descriptor_from_json(cmd["descriptor"])
            else:
                parse_field(cmd["field"])


def spawn(plan: dict, plan_path: Path, deadline: float) -> Tuple[float, dict, Optional[dict]]:
    """Run one child; return (seconds to ready, ready line, result or None)."""
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(plan_path)],
        stdout=subprocess.PIPE, env=env, cwd=str(ROOT), text=True,
    )
    try:
        ready_line = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("workload child ran past the deadline") from None
    if proc.returncode != 0 or not ready_line.strip():
        raise RuntimeError(f"workload child exited {proc.returncode}")
    lines = out.strip().splitlines()
    return ready_s, json.loads(ready_line), (json.loads(lines[-1]) if lines else None)


def summarize(records: List[dict]) -> Dict[str, float]:
    units = sum(r["units"] for r in records)
    results = sum(r["results"] for r in records)
    return {
        "failed_share": sum(r["failed_units"] for r in records) / units if units else 1.0,
        "undecided_share": sum(r["unknown"] for r in records) / results if results else 0.0,
    }


def end_to_end(records: List[dict], setup_s: float, rss_round: int) -> Tuple[dict, dict]:
    times = [r["t"] for r in records]
    peak_rss_mb = records[min(rss_round, len(records)) - 1]["rss_mb"]
    shares = summarize(records)
    t_value, t_pct, t_beyond = tail(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (t_value, "s"),
        "pass_share": (1.0 - shares["failed_share"], "share"),
        "decided_share": (1.0 - shares["undecided_share"], "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    details = {"op_s.tail": {"percentile": t_pct, "samples": len(times), "beyond": t_beyond}, **shares}
    return metrics, details


def run(workload: str, seed: int, seconds: int, trace: bool) -> Tuple[dict, dict]:
    spec = WORKLOADS[workload]
    pool = generate(workload, seed)
    validate_pool(pool)
    deadline = time.perf_counter() + DEADLINE_S
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        plan = {"fields": list(spec.fields), "setup_only": True, "ops": pool,
                "workdir": str(workdir), "seconds": seconds, "trace": trace}
        plan_path = workdir / "plan.json"
        setups, readies = [], []
        for i in range(SETUPS):
            plan["setup_only"] = i < SETUPS - 1
            ready_s, ready, result = spawn(plan, plan_path, deadline)
            setups.append(ready_s)
            readies.append(ready)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()
    if result is None:
        raise RuntimeError("workload child printed no result")
    records = result["records"] + result.get("traced", [])
    errors = [e for r in records for e in r["errors"]] + result["rerun_errors"]
    if not result["deterministic"]:
        errors.append("rerun report digests differ from the first run")
    setup_s = statistics.median(setups)
    if trace:
        shares = summarize(result["records"])
        untraced = sum(r["t"] for r in result["records"])
        traced = sum(r["t"] for r in result["traced"])
        layers = dict(result["layers"])
        layers["setup.import_s"] = statistics.median(r["import_s"] for r in readies)
        layers["setup.fields_s"] = statistics.median(r["fields_s"] for r in readies)
        layers["trace.overhead_ratio"] = untraced / traced
        layers.update(shares)
        units = {**LAYER_METRICS, **RUN_LAYER_METRICS}
        metrics = {k: (v, units[k]) for k, v in layers.items()}
        details = {"setup_s": setup_s}
    else:
        metrics, details = end_to_end(result["records"], setup_s, spec.round)
    details["errors"] = errors
    details["op_s"] = [r["t"] for r in result["records"]]
    details["digests"] = [r["digests"] for r in result["records"]]
    summary = {
        "correct": not errors,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["errors"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return summary, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "charform" / "cli.py").is_file():
        print(f"error: no charform sources under {SRC}", file=sys.stderr)
        return 2
    try:
        summary, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for e in details["errors"]:
        print(f"output check failed: {e}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
