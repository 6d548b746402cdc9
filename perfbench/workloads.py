"""Seeded inputs and per-operation output checks for the benchmark workloads.

Stdlib only, so the generator can be tested without the program. An
operation is a list of commands; a command is one call of
``charform.cli.main``. Extract commands carry the descriptor object that the
child writes to a fresh file right before the call.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

# Canonical field strings: the CLI echoes a field as this text, so the echo
# check is a plain string comparison.
GF2K_FIELDS = ("gf2", "gf2k:2:0x7", "gf2k:3:0xb")
RATFUNC_FIELD = "ratfunc:gf2:t"
VERIFY_FIELDS = ("gf2k:3:0xb", "ratfunc:gf2:t")
VERIFY_TRIALS = 50
SYMPLECTIC_KINDS = ("split_symp", "index2_symp")

# The nonzero polynomials of degree at most 1 over GF(2): 1, t and 1 + t.
_LINEAR_GF2 = (["0x1"], ["0x0", "0x1"], ["0x1", "0x1"])


def _gf2k_slot(rng: random.Random, field_text: str) -> str:
    k = 1 if field_text == "gf2" else int(field_text.split(":")[1])
    return hex(rng.randrange(1, 1 << k))


def _linear(i: int) -> dict:
    return {"num": list(_LINEAR_GF2[i]), "den": ["0x1"]}


def _descriptor(kind: str, field_text: str, slot: Callable[[], object]) -> dict:
    d = {"kind": kind, "field": field_text}
    if kind == "index2_symp":
        d["quaternion"] = {"a": slot(), "b": slot()}
        d["h"] = [slot() for _ in range(3)]
    return d


def _op_seed(rng: random.Random) -> int:
    return rng.randrange(1, 1 << 31)


def _extract(descriptor: dict, seed: int) -> dict:
    return {"op": "extract", "descriptor": descriptor, "seed": seed}


def gen_extract_gf2k(rng: random.Random, size: int) -> List[List[dict]]:
    # Round-robin over the six (kind, field) strata in a fixed order, so a
    # run that stops part-way through a round has the same mix on every seed.
    strata = [(kind, f) for f in GF2K_FIELDS for kind in SYMPLECTIC_KINDS]
    ops = []
    while len(ops) < size:
        kind, f = strata[len(ops) % len(strata)]
        d = _descriptor(kind, f, lambda: _gf2k_slot(rng, f))
        ops.append([_extract(d, _op_seed(rng))])
    return ops


# The quaternion slots (a, b) set most of an extraction's cost over F(t): one
# (a, b) pair can take 30% less time than another. Each block of nine
# operations takes every (a, b) pair once, as three triples in which a and b
# each take all three values, so a run of a few triples has the same mix on
# every seed. The seed orders the triples and the pairs in them, and draws
# the h slots.
_LATIN_TRIPLES = tuple(tuple((i, (i + j) % 3) for i in range(3)) for j in range(3))


def gen_extract_ratfunc(rng: random.Random, size: int) -> List[List[dict]]:
    ops = []
    while len(ops) < size:
        for triple in rng.sample(_LATIN_TRIPLES, 3):
            for a, b in rng.sample(triple, 3):
                d = {"kind": "index2_symp", "field": RATFUNC_FIELD,
                     "quaternion": {"a": _linear(a), "b": _linear(b)},
                     "h": [_linear(rng.randrange(3)) for _ in range(3)]}
                ops.append([_extract(d, _op_seed(rng))])
    return ops[:size]


def gen_verify_suites(rng: random.Random, size: int) -> List[List[dict]]:
    ops = []
    for _ in range(size):
        s = _op_seed(rng)
        ops.append(
            [{"op": "verify", "field": f, "seed": s, "trials": VERIFY_TRIALS} for f in VERIFY_FIELDS]
        )
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[random.Random, int], List[List[dict]]]
    # Operations generated and validated; a longer run cycles them. One verify
    # operation takes about 19 s, so its pool of one makes the second
    # operation of a run the determinism rerun, and a timed one.
    pool: int
    fields: tuple  # fields built during set-up, as a library session would
    # Operations in one round of the input mix; peak RSS is read after the
    # first round, so that it does not grow with the number of operations a
    # faster program fits into a run.
    round: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("extract-gf2k", gen_extract_gf2k, 96, GF2K_FIELDS, 6),
        Workload("extract-ratfunc", gen_extract_ratfunc, 36, (RATFUNC_FIELD,), 9),
        Workload("verify-suites", gen_verify_suites, 1, VERIFY_FIELDS, 1),
    )
}


def generate(workload: str, seed: int) -> List[List[dict]]:
    w = WORKLOADS[workload]
    return w.generate(random.Random(f"{workload}/{seed}"), w.pool)


def command_argv(cmd: dict, input_path: Optional[str] = None) -> List[str]:
    if cmd["op"] == "extract":
        return ["extract", "--input", input_path, "--json", "--seed", str(cmd["seed"])]
    return [
        "verify", "--suite", "all", "--field", cmd["field"],
        "--trials", str(cmd["trials"]), "--json", "--seed", str(cmd["seed"]),
    ]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """What one command's output says, and what is wrong with it.

    ``units`` are extractions (extract) or verify properties (verify);
    ``results`` are check results (extract) or property trials (verify).
    ``errors`` lists violations of the CLI's output contract; a command with
    errors is a failed operation.
    """

    units: int = 0
    failed_units: int = 0
    results: int = 0
    unknown: int = 0
    errors: List[str] = field(default_factory=list)


def _echo_errors(report: dict, expect: dict) -> List[str]:
    return [
        f"{key} echoed as {report.get(key)!r}, expected {value!r}"
        for key, value in expect.items()
        if report.get(key) != value
    ]


def check_extract(cmd: dict, rc: Optional[int], out: str) -> Outcome:
    """An extraction fails on a nonzero exit, malformed JSON, a wrong echo or
    a check decided false; the descriptors are valid, so no check may be."""
    o = Outcome(units=1)
    try:
        report = json.loads(out)
        checks = report["checks"]
        states = [c["result"] for c in checks]
    except (ValueError, KeyError, TypeError) as exc:
        o.errors.append(f"malformed extract report: {exc}")
    else:
        d = cmd["descriptor"]
        o.errors += _echo_errors(report, {"kind": d["kind"], "field": d["field"], "seed": cmd["seed"]})
        o.results = len(states)
        o.unknown = states.count("unknown")
        if not states:
            o.errors.append("extract reported no checks")
        o.errors += [
            f"check {c.get('name')!r} is {c['result']!r}" for c in checks if c["result"] != "true" and c["result"] != "unknown"
        ]
    if rc != 0:
        o.errors.append(f"extract exited {rc}")
    o.failed_units = int(bool(o.errors))
    return o


def check_verify(cmd: dict, rc: Optional[int], out: str) -> Outcome:
    """A failing property is a unit failure that the CLI reports by design
    (exit 1); the operation fails only when the output breaks the contract."""
    o = Outcome()
    try:
        report = json.loads(out)
        results = report["results"]
        passed = [r["passed"] for r in results]
        trials = sum(int(r["trials"]) for r in results)
        unknowns = sum(int(r["unknowns"]) for r in results)
    except (ValueError, KeyError, TypeError) as exc:
        o.errors.append(f"malformed verify report: {exc}")
        return o
    o.errors += _echo_errors(
        report, {"suite": "all", "field": cmd["field"], "seed": cmd["seed"], "trials": cmd["trials"]}
    )
    if not passed or not all(isinstance(p, bool) for p in passed):
        o.errors.append("verify results lack boolean pass states")
    o.units = len(passed)
    o.failed_units = passed.count(False)
    o.results, o.unknown = trials, unknowns
    expected_rc = 0 if all(passed) else 1
    if rc != expected_rc:
        o.errors.append(f"verify exited {rc}, its report implies {expected_rc}")
    return o


def check(cmd: dict, rc: Optional[int], out: str) -> Outcome:
    return (check_extract if cmd["op"] == "extract" else check_verify)(cmd, rc, out)
