"""Command line front end: describe, extract, verify.

Exit codes: 0 when every decided check is true (unknowns warn but pass),
1 when some check is false or a property fails, 2 on usage or parse errors.
Reports are deterministic for a fixed (input, seed): rerunning produces
byte-identical JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Any, Dict

from .errors import CharformError, ParseError
from .extraction import (
    default_components,
    extract_orthogonal_invariants,
    extract_symplectic_invariants,
    extract_unitary_invariants,
)
from .fields import Fe, parse_field
from .involutions import symmetric_space
from .serialize import descriptor_from_json, fe_to_json, form_to_json, jsonable
from .verify import run_suite


def _load_descriptor(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON at line {exc.lineno}: {exc.msg}") from exc
    return descriptor_from_json(obj)


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CHARFORM_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ParseError(f"CHARFORM_SEED must be an integer, not {env!r}") from None


def cmd_describe(args) -> int:
    desc = _load_descriptor(args.input)
    space = symmetric_space(desc)
    dims = None
    try:
        dims = default_components(desc).dims
    except CharformError:
        pass
    if args.json:
        out = {
            "kind": desc.kind,
            "field": desc.field.text(),
            "symmetric_dim": space.dim,
            "component_dims": list(dims) if dims else None,
        }
        print(json.dumps(out, sort_keys=True))
    else:
        label = "Symd" if desc.case == "symplectic" else "Sym"
        line = f"{desc.kind} over {desc.field.text()}: {label} dim {space.dim}"
        if dims:
            line += ", components {}/{}/{}/{}".format(*dims)
        print(line)
    return 0


def _checks_exit(checks) -> int:
    if any(c.result.is_false for c in checks):
        return 1
    unknowns = sum(c.result.is_unknown for c in checks)
    if unknowns:
        print(f"warning: {unknowns} undecided check(s)", file=sys.stderr)
    return 0


def cmd_extract(args) -> int:
    desc = _load_descriptor(args.input)
    case = desc.case
    if args.case and args.case != case:
        raise ParseError(f"descriptor is {case}, not {args.case}")
    seed = _seed_from(args)
    comps = default_components(desc)
    report: Dict[str, Any] = {
        "case": case,
        "kind": desc.kind,
        "field": desc.field.text(),
        "seed": seed,
        "dims": list(comps.dims),
    }
    # looked up per call, so a rebinding of the module-level names takes effect
    extract, keys = {
        "symplectic": (extract_symplectic_invariants, ("pi3", "pi5")),
        "unitary": (extract_unitary_invariants, ("pi2", "pi4")),
        "orthogonal": (extract_orthogonal_invariants, ("pi1", "phi", "pi3", "det")),
    }[case]
    inv = extract(desc, comps, seed=seed)
    for key in ("a1", "a2") + keys:
        value = getattr(inv, "det_class" if key == "det" else key)
        report[key] = fe_to_json(value) if isinstance(value, Fe) else form_to_json(value)
    checks = inv.checks
    report["checks"] = [
        {"name": c.name, "result": c.result.state, "witness": jsonable(c.result.witness)}
        for c in checks
    ]
    text = json.dumps(report, indent=None if args.json else 2)
    print(text)
    return _checks_exit(checks)


def cmd_verify(args) -> int:
    field = parse_field(args.field)
    seed = _seed_from(args)
    results = run_suite(args.suite, field, seed, args.trials)
    if args.json:
        out = {
            "suite": args.suite,
            "field": field.text(),
            "seed": seed,
            "trials": args.trials,
            "results": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "trials": r.trials,
                    "unknowns": r.unknowns,
                    "detail": r.detail,
                }
                for r in results
            ],
        }
        print(json.dumps(out))
    else:
        for r in results:
            print(r.line())
        passed = sum(r.passed for r in results)
        print(f"{passed}/{len(results)} properties passed")
    if args.trials == 0:
        print("warning: zero trials is a vacuous pass", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="charform", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("describe", help="summarize a descriptor file")
    d.add_argument("--input", required=True, help="descriptor JSON path")
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=cmd_describe)

    e = sub.add_parser("extract", help="extract the Pfister invariants")
    e.add_argument("--input", required=True, help="descriptor JSON path")
    e.add_argument("--case", choices=["symplectic", "unitary", "orthogonal"])
    e.add_argument("--seed", type=int, default=None)
    e.add_argument("--json", action="store_true", help="compact single-line JSON")
    e.set_defaults(func=cmd_extract)

    v = sub.add_parser("verify", help="run the seeded property suites")
    v.add_argument(
        "--suite",
        default="all",
        choices=["fields", "forms", "quaternions", "symplectic", "unitary", "orthogonal", "all"],
    )
    v.add_argument("--field", default="gf2")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--trials", type=int, default=200)
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if getattr(args, "trials", 0) < 0:
        print("error: --trials must be nonnegative", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CharformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
