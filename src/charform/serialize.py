"""JSON encoding of field elements, forms, descriptors and reports.

Field elements are never floats: GF(2^k) values are hex bit strings and
rational function elements are {"num": [...], "den": [...]} coefficient
lists (ascending degree, hex entries over the base field).
"""

from __future__ import annotations

from typing import Any, Dict

from .errors import ParseError, UnsupportedDescriptor, ZeroScalar
from .fields import Fe, Field, GF2k, parse_field, pcoeffs, pmake
from .forms import QuadraticForm, form
from .involutions import (
    Index2Symp,
    Orthogonal,
    SplitSymp,
    UnitaryEtale,
    UnitaryExchange,
)
from .quaternions import QuaternionAlgebra


def fe_to_json(x: Fe):
    if isinstance(x.field, GF2k):
        return f"{x.raw:#x}"
    num, den = x.raw
    base = x.field.base
    return {
        "num": [f"{c:#x}" for c in pcoeffs(num, base)],
        "den": [f"{c:#x}" for c in pcoeffs(den, base)],
    }


def fe_from_json(field: Field, obj) -> Fe:
    try:
        if isinstance(field, GF2k):
            return field.el(int(obj, 16))
        num, den = ([int(c, 16) for c in obj[key]] for key in ("num", "den"))
        if den and not any(den):
            raise ValueError("zero denominator")
        return field.el(pmake(num, field.base), pmake(den, field.base) if den else 1)
    except (ValueError, TypeError, KeyError) as exc:
        raise ParseError(f"bad field element {obj!r}: {exc}") from exc


def form_to_json(q: QuadraticForm) -> Dict[str, Any]:
    return {
        "field": q.field.text(),
        "blocks": [[fe_to_json(a), fe_to_json(b)] for a, b in q.blocks],
        "diag": [fe_to_json(c) for c in q.diag],
    }


def form_from_json(obj: Dict[str, Any]) -> QuadraticForm:
    field = parse_field(obj["field"])
    blocks = [
        (fe_from_json(field, a), fe_from_json(field, b)) for a, b in obj.get("blocks", [])
    ]
    diag = [fe_from_json(field, c) for c in obj.get("diag", [])]
    return form(field, blocks, diag)


def descriptor_to_json(desc) -> Dict[str, Any]:
    out: Dict[str, Any] = {"kind": desc.kind, "field": desc.field.text()}
    if isinstance(desc, Index2Symp) and not isinstance(desc, SplitSymp):
        out["quaternion"] = {"a": fe_to_json(desc.quat.a), "b": fe_to_json(desc.quat.b)}
        out["h"] = [fe_to_json(u) for u in desc.us]
    if isinstance(desc, UnitaryEtale):
        out["c"] = fe_to_json(desc.c)
    if isinstance(desc, (UnitaryEtale, Orthogonal)):
        out["gram"] = [fe_to_json(g) for g in desc.gram]
    return out


def descriptor_from_json(obj: Dict[str, Any]):
    try:
        kind = obj["kind"]
        field = parse_field(obj["field"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"descriptor needs kind and field: {exc}") from exc
    try:
        return _descriptor(kind, field, obj)
    except (ZeroScalar, UnsupportedDescriptor) as exc:
        # a zero slot or Gram coefficient, or a split center: invalid input
        raise ParseError(str(exc)) from exc


def _elements(field: Field, obj: Dict[str, Any], key: str) -> list:
    if not isinstance(obj[key], list):
        raise ParseError(f"{key} must be a list of field elements")
    return [fe_from_json(field, x) for x in obj[key]]


def _descriptor(kind: str, field: Field, obj: Dict[str, Any]):
    if kind == "split_symp":
        return SplitSymp(field)
    if kind == "index2_symp":
        try:
            qd = obj["quaternion"]
            if not isinstance(qd, dict):
                raise ParseError("quaternion must be an object with slots a and b")
            a = fe_from_json(field, qd["a"])
            b = fe_from_json(field, qd["b"])
            us = _elements(field, obj, "h")
        except KeyError as exc:
            raise ParseError(f"index2_symp needs quaternion and h: {exc}") from exc
        if len(us) != 3:
            raise ParseError("h must list the three nontrivial hermitian coefficients")
        return Index2Symp(field, QuaternionAlgebra(field, a, b), us)
    if kind == "unitary_exchange":
        return UnitaryExchange(field)
    if kind == "unitary_etale":
        try:
            c = fe_from_json(field, obj["c"])
            gs = _elements(field, obj, "gram")
        except KeyError as exc:
            raise ParseError(f"unitary_etale needs c and gram: {exc}") from exc
        if len(gs) != 4:
            raise ParseError("gram must list four diagonal coefficients")
        return UnitaryEtale(field, c, gs)
    if kind == "orthogonal":
        try:
            gs = _elements(field, obj, "gram")
        except KeyError as exc:
            raise ParseError(f"orthogonal needs gram: {exc}") from exc
        if len(gs) != 4:
            raise ParseError("gram must list four diagonal coefficients")
        return Orthogonal(field, gs)
    raise ParseError(f"unknown descriptor kind {kind!r}")


def jsonable(value):
    """Recursively convert witness payloads (raw ints/tuples) for JSON."""
    if isinstance(value, Fe):
        return fe_to_json(value)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value
