"""JSON encoding of field elements, forms, descriptors and reports.

Field elements are never floats: GF(2^k) values are hex bit strings and
rational function elements are {"num": [...], "den": [...]} coefficient
lists (ascending degree, hex entries over the base field).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Sequence

from .errors import ParseError, UnsupportedDescriptor, ZeroScalar
from .fields import HEX, Fe, Field, GF2k, parse_field, pcoeffs, pmake
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


def _payload(text, what: str) -> int:
    """The payload a hex string writes; anything else raises ValueError."""
    if isinstance(text, str) and text[:1] == "-" and HEX.fullmatch(text[1:]):
        raise ValueError(f"{what} {text} out of range")  # no payload is negative
    if not isinstance(text, str) or not HEX.fullmatch(text):
        raise ValueError(f"{what} {text!r} is not a hex number")
    return int(text, 16)


def fe_from_json(field: Field, obj) -> Fe:
    try:
        if isinstance(field, GF2k):
            return field.el(_payload(obj, "element"))
        if not (isinstance(obj, dict) and sorted(obj) == ["den", "num"]):
            raise ValueError("expected an object with the keys num and den only")
        if not all(isinstance(obj[key], list) for key in obj):
            raise ValueError("num and den must be lists of coefficients")
        num, den = ([_payload(c, "coefficient") for c in obj[key]] for key in ("num", "den"))
        if not any(den):
            raise ValueError("zero denominator")
        return field.el(pmake(num, field.base), pmake(den, field.base))
    except ValueError as exc:
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


_QUATERNION_KEYS = ("a", "b")

# per descriptor kind, the keys it reads besides kind and field, in the order a
# missing-key message names them, each with the writer of its value; a
# descriptor with any other key is rejected
_KEYS: Dict[str, Dict[str, Callable[[Any], Any]]] = {
    "split_symp": {},
    "index2_symp": {
        "quaternion": lambda d: {k: fe_to_json(getattr(d.quat, k)) for k in _QUATERNION_KEYS},
        "h": lambda d: [fe_to_json(u) for u in d.us],
    },
    "unitary_exchange": {},
    "unitary_etale": {
        "c": lambda d: fe_to_json(d.c),
        "gram": lambda d: [fe_to_json(g) for g in d.gram],
    },
    "orthogonal": {"gram": lambda d: [fe_to_json(g) for g in d.gram]},
}


def descriptor_to_json(desc) -> Dict[str, Any]:
    out: Dict[str, Any] = {"kind": desc.kind, "field": desc.field.text()}
    for key, write in _KEYS[desc.kind].items():
        out[key] = write(desc)
    return out


def descriptor_from_json(obj: Dict[str, Any]):
    try:
        kind = obj["kind"]
        field = parse_field(obj["field"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"descriptor needs kind and field: {exc}") from exc
    keys = _KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise ParseError(f"unknown descriptor kind {kind!r}")
    _check_keys(obj, ("kind", "field", *keys), f"{kind} descriptor")
    try:
        return _descriptor(kind, field, obj)
    except KeyError as exc:
        raise ParseError(f"{kind} needs {' and '.join(keys)}: {exc}") from exc
    except (ZeroScalar, UnsupportedDescriptor) as exc:
        # a zero slot or Gram coefficient, or a split center: invalid input
        raise ParseError(str(exc)) from exc


def _check_keys(obj: Dict[str, Any], allowed: Sequence[str], where: str) -> None:
    unexpected = sorted(set(obj) - set(allowed))
    if unexpected:
        raise ParseError(f"{where} has unexpected keys: {', '.join(unexpected)}")


def _elements(field: Field, obj: Dict[str, Any], key: str) -> list:
    if not isinstance(obj[key], list):
        raise ParseError(f"{key} must be a list of field elements")
    return [fe_from_json(field, x) for x in obj[key]]


def _gram(field: Field, obj: Dict[str, Any]) -> list:
    gs = _elements(field, obj, "gram")
    if len(gs) != 4:
        raise ParseError("gram must list four diagonal coefficients")
    return gs


def _descriptor(kind: str, field: Field, obj: Dict[str, Any]):
    """The descriptor of a known kind; a missing key raises KeyError."""
    if kind == "split_symp":
        return SplitSymp(field)
    if kind == "unitary_exchange":
        return UnitaryExchange(field)
    if kind == "index2_symp":
        qd = obj["quaternion"]
        if not isinstance(qd, dict):
            raise ParseError("quaternion must be an object with slots a and b")
        _check_keys(qd, _QUATERNION_KEYS, "quaternion")
        a, b = (fe_from_json(field, qd[k]) for k in _QUATERNION_KEYS)
        us = _elements(field, obj, "h")
        if len(us) != 3:
            raise ParseError("h must list the three nontrivial hermitian coefficients")
        return Index2Symp(field, QuaternionAlgebra(field, a, b), us)
    if kind == "unitary_etale":
        c = fe_from_json(field, obj["c"])
        return UnitaryEtale(field, c, _gram(field, obj))
    return Orthogonal(field, _gram(field, obj))


def jsonable(value):
    """Recursively convert witness payloads (raw ints/tuples) for JSON."""
    if isinstance(value, Fe):
        return fe_to_json(value)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value
