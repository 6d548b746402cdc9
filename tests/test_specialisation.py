"""Specialisation oracle: every F(t) golden against the GF(2^m) pipeline at
the places t = z of t.

The GF(2^k) pipeline is complete and checked by brute force elsewhere, so it
can judge the GF(2^k)(t) one place by place (Knebusch, *Specialization of
Quadratic and Symmetric Bilinear Forms*).  At every z of GF(16), and at a
seeded sample of GF(64), where every slot of a golden descriptor is defined
and nonzero (and a unitary centre stays outside the Artin-Schreier image),
the descriptor specialised at t = z is a GF(2^m) descriptor, and

- the F(t) basis of the symmetric space specialises to its basis;
- the F(t) Pfaffian form or second-trace form specialises to its form,
  entry by entry (each coefficient is a polynomial in the entries of the
  points e_i and e_i + e_j, so it commutes with the specialisation);
- the specialised pi3 and pi5 (symplectic) or pi2 and pi4 (unitary) are
  Witt-equivalent to those of the GF(2^m) extraction.

The orthogonal goldens are compared by their second-trace form only: their
quasi-Pfister forms are totally singular, and over the perfect field GF(2^m)
every such form is <1> plus radical zeros, so a Witt class says nothing.
The helpers are local to this file and use no new library code.
"""

import functools
import json
import random
from pathlib import Path

import pytest

from charform.errors import ParseError
from charform.extraction import extract_symplectic_invariants, extract_unitary_invariants
from charform.fields import gf2k, pcoeffs
from charform.forms import form, witt_equivalent_gf2k
from charform.involutions import pfaffian_form, second_trace_form, symmetric_space
from charform.serialize import descriptor_from_json, descriptor_to_json

DESCRIPTORS = Path(__file__).parent / "golden" / "descriptors"
GOLDENS = sorted(p.stem for p in DESCRIPTORS.glob("*ratfunc*.json"))
GF16, GF64 = gf2k(4), gf2k(6)
# every z of GF(16), and a seeded sample of GF(64)
PLACES = [(GF16, z) for z in range(16)] + [
    (GF64, z) for z in sorted(random.Random(19).sample(range(64), 4))
]
# per golden, the places of PLACES where a slot has a pole or a zero, or the
# unitary centre is a value of x^2 + x: those specialisations are not
# descriptors of the same kind
SKIPPED = {
    "index2_symp_ratfunc_gf2": 2,
    "index2_symp_ratfunc_gf2_etale": 2,
    "index2_symp_ratfunc_gf2_nonpoly": 2,
    "index2_symp_ratfunc_gf2k2": 2,
    "orthogonal_ratfunc_gf2": 1,
    "orthogonal_ratfunc_gf2k2": 2,
    "unitary_etale_ratfunc_gf2": 11,
    "unitary_etale_ratfunc_gf2_nonpoly": 10,
    "unitary_etale_ratfunc_gf2k2": 10,
}


@functools.cache
def _embedding(base, target) -> list:
    """The images in target of the powers X^i, i < k, of the base field,
    through the least root of the base modulus."""
    taps = [i for i in range(base.k + 1) if base.modulus >> i & 1]

    def power(r, e):
        acc = 1
        for _ in range(e):
            acc = target.rmul(acc, r)
        return acc

    root = next(
        r for r in range(target.order) if not _xor(power(r, i) for i in taps)
    )
    return [power(root, i) for i in range(base.k)]


def _xor(values) -> int:
    acc = 0
    for v in values:
        acc ^= v
    return acc


def specialise(payload, z, base, target):
    """The payload num/den of GF(2^k)(t) at t = z in target, or None at a pole."""
    images = _embedding(base, target)

    def at(poly):
        acc = 0
        for c in reversed(pcoeffs(poly, base)):
            acc = target.rmul(acc, z) ^ _xor(images[b] for b in range(base.k) if c >> b & 1)
        return acc

    num, den = payload
    d = at(den)
    return None if d == 0 else target.rmul(at(num), target.rinv(d))


def _specialised_descriptor(desc, target, z):
    """The descriptor map t -> z on the JSON of desc, or None where the
    specialisation is not a descriptor of the same kind."""
    base = desc.field.base
    bad = []

    def walk(value):
        if isinstance(value, dict) and sorted(value) == ["den", "num"]:
            payload = tuple(
                sum(int(c, 16) << (i * base.k) for i, c in enumerate(value[key]))
                for key in ("num", "den")
            )
            raw = specialise(payload, z, base, target)
            if not raw:
                bad.append(value)
            return f"{raw or 0:#x}"
        if isinstance(value, dict):
            return {key: walk(v) for key, v in value.items()}
        if isinstance(value, list):
            return list(map(walk, value))
        return value

    obj = walk(descriptor_to_json(desc))
    if bad:
        return None
    obj["field"] = target.text()
    try:
        return descriptor_from_json(obj)
    except ParseError:
        return None


def _specialised_form(q, z, target):
    """A QuadraticForm over GF(2^k)(t) at t = z; every coefficient must be defined."""
    base = q.field.base

    def at(x):
        raw = specialise(x.raw, z, base, target)
        assert raw is not None, "a form coefficient has a pole at a place of good slots"
        return target._el(raw)

    return form(target, [(at(a), at(b)) for a, b in q.blocks], [at(c) for c in q.diag])


_EXTRACT = {"symplectic": extract_symplectic_invariants, "unitary": extract_unitary_invariants}
_PFISTER = {"symplectic": ("pi3", "pi5"), "unitary": ("pi2", "pi4")}


def _form(desc):
    return pfaffian_form(desc) if desc.case == "symplectic" else second_trace_form(desc)


@pytest.mark.parametrize("name", GOLDENS)
def test_golden_specialises_to_the_gf2m_pipeline(name):
    desc = descriptor_from_json(json.loads((DESCRIPTORS / f"{name}.json").read_text()))
    base, basis, raw = desc.field.base, symmetric_space(desc).basis, _form(desc)
    invariants = _EXTRACT[desc.case](desc) if desc.case in _EXTRACT else None
    skipped = 0
    for target, z in PLACES:
        local = _specialised_descriptor(desc, target, z)
        if local is None:
            skipped += 1
            continue

        def at(payload):
            raw_z = specialise(payload, z, base, target)
            assert raw_z is not None, "a coefficient has a pole at a place of good slots"
            return raw_z

        assert [list(map(at, row)) for row in basis] == [
            list(row) for row in symmetric_space(local).basis
        ]
        local_raw = _form(local)
        assert [[at(a.raw) for a in row] for row in raw.u] == [
            [a.raw for a in row] for row in local_raw.u
        ]
        if invariants is not None:
            local_inv = _EXTRACT[desc.case](local)
            for key in _PFISTER[desc.case]:
                q = _specialised_form(getattr(invariants, key), z, target)
                assert witt_equivalent_gf2k(q, getattr(local_inv, key)), (key, target, z)
    # the skipped places are the ones named above, never all of them
    assert skipped == SKIPPED[name]
    assert len(PLACES) - skipped >= 9
