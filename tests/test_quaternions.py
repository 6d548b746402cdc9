"""Quaternion algebra tests against the defining relations."""

import itertools
import random

import pytest

from descriptor_layout import entries
from charform.errors import AlgebraMismatch, ZeroScalar
from charform.fields import GF2, Fe, QuadraticExtension, gf2k, ratfunc, solve_artin_schreier
from charform.involutions import Index2Symp
from charform.linalg import Mat, charpoly
from charform.quaternions import (
    QuaternionAlgebra,
    is_division,
    nrd_form,
    q_conj,
    q_mul,
    q_nrd,
    q_trd,
    split_embedding,
)

F4 = gf2k(2)
F8 = gf2k(3)
R2 = ratfunc(GF2)


def make(field, a, b):
    return QuaternionAlgebra(field, a, b)


def test_defining_relations():
    Q = make(F4, F4.gen, F4.gen + F4.one)
    u, v = Q.u, Q.v
    assert u * u == Q.scalar(Q.a) + u
    assert v * v == Q.scalar(Q.b)
    assert v * u == u * v + v


def test_zero_b_rejected():
    with pytest.raises(ZeroScalar):
        make(GF2, GF2.one, GF2.zero)


def test_algebra_mismatch():
    q1, q2 = make(GF2, GF2.one, GF2.one), make(GF2, GF2.zero, GF2.one)
    with pytest.raises(AlgebraMismatch):
        q_mul(q1.u, q2.u)


def test_conj_trd_nrd_examples():
    Q = make(F4, F4.gen, F4.one)
    assert q_conj(Q.u) == Q.u + Q.one
    assert q_conj(Q.v) == Q.v
    assert q_trd(Q.u) == F4.one
    assert q_nrd(Q.u) == Q.a  # u(u+1) = u^2 + u = a


def test_conj_is_antiautomorphism_500():
    rng = random.Random(5)
    Q = make(F4, F4.gen, F4.gen)
    for _ in range(500):
        x, y = Q.rand(rng), Q.rand(rng)
        assert q_conj(x * y) == q_conj(y) * q_conj(x)
        assert q_conj(q_conj(x)) == x


def test_nrd_multiplicative_500():
    rng = random.Random(7)
    Q = make(F4, F4.gen, F4.gen + F4.one)
    for _ in range(500):
        x, y = Q.rand(rng), Q.rand(rng)
        assert q_nrd(x * y) == q_nrd(x) * q_nrd(y)
        # nrd(x) = x * conj(x) as a scalar
        assert x * q_conj(x) == Q.scalar(q_nrd(x))


def test_trd_symmetry_500():
    rng = random.Random(9)
    Q = make(F4, F4.one, F4.gen)
    for _ in range(500):
        x, y = Q.rand(rng), Q.rand(rng)
        assert q_trd(x * y) == q_trd(y * x)


def test_nrd_form_agrees_with_direct_norm():
    rng = random.Random(11)
    for field, a, b in [
        (F4, F4.gen, F4.gen + F4.one),
        (R2, R2.t, R2.t + R2.one),
    ]:
        Q = make(field, a, b)
        nf = nrd_form(Q)
        for _ in range(500):
            x = Q.rand(rng)
            # scale(b, (1,a)) stores (b, a/b); the substitution x3 -> b*x3
            # identifies its coordinates with the quaternion basis 1,u,v,uv
            coords = [x.c[0], x.c[1], x.c[2], b * x.c[3]]
            assert nf.evaluate([c.raw for c in coords]) == q_nrd(x)


def test_nrd_form_split_and_isotropic_examples():
    # [0,1) over GF(2): Arf of the norm form vanishes twice
    Q = make(GF2, GF2.zero, GF2.one)
    from charform.forms import arf_invariant

    assert arf_invariant(nrd_form(Q)) == 0
    # [1,1) over GF(2): 1 + u + v is a zero of the norm
    Q2 = make(GF2, GF2.one, GF2.one)
    x = Q2.el(GF2.one, GF2.one, GF2.one, GF2.zero)
    assert not q_nrd(x)


def test_is_division_over_finite_fields():
    # oracle: exhaustive isotropy of the norm form, consistent with finiteness
    for field in (GF2, F4):
        for a in field.elements():
            for b in field.elements():
                if not b:
                    continue
                Q = make(field, a, b)
                dec = is_division(Q)
                assert dec.is_false
                zero_found = any(
                    q_nrd(Q.el(*v)) == field.zero and any(v)
                    for v in itertools.product(field.elements(), repeat=4)
                )
                assert zero_found


def test_is_division_zero_a_has_zero_divisors():
    Q = make(R2, R2.zero, R2.t)
    assert not q_nrd(Q.u)  # u(u+1) = 0
    assert is_division(Q).is_false


def test_tt_symbol_is_split_with_explicit_zero():
    # nrd(u + v) = a + b vanishes for [t,t), so the symbol splits
    Q = make(R2, R2.t, R2.t)
    assert q_nrd(Q.u + Q.v) == R2.zero
    assert is_division(Q).is_false


def test_constant_slope_symbol_is_division():
    # [1, t) over GF(2)(t): certified by the odd valuation of t
    Q = make(R2, R2.one, R2.t)
    dec = is_division(Q)
    assert dec.is_true


def _det2(m):
    r = m.rows
    return r[0][0] * r[1][1] + r[0][1] * r[1][0]


@pytest.mark.parametrize(
    "field,a,b",
    [
        (GF2, "one", "one"),
        (F4, "gen", "gen"),
        (R2, "t", "t"),
        (R2, "one", "t"),
    ],
)
def test_split_embedding_relations(field, a, b):
    Q = make(field, getattr(field, a), getattr(field, b))
    _assert_relations(split_embedding(Q), Q)


def test_split_embedding_preserves_trd_nrd():
    rng = random.Random(13)
    Q = make(F4, F4.gen, F4.one)
    sp = split_embedding(Q)
    for _ in range(200):
        x = Q.rand(rng)
        m = sp.embed(x)
        assert m.trace() == sp.lift(q_trd(x))
        assert _det2(m) == sp.lift(q_nrd(x))
        y = Q.rand(rng)
        assert sp.embed(x * y) == sp.embed(x) * sp.embed(y)
        assert sp.embed(x + y) == sp.embed(x) + sp.embed(y)


def test_split_embedding_matrix_blocks():
    rng = random.Random(17)
    Q = make(F4, F4.gen, F4.gen)
    sp = split_embedding(Q)
    m = Mat(Q, [[Q.rand(rng) for _ in range(2)] for _ in range(2)])
    m2 = Mat(Q, [[Q.rand(rng) for _ in range(2)] for _ in range(2)])
    assert sp.embed_matrix(m * m2) == sp.embed_matrix(m) * sp.embed_matrix(m2)


def _assert_relations(sp, Q):
    u, v, one = sp.u_img, sp.v_img, sp.one_img
    assert u * u + u == one.scal(sp.lift(Q.a))
    assert v * v == one.scal(sp.lift(Q.b))
    assert v * u == (u + one) * v


@pytest.mark.parametrize("field", [GF2, F4, F8], ids=["gf2", "gf4", "gf8"])
def test_every_finite_quaternion_algebra_splits_over_f(field):
    # Wedderburn: an Artin-Schreier root of a, or else y = sqrt(b/a), lies in F
    for a in field.elements():
        for b in field.elements():
            if not b:
                continue
            Q = make(field, a, b)
            sp = split_embedding(Q)
            assert sp.ring is Q.field
            _assert_relations(sp, Q)


def _etale_oracle_charpoly(desc, x):
    """The characteristic polynomial of x through u -> diag(s, s+1),
    v -> [[0, b], [1, 0]] over F[s]/(s^2 + s + a), with the y parts checked
    to vanish."""
    Q, field = desc.quat, desc.field
    ring = QuadraticExtension(field, Q.a)
    s, one, zero = ring.s, ring.one, ring.zero
    images = [
        Mat(ring, [[one, zero], [zero, one]]),
        Mat(ring, [[s, zero], [zero, s + one]]),
        Mat(ring, [[zero, ring.lift(Q.b)], [one, zero]]),
    ]
    images.append(images[1] * images[2])
    rows = [[None] * 8 for _ in range(8)]
    for i, entry_row in enumerate(entries(desc, x)):
        for j, c in enumerate(entry_row):
            block = Mat.zeros(ring, 2)
            for ck, m in zip(c, images):
                block = block + m.scal(ring.lift(field._el(ck)))
            for r in range(2):
                rows[2 * i + r][2 * j : 2 * j + 2] = block.rows[r]
    coeffs = charpoly(Mat(ring, rows))
    assert all(not e.y for e in coeffs)
    return [e.x for e in coeffs]


@pytest.mark.parametrize("field", [F4, F8], ids=["gf4", "gf8"])
def test_index2_charpoly_matches_etale_embedding(field):
    rng = random.Random(19)
    for a in field.elements():
        if solve_artin_schreier(a) is not None:
            continue
        b = field.rand(rng) or field.one
        us = [field.rand(rng) or field.one for _ in range(3)]
        desc = Index2Symp(field, make(field, a, b), us)
        assert desc.quat.split().ring is field
        for _ in range(3):
            x = desc.rand(rng)
            assert desc.reduced_charpoly(x) == _etale_oracle_charpoly(desc, x)


RATFUNC_SYMBOLS = [
    ("t", "t", True),  # b/a = 1
    ("1/t", "t", True),  # b/a = t^2, a not a polynomial
    ("t", "1+t", False),
    ("1/t", "1", False),  # etale, a not a polynomial
]


def _ratfunc_symbol(a, b):
    t, one = R2.t, R2.one
    slots = {"t": t, "1/t": one / t, "1+t": one + t, "1": one}
    return make(R2, slots[a], slots[b])


@pytest.mark.parametrize("a,b,over_f", RATFUNC_SYMBOLS)
def test_ratfunc_splitting_cases(a, b, over_f):
    t, one = R2.t, R2.one
    Q = _ratfunc_symbol(a, b)
    sp = split_embedding(Q)
    assert (sp.ring is R2) == over_f
    _assert_relations(sp, Q)
    rng = random.Random(23)
    desc = Index2Symp(R2, Q, (one, t, one + t))
    for _ in range(2):
        x = desc.rand(rng)
        assert desc.reduced_charpoly(x) == _etale_oracle_charpoly(desc, x)


def _splitting_case(Q):
    """Which splitting embedding applies: a root of x^2 + x = a in F, b/a a
    square in F, or the etale ring."""
    if isinstance(solve_artin_schreier(Q.a), Fe):
        return "root"
    return "square" if Q.split().ring is Q.field else "etale"


def _assert_split_rows_is_the_image(desc, rng):
    """split_rows(x) is the splitting image of the quaternion matrix of x,
    entry by entry, with the etale parameter a exactly over the etale ring."""
    Q, sp = desc.quat, desc.quat.split()
    for _ in range(2):
        x = desc.rand(rng)
        rows, c = desc.split_rows(x)
        image = sp.embed_matrix(Mat(Q, [[Q._el(e) for e in row] for row in entries(desc, x)]))
        assert [list(row) for row in rows] == [[e.raw for e in row] for row in image.rows]
        assert c == (None if sp.ring is desc.field else Q.a.raw)


@pytest.mark.parametrize("field", [F4, F8], ids=["gf4", "gf8"])
def test_split_rows_is_the_splitting_image_over_finite_fields(field):
    rng = random.Random(43)
    cases = set()
    for a in field.elements():
        Q = make(field, a, field.rand_nonzero(rng))
        cases.add(_splitting_case(Q))
        desc = Index2Symp(field, Q, [field.rand_nonzero(rng) for _ in range(3)])
        _assert_split_rows_is_the_image(desc, rng)
    assert cases == {"root", "square"}


@pytest.mark.parametrize("a,b,over_f", RATFUNC_SYMBOLS)
def test_split_rows_is_the_splitting_image_over_ratfunc(a, b, over_f):
    Q = _ratfunc_symbol(a, b)
    assert _splitting_case(Q) == ("square" if over_f else "etale")
    t, one = R2.t, R2.one
    desc = Index2Symp(R2, Q, (t, one / t, one + t))
    _assert_split_rows_is_the_image(desc, random.Random(47))
