"""Quaternion algebra tests against the defining relations, on the object
oracles of ``oracles`` (Quat elements and the 2x2 splitting images), and
the payload splitting data ``SplitEmbedding.terms`` against those images."""

import itertools
import random

import pytest

from descriptor_layout import entries
from oracles import EtaleRing, QuatRing, SplitImages, charpoly, q_conj, q_mul, q_nrd, q_trd
from charform import quaternions, verify
from charform.errors import AlgebraMismatch, ZeroScalar
from charform.fields import GF2, Fe, gf2k, parse_field, ratfunc, solve_artin_schreier
from charform.involutions import Index2Symp
from charform.linalg import Mat
from charform.quaternions import QuaternionAlgebra, is_division, nrd_form

F4 = gf2k(2)
F8 = gf2k(3)
R2 = ratfunc(GF2)
R4 = ratfunc(F4)


def make(field, a, b):
    return QuaternionAlgebra(field, a, b)


def test_defining_relations():
    Q = make(F4, F4.gen, F4.gen + F4.one)
    R = QuatRing(Q)
    u, v = R.u, R.v
    assert u * u == R.scalar(Q.a) + u
    assert v * v == R.scalar(Q.b)
    assert v * u == u * v + v


def test_zero_b_rejected():
    with pytest.raises(ZeroScalar):
        make(GF2, GF2.one, GF2.zero)


def test_algebra_mismatch():
    q1, q2 = make(GF2, GF2.one, GF2.one), make(GF2, GF2.zero, GF2.one)
    with pytest.raises(AlgebraMismatch):
        q_mul(QuatRing(q1).u, QuatRing(q2).u)


def test_conj_trd_nrd_examples():
    Q = make(F4, F4.gen, F4.one)
    R = QuatRing(Q)
    assert q_conj(R.u) == R.u + R.one
    assert q_conj(R.v) == R.v
    assert q_trd(R.u) == F4.one
    assert q_nrd(R.u) == Q.a  # u(u+1) = u^2 + u = a


def test_conj_is_antiautomorphism_500():
    rng = random.Random(5)
    R = QuatRing(make(F4, F4.gen, F4.gen))
    for _ in range(500):
        x, y = R.rand(rng), R.rand(rng)
        assert q_conj(x * y) == q_conj(y) * q_conj(x)
        assert q_conj(q_conj(x)) == x


def test_nrd_multiplicative_500():
    rng = random.Random(7)
    R = QuatRing(make(F4, F4.gen, F4.gen + F4.one))
    for _ in range(500):
        x, y = R.rand(rng), R.rand(rng)
        assert q_nrd(x * y) == q_nrd(x) * q_nrd(y)
        # nrd(x) = x * conj(x) as a scalar
        assert x * q_conj(x) == R.scalar(q_nrd(x))


def test_trd_symmetry_500():
    rng = random.Random(9)
    R = QuatRing(make(F4, F4.one, F4.gen))
    for _ in range(500):
        x, y = R.rand(rng), R.rand(rng)
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
            x = QuatRing(Q).rand(rng)
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
    x = QuatRing(Q2).el(GF2.one, GF2.one, GF2.one, GF2.zero)
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
                    q_nrd(QuatRing(Q).el(*v)) == field.zero and any(v)
                    for v in itertools.product(field.elements(), repeat=4)
                )
                assert zero_found


def test_is_division_zero_a_has_zero_divisors():
    Q = make(R2, R2.zero, R2.t)
    assert not q_nrd(QuatRing(Q).u)  # u(u+1) = 0
    assert is_division(Q).is_false


def test_tt_symbol_is_split_with_explicit_zero():
    # nrd(u + v) = a + b vanishes for [t,t), so the symbol splits
    Q = make(R2, R2.t, R2.t)
    R = QuatRing(Q)
    assert q_nrd(R.u + R.v) == R2.zero
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
    _assert_relations(SplitImages(Q), Q)


def test_split_embedding_preserves_trd_nrd():
    rng = random.Random(13)
    Q = make(F4, F4.gen, F4.one)
    R = QuatRing(Q)
    sp = SplitImages(Q)
    for _ in range(200):
        x = R.rand(rng)
        m = sp.embed(x)
        assert m.trace() == sp.lift(q_trd(x))
        assert _det2(m) == sp.lift(q_nrd(x))
        y = R.rand(rng)
        assert sp.embed(x * y) == sp.embed(x) * sp.embed(y)
        assert sp.embed(x + y) == sp.embed(x) + sp.embed(y)


def test_split_embedding_matrix_blocks():
    rng = random.Random(17)
    Q = make(F4, F4.gen, F4.gen)
    R = QuatRing(Q)
    sp = SplitImages(Q)
    m = Mat(R, [[R.rand(rng) for _ in range(2)] for _ in range(2)])
    m2 = Mat(R, [[R.rand(rng) for _ in range(2)] for _ in range(2)])
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
            sp = SplitImages(Q)
            assert sp.ring is Q.field
            assert Q.split().c is None
            _assert_relations(sp, Q)


def _etale_oracle_charpoly(desc, x):
    """The characteristic polynomial of x through u -> diag(s, s+1),
    v -> [[0, b], [1, 0]] over F[s]/(s^2 + s + a), with the y parts checked
    to vanish."""
    Q, field = desc.quat, desc.field
    ring = EtaleRing(field, Q.a)
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
        assert desc.quat.split().c is None
        for _ in range(3):
            x = desc.rand(rng)
            assert desc.reduced_charpoly(x) == _etale_oracle_charpoly(desc, x)


# symbols over GF(2)(t), or over GF(4)(t) when a slot names the generator g of GF(4)
RATFUNC_SYMBOLS = [
    ("t", "t", True),  # b/a = 1
    ("1/t", "t", True),  # b/a = t^2, a not a polynomial
    ("t", "1+t", False),
    ("1/t", "1", False),  # etale, a not a polynomial
    ("g", "t", False),  # etale over GF(4)(t): g has absolute trace 1
]


def _ratfunc_symbol(a, b):
    field = R4 if "g" in (a, b) else R2
    t, one = field.t, field.one
    slots = {"t": t, "1/t": one / t, "1+t": one + t, "1": one}
    if field is R4:
        slots["g"] = field.const(F4.gen)
    return make(field, slots[a], slots[b])


@pytest.mark.parametrize("a,b,over_f", RATFUNC_SYMBOLS)
def test_ratfunc_splitting_cases(a, b, over_f):
    Q = _ratfunc_symbol(a, b)
    field = Q.field
    t, one = field.t, field.one
    sp = SplitImages(Q)
    assert (sp.ring is field) == over_f
    _assert_relations(sp, Q)
    rng = random.Random(23)
    desc = Index2Symp(field, Q, (one, t, one + t))
    for _ in range(2):
        x = desc.rand(rng)
        assert desc.reduced_charpoly(x) == _etale_oracle_charpoly(desc, x)


def _splitting_case(Q):
    """Which splitting embedding applies: a root of x^2 + x = a in F, b/a a
    square in F, or the etale ring."""
    if isinstance(solve_artin_schreier(Q.a), Fe):
        return "root"
    return "square" if SplitImages(Q).ring is Q.field else "etale"


def _assert_split_rows_is_the_image(desc, rng):
    """SplitEmbedding.terms are the object images of 1, u, v, uv, coordinate
    by coordinate, and the cleared split matrix of x is the splitting image
    of the quaternion matrix of x times its denominator D, entry by entry:
    over the etale ring, with the parameter a = p/q exactly there, each
    entry x + y*s written as x + (y/q)*r in the integral generator r = q*s."""
    Q, field, sp = desc.quat, desc.field, SplitImages(desc.quat)
    images = (sp.one_img, sp.u_img, sp.v_img, sp.w_img)
    for terms, image in zip(Q.split().terms, images, strict=True):
        coords = [[(e.raw,) if sp.ring is field else e.raw for e in row] for row in image.rows]
        expected = [
            ((i, j, p), c)
            for i, j in itertools.product(range(2), repeat=2)
            for p, c in enumerate(coords[i][j])
            if c != field.rzero
        ]
        assert sorted(terms) == sorted(expected)

    def num(a):  # a packed numerator as a field element
        return field._el(field.rfractions((a,), 1)[0])

    for _ in range(2):
        x = desc.rand(rng)
        R = QuatRing(Q)
        image = sp.embed_matrix(Mat(R, [[R._el(e) for e in row] for row in entries(desc, x)]))
        (cleared,), den = desc._cleared([x])
        den = num(den)
        if sp.ring is field:
            expected = [e * den for row in image.rows for e in row]
        else:
            q = num(Q.a.raw[1])  # every Q over a finite field splits over it: F = F(t), a = p/q
            expected = [f for row in image.rows for e in row for f in (e.x * den, e.y / q * den)]
        assert [num(cleared.get(l, 0)) for l in range(len(expected))] == expected
        assert desc._split_c == (None if sp.ring is field else Q.a.raw)


@pytest.mark.parametrize("field", [GF2, F4, F8], ids=["gf2", "gf4", "gf8"])
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
    field = Q.field
    t, one = field.t, field.one
    desc = Index2Symp(field, Q, (t, one / t, one + t))
    _assert_split_rows_is_the_image(desc, random.Random(47))


# (field, seed) of verify's quaternion suite, one per splitting case of its algebra
SUITE_CASES = [("gf2k:2", 1), ("gf2k:2", 0), ("ratfunc:gf2:t", 1)]


def _suite_lines_with_one_failure(field, seed, failing):
    lines = {r.name: r.line() for r in verify.run_quaternions(parse_field(field), seed, 8)}
    trials = 8 + 3 if failing == "quaternions.split_embedding" else 8
    assert lines.pop(failing) == f"FAIL {failing} ({trials} trials)"
    assert all(line.startswith("PASS ") for line in lines.values())


@pytest.mark.parametrize("field,seed", SUITE_CASES, ids=["root", "square", "etale"])
def test_verify_reports_a_conjugation_that_is_no_antiautomorphism(monkeypatch, field, seed):
    # conj(x) + (a*x1, x0, 0, 0) keeps coordinate 0 of x * conj(x), the reduced
    # norm, so only the antiautomorphism property can see the defect
    Q = verify._random_quat_algebra(parse_field(field), verify._rng(seed, "quat.make"))
    conj = verify.quat_conj

    def spoiled(f, x):
        y = conj(f, x)
        return (f.radd(y[0], f.rmul(Q.a.raw, x[1])), f.radd(y[1], x[0]), *y[2:])

    monkeypatch.setattr(verify, "quat_conj", spoiled)
    _suite_lines_with_one_failure(field, seed, "quaternions.conj_antiautomorphism")


@pytest.mark.parametrize("field,seed", SUITE_CASES, ids=["root", "square", "etale"])
def test_verify_reports_a_split_image_with_one_wrong_coefficient(monkeypatch, field, seed):
    build = quaternions.SplitEmbedding.__init__

    def spoiled(self, alg):
        build(self, alg)
        (pos, m), *rest = self.terms[2]  # the first coefficient of the image of v, plus 1
        bad = ((pos, alg.field.radd(m, alg.field.rone)), *rest)
        self.terms = (*self.terms[:2], bad, self.terms[3])

    monkeypatch.setattr(quaternions.SplitEmbedding, "__init__", spoiled)
    _suite_lines_with_one_failure(field, seed, "quaternions.split_embedding")
