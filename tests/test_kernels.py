"""Property tests for the payload kernels against independent oracles.

Matrix products are checked against naive triple loops whose entry products
are expanded from the defining relations alone (u^2 = u + a, v^2 = b,
vu = (u + 1)v for quaternions, s^2 = e*s + c for etale rings), and the etale
product's zero shortcuts against its five-product formula; the etale
product with e != 1 against that reduction, on field payloads and on the
packed GF(2)[t] polynomials of the fraction-free Berkowitz; elimination
against A x = 0, dimension counts and, over GF(2), sympy's rank; the
quadratic-form kernels against the sum over i <= j and the polarization
identity; the GF(2)[t] polynomial kernels against sympy's Poly(modulus=2)
and against the generic GF(2^k)[t] branch through the embedding
GF(2)[t] -> GF(4)[t]; the generic branch against the division identity; the
GF(2^k)(t) normal form against cross-multiplied schoolbook fractions; the
bit-sliced GF(2^k) lane ring against the log-table payload arithmetic lane
by lane, and its Berkowitz run against one scalar run per lane.
"""

import random

import pytest

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from sympy import Poly, symbols
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from descriptor_layout import entries
from oracles import EtaleRing, QuatRing
from charform.fields import (
    GF2,
    GF2k,
    QuadraticExtension,
    etale_ops,
    gf2k,
    pcoeffs,
    pdeg,
    pdivmod,
    pgcd,
    pmake,
    pmul,
    psqrt,
    ratfunc,
    solve_artin_schreier,
)
from charform.forms import RawQuadraticForm
from charform.involutions import Index2Symp, Orthogonal, UnitaryEtale, UnitaryExchange
from charform.linalg import Mat, Span, charpoly_raw, kernel, rank
from charform.quaternions import Quat, QuaternionAlgebra

FIELDS = [GF2, gf2k(2), gf2k(3), ratfunc(GF2)]
# An example holds up to a few hundred field elements; shrinking a failing
# one takes minutes, so the full example is reported instead.
QUICK = settings(
    max_examples=15, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate)
)

T = symbols("t")


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def elements(field, nonzero=False):
    """Field elements; over GF(2)(t) quotients of polynomials of degree <= 2."""
    if isinstance(field, GF2k):
        return st.integers(1 if nonzero else 0, field.order - 1).map(field.el)
    num = st.integers(1 if nonzero else 0, 7)
    return st.tuples(num, st.integers(1, 7)).map(lambda nd: field.el(*nd))


def sparse(field, values):
    """Mostly-zero entries, as the matrices of the pipeline are."""
    return st.one_of(st.just(None), values).map(lambda e: field.zero if e is None else e)


def matrix(data, entries, n=4, m=4):
    return [[data.draw(entries) for _ in range(m)] for _ in range(n)]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def expand_word(word, rules, field):
    """The normal form of a word in the generators, as {word: coefficient},
    rewriting with rules (pattern, [(replacement, coefficient)]) until none
    applies."""
    out = {}
    todo = [(word, field.one)]
    while todo:
        w, c = todo.pop()
        for pattern, replacements in rules:
            i = w.find(pattern)
            if i >= 0:
                todo.extend((w[:i] + r + w[i + len(pattern) :], c * k) for r, k in replacements)
                break
        else:
            out[w] = out.get(w, field.zero) + c
    return out


def product_from_relations(basis, rules, field):
    """Bilinear product on coordinate tuples over the normal-form basis."""
    table = {(p, q): expand_word(p + q, rules, field) for p in basis for q in basis}

    def mul(x, y):
        acc = dict.fromkeys(basis, field.zero)
        for p, xp in zip(basis, x):
            for q, yq in zip(basis, y):
                for w, c in table[p, q].items():
                    acc[w] = acc[w] + xp * yq * c
        return tuple(acc[w] for w in basis)

    return mul


def quaternion_product(field, a, b):
    one = field.one
    rules = [("uu", [("u", one), ("", a)]), ("vv", [("", b)]), ("vu", [("uv", one), ("v", one)])]
    return product_from_relations(("", "u", "v", "uv"), rules, field)


def etale_product(field, c, e=None):
    """The product of x + y*s with s^2 = e*s + c (e = 1 by default)."""
    e = field.one if e is None else e
    return product_from_relations(("", "s"), [("ss", [("s", e), ("", c)])], field)


def naive_matmul(x, y, add, mul, zero):
    n, k, m = len(x), len(y), len(y[0])
    out = [[zero] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            for t in range(k):
                out[i][j] = add(out[i][j], mul(x[i][t], y[t][j]))
    return out


def fe_add(p, q):
    return p + q


def fe_mul(p, q):
    return p * q


def coord_add(p, q):
    return tuple(a + b for a, b in zip(p, q))


def flat(rows):
    """Row-major coordinates of a matrix of field elements or coordinate tuples."""
    return [c for row in rows for e in row for c in (e if isinstance(e, tuple) else (e,))]


def wrapped(desc, rows):
    """Rows of entry payloads (``entries``) as field elements, tuples of them when
    an entry has more than one coordinate."""
    wrap = desc.field._el
    if desc.k > 1:
        return [[tuple(map(wrap, e)) for e in row] for row in rows]
    return [list(map(wrap, row)) for row in rows]


def non_artin_schreier(field):
    """A c with x^2 + x = c unsolvable in the field."""
    if not isinstance(field, GF2k):
        return field.t
    return next(c for c in field.elements() if solve_artin_schreier(c) is None)


def rank_gf2(rows):
    K = GF(2)
    dm = DomainMatrix([[K(e.raw) for e in row] for row in rows], (len(rows), len(rows[0])), K)
    return dm.rank()


def to_poly(p):
    return Poly([int(bit) for bit in bin(p)[2:]], T, modulus=2)


def from_poly(poly):
    out = 0
    for c in poly.all_coeffs():
        out = (out << 1) | (int(c) % 2)
    return out


# ---------------------------------------------------------------------------
# matrix products
# ---------------------------------------------------------------------------


@QUICK
@given(st.sampled_from(FIELDS), st.data())
def test_quaternion_matrix_products(field, data):
    a = data.draw(elements(field))
    b = data.draw(elements(field, nonzero=True))
    us = [data.draw(elements(field, nonzero=True)) for _ in range(3)]
    desc = Index2Symp(field, QuaternionAlgebra(field, a, b), us)
    quat = desc.quat
    entry = st.tuples(*[sparse(field, elements(field))] * 4).map(lambda cs: Quat(quat, cs))
    x, y = matrix(data, entry), matrix(data, entry)
    coords = [[e.c for e in row] for row in x], [[e.c for e in row] for row in y]
    zero = (field.zero,) * 4
    expected = naive_matmul(*coords, coord_add, quaternion_product(field, a, b), zero)
    got_desc = desc.el_mul(*(tuple(e.raw for e in flat(m)) for m in coords))
    assert wrapped(desc, entries(desc, got_desc)) == expected
    got_mat = Mat(QuatRing(quat), x) * Mat(QuatRing(quat), y)
    assert [[e.c for e in row] for row in got_mat.rows] == expected


@QUICK
@given(st.sampled_from(FIELDS), st.data())
def test_etale_matrix_products(field, data):
    gram = [data.draw(elements(field, nonzero=True)) for _ in range(4)]
    c = non_artin_schreier(field)
    desc = UnitaryEtale(field, c, gram)
    center = EtaleRing(field, c)
    entry = st.tuples(*[sparse(field, elements(field))] * 2).map(lambda xy: center.el(*xy))
    x, y = matrix(data, entry), matrix(data, entry)
    coords = [[(e.x, e.y) for e in row] for row in x], [[(e.x, e.y) for e in row] for row in y]
    zero = (field.zero, field.zero)
    expected = naive_matmul(*coords, coord_add, etale_product(field, c), zero)
    got = desc.el_mul(*(tuple(e.raw for e in flat(m)) for m in coords))
    assert wrapped(desc, entries(desc, got)) == expected
    p, q = x[0][0], y[0][0]
    pq = p * q
    assert (pq.x, pq.y) == etale_product(field, c)((p.x, p.y), (q.x, q.y))


@settings(max_examples=200, deadline=None, phases=QUICK.phases)
@given(st.sampled_from([gf2k(2), ratfunc(GF2)]), st.data())
def test_etale_product_matches_five_products(field, data):
    # the shortcuts for zero operands and zero y parts change no payload
    c = non_artin_schreier(field)
    ring = QuadraticExtension(field, c)
    coord = sparse(field, elements(field))
    p, q = (data.draw(st.tuples(coord, coord)) for _ in range(2))
    (x1, y1), (x2, y2) = p, q
    expected = (x1 * x2 + c * (y1 * y2), x1 * y2 + y1 * x2 + y1 * y2)
    got = ring.rmul((x1.raw, y1.raw), (x2.raw, y2.raw))
    assert got == tuple(e.raw for e in expected)


@settings(max_examples=100, deadline=None, phases=QUICK.phases)
@given(st.sampled_from(FIELDS), st.data())
def test_etale_ops_with_linear_term(field, data):
    # s^2 = e*s + c with any e, as after the substitution r = q*s over F(t)
    c = data.draw(elements(field))
    e = data.draw(elements(field).filter(lambda x: x != field.one))
    coord = sparse(field, elements(field))
    p, q = (data.draw(st.tuples(coord, coord)) for _ in range(2))
    expected = etale_product(field, c, e)(p, q)
    add, mul = etale_ops(c.raw, field.rzero, field.radd, field.rmul, e.raw)
    raw = [tuple(x.raw for x in v) for v in (p, q)]
    assert mul(*raw) == tuple(x.raw for x in expected)
    assert add(*raw) == tuple((x + y).raw for x, y in zip(p, q))


@settings(max_examples=100, deadline=None, phases=QUICK.phases)
@given(st.data())
def test_etale_ops_on_packed_polynomials(data):
    # the ring GF(2)[t][r]/(r^2 + e*r + c) of the fraction-free Berkowitz
    R = ratfunc(GF2)
    poly = st.integers(0, 63)
    c, e = data.draw(poly), data.draw(poly.filter(lambda x: x != 1))
    p, q = (data.draw(st.tuples(poly, poly)) for _ in range(2))
    add, mul = etale_ops(c, 0, lambda x, y: x ^ y, lambda x, y: pmul(x, y, GF2), e)
    expected = etale_product(R, R.el(c), R.el(e))(*(tuple(map(R.el, v)) for v in (p, q)))
    assert mul(p, q) == tuple(x.raw[0] for x in expected)
    assert all(x.raw[1] == 1 for x in expected)


@QUICK
@given(st.sampled_from(FIELDS), st.data())
def test_field_matrix_products(field, data):
    entry = sparse(field, elements(field))
    x, y, x2, y2 = (matrix(data, entry) for _ in range(4))
    expected = naive_matmul(x, y, fe_add, fe_mul, field.zero)
    gram = [data.draw(elements(field, nonzero=True)) for _ in range(4)]
    orth = Orthogonal(field, gram)
    got_orth = orth.el_mul(*(tuple(e.raw for e in flat(m)) for m in (x, y)))
    assert wrapped(orth, entries(orth, got_orth)) == expected
    assert [list(r) for r in (Mat(field, x) * Mat(field, y)).rows] == expected
    exchange = UnitaryExchange(field)
    pair_x, pair_y = (tuple(c.raw for c in flat(e) + flat(f)) for e, f in ((x, x2), (y, y2)))
    got = exchange.el_mul(pair_x, pair_y)
    assert wrapped(exchange, entries(exchange, got)) == expected  # the E block
    # the E^op block multiplies in the opposite order
    assert wrapped(exchange, entries(exchange, got[16:])) == naive_matmul(
        y2, x2, fe_add, fe_mul, field.zero
    )


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


@QUICK
@given(st.sampled_from(FIELDS), st.data())
def test_kernel_solves_and_counts(field, data):
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, 6))
    a = matrix(data, sparse(field, elements(field)), n, m)
    a_raw = [[e.raw for e in row] for row in a]
    basis = kernel(a_raw, field)
    for v in basis:
        x = [field._el(c) for c in v]
        assert all(sum((r * c for r, c in zip(row, x)), field.zero) == field.zero for row in a)
    r = rank(a_raw, field)
    assert len(basis) == m - r
    assert not basis or rank(basis, field) == len(basis)
    if field is GF2:
        assert r == rank_gf2(a)


@QUICK
@given(st.sampled_from(FIELDS), st.data())
def test_span_input_coords_reconstruct(field, data):
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, 6))
    vectors = matrix(data, sparse(field, elements(field)), n, m)
    cs = [data.draw(elements(field)) for _ in range(n)]
    v = [sum((c * vec[j] for c, vec in zip(cs, vectors)), field.zero) for j in range(m)]
    vectors_raw = [[e.raw for e in vec] for vec in vectors]
    span = Span(vectors_raw, field)
    coords = span.input_coords([e.raw for e in v])
    assert coords is not None
    coords = list(map(field._el, coords))
    rebuilt = [sum((c * vec[j] for c, vec in zip(coords, vectors)), field.zero) for j in range(m)]
    assert rebuilt == v
    assert span.contains([e.raw for e in v])
    assert span.dim == rank(vectors_raw, field)


# ---------------------------------------------------------------------------
# quadratic forms
# ---------------------------------------------------------------------------


@QUICK
@given(st.sampled_from(FIELDS), st.data())
def test_form_evaluate_and_polar(field, data):
    n = data.draw(st.integers(1, 5))
    entry = sparse(field, elements(field))
    u = [[data.draw(entry) if j >= i else field.zero for j in range(n)] for i in range(n)]
    q = RawQuadraticForm(field, u)
    v = [data.draw(entry) for _ in range(n)]
    w = [data.draw(entry) for _ in range(n)]

    def direct(x):
        terms = (u[i][j] * x[i] * x[j] for i in range(n) for j in range(i, n))
        return sum(terms, field.zero)

    assert q.evaluate([a.raw for a in v]) == direct(v)
    vw = [a + b for a, b in zip(v, w)]
    assert q.polar([a.raw for a in v], [a.raw for a in w]) == direct(vw) + direct(v) + direct(w)


# ---------------------------------------------------------------------------
# polynomial kernels
# ---------------------------------------------------------------------------

# operands of the F(t) verify suite reach degree 40
PACKED = st.integers(0, (1 << 48) - 1)
GF4 = gf2k(2)


def embed_gf4(p):
    """The GF(2)[t] polynomial p as an element of GF(4)[t] (bit i -> slot i)."""
    return pmake([int(bit) for bit in bin(p)[:1:-1]], GF4)


def unembed_gf4(p):
    coeffs = pcoeffs(p, GF4)
    assert set(coeffs) <= {0, 1}
    return sum(c << i for i, c in enumerate(coeffs))


def packed(base, max_degree=12):
    return st.lists(st.integers(0, base.order - 1), max_size=max_degree + 1).map(
        lambda cs: pmake(cs, base)
    )


@settings(max_examples=60, deadline=None, phases=QUICK.phases)
@given(PACKED, PACKED, PACKED.filter(bool))
@example(0, 0, 1)
def test_gf2_branch_matches_generic_branch(a, b, c):
    ea, eb, ec = embed_gf4(a), embed_gf4(b), embed_gf4(c)
    assert unembed_gf4(ea) == a
    assert unembed_gf4(pmul(ea, eb, GF4)) == pmul(a, b, GF2)
    q, r = pdivmod(ea, ec, GF4)
    assert (unembed_gf4(q), unembed_gf4(r)) == pdivmod(a, c, GF2)
    assert unembed_gf4(pgcd(ea, eb, GF4)) == pgcd(a, b, GF2)
    assert unembed_gf4(pgcd(ea, ec, GF4)) == pgcd(a, c, GF2)


@settings(max_examples=60, deadline=None, phases=QUICK.phases)
@given(st.sampled_from([GF4, gf2k(3)]), st.data())
def test_generic_branch_division_identity_and_gcd(base, data):
    a = data.draw(packed(base))
    b = data.draw(packed(base).filter(bool))
    q, r = pdivmod(a, b, base)
    assert pmul(q, b, base) ^ r == a
    assert pdeg(r, base.k) < pdeg(b, base.k)
    c = data.draw(packed(base, 4).filter(bool))
    for x, y in ((a, b), (pmul(a, c, base), pmul(b, c, base))):
        g = pgcd(x, y, base)
        assert pcoeffs(g, base)[-1] == 1
        assert pdivmod(x, g, base)[1] == 0 and pdivmod(y, g, base)[1] == 0
    assert pdivmod(g, c, base)[1] == 0  # a common factor divides the gcd


@settings(max_examples=60, deadline=None, phases=QUICK.phases)
@given(PACKED, PACKED.filter(bool))
def test_pdivmod_and_pgcd_match_sympy(a, b):
    q, r = pdivmod(a, b, GF2)
    sq, sr = to_poly(a).div(to_poly(b))
    assert (q, r) == (from_poly(sq), from_poly(sr))
    assert pgcd(a, b, GF2) == from_poly(to_poly(a).gcd(to_poly(b)))


@settings(max_examples=60, deadline=None, phases=QUICK.phases)
@given(PACKED, st.integers(0, (1 << 6) - 1))
def test_psqrt_matches_sympy(p, r):
    root = psqrt(p, GF2)
    if root is None:
        assert not to_poly(p).diff(T).is_zero  # in characteristic 2, squares have p' = 0
    else:
        assert to_poly(root) ** 2 == to_poly(p)
    assert psqrt(from_poly(to_poly(r) ** 2), GF2) == r


# ---------------------------------------------------------------------------
# GF(2^k)(t) normal form
# ---------------------------------------------------------------------------


def ratfunc_elements(field):
    """0, 1, polynomials (den 1) and fractions with a denominator other
    than 0 and 1 (non-monic constants included)."""
    poly = packed(field.base, 5)
    fraction = st.tuples(poly, poly.filter(lambda d: d > 1))
    return st.one_of(
        st.sampled_from([field.zero, field.one]),
        poly.map(field.el),
        fraction.map(lambda nd: field.el(*nd)),
    )


def assert_normal(field, raw):
    num, den = raw
    base = field.base
    assert pcoeffs(den, base)[-1] == 1
    assert pgcd(num, den, base) == 1 or (num, den) == (0, 1)


@settings(max_examples=80, deadline=None, phases=QUICK.phases)
@given(st.sampled_from([ratfunc(GF2), ratfunc(GF4)]), st.data())
def test_ratfunc_operations_keep_normal_form(field, data):
    base = field.base
    x = data.draw(ratfunc_elements(field))
    y = data.draw(ratfunc_elements(field))
    (na, da), (nb, db) = x.raw, y.raw

    def same_fraction(raw, num, den):
        return pmul(raw[0], den, base) == pmul(num, raw[1], base)

    s = field.radd(x.raw, y.raw)
    assert_normal(field, s)
    assert same_fraction(s, pmul(na, db, base) ^ pmul(nb, da, base), pmul(da, db, base))
    m = field.rmul(x.raw, y.raw)
    assert_normal(field, m)
    assert same_fraction(m, pmul(na, nb, base), pmul(da, db, base))
    if na:
        i = field.rinv(x.raw)
        assert_normal(field, i)
        assert same_fraction(i, da, na)


# ---------------------------------------------------------------------------
# bit-sliced GF(2^k) lanes
# ---------------------------------------------------------------------------

LANE_FIELDS = [GF2, gf2k(2), gf2k(3), gf2k(9)]


@settings(max_examples=60, deadline=None, phases=QUICK.phases)
@given(st.sampled_from(LANE_FIELDS), st.data())
def test_lane_ring_matches_payload_ops(field, data):
    n = data.draw(st.integers(1, 70))
    payloads = st.lists(st.integers(0, field.order - 1), min_size=n, max_size=n)
    a, b = data.draw(payloads), data.draw(payloads)
    zero, one, add, mul = field.lanes(n)
    la, lb = field.to_lanes(a), field.to_lanes(b)
    assert field.from_lanes(la, n) == a
    assert field.from_lanes(add(la, lb), n) == list(map(field.radd, a, b))
    assert field.from_lanes(mul(la, lb), n) == list(map(field.rmul, a, b))
    assert field.from_lanes(zero, n) == [field.rzero] * n
    assert field.from_lanes(one, n) == [field.rone] * n
    assert field.from_lanes(field.lane_scalar(a[0], n), n) == [a[0]] * n


@pytest.mark.parametrize("field", LANE_FIELDS, ids=lambda f: f.text())
def test_lane_berkowitz_matches_scalar_runs(field):
    rng = random.Random(field.k)
    n = 40

    def entry():
        return rng.randrange(field.order) if rng.random() < 0.7 else field.rzero

    mats = [[[entry() for _ in range(8)] for _ in range(8)] for _ in range(n)]
    zero, one, add, mul = field.lanes(n)
    rows = [[field.to_lanes([m[r][j] for m in mats]) for j in range(8)] for r in range(8)]
    coeffs = [field.from_lanes(c, n) for c in charpoly_raw(rows, zero, one, add, mul)]
    for lane, m in enumerate(mats):
        scalar = charpoly_raw(m, field.rzero, field.rone, field.radd, field.rmul)
        assert [c[lane] for c in coeffs] == scalar
