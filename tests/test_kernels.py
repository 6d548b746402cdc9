"""Property tests for the payload kernels against independent oracles.

Matrix products are checked against naive triple loops whose entry products
are expanded from the defining relations alone (u^2 = u + a, v^2 = b,
vu = (u + 1)v for quaternions, s^2 = e*s + c for etale rings), and the etale
product's zero shortcuts against its five-product formula; the etale
product with e != 1 against that reduction, on field payloads and on the
packed GF(2)[t] polynomials of the fraction-free Berkowitz; elimination
against A x = 0, dimension counts and, over GF(2), sympy's rank; the
quadratic-form kernels against the sum over i <= j and the polarization
identity, ``normalize`` against the polar-based reduction of
``oracles.normalize_by_polar`` and ``restrict`` against one evaluate or
polar call per entry, block matching against forms pulled back through
invertible matrices; the GF(2)[t] polynomial kernels against sympy's Poly(modulus=2)
and against the generic GF(2^k)[t] branch through the embedding
GF(2)[t] -> GF(4)[t]; the generic branch against the division identity; the
GF(2^k)(t) normal form against cross-multiplied schoolbook fractions, and
its product, which skips the gcd after the two cross gcds, against the
normal form of the full product; the bit-sliced GF(2^k) lane ring against the log-table payload arithmetic lane
by lane, its Berkowitz run against one scalar run per lane, and the unpack
of the first lanes against the full unpack; the Berkowitz driver over
GF(2)(t) and GF(4)(t), on lanes that sum random elements by random masks,
against Berkowitz on matrices of field or etale ring objects (centres p/q)
and against one fraction-free run per lane.
"""

import functools
import itertools
import random

import pytest

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from sympy import Poly, symbols
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from descriptor_layout import entries
from oracles import EtaleRing, QuatRing, charpoly, normalize_by_polar, polar, to_lanes
from charform import fields
from charform.fields import (
    GF2,
    Fe,
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
from charform.forms import RawQuadraticForm, blocks_match_upto_squares, form, normalize
from charform.involutions import (
    Index2Symp,
    Orthogonal,
    SplitSymp,
    UnitaryEtale,
    UnitaryExchange,
    symmetric_space,
)
from charform.linalg import Mat, Span, charpoly_raw, kernel, rank, unit_vector
from charform.quaternions import Quat, QuaternionAlgebra

FIELDS = [GF2, gf2k(2), gf2k(3), ratfunc(GF2)]
# the algebra products also run over GF(4)(t), whose numerators multiply
# slot by slot
PRODUCT_FIELDS = [*FIELDS, ratfunc(gf2k(2))]
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
    """Field elements; over GF(2^k)(t) quotients whose numerator and
    denominator are each a small packed polynomial (an int below 8) times a
    product of t, t + 1 and t^2 + t + 1, so that denominators share factors
    with each other and with numerators."""
    if isinstance(field, GF2k):
        return st.integers(1 if nonzero else 0, field.order - 1).map(field.el)
    base = field.base
    factors = [pmake(cs, base) for cs in ([0, 1], [1, 1], [1, 1, 1])]

    def times_factors(pm):
        p, mask = pm
        for i, f in enumerate(factors):
            if mask >> i & 1:
                p = pmul(p, f, base)
        return p

    num = st.tuples(st.integers(1 if nonzero else 0, 7), st.integers(0, 7)).map(times_factors)
    den = st.tuples(st.integers(1, 7), st.integers(0, 7)).map(times_factors)
    return st.tuples(num, den).map(lambda nd: field.el(*nd))


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
@given(st.sampled_from(PRODUCT_FIELDS), st.data())
def test_quaternion_matrix_products(field, data):
    # rational slots a, b make the unit products fractions
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
@given(st.sampled_from(PRODUCT_FIELDS), st.data())
def test_etale_matrix_products(field, data):
    gram = [data.draw(elements(field, nonzero=True)) for _ in range(4)]
    c = non_artin_schreier(field)
    if not isinstance(field, GF2k) and data.draw(st.booleans()):
        c = c.inv()  # 1/t, an odd valuation too: the unit products are fractions
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
@given(st.sampled_from(PRODUCT_FIELDS), st.data())
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


@pytest.mark.parametrize("base", [GF2, gf2k(2)], ids=lambda f: f.text())
def test_a_dense_ratfunc_product_normalises_each_coordinate_once(base, monkeypatch):
    # the operands are cleared to numerators over one denominator each, so
    # the gcds are the lcms of their few denominators and one per coordinate
    field = ratfunc(base)
    t, one = field.t, field.one
    desc = Index2Symp(field, QuaternionAlgebra(field, one / t, t + one), (one, t, t + one))
    rng = random.Random(11)
    dens = [one, t, t + one, t * (t + one), t * t + t + one]

    def dense():
        return tuple((field.rand_nonzero(rng) / rng.choice(dens)).raw for _ in range(desc.ambient_dim))

    x, y = dense(), dense()
    gcds = []
    pgcd_ = fields.pgcd
    monkeypatch.setattr(fields, "pgcd", lambda *args: gcds.append(args) or pgcd_(*args))
    got = desc.el_mul(x, y)
    # an lcm of m denominators other than 1 takes m - 1 gcds
    lcm_gcds = sum(len({d for _, d in v} - {1}) - 1 for v in (x, y))
    assert len(gcds) <= desc.ambient_dim + lcm_gcds
    monkeypatch.undo()
    quat = desc.quat
    xq, yq = ([[Quat(quat, e) for e in row] for row in wrapped(desc, entries(desc, v))] for v in (x, y))
    expected = (Mat(QuatRing(quat), xq) * Mat(QuatRing(quat), yq)).rows
    assert wrapped(desc, entries(desc, got)) == [[e.c for e in row] for row in expected]


SYMMETRIZED_FIELDS = [GF2, gf2k(2), ratfunc(GF2)]


def descriptor(kind, field, data):
    """A descriptor of the kind with random nonzero slots and Gram entries."""
    nonzero = elements(field, nonzero=True)
    if kind == "split_symp":
        return SplitSymp(field)
    if kind == "index2_symp":
        quat = QuaternionAlgebra(field, data.draw(elements(field)), data.draw(nonzero))
        return Index2Symp(field, quat, [data.draw(nonzero) for _ in range(3)])
    if kind == "unitary_exchange":
        return UnitaryExchange(field)
    gram = [data.draw(nonzero) for _ in range(4)]
    if kind == "unitary_etale":
        return UnitaryEtale(field, non_artin_schreier(field), gram)
    return Orthogonal(field, gram)


@settings(max_examples=20, deadline=None, phases=QUICK.phases)
@given(st.sampled_from(SYMMETRIZED_FIELDS), st.data())
@pytest.mark.parametrize(
    "kind", ["split_symp", "index2_symp", "unitary_exchange", "unitary_etale", "orthogonal"]
)
def test_symmetrized_product_is_xy_plus_yx(kind, field, data):
    # sigma reverses products, so x*y + sigma(x*y) = xy + yx for symmetric x, y
    desc = descriptor(kind, field, data)
    space = symmetric_space(desc)
    entry = sparse(field, elements(field))
    x, y = (space.element([data.draw(entry).raw for _ in range(space.dim)]) for _ in range(2))
    assert desc.symmetrized(desc.el_mul(x, y)) == desc.el_add(desc.el_mul(x, y), desc.el_mul(y, x))
    # coordinate 1 is not symmetric in any kind, and breaks it against y = 1
    e1, one = tuple(unit_vector(field, desc.ambient_dim, 1)), desc.one_el()
    xy = desc.el_mul(e1, one)
    assert desc.symmetrized(xy) != desc.el_add(xy, desc.el_mul(one, e1))


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
    for i in range(n):  # one nonzero payload: q(e_i) = U[i][i]
        assert q.evaluate([field.rone if j == i else field.rzero for j in range(n)]) == u[i][i]
    vw = [a + b for a, b in zip(v, w)]
    expected = direct(vw) + direct(v) + direct(w)
    assert polar(q, [a.raw for a in v], [a.raw for a in w]) == expected
    bv = q.polar_vector([a.raw for a in v])
    assert sum((field._el(b) * c for b, c in zip(bv, w)), field.zero) == expected


def restrict_by_polar(q, vectors):
    """The restriction with one evaluate (diagonal) or polar (above it) per entry."""
    n = len(vectors)
    u = [[q.field.zero] * n for _ in range(n)]
    for i in range(n):
        u[i][i] = q.evaluate(vectors[i])
        for j in range(i + 1, n):
            u[i][j] = polar(q, vectors[i], vectors[j])
    return RawQuadraticForm(q.field, u)


def raw_form(data, field, n, entry):
    u = [[data.draw(entry) if j >= i else field.zero for j in range(n)] for i in range(n)]
    return RawQuadraticForm(field, u)


def payload_vectors(data, field, count, n):
    entry = sparse(field, elements(field))
    return [[data.draw(entry).raw for _ in range(n)] for _ in range(count)]


@settings(max_examples=60, deadline=None, phases=QUICK.phases)
@given(st.sampled_from(FIELDS), st.sampled_from(["sparse", "dense", "radical"]), st.data())
def test_normalize_matches_polar_reduction(field, shape, data):
    n = data.draw(st.integers(1, 10))
    if shape == "radical":
        # pulled back from dimension m < n, so the radical has dimension >= n - m
        m = data.draw(st.integers(1, max(1, n - 1)))
        base = raw_form(data, field, m, sparse(field, elements(field)))
        q = restrict_by_polar(base, payload_vectors(data, field, n, m))
    else:
        entry = elements(field, nonzero=True) if shape == "dense" else sparse(field, elements(field))
        q = raw_form(data, field, n, entry)
    assert normalize(q) == normalize_by_polar(q)


@settings(max_examples=60, deadline=None, phases=QUICK.phases)
@given(st.sampled_from(FIELDS), st.data())
def test_restrict_matches_entrywise_polar(field, data):
    n = data.draw(st.integers(1, 10))
    q = raw_form(data, field, n, sparse(field, elements(field)))
    vectors = payload_vectors(data, field, data.draw(st.integers(1, 6)), n)
    assert q.restrict(vectors).u == restrict_by_polar(q, vectors).u


def invertible_rows(data, field, n):
    """The rows of the identity under random elementary row operations."""
    rows = [[field.rone if j == i else field.rzero for j in range(n)] for i in range(n)]
    for _ in range(data.draw(st.integers(0, 3 * n))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        c = data.draw(elements(field, nonzero=True)).raw
        if i == j:
            rows[i] = [field.rmul(c, a) for a in rows[i]]
        else:
            rows[i] = [field.radd(a, field.rmul(c, b)) for a, b in zip(rows[i], rows[j])]
    return rows


@settings(max_examples=60, deadline=None, phases=QUICK.phases)
@given(st.sampled_from(FIELDS), st.data())
def test_block_matching_never_refutes_an_isometry(field, data):
    # a nonsingular form and its normal form after a change of basis are isometric
    block = st.tuples(elements(field), elements(field))
    q = form(field, data.draw(st.lists(block, min_size=1, max_size=3)))
    pulled = normalize(q.to_raw().restrict(invertible_rows(data, field, q.dim)))[0]
    dec = blocks_match_upto_squares(pulled, q)
    assert not dec.is_false
    assert dec.is_true or not isinstance(field, GF2k)


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


@settings(max_examples=100, deadline=None, phases=QUICK.phases)
@given(st.sampled_from([ratfunc(GF2), ratfunc(GF4)]), st.data())
def test_ratfunc_product_needs_no_gcd_after_the_cross_gcds(field, data):
    # denominators that share factors with each other and with the numerators
    fraction = elements(field, nonzero=True).filter(lambda e: e.raw[1] != 1)
    x = data.draw(fraction)
    y = data.draw(st.one_of(fraction, elements(field)))
    (na, da), (nb, db) = x.raw, y.raw
    base = field.base
    assert field.rmul(x.raw, y.raw) == field._norm(pmul(na, nb, base), pmul(da, db, base))
    assert field.rmul(y.raw, x.raw) == field.rmul(x.raw, y.raw)


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
    la, lb = to_lanes(field, a), to_lanes(field, b)
    assert field.from_lanes(la, n) == a
    assert field.from_lanes(add(la, lb), n) == list(map(field.radd, a, b))
    assert field.from_lanes(mul(la, lb), n) == list(map(field.rmul, a, b))
    assert field.from_lanes(zero, n) == [field.rzero] * n
    assert field.from_lanes(one, n) == [field.rone] * n
    assert field.from_lanes(field.lane_scalar(a[0], n), n) == [a[0]] * n


@settings(max_examples=60, deadline=None, phases=QUICK.phases)
@given(st.sampled_from(LANE_FIELDS), st.data())
def test_from_lanes_unpacks_the_first_lanes(field, data):
    # the selective unpack of the first m lanes is a prefix of the full unpack
    n = data.draw(st.integers(1, 450))
    m = data.draw(st.integers(0, n))
    payloads = data.draw(st.lists(st.integers(0, field.order - 1), min_size=n, max_size=n))
    value = to_lanes(field, payloads)
    assert field.from_lanes(value, n) == payloads
    assert field.from_lanes(value, m) == field.from_lanes(value, n)[:m]


@pytest.mark.parametrize("field", LANE_FIELDS, ids=lambda f: f.text())
def test_lane_berkowitz_matches_scalar_runs(field):
    rng = random.Random(field.k)
    n = 40

    def entry():
        return rng.randrange(field.order) if rng.random() < 0.7 else field.rzero

    mats = [[[entry() for _ in range(8)] for _ in range(8)] for _ in range(n)]
    zero, one, add, mul = field.lanes(n)
    rows = [[to_lanes(field, [m[r][j] for m in mats]) for j in range(8)] for r in range(8)]
    coeffs = [field.from_lanes(c, n) for c in charpoly_raw(rows, zero, one, add, mul)]
    for lane, m in enumerate(mats):
        scalar = charpoly_raw(m, field.rzero, field.rone, field.radd, field.rmul)
        assert [c[lane] for c in coeffs] == scalar


# ---------------------------------------------------------------------------
# the Berkowitz driver over GF(2^k)(t)
# ---------------------------------------------------------------------------


def object_charpoly(desc, x):
    """Berkowitz (``oracles.charpoly``) on the entries of x as field objects,
    or as etale ring objects whose coefficients must have zero y parts."""
    field, rows = desc.field, entries(desc, x)
    if desc.k == 1:
        return charpoly(Mat(field, [[field._el(a) for a in row] for row in rows]))
    ring = EtaleRing(field, desc.c)
    coeffs = charpoly(Mat(ring, [[ring._el(a) for a in row] for row in rows]))
    assert all(not e.y for e in coeffs)
    return [e.x for e in coeffs]


@settings(max_examples=30, deadline=None, phases=QUICK.phases)
@given(st.sampled_from([ratfunc(GF2), ratfunc(gf2k(2))]), st.booleans(), st.data())
def test_ratfunc_driver_matches_object_and_fraction_free_runs(field, etale, data):
    # low-degree 4x4 matrices over F(t), or symmetric ones over F(t)[s] with
    # s^2 + s = c for a centre c = p/q (q != 1 nearly always), summed into
    # lanes by random masks: the driver's evaluation and interpolation agree
    # with Berkowitz on objects and with one scalar run per lane, whose X^(n-1)
    # coefficient is Trd; Trd(x*y) on the two split matrices is Trd of the product
    gram = [data.draw(elements(field, nonzero=True)) for _ in range(4)]
    entries16 = st.lists(sparse(field, elements(field)), min_size=16, max_size=16)
    if etale:
        c = data.draw(
            elements(field, nonzero=True).filter(
                lambda c: not isinstance(solve_artin_schreier(c), Fe)
            )
        )
        desc = UnitaryEtale(field, c, gram)
        space = symmetric_space(desc)  # reduced coefficients of Sym lie in F

        def draw():
            return space.element([a.raw for a in data.draw(entries16)])

    else:
        desc = Orthogonal(field, gram)

        def draw():
            return tuple(a.raw for a in data.draw(entries16))

    xs = [draw() for _ in range(data.draw(st.integers(1, 3)))]
    lanes = st.integers(1, (1 << data.draw(st.integers(1, 4))) - 1)
    masks = [data.draw(lanes) for _ in xs]
    for lane, pc in enumerate(desc.reduced_charpolys(xs, masks)):
        x = functools.reduce(
            desc.el_add, (x for x, m in zip(xs, masks) if m >> lane & 1), desc.zero_el()
        )
        assert pc == object_charpoly(desc, x)
        assert pc == desc.reduced_charpoly(x)  # the scalar run on the shared builder
        assert desc.trd(x) == pc[-2]
    for x, y in itertools.product(xs, repeat=2):
        assert desc.trd_product(x, y) == desc.trd(desc.el_mul(x, y))
