"""Involution algebra tests.

Characteristic polynomial values are cross-checked against a cofactor-
expansion determinant oracle over polynomial entries, against Berkowitz on
matrices of entry-ring objects (the splitting image over F or over the etale
ring F[s]/(s^2 + s + a), the etale entries of the unitary algebra, the field
entries of the E block), and against closed forms for projectors and block
elements.  The batched Berkowitz driver at the points e_i and e_i + e_j
(bit-sliced lanes over GF(2^k), whose point masks are checked against the
packed points; evaluation and interpolation over GF(2^k)(t), on every F(t)
golden and on a high-degree descriptor that needs several lane runs) is
checked against one scalar run per point, and must refuse an interpolated
value outside the base field and a degree no GF(2^m), m <= 16, can
interpolate.  The trace forms
read off the points are checked against the Pfaffian or characteristic
coefficient of random elements, the Pfaffian trace read off the e_i against
that of random elements, and the Pfaffian form must refuse a point whose
charpoly is not a Pfaffian square.  The symmetric space (one elimination,
coordinates at the pivots) is checked against the kernel-then-rref oracle
on every golden, and the readback of GF(2^k) inside GF(2^m) against a bit
elimination for every k | m <= 16.
"""

import json
import random
from pathlib import Path

import pytest

from descriptor_layout import entries
from oracles import (
    EtaleRing,
    QuatRing,
    SplitImages,
    charpoly,
    poly_eval_matrix,
    poly_mul,
    q_conj,
    q_nrd,
    readback_by_bit_elimination,
    symmetric_space_by_kernel,
    to_lanes,
)
from charform import involutions, linalg
from charform.errors import (
    CharformError,
    CoefficientNotRational,
    NotPfaffian,
    ShapeMismatch,
    UnsupportedDescriptor,
)
from charform.fields import GF2, RatFunc, gf2k, ratfunc, solve_artin_schreier
from charform.forms import candidates, normalize
from charform.involutions import (
    Descriptor,
    Index2Symp,
    Orthogonal,
    SplitSymp,
    UnitaryEtale,
    UnitaryExchange,
    det_orthogonal,
    pfaffian_form,
    reduced_pfaffian,
    second_trace_form,
    symmetric_space,
)
from charform.linalg import Mat, Span, rank, unit_vector
from charform.quaternions import QuaternionAlgebra
from charform.serialize import descriptor_from_json

F4 = gf2k(2)
F8 = gf2k(3)
R2 = ratfunc(GF2)
R4 = ratfunc(F4)


def idx2(field, a, b, us):
    return Index2Symp(field, QuaternionAlgebra(field, a, b), us)


def quat_element(desc, placed):
    """The element with the quaternion q at (i, j) for each (i, j) -> q."""
    v = [desc.field.zero] * desc.ambient_dim
    for (i, j), q in placed.items():
        v[(4 * i + j) * 4 : (4 * i + j + 1) * 4] = q.c
    return tuple(a.raw for a in v)


def quat_matrix(desc, x):
    """The element x as a Mat of quaternions, for the splitting embedding."""
    R = QuatRing(desc.quat)
    return Mat(R, [[R._el(e) for e in row] for row in entries(desc, x)])


# --- oracle: char poly by cofactor expansion over polynomial entries ---------


def poly_charpoly_oracle(m, field):
    """det(X*I + M) by cofactor expansion with list polynomials."""
    n = m.shape[0]
    entries = [
        [
            [m.rows[i][j]] if i != j else [m.rows[i][j], field.one]
            for j in range(n)
        ]
        for i in range(n)
    ]

    def det(rows):
        size = len(rows)
        if size == 1:
            return rows[0][0]
        acc = [field.zero]
        for j in range(size):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = poly_mul(rows[0][j], det(minor), field)
            acc = [
                a + b
                for a, b in zip(
                    acc + [field.zero] * (len(term) - len(acc)),
                    term + [field.zero] * (len(acc) - len(term)),
                )
            ]
        return acc

    out = det(entries)
    return out + [field.zero] * (n + 1 - len(out))


def _gen(field):
    return field.t if isinstance(field, RatFunc) else field.gen


def _non_artin_schreier(field):
    """A c with x^2 + x = c unsolvable in the field."""
    if isinstance(field, RatFunc):
        return field.t
    return next(c for c in field.elements() if solve_artin_schreier(c) is None)


def _gram(field):
    """A Gram diagonal (g, 1, g + 1, 1/g), or 1 over GF(2), where no other exists."""
    g, one = _gen(field), field.one
    return (one,) * 4 if g == one else (g, one, g + one, one / g)


SIGMA_FIELDS = {"gf2": GF2, "gf4": F4, "gf8": F8, "r2": R2}


def _involution_descs(field):
    """One descriptor of each kind, with non-unit Grams where the field has them."""
    g, one, gram = _gen(field), field.one, _gram(field)
    return [
        SplitSymp(field),
        idx2(field, g, one, gram[1:]),
        UnitaryExchange(field),
        UnitaryEtale(field, _non_artin_schreier(field), gram),
        Orthogonal(field, gram),
    ]


def test_involution_is_involutive_and_antimultiplicative():
    rng = random.Random(3)
    for desc in (d for field in (F4, F8, R2) for d in _involution_descs(field)):
        one = desc.one_el()
        assert desc.involve(one) == one
        for _ in range(20):
            x, y = desc.rand(rng), desc.rand(rng)
            assert desc.involve(desc.involve(x)) == x
            assert desc.involve(desc.el_mul(x, y)) == desc.el_mul(
                desc.involve(y), desc.involve(x)
            )


def _diag(ring, values):
    n = len(values)
    return Mat(ring, [[v if i == j else ring.zero for j in range(n)] for i, v in enumerate(values)])


@pytest.mark.parametrize("name", ["gf2", "gf4", "r2"])
@pytest.mark.parametrize("kind", ["index2_symp", "unitary_etale", "orthogonal"])
def test_sigma_is_the_closed_form(name, kind):
    # sigma(x) = G^-1 conj(x)^t G on a matrix of Quat, EtaleElement or Fe entries
    field = SIGMA_FIELDS[name]
    gram = _gram(field)
    if kind == "index2_symp":
        desc = idx2(field, _gen(field), field.one, gram[1:])
        ring = QuatRing(desc.quat)
        conj, lift = q_conj, ring.scalar
        gram = (field.one,) + gram[1:]
    elif kind == "unitary_etale":
        desc = UnitaryEtale(field, _non_artin_schreier(field), gram)
        ring = EtaleRing(field, desc.c)
        conj, lift = (lambda e: e.conj()), ring.lift
    else:
        desc = Orthogonal(field, gram)
        ring, conj, lift = field, lambda e: e, lambda g: g

    def matrix(x):
        return [[ring._el(e) for e in row] for row in entries(desc, x)]

    left = _diag(ring, [lift(g.inv()) for g in gram])
    right = _diag(ring, [lift(g) for g in gram])
    rng = random.Random(37)
    for _ in range(4):
        x = desc.rand(rng)
        m = matrix(x)
        conj_t = Mat(ring, [[conj(m[j][i]) for j in range(4)] for i in range(4)])
        assert matrix(desc.involve(x)) == [list(r) for r in (left * conj_t * right).rows]


@pytest.mark.parametrize("name", ["gf2", "gf4", "r2"])
def test_exchange_sigma_swaps_the_blocks(name):
    desc = UnitaryExchange(SIGMA_FIELDS[name])
    rng = random.Random(41)
    for _ in range(4):
        x = desc.rand(rng)
        sx = desc.involve(x)
        assert entries(desc, sx) == entries(desc, x[16:])
        assert entries(desc, sx[16:]) == entries(desc, x[:16])


@pytest.mark.parametrize("name", ["gf4", "r2"])
@pytest.mark.parametrize("defect", ["scaled", "shifted", "extra_term"])
def test_a_sigma_table_that_is_not_an_involution_is_rejected(name, defect):
    field = SIGMA_FIELDS[name]
    g = (R2.t if field is R2 else field.gen).raw
    one = field.rone
    # the block swap e_i -> e_(i+16 mod 32) of the exchange algebra, spoiled
    bad = [(((i + 16) % 32, one),) for i in range(32)]
    if defect == "scaled":  # sigma^2 = g^2
        bad = [((j, g),) for ((j, _),) in bad]
    elif defect == "shifted":  # sigma^2(e_i) = e_(i+2)
        bad = [(((i + 1) % 32, one),) for i in range(32)]
    else:  # sigma(e_0) = e_16 + e_17, so sigma^2(e_0) = e_0 + e_1
        bad[0] += ((17, one),)
    split = [((i, one),) for i in range(16)] + [()] * 16  # the E block, as UnitaryExchange
    with pytest.raises(UnsupportedDescriptor, match="not an involution"):
        involutions._MatrixDescriptor(field, 1, ((((0, one),),),), bad, split, 4)


def test_descriptors_share_one_skeleton_per_entry_size():
    # the structure constants less the entry ring are one skeleton per k; a
    # descriptor keeps only the k x k products of its ring's unit payloads
    a = idx2(F4, F4.gen, F4.one, (F4.gen, F4.one, F4.gen))
    b = idx2(F4, F4.one, F4.gen, (F4.one,) * 3)
    assert a._units != b._units and a._skeleton is b._skeleton is involutions._skeleton(4)
    others = [
        SplitSymp(F4),
        UnitaryEtale(F4, F4.gen, (F4.one,) * 4),
        Orthogonal(F4, (F4.one,) * 4),
        UnitaryExchange(F4),
    ]
    for desc in [a, b, *others]:
        k = desc.k
        assert desc._skeleton is involutions._skeleton(k) and not hasattr(desc, "_product")
        assert len(desc._units) == k and all(len(row) == k for row in desc._units)
        assert all(l < k for row in desc._units for terms in row for l, _ in terms)


def test_split_symp_sigma_is_conj_transpose():
    desc = SplitSymp(GF2)
    rng = random.Random(5)
    x = desc.rand(rng)
    sx = desc.involve(x)
    mx, msx = quat_matrix(desc, x), quat_matrix(desc, sx)
    for i in range(4):
        for j in range(4):
            assert msx.rows[i][j] == q_conj(mx.rows[j][i])


@pytest.mark.parametrize(
    "foreign",
    [
        lambda desc: quat_matrix(desc, desc.zero_el()),
        lambda desc: desc.one_el()[:-1],
        lambda desc: UnitaryExchange(desc.field).one_el(),
    ],
    ids=["mat", "short_tuple", "exchange_element"],
)
def test_foreign_elements_raise_shape_mismatch(foreign):
    desc = SplitSymp(GF2)
    x = foreign(desc)
    with pytest.raises(ShapeMismatch):
        desc.to_vec(x)
    with pytest.raises(ShapeMismatch):
        symmetric_space(desc).coords(x)


def test_symmetric_space_dimensions():
    assert symmetric_space(SplitSymp(GF2)).dim == 28
    assert symmetric_space(UnitaryExchange(GF2)).dim == 16
    assert symmetric_space(Orthogonal(GF2, (GF2.one,) * 4)).dim == 10
    assert symmetric_space(UnitaryEtale(GF2, GF2.one, (GF2.one,) * 4)).dim == 16


GOLDEN_DESCRIPTORS = Path(__file__).parent / "golden" / "descriptors"


def _golden_descriptor(name):
    path = GOLDEN_DESCRIPTORS / f"{name}.json"
    return descriptor_from_json(json.loads(path.read_text()))


INDEX2_GOLDENS = (
    "index2_symp_gf2",
    "index2_symp_gf2k2",
    "index2_symp_gf2k3",
    "index2_symp_gf2k3_nonsplit",
    "index2_symp_ratfunc_gf2",
    "index2_symp_ratfunc_gf2_etale",
    "index2_symp_ratfunc_gf2_nonpoly",
    "index2_symp_ratfunc_gf2k2",
)


def test_symmetric_space_halves():
    # the half of basis row i is one coordinate vector e_j, and row i is e_j + sigma(e_j)
    split = [SplitSymp(field) for field in (GF2, F4, F8, R2)]
    for desc in split + [_golden_descriptor(name) for name in INDEX2_GOLDENS]:
        field = desc.field
        space = symmetric_space(desc)
        assert len(space.halves) == space.dim == 28
        for k, b in enumerate(space.basis):
            h = space.half(unit_vector(field, space.dim, k))
            support = [j for j, a in enumerate(h) if a != field.rzero]
            assert len(support) == 1 and h[support[0]] == field.rone
            assert desc.el_add(h, desc.involve(h)) == b


@pytest.mark.parametrize(
    "make, height",
    [
        (lambda: SplitSymp(F8), 52),
        (lambda: _golden_descriptor("index2_symp_gf2k3"), 52),
        (lambda: _golden_descriptor("index2_symp_ratfunc_gf2"), 52),
        (lambda: _golden_descriptor("unitary_etale_gf2k3"), 28),
        (lambda: _golden_descriptor("unitary_exchange_gf2k3"), 32),
        (lambda: _golden_descriptor("orthogonal_ratfunc_gf2"), 16),
    ],
    ids=[
        "split_gf8",
        "index2_symp_gf2k3",
        "index2_symp_ratfunc_gf2",
        "unitary_etale_gf2k3",
        "unitary_exchange_gf2k3",
        "orthogonal_ratfunc_gf2",
    ],
)
def test_symmetric_space_reads_the_sigma_table(monkeypatch, make, height):
    # no involve call, no Span, and one elimination of the nonzero images
    # (plus the 4 fixed projectors for the orthogonal descriptor), with the
    # coordinates read at its pivots
    desc = make()
    involves, spans, heights = [], [], []
    involve, span_init, eliminate = Descriptor.involve, Span.__init__, linalg._eliminate

    def counted_involve(self, x):
        involves.append(None)
        return involve(self, x)

    def counted_span(self, vectors, field):
        spans.append(len(vectors))
        span_init(self, vectors, field)

    def counted_eliminate(rows, field):
        heights.append(len(rows))
        return eliminate(rows, field)

    monkeypatch.setattr(Descriptor, "involve", counted_involve)
    monkeypatch.setattr(Span, "__init__", counted_span)
    monkeypatch.setattr(linalg, "_eliminate", counted_eliminate)
    space = symmetric_space(desc)
    assert space.dim == involutions.CASE_DIMS[desc.case][0]
    assert not involves and not spans
    assert heights == [height]
    rng = random.Random(3)
    coords = space.rand_coords(rng)
    assert space.coords(space.element(coords)) == coords
    assert not involves and not spans and len(heights) == 1


ALL_GOLDENS = sorted(p.stem for p in GOLDEN_DESCRIPTORS.glob("*.json"))


@pytest.mark.parametrize("name", ALL_GOLDENS)
def test_symmetric_space_matches_the_kernel_oracle(name):
    # the one elimination gives the echelon basis, pivots and halves of the
    # kernel-then-rref construction, and the coordinates at the pivots agree
    # with those of a Span over the basis, on members and non-members
    desc = _golden_descriptor(name)
    space = symmetric_space(desc)
    basis, pivots, halves, span = symmetric_space_by_kernel(_golden_descriptor(name))
    assert (space.basis, space.pivots, space.halves) == (basis, pivots, halves)
    rng, field, misses = random.Random(name), desc.field, 0
    for _ in range(4):
        coords = space.rand_coords(rng)
        x = space.element(coords)
        assert space.coords(x) == span.coords(x) == coords
        z = list(x)
        z[rng.randrange(desc.ambient_dim)] = field.rrand(rng)
        for y in (desc.rand(rng), tuple(z)):
            assert space.coords(y) == span.coords(y)
            misses += span.coords(y) is None
    assert misses >= 4


def _readback(readback, v: int) -> int:
    return sum(sum(v >> p & 1 for p in bits) % 2 << b for b, bits in enumerate(readback))


@pytest.mark.parametrize(
    "k, m", [(k, m) for m in range(1, 17) for k in range(1, m + 1) if m % k == 0]
)
def test_embedding_readback_matches_the_bit_elimination(k, m):
    # every element of GF(2^k) (a sample of 2^10 above that) is read back
    # from its image in GF(2^m) by both readbacks
    base, target = gf2k(k), gf2k(m)
    images, readback = involutions._embedding(base, target)
    oracle = readback_by_bit_elimination(images, k)
    elements = range(base.order) if k <= 10 else random.Random(k).sample(range(base.order), 1 << 10)
    for a in elements:
        v = 0
        for b in range(k):
            if a >> b & 1:
                v ^= images[b]
        assert _readback(readback, v) == _readback(oracle, v) == a


def test_a_basis_row_that_is_no_image_is_rejected(monkeypatch):
    rref = involutions.rref

    def mixed(rows, field):
        red, pivots = rref(rows, field)
        red[0] = [field.radd(a, b) for a, b in zip(red[0], red[1])]
        return red, pivots

    monkeypatch.setattr(involutions, "rref", mixed)
    with pytest.raises(CharformError, match="not a symmetrized image"):
        symmetric_space(SplitSymp(F4))


def test_pcrd_of_identity():
    for desc in (SplitSymp(GF2), SplitSymp(F4)):
        pc = desc.reduced_charpoly(desc.one_el())
        # (X+1)^8 = X^8 + 1 in characteristic 2
        expect = [desc.field.zero] * 9
        expect[0] = desc.field.one
        expect[8] = desc.field.one
        assert pc == expect


def test_pcrd_of_rank2_projector():
    desc = SplitSymp(GF2)
    p1 = quat_element(desc, {(0, 0): QuatRing(desc.quat).one})
    pc = desc.reduced_charpoly(p1)
    # projector onto a 2-dimensional block: X^6 (X+1)^2 = X^8 + X^6? no:
    # (X+1)^2 = X^2 + 1, so X^6(X+1)^2 = X^8 + X^6
    one, zero = GF2.one, GF2.zero
    assert pc == [zero, zero, zero, zero, zero, zero, one, zero, one]


def test_pcrd_cayley_hamilton():
    rng = random.Random(7)
    desc = SplitSymp(F4)
    for _ in range(5):
        x = desc.rand(rng)
        pc = desc.reduced_charpoly(x)
        sp = SplitImages(desc.quat)
        m = sp.embed_matrix(quat_matrix(desc, x))
        lifted = [sp.lift(c) if sp.ring is not desc.field else c for c in pc]
        assert not poly_eval_matrix(lifted, m)


def test_pcrd_against_cofactor_oracle():
    rng = random.Random(11)
    desc = SplitSymp(F4)
    sp = SplitImages(desc.quat)
    assert sp.ring is desc.field  # [0,1) splits over F itself
    for _ in range(5):
        x = desc.rand(rng)
        assert desc.reduced_charpoly(x) == poly_charpoly_oracle(
            sp.embed_matrix(quat_matrix(desc, x)), desc.field
        )


def _entry_ring_charpoly(desc, x):
    """The characteristic polynomial of x through a Mat of entry-ring objects:
    the splitting image of the quaternion matrix (over F or the etale ring),
    the etale matrix of a unitary etale element, the field matrix of an
    orthogonal element or of the E block.  Etale coefficients must lie in F."""
    field = desc.field
    if desc.kind.endswith("symp"):
        m = SplitImages(desc.quat).embed_matrix(quat_matrix(desc, x))
    elif desc.kind == "unitary_etale":
        ring = EtaleRing(field, desc.c)
        m = Mat(ring, [[ring._el(e) for e in row] for row in entries(desc, x)])
    else:
        m = Mat(field, [[field._el(e) for e in row] for row in entries(desc, x)])
    coeffs = charpoly(m)
    if m.ring is field:
        return coeffs
    assert all(not e.y for e in coeffs)
    return [e.x for e in coeffs]


def _rand_fraction_element(desc, rng):
    """A sparse element whose F(t) payloads may have denominators; hermitian
    for the unitary etale kind, whose reduced characteristic polynomial lies
    in F only on Sym."""
    field = desc.field
    out = []
    for _ in range(desc.ambient_dim):
        e = field.zero if rng.random() < 0.75 else field.rand(rng)
        if e and isinstance(field, RatFunc) and rng.random() < 0.4:
            e = e / field.rand_nonzero(rng)
        out.append(e)
    x = tuple(e.raw for e in out)
    return desc.el_add(x, desc.involve(x)) if desc.kind == "unitary_etale" else x


SLOTS = {
    "gen": lambda f: f.gen,
    "t": lambda f: f.t,
    "1/t": lambda f: f.one / f.t,
    "t/(1+t)": lambda f: f.t / (f.one + f.t),
}
CHARPOLY_FIELDS = {"gf4": (F4, ["gen"]), "r2": (R2, ["t", "1/t", "t/(1+t)"])}
CHARPOLY_FIELDS["r4"] = (R4, CHARPOLY_FIELDS["r2"][1])
CHARPOLY_CASES = [
    (name, kind, slot)
    for name, (_, slots) in CHARPOLY_FIELDS.items()
    for kind, kind_slots in (
        ("split_symp", [None]),
        ("orthogonal", [None]),
        ("unitary_exchange", [None]),
        ("index2_symp", slots),
        ("unitary_etale", slots),
    )
    for slot in kind_slots
]


@pytest.mark.parametrize("name,kind,slot", CHARPOLY_CASES)
def test_reduced_charpoly_matches_entry_ring_charpoly(name, kind, slot):
    # the etale centre c (unitary) or the quaternion slot a (index 2) is slot
    field = CHARPOLY_FIELDS[name][0]
    one = field.one
    t = field.gen if field is F4 else field.t
    gram = (one, t, one, one + t)
    makers = {
        "split_symp": lambda: SplitSymp(field),
        "orthogonal": lambda: Orthogonal(field, gram),
        "unitary_exchange": lambda: UnitaryExchange(field),
        "index2_symp": lambda: idx2(field, SLOTS[slot](field), one + t, gram[1:]),
        "unitary_etale": lambda: UnitaryEtale(field, SLOTS[slot](field), gram),
    }
    desc = makers[kind]()
    rng = random.Random(29)
    for _ in range(2):
        x, y = _rand_fraction_element(desc, rng), _rand_fraction_element(desc, rng)
        oracle = _entry_ring_charpoly(desc, x)
        assert desc.reduced_charpoly(x) == oracle
        # Trd is the coefficient of X^(n-1); Trd(xy) needs no product
        assert desc.trd(x) == oracle[-2]
        assert desc.trd_product(x, y) == desc.trd(desc.el_mul(x, y))


@pytest.mark.parametrize(
    "field, c",
    [(F4, F4.gen), (R2, R2.t), (R2, R2.one / R2.t)],
    ids=["gf4-gen", "r2-t", "r2-1/t"],
)
def test_unitary_etale_coefficient_outside_f_raises(field, c):
    # s at (0, 0): Trd(x) = s, and X + s divides the characteristic polynomial
    desc = UnitaryEtale(field, c, (field.one,) * 4)
    x = desc.zero_el()
    x = x[:1] + (field.rone,) + x[2:]
    with pytest.raises(CoefficientNotRational):
        desc.trd(x)
    with pytest.raises(CoefficientNotRational):
        desc.trd_product(x, desc.projector(0))
    with pytest.raises(CoefficientNotRational):
        desc.reduced_charpoly(x)


def _batch_descriptor(field, kind):
    one, g = field.one, field.gen
    gram = (one, g, one, g)
    if kind == "split_symp":
        return SplitSymp(field)
    if kind == "index2_symp":
        return idx2(field, g, one, gram[1:])
    if kind == "orthogonal":
        return Orthogonal(field, gram)
    if kind == "unitary_exchange":
        return UnitaryExchange(field)
    c = next(c for c in field.elements() if field.rartin(c.raw) is None)
    return UnitaryEtale(field, c, gram)


# the small descriptors of every kind over GF(2), GF(4) and GF(8), and every golden
# over GF(2^k)(t): symplectic (over F and over the etale ring), unitary etale
# (centres t, 1/t and 0x2*t) and orthogonal
BATCH_CASES = {
    **{
        f"{kind}-{name}": (lambda field=field, kind=kind: _batch_descriptor(field, kind))
        for name, field in (("gf2", GF2), ("gf4", F4), ("gf8", F8))
        for kind in (
            "split_symp", "index2_symp", "orthogonal", "unitary_exchange", "unitary_etale"
        )
    },
    **{
        name: (lambda name=name: _golden_descriptor(name))
        for name in sorted(p.stem for p in GOLDEN_DESCRIPTORS.glob("*ratfunc*.json"))
    },
}


@pytest.mark.parametrize("case", list(BATCH_CASES))
def test_batched_charpolys_match_scalar_runs(case):
    # the driver's batch at the points e_i, e_i + e_j agrees with one scalar run
    # per point: a lane run over GF(2^k), evaluation and interpolation over F(t)
    desc = BATCH_CASES[case]()
    field, space = desc.field, symmetric_space(desc)
    points = list(candidates(field, space.dim, None, 0, 0))
    expected = [desc.reduced_charpoly(space.element(v)) for v in points]
    # every coefficient, each at its own number of leading points
    wanted = {d: len(points) - 5 * d for d in range(desc._split_size + 1)}
    got = desc._charpolys_at_points(space.basis, involutions._point_masks(space.dim), wanted)
    for d, m in wanted.items():
        assert got[d] == [pc[d].raw for pc in expected[:m]]
    odd = [c for pc in expected for c in pc[1::2]]
    assert (desc.case == "symplectic") == (not any(odd))
    if desc.kind == "unitary_etale":
        # s at (0, 0) as one more coordinate: its trace s lies outside F
        x = desc.zero_el()
        x = x[:1] + (field.rone,) + x[2:]
        with pytest.raises(CoefficientNotRational):
            masks = involutions._point_masks(space.dim + 1)
            desc._charpolys_at_points(space.basis + [x], masks, {2: 1})


def test_a_high_degree_descriptor_runs_in_chunks(monkeypatch):
    # slots of degree up to 6 need 7 * 20 + 1 evaluation points of GF(2^8): the
    # 406-lane blocks run in four chunks, none wider than _MAX_LANES, and the
    # coefficients agree with the fraction-free run at the first points
    t, one = R2.t, R2.one
    desc = idx2(R2, t * t + t, t**3 + one, (t**5 + t + one, t**4 + t**3 + one, t**6 + t**2 + one))
    space = symmetric_space(desc)
    berkowitz, widths = involutions._berkowitz, []

    def counted(rows, c, e, zero, one, add, mul):
        if isinstance(one, tuple):  # a lane run, not a fraction-free one
            widths.append(one[0].bit_length())
        return berkowitz(rows, c, e, zero, one, add, mul)

    monkeypatch.setattr(involutions, "_berkowitz", counted)
    masks = involutions._point_masks(space.dim)
    got = desc._charpolys_at_points(space.basis, masks, {1: 406, 4: 30, 6: 28})
    assert len(widths) == 4 and max(widths) <= involutions._MAX_LANES
    assert got[1] == [R2.rzero] * 406
    points = list(candidates(R2, space.dim, None, 0, 0))[:30]
    expected = [desc.reduced_charpoly(space.element(v)) for v in points]
    assert got[4] == [pc[4].raw for pc in expected]
    assert got[6] == [pc[6].raw for pc in expected[:28]]


def test_the_driver_refuses_a_value_outside_the_base_field(monkeypatch):
    # the class of X in GF(2^m), added to the X^4 coefficient at every lane
    # of every evaluation block, interpolates to a constant outside GF(2)
    desc = _point_descriptor(R2)
    berkowitz = involutions._berkowitz

    def corrupted(rows, c, e, zero, one, add, mul):
        coeffs = berkowitz(rows, c, e, zero, one, add, mul)
        coeffs[4] = (coeffs[4][0], coeffs[4][1] ^ one[0]) + coeffs[4][2:]
        return coeffs

    monkeypatch.setattr(involutions, "_berkowitz", corrupted)
    with pytest.raises(CharformError, match="outside GF"):
        pfaffian_form(desc)


def test_the_driver_refuses_more_points_than_gf_2_16_holds():
    # an entry of degree 20000 needs 4 * 20000 + 1 points
    desc = Orthogonal(R2, (R2.one,) * 4)
    x = (R2.el(1 << 20000),) + (R2.zero,) * 15
    with pytest.raises(CharformError, match="m <= 16"):
        desc.reduced_charpolys([tuple(a.raw for a in x)])


@pytest.mark.parametrize("n", [1, 2, 5, 28])
@pytest.mark.parametrize("field", [F4, F8], ids=["gf4", "gf8"])
def test_point_masks_are_the_lanes_of_the_points(field, n):
    # coordinate i of the points, packed payload by payload, is the mask in plane 0
    points = list(candidates(field, n, None, 0, 0))
    for i, mask in enumerate(involutions._point_masks(n)):
        assert to_lanes(field, [v[i] for v in points]) == (mask,) + (0,) * (field.k - 1)


@pytest.mark.parametrize("name", INDEX2_GOLDENS)
def test_pfaffian_form_matches_reduced_pfaffian(name):
    # the form read off the points agrees with the Pfaffian of the element itself
    desc = _golden_descriptor(name)
    raw = pfaffian_form(desc)
    space = symmetric_space(desc)
    rng = random.Random(31)
    for _ in range(12):
        v = space.rand_coords(rng)
        assert raw.evaluate(v) == reduced_pfaffian(desc, space.element(v)).second


# the points e_3, e_0 + e_27 and e_5 + e_11 of Symd
POINTS = {"diag": [3], "corner": [0, 27], "offdiag": [5, 11]}
POINT_FIELDS = {"gf2": GF2, "gf4": F4, "gf8": F8, "r2": R2}


def _point_descriptor(field):
    g = field.t if isinstance(field, RatFunc) else field.gen
    return idx2(field, g, field.one, (g, field.one, g))


def _corrupt_point(monkeypatch, point, d, delta):
    """Add delta to coefficient d of the charpoly at the point with this index
    in the points batch of the 28-dimensional Symd.  The driver's Berkowitz
    runs hold one block of lanes per evaluation point z = 0, 1, ... (in order
    across its runs; one block, z = 0, over GF(2^k)), so delta, a packed
    polynomial over GF(2) added to the numerator of the coefficient, adds its
    value at z in GF(2^m) to the lane of the point in each block."""
    berkowitz, lanes, seen = involutions._berkowitz, 28 * 29 // 2, [0]

    def corrupted(rows, c, e, zero, one, add, mul):
        coeffs = berkowitz(rows, c, e, zero, one, add, mul)
        target, blocks = gf2k(len(one)), one[0].bit_length() // lanes
        for i in range(blocks):
            z, value, power = seen[0] + i, 0, 1
            for b in range(delta.bit_length()):
                value ^= power if delta >> b & 1 else 0
                power = target.rmul(power, z)
            lane = i * lanes + point
            coeffs[d] = tuple(a ^ (value >> p & 1) << lane for p, a in enumerate(coeffs[d]))
        seen[0] += blocks
        return coeffs

    monkeypatch.setattr(involutions, "_berkowitz", corrupted)


@pytest.mark.parametrize("point", list(POINTS))
@pytest.mark.parametrize("name", list(POINT_FIELDS))
def test_pfaffian_form_rejects_a_non_pfaffian_point(monkeypatch, name, point):
    # give the charpoly at the point a nonzero X^3 coefficient
    field = POINT_FIELDS[name]
    desc = _point_descriptor(field)
    vector = [field.rone if i in POINTS[point] else field.rzero for i in range(28)]
    _corrupt_point(monkeypatch, list(candidates(field, 28, None, 0, 0)).index(vector), 3, 1)
    with pytest.raises(NotPfaffian, match="odd characteristic coefficient"):
        pfaffian_form(desc)
    assert desc._srp_raw is None and desc._trp_raw is None


def test_pfaffian_form_rejects_a_trace_coefficient_that_is_not_a_square(monkeypatch):
    # adding t to the X^6 coefficient at e_3 leaves a non-square: Trp(e_3) has no root
    desc = _point_descriptor(R2)
    _corrupt_point(monkeypatch, 3, 6, 0b10)
    with pytest.raises(NotPfaffian, match="not a square"):
        pfaffian_form(desc)
    assert desc._srp_raw is None and desc._trp_raw is None


@pytest.mark.parametrize("name", INDEX2_GOLDENS)
def test_pfaffian_trace_read_off_the_points_matches_reduced_pfaffian(name):
    # Trp is linear, so its values at the e_i, kept with the form, give it everywhere
    desc = _golden_descriptor(name)
    pfaffian_form(desc)
    field, space = desc.field, symmetric_space(desc)
    trp = [field._el(t) for t in desc._trp_raw]
    rng = random.Random(37)
    for _ in range(12):
        v = space.rand_coords(rng)
        trace = sum((field._el(a) * t for a, t in zip(v, trp)), field.zero)
        assert trace == reduced_pfaffian(desc, space.element(v)).trace


def test_prp_of_identity():
    desc = SplitSymp(F4)
    pf = reduced_pfaffian(desc, desc.one_el())
    # (X+1)^4 = X^4 + 1: second coefficient vanishes
    one, zero = F4.one, F4.zero
    assert pf.coeffs == (one, zero, zero, zero, one)
    assert pf.second == zero


def test_prp_rejects_non_symmetrized():
    # diag(u, 0, 0, 0) has reduced trace 1, so an odd coefficient survives
    desc = SplitSymp(GF2)
    with pytest.raises(NotPfaffian):
        reduced_pfaffian(desc, quat_element(desc, {(0, 0): QuatRing(desc.quat).u}))


def test_prp_block_element_closed_form():
    # W1-shaped element: Prp = (X^2 + nrd(x12)) (X^2 + nrd(x34))
    rng = random.Random(13)
    desc = SplitSymp(F8)
    Q = QuatRing(desc.quat)
    for _ in range(10):
        x12, x34 = Q.rand(rng), Q.rand(rng)
        x = quat_element(
            desc, {(0, 1): x12, (1, 0): q_conj(x12), (2, 3): x34, (3, 2): q_conj(x34)}
        )
        pf = reduced_pfaffian(desc, x)
        n1, n2 = q_nrd(x12), q_nrd(x34)
        expect = poly_mul(
            [n1, F8.zero, F8.one], [n2, F8.zero, F8.one], F8
        )
        assert list(pf.coeffs) == expect
        assert pf.second == n1 + n2


def test_pfaffian_form_polar_rank_28():
    for field in (GF2, F4):
        desc = SplitSymp(field)
        raw = pfaffian_form(desc, validate=25)
        b = raw.polar_matrix()
        assert rank([list(r) for r in b], field) == 28


def test_pfaffian_form_trp_equals_trd_of_half():
    rng = random.Random(17)
    desc = idx2(GF2, GF2.one, GF2.one, (GF2.one,) * 3)
    space = symmetric_space(desc)
    for _ in range(200):
        v = space.rand_coords(rng)
        x = space.element(v)
        pf = reduced_pfaffian(desc, x)
        assert pf.trace == desc.trd(space.half(v))


def test_pfaffian_polarization_identity():
    rng = random.Random(19)
    desc = SplitSymp(F4)
    space = symmetric_space(desc)
    for _ in range(50):
        cv = space.rand_coords(rng)
        cw = space.rand_coords(rng)
        x, y = space.element(cv), space.element(cw)
        yh = space.half(cw)
        lhs = (
            reduced_pfaffian(desc, desc.el_add(x, y)).second
            + reduced_pfaffian(desc, x).second
            + reduced_pfaffian(desc, y).second
        )
        rhs = reduced_pfaffian(desc, x).trace * reduced_pfaffian(
            desc, y
        ).trace + desc.trd(desc.el_mul(x, yh))
        assert lhs == rhs


def test_prp_annihilates_element():
    rng = random.Random(23)
    desc = SplitSymp(F4)
    space = symmetric_space(desc)
    for _ in range(10):
        x = space.element(space.rand_coords(rng))
        pf = reduced_pfaffian(desc, x)
        acc = desc.zero_el()
        power = desc.one_el()
        for c in pf.coeffs:
            acc = desc.el_add(acc, desc.el_scal(c, power))
            power = desc.el_mul(power, x)
        assert acc == desc.zero_el()


SRD_FIELDS = {"gf2": GF2, "gf4": F4, "gf8": F8, "r2": R2, "r4": R4}
# the etale centres c = t and c = 1/t; over GF(2) t = 1/t = 1, and over GF(8)
# x^2 + x = t has a root, so each of them keeps one
SRD_CENTRES = {"gf2": ["t"], "gf8": ["1/t"]}
SRD_CASES = [
    (name, kind, c)
    for name in SRD_FIELDS
    for kind, cs in (
        ("unitary_exchange", [None]),
        ("orthogonal", [None]),
        ("unitary_etale", SRD_CENTRES.get(name, ["t", "1/t"])),
    )
    for c in cs
]


@pytest.mark.parametrize("name,kind,c", SRD_CASES)
def test_second_trace_form_matches_charpoly_coefficient(name, kind, c):
    # over GF(2^k), t stands for the generator
    field = SRD_FIELDS[name]
    one = field.one
    t = field.t if isinstance(field, RatFunc) else field.gen
    gram = (one, t, one + t, one) if t != one else (one,) * 4
    if kind == "unitary_exchange":
        desc = UnitaryExchange(field)
    elif kind == "orthogonal":
        desc = Orthogonal(field, gram)
    else:
        desc = UnitaryEtale(field, t if c == "t" else one / t, gram)
    raw = second_trace_form(desc)
    space = symmetric_space(desc)
    rng = random.Random(29)
    for _ in range(100):
        v = space.rand_coords(rng)
        assert raw.evaluate(v) == desc.reduced_charpoly(space.element(v))[2]
    # Srd(1) = C(4,2) mod 2 = 0
    assert raw.evaluate(space.coords(desc.one_el())) == field.zero


def test_srd_orth_polar_rank_4():
    for field, gs in ((GF2, (GF2.one,) * 4), (F4, (F4.one, F4.gen, F4.gen, F4.one))):
        desc = Orthogonal(field, gs)
        raw = second_trace_form(desc)
        b = raw.polar_matrix()
        # radical of the polar form has dimension 6 on the 10-dim space
        assert rank([list(r) for r in b], field) == 4
        q, _ = normalize(raw)
        assert len(q.blocks) == 2 and len(q.diag) == 6


def test_srd_form_dispatch_errors():
    with pytest.raises(UnsupportedDescriptor):
        second_trace_form(SplitSymp(GF2))


def test_unitary_etale_rejects_split_center_over_ratfunc():
    # c = 0 gives F[s]/(s^2 + s) = F x F, which is not a field
    with pytest.raises(UnsupportedDescriptor):
        UnitaryEtale(R2, R2.zero, (R2.one,) * 4)


def test_det_orthogonal():
    # transpose involution over GF(2): the only class is 1
    desc = Orthogonal(GF2, (GF2.one,) * 4)
    assert det_orthogonal(desc) == GF2.one
    # over GF(2)(t) with Gram <1,t,1,1> the class is t modulo squares
    t = R2.t
    desc2 = Orthogonal(R2, (R2.one, t, R2.one, R2.one))
    d = det_orthogonal(desc2)
    assert (d / t).is_square() or (d * t).is_square()


def test_det_orthogonal_scale_invariance():
    t = R2.t
    # scaling the Gram leaves the involution, hence the class, unchanged
    d1 = det_orthogonal(Orthogonal(R2, (R2.one, t, R2.one, R2.one)))
    d2 = det_orthogonal(Orthogonal(R2, (t, t * t, t, t)))
    assert (d1 / d2).is_square()
