"""Pipeline tests: biquadratic subalgebras, components, star composition,
and the invariant extraction reports."""

import collections
import functools
import inspect
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from descriptor_layout import entries
import oracles
from oracles import QuatRing, check_qi_by_module_basis, li_module_basis
from charform import extraction, involutions, verify
from charform.cli import main
from charform.errors import (
    DecompositionFailure,
    InvalidCandidate,
    NotInComponent,
    UnsupportedDescriptor,
)
from charform.fields import GF2, gf2k, ratfunc, solve_artin_schreier
from charform.forms import (
    RawQuadraticForm,
    bilinear_tensor,
    blocks_match_upto_squares,
    is_hyperbolic,
    totally_singular_isometry,
    witt_equivalent_gf2k,
)
from charform.involutions import (
    Index2Symp,
    Orthogonal,
    SplitSymp,
    UnitaryEtale,
    UnitaryExchange,
    _MatrixDescriptor,
    symmetric_space,
)
from charform.extraction import (
    BiquadraticEtale,
    WComponents,
    check_pi3_decomposability,
    construct_biquadratic,
    default_components,
    extract_orthogonal_invariants,
    extract_symplectic_invariants,
    extract_unitary_invariants,
    find_square_central,
    galois_components,
    star,
    validate_biquadratic,
    _as_scalar,
)
from charform.linalg import Span, kernel, rank, unit_vector
from charform.quaternions import QuaternionAlgebra, nrd_form
from charform.serialize import descriptor_from_json

F4 = gf2k(2)
F8 = gf2k(3)
R2 = ratfunc(GF2)


def idx2(field, a, b, us):
    return Index2Symp(field, QuaternionAlgebra(field, a, b), us)


def ratfunc_descriptor():
    t = R2.t
    return Index2Symp(R2, QuaternionAlgebra(R2, t, t), (R2.one, t, t + R2.one))


def quat_element(desc, placed):
    """The element with the quaternion q at (i, j) for each (i, j) -> q."""
    v = [desc.field.zero] * desc.ambient_dim
    for (i, j), q in placed.items():
        v[(4 * i + j) * 4 : (4 * i + j + 1) * 4] = q.c
    return tuple(a.raw for a in v)


def rebuilt(comps, **changes):
    """WComponents from the six inputs of comps, with ``changes`` applied:
    adapted, w_raw and w_spans are derived again, and g_images is None."""
    names = ("desc", "L", "space", "full_raw", "l_coords", "w_coords")
    return WComponents(**{**{n: getattr(comps, n) for n in names}, **changes})


# --- biquadratic subalgebras --------------------------------------------------


def test_construct_biquadratic_idempotents():
    desc = SplitSymp(GF2)
    L = construct_biquadratic(desc)
    # idempotent generators: s^2 + s = 0
    assert not L.c1 and not L.c2
    assert rank(L.basis, desc.field) == 4


def test_construct_biquadratic_variants_differ():
    desc = SplitSymp(F4)
    L0 = construct_biquadratic(desc, variant=0)
    L1 = construct_biquadratic(desc, variant=7)
    assert (L0.s1, L0.s2) != (L1.s1, L1.s2)


def test_validate_biquadratic_rejects_bad_candidates():
    desc = SplitSymp(GF2)
    one = desc.one_el()
    with pytest.raises(InvalidCandidate):
        validate_biquadratic(desc, one, one)  # spans only 1 dimension
    # a non-symmetric element: the quaternion 1 at (0, 1)
    bad = quat_element(desc, {(0, 1): QuatRing(desc.quat).one})
    with pytest.raises(InvalidCandidate):
        validate_biquadratic(desc, bad, construct_biquadratic(desc).s2)


def test_li_trace_and_norm_examples():
    # ell = a + b*g_i in L_i has trace b and norm rnorm((a, b)) over F
    desc = SplitSymp(F4)
    L = construct_biquadratic(desc)
    ring = L.li_ring(1)
    a, b = L.li_coords(1, desc.one_el())
    assert not b and ring.rnorm([a, b]) == F4.rone  # T(1) = 1+1 = 0, N(1) = 1
    g, c = L.generator(1)
    a, b = L.li_coords(1, g)
    assert b == F4.rone and ring.rnorm([a, b]) == c.raw
    assert L.li_coords(2, g) is None  # s2 generates L_1, not L_2


def test_li_trace_and_norm_split_diagonal():
    # diag(x1, x1, x2, x2): T_1 = x1 + x2, N_1 = x1 x2
    desc = SplitSymp(F8)
    L = construct_biquadratic(desc)
    x1, x2 = F8.gen, F8.gen * F8.gen
    diag = enumerate((x1, x1, x2, x2))
    ell = quat_element(desc, {(i, i): QuatRing(desc.quat).scalar(x) for i, x in diag})
    a, b = L.li_coords(1, ell)
    assert b == (x1 + x2).raw and L.li_ring(1).rnorm([a, b]) == (x1 * x2).raw


# --- components ---------------------------------------------------------------


@pytest.mark.parametrize(
    "maker,expected",
    [
        (lambda: SplitSymp(GF2), (4, 8, 8, 8)),
        (lambda: SplitSymp(F4), (4, 8, 8, 8)),
        (lambda: idx2(F4, F4.gen, F4.one, (F4.one, F4.gen, F4.gen + F4.one)), (4, 8, 8, 8)),
        (lambda: ratfunc_descriptor(), (4, 8, 8, 8)),
        (lambda: UnitaryExchange(GF2), (4, 4, 4, 4)),
        (lambda: UnitaryEtale(GF2, GF2.one, (GF2.one,) * 4), (4, 4, 4, 4)),
        (lambda: Orthogonal(GF2, (GF2.one,) * 4), (4, 2, 2, 2)),
    ],
)
def test_component_dimensions(maker, expected):
    comps = galois_components(maker())
    assert comps.dims == expected


def test_component_dimensions_checked_on_a_solved_l(monkeypatch):
    # a solved W_i with a planted 9th vector must fail the dimension check;
    # variant 9 is not the default L, so its components are solved
    solve = extraction.kernel

    def planted(rows, field):
        basis = solve(rows, field)
        return basis + [basis[0]]

    desc = SplitSymp(GF2)
    L = construct_biquadratic(desc, variant=9)
    monkeypatch.setattr(extraction, "kernel", planted)
    with pytest.raises(DecompositionFailure, match="expected"):
        galois_components(desc, L)


SYMPLECTIC_GOLDENS = [
    p.stem
    for p in sorted((Path(__file__).parent / "golden" / "descriptors").glob("*.json"))
    if json.loads(p.read_text())["kind"] in ("split_symp", "index2_symp")
]


@pytest.mark.parametrize("name", SYMPLECTIC_GOLDENS)
def test_closed_form_components_agree_with_the_solve_oracle(name):
    desc = _golden_descriptor(name)
    L = construct_biquadratic(desc)
    assert galois_components(desc, L, checks=False).w_coords == oracles.closed_form_by_solve(desc, L)


def _planted_closed_form(kind):
    """A fault in the first closed-form W_1 vector: s1 (a vector of L), the
    first W_2 or the first W_3 vector added to it, or the vector repeated in
    place of the second."""
    bases = extraction._explicit_index2_bases

    def planted(desc):
        out = [list(basis) for basis in bases(desc)]
        w1 = out[0]
        if kind == "plus_s1":
            w1[0] = desc.el_add(w1[0], construct_biquadratic(desc).s1)
        elif kind in ("plus_w2", "plus_w3"):
            w1[0] = desc.el_add(w1[0], out[1 if kind == "plus_w2" else 2][0])
        else:
            w1[1] = w1[0]
        return out

    return planted


@pytest.mark.parametrize(
    "kind,message",
    [
        ("plus_s1", "escapes the solved component"),
        ("plus_w2", "escapes the solved component"),
        # alpha_1 and alpha_3 both move s1: only the condition for s2 fails
        ("plus_w3", "escapes the solved component"),
        ("duplicate", "is not a basis of the component"),
    ],
)
@pytest.mark.parametrize("name", ["split_symp_gf2", "pool_index2_symp_gf2k3", "index2_symp_ratfunc_gf2"])
def test_planted_closed_form_faults_are_rejected_by_both_checks(monkeypatch, name, kind, message):
    desc = _golden_descriptor(name)
    L = construct_biquadratic(desc)
    monkeypatch.setattr(extraction, "_explicit_index2_bases", _planted_closed_form(kind))
    with pytest.raises(DecompositionFailure, match=message):
        galois_components(desc, L, checks=False)
    with pytest.raises(DecompositionFailure, match=message):
        oracles.closed_form_by_solve(desc, L)


@pytest.mark.parametrize("name", ["split_symp_gf2k3", "pool_index2_symp_gf2k2", "index2_symp_ratfunc_gf2"])
def test_default_l_components_make_no_kernel_call(monkeypatch, name):
    desc = _golden_descriptor(name)
    symmetric_space(desc)
    solved = []
    solve = extraction.kernel

    def counted(rows, field):
        solved.append(None)
        return solve(rows, field)

    monkeypatch.setattr(extraction, "kernel", counted)
    galois_components(desc)
    assert not solved
    galois_components(desc, construct_biquadratic(desc, variant=9))
    assert len(solved) == 3


ORACLE_FIELDS = {"gf2": GF2, "gf4": F4, "gf8": F8, "ratfunc": R2}


def _oracle_symplectic(field):
    g = R2.t if field is R2 else field.gen  # 1 over GF(2)
    return idx2(field, g, field.one, (g, field.one, g))


def _oracle_unitary(field):
    # c outside the Artin-Schreier image: 1 over GF(2) and GF(8), gen over GF(4), t over GF(2)(t)
    c = {GF2: GF2.one, F4: F4.gen, F8: F8.one, R2: R2.t}[field]
    g = R2.t if field is R2 else field.gen
    return UnitaryEtale(field, c, (field.one, g, field.one, g))


def _square_central_l(monkeypatch, desc):
    """The L' = F[g_3, y^2] that find_square_central solves components for."""
    seen = []
    solve = extraction.galois_components

    def recorded(d, L=None, **kwargs):
        seen.append(L)
        return solve(d, L, **kwargs)

    monkeypatch.setattr(extraction, "galois_components", recorded)
    find_square_central(desc)
    monkeypatch.undo()
    return seen[-1]


# the Klein labels: alpha_i acts by s1 -> s1 + e1, s2 -> s2 + e2
KLEIN_LABELS = {1: (1, 0), 2: (0, 1), 3: (1, 1)}


def _klein_kernels(desc, L):
    """Each W_i solved column by column: the kernel of x -> x*s + alpha_i(s)*x
    for s = s1, s2, with alpha_i(s_k) = s_k + e_k from the Klein labels."""
    field, space = desc.field, symmetric_space(desc)
    one = desc.one_el()
    out = []
    for i in (1, 2, 3):
        rows = []
        for e, s in zip(KLEIN_LABELS[i], (L.s1, L.s2)):
            a_s = desc.el_add(s, one) if e else s
            cols = [desc.el_add(desc.el_mul(b, s), desc.el_mul(a_s, b)) for b in space.basis]
            rows.extend(zip(*cols))
        out.append(kernel(rows, field))
    return out


def _same_span(a, b, field):
    return Span(a, field).dim == Span(b, field).dim == Span(a + b, field).dim


@pytest.mark.parametrize(
    "kind,which",
    [
        ("symplectic", "default"),
        ("symplectic", "variant9"),
        ("symplectic", "square_central"),
        ("unitary_etale", "default"),
        ("unitary_etale", "variant9"),
    ],
)
@pytest.mark.parametrize("name", list(ORACLE_FIELDS))
def test_components_match_column_by_column_kernels(monkeypatch, name, kind, which):
    field = ORACLE_FIELDS[name]
    desc = (_oracle_symplectic if kind == "symplectic" else _oracle_unitary)(field)
    L = {
        "default": lambda: construct_biquadratic(desc),
        "variant9": lambda: construct_biquadratic(desc, variant=9),
        "square_central": lambda: _square_central_l(monkeypatch, desc),
    }[which]()
    comps = galois_components(desc, L)
    space = comps.space
    for i, (w, oracle) in enumerate(zip(comps.w_coords, _klein_kernels(desc, L)), start=1):
        assert _same_span(w, oracle, field)
        # the chosen generators and their g_i images are a basis of W_i
        g, _ = L.generator(i)
        gens = li_module_basis(comps, i)
        images = [space.coords(desc.el_mul(space.element(v), g)) for v in gens]
        assert 2 * len(gens) == len(w) and _same_span(gens + images, w, field)


def test_li_module_basis_rejects_an_image_outside_w_i():
    desc = SplitSymp(F4)
    comps = galois_components(desc, checks=False)
    # W_2 in place of W_1: its vectors times g_1 lie in W_2, outside the span of W_1
    comps.w_coords[0] = comps.w_coords[1]
    with pytest.raises(DecompositionFailure, match="not stable"):
        li_module_basis(comps, 1)
    with pytest.raises(DecompositionFailure, match="W_1 is not stable under L_1"):
        extraction._check_qi_nonsingular(comps, 1)


def test_component_checks_reject_l_not_orthogonal_to_w1():
    with pytest.raises(DecompositionFailure, match="not orthogonal"):
        extraction._component_checks(_planted("l_not_orthogonal", F4))


def test_component_checks_reject_a_scaled_form():
    # the Gram matrix is read off the scaled form, which no longer gives T_i(x^2)
    with pytest.raises(DecompositionFailure, match="second coefficient differs"):
        extraction._component_checks(_planted("scaled_form", F4))


def test_component_checks_reject_w1_not_free_over_l1():
    # g_1 = p_2 + p_3 kills the first-layout vectors of W_1 (entries at (0, 1)
    # and (1, 0)), so no candidate is independent of its image
    comps = galois_components(SplitSymp(F4), checks=False)
    comps = rebuilt(comps, w_coords=[comps.w_coords[0][:4], *comps.w_coords[1:]])
    with pytest.raises(DecompositionFailure, match="W_1 is not free over L_1"):
        extraction._component_checks(comps)


def test_component_checks_reject_a_rank_one_submodule():
    # W_1 cut down to the L_1-module spanned by x = e_0 + e_4: it is stable and
    # free of rank one, where the alternating L_1-polar form of q_1 vanishes
    desc = SplitSymp(F4)
    comps = galois_components(desc, checks=False)
    space, w = comps.space, comps.w_coords[0]
    x = list(map(F4.radd, w[0], w[4]))
    g, _ = comps.L.generator(1)
    sub = [x, space.coords(desc.el_mul(space.element(x), g))]
    comps = rebuilt(comps, w_coords=[sub, *comps.w_coords[1:]])
    with pytest.raises(DecompositionFailure, match="q_1 is singular over L_1"):
        extraction._component_checks(comps)
    with pytest.raises(DecompositionFailure, match="q_1 is singular over L_1"):
        check_qi_by_module_basis(comps, 1)


def test_qi_check_rejects_an_undecided_split(monkeypatch):
    # only GF(2^k)(t) can leave x^2 + x = c_i undecided; no L built there does
    comps = galois_components(SplitSymp(F4), checks=False)
    monkeypatch.setattr(extraction, "solve_artin_schreier", lambda c: extraction.UNKNOWN)
    with pytest.raises(DecompositionFailure, match="undecided whether L_1 splits"):
        extraction._check_qi_nonsingular(comps, 1)


GOLDEN_DESCRIPTORS = Path(__file__).parent / "golden" / "descriptors"


def _golden_descriptor(name):
    return descriptor_from_json(json.loads((GOLDEN_DESCRIPTORS / f"{name}.json").read_text()))


def _private_pair(comps):
    """Space coordinates p < q that one W_1 basis vector each touches, two
    different ones, and that no vector of L, W_2 or W_3 touches."""
    zero = comps.desc.field.rzero
    others = comps.l_coords + comps.w_coords[1] + comps.w_coords[2]
    for p, q in itertools.combinations(range(comps.space.dim), 2):
        if any(v[p] != zero or v[q] != zero for v in others):
            continue
        at_p = [a for a, v in enumerate(comps.w_coords[0]) if v[p] != zero]
        at_q = [b for b, v in enumerate(comps.w_coords[0]) if v[q] != zero]
        if len(at_p) == len(at_q) == 1 and at_p != at_q:
            return p, q
    return None


def _planted_polar_entry(name):
    """Components of a golden descriptor with 1 added to the full form's cross
    term at a private pair (p, q)."""
    comps = galois_components(_golden_descriptor(name), checks=False)
    pair = _private_pair(comps)
    assert pair is not None
    p, q = pair
    field = comps.desc.field
    u = [list(row) for row in comps.full_raw.u]
    u[p][q] += field.one
    return rebuilt(comps, full_raw=RawQuadraticForm(field, u))


@pytest.mark.parametrize(
    "name",
    [
        "pool_index2_symp_gf2k3",
        "index2_symp_ratfunc_gf2",
        "unitary_etale_gf2k3",
        "orthogonal_gf2k3",
        "orthogonal_ratfunc_gf2",
    ],
)
def test_component_checks_reject_a_polar_entry_off_t_i(name):
    # the components stay orthogonal and q(e_a) = T_i(e_a^2) at every basis
    # vector, but the polar entry of the two W_1 vectors at p and q leaves
    # T_i(e_a e_b + e_b e_a); the orthogonal case has one such pair per W_i
    comps = _planted_polar_entry(name)
    with pytest.raises(DecompositionFailure, match="polar of q_i differs from T_i"):
        extraction._component_checks(comps)
    # the replaced checks, which read q at the basis vectors alone, pass
    _assert_gram_reads_agree(comps, "polar of q_i differs from T_i(xy + yx)")


@pytest.mark.parametrize("field", [GF2, F4, F8], ids=["gf2", "gf4", "gf8"])
def test_component_checks_reject_a_square_outside_l_i(field):
    with pytest.raises(DecompositionFailure, match="a component square escapes L_i"):
        extraction._component_checks(_planted("square_outside_l_i", field))


def _field_l(desc):
    """L from s1 = [[0, 1], [1, 1]] twice down the diagonal, so s1^2 + s1 = 1,
    and s2 = p_2 + p_3: over GF(2) and GF(8), 1 is no r^2 + r, so L_2 and L_3
    are fields."""
    one = unit_vector(desc.field, 4, 0)
    places = [(0, 1), (1, 0), (1, 1), (2, 3), (3, 2), (3, 3)]
    s1 = extraction._quat_matrix(desc, [(i, j, one) for i, j in places])
    return validate_biquadratic(desc, s1, desc.el_add(desc.projector(2), desc.projector(3)))


@pytest.mark.parametrize("field", [GF2, F8], ids=["gf2", "gf8"])
def test_components_over_a_field_l_i(monkeypatch, field):
    desc = SplitSymp(field)
    L = _field_l(desc)
    assert L.c1 == field.one
    answers = []
    solve = extraction.solve_artin_schreier

    def recorded(c):
        answers.append(solve(c))
        return answers[-1]

    monkeypatch.setattr(extraction, "solve_artin_schreier", recorded)
    comps = galois_components(desc, L)
    assert comps.dims == (4, 8, 8, 8)
    assert answers[0] not in (None, extraction.UNKNOWN) and answers[1:] == [None, None]
    assert extract_symplectic_invariants(desc, comps).all_true


def _qi_verdicts(comps, check):
    """Whether ``check`` passes on W_1, W_2 and W_3."""
    return [_verdict(comps, functools.partial(check, i=i)) is None for i in (1, 2, 3)]


def _assert_qi_verdicts_agree(comps):
    new = _qi_verdicts(comps, extraction._check_qi_nonsingular)
    assert new == _qi_verdicts(comps, check_qi_by_module_basis)


@pytest.mark.parametrize(
    "name",
    [
        p.stem
        for p in sorted(GOLDEN_DESCRIPTORS.glob("*.json"))
        if json.loads(p.read_text())["kind"] != "orthogonal"
    ],
)
def test_qi_check_agrees_with_the_module_basis_oracle(name):
    desc = _golden_descriptor(name)
    for variant in (0, 9):
        _assert_qi_verdicts_agree(
            galois_components(desc, construct_biquadratic(desc, variant), checks=False)
        )


@pytest.mark.parametrize("name", list(ORACLE_FIELDS))
def test_qi_check_agrees_with_the_module_basis_oracle_on_square_central_l(monkeypatch, name):
    desc = _oracle_symplectic(ORACLE_FIELDS[name])
    _assert_qi_verdicts_agree(
        galois_components(desc, _square_central_l(monkeypatch, desc), checks=False)
    )


@pytest.mark.parametrize("field", [GF2, F8], ids=["gf2", "gf8"])
def test_qi_check_agrees_with_the_module_basis_oracle_on_a_field_l_i(field):
    desc = SplitSymp(field)
    _assert_qi_verdicts_agree(galois_components(desc, _field_l(desc), checks=False))


def _verdict(comps, *checks):
    """None when every check passes, else the first failure's message."""
    try:
        for check in checks:
            check(comps)
    except DecompositionFailure as exc:
        return str(exc)
    return None


def _assert_gram_reads_agree(comps, new_only=None):
    """The component checks and the L certificate read off the adapted Gram
    matrix against the oracles they replaced, with the module-basis q_i check
    for the rank >= 2 cases: the same verdicts, or ``new_only`` from the new
    checks where the oracles pass."""
    old = [oracles.check_orthogonal_by_polar_vectors, oracles.check_squares_by_evaluate]
    if comps.desc.case != "orthogonal":
        old += [functools.partial(check_qi_by_module_basis, i=i) for i in (1, 2, 3)]
    old_verdict = _verdict(comps, *old)
    if new_only:
        assert old_verdict is None
    assert _verdict(comps, extraction._component_checks) == (new_only or old_verdict)
    cert = extraction._restriction_certificate_11_00(comps)
    oracle = oracles.restriction_certificate_11_00(comps)
    assert (cert.state, cert.witness) == (oracle.state, oracle.witness)


@pytest.mark.parametrize("name", [p.stem for p in sorted(GOLDEN_DESCRIPTORS.glob("*.json"))])
def test_gram_reads_agree_with_the_oracles_on_goldens(name):
    desc = _golden_descriptor(name)
    for variant in (0, 9):
        comps = galois_components(desc, construct_biquadratic(desc, variant), checks=False)
        _assert_gram_reads_agree(comps)


def _planted(kind, field):
    """SplitSymp components with one planted fault, or with the field-L_i L."""
    desc = SplitSymp(field)
    if kind == "field_l":
        return galois_components(desc, _field_l(desc), checks=False)
    comps = galois_components(desc, checks=False)
    if kind == "square_outside_l_i":
        # the W_i of the default L against the fixed algebras of another L
        return rebuilt(comps, L=construct_biquadratic(desc, 1))
    if kind == "l_not_orthogonal":
        # a W_1 vector in place of s1: the form on W_1 is nonsingular
        l_coords = [comps.l_coords[0], comps.w_coords[0][0], *comps.l_coords[2:]]
        return rebuilt(comps, l_coords=l_coords)
    if kind == "scaled_form":
        return rebuilt(comps, full_raw=comps.full_raw.scaled(field.gen))
    # 1 added to the form at (e_0, e_k), k = 0..3, with e_k the one space
    # coordinate of the projector p_k: on L = <1, s1, s2, s1*s2> only
    # B(1, s1*s2) moves (to 0), and no W_i vector touches an e_k
    e = [comps.space.coords(desc.projector(k)).index(field.rone) for k in range(4)]
    u = [list(row) for row in comps.full_raw.u]
    for k in e:
        u[e[0]][k] += field.one
    return rebuilt(comps, full_raw=RawQuadraticForm(field, u))


@pytest.mark.parametrize(
    "kind,field",
    [("field_l", GF2), ("field_l", F8), ("scaled_form", F4), ("scaled_form", F8)]
    + [
        (k, f)
        for k in ("square_outside_l_i", "l_not_orthogonal", "l_pairing")
        for f in (GF2, F4, F8)
    ],
    ids=lambda v: {GF2: "gf2", F4: "gf4", F8: "gf8"}.get(v, v),
)
def test_gram_reads_agree_with_the_oracles_on_planted_components(kind, field):
    _assert_gram_reads_agree(_planted(kind, field))


@pytest.mark.parametrize("field", [GF2, F4, F8], ids=["gf2", "gf4", "gf8"])
def test_l_certificate_rejects_a_complement_orthogonal_to_1(field):
    # the plane (l_1, l_2) is intact, but 1 pairs with nothing in L
    cert = extraction._restriction_certificate_11_00(_planted("l_pairing", field))
    assert cert.is_false and cert.witness == {"values": [field.rone] * 3}


def _scaled_w1_form(comps):
    comps = rebuilt(comps)
    comps.w_raw = [comps.w_raw[0].scaled(F4.gen), *comps.w_raw[1:]]
    return comps


def test_star_check_fails_on_a_corrupted_w_raw(monkeypatch):
    # verify and orthogonal extraction share the star check
    monkeypatch.setattr(
        verify, "default_components", lambda desc: _scaled_w1_form(default_components(desc))
    )
    lines = [r.line() for r in verify.run_symplectic(F4, 1, 4)]
    assert "FAIL symplectic.star_multiplicative (4 trials)" in lines
    desc = Orthogonal(F4, (F4.one, F4.gen, F4.gen, F4.one))
    inv = extract_orthogonal_invariants(desc, _scaled_w1_form(default_components(desc)))
    assert {c.name: c.result for c in inv.checks}["star_multiplicativity"].is_false


def test_verify_symplectic_charpoly_and_el_mul_budget(monkeypatch):
    # one batch for the points form, one for the 4 polarization pairs, one for
    # the 4 Prp elements (Prp evaluated on their split matrices, with el_mul
    # only for the squares of the first 3), and the 2 scalar runs of
    # find_square_central: 5 Berkowitz runs
    runs, calls = [], []
    batch, charpoly = _MatrixDescriptor._charpolys_at_points, _MatrixDescriptor.reduced_charpoly
    mul = _MatrixDescriptor.el_mul

    def counted_batch(self, *args):
        runs.append(None)
        return batch(self, *args)

    def counted_charpoly(self, x):
        runs.append(None)
        return charpoly(self, x)

    def counted_mul(self, x, y):
        calls.append(None)
        return mul(self, x, y)

    monkeypatch.setattr(_MatrixDescriptor, "_charpolys_at_points", counted_batch)
    monkeypatch.setattr(_MatrixDescriptor, "reduced_charpoly", counted_charpoly)
    monkeypatch.setattr(_MatrixDescriptor, "el_mul", counted_mul)
    assert all(r.passed for r in verify.run_symplectic(F4, 1, 4))
    assert len(runs) <= 5 and len(calls) <= 557


def test_verify_reports_a_charpoly_that_is_not_a_square(monkeypatch):
    # a nonzero X coefficient fails the Prp property instead of aborting the
    # suite; the flip hits the Prp batch (one element per lane), not the
    # polarization batch (masks put x, y and x + y in lanes of their own)
    charpolys = _MatrixDescriptor.reduced_charpolys

    def flipped(self, xs, masks=None):
        pcs = charpolys(self, xs, masks)
        if masks is None:
            pcs = [[pc[0], pc[1] + self.field.one, *pc[2:]] for pc in pcs]
        return pcs

    monkeypatch.setattr(_MatrixDescriptor, "reduced_charpolys", flipped)
    lines = {r.name: r.line() for r in verify.run_symplectic(F4, 1, 4)}
    prp = "symplectic.prp_square_and_annihilation"
    assert lines.pop(prp) == f"FAIL {prp} (4 trials)"
    assert all(line.startswith("PASS ") for line in lines.values())


def test_verify_fails_a_polarization_charpoly_that_is_not_a_square(monkeypatch):
    # the flip hits only the polarization batch: each trial whose x, y or x + y
    # charpoly is not a square fails, and the suite runs on
    charpolys = _MatrixDescriptor.reduced_charpolys

    def flipped(self, xs, masks=None):
        pcs = charpolys(self, xs, masks)
        if masks is not None:
            pcs = [[pc[0], pc[1] + self.field.one, *pc[2:]] for pc in pcs]
        return pcs

    monkeypatch.setattr(_MatrixDescriptor, "reduced_charpolys", flipped)
    lines = {r.name: r.line() for r in verify.run_symplectic(F4, 1, 4)}
    polarization = "symplectic.polarization_identity"
    assert lines.pop(polarization) == f"FAIL {polarization} (4 trials)"
    assert lines and all(line.startswith("PASS ") for line in lines.values())


def _wrong_e17_term(desc):
    """desc with the first split term of e_17 (entry (1, 0), payload 1) off by 1."""
    desc._split_nums = [list(terms) for terms in desc._split_nums]
    l, s = desc._split_nums[17][0]
    desc._split_nums[17][0] = (l, s ^ 1)
    return desc


def test_verify_reports_an_aborted_suite_and_runs_the_rest(monkeypatch, capsys):
    # a wrong split-table entry in verify's gf2k:3 descriptor: the Pfaffian
    # form's points have charpolys with an odd coefficient, and the NotPfaffian
    # that ends the symplectic suite in default_components becomes its one
    # FAIL line; the five other suites report
    make = verify._symplectic_descriptor
    monkeypatch.setattr(verify, "_symplectic_descriptor", lambda f: _wrong_e17_term(make(f)))
    assert main(["verify", "--suite", "all", "--field", "gf2k:3", "--trials", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    results, summary = lines[:-1], lines[-1]
    symplectic = [line for line in results if " symplectic." in line]
    assert symplectic == [
        "FAIL symplectic.aborted (0 trials) "
        "[NotPfaffian: odd characteristic coefficient is nonzero]"
    ]
    others = [line for line in results if line not in symplectic]
    assert all(line.startswith("PASS ") for line in others)
    assert {line.split()[1].split(".")[0] for line in others} == set(verify.SUITES) - {"symplectic"}
    assert summary == f"{len(others)}/{len(results)} properties passed"


# --- Prp annihilation on the cleared split matrices ----------------------------

# the verify descriptors, and a golden one whose split runs over the etale ring
PRP_DESCRIPTORS = {
    "gf2": lambda: verify._symplectic_descriptor(GF2),
    "gf2k3": lambda: verify._symplectic_descriptor(F8),
    "ratfunc_gf2": lambda: verify._symplectic_descriptor(R2),
    "ratfunc_gf2k2": lambda: verify._symplectic_descriptor(ratfunc(F4)),
    "ratfunc_gf2_etale": lambda: _golden_descriptor("index2_symp_ratfunc_gf2_etale"),
}


def _draws(desc, rng, n):
    space = symmetric_space(desc)
    return [space.element(space.rand_coords(rng)) for _ in range(n)]


def _pfaffians(desc, xs):
    """The Pfaffian data of each x, None where its charpoly is not a square."""
    return [verify._pfaffian_or_none(pc, desc.field) for pc in desc.reduced_charpolys(xs)]


def _horner_verdicts(desc, xs, pfs):
    return [oracles.prp_annihilates_by_horner(desc, x, pf) for x, pf in zip(xs, pfs)]


@pytest.mark.parametrize("name", PRP_DESCRIPTORS)
def test_prp_annihilation_agrees_with_the_horner_oracle(name):
    desc = PRP_DESCRIPTORS[name]()
    n = 2 if name == "ratfunc_gf2k2" else 5
    # the first elements of verify's stream, seeded ones, 0 and 1
    xs = _draws(desc, verify._rng(1, "symp.prp"), n) + _draws(desc, random.Random(len(name)), n)
    xs += [desc.zero_el(), desc.one_el()]
    pfs = _pfaffians(desc, xs)
    assert verify._prp_annihilated(desc, xs, pfs) == _horner_verdicts(desc, xs, pfs) == [True] * len(xs)
    # the Pfaffian data of the next element, and a perturbed p0: both fail
    shifted = pfs[1:] + pfs[:1]
    assert verify._prp_annihilated(desc, xs, shifted) == _horner_verdicts(desc, xs, shifted)
    one = desc.field.one
    wrong = [pf._replace(coeffs=(pf.coeffs[0] + one, *pf.coeffs[1:])) for pf in pfs]
    assert verify._prp_annihilated(desc, xs, wrong) == _horner_verdicts(desc, xs, wrong) == [False] * len(xs)


def _prp_line(field, trials=4):
    lines = {r.name: r.line() for r in verify.run_symplectic(field, 1, trials)}
    return lines["symplectic.prp_square_and_annihilation"]


@pytest.mark.parametrize("field", [F8, R2], ids=["gf2k3", "ratfunc_gf2"])
def test_prp_property_fails_on_a_wrong_p0(monkeypatch, field):
    pfaffian = verify._pfaffian

    def wrong_p0(pc, field):
        pf = pfaffian(pc, field)
        return pf._replace(coeffs=(pf.coeffs[0] + field.one, *pf.coeffs[1:]))

    assert _prp_line(field) == "PASS symplectic.prp_square_and_annihilation (4 trials)"
    monkeypatch.setattr(verify, "_pfaffian", wrong_p0)
    assert _prp_line(field) == "FAIL symplectic.prp_square_and_annihilation (4 trials)"


def _mutated_prp_check(old, new):
    """verify._prp_annihilated with one planted fault in its source."""
    source = inspect.getsource(verify._prp_annihilated)
    assert source.count(old) == 1
    namespace = dict(vars(verify))
    exec(compile(source.replace(old, new), verify.__file__, "exec"), namespace)
    return namespace["_prp_annihilated"]


@pytest.mark.parametrize(
    "old,new",
    [
        ("for k in (4, 3, 2, 1)]", "for k in (4, 2, 2, 1)]"),
        ("scaled(lift(e), m2)", "scaled(lift(1), m2)"),
    ],
    ids=["d2_for_d3", "e_dropped"],
)
def test_prp_property_fails_on_a_planted_fault_in_the_check(monkeypatch, old, new):
    # D and E are 1 over GF(2^k), so these faults show over GF(2)(t) only:
    # there D = t^2 + t and E is D or t + 1
    monkeypatch.setattr(verify, "_prp_annihilated", _mutated_prp_check(old, new))
    assert _prp_line(R2) == "FAIL symplectic.prp_square_and_annihilation (4 trials)"


def test_prp_el_mul_leg_catches_a_wrong_split_table_entry():
    # the term of e_17 (entry (1, 0), payload 1) off by 1: the first x still
    # has a Prp, and it annihilates the wrong split matrix (moved past the
    # first 3, x passes), but the split matrix of x*x is not its square;
    # most other charpolys are not squares
    desc = _wrong_e17_term(verify._symplectic_descriptor(F8))
    xs = _draws(desc, random.Random(5), 6)
    pfs = _pfaffians(desc, xs)
    assert pfs[0] is not None and sum(pf is None for pf in pfs) >= 4
    assert not verify._prp_annihilated(desc, xs, pfs)[0]
    assert verify._prp_annihilated(desc, xs[1:4] + xs[:1], pfs[1:4] + pfs[:1])[3]


@pytest.mark.parametrize("field", [F8, R2], ids=["gf2k3", "ratfunc_gf2"])
def test_prp_el_mul_leg_catches_a_wrong_unit_product(field):
    # q_1 q_1 read as q_2: the split matrices and their charpolys are sound,
    # so only the squares of the first 3 x, formed by el_mul, fail
    desc = verify._symplectic_descriptor(field)
    desc._units = [[list(terms) for terms in row] for row in desc._units]
    l, c = desc._units[1][1][0]
    desc._units[1][1][0] = ((l + 1) % 4, c)
    xs = _draws(desc, random.Random(5), 6)
    assert verify._prp_annihilated(desc, xs, _pfaffians(desc, xs)) == [False] * 3 + [True] * 3


@pytest.mark.parametrize(
    "maker,budget",
    [
        (lambda: idx2(F4, F4.gen, F4.one, (F4.gen, F4.one, F4.gen)), 159),
        (lambda: SplitSymp(F4), 159),
        (lambda: UnitaryEtale(F4, F4.gen, (F4.one, F4.gen, F4.one, F4.gen)), 77),
    ],
    ids=["index2_symp", "split_symp", "unitary_etale"],
)
def test_galois_components_el_mul_budget(monkeypatch, maker, budget):
    # 3 for L (s1*s2, shared by the commutation test and the basis, and the
    # squares); the closed-form W_i of a symplectic descriptor take x*s1 and
    # x*s2 per basis vector (48), which also give its images x*g_i, a solved
    # one b*s for s = s1, s2 per space basis vector (s*b read as sigma(b*s))
    # and the images x*g_i; then per W_i the squares and one product per
    # pair of basis vectors
    desc = maker()
    calls = []
    mul = _MatrixDescriptor.el_mul

    def counted(self, x, y):
        calls.append(None)
        return mul(self, x, y)

    monkeypatch.setattr(_MatrixDescriptor, "el_mul", counted)
    galois_components(desc)
    assert len(calls) <= budget


def test_extract_polar_budget(monkeypatch):
    # the runtime has no pairwise polar; normalize works on the polar matrix,
    # the certificates read the adapted Gram matrix, and its one restrict
    # forms B v once per adapted basis vector
    assert not hasattr(RawQuadraticForm, "polar")
    callers = collections.Counter()
    polar_vector = RawQuadraticForm.polar_vector

    def counted(self, x):
        callers[sys._getframe(1).f_code.co_name] += 1
        return polar_vector(self, x)

    monkeypatch.setattr(RawQuadraticForm, "polar_vector", counted)
    golden = Path(__file__).parent / "golden" / "descriptors" / "pool_index2_symp_gf2k3.json"
    assert main(["extract", "--input", str(golden), "--json", "--seed", "0"]) == 0
    assert callers == {"restrict": 28}


def test_galois_components_runs_one_berkowitz_batch(monkeypatch):
    # the points batch of the form gives Trp too, so the W_i need no charpolys
    desc = idx2(F4, F4.gen, F4.one, (F4.gen, F4.one, F4.gen))
    runs = []
    batch = involutions.charpoly_raw

    def counted(*args):
        runs.append(None)
        return batch(*args)

    monkeypatch.setattr(involutions, "charpoly_raw", counted)
    galois_components(desc)
    assert len(runs) == 1


def test_component_checks_reject_a_nonzero_pfaffian_trace_on_w(monkeypatch):
    # a Trp that is 1 on the first W_1 basis vector
    desc = idx2(F4, F4.gen, F4.one, (F4.gen, F4.one, F4.gen))
    comps = galois_components(desc, checks=False)
    w = comps.w_coords[0][0]
    j = next(j for j, a in enumerate(w) if a)
    trp = [F4.rzero] * len(w)
    trp[j] = F4.rinv(w[j])
    monkeypatch.setattr(desc, "_trp_raw", trp)
    with pytest.raises(DecompositionFailure, match="first Pfaffian coefficient nonzero on W_i"):
        extraction._component_checks(comps)


def test_explicit_w1_form_matches_closed_formula():
    # the Pfaffian form restricted to W_1 is literally <u1, u2*u3> tensor the norm form
    desc = ratfunc_descriptor()
    comps = default_components(desc)
    t = R2.t
    u1, u2, u3 = R2.one, t, t + R2.one
    from charform.forms import normalize

    got, _ = normalize(comps.w_raw[0])
    expected = bilinear_tensor([u1, u2 * u3], nrd_form(desc.quat))
    assert got.blocks == expected.blocks
    got2, _ = normalize(comps.w_raw[1])
    assert got2.blocks == bilinear_tensor([u2, u1 * u3], nrd_form(desc.quat)).blocks
    got3, _ = normalize(comps.w_raw[2])
    assert got3.blocks == bilinear_tensor([u3, u1 * u2], nrd_form(desc.quat)).blocks


def test_star_multiplicativity_1000_gf8():
    desc = SplitSymp(F8)
    comps = default_components(desc)
    rng = random.Random(42)
    full = comps.full_raw
    for _ in range(1000):
        c1 = [F8.rand(rng).raw for _ in range(8)]
        c2 = [F8.rand(rng).raw for _ in range(8)]
        x1 = comps.w_element(1, c1)
        x2 = comps.w_element(2, c2)
        out = desc.el_add(desc.el_mul(x1, x2), desc.el_mul(x2, x1))
        oc = comps.space.coords(out)
        assert comps.w_membership(3, out) is not None or not any(oc)
        v1 = comps.w_raw[0].evaluate(c1)
        v2 = comps.w_raw[1].evaluate(c2)
        assert full.evaluate(oc) == v1 * v2


def test_star_validates_membership():
    desc = SplitSymp(GF2)
    comps = default_components(desc)
    x1 = comps.w_element(1, [GF2.one.raw] + [GF2.zero.raw] * 7)
    with pytest.raises(NotInComponent):
        star(desc, x1, x1, comps)  # second argument is in W_1, not W_2


def test_split_case_star_block_formula():
    # the (0,3) entry of x1 * x2 is x12 x24 + x13 x34
    desc = SplitSymp(F4)
    comps = default_components(desc)
    rng = random.Random(9)
    for _ in range(20):
        c1 = [F4.rand(rng).raw for _ in range(8)]
        c2 = [F4.rand(rng).raw for _ in range(8)]
        x1 = comps.w_element(1, c1)
        x2 = comps.w_element(2, c2)
        out = desc.el_add(desc.el_mul(x1, x2), desc.el_mul(x2, x1))
        m1, m2 = entries(desc, x1), entries(desc, x2)
        q = QuatRing(desc.quat)._el
        expected = q(m1[0][1]) * q(m2[1][3]) + q(m2[0][2]) * q(m1[2][3])
        assert q(entries(desc, out)[0][3]) == expected


# --- symplectic extraction ----------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_symplectic_extraction_split(k):
    field = gf2k(k)
    inv = extract_symplectic_invariants(SplitSymp(field))
    assert inv.pi3.dim == 8 and inv.pi5.dim == 32
    assert inv.all_true
    assert is_hyperbolic(inv.pi3).is_true  # split algebras decompose


def test_symplectic_extraction_index2_gf4():
    desc = idx2(F4, F4.gen, F4.gen, (F4.one, F4.gen, F4.gen + F4.one))
    inv = extract_symplectic_invariants(desc)
    assert inv.all_true
    assert inv.a1 and inv.a2


def test_uniqueness_under_second_l_choice():
    for field in (GF2, F4):
        desc = SplitSymp(field)
        inv1 = extract_symplectic_invariants(desc)
        L2 = construct_biquadratic(desc, variant=9)
        comps2 = galois_components(desc, L2)
        inv2 = extract_symplectic_invariants(desc, comps2)
        assert witt_equivalent_gf2k(inv1.pi3, inv2.pi3)
        assert witt_equivalent_gf2k(inv1.pi5, inv2.pi5)


def test_index2_ratfunc_closed_forms():
    desc = ratfunc_descriptor()
    inv = extract_symplectic_invariants(desc)
    assert inv.all_true
    t = R2.t
    u1, u2, u3 = R2.one, t, t + R2.one
    pi3_closed = bilinear_tensor([R2.one, u1 * u2 * u3], nrd_form(desc.quat))
    assert blocks_match_upto_squares(inv.pi3, pi3_closed).is_true
    pi5_closed = bilinear_tensor([R2.one, u1, u2, u3], pi3_closed)
    assert blocks_match_upto_squares(inv.pi5, pi5_closed).is_true


def test_isotropic_hermitian_makes_pi5_hyperbolic():
    # u1 = 1 duplicates a multiplier, so the 5-fold form is visibly split
    desc = ratfunc_descriptor()
    inv = extract_symplectic_invariants(desc)
    dec = is_hyperbolic(inv.pi5, pfister=True)
    assert dec.is_true


# --- decomposability and square-central witnesses ------------------------------


def test_from_triple_split():
    for field in (GF2, F4):
        rep = check_pi3_decomposability(SplitSymp(field), "from_triple")
        assert rep.all_true
        assert rep.witness_coords is not None


def test_from_triple_rejects_index2():
    desc = idx2(F4, F4.gen, F4.one, (F4.one, F4.one, F4.one))
    with pytest.raises(UnsupportedDescriptor):
        check_pi3_decomposability(desc, "from_triple")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_to_triple_finds_square_central_witness(k):
    rep = check_pi3_decomposability(SplitSymp(gf2k(k)), "to_triple")
    assert rep.all_true


def test_find_square_central_consistency():
    for field in (GF2, F4):
        desc = SplitSymp(field)
        x = find_square_central(desc)
        assert x is not None
        assert _as_scalar(desc, x) is None
        assert _as_scalar(desc, desc.el_mul(x, x)) is not None
        inv = extract_symplectic_invariants(desc)
        assert is_hyperbolic(inv.pi5).is_true


def test_find_square_central_index2():
    desc = idx2(F4, F4.gen, F4.gen + F4.one, (F4.gen, F4.one, F4.gen))
    x = find_square_central(desc)
    assert x is not None and _as_scalar(desc, x) is None
    assert _as_scalar(desc, desc.el_mul(x, x)) is not None


# --- degree-4 cases -------------------------------------------------------------


@pytest.mark.parametrize("field", [GF2, F4])
def test_unitary_exchange_extraction(field):
    inv = extract_unitary_invariants(UnitaryExchange(field))
    assert inv.pi2.dim == 4 and inv.pi4.dim == 16
    assert all(c.result.is_true for c in inv.checks)


def test_unitary_etale_extraction():
    inv = extract_unitary_invariants(UnitaryEtale(F4, F4.gen, (F4.one, F4.gen, F4.one, F4.gen)))
    assert all(c.result.is_true for c in inv.checks)


def test_unitary_pi4_by_construction():
    inv = extract_unitary_invariants(UnitaryExchange(F4))
    rebuilt = bilinear_tensor(
        [F4.one, inv.a1, inv.a2, inv.a1 * inv.a2], inv.pi2
    )
    assert inv.pi4 == rebuilt


@pytest.mark.parametrize(
    "field,gs",
    [
        (GF2, ("one", "one", "one", "one")),
        (F4, ("one", "gen", "gen", "one")),
    ],
)
def test_orthogonal_extraction(field, gs):
    desc = Orthogonal(field, tuple(getattr(field, g) for g in gs))
    inv = extract_orthogonal_invariants(desc)
    assert inv.phi.dim == 6 and inv.pi3.dim == 8
    assert not inv.phi.blocks and not inv.pi3.blocks
    for c in inv.checks:
        assert not c.result.is_false, c
    names = {c.name: c.result for c in inv.checks}
    assert names["radical_is_w1_w2_w3"].is_true
    assert names["phi_equals_radical_restriction"].is_true
    assert names["pi3_is_quasi_pfister_of_pi1"].is_true


@pytest.mark.parametrize(
    "kind, field",
    [("orthogonal", GF2), ("orthogonal", F4), ("unitary_etale", GF2), ("unitary_etale", F4)],
    ids=["gf2", "gf4", "etale-gf2", "etale-gf4"],
)
def test_orthogonal_gram_sweep_decides_every_check(kind, field):
    # every Gram diagonal over GF(2) (one) and GF(4) (81), for the unitary
    # etale kind with every center c outside x^2 + x (one over GF(2), two over
    # GF(4)): no check is false or unknown, the GF(2) joint witnesses included
    nonzero = [x for x in field.elements() if x]
    centers = [c for c in field.elements() if solve_artin_schreier(c) is None]
    for gs in itertools.product(nonzero, repeat=4):
        if kind == "orthogonal":
            invs = [extract_orthogonal_invariants(Orthogonal(field, gs))]
        else:
            invs = [extract_unitary_invariants(UnitaryEtale(field, c, gs)) for c in centers]
        for inv in invs:
            assert [c.name for c in inv.checks if not c.result.is_true] == [], gs


def test_orthogonal_ratfunc_detrho():
    t = R2.t
    desc = Orthogonal(R2, (R2.one, t, R2.one, R2.one))
    inv = extract_orthogonal_invariants(desc)
    assert inv.det_class is not None
    assert (inv.det_class / t).is_square()  # the class of t
    names = {c.name: c.result for c in inv.checks}
    assert names["pi3_is_quasi_pfister_of_pi1"].is_true


ORTHOGONAL_GOLDENS = ["orthogonal_gf2", "orthogonal_gf2k3", "orthogonal_ratfunc_gf2", "orthogonal_ratfunc_gf2k2"]


def _radical_verdicts(comps):
    new, old = extraction._radical_certificate(comps), oracles.radical_by_kernel(comps)
    assert (new.state, new.witness) == (old.state, old.witness)
    return new


@pytest.mark.parametrize("name", ORTHOGONAL_GOLDENS)
def test_radical_certificate_agrees_with_the_kernel_oracle(name):
    desc = _golden_descriptor(name)
    for variant in (0, 9):
        comps = galois_components(desc, construct_biquadratic(desc, variant), checks=False)
        cert = _radical_verdicts(comps)
        assert cert.is_true and cert.witness == {"radical_dim": 6}


def test_radical_certificate_rejects_a_polar_entry_on_w1():
    # 1 added to the cross term of two W_1 vectors makes them a nonsingular
    # plane: the radical drops to dimension 4 and loses them
    cert = _radical_verdicts(_planted_polar_entry("orthogonal_gf2k3"))
    assert cert.is_false and cert.witness == {"radical_dim": 4}


def test_radical_certificate_rejects_an_l_vector_among_the_w():
    # s1 and the first W_1 vector swapped: the radical keeps dimension 6, but
    # s1 pairs with s2, so a W row of the polar matrix is not zero
    comps = galois_components(_golden_descriptor("orthogonal_gf2k3"), checks=False)
    (one, s1, *rest), (w, *ws) = comps.l_coords, comps.w_coords[0]
    comps = rebuilt(comps, l_coords=[one, w, *rest], w_coords=[[s1, *ws], *comps.w_coords[1:]])
    cert = _radical_verdicts(comps)
    assert cert.is_false and cert.witness == {"radical_dim": 6}
