"""Pipeline tests: biquadratic subalgebras, components, star composition,
and the invariant extraction reports."""

import dataclasses
import itertools
import random

import pytest

from descriptor_layout import entries
from oracles import QuatRing
from charform import extraction, verify
from charform.errors import (
    DecompositionFailure,
    InvalidCandidate,
    NotInComponent,
    NotInLi,
    UnsupportedDescriptor,
)
from charform.fields import GF2, gf2k, ratfunc, solve_artin_schreier
from charform.forms import (
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
    check_pi3_decomposability,
    construct_biquadratic,
    default_components,
    extract_orthogonal_invariants,
    extract_symplectic_invariants,
    extract_unitary_invariants,
    find_square_central,
    galois_components,
    li_trace_norm,
    star,
    validate_biquadratic,
    _as_scalar,
)
from charform.linalg import Span, kernel
from charform.quaternions import QuaternionAlgebra, nrd_form

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


# --- biquadratic subalgebras --------------------------------------------------


def test_construct_biquadratic_idempotents():
    desc = SplitSymp(GF2)
    L = construct_biquadratic(desc)
    # idempotent generators: s^2 + s = 0
    assert not L.c1 and not L.c2
    assert L.span.dim == 4


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


def test_li_trace_norm_examples():
    desc = SplitSymp(F4)
    L = construct_biquadratic(desc)
    one = desc.one_el()
    t, n = li_trace_norm(L, 1, one)
    assert not t and n == F4.one  # T(1) = 1+1 = 0, N(1) = 1
    g, c = L.generator(1)
    t, n = li_trace_norm(L, 1, g)
    assert t == F4.one and n == c
    with pytest.raises(NotInLi):
        li_trace_norm(L, 2, g)  # s2 generates L_1, not L_2


def test_li_trace_norm_split_diagonal():
    # diag(x1, x1, x2, x2): T_1 = x1 + x2, N_1 = x1 x2
    desc = SplitSymp(F8)
    L = construct_biquadratic(desc)
    x1, x2 = F8.gen, F8.gen * F8.gen
    diag = enumerate((x1, x1, x2, x2))
    ell = quat_element(desc, {(i, i): QuatRing(desc.quat).scalar(x) for i, x in diag})
    t, n = li_trace_norm(L, 1, ell)
    assert t == x1 + x2 and n == x1 * x2


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


def test_component_dimensions_checked_before_closed_form_swap(monkeypatch):
    # a solved W_i with a planted 9th vector must fail the dimension check,
    # even though the closed-form basis that replaces it has 8 vectors
    solve = extraction.kernel

    def planted(rows, field):
        basis = solve(rows, field)
        return basis + [basis[0]]

    monkeypatch.setattr(extraction, "kernel", planted)
    with pytest.raises(DecompositionFailure, match="expected"):
        galois_components(SplitSymp(GF2))


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
        gens = extraction._li_module_basis(comps, i)
        images = [space.coords(desc.el_mul(space.element(v), g)) for v in gens]
        assert 2 * len(gens) == len(w) and _same_span(gens + images, w, field)


def test_li_module_basis_rejects_an_image_outside_w_i():
    desc = SplitSymp(F4)
    comps = galois_components(desc, checks=False)
    # W_2 in place of W_1: its vectors times g_1 lie in W_2, outside the span of W_1
    comps.w_coords[0] = comps.w_coords[1]
    with pytest.raises(DecompositionFailure, match="not stable"):
        extraction._li_module_basis(comps, 1)


def test_component_checks_reject_l_not_orthogonal_to_w1():
    comps = galois_components(SplitSymp(F4), checks=False)
    # a W_1 vector in place of s1: the form on W_1 is nonsingular
    comps.l_coords[1] = comps.w_coords[0][0]
    with pytest.raises(DecompositionFailure, match="not orthogonal"):
        extraction._component_checks(comps)


def test_component_checks_reject_a_scaled_form():
    # the squares check reads full_raw, which no longer gives T_i(x^2)
    comps = galois_components(SplitSymp(F4), checks=False)
    comps.full_raw = comps.full_raw.scaled(F4.gen)
    with pytest.raises(DecompositionFailure, match="second coefficient differs"):
        extraction._component_checks(comps)


def test_component_checks_reject_w1_not_free_over_l1():
    # g_1 = p_2 + p_3 kills the first-layout vectors of W_1 (entries at (0, 1)
    # and (1, 0)), so no candidate is independent of its image
    comps = galois_components(SplitSymp(F4), checks=False)
    comps = dataclasses.replace(comps, w_coords=[comps.w_coords[0][:4], *comps.w_coords[1:]])
    with pytest.raises(DecompositionFailure, match="W_1 is not free over L_1"):
        extraction._component_checks(comps)


def _scaled_w1_form(comps):
    return dataclasses.replace(comps, w_raw=[comps.w_raw[0].scaled(F4.gen), *comps.w_raw[1:]])


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
    # 4 polarization pairs take 3 reduced charpolys each, the 4 Prp elements
    # one each (Prp evaluated by Horner), find_square_central 2
    runs, calls = [], []
    charpoly, mul = _MatrixDescriptor.reduced_charpoly, _MatrixDescriptor.el_mul

    def counted_charpoly(self, x):
        runs.append(None)
        return charpoly(self, x)

    def counted_mul(self, x, y):
        calls.append(None)
        return mul(self, x, y)

    monkeypatch.setattr(_MatrixDescriptor, "reduced_charpoly", counted_charpoly)
    monkeypatch.setattr(_MatrixDescriptor, "el_mul", counted_mul)
    assert all(r.passed for r in verify.run_symplectic(F4, 1, 4))
    assert len(runs) <= 18 and len(calls) <= 639


def test_verify_reports_a_charpoly_that_is_not_a_square(monkeypatch):
    # a nonzero X coefficient fails the Prp property instead of aborting the suite
    charpoly = verify.reduced_charpoly

    def flipped(desc, x):
        pc = charpoly(desc, x)
        return [pc[0], pc[1] + desc.field.one, *pc[2:]]

    monkeypatch.setattr(verify, "reduced_charpoly", flipped)
    lines = {r.name: r.line() for r in verify.run_symplectic(F4, 1, 4)}
    prp = "symplectic.prp_square_and_annihilation"
    assert lines.pop(prp) == f"FAIL {prp} (4 trials)"
    assert all(line.startswith("PASS ") for line in lines.values())


@pytest.mark.parametrize(
    "maker,budget",
    [
        (lambda: idx2(F4, F4.gen, F4.one, (F4.gen, F4.one, F4.gen)), 270),
        (lambda: UnitaryEtale(F4, F4.gen, (F4.one, F4.gen, F4.one, F4.gen)), 125),
    ],
    ids=["index2_symp", "unitary_etale"],
)
def test_galois_components_el_mul_budget(monkeypatch, maker, budget):
    # products by s1 and s2 shared by the three components, and the module
    # basis searched on W_i coordinates
    desc = maker()
    calls = []
    mul = _MatrixDescriptor.el_mul

    def counted(self, x, y):
        calls.append(None)
        return mul(self, x, y)

    monkeypatch.setattr(_MatrixDescriptor, "el_mul", counted)
    galois_components(desc)
    assert len(calls) <= budget


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
