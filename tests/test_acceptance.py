"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (pytest -s) with its wall time and
asserts both the mathematical content and the stated time budget.  All
comparisons are exact; nothing is floating point.
"""

import itertools
import random
import time

import pytest

_SUITE_T0 = time.monotonic()

from charform.fields import GF2, gf2k, ratfunc
from charform.forms import (
    arf_invariant,
    bilinear_tensor,
    block11,
    blocks_match_upto_squares,
    direct_sum,
    form,
    is_anisotropic,
    is_hyperbolic,
    normalize,
    quasi_pfister,
    totally_singular_isometry,
    witt_equivalent_gf2k,
)
from charform.involutions import (
    Index2Symp,
    Orthogonal,
    SplitSymp,
    UnitaryEtale,
    UnitaryExchange,
    pfaffian_form,
    reduced_pfaffian,
    symmetric_space,
)
from charform.extraction import (
    check_pi3_decomposability,
    construct_biquadratic,
    default_components,
    extract_orthogonal_invariants,
    extract_symplectic_invariants,
    extract_unitary_invariants,
    find_square_central,
    galois_components,
    _as_scalar,
)
from charform.linalg import rank
from charform.quaternions import QuaternionAlgebra, nrd_form

F4 = gf2k(2)
F8 = gf2k(3)
R2 = ratfunc(GF2)
FIELDS_238 = (GF2, F4, F8)


def _index2(field):
    """A fixed nontrivial hermitian descriptor per field."""
    if field.order == 2:
        q = QuaternionAlgebra(field, field.one, field.one)
        return Index2Symp(field, q, (field.one,) * 3)
    g = field.gen
    q = QuaternionAlgebra(field, g, g)
    return Index2Symp(field, q, (field.one, g, g + field.one))


def _ratfunc_example():
    t = R2.t
    return Index2Symp(R2, QuaternionAlgebra(R2, t, t), (R2.one, t, t + R2.one))


def _report(name, t0, budget):
    dt = time.monotonic() - t0
    print(f"{name} PASS ({dt:.2f}s, budget {budget}s)")
    assert dt < budget, f"{name} exceeded its {budget}s budget ({dt:.2f}s)"


def test_ac01_dimension_suite():
    for field in FIELDS_238:
        t0 = time.monotonic()
        for desc in (SplitSymp(field), _index2(field)):
            assert symmetric_space(desc).dim == 28
            assert default_components(desc).dims == (4, 8, 8, 8)
        if field in (GF2, F4):
            ue = UnitaryExchange(field)
            assert symmetric_space(ue).dim == 16
            assert default_components(ue).dims == (4, 4, 4, 4)
            c = next(c for c in field.elements() if arf_like_trace(field, c))
            et = UnitaryEtale(field, c, (field.one,) * 4)
            assert symmetric_space(et).dim == 16
            assert default_components(et).dims == (4, 4, 4, 4)
            orth = Orthogonal(field, (field.one,) * 4)
            assert symmetric_space(orth).dim == 10
            assert default_components(orth).dims == (4, 2, 2, 2)
        _report(f"AC1[{field.text()}]", t0, 5)


def arf_like_trace(field, c):
    from charform.fields import absolute_trace

    return absolute_trace(c) == 1


def test_ac02_polarization_500_pairs():
    t0 = time.monotonic()
    for desc in (SplitSymp(F4), _index2(GF2)):
        space = symmetric_space(desc)
        rng = random.Random(2024)
        for _ in range(500):
            cv, cw = space.rand_coords(rng), space.rand_coords(rng)
            x, y = space.element(cv), space.element(cw)
            yh = space.half(cw)
            pf_x = reduced_pfaffian(desc, x)
            pf_y = reduced_pfaffian(desc, y)
            pf_xy = reduced_pfaffian(desc, desc.el_add(x, y))
            assert (
                pf_xy.second + pf_x.second + pf_y.second
                == pf_x.trace * pf_y.trace + desc.trd_product(x, yh)
            )
            assert pf_x.trace == desc.trd(space.half(cv))
    _report("AC2", t0, 10)


def test_ac03_polar_rank_28():
    t0 = time.monotonic()
    for field in FIELDS_238:
        for desc in (SplitSymp(field), _index2(field)):
            raw = pfaffian_form(desc)
            b = [list(r) for r in raw.polar_matrix()]
            assert rank(b, field) == 28
    _report("AC3", t0, 60)


def test_ac04_star_multiplicativity_1000_gf8():
    t0 = time.monotonic()
    desc = SplitSymp(F8)
    comps = default_components(desc)
    rng = random.Random(88)
    for _ in range(1000):
        c1 = [F8.rand(rng).raw for _ in range(8)]
        c2 = [F8.rand(rng).raw for _ in range(8)]
        x1 = comps.w_element(1, c1)
        x2 = comps.w_element(2, c2)
        prod = desc.el_add(desc.el_mul(x1, x2), desc.el_mul(x2, x1))
        pc = comps.space.coords(prod)
        assert comps.w_membership(3, prod) is not None or not any(pc)
        assert comps.full_raw.evaluate(pc) == comps.w_raw[0].evaluate(c1) * comps.w_raw[
            1
        ].evaluate(c2)
    _report("AC4", t0, 60)


def test_ac05_witt_decomposition_and_uniqueness():
    t0 = time.monotonic()
    for field in FIELDS_238:
        for desc in (SplitSymp(field), _index2(field)):
            comps = default_components(desc)
            inv = extract_symplectic_invariants(desc, comps)
            full_q, _ = normalize(comps.full_raw)
            total = direct_sum(full_q, block11(field), inv.pi3, inv.pi5)
            assert total.dim == 70
            dec = is_hyperbolic(total)
            assert dec.decided and dec.is_true
        desc = SplitSymp(field)
        inv1 = extract_symplectic_invariants(desc)
        comps2 = galois_components(desc, construct_biquadratic(desc, variant=9))
        inv2 = extract_symplectic_invariants(desc, comps2)
        assert witt_equivalent_gf2k(inv1.pi3, inv2.pi3)
        assert witt_equivalent_gf2k(inv1.pi5, inv2.pi5)
    _report("AC5", t0, 30)


def test_ac06_section3_example_reproduction():
    t0 = time.monotonic()
    desc = _ratfunc_example()
    t = R2.t
    u1, u2, u3 = R2.one, t, t + R2.one
    comps = default_components(desc)
    inv = extract_symplectic_invariants(desc, comps)
    nq = nrd_form(desc.quat)
    # restricted forms are the closed formulas block for block
    got1, _ = normalize(comps.w_raw[0])
    assert got1.blocks == bilinear_tensor([u1, u2 * u3], nq).blocks
    got2, _ = normalize(comps.w_raw[1])
    assert got2.blocks == bilinear_tensor([u2, u1 * u3], nq).blocks
    got3, _ = normalize(comps.w_raw[2])
    assert got3.blocks == bilinear_tensor([u3, u1 * u2], nq).blocks
    # pi3 and pi5 match the closed forms by square-substitution witnesses
    pi3_closed = bilinear_tensor([R2.one, u1 * u2 * u3], nq)
    dec3 = blocks_match_upto_squares(inv.pi3, pi3_closed)
    assert dec3.is_true, dec3
    pi5_closed = bilinear_tensor([R2.one, u1, u2, u3], pi3_closed)
    dec5 = blocks_match_upto_squares(inv.pi5, pi5_closed)
    assert dec5.is_true, dec5
    _report("AC6", t0, 30)


def test_ac07_square_central_consistency():
    t0 = time.monotonic()
    for field in (GF2, F4):
        for desc in (SplitSymp(field), _index2(field)):
            x = find_square_central(desc)
            assert x is not None and not isinstance(x, type(None))
            assert _as_scalar(desc, x) is None  # x outside F.1
            assert _as_scalar(desc, desc.el_mul(x, x)) is not None  # x^2 in F.1
            inv = extract_symplectic_invariants(desc)
            assert is_hyperbolic(inv.pi5).is_true
    _report("AC7", t0, 60)


def test_ac08_from_triple_path():
    t0 = time.monotonic()
    for field in (GF2, F4):
        rep = check_pi3_decomposability(SplitSymp(field), "from_triple")
        names = {c.name: c.result for c in rep.checks}
        assert names["srp_vanishes_on_j1"].is_true  # W restriction isotropic
        assert names["pi3_hyperbolic"].is_true
        assert rep.all_true
    _report("AC8", t0, 60)


def test_ac09_unitary_decomposition():
    t0 = time.monotonic()
    for field in (GF2, F4):
        desc = UnitaryExchange(field)
        comps = default_components(desc)
        inv = extract_unitary_invariants(desc, comps)
        full_q, _ = normalize(comps.full_raw)
        total = direct_sum(full_q, block11(field), inv.pi2, inv.pi4)
        dec = is_hyperbolic(total)
        assert dec.decided and dec.is_true
        rebuilt = bilinear_tensor([field.one, inv.a1, inv.a2, inv.a1 * inv.a2], inv.pi2)
        assert inv.pi4 == rebuilt  # by construction
    _report("AC9", t0, 60)


def test_ac10_orthogonal_decomposition():
    t0 = time.monotonic()
    grams = {
        GF2: [(GF2.one,) * 4],
        F4: [(F4.one,) * 4, (F4.one, F4.gen, F4.gen + F4.one, F4.gen)],
    }
    for field, gs_list in grams.items():
        for gs in gs_list:
            desc = Orthogonal(field, gs)
            comps = default_components(desc)
            inv = extract_orthogonal_invariants(desc, comps)
            # Srd normalizes to [0,0] + [1,1] + phi with phi totally singular dim 6
            q, _ = normalize(comps.full_raw)
            assert len(q.blocks) == 2 and len(q.diag) == 6
            from charform.forms import block00

            nonsingular_part = form(field, q.blocks, [])
            assert witt_equivalent_gf2k(
                nonsingular_part, direct_sum(block11(field), block00(field))
            )
            names = {c.name: c.result for c in inv.checks}
            assert names["l_restriction_is_11_00"].is_true
            assert inv.phi.dim == 6 and not inv.phi.blocks
            assert names["phi_equals_radical_restriction"].is_true
            assert names["radical_is_w1_w2_w3"].is_true
            # star multiplicativity on 500 samples
            rng = random.Random(10)
            for _ in range(500):
                c1 = [field.rand(rng).raw for _ in range(2)]
                c2 = [field.rand(rng).raw for _ in range(2)]
                w1 = comps.w_element(1, c1)
                w2 = comps.w_element(2, c2)
                prod = desc.el_add(desc.el_mul(w1, w2), desc.el_mul(w2, w1))
                pc = comps.space.coords(prod)
                assert comps.full_raw.evaluate(pc) == comps.w_raw[0].evaluate(
                    c1
                ) * comps.w_raw[1].evaluate(c2)
            # pi'_3 = pi'_1 + phi = <1,a1,a2,a1a2> x pi'_1
            pi13 = form(field, [], list(inv.pi1.diag) + list(inv.phi.diag))
            assert totally_singular_isometry(inv.pi3, pi13).is_true
            quasi = quasi_pfister([inv.a1, inv.a2, inv.det_class])
            assert totally_singular_isometry(inv.pi3, quasi).is_true
    _report("AC10", t0, 20)


def test_ac11_oracle_cross_checks():
    t0 = time.monotonic()
    desc = SplitSymp(F4)
    space = symmetric_space(desc)
    rng = random.Random(11)
    for _ in range(500):
        x = space.element(space.rand_coords(rng))
        pf = reduced_pfaffian(desc, x)
        pc = desc.reduced_charpoly(x)
        square = [F4.zero] * 9
        for i, c in enumerate(pf.coeffs):
            square[2 * i] = c * c
        assert square == pc  # prp^2 = pcrd
        acc = desc.zero_el()
        power = desc.one_el()
        for c in pf.coeffs:
            acc = desc.el_add(acc, desc.el_scal(c, power))
            power = desc.el_mul(power, x)
        assert acc == desc.zero_el()  # Prp annihilates its element
    # decisions agree with exhaustive isotropy search up to dimension 8
    for field, max_blocks, n_forms in ((GF2, 4, 40), (F4, 4, 6)):
        for _ in range(n_forms):
            nb = rng.randrange(1, max_blocks + 1)
            nd = rng.randrange(0, 2) if 2 * nb < 8 else 0
            q = form(
                field,
                [(field.rand(rng), field.rand(rng)) for _ in range(nb)],
                [field.rand(rng) for _ in range(nd)],
            )
            if field.order**q.dim > 1 << 16:
                continue
            brute = _brute_isotropic(q)
            assert is_anisotropic(q).is_true == (brute is None)
            if not q.diag:
                hyp = is_hyperbolic(q)
                assert hyp.decided
                if hyp.is_true:
                    assert brute is not None or q.dim == 0
    _report("AC11", t0, 120)


def _brute_isotropic(q):
    field = q.field
    for vals in itertools.product(range(field.order), repeat=q.dim):
        if not any(vals):
            continue
        v = [field._el(x) for x in vals]
        if not q.evaluate([a.raw for a in v]):
            return v
    return None


def test_ac11_full_suite_under_two_minutes():
    elapsed = time.monotonic() - _SUITE_T0
    print(f"AC11[full-suite] PASS ({elapsed:.1f}s of 120s)")
    assert elapsed < 120.0
