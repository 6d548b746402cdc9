"""Seeded property batteries behind the verify command.

Each property runs a deterministic number of trials from a seed derived per
property, so the same (seed, trials) pair reproduces the same outcome; trial
seeds are derived by index, which keeps aggregation deterministic if the
trials are ever sharded.
"""

from __future__ import annotations

import functools
import random
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List

from .errors import CharformError, NotPfaffian
from .fields import (
    Fe,
    Field,
    GF2k,
    absolute_trace,
    etale_ops,
    frobenius_sqrt,
    solve_artin_schreier,
)
from .forms import (
    QuadraticForm,
    RawQuadraticForm,
    arf_invariant,
    bilinear_tensor,
    candidates,
    direct_sum,
    form,
    is_hyperbolic,
    normalize,
    quad_pfister,
    scale,
    witt_equivalent_gf2k,
)
from .involutions import (
    CASE_DIMS,
    Index2Symp,
    Orthogonal,
    SplitSymp,
    UnitaryEtale,
    UnitaryExchange,
    _pfaffian,
    pfaffian_form,
    reduced_charpolys,
    symmetric_space,
)
from .extraction import (
    construct_biquadratic,
    default_components,
    extract_orthogonal_invariants,
    extract_symplectic_invariants,
    extract_unitary_invariants,
    find_square_central,
    galois_components,
    star_multiplicative,
    _as_scalar,
)
from .linalg import combination, unit_vector
from .quaternions import QuaternionAlgebra, nrd_form, quat_conj


@dataclass
class PropertyResult:
    name: str
    passed: bool
    trials: int
    unknowns: int = 0
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f", {self.unknowns} unknown" if self.unknowns else ""
        note = f" [{self.detail}]" if self.detail and not self.passed else ""
        return f"{status} {self.name} ({self.trials} trials{extra}){note}"


def _checks_result(name: str, checks, ok: bool = True) -> PropertyResult:
    """One property from an extraction report: it passes when ``ok`` holds
    and no check is false, and it counts the unknown checks."""
    falses = [c.name for c in checks if c.result.is_false]
    unknowns = sum(c.result.is_unknown for c in checks)
    return PropertyResult(
        name, ok and not falses, len(checks), unknowns=unknowns, detail=",".join(falses)
    )


def _rng(seed: int, name: str) -> random.Random:
    return random.Random((seed << 16) ^ zlib.crc32(name.encode()))


def _symplectic_descriptor(field: Field):
    if isinstance(field, GF2k):
        return SplitSymp(field)
    t = field.t
    return Index2Symp(
        field, QuaternionAlgebra(field, t, t), (field.one, t, t + field.one)
    )


def _random_quat_algebra(field: Field, rng: random.Random) -> QuaternionAlgebra:
    return QuaternionAlgebra(field, field.rand(rng), field.rand_nonzero(rng))


# --- suite: fields ------------------------------------------------------------


def run_fields(field: Field, seed: int, trials: int) -> List[PropertyResult]:
    out = []
    rng = _rng(seed, "fields.axioms")
    bad = 0
    for _ in range(trials):
        x, y, z = (field.rand(rng) for _ in range(3))
        ok = (
            (x + y) + z == x + (y + z)
            and x * y == y * x
            and (x * y) * z == x * (y * z)
            and x * (y + z) == x * y + x * z
        )
        if y:
            ok = ok and (x / y) * y == x
        bad += not ok
    out.append(PropertyResult("fields.axioms", bad == 0, trials, detail=f"{bad} failures"))

    rng = _rng(seed, "fields.sqrt")
    bad = sum(frobenius_sqrt(e * e) != e for e in (field.rand(rng) for _ in range(trials)))
    out.append(PropertyResult("fields.sqrt_of_square", bad == 0, trials, detail=f"{bad} failures"))

    if isinstance(field, GF2k) and field.k <= 4:
        image = {x * x + x for x in field.elements()}
        ok = len(image) == field.order // 2
        ok = ok and all(absolute_trace(a) == 0 for a in image)
        solved = all(
            (solve_artin_schreier(a) is not None) == (a in image) for a in field.elements()
        )
        out.append(PropertyResult("fields.artin_schreier_image", ok and solved, field.order))
    else:
        rng = _rng(seed, "fields.artin")
        bad = 0
        for _ in range(trials):
            x = field.rand(rng)
            a = x * x + x
            s = solve_artin_schreier(a)
            if not isinstance(s, Fe) or s * s + s != a:
                bad += 1
        out.append(PropertyResult("fields.artin_schreier_solve", bad == 0, trials))
    return out


# --- suite: forms -------------------------------------------------------------


def _random_raw(field: Field, rng: random.Random, n: int) -> RawQuadraticForm:
    u = [[field.rand(rng) if j >= i else field.zero for j in range(n)] for i in range(n)]
    return RawQuadraticForm(field, u)


def run_forms(field: Field, seed: int, trials: int) -> List[PropertyResult]:
    out = []
    rng = _rng(seed, "forms.normalize")
    bad = 0
    rounds = max(1, trials // 20)
    for _ in range(rounds):
        n = rng.randrange(1, 7)
        raw = _random_raw(field, rng, n)
        q, t = normalize(raw)
        for _ in range(20):
            y = [field.rrand(rng) for _ in range(n)]
            ty = combination(field, y, list(zip(*t)), n)
            if raw.evaluate(ty) != q.evaluate(y):
                bad += 1
    out.append(PropertyResult("forms.normalize_preserves_values", bad == 0, rounds * 20))

    if isinstance(field, GF2k):
        rng = _rng(seed, "forms.arf")
        bad = 0
        for _ in range(trials):
            a, b, c, d = (field.rand(rng) for _ in range(4))
            q1 = form(field, [(a, b)])
            q2 = form(field, [(c, d)])
            if arf_invariant(direct_sum(q1, q2)) != (arf_invariant(q1) ^ arf_invariant(q2)):
                bad += 1
            lam = field.rand_nonzero(rng)
            if arf_invariant(scale(lam, q1)) != arf_invariant(q1):
                bad += 1
        out.append(PropertyResult("forms.arf_additive_scale_invariant", bad == 0, trials))

        rng = _rng(seed, "forms.pfister")
        bad = 0
        small = field.order <= 8
        n_trials = min(trials, 20)
        for _ in range(n_trials):
            slots = [field.rand_nonzero(rng)]
            c = field.rand(rng)
            p = quad_pfister(slots, c)
            dec = is_hyperbolic(p)
            if small:
                brute = _brute_isotropic(p)
                if dec.is_true != (brute is not None):
                    bad += 1
        out.append(PropertyResult("forms.pfister_hyperbolic_vs_isotropy", bad == 0, n_trials))

        rng = _rng(seed, "forms.tensor")
        bad = 0
        for _ in range(min(trials, 50)):
            a, b = field.rand_nonzero(rng), field.rand_nonzero(rng)
            q = form(field, [(field.one, field.rand(rng))])
            lhs = bilinear_tensor([field.one, a], bilinear_tensor([field.one, b], q))
            rhs = bilinear_tensor([field.one, a, b, a * b], q)
            if not witt_equivalent_gf2k(lhs, rhs):
                bad += 1
        out.append(PropertyResult("forms.tensor_associativity", bad == 0, min(trials, 50)))
    return out


def _brute_isotropic(q: QuadraticForm):
    field = q.field
    if field.order**q.dim > 1 << 16:
        return None
    stream = candidates(field, q.dim, None, 0, 1 << 16)
    return next((v for v in stream if not q.evaluate(v)), None)


# --- suite: quaternions -------------------------------------------------------


def run_quaternions(field: Field, seed: int, trials: int) -> List[PropertyResult]:
    """The quaternion properties on payload 4-tuples; nrd(x) is coordinate 0
    of x * conj(x), so it is checked against the norm form independently."""
    out = []
    rng = _rng(seed, "quat.make")
    Q = _random_quat_algebra(field, rng)
    mul, conj, zero = Q.rmul, functools.partial(quat_conj, field), field.rzero
    bad_conj = bad_nrd = bad_trd = bad_form = 0
    norm_form = nrd_form(Q)

    def rand(r):
        return tuple(field.rrand(r) for _ in range(4))

    def nrd(x):
        return mul(x, conj(x))[0]

    for _ in range(trials):
        x, y = rand(rng), rand(rng)
        if conj(mul(x, y)) != mul(conj(y), conj(x)) or conj(conj(x)) != x:
            bad_conj += 1
        if nrd(mul(x, y)) != field.rmul(nrd(x), nrd(y)):
            bad_nrd += 1
        if mul(x, y)[1] != mul(y, x)[1]:
            bad_trd += 1
        if norm_form.evaluate((*x[:3], field.rmul(Q.b.raw, x[3]))).raw != nrd(x):
            bad_form += 1
    out.append(PropertyResult("quaternions.conj_antiautomorphism", bad_conj == 0, trials))
    out.append(PropertyResult("quaternions.nrd_multiplicative", bad_nrd == 0, trials))
    out.append(PropertyResult("quaternions.trd_symmetric", bad_trd == 0, trials))
    out.append(PropertyResult("quaternions.nrd_form_agrees", bad_form == 0, trials))

    # 2x2 images, entries row by row, over F or over F[s]/(s^2 + s + a)
    sp = Q.split()
    w = 1 if sp.c is None else 2
    add, emul = field.radd, field.rmul
    if sp.c is not None:
        add, emul = etale_ops(sp.c, zero, add, emul)

    def image(x):
        flat = [zero] * 4 * w
        for xk, terms in zip(x, sp.terms):
            for (i, j, p), m in terms:
                k = (2 * i + j) * w + p
                flat[k] = field.radd(flat[k], field.rmul(xk, m))
        return flat if w == 1 else list(zip(flat[::2], flat[1::2]))

    def mat_mul(p, q):
        return [add(emul(p[i], q[j]), emul(p[i + 1], q[j + 2])) for i in (0, 2) for j in (0, 1)]

    one, u, v = (image(unit_vector(field, 4, k)) for k in range(3))
    a, b = (image((c.raw, zero, zero, zero)) for c in (Q.a, Q.b))
    ok = (
        list(map(add, mat_mul(u, u), u)) == a
        and mat_mul(v, v) == b
        and mat_mul(v, u) == mat_mul(list(map(add, u, one)), v)
    )
    rng2 = _rng(seed, "quat.embed")
    for _ in range(min(trials, 100)):
        x, y = rand(rng2), rand(rng2)
        if image(mul(x, y)) != mat_mul(image(x), image(y)):
            ok = False
    out.append(PropertyResult("quaternions.split_embedding", ok, min(trials, 100) + 3))
    return out


# --- suite: symplectic ----------------------------------------------------------


def run_symplectic(field: Field, seed: int, trials: int) -> List[PropertyResult]:
    out = []
    desc = _symplectic_descriptor(field)
    space = symmetric_space(desc)
    sym_dim, comp_dims = CASE_DIMS["symplectic"]
    out.append(PropertyResult(f"symplectic.symd_dim_{sym_dim}", space.dim == sym_dim, 1))

    # every element is drawn first; the charpolys of each property are one
    # batch, and each goes through _pfaffian in the order of the draws
    rng = _rng(seed, "symp.polarization")
    raw = pfaffian_form(desc)
    n_pairs = min(trials, 200)
    draws = [(space.rand_coords(rng), space.rand_coords(rng)) for _ in range(n_pairs)]
    pairs = [(space.element(cv), space.element(cw)) for cv, cw in draws]
    # x in lanes 3p and 3p + 2, y in lanes 3p + 1 and 3p + 2: x + y in lane 3p + 2
    masks = [mask << 3 * p for p in range(n_pairs) for mask in (0b101, 0b110)]
    pcs = reduced_charpolys(desc, [z for pair in pairs for z in pair], masks)
    bad = 0
    for p, ((cv, cw), (x, y)) in enumerate(zip(draws, pairs)):
        pf_x, pf_y, pf_xy = (_pfaffian(pc, field) for pc in pcs[3 * p : 3 * p + 3])
        lhs = pf_xy.second + pf_x.second + pf_y.second
        if lhs != pf_x.trace * pf_y.trace + desc.trd_product(x, space.half(cw)):
            bad += 1
        if pf_x.trace != desc.trd(space.half(cv)):
            bad += 1
    out.append(PropertyResult("symplectic.polarization_identity", bad == 0, n_pairs))

    rng = _rng(seed, "symp.prp")
    bad = 0
    n_el = min(trials, 100)
    one = desc.one_el()
    xs = [space.element(space.rand_coords(rng)) for _ in range(n_el)]
    for x, pc in zip(xs, reduced_charpolys(desc, xs)):
        # the charpoly is Prp(x)^2 exactly when _pfaffian takes its square root
        try:
            pf = _pfaffian(pc, field)
        except NotPfaffian:
            bad += 1
            continue
        # Prp(x) by Horner; Prp is monic
        acc = one
        for c in reversed(pf.coeffs[:-1]):
            acc = desc.el_add(desc.el_mul(acc, x), desc.el_scal(c, one))
        bad += acc != desc.zero_el()
    out.append(PropertyResult("symplectic.prp_square_and_annihilation", bad == 0, n_el))

    comps = default_components(desc)
    out.append(PropertyResult("symplectic.component_dims", comps.dims == comp_dims, 1))

    n_star = min(trials, 300)
    ok = star_multiplicative(comps, _rng(seed, "symp.star"), n_star)
    out.append(PropertyResult("symplectic.star_multiplicative", ok, n_star))

    inv = extract_symplectic_invariants(desc, comps, seed=seed)
    out.append(_checks_result("symplectic.extraction_checks", inv.checks))

    if isinstance(field, GF2k):
        comps2 = galois_components(desc, construct_biquadratic(desc, variant=9))
        inv2 = extract_symplectic_invariants(desc, comps2, seed=seed)
        same = witt_equivalent_gf2k(inv.pi3, inv2.pi3) and witt_equivalent_gf2k(
            inv.pi5, inv2.pi5
        )
        out.append(PropertyResult("symplectic.uniqueness_second_l", same, 1))

        x = find_square_central(desc, comps, seed=seed)
        ok = (
            x is not None
            and _as_scalar(desc, x) is None
            and _as_scalar(desc, desc.el_mul(x, x)) is not None
        )
        hyp = is_hyperbolic(inv.pi5)
        out.append(
            PropertyResult(
                "symplectic.square_central_iff_pi5_hyperbolic",
                ok == hyp.is_true,
                1,
            )
        )
    return out


# --- suites: unitary and orthogonal ---------------------------------------------


def run_unitary(field: Field, seed: int, trials: int) -> List[PropertyResult]:
    out = []
    if isinstance(field, GF2k):
        c = next(c for c in field.elements() if solve_artin_schreier(c) is None)
    else:
        c = field.t  # s^2 + s + t is irreducible: t has odd degree
    sym_dim, comp_dims = CASE_DIMS["unitary"]
    for desc in (UnitaryExchange(field), UnitaryEtale(field, c, (field.one,) * 4)):
        space = symmetric_space(desc)
        comps = default_components(desc)
        inv = extract_unitary_invariants(desc, comps, seed=seed)
        ok = space.dim == sym_dim and comps.dims == comp_dims
        out.append(_checks_result(f"unitary.{desc.kind}", inv.checks, ok))
    return out


def run_orthogonal(field: Field, seed: int, trials: int) -> List[PropertyResult]:
    out = []
    rng = _rng(seed, "orth.gram")
    if isinstance(field, GF2k):
        gram = tuple(field.rand_nonzero(rng) for _ in range(4))
    else:
        gram = (field.one, field.t, field.one, field.one)
    desc = Orthogonal(field, gram)
    space = symmetric_space(desc)
    comps = default_components(desc)
    inv = extract_orthogonal_invariants(desc, comps, seed=seed)
    sym_dim, comp_dims = CASE_DIMS["orthogonal"]
    ok = space.dim == sym_dim and comps.dims == comp_dims
    out.append(_checks_result("orthogonal.pipeline", inv.checks, ok))
    return out


SUITES: Dict[str, Callable] = {
    "fields": run_fields,
    "forms": run_forms,
    "quaternions": run_quaternions,
    "symplectic": run_symplectic,
    "unitary": run_unitary,
    "orthogonal": run_orthogonal,
}


def run_suite(
    suite: str, field: Field, seed: int, trials: int
) -> List[PropertyResult]:
    if trials == 0:
        return [
            PropertyResult(
                f"{suite}.vacuous", True, 0, detail="warning: zero trials requested"
            )
        ]
    if suite == "all":
        out = []
        for name in SUITES:
            out.extend(SUITES[name](field, seed, trials))
        return out
    if suite not in SUITES:
        raise CharformError(f"unknown suite {suite!r}")
    return SUITES[suite](field, seed, trials)
