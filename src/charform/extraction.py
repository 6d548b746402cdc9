"""Klein-group decompositions and Pfister invariant extraction.

A biquadratic etale subalgebra L of the symmetric space splits it into
L and three components W_1, W_2, W_3, pairwise orthogonal for the polar
form; the restricted forms are scalar multiples of a single Pfister form,
recovered here together with verification reports.  Every witness search is
seeded, falls back to exhaustive enumeration over tiny fields, and is logged
into the report for replay.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field as dc_field
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .decision import Decision, UNKNOWN, Unknown, decided, unknown
from .errors import (
    DecompositionFailure,
    InvalidCandidate,
    NoAnisotropicVector,
    NotInComponent,
    NotInLi,
    UnsupportedDescriptor,
    WitnessNotFound,
)
from .fields import Fe, GF2k, QuadraticExtension, solve_artin_schreier
from .forms import (
    QuadraticForm,
    RawQuadraticForm,
    arf_invariant,
    bilinear_tensor,
    block11,
    blocks_match_upto_squares,
    candidates,
    direct_sum,
    form,
    is_hyperbolic,
    normalize,
    quasi_pfister,
    totally_singular_isometry,
    witt_equivalent_gf2k,
)
from .involutions import (
    CASE_DIMS,
    InvolutionSpace,
    SplitSymp,
    _SympBase,
    det_orthogonal,
    pfaffian_form,
    reduced_pfaffian,
    second_trace_form,
    symmetric_space,
)
from .linalg import Span, combination, kernel, rank, unit_vector
from .quaternions import nrd_form, quat_conj

_S4 = list(itertools.permutations(range(4)))

# whether alpha_1, alpha_2, alpha_3 move (s1, s2): alpha_i(s_k) = s_k + 1 if so
_KLEIN_MOVES = ((True, False), (False, True), (True, True))


@dataclass(frozen=True)
class Check:
    name: str
    result: Decision


class BiquadraticEtale:
    """Embedded F[s1] x F[s2] with its Klein four-group action.

    The group elements act by s1 -> s1 + e1, s2 -> s2 + e2; with the labels
    alpha_1 = (1,0), alpha_2 = (0,1), alpha_3 = (1,1) of _KLEIN_MOVES the
    fixed algebras are L_1 = F[s2], L_2 = F[s1], L_3 = F[s1 + s2].
    Coordinates over the basis (1, s1, s2, s1*s2) and over (1, g_i) are
    lists of field payloads.
    """

    def __init__(self, desc, s1, s2, s12, c1: Fe, c2: Fe):
        self.desc, self.s1, self.s2, self.c1, self.c2 = desc, s1, s2, c1, c2
        one = desc.one_el()
        self.basis = [one, s1, s2, s12]
        self._li_spans = {i: Span([one, self.generator(i)[0]], desc.field) for i in (1, 2, 3)}

    def generator(self, i: int):
        """A generator g_i of the fixed algebra L_i with its constant c_i."""
        if i == 1:
            return self.s2, self.c2
        if i == 2:
            return self.s1, self.c1
        if i == 3:
            return self.desc.el_add(self.s1, self.s2), self.c1 + self.c2
        raise ValueError("fixed algebras are indexed 1..3")

    def li_ring(self, i: int) -> QuadraticExtension:
        _, c = self.generator(i)
        return QuadraticExtension(self.desc.field, c)

    def li_coords(self, i: int, ell) -> Optional[list]:
        """The payloads (a, b) with ell = a + b*g_i, or None."""
        return self._li_spans[i].input_coords(self.desc.to_vec(ell))


def _as_scalar(desc, x) -> Optional[Fe]:
    """The scalar c with x = c * 1, or None."""
    c = desc.field._el(x[0])
    return c if x == desc.el_scal(c, desc.one_el()) else None


def validate_biquadratic(desc, s1, s2) -> BiquadraticEtale:
    """Validate generators of a biquadratic etale subalgebra."""
    space = symmetric_space(desc)
    for name, s in (("s1", s1), ("s2", s2)):
        if space.coords(s) is None:
            raise InvalidCandidate(f"{name} is not a symmetric element")
    s12 = desc.el_mul(s1, s2)  # s1*s2 + s2*s1 = symmetrized(s1*s2): both are symmetric
    if desc.symmetrized(s12) != desc.zero_el():
        raise InvalidCandidate("generators do not commute")
    cs = []
    for name, s in (("s1", s1), ("s2", s2)):
        c = _as_scalar(desc, desc.el_add(desc.el_mul(s, s), s))
        if c is None:
            raise InvalidCandidate(f"{name}^2 + {name} is not a scalar")
        cs.append(c)
    cand = BiquadraticEtale(desc, s1, s2, s12, cs[0], cs[1])
    if rank(cand.basis, desc.field) != 4:
        raise InvalidCandidate("generators span less than four dimensions")
    return cand


def _diag_generators(desc, variant: int):
    """Idempotent sums s1 = p_i2 + p_i4, s2 = p_i3 + p_i4 of diagonal
    projectors, with (i1..i4) the permutation selected by ``variant``."""
    perm = _S4[variant % len(_S4)]
    p = desc.projector
    return desc.el_add(p(perm[1]), p(perm[3])), desc.el_add(p(perm[2]), p(perm[3]))


def construct_biquadratic(desc, variant: int = 0) -> BiquadraticEtale:
    """The split biquadratic subalgebra from diagonal projections.

    ``variant`` selects the permutation of the diagonal (used to re-run
    extractions with a different choice of L); see _diag_generators.
    """
    return validate_biquadratic(desc, *_diag_generators(desc, variant))


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------


def li_trace_norm(L: BiquadraticEtale, i: int, ell) -> Tuple[Fe, Fe]:
    """Trace and norm of an element of the quadratic subalgebra L_i."""
    coords = L.li_coords(i, ell)
    if coords is None:
        raise NotInLi(f"element is not in L_{i}")
    field = L.desc.field
    return field._el(coords[1]), field._el(L.li_ring(i).rnorm(coords))


@dataclass
class WComponents:
    """L and the three Klein components, with restricted forms.

    ``adapted`` is the full form on the adapted basis L | W_1 | W_2 | W_3
    (its Gram matrix, computed once); ``w_raw`` holds its three W blocks.
    Both are rebuilt by ``dataclasses.replace``.
    """

    desc: object
    L: BiquadraticEtale
    space: InvolutionSpace
    full_raw: RawQuadraticForm
    l_coords: List[list]  # payload coordinates over the space basis
    w_coords: List[List[list]]  # [i][vector], i = 0..2 for W_1..W_3
    adapted: RawQuadraticForm = dc_field(init=False)
    w_raw: List[RawQuadraticForm] = dc_field(init=False)
    w_spans: List[Span] = dc_field(init=False)  # of w_coords, built once

    def __post_init__(self):
        field = self.desc.field
        self.w_spans = [Span(w, field) for w in self.w_coords]
        self.adapted = self.full_raw.restrict(self.l_coords + [v for w in self.w_coords for v in w])
        u, ends = self.adapted.u, list(itertools.accumulate(self.dims))
        self.w_raw = [
            RawQuadraticForm(field, [row[s:e] for row in u[s:e]]) for s, e in zip(ends, ends[1:])
        ]

    @property
    def dims(self) -> Tuple[int, int, int, int]:
        return (len(self.l_coords), *map(len, self.w_coords))

    def w_element(self, i: int, coords: Sequence):
        vectors = self.w_coords[i - 1]
        return self.space.element(combination(self.desc.field, coords, vectors, self.space.dim))

    def w_membership(self, i: int, x) -> Optional[list]:
        sc = self.space.coords(x)
        if sc is None:
            return None
        return self.w_spans[i - 1].coords(sc)


def _quat_matrix(desc: _SympBase, entries) -> tuple:
    """The element with the payload quaternion q at (i, j) for each (i, j, q)
    in entries."""
    v = [desc.field.rzero] * desc.ambient_dim
    for i, j, q in entries:
        v[(4 * i + j) * 4 : (4 * i + j + 1) * 4] = q
    return tuple(v)


def _explicit_index2_bases(desc: _SympBase) -> List[List]:
    """The closed-form W bases for the diagonal-projection L.

    With h = <1, u1, u2, u3> the component W_1 consists of the matrices with
    u1*x at (0,1), conj(x) at (1,0), u3*y at (2,3), u2*conj(y) at (3,2),
    and cyclic analogues for W_2, W_3; the restricted forms are then
    literally <u1, u2*u3> n_Q and its partners.
    """
    field = desc.field
    u1, u2, u3 = desc.us
    mul, z = desc.quat.rmul, field.rzero

    def element(pos_a, ca, pos_b, cb, k):
        q = unit_vector(field, 4, k)
        qa = mul((ca.raw, z, z, z), q)
        qb = mul((cb.raw, z, z, z), quat_conj(field, q))
        return _quat_matrix(desc, [(*pos_a, qa), (*pos_b, qb)])

    one = field.one
    out = []
    layouts = [
        (((0, 1), u1, (1, 0), one), ((2, 3), u3, (3, 2), u2)),
        (((0, 2), u2, (2, 0), one), ((1, 3), u3, (3, 1), u1)),
        (((0, 3), u3, (3, 0), one), ((1, 2), u2, (2, 1), u1)),
    ]
    for first, second in layouts:
        basis = [element(*first, k) for k in range(4)]
        basis += [element(*second, k) for k in range(4)]
        out.append(basis)
    return out


def galois_components(
    desc, L: Optional[BiquadraticEtale] = None, *, checks: bool = True
) -> WComponents:
    """The components W_i: the x in Sym with x*s_k + s_k*x = x when alpha_i
    moves s_k, else 0 (k = 1, 2).  For the symplectic descriptors with the
    default diagonal L they are the closed-form bases, so the restricted
    forms match the block formulas literally; otherwise they are solved.
    """
    if L is None:
        L = construct_biquadratic(desc)
    space = symmetric_space(desc)
    field = desc.field
    symplectic = desc.case == "symplectic"
    full_raw = pfaffian_form(desc) if symplectic else second_trace_form(desc)

    l_coords = [space.coords(b) for b in L.basis]
    if None in l_coords:
        raise DecompositionFailure("L is not inside the symmetric space")

    closed_form = symplectic and _is_default_l(desc, L)
    if closed_form:
        w_coords = _closed_form_components(desc, L, space)
    else:
        # alpha_i(s_k) is s_k + 1 when alpha_i moves s_k (_KLEIN_MOVES), else s_k,
        # so the column of b for s_k is b*s_k + s_k*b = symmetrized(b*s_k) (b and
        # s_k are symmetric), plus b if moved, read at the pivots of the echelon basis
        add, one, rows = field.radd, field.rone, {}
        for k, s in ((1, L.s1), (2, L.s2)):
            cols = [desc.symmetrized(desc.el_mul(b, s)) for b in space.basis]
            rows[k, False] = fixed = [[col[p] for col in cols] for p in space._span.pivots]
            rows[k, True] = [r[:i] + [add(r[i], one)] + r[i + 1 :] for i, r in enumerate(fixed)]
        w_coords = [kernel(rows[1, m1] + rows[2, m2], field) for m1, m2 in _KLEIN_MOVES]
    dims = (len(l_coords), *map(len, w_coords))
    expected = CASE_DIMS[desc.case][1]
    if dims != expected:
        raise DecompositionFailure(f"component dimensions {dims}, expected {expected}")
    comps = WComponents(desc, L, space, full_raw, l_coords, w_coords)
    if closed_form and any(span.dim != len(w) for span, w in zip(comps.w_spans, w_coords)):
        raise DecompositionFailure("closed-form basis is not a basis of the component")

    if checks:
        _component_checks(comps)
    return comps


def _closed_form_components(desc, L: BiquadraticEtale, space: InvolutionSpace) -> List[List[list]]:
    """The closed-form W_i bases of the default L in space coordinates, each
    vector x certified in Symd with symmetrized(x*s_k) = x*s_k + s_k*x equal
    to x when alpha_i moves s_k, else 0.

    Lemma: joint eigenvectors of the commuting maps x -> x*s_k + s_k*x with
    distinct eigenvalue pairs are independent, and L lies in the (0, 0)
    eigenspace; so once each basis is independent (``galois_components``
    checks the spans), 4 + 8 + 8 + 8 = dim Symd makes each W_i the whole
    joint eigenspace, the kernel the solve would return.
    """
    zero, out = desc.zero_el(), []
    for moves, basis in zip(_KLEIN_MOVES, _explicit_index2_bases(desc)):
        coords = [space.coords(x) for x in basis]
        if None in coords or any(
            desc.symmetrized(desc.el_mul(x, s)) != (x if moved else zero)
            for x in basis
            for moved, s in zip(moves, (L.s1, L.s2))
        ):
            raise DecompositionFailure("closed-form basis escapes the solved component")
        out.append(coords)
    return out


def _is_default_l(desc, L: BiquadraticEtale) -> bool:
    s1, s2 = _diag_generators(desc, 0)
    return (L.s1, L.s2) == (s1, s2)


def _component_checks(comps: WComponents) -> None:
    """Certify the Klein decomposition from the adapted Gram matrix.

    L, W_1, W_2 and W_3 are pairwise orthogonal when every entry of
    ``comps.adapted`` outside its diagonal blocks is 0.  For each W_i and each
    pair a <= b of its basis, z = e_a^2 (a = b) or z = e_a e_b + e_b e_a
    = y + sigma(y) with y = e_a e_b (a < b, the e are symmetric) must lie in
    L_i, and T_i(z) must be the entry (a, b) of w_raw: q(e_a) on the diagonal,
    the polar entry above it.  So x^2 lies in L_i and q(x) = T_i(x^2) on all
    of W_i, and the polar form of w_raw is T_i o B_i, B_i(x, y) = xy + yx.
    """
    desc, L = comps.desc, comps.L
    field = desc.field
    zero, add, mul = field.rzero, field.radd, field.rmul
    owner = [k for k, n in enumerate(comps.dims) for _ in range(n)]
    for r, row in enumerate(comps.adapted.u):
        if any(x for c, x in enumerate(row) if owner[c] != owner[r]):
            raise DecompositionFailure("components are not orthogonal")
    symplectic = desc.case == "symplectic"
    for i, (vectors, w) in enumerate(zip(comps.w_coords, comps.w_raw), start=1):
        elems = [comps.space.element(v) for v in vectors]
        for a, b in itertools.combinations_with_replacement(range(len(elems)), 2):
            y = desc.el_mul(elems[a], elems[b])
            z = y if a == b else desc.symmetrized(y)
            li = L.li_coords(i, z)
            if li is None:
                raise DecompositionFailure(
                    "a component square escapes L_i" if a == b else "polar of q_i escapes L_i"
                )
            # T_i(a + b*g_i) = b
            if w.u[a][b] != field._el(li[1]):
                raise DecompositionFailure(
                    "second coefficient differs from T_i(x^2)"
                    if a == b
                    else "polar of q_i differs from T_i(xy + yx)"
                )
        # Trp is linear: its payloads at the basis were read off with the form
        trp = (functools.reduce(add, map(mul, v, desc._trp_raw)) for v in vectors)
        if symplectic and any(t != zero for t in trp):
            raise DecompositionFailure("first Pfaffian coefficient nonzero on W_i")
    # q_i nonsingular over L_i (rank >= 2 cases)
    if desc.case != "orthogonal":
        for i in (1, 2, 3):
            _check_qi_nonsingular(comps, i)


def _check_qi_nonsingular(comps: WComponents, i: int) -> None:
    """Certify that q_i(x) = x^2 is a nonsingular L_i-quadratic form on W_i,
    given the products _component_checks reads off w_raw.

    W_i must be stable under g_i and free over L_i: if r^2 + r = c_i has a
    root, eps = r + g_i is an idempotent and W_i*eps must be half of W_i;
    if not, L_i is a field.  The polar form of w_raw is T_i o B_i.  Lemma: a
    radical vector of q_i over L_i lies in the radical of T_i o B_i, so a
    polar matrix of full rank proves q_i nonsingular.
    """
    desc, L, space = comps.desc, comps.L, comps.space
    field = desc.field
    g, c = L.generator(i)
    vectors = comps.w_coords[i - 1]
    elems = [space.element(v) for v in vectors]
    images = [space.coords(desc.el_mul(x, g)) for x in elems]
    if any(sc is None or comps.w_spans[i - 1].coords(sc) is None for sc in images):
        raise DecompositionFailure(f"W_{i} is not stable under L_{i}")
    r = solve_artin_schreier(c)
    if r is UNKNOWN:
        raise DecompositionFailure(f"undecided whether L_{i} splits")
    if r is not None:
        eps = [combination(field, (r.raw, field.rone), vw, space.dim) for vw in zip(vectors, images)]
        if 2 * rank(eps, field) != len(vectors):
            raise DecompositionFailure(f"W_{i} is not free over L_{i}")
    if rank(comps.w_raw[i - 1].polar_matrix(), field) != len(vectors):
        raise DecompositionFailure(f"q_{i} is singular over L_{i}")


def star(desc, x1, x2, components: Optional[WComponents] = None):
    """The composition x1*x2 = x1 x2 + x2 x1 from W_1 x W_2 into W_3."""
    comps = components if components is not None else default_components(desc)
    if comps.w_membership(1, x1) is None:
        raise NotInComponent("first argument is not in W_1")
    if comps.w_membership(2, x2) is None:
        raise NotInComponent("second argument is not in W_2")
    out = desc.symmetrized(desc.el_mul(x1, x2))
    if comps.w_membership(3, out) is None:
        raise NotInComponent("composition escaped W_3")
    return out


def star_multiplicative(comps: WComponents, rng: random.Random, trials: int) -> bool:
    """Whether q(x1 * x2) = q(x1) q(x2) for ``trials`` random x1 in W_1 and
    x2 in W_2, q the full form; x1 * x2 = x1 x2 + x2 x1 as in ``star``."""
    desc = comps.desc
    field = desc.field
    n1, n2 = len(comps.w_coords[0]), len(comps.w_coords[1])
    for _ in range(trials):
        c1 = [field.rrand(rng) for _ in range(n1)]
        c2 = [field.rrand(rng) for _ in range(n2)]
        x1, x2 = comps.w_element(1, c1), comps.w_element(2, c2)
        prod = desc.symmetrized(desc.el_mul(x1, x2))
        value = comps.full_raw.evaluate(comps.space.coords(prod))
        if value != comps.w_raw[0].evaluate(c1) * comps.w_raw[1].evaluate(c2):
            return False
    return True


def default_components(desc) -> WComponents:
    comps = getattr(desc, "_components", None)
    if comps is None:
        comps = galois_components(desc)
        desc._components = comps
    return comps


# ---------------------------------------------------------------------------
# invariant extraction
# ---------------------------------------------------------------------------


@dataclass
class SympPfisterInvariants:
    a1: Fe
    a2: Fe
    x1_coords: list  # payload component coordinates of the W_1 witness
    x2_coords: list
    pi3: QuadraticForm
    pi5: QuadraticForm
    checks: List[Check]
    components: WComponents

    @property
    def all_true(self) -> bool:
        return all(c.result.is_true for c in self.checks)


@dataclass
class Deg4Invariants:
    a1: Fe
    a2: Fe
    checks: List[Check]
    components: WComponents
    pi2: Optional[QuadraticForm] = None
    pi4: Optional[QuadraticForm] = None
    pi1: Optional[QuadraticForm] = None
    phi: Optional[QuadraticForm] = None
    pi3: Optional[QuadraticForm] = None
    det_class: Optional[Fe] = None


# random candidates _anisotropic_coords and _coords_with_value_one draw
_ANISOTROPIC_BUDGET = 400
_VALUE_ONE_TRIALS = 500


def _anisotropic_coords(raw: RawQuadraticForm, rng: random.Random) -> list:
    """Coordinates of the first `candidates` vector with nonzero value."""
    for v in candidates(raw.field, raw.dim, rng, _ANISOTROPIC_BUDGET, 1 << 16):
        if raw.evaluate(v):
            return v
    raise NoAnisotropicVector("no candidate has a nonzero value")


def _restriction_certificate_11_00(comps: WComponents) -> Decision:
    """Certify that the restriction to L is [1,1] + [0,0].

    Reads the L block of the adapted Gram matrix, on the basis
    (1, s1, s2, s1*s2) with l_1 = s2 and l_2 = s1: q(l_1) = q(l_2) =
    B(l_1, l_2) = 1 makes the plane (l_1, l_2) the form X^2 + XY + Y^2, and
    1 is isotropic and orthogonal to it.  Its complement in L is spanned by 1
    and w = s1*s2 + B(s1*s2, s1) s2 + B(s1*s2, s2) s1, and B(1, w) =
    B(1, s1*s2) != 0 pairs it into a split plane.
    """
    u = comps.adapted.u
    one = comps.desc.field.one
    q1, q2, b12 = u[2][2], u[1][1], u[1][2]
    conds = [q1 == q2 == b12 == one, not u[0][0], not u[0][1], not u[0][2], bool(u[0][3])]
    return decided(all(conds), {"values": [q1.raw, q2.raw, (q1 + q2 + b12).raw]})


class _CheckNames(NamedTuple):
    """Per-case names of the checks _extract_pfister_pair reports."""

    hyperbolic: str
    w2_match: str
    arf: str
    star_witness: bool  # whether the star check logs the witness coordinates


_SYMPLECTIC_CHECKS = _CheckNames(
    "srp_plus_11_plus_pi3_plus_pi5_hyperbolic", "w2_scaled_matches_pi3", "pi3_arf_zero", True
)
_UNITARY_CHECKS = _CheckNames(
    "srd_plus_11_plus_pi2_plus_pi4_hyperbolic", "w2_scaled_matches_pi2", "pi2_arf_zero", False
)


def _witness_pair(comps: WComponents, rng: random.Random):
    """Anisotropic x1 in W_1 and x2 in W_2 (coordinates) with their values."""
    x1 = _anisotropic_coords(comps.w_raw[0], rng)
    x2 = _anisotropic_coords(comps.w_raw[1], rng)
    return x1, x2, comps.w_raw[0].evaluate(x1), comps.w_raw[1].evaluate(x2)


def _star_represents_product(desc, comps: WComponents, x1, x2, a1: Fe, a2: Fe) -> bool:
    """Whether the form takes the value a1*a2 at the composition x1 * x2."""
    sprod = star(desc, comps.w_element(1, x1), comps.w_element(2, x2), comps)
    return comps.full_raw.evaluate(comps.space.coords(sprod)) == a1 * a2


def _extract_pfister_pair(desc, comps: WComponents, seed: int, names: _CheckNames):
    """The extraction steps the symplectic and unitary cases share.

    Picks the witness pair, builds the small Pfister form pi (W_1 scaled by
    1/a1, normalized) and the large one <1, a1, a2, a1a2> x pi, and checks
    that the full form plus [1,1] + pi + large is hyperbolic, that W_2 scaled
    by 1/a2 matches pi, that the star product of the witnesses represents
    a1a2, that the restriction to L is [1,1] + [0,0], and over GF(2^k) that
    pi has Arf invariant 0.  Returns (x1, x2, a1, a2, pi, large, checks).
    """
    field = desc.field
    x1, x2, a1, a2 = _witness_pair(comps, random.Random(seed))
    pi, _ = normalize(comps.w_raw[0].scaled(a1))
    large = bilinear_tensor([field.one, a1, a2, a1 * a2], pi)
    full_q, _ = normalize(comps.full_raw)
    total = direct_sum(full_q, block11(field), pi, large)
    checks = [Check(names.hyperbolic, is_hyperbolic(total, seed=seed))]
    q2, _ = normalize(comps.w_raw[1].scaled(a2))
    if isinstance(field, GF2k):
        checks.append(Check(names.w2_match, decided(witt_equivalent_gf2k(q2, pi))))
    else:
        checks.append(Check(names.w2_match, blocks_match_upto_squares(q2, pi)))
    witness = None
    if names.star_witness:
        witness = {"x1": x1, "x2": x2}
    represents = _star_represents_product(desc, comps, x1, x2, a1, a2)
    checks.append(Check("w3_represents_a1a2", decided(represents, witness)))
    checks.append(Check("l_restriction_is_11_00", _restriction_certificate_11_00(comps)))
    if isinstance(field, GF2k):
        checks.append(Check(names.arf, decided(arf_invariant(pi) == 0)))
    return x1, x2, a1, a2, pi, large, checks


def extract_symplectic_invariants(
    desc, components: Optional[WComponents] = None, *, seed: int = 0
) -> SympPfisterInvariants:
    """Witnesses, the 3-fold and 5-fold Pfister forms, and the report."""
    if desc.case != "symplectic":
        raise UnsupportedDescriptor("symplectic descriptor required")
    comps = components if components is not None else default_components(desc)
    x1, x2, a1, a2, pi3, pi5, checks = _extract_pfister_pair(
        desc, comps, seed, _SYMPLECTIC_CHECKS
    )
    if _is_default_l(desc, comps.L):
        u1, u2, u3 = desc.us
        closed_pi3 = bilinear_tensor([desc.field.one, u1 * u2 * u3], nrd_form(desc.quat))
        checks.append(
            Check("pi3_matches_closed_form", blocks_match_upto_squares(pi3, closed_pi3))
        )
    return SympPfisterInvariants(a1, a2, x1, x2, pi3, pi5, checks, comps)


# ---------------------------------------------------------------------------
# decomposability and square-central witnesses
# ---------------------------------------------------------------------------


@dataclass
class DecomposabilityReport:
    direction: str
    checks: List[Check]
    witness_coords: Optional[list] = None

    @property
    def all_true(self) -> bool:
        return all(c.result.is_true for c in self.checks)


def _triple_generators(desc: SplitSymp):
    """Generators of three canonically-involuted quaternion factors.

    Starting from the block presentation Q x M2 x M2 with conjugation on Q
    and transpose on the matrix factors, the two orthogonal factors are
    rebalanced pairwise against a canonical one, leaving i-generators
    i1, i1+i2, i1+i3 and j-generators j1*j2*j3, j2, j3.
    """
    o, u, v = (unit_vector(desc.field, 4, k) for k in range(3))
    i1 = _quat_matrix(desc, [(k, k, u) for k in range(4)])
    j1 = _quat_matrix(desc, [(k, k, v) for k in range(4)])
    i2 = _quat_matrix(desc, [(2, 2, o), (3, 3, o)])  # coarse diag(0, 1)
    j2 = _quat_matrix(desc, [(0, 2, o), (1, 3, o), (2, 0, o), (3, 1, o)])  # coarse swap
    i3 = _quat_matrix(desc, [(1, 1, o), (3, 3, o)])  # fine diag(0, 1)
    j3 = _quat_matrix(desc, [(0, 1, o), (1, 0, o), (2, 3, o), (3, 2, o)])  # fine swap
    rebalanced = [
        (i1, desc.el_mul(j1, desc.el_mul(j2, j3))),
        (desc.el_add(i1, i2), j2),
        (desc.el_add(i1, i3), j3),
    ]
    return (i2, i3), rebalanced


def check_pi3_decomposability(
    desc, direction: str, *, seed: int = 0
) -> DecomposabilityReport:
    """Link hyperbolicity of the 3-fold form to quaternion-triple structure.

    direction "from_triple" (split case only): build L from the triple's
    i-generators and exhibit a j-witness with square 1 in the component that
    moves both of them, proving the restricted form isotropic.
    direction "to_triple": search W_1 for a noncentral element with central
    square (with the lambda-correction step when the first square vanishes).
    """
    checks: List[Check] = []
    if direction == "from_triple":
        if not isinstance(desc, SplitSymp):
            raise UnsupportedDescriptor("the intrinsic triple exists for the split case")
        (i2, i3), triple = _triple_generators(desc)
        one = desc.one_el()
        for k, (ik, jk) in enumerate(triple, start=1):
            sq = _as_scalar(desc, desc.el_mul(jk, jk))
            checks.append(Check(f"j{k}_square_central", decided(sq is not None and bool(sq))))
            lhs = desc.el_mul(jk, ik)
            rhs = desc.el_mul(desc.el_add(ik, one), jk)
            checks.append(Check(f"j{k}_twists_i{k}", decided(lhs == rhs)))
        for a, b in itertools.permutations(range(3), 2):
            (ia, ja), (ib, jb) = triple[a], triple[b]
            if any(desc.el_mul(x, y) != desc.el_mul(y, x) for x, y in ((ia, ib), (ia, jb), (ja, jb))):
                checks.append(Check(f"factors_{a+1}_{b+1}_commute", decided(False)))
        # L generated by the pairwise sums of the i-generators is the
        # diagonal algebra: s1 = i3, s2 = i2 in the default labelling
        L = validate_biquadratic(desc, i3, i2)
        comps = galois_components(desc, L)
        witness = triple[0][1]
        wc = comps.w_membership(3, witness)
        checks.append(Check("j1_in_moving_component", decided(wc is not None)))
        sq = _as_scalar(desc, desc.el_mul(witness, witness))
        checks.append(Check("j1_square_is_one", decided(sq == desc.field.one)))
        sc = comps.space.coords(witness)
        srp_val = comps.full_raw.evaluate(sc)
        checks.append(Check("srp_vanishes_on_j1", decided(not srp_val)))
        inv = extract_symplectic_invariants(desc, comps, seed=seed)
        checks.append(Check("pi3_hyperbolic", is_hyperbolic(inv.pi3, pfister=True, seed=seed)))
        return DecomposabilityReport("from_triple", checks, wc)

    if direction != "to_triple":
        raise ValueError("direction must be from_triple or to_triple")
    if desc.case != "symplectic":
        raise UnsupportedDescriptor("to_triple needs a symplectic descriptor")
    comps = default_components(desc)
    w1 = comps.w_raw[0]
    rng = random.Random(seed)
    witness = None
    for iso in candidates(desc.field, w1.dim, rng, 3000, 1 << 16):
        if w1.evaluate(iso):
            continue
        x = comps.w_element(1, iso)
        xsq = _as_scalar(desc, desc.el_mul(x, x))
        if xsq is None:
            raise DecompositionFailure("isotropic witness has non-central square")
        if xsq:
            witness = x
            break
        # x^2 = 0 needs both etale components of x nonzero to correct;
        # otherwise move on to the next isotropic vector
        corrected = _square_correction(desc, comps, x, rng)
        if corrected is not None:
            witness = corrected
            break
    if witness is None:
        raise WitnessNotFound("no usable isotropic vector found in W_1 within budget")
    xsq = _as_scalar(desc, desc.el_mul(witness, witness))
    checks.append(Check("witness_square_central_nonzero", decided(bool(xsq), {"square": xsq.raw})))
    checks.append(Check("witness_noncentral", decided(_as_scalar(desc, witness) is None)))
    sc = comps.space.coords(witness)
    return DecomposabilityReport("to_triple", checks, sc)


def _square_correction(desc, comps: WComponents, x, rng: random.Random):
    """Replace an x in W_1 with x^2 = 0 by x*lam + y with square 1, or None.

    Uses a y in W_1 with x y + y x invertible in L_1 and
    lam = (y^2 + 1)(x y + y x)^-1; such a y exists when neither etale
    component of x vanishes (the squaring form is nonsingular).
    """
    field = desc.field
    ring = comps.L.li_ring(1)
    g1, _ = comps.L.generator(1)
    one = desc.one_el()
    n = len(comps.w_coords[0])
    for yc in candidates(field, n, rng, 60, 0):
        y = comps.w_element(1, yc)
        z = desc.symmetrized(desc.el_mul(x, y))
        co = comps.L.li_coords(1, z)
        if co is None or ring.rnorm(co) == field.rzero:
            continue
        ysq = desc.el_mul(y, y)
        yco = comps.L.li_coords(1, desc.el_add(ysq, one))
        lam_x, lam_y = map(field._el, ring.rmul(yco, ring.rinv(co)))
        lam_el = desc.el_add(desc.el_scal(lam_x, one), desc.el_scal(lam_y, g1))
        cand = desc.el_add(desc.el_mul(x, lam_el), y)
        if desc.el_mul(cand, cand) == one:
            return cand
    return None


def find_square_central(
    desc, components: Optional[WComponents] = None, *, seed: int = 0
) -> Union[object, None, Unknown]:
    """A noncentral symmetrized element with central square, when one exists.

    Follows the constructive argument: pick y in W_1 + W_2 with second
    coefficient 1, pass to the biquadratic algebra generated by y^2 and the
    third fixed subalgebra, and combine a W'_2 vector with its composition
    with y.  Returns UNKNOWN only on budget exhaustion, never None for the
    supported fields (the 5-fold form is hyperbolic over all of them).
    """
    if desc.case != "symplectic":
        raise UnsupportedDescriptor("symplectic descriptor required")
    comps = components if components is not None else default_components(desc)
    field = desc.field
    rng = random.Random(seed)
    y_coords = _coords_with_value_one(comps, rng)
    if y_coords is None:
        return UNKNOWN
    y = comps.space.element(y_coords)
    pf = reduced_pfaffian(desc, y)
    if pf.trace or pf.linear or pf.second != field.one:
        raise DecompositionFailure("witness does not satisfy the Pfaffian constraints")
    ysq = desc.el_mul(y, y)
    y4 = desc.el_mul(ysq, ysq)
    if desc.el_add(y4, ysq) != desc.el_scal(pf.norm, desc.one_el()):
        raise DecompositionFailure("y^4 + y^2 is not the Pfaffian constant")
    if _as_scalar(desc, ysq) is not None:
        raise DecompositionFailure("y^2 central contradicts the unit second coefficient")
    g3, _ = comps.L.generator(3)
    lprime = validate_biquadratic(desc, g3, ysq)
    comps2 = galois_components(desc, lprime)
    if comps2.w_membership(1, y) is None:
        raise DecompositionFailure("y escaped the first component of the new algebra")
    w2 = comps2.w_element(2, unit_vector(field, len(comps2.w_coords[1]), 0))
    z = desc.el_add(w2, star(desc, y, w2, comps2))
    zc = comps2.space.coords(z)
    if comps2.full_raw.evaluate(zc):
        raise DecompositionFailure("z is not isotropic")
    pfz = reduced_pfaffian(desc, z)
    if pfz.trace or pfz.linear or pfz.second:
        raise DecompositionFailure("z does not satisfy the Pfaffian constraints")
    zsq = desc.el_mul(z, z)
    z4 = desc.el_mul(zsq, zsq)
    if z4 != desc.el_scal(pfz.norm, desc.one_el()):
        raise DecompositionFailure("z^4 is not the Pfaffian constant")
    x = z if _as_scalar(desc, zsq) is not None else zsq
    if _as_scalar(desc, x) is not None:
        raise DecompositionFailure("candidate is central")
    if _as_scalar(desc, desc.el_mul(x, x)) is None:
        raise DecompositionFailure("candidate square is not central")
    return x


def _coords_with_value_one(comps: WComponents, rng: random.Random):
    """Space coordinates of y in W_1 + W_2 with full form value 1: the first
    candidate whose value is a nonzero square, scaled by its square root."""
    field = comps.desc.field
    basis = comps.w_coords[0] + comps.w_coords[1]
    for cs in candidates(field, len(basis), rng, _VALUE_ONE_TRIALS, 0):
        v = combination(field, cs, basis, comps.space.dim)
        val = comps.full_raw.evaluate(v)
        r = (field.one / val).sqrt() if val else None
        if r is not None:
            return combination(field, [r.raw], [v], len(v))
    return None


def extract_unitary_invariants(
    desc, components: Optional[WComponents] = None, *, seed: int = 0
) -> Deg4Invariants:
    """The 2-fold and 4-fold Pfister forms of a degree-4 unitary involution."""
    if desc.case != "unitary":
        raise UnsupportedDescriptor("unitary descriptor required")
    comps = components if components is not None else default_components(desc)
    _, _, a1, a2, pi2, pi4, checks = _extract_pfister_pair(desc, comps, seed, _UNITARY_CHECKS)
    return Deg4Invariants(a1, a2, checks, comps, pi2=pi2, pi4=pi4)


def extract_orthogonal_invariants(
    desc, components: Optional[WComponents] = None, *, seed: int = 0
) -> Deg4Invariants:
    """Quasi-Pfister data of a degree-4 orthogonal involution.

    The restriction of the second trace form to each rank-1 component is
    totally singular; with delta the determinant class, phi is the 6-dim
    radical restriction and pi'_3 = <1, delta> + phi is the quasi 3-fold
    form <1, a1, a2, a1a2> x <1, delta>.
    """
    if desc.case != "orthogonal":
        raise UnsupportedDescriptor("orthogonal descriptor required")
    comps = components if components is not None else default_components(desc)
    field = desc.field
    rng = random.Random(seed)
    checks: List[Check] = []
    checks.append(Check("radical_is_w1_w2_w3", _radical_certificate(comps)))

    # q|W_3 is a1a2 <1, delta>, so an arbitrary W_3 value may lie in the
    # class a1a2*delta; the star product of the witnesses has value a1a2
    x1, x2, a1, a2 = _witness_pair(comps, rng)
    represents = _star_represents_product(desc, comps, x1, x2, a1, a2)
    checks.append(Check("w3_value_is_product", decided(represents)))

    delta = det_orthogonal(desc, seed=seed)
    pi1 = form(field, [], [field.one, delta])
    phi = form(field, [], [a1, a1 * delta, a2, a2 * delta, a1 * a2, a1 * a2 * delta])
    pi3 = form(field, [], list(pi1.diag) + list(phi.diag))

    # regular generators: exhaustively over small fields, else seeded
    joint = []
    for i in (1, 2, 3):
        reg = _regular_generator(comps, i, rng)
        if reg is None:
            checks.append(Check(f"w{i}_regular_generator", unknown("no generator in budget")))
            continue
        wc, det = reg
        checks.append(
            Check(
                f"w{i}_regular_generator",
                decided(_square_class_eq(det, delta), {"nrd": det.raw}),
            )
        )
        sval = comps.w_raw[i - 1].evaluate(wc)
        joint.append((i, det, sval))

    for i, det, sval in joint:
        # <Srd(w)> <1, Nrd(w)> matches the restriction as totally singular
        # forms; when Srd(w) = 0, <a_i> <1, delta> does (a_3 = a1 a2)
        witness = None
        if not sval:
            sval, det = (a1, a2, a1 * a2)[i - 1], delta
            witness = {"value": sval.raw}
        target = form(field, [], [sval, sval * det])
        actual = form(field, [], [row[k] for k, row in enumerate(comps.w_raw[i - 1].u)])
        result = totally_singular_isometry(actual, target)
        checks.append(Check(f"w{i}_joint_witness", Decision(result.state, result.witness or witness)))

    checks.append(Check("star_multiplicativity", decided(star_multiplicative(comps, rng, 100))))

    diag = [row[k] for k, row in enumerate(comps.adapted.u)]
    rad_values = form(field, [], diag[len(comps.l_coords) :])
    checks.append(Check("phi_equals_radical_restriction", totally_singular_isometry(phi, rad_values)))

    quasi = quasi_pfister([a1, a2, delta])
    checks.append(Check("pi3_is_quasi_pfister_of_pi1", totally_singular_isometry(pi3, quasi)))
    checks.append(Check("l_restriction_is_11_00", _restriction_certificate_11_00(comps)))

    return Deg4Invariants(a1, a2, checks, comps, pi1=pi1, phi=phi, pi3=pi3, det_class=delta)


def _radical_certificate(comps: WComponents) -> Decision:
    """Certify that the polar radical is W_1 + W_2 + W_3 from the polar
    matrix B of the adapted Gram matrix: on a basis of Sym the radical has
    dimension dim - rank B, and it holds the W vectors when their rows vanish."""
    field, polar = comps.desc.field, comps.adapted.polar_matrix()
    radical_dim = comps.adapted.dim - rank(polar, field)
    w_rows = polar[len(comps.l_coords) :]
    same = radical_dim == 6 and all(a == field.rzero for row in w_rows for a in row)
    return decided(same, {"radical_dim": radical_dim})


def _square_class_eq(x: Fe, y: Fe) -> bool:
    if not x or not y:
        return bool(x) == bool(y)
    return (x / y).is_square()


def _regular_generator(comps: WComponents, i: int, rng: random.Random):
    """Coordinates of w in W_i with Nrd(w) != 0, with its determinant.

    Prefers a witness with a nonzero second-trace value as well (the joint
    condition in the diagonalization argument); falls back to any regular
    one, and to None when no candidate is regular.
    """
    field = comps.desc.field
    n = len(comps.w_coords[i - 1])
    fallback = None
    for wc in candidates(field, n, rng, 200, 1 << 12):
        det = comps.desc.reduced_charpoly(comps.w_element(i, wc))[0]
        if det:
            if comps.w_raw[i - 1].evaluate(wc):
                return wc, det
            if fallback is None:
                fallback = (wc, det)
    return fallback
