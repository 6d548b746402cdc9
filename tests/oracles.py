"""Object oracles for the tests: algebra elements as objects with operator
overloading, beside the payload tuples of the runtime.

- ``EtaleRing`` and ``EtaleElement``: x + y*s in F[s]/(s^2 + s + c), with
  the product expanded from s^2 = s + c rather than through ``etale_ops``;
- ``QuatRing``: the quaternions of [a,b) as ``charform.quaternions.Quat``
  objects, with ``q_conj``, ``q_trd``, ``q_nrd`` (the closed form) and
  ``q_mul``;
- ``SplitImages``: the splitting embedding as 2x2 ``Mat`` images built from
  the case formulas of ``SplitEmbedding`` (never from its ``terms``), with
  ``embed`` and ``embed_matrix``;
- ``charpoly`` (Berkowitz on a ``Mat`` of ring objects), ``poly_mul`` and
  ``poly_eval_matrix``;
- ``to_lanes``: payloads packed into the bit planes of ``GF2k.lanes``, one
  bit at a time;
- ``polar``: the polar form of a raw form at two payload vectors, from the
  sum over i <= j of U[i][j] (x_i y_j + x_j y_i);
- ``normalize_by_polar``: the symplectic-basis reduction of a raw form with
  one ``polar`` call per pairing and one ``evaluate`` per value, beside the
  congruence updates of ``charform.forms.normalize``;
- ``witt_cancel_restart``: the Witt cancellation of blocks by a loop that
  restarts after every cancelled pair, beside the one greedy pass of
  ``charform.forms._witt_cancel_pass``;
- ``witt_equivalent_by_arf``: Witt equivalence over GF(2^k) from the
  lengths and Arf invariants of the anisotropic kernels;
- ``is_hyperbolic_by_isotropic_vector``: the hyperbolicity decision with a
  full ``isotropic_vector`` call (block certificates first) in each round
  after the cancellation pass, beside the direct candidate search of
  ``charform.forms.is_hyperbolic``;
- ``closed_form_by_solve``: the closed-form W_i bases of the default L
  compared against the solved kernels (their dimensions, then span
  against span), beside the joint-eigenvector certificate of
  ``charform.extraction._closed_form_components``;
- ``radical_by_kernel``: the orthogonal radical certificate from a kernel
  of the full polar matrix, beside the read of the adapted Gram matrix in
  ``charform.extraction._radical_certificate``;
- ``li_module_basis`` and ``check_qi_by_module_basis``: q_i(x) = x^2
  certified nonsingular on W_i from an L_i-module basis searched among the
  ``candidates`` and a Berkowitz determinant over L_i, beside the rank
  certificate of ``charform.extraction._check_qi_nonsingular``;
- ``check_orthogonal_by_polar_vectors``, ``check_squares_by_evaluate`` and
  ``restriction_certificate_11_00``: the pairwise orthogonality of L, W_1,
  W_2, W_3 by ``polar_vector`` and sparse dots, q(x) = T_i(x^2) at each W_i
  basis vector (with Trp = 0 there) by ``evaluate``, and the [1,1] + [0,0]
  certificate of L by ``evaluate`` and ``polar`` calls, beside the reads of
  the adapted Gram matrix in ``charform.extraction._component_checks`` and
  ``_restriction_certificate_11_00``.
"""

import functools
import itertools
import operator
import random
from typing import List, Sequence, Tuple

from charform import extraction
from charform.decision import Decision, decided, unknown
from charform.errors import AlgebraMismatch, DecompositionFailure, SingularForm
from charform.extraction import _KLEIN_MOVES, WComponents
from charform.fields import Fe, GF2k, frobenius_sqrt, solve_artin_schreier
from charform.forms import (
    QuadraticForm,
    RawQuadraticForm,
    _split_off_plane,
    _witt_cancel_pass,
    arf_invariant,
    block_square_witness,
    candidates,
    certify_anisotropic,
    form,
    isotropic_vector,
    witt_decompose_gf2k,
)
from charform.involutions import CASE_DIMS, symmetric_space
from charform.linalg import Mat, Span, charpoly_raw, combination, kernel, unit_vector
from charform.quaternions import Quat


# ---------------------------------------------------------------------------
# quadratic etale rings F[s]/(s^2 + s + c)
# ---------------------------------------------------------------------------


class EtaleElement:
    """Element x + y*s of a quadratic etale extension, s^2 = s + c."""

    __slots__ = ("ring", "x", "y")

    def __init__(self, ring, x: Fe, y: Fe):
        self.ring = ring
        self.x = x
        self.y = y

    def __add__(self, other):
        return EtaleElement(self.ring, self.x + other.x, self.y + other.y)

    __sub__ = __add__

    def __mul__(self, other):
        # (x1 + y1 s)(x2 + y2 s) with s^2 = s + c
        yy = self.y * other.y
        x = self.x * other.x + self.ring.c * yy
        return EtaleElement(self.ring, x, self.x * other.y + self.y * other.x + yy)

    def __neg__(self):
        return self

    @property
    def raw(self):
        """The payload pair (x.raw, y.raw)."""
        return (self.x.raw, self.y.raw)

    def __bool__(self):
        return bool(self.x) or bool(self.y)

    def __eq__(self, other):
        return (
            isinstance(other, EtaleElement)
            and other.ring is self.ring
            and other.x == self.x
            and other.y == self.y
        )

    def __hash__(self):
        return hash((id(self.ring), self.x, self.y))

    def conj(self) -> "EtaleElement":
        """Image under the nontrivial automorphism s -> s + 1."""
        return EtaleElement(self.ring, self.x + self.y, self.y)

    def norm(self) -> Fe:
        c = self.ring.c
        return self.x * self.x + self.x * self.y + c * self.y * self.y

    def trace(self) -> Fe:
        return self.y

    def inv(self) -> "EtaleElement":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("non-invertible etale element")
        ni = n.inv()
        co = self.conj()
        return EtaleElement(self.ring, co.x * ni, co.y * ni)

    def __repr__(self):
        return f"Etale({self.x!r} + {self.y!r}*s)"


class EtaleRing:
    """The ring F[s]/(s^2 + s + c) of EtaleElement objects."""

    def __init__(self, field, c: Fe):
        self.field = field
        self.c = c
        self.zero = EtaleElement(self, field.zero, field.zero)
        self.one = EtaleElement(self, field.one, field.zero)
        self.s = EtaleElement(self, field.zero, field.one)

    def _el(self, raw) -> EtaleElement:
        return EtaleElement(self, *map(self.field._el, raw))

    def lift(self, x: Fe) -> EtaleElement:
        return EtaleElement(self, x, self.field.zero)

    def el(self, x: Fe, y: Fe) -> EtaleElement:
        return EtaleElement(self, x, y)


# ---------------------------------------------------------------------------
# quaternions as Quat objects
# ---------------------------------------------------------------------------


class QuatRing:
    """The Quat objects of a QuaternionAlgebra [a,b), with the constructors
    and the zero and one a Mat of quaternions needs."""

    def __init__(self, alg):
        self.alg = alg
        z, o = alg.field.zero, alg.field.one
        self.zero = Quat(alg, (z, z, z, z))
        self.one, self.u, self.v, self.w = (
            Quat(alg, [o if i == k else z for i in range(4)]) for k in range(4)
        )

    def _el(self, raw) -> Quat:
        return Quat(self.alg, map(self.alg.field._el, raw))

    def el(self, x0: Fe, x1: Fe, x2: Fe, x3: Fe) -> Quat:
        return Quat(self.alg, (x0, x1, x2, x3))

    def scalar(self, c: Fe) -> Quat:
        z = self.alg.field.zero
        return Quat(self.alg, (c, z, z, z))

    def rand(self, rng) -> Quat:
        return Quat(self.alg, tuple(self.alg.field.rand(rng) for _ in range(4)))


def q_conj(x: Quat) -> Quat:
    """Canonical involution: conj(x) = trd(x) + x."""
    x0, x1, x2, x3 = x.c
    return Quat(x.alg, (x0 + x1, x1, x2, x3))


def q_trd(x: Quat) -> Fe:
    return x.c[1]


def q_nrd(x: Quat) -> Fe:
    """Reduced norm x * conj(x), as a scalar."""
    a, b = x.alg.a, x.alg.b
    x0, x1, x2, x3 = x.c
    return x0 * x0 + x0 * x1 + a * x1 * x1 + b * (x2 * x2 + x2 * x3 + a * x3 * x3)


def q_mul(x: Quat, y: Quat) -> Quat:
    return x * y


class SplitImages:
    """The images of 1, u, v, uv in 2x2 Mat objects over a splitting ring,
    from the three cases of ``charform.quaternions.SplitEmbedding``: a root
    s of x^2 + x = a in F, b/a = y^2 in F, else the ring EtaleRing(F, a)
    with the matrices of the first case."""

    def __init__(self, alg):
        field = alg.field
        a, b = alg.a, alg.b
        root = solve_artin_schreier(a)
        y = None if isinstance(root, Fe) or not a else frobenius_sqrt(b / a)
        if isinstance(root, Fe) or y is not None:
            ring = field
            self.lift = lambda c: c
        else:
            ring = EtaleRing(field, a)
            self.lift = ring.lift
        one, zero = ring.one, ring.zero
        if y is None:
            s = root if ring is field else ring.s
            u_img = Mat(ring, [[s, zero], [zero, s + one]])
            v_img = Mat(ring, [[zero, self.lift(b)], [one, zero]])
        else:
            u_img = Mat(ring, [[zero, a], [one, one]])
            v_img = Mat(ring, [[y, y * (one + a)], [y, y]])
        self.alg = alg
        self.ring = ring
        self.u_img = u_img
        self.v_img = v_img
        self.w_img = u_img * v_img
        self.one_img = Mat.identity(ring, 2)

    def embed(self, x: Quat) -> Mat:
        if x.alg is not self.alg:
            raise AlgebraMismatch("quaternion from a different algebra")
        x0, x1, x2, x3 = (self.lift(c) for c in x.c)
        mats = (self.one_img, self.u_img, self.v_img, self.w_img)
        rows = []
        for i in range(2):
            row = []
            for j in range(2):
                acc = self.ring.zero
                for coef, m in zip((x0, x1, x2, x3), mats):
                    acc = acc + coef * m.rows[i][j]
                row.append(acc)
            rows.append(row)
        return Mat(self.ring, rows)

    def embed_matrix(self, m: Mat) -> Mat:
        """Blockwise embedding of a matrix over the quaternion algebra."""
        n = len(m.rows)
        blocks = [[self.embed(m.rows[i][j]) for j in range(n)] for i in range(n)]
        rows = []
        for i in range(n):
            for r in range(2):
                row = []
                for j in range(n):
                    row.extend(blocks[i][j].rows[r])
                rows.append(row)
        return Mat(self.ring, rows)


# ---------------------------------------------------------------------------
# characteristic polynomials and polynomials over a ring of objects
# ---------------------------------------------------------------------------


def charpoly(m: Mat) -> list:
    """Coefficients of det(X*I - m), ascending degree, via Berkowitz.

    Division-free, so valid over any commutative ring (here characteristic 2,
    which also makes all the classical signs vanish).
    """
    ring = m.ring
    return charpoly_raw(m.rows, ring.zero, ring.one, operator.add, operator.mul)


def poly_mul(p: Sequence, q: Sequence, ring) -> list:
    out = [ring.zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == ring.zero:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def poly_eval_matrix(p: Sequence, m: Mat) -> Mat:
    """Evaluate a polynomial with scalar coefficients at a square matrix."""
    n = m.shape[0]
    acc = Mat.zeros(m.ring, n)
    for c in reversed(list(p)):
        acc = acc * m + Mat.identity(m.ring, n).scal(c)
    return acc


# ---------------------------------------------------------------------------
# bit-sliced GF(2^k) lanes
# ---------------------------------------------------------------------------


def to_lanes(field, payloads) -> tuple:
    """The GF(2^k) lane value with payloads[l] in lane l: bit l of plane p is
    bit p of payloads[l] (the layout of ``GF2k.lanes``)."""
    return tuple(
        sum((a >> p & 1) << lane for lane, a in enumerate(payloads)) for p in range(field.k)
    )


# ---------------------------------------------------------------------------
# quadratic forms
# ---------------------------------------------------------------------------


def polar(q: RawQuadraticForm, x: Sequence, y: Sequence) -> Fe:
    """The polar form of q on payload vectors."""
    # sum_{i<=j} U[i][j] (x_i y_j + x_j y_i): the diagonal terms cancel
    field = q.field
    acc = field.zero
    for i, j in itertools.combinations_with_replacement(range(q.dim), 2):
        if i != j and q.u[i][j]:
            acc += q.u[i][j] * (field._el(x[i]) * field._el(y[j]) + field._el(x[j]) * field._el(y[i]))
    return acc


def normalize_by_polar(q: RawQuadraticForm) -> Tuple[QuadraticForm, Tuple[tuple, ...]]:
    """Symplectic-basis reduction of a raw form.

    Returns the block form together with the change of basis T on payloads
    (columns are the new basis in old coordinates), so q(T y) equals the
    block form at y.
    The radical of the polar form lands in the diagonal part.
    """
    field = q.field
    n = q.dim
    one = field.rone
    vecs = [unit_vector(field, n, i) for i in range(n)]
    remaining = list(range(n))
    blocks: List[Tuple[Fe, Fe]] = []
    ordered: List[list] = []
    bil = functools.partial(polar, q)

    while True:
        pair = None
        for ii in range(len(remaining)):
            for jj in range(ii + 1, len(remaining)):
                if bil(vecs[remaining[ii]], vecs[remaining[jj]]):
                    pair = (ii, jj)
                    break
            if pair:
                break
        if pair is None:
            break
        ii, jj = pair
        vi = vecs[remaining[ii]]
        c = field.rinv(bil(vi, vecs[remaining[jj]]).raw)
        vj = [field.rmul(a, c) for a in vecs[remaining[jj]]]
        for idx in remaining:
            if idx in (remaining[ii], remaining[jj]):
                continue
            w = vecs[idx]
            vecs[idx] = combination(field, (one, bil(w, vj).raw, bil(w, vi).raw), (w, vi, vj), n)
        blocks.append((q.evaluate(vi), q.evaluate(vj)))
        ordered.append(vi)
        ordered.append(vj)
        hi = remaining[jj]
        lo = remaining[ii]
        remaining = [idx for idx in remaining if idx not in (lo, hi)]
    diag = []
    for idx in remaining:
        diag.append(q.evaluate(vecs[idx]))
        ordered.append(vecs[idx])
    # columns are the new basis vectors
    transform = tuple(zip(*ordered))
    return form(field, blocks, diag), transform


def witt_cancel_restart(q: QuadraticForm) -> QuadraticForm:
    """Drop the blocks with a zero coefficient or a solvable Artin-Schreier
    product, then cancel the first pair related by a square substitution and
    start again, until nothing changes."""
    blocks = list(q.blocks)
    changed = True
    while changed:
        changed = False
        kept = []
        for b in blocks:
            a, c = b
            if not a or not c:
                changed = True
                continue
            r = solve_artin_schreier(a * c)
            if isinstance(r, Fe):
                changed = True
                continue
            kept.append(b)
        blocks = kept
        for i in range(len(blocks)):
            done = False
            for j in range(i + 1, len(blocks)):
                if block_square_witness(blocks[i], blocks[j]) is not None:
                    del blocks[j]
                    del blocks[i]
                    changed = True
                    done = True
                    break
            if done:
                break
    return form(q.field, blocks, [])


def is_hyperbolic_by_isotropic_vector(
    q: QuadraticForm, *, pfister: bool = False, seed: int = 0
) -> Decision:
    """Hyperbolicity over GF(2^k) by the Arf invariant; over GF(2^k)(t) the
    cancellation pass, then planes split off through ``isotropic_vector``
    (block certificates, zero diagonal entries and equal blocks before the
    candidate search) until none is found, and the residual certified."""
    if q.diag:
        raise SingularForm("hyperbolicity is for nonsingular forms")
    if isinstance(q.field, GF2k):
        return decided(arf_invariant(q) == 0)
    rng = random.Random(seed)
    if pfister:
        v = isotropic_vector(q, rng)
        if v is not None:
            return decided(True, {"isotropic": v})
    cur = _witt_cancel_pass(q)
    while cur.blocks:
        v = isotropic_vector(cur, rng)
        if v is None:
            break
        cur = _witt_cancel_pass(_split_off_plane(cur, v))
    if not cur.blocks:
        return decided(True)
    cert = certify_anisotropic(cur)
    if cert.is_true:
        return decided(False, cert.witness)
    return unknown()


def witt_equivalent_by_arf(q1: QuadraticForm, q2: QuadraticForm) -> bool:
    """Equal numbers of kernel blocks, equal Arf invariants of the kernel
    blocks and equal numbers of nonzero kernel diagonal entries."""
    k1 = witt_decompose_gf2k(q1).kernel
    k2 = witt_decompose_gf2k(q2).kernel
    return (
        len(k1.blocks) == len(k2.blocks)
        and arf_invariant(form(k1.field, k1.blocks)) == arf_invariant(form(k2.field, k2.blocks))
        and sum(map(bool, k1.diag)) == sum(map(bool, k2.diag))
    )


# ---------------------------------------------------------------------------
# q_i nonsingular over L_i, by an L_i-module basis of W_i
# ---------------------------------------------------------------------------


def li_module_basis(comps: WComponents, i: int) -> List[list]:
    """An L_i-module basis of W_i, as space-coordinate vectors: the first
    candidates v that are, with g_i*v, independent of those chosen so far
    and their images.

    The search runs on W_i coordinates, where v -> v*g_i is the combination
    of the images of the W_i basis vectors (computed once), and reduces each
    candidate and its image against the echelon rows kept so far."""
    desc = comps.desc
    field = desc.field
    space = comps.space
    g, _ = comps.L.generator(i)
    vectors = comps.w_coords[i - 1]
    n = len(vectors)
    images = []
    for v in vectors:
        sc = space.coords(desc.el_mul(space.element(v), g))
        wc = None if sc is None else comps.w_spans[i - 1].input_coords(sc)
        if wc is None:
            raise DecompositionFailure(f"W_{i} is not stable under L_{i}")
        images.append(wc)

    add, mul, zero = field.radd, field.rmul, field.rzero
    chosen: List[list] = []
    kept: list = []  # (pivot, row), row 1 at pivot and 0 at the pivots kept before
    for cs in candidates(field, n, None, 0, 0):
        if 2 * len(chosen) == n:
            break
        new: list = []  # the candidate and its image, each reduced by the rows before it
        for v in (cs, combination(field, cs, images, n)):
            for p, row in kept + new:
                if v[p] != zero:
                    v = [add(a, mul(v[p], b)) for a, b in zip(v, row)]
            p = next((j for j, a in enumerate(v) if a != zero), None)
            if p is None:
                break
            inv = field.rinv(v[p])
            new.append((p, [mul(inv, a) for a in v]))
        else:
            chosen.append(cs)
            kept += new
    if 2 * len(chosen) != n:
        raise DecompositionFailure(f"W_{i} is not free over L_{i}")
    return [combination(field, cs, vectors, space.dim) for cs in chosen]


def check_qi_by_module_basis(comps: WComponents, i: int) -> None:
    desc = comps.desc
    ring = comps.L.li_ring(i)
    elems = [comps.space.element(v) for v in li_module_basis(comps, i)]
    # the polar matrix x*y + y*x is symmetric with zero diagonal
    rows = [[ring.rzero] * len(elems) for _ in elems]
    for a, b in itertools.combinations(range(len(elems)), 2):
        x, y = elems[a], elems[b]
        co = comps.L.li_coords(i, desc.el_add(desc.el_mul(x, y), desc.el_mul(y, x)))
        if co is None:
            raise DecompositionFailure("polar of q_i escapes L_i")
        rows[a][b] = rows[b][a] = tuple(co)
    # the Berkowitz determinant on etale payloads (a, b) = a + b*g_i
    det = charpoly_raw(rows, ring.rzero, ring.rone, ring.radd, ring.rmul)[0]
    if ring.rnorm(det) == desc.field.rzero:
        raise DecompositionFailure(f"q_{i} is singular over L_{i}")


# ---------------------------------------------------------------------------
# component certificates by evaluate, polar and polar_vector calls
# ---------------------------------------------------------------------------


def check_orthogonal_by_polar_vectors(comps: WComponents) -> None:
    field = comps.desc.field
    full = comps.full_raw
    # pairwise polar orthogonality: B*v once per vector of L, W_1, W_2, then sparse dots
    zero, add, mul = field.rzero, field.radd, field.rmul
    groups = [comps.l_coords] + comps.w_coords
    terms = [[[(j, a) for j, a in enumerate(w) if a != zero] for w in g] for g in groups]
    for gi in range(3):
        for v in groups[gi]:
            bv = full.polar_vector(v)
            for w in itertools.chain(*terms[gi + 1 :]):
                if functools.reduce(add, (mul(a, bv[j]) for j, a in w), zero) != zero:
                    raise DecompositionFailure("components are not orthogonal")


def check_squares_by_evaluate(comps: WComponents) -> None:
    desc = comps.desc
    field = desc.field
    full = comps.full_raw
    zero, add, mul = field.rzero, field.radd, field.rmul
    # squaring lands in L_i with the second coefficient equal to T_i(x^2)
    symplectic = desc.case == "symplectic"
    elems = [[comps.space.element(coords) for coords in w] for w in comps.w_coords]
    for i in (1, 2, 3):
        for coords, x in zip(comps.w_coords[i - 1], elems[i - 1]):
            li = comps.L.li_coords(i, desc.el_mul(x, x))
            if li is None:
                raise DecompositionFailure("a component square escapes L_i")
            # T_i(a + b*g_i) = b
            if full.evaluate(coords) != field._el(li[1]):
                raise DecompositionFailure("second coefficient differs from T_i(x^2)")
            # Trp is linear: its payloads at the basis were read off with the form
            if symplectic and functools.reduce(add, map(mul, coords, desc._trp_raw)) != zero:
                raise DecompositionFailure("first Pfaffian coefficient nonzero on W_i")


def restriction_certificate_11_00(comps: WComponents) -> Decision:
    """Certify that the restriction to L is [1,1] + [0,0].

    Uses the explicit basis: with T_i(l_i) = 1 the values at l_1, l_2,
    l_1 + l_2 and their translates by 1 are all 1, the plane (l_1, l_2) is
    the form X^2 + XY + Y^2, and its orthogonal complement in L contains the
    isotropic vector 1, so it is a split plane.
    """
    field = comps.desc.field
    full = comps.full_raw
    one = field.one
    # L has coordinates (1, s1, s2, s1*s2); l_1 = s2 and l_2 = s1
    vone, v2, v1, v4 = comps.l_coords
    conds = []
    vsum = list(map(field.radd, v1, v2))
    for v in (v1, v2, vsum):
        vv = list(map(field.radd, v, vone))
        conds.append(full.evaluate(v) == one)
        conds.append(full.evaluate(vv) == one)
    conds.append(not full.evaluate(vone))
    conds.append(polar(full, v1, v2) == one)
    conds.append(not polar(full, vone, v1))
    conds.append(not polar(full, vone, v2))
    # complement of the (l1, l2) plane inside L meets 1; it splits because
    # the plane is nonsingular and 1 is isotropic in it
    coeffs = (field.rone, polar(full, v4, v2).raw, polar(full, v4, v1).raw)
    w = combination(field, coeffs, (v4, v1, v2), len(v4))
    # the complement of the (l1, l2) plane is a nondegenerate plane spanned
    # by 1 and w; pairing with the isotropic 1 makes it a split block
    conds.append(bool(polar(full, vone, w)))
    return decided(all(conds), {"values": [full.evaluate(v).raw for v in (v1, v2, vsum)]})


# ---------------------------------------------------------------------------
# closed-form components and the orthogonal radical by elimination
# ---------------------------------------------------------------------------


def closed_form_by_solve(desc, L) -> List[List[list]]:
    """The space coordinates of ``extraction._explicit_index2_bases(desc)``
    after checking them against the kernels of x -> x*s_k + s_k*x (+ x when
    alpha_i moves s_k): the kernel dimensions, then each closed-form vector
    in Symd, each basis independent and spanning its kernel."""
    field, space = desc.field, symmetric_space(desc)
    add, one, rows = field.radd, field.rone, {}
    for k, s in ((1, L.s1), (2, L.s2)):
        cols = [desc.el_add(y, desc.involve(y)) for y in (desc.el_mul(b, s) for b in space.basis)]
        rows[k, False] = fixed = [[col[p] for col in cols] for p in space._span.pivots]
        rows[k, True] = [r[:i] + [add(r[i], one)] + r[i + 1 :] for i, r in enumerate(fixed)]
    solved = [kernel(rows[1, m1] + rows[2, m2], field) for m1, m2 in _KLEIN_MOVES]
    dims = (len(L.basis), *map(len, solved))
    expected = CASE_DIMS[desc.case][1]
    if dims != expected:
        raise DecompositionFailure(f"component dimensions {dims}, expected {expected}")
    w_coords = [[space.coords(x) for x in basis] for basis in extraction._explicit_index2_bases(desc)]
    if any(None in coords for coords in w_coords):
        raise DecompositionFailure("closed-form basis escapes the solved component")
    for coords, basis in zip(w_coords, solved):
        span = Span(coords, field)
        if not len(coords) == span.dim == len(basis):
            raise DecompositionFailure("closed-form basis is not a basis of the component")
        if any(span.coords(v) is None for v in basis):
            raise DecompositionFailure("closed-form basis escapes the solved component")
    return w_coords


def radical_by_kernel(comps: WComponents) -> Decision:
    """Whether the kernel of the full polar matrix has dimension 6 and holds
    every W_i basis vector, with its dimension as the witness."""
    field = comps.desc.field
    rad_span = Span(kernel(comps.full_raw.polar_matrix(), field), field)
    w_all = [v for w in comps.w_coords for v in w]
    same = rad_span.dim == 6 and all(rad_span.coords(v) is not None for v in w_all)
    return decided(same, {"radical_dim": rad_span.dim})
