"""Quadratic and bilinear form calculus in characteristic 2.

A raw form is an upper-triangular coefficient matrix; a normalized form is a
list of nonsingular binary blocks (a,b), each meaning a*X^2 + X*Y + b*Y^2,
followed by totally singular diagonal entries <c> meaning c*X^2.  Over
GF(2^k) classification is complete (dimension, Witt index, Arf invariant);
over GF(2^k)(t) the decision procedures are three-valued: every Decided
answer is backed by an explicit certificate, and a search that finds none
(a failed block pairing, say) answers Unknown.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .decision import Decision, decided, unknown
from .errors import (
    FieldMismatch,
    ShapeMismatch,
    SingularForm,
    UnsupportedField,
    ZeroScalar,
    ZeroSlot,
)
from .fields import (
    Fe,
    Field,
    GF2k,
    RatFunc,
    absolute_trace,
    pcoef,
    pdeg,
    pdivmod,
    solve_artin_schreier,
)
from .linalg import Span, combination, unit_vector


class RawQuadraticForm:
    """Quadratic form q(x) = sum_{i<=j} U[i][j] x_i x_j on payload coordinate
    vectors; evaluate walks the nonzero payloads of its vector against
    ``_rows[i]``, the nonzero U[i][j], j >= i, as payloads by j, built once,
    and returns a field element.  ``_polar[k]`` lists the nonzero
    (j, B[k][j]) of the polar matrix B = U + U^t."""

    __slots__ = ("field", "u", "_rows", "_polar")

    def __init__(self, field: Field, u):
        rows = tuple(tuple(r) for r in u)
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ShapeMismatch("coefficient matrix must be square")
            if any(row[j] for j in range(i)):
                raise ShapeMismatch("coefficients must be upper-triangular")
        self.field = field
        self.u = rows
        self._rows = tuple({j: row[j].raw for j in range(i, n) if row[j]} for i, row in enumerate(rows))
        self._polar = [[] for _ in range(n)]
        for i, row in enumerate(self._rows):
            for j, c in row.items():
                if j != i:
                    self._polar[i].append((j, c))
                    self._polar[j].append((i, c))

    @property
    def dim(self) -> int:
        return len(self.u)

    def _terms(self, x) -> list:
        """The (j, x_j) of the nonzero payloads of x."""
        zero = self.field.rzero
        return [(j, a) for j, a in enumerate(x) if a != zero]

    def _dot(self, row, terms):
        """sum_j U[i][j] x_j over the payload row i and the terms of x."""
        add, mul = self.field.radd, self.field.rmul
        return functools.reduce(add, (mul(row[j], a) for j, a in terms if j in row), self.field.rzero)

    def evaluate(self, x: Sequence) -> Fe:
        """q(x) on a payload vector."""
        add, mul = self.field.radd, self.field.rmul
        acc = self.field.rzero
        terms = self._terms(x)
        for s, (i, a) in enumerate(terms):
            acc = add(acc, mul(a, self._dot(self._rows[i], terms[s:])))
        return self.field._el(acc)

    def polar_matrix(self) -> Tuple[tuple, ...]:
        """B = U + U^t on payloads; alternating (zero diagonal) in characteristic 2."""
        rows = [[self.field.rzero] * self.dim for _ in range(self.dim)]
        for row, col in zip(rows, self._polar):
            for j, c in col:
                row[j] = c
        return tuple(map(tuple, rows))

    def polar_vector(self, x: Sequence) -> list:
        """B x on payloads, B = U + U^t the polar matrix: polar(x, y) = (B x) . y."""
        add, mul, zero = self.field.radd, self.field.rmul, self.field.rzero
        out = [zero] * self.dim
        for xk, col in zip(x, self._polar):
            if xk != zero:
                for j, c in col:
                    out[j] = add(out[j], mul(c, xk))
        return out

    def restrict(self, vectors: Sequence[Sequence]) -> "RawQuadraticForm":
        """The form induced on the span of the given payload coordinate vectors:
        U'[i][i] = q(v_i) and U'[i][j] = (B v_i) . v_j for j > i."""
        field = self.field
        add, mul, zero = field.radd, field.rmul, field.rzero
        n = len(vectors)
        terms = list(map(self._terms, vectors))
        u = [[field.zero] * n for _ in range(n)]
        for i in range(n):
            u[i][i] = self.evaluate(vectors[i])
            bv = self.polar_vector(vectors[i])
            for j in range(i + 1, n):
                u[i][j] = field._el(functools.reduce(add, (mul(a, bv[k]) for k, a in terms[j]), zero))
        return RawQuadraticForm(field, u)

    def scaled(self, c: Fe) -> "RawQuadraticForm":
        if not c:
            raise ZeroScalar("cannot scale a form by zero")
        return RawQuadraticForm(self.field, [[c * a for a in row] for row in self.u])

    def __repr__(self):
        return f"RawQuadraticForm(dim={self.dim})"


class QuadraticForm(NamedTuple):
    """Normalized block form: binary blocks (a,b) plus diagonal entries."""

    field: Field
    blocks: Tuple[Tuple[Fe, Fe], ...]
    diag: Tuple[Fe, ...]

    @property
    def dim(self) -> int:
        return 2 * len(self.blocks) + len(self.diag)

    def evaluate(self, v: Sequence) -> Fe:
        """The value at a payload vector."""
        field = self.field
        add, mul = field.radd, field.rmul
        acc = field.rzero
        for i, (a, b) in enumerate(self.blocks):
            x, y = v[2 * i], v[2 * i + 1]
            acc = add(acc, add(mul(a.raw, mul(x, x)), add(mul(x, y), mul(b.raw, mul(y, y)))))
        for j, c in enumerate(self.diag):
            x = v[2 * len(self.blocks) + j]
            acc = add(acc, mul(c.raw, mul(x, x)))
        return field._el(acc)

    def to_raw(self) -> RawQuadraticForm:
        n = self.dim
        z = self.field.zero
        u = [[z] * n for _ in range(n)]
        for i, (a, b) in enumerate(self.blocks):
            u[2 * i][2 * i] = a
            u[2 * i][2 * i + 1] = self.field.one
            u[2 * i + 1][2 * i + 1] = b
        for j, c in enumerate(self.diag):
            k = 2 * len(self.blocks) + j
            u[k][k] = c
        return RawQuadraticForm(self.field, u)

    def __repr__(self):
        return f"QuadraticForm(blocks={len(self.blocks)}, diag={len(self.diag)})"


def form(field: Field, blocks=(), diag=()) -> QuadraticForm:
    return QuadraticForm(field, tuple(tuple(b) for b in blocks), tuple(diag))


def block11(field: Field) -> QuadraticForm:
    """The form X^2 + XY + Y^2."""
    return form(field, [(field.one, field.one)])


def block00(field: Field) -> QuadraticForm:
    """The hyperbolic plane XY."""
    return form(field, [(field.zero, field.zero)])


def normalize(q: RawQuadraticForm) -> Tuple[QuadraticForm, Tuple[tuple, ...]]:
    """Symplectic Gram-Schmidt reduction of a raw form, by congruence on its
    polar matrix.

    Returns the block form together with the change of basis T on payloads
    (columns are the new basis in old coordinates), so q(T y) equals the
    block form at y.
    The radical of the polar form lands in the diagonal part.

    The pivot is the first remaining pair (a, b) with B(v_a, v_b) != 0, v_b
    is scaled by c = B(v_a, v_b)^-1, and every other remaining w becomes
    w + alpha*v_a + beta*v_b with alpha = B(w, v_b), beta = B(w, v_a).  The
    rows B(v_i, .) and values q(v_i) of the remaining vectors follow by
    congruence: B(w', x) = B(w, x) + alpha*B(v_a, x) + beta*B(v_b, x), which
    is also B(w', x') because w' is orthogonal to v_a and v_b, and q(w') =
    q(w) + alpha^2*q(v_a) + beta^2*q(v_b) + alpha*beta, so no polar form or
    value is evaluated.
    """
    field = q.field
    n = q.dim
    add, mul, zero, one = field.radd, field.rmul, field.rzero, field.rone
    bil = list(map(list, q.polar_matrix()))
    val = [q.u[i][i].raw for i in range(n)]
    vecs = [unit_vector(field, n, i) for i in range(n)]
    remaining = list(range(n))
    blocks: List[Tuple[Fe, Fe]] = []
    ordered: List[list] = []

    while True:
        pair = next(
            ((a, b) for k, a in enumerate(remaining) for b in remaining[k + 1 :] if bil[a][b] != zero),
            None,
        )
        if pair is None:
            break
        a, b = pair
        c = field.rinv(bil[a][b])
        va = vecs[a]
        vb = [mul(x, c) for x in vecs[b]]
        row_a = bil[a]
        row_b = [mul(c, x) for x in bil[b]]
        val_a, val_b = val[a], mul(mul(c, c), val[b])
        remaining = [i for i in remaining if i != a and i != b]
        for w in remaining:
            alpha, beta = row_b[w], bil[w][a]
            if alpha == zero and beta == zero:
                continue
            coeffs = (one, alpha, beta)
            vecs[w] = combination(field, coeffs, (vecs[w], va, vb), n)
            bil[w] = combination(field, coeffs, (bil[w], row_a, row_b), n)
            terms = (val[w], mul(mul(alpha, alpha), val_a), mul(mul(beta, beta), val_b), mul(alpha, beta))
            val[w] = functools.reduce(add, terms)
        blocks.append((field._el(val_a), field._el(val_b)))
        ordered += [va, vb]
    diag = [field._el(val[i]) for i in remaining]
    ordered += [vecs[i] for i in remaining]
    # columns are the new basis vectors
    transform = tuple(zip(*ordered))
    return form(field, blocks, diag), transform


def direct_sum(*forms_: QuadraticForm) -> QuadraticForm:
    field = forms_[0].field
    blocks: List[Tuple[Fe, Fe]] = []
    diag: List[Fe] = []
    for f in forms_:
        if f.field is not field:
            raise FieldMismatch("direct sum over different fields")
        blocks.extend(f.blocks)
        diag.extend(f.diag)
    return form(field, blocks, diag)


def scale(c: Fe, q: QuadraticForm) -> QuadraticForm:
    """The form c*q; on blocks (a,b) this is (ca, b/c) via Y -> Y/c."""
    if not c:
        raise ZeroScalar("scale by zero")
    return form(
        q.field,
        [(c * a, b / c) for a, b in q.blocks],
        [c * d for d in q.diag],
    )


def bilinear_tensor(multipliers: Sequence[Fe], q: QuadraticForm) -> QuadraticForm:
    """Tensor with the diagonal bilinear form <multipliers>."""
    for m in multipliers:
        if not m:
            raise ZeroScalar("tensor multiplier must be nonzero")
    return direct_sum(*(scale(m, q) for m in multipliers))


def _subset_products(slots: Sequence[Fe], field: Field) -> List[Fe]:
    prods = [field.one]
    for s in slots:
        prods = prods + [p * s for p in prods]
    return prods


def quad_pfister(slots: Sequence[Fe], c: Fe) -> QuadraticForm:
    """The quadratic Pfister form <<slots; c]] of dimension 2^(len(slots)+1)."""
    field = c.field
    for s in slots:
        if not s:
            raise ZeroSlot("Pfister slots must be nonzero")
    base = form(field, [(field.one, c)])
    return bilinear_tensor(_subset_products(slots, field), base)


def quasi_pfister(slots: Sequence[Fe], field: Optional[Field] = None) -> QuadraticForm:
    """Totally singular diagonal form with all subset products of the slots."""
    if field is None:
        if not slots:
            raise ValueError("empty slot list needs an explicit field")
        field = slots[0].field
    for s in slots:
        if not s:
            raise ZeroSlot("Pfister slots must be nonzero")
    return form(field, [], _subset_products(slots, field))


def arf_invariant(q: QuadraticForm) -> int:
    """Sum of absolute traces of a_i*b_i over the blocks."""
    if q.diag:
        raise SingularForm("Arf invariant needs a nonsingular form")
    if not isinstance(q.field, GF2k):
        raise UnsupportedField("Arf invariant implemented over GF(2^k) only")
    bit = 0
    for a, b in q.blocks:
        bit ^= absolute_trace(a * b)
    return bit


def trace_one_element(field: GF2k) -> Fe:
    """Least element of GF(2^k) with absolute trace 1."""
    for x in field.elements():
        if field.rtrace(x.raw) == 1:
            return x
    raise AssertionError("every GF(2^k) has a trace-1 element")


class WittInvariantsGf2k(NamedTuple):
    """Complete invariants over GF(2^k): dim = 2*witt_index + dim(kernel)."""

    dimension: int
    witt_index: int
    arf: int
    kernel: QuadraticForm


def _f2_rank_gf2k(diag: Sequence[Fe]) -> int:
    return 1 if any(diag) else 0


def witt_decompose_gf2k(q: QuadraticForm) -> WittInvariantsGf2k:
    """Witt decomposition over GF(2^k).

    Every element is a square, so the diagonal part collapses to at most one
    nonzero entry <1> plus zeros; a nonzero diagonal entry absorbs the
    anisotropic binary block, turning it into an extra hyperbolic plane.
    """
    field = q.field
    if not isinstance(field, GF2k):
        raise UnsupportedField("Witt decomposition implemented over GF(2^k) only")
    nblocks = len(q.blocks)
    arf = arf_invariant(form(field, q.blocks))
    ts_rank = _f2_rank_gf2k(q.diag)
    kernel_blocks: List[Tuple[Fe, Fe]] = []
    # entries beyond an F^2-basis of the diagonal collapse to radical zeros
    kernel_diag: List[Fe] = [field.one] * ts_rank + [field.zero] * (
        len(q.diag) - ts_rank
    )
    if ts_rank:
        witt = nblocks
    else:
        witt = nblocks - arf
        if arf:
            kernel_blocks.append((field.one, trace_one_element(field)))
    kernel = form(field, kernel_blocks, kernel_diag)
    return WittInvariantsGf2k(q.dim, witt, arf, kernel)


def witt_equivalent_gf2k(q1: QuadraticForm, q2: QuadraticForm) -> bool:
    """Equality of anisotropic kernels (zero diagonal entries are radical):
    a kernel has at most the one block (1, c), and the rank of its diagonal."""
    k1 = witt_decompose_gf2k(q1).kernel
    k2 = witt_decompose_gf2k(q2).kernel
    return k1.blocks == k2.blocks and _f2_rank_gf2k(k1.diag) == _f2_rank_gf2k(k2.diag)


# ---------------------------------------------------------------------------
# F^2-linear span machinery for totally singular forms
# ---------------------------------------------------------------------------


def _square_coords(e: Fe) -> list:
    """Payload coordinates of e over the F^2-basis {1, t} of F, both in F^2.

    Over GF(2^k), F^2 = F and e has the coordinates (e, 0).  Vectors with
    entries in F^2 have the same rank and span membership over F as over F^2,
    so ``linalg.Span`` of these coordinates is the F^2-span of the elements.
    """
    field = e.field
    if isinstance(field, GF2k):
        return [e.raw, field.rzero]
    base = field.base
    num, den = e.raw
    m = field.rmul((num, 1), (den, 1))[0]  # num*den; e = m / den^2
    k = base.k
    even = 0
    odd = 0
    for i in range(pdeg(m, k) + 1):
        c = pcoef(m, i, k)
        if not c:
            continue
        if i % 2 == 0:
            even |= c << (i * k)
        else:
            odd |= c << ((i - 1) * k)
    den2 = field.rmul((den, 1), (den, 1))[0]
    return [field._norm(even, den2), field._norm(odd, den2)]


def f2_span(entries: Sequence[Fe], field: Field) -> Span:
    """The span of field elements over the subfield of squares F^2."""
    return Span([_square_coords(e) for e in entries], field)


def totally_singular_isometry(d1: QuadraticForm, d2: QuadraticForm) -> Decision:
    """Isometry test for totally singular diagonal forms of equal dimension.

    Isometry classes are determined by (dimension, F^2-span of the entries),
    so the comparison is exact over both supported field kinds.
    """
    if d1.blocks or d2.blocks:
        raise SingularForm("totally singular comparison needs diagonal forms")
    if d1.dim != d2.dim:
        raise ValueError("totally singular comparison needs equal dimensions")
    if d1.field is not d2.field:
        raise FieldMismatch("forms over different fields")
    s1 = f2_span(d1.diag, d1.field)
    s2 = f2_span(d2.diag, d2.field)
    if s1.dim != s2.dim:
        return decided(False, {"rank1": s1.dim, "rank2": s2.dim})
    mutual = all(s2.contains(_square_coords(e)) for e in d1.diag) and all(
        s1.contains(_square_coords(e)) for e in d2.diag
    )
    return decided(mutual)


def is_quasi_hyperbolic(d: QuadraticForm) -> bool:
    """F^2-span rank of the entries at most half the dimension."""
    if d.blocks:
        raise SingularForm("quasi-hyperbolicity is for totally singular forms")
    return 2 * f2_span(d.diag, d.field).dim <= d.dim


# ---------------------------------------------------------------------------
# isotropy searches and hyperbolicity decisions
# ---------------------------------------------------------------------------


def _block_split_certificate(field, a: Fe, b: Fe):
    """The one classifier of a binary block (a,b): an isotropic vector (x, y)
    when it is split, None when the Artin-Schreier product a*b is proven
    obstructed (the block is anisotropic), else UNKNOWN."""
    if not a:
        return (field.one, field.zero)
    if not b:
        return (field.zero, field.one)
    r = solve_artin_schreier(a * b)
    if r is None:
        return None
    if isinstance(r, Fe):
        return (r / a, field.one)  # a(r/a)^2 + (r/a) + b = (r^2+r+ab)/a = 0
    return r  # UNKNOWN sentinel


def candidates(
    field: Field, n: int, rng: Optional[random.Random], draws: int, exhaustive: int
) -> Iterator[list]:
    """The payload candidate vectors of F^n every witness search filters, in order.

    First the unit vectors, then the sums of two unit vectors; then every
    other nonzero vector in lexicographic order when F is GF(2^k) with
    |F|^n <= exhaustive (so each nonzero vector comes exactly once),
    otherwise `draws` vectors drawn from rng (a zero draw is skipped; rng
    may be None when draws is 0).  The zero vector is never yielded.
    """
    for i in range(n):
        yield unit_vector(field, n, i)
    for i in range(n):
        for j in range(i + 1, n):
            v = unit_vector(field, n, i)
            v[j] = field.rone
            yield v
    if isinstance(field, GF2k) and field.order**n <= exhaustive:
        for vals in itertools.product(range(field.order), repeat=n):
            # skip zero and the unit and pair vectors (entries 0 and 1, at most two 1s)
            if max(vals) > 1 or sum(vals) > 2:
                yield list(vals)  # GF(2^k) payloads are the integers 0 .. |F|-1
        return
    zero = field.rzero
    for _ in range(draws):
        v = [field.rrand(rng) for _ in range(n)]
        if any(a != zero for a in v):
            yield v


# seeded draws of an isotropic-vector search when the exhaustive stage does
# not apply
_ISOTROPY_DRAWS = 200


def isotropic_vector(
    q: QuadraticForm, rng: Optional[random.Random] = None
) -> Optional[list]:
    """Bounded search for a nonzero isotropic payload vector.

    Tries per-block certificates and duplicated blocks, then filters
    `candidates` (exhaustive over tiny fields, else _ISOTROPY_DRAWS seeded
    draws).
    Returns None when the budget is exhausted (which proves nothing).
    """
    field = q.field
    n = q.dim
    for i, (a, b) in enumerate(q.blocks):
        cert = _block_split_certificate(field, a, b)
        if isinstance(cert, tuple):
            v = [field.rzero] * n
            v[2 * i], v[2 * i + 1] = cert[0].raw, cert[1].raw
            return v
    for j, c in enumerate(q.diag):
        if not c:
            return unit_vector(field, n, 2 * len(q.blocks) + j)
    for i in range(len(q.blocks)):
        for j in range(i + 1, len(q.blocks)):
            if q.blocks[i] == q.blocks[j]:
                v = unit_vector(field, n, 2 * i)
                v[2 * j] = field.rone
                return v
    return _searched_isotropic(q, rng if rng is not None else random.Random(0))


def _searched_isotropic(q: QuadraticForm, rng: random.Random) -> Optional[list]:
    """The first `candidates` vector q vanishes at, or None."""
    stream = candidates(q.field, q.dim, rng, _ISOTROPY_DRAWS, 1 << 16)
    return next((v for v in stream if not q.evaluate(v)), None)


def _split_off_plane(q: QuadraticForm, v: Sequence) -> QuadraticForm:
    """Split a hyperbolic plane through the isotropic payload vector v (q
    nonsingular)."""
    raw = q.to_raw()
    field = q.field
    n = q.dim
    bv = raw.polar_vector(v)
    i = next((i for i, a in enumerate(bv) if a != field.rzero), None)
    if i is None:
        raise SingularForm("nonsingular form has no radical vectors")
    w = [field.rzero] * n
    w[i] = field.rinv(bv[i])  # B(v, w) = 1
    bw = raw.polar_vector(w)
    one = field.rone
    rest = [
        combination(field, (one, bw[j], bv[j]), (unit_vector(field, n, j), v, w), n)
        for j in range(n)
    ]
    span = Span(rest, field)
    if span.dim != n - 2:
        raise SingularForm("complement of the split plane has the wrong dimension")
    out, _ = normalize(raw.restrict(span.rows))
    return out


def _witt_cancel_pass(q: QuadraticForm) -> QuadraticForm:
    """Drop visibly split blocks and isometric block pairs (Witt-sound).

    A block ``_block_split_certificate`` gives an isotropic vector for is a
    hyperbolic plane; two blocks related by a square substitution cancel
    because b + b is hyperbolic in characteristic 2.  Each block cancels
    against the first later block it matches, in one pass: a block with no
    match among the later blocks has none after a pair behind it goes.
    """
    field = q.field
    blocks = [b for b in q.blocks if not isinstance(_block_split_certificate(field, *b), tuple)]
    kept = []
    while blocks:
        b = blocks.pop(0)
        j = next((j for j, c in enumerate(blocks) if block_square_witness(b, c) is not None), None)
        if j is None:
            kept.append(b)
        else:
            del blocks[j]
    return form(field, kept, [])


def is_hyperbolic(q: QuadraticForm, *, pfister: bool = False, seed: int = 0) -> Decision:
    """Hyperbolicity decision.

    Over GF(2^k) the Arf invariant decides.  Over GF(2^k)(t) a Witt-sound
    cancellation pass runs first, then certified hyperbolic planes are split
    greedily; a Pfister form with any isotropic vector is Decided(true); a
    fully anisotropy-certified residual gives Decided(false); otherwise
    Unknown.
    """
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
        # the pass leaves no split block, no diagonal and no equal pair (it cancels b
        # against b), so the certificate steps of isotropic_vector cannot fire
        v = _searched_isotropic(cur, rng)
        if v is None:
            break
        cur = _split_off_plane(cur, v)
        cur = _witt_cancel_pass(cur)
    if not cur.blocks:
        return decided(True)
    cert = certify_anisotropic(cur)
    if cert.is_true:
        return decided(False, cert.witness)
    return unknown()


def certify_anisotropic(q: QuadraticForm) -> Decision:
    """Try to certify that q has no nontrivial zero (RatFunc, dim <= 4).

    Certificates: a 2-dimensional block whose Artin-Schreier obstruction is
    proven, and 4-dimensional norm-form multiples <a1,a2> x [1,c] with c a
    trace-one constant and odd relative valuation of a1*a2 at a degree-one
    place (including infinity).
    """
    field = q.field
    if not isinstance(field, RatFunc):
        return unknown()
    if q.diag and not q.blocks:
        # totally singular: anisotropic iff the entries are F^2-independent
        rank = f2_span(q.diag, field).dim
        if rank < len(q.diag):
            return decided(False)
        return decided(True, {"f2_rank": rank})
    if q.diag:
        return unknown()
    if len(q.blocks) == 1:
        (a, b) = q.blocks[0]
        cert = _block_split_certificate(field, a, b)
        if cert is None:
            return decided(True, {"artin_schreier_obstruction": (a * b).raw})
        if isinstance(cert, tuple):
            return decided(False)
        return unknown()
    if len(q.blocks) == 2:
        (a1, b1), (a2, b2) = q.blocks
        if not (a1 and b1 and a2 and b2):
            return decided(False)
        c = a1 * b1
        if a2 * b2 != c:
            return unknown()
        num, den = c.raw
        base = field.base
        if den != 1 or pdeg(num, base.k) != 0 or base.rtrace(num) != 1:
            return unknown()
        m = a1 * a2
        place = _odd_valuation_place(m, field)
        if place is not None:
            return decided(True, {"constant": num, "odd_place": place})
        return unknown()
    return unknown()


def _odd_valuation_place(m: Fe, field: RatFunc) -> Optional[str]:
    """A degree-one place where m has odd valuation, or None."""
    base = field.base
    num, den = m.raw
    if (pdeg(num, base.k) - pdeg(den, base.k)) % 2:
        return "infinity"
    for gamma in range(base.order):
        lin = (gamma | (1 << base.k), 1)  # the polynomial t + gamma
        v = _valuation_at(num, lin[0], base) - _valuation_at(den, lin[0], base)
        if v % 2:
            return f"{field.var}+{gamma:#x}"
    return None


def _valuation_at(p: int, lin: int, base: GF2k) -> int:
    if p == 0:
        return 0
    v = 0
    while True:
        quo, rem = pdivmod(p, lin, base)
        if rem != 0:
            return v
        p = quo
        v += 1


def block_square_witness(b1: Tuple[Fe, Fe], b2: Tuple[Fe, Fe]) -> Optional[Fe]:
    """A scalar lam with b2 = (lam^2*a, b/lam^2) for b1 = (a, b), or None.

    The substitution X -> X/lam, Y -> lam*Y realizes this isometry, so a
    returned witness certifies the two blocks are isometric.
    """
    (a1, c1), (a2, c2) = b1, b2
    field = a1.field
    split1 = not a1 or not c1
    split2 = not a2 or not c2
    if split1 or split2:
        # blocks with a zero coefficient are hyperbolic planes (shear X -> X+cY)
        return field.one if (split1 and split2) else None
    lam = (a2 / a1).sqrt()
    if lam is None:
        return None
    if c2 == c1 / (lam * lam):
        return lam
    return None


def blocks_match_upto_squares(q1: QuadraticForm, q2: QuadraticForm) -> Decision:
    """Greedy matching of blocks by square-substitution witnesses: Decided(true)
    certifies isometry block by block.  When no pairing is found the answer
    is Witt equivalence over GF(2^k), exact for nonsingular forms of one
    dimension, and Unknown otherwise; differing block counts are false."""
    if q1.diag or q2.diag:
        raise SingularForm("block matching needs nonsingular forms")
    if len(q1.blocks) != len(q2.blocks) or q1.field is not q2.field:
        return decided(False)
    unused = list(range(len(q2.blocks)))
    pairing = []
    for i, b1 in enumerate(q1.blocks):
        hit = None
        for j in unused:
            lam = block_square_witness(b1, q2.blocks[j])
            if lam is not None:
                hit = (j, lam)
                break
        if hit is None:
            if isinstance(q1.field, GF2k):
                return decided(witt_equivalent_gf2k(q1, q2))
            return unknown({"unmatched_block": i})
        unused.remove(hit[0])
        pairing.append((i, hit[0], hit[1].raw))
    return decided(True, {"pairing": pairing})


def is_anisotropic(q: QuadraticForm, *, seed: int = 0) -> Decision:
    """Anisotropy decision: exact over GF(2^k), certificate-based otherwise."""
    if isinstance(q.field, GF2k):
        w = witt_decompose_gf2k(q)
        aniso = q.dim == w.kernel.dim and all(bool(c) for c in w.kernel.diag)
        return decided(aniso)
    v = isotropic_vector(q, random.Random(seed))
    if v is not None:
        return decided(False, {"isotropic": v})
    return certify_anisotropic(q)
