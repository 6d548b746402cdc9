"""Matrix algebras with involution and their trace forms.

Degree-8 symplectic algebras are represented as 4x4 matrices over a
quaternion algebra Q, with sigma(x) = D^-1 * conj-transpose(x) * D for a
diagonal hermitian Gram D = diag(1, u1, u2, u3); the split case uses
Q = [0,1) and D = 1.  Degree-4 algebras come in three shapes: the exchange
algebra E x E^op, 4x4 matrices over a quadratic etale extension with a
twisted-transpose unitary involution, and 4x4 matrices over F with a
transpose-type orthogonal involution.

Every descriptor is three sparse tables over its payload coordinates: the
structure constants, sigma, and ``split_rows``, a square payload matrix
with the reduced characteristic polynomial (and the parameter c of its
entry ring F[s]/(s^2 + s + c), or None over F).  That matrix is the 8x8
splitting image of Q for the symplectic shapes (over the etale ring with
c = a only when Q does not split over F), and the entries themselves (the
E block of the exchange algebra) for the others.  Products run one loop
over the structure constants, sigma and split_rows one sparse linear map.
One Berkowitz driver gives ``reduced_charpoly``; the reduced Pfaffian of a
symmetrized element is the square root of its even coefficients.  Trd comes
from ``split_rows`` too, and both trace forms are read off the reduced
characteristic polynomials at the points e_i and e_i + e_j of the symmetric
space, one batch per form.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import (
    CharformError,
    CoefficientNotRational,
    NoInvertibleWitness,
    NotPfaffian,
    ShapeMismatch,
    UnsupportedDescriptor,
    ZeroScalar,
)
from .fields import (
    Fe,
    Field,
    GF2k,
    QuadraticExtension,
    RatFunc,
    etale_ops,
    pdivmod,
    pgcd,
    pmul,
    solve_artin_schreier,
)
from .forms import RawQuadraticForm, candidates
from .linalg import Span, charpoly_raw, combination, kernel, rref, unit_vector
from .quaternions import QuaternionAlgebra, quat_conj

# per involution type: the dimension of Symd (symplectic) or Sym, and the
# dimensions of L, W_1, W_2, W_3 in its Klein decomposition
CASE_DIMS = {
    "symplectic": (28, (4, 8, 8, 8)),
    "unitary": (16, (4, 4, 4, 4)),
    "orthogonal": (10, (4, 2, 2, 2)),
}


class InvolutionSpace:
    """Coordinatized space of (skew-)symmetric elements.

    For symplectic descriptors each basis element b is stored together with a
    half b' satisfying b = b' + sigma(b'), so the polarization
    b(x, y) = t(x) t(y) + Trd(x y') of the Pfaffian form needs no division
    by 2 (verify checks it).  Coordinates over the basis are lists of field
    payloads.
    """

    def __init__(self, desc, basis, halves):
        self.desc = desc
        self.basis = basis
        self.halves = halves
        self._span = Span(basis, desc.field)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, x) -> Optional[list]:
        return self._span.coords(self.desc.to_vec(x))

    def _combine(self, coords: Sequence, elements):
        desc = self.desc
        return tuple(combination(desc.field, coords, elements, desc.ambient_dim))

    def element(self, coords: Sequence):
        return self._combine(coords, self.basis)

    def half(self, coords: Sequence):
        assert self.halves is not None, "halves are stored for symplectic spaces only"
        return self._combine(coords, self.halves)

    def rand_coords(self, rng: random.Random) -> list:
        return [self.desc.field.rrand(rng) for _ in range(self.dim)]


@dataclass(frozen=True)
class PfaffianData:
    """Monic reduced Pfaffian: coefficients ascending, and the named terms."""

    coeffs: Tuple[Fe, ...]
    trace: Fe  # coefficient of X^(m-1)
    second: Fe  # coefficient of X^(m-2)
    linear: Fe  # coefficient of X (the cubic-form value for m = 4)
    norm: Fe  # constant coefficient


def _base_parts(pairs, zero) -> list:
    """The x parts of etale pairs (x, y), whose y parts must vanish."""
    if any(y != zero for _, y in pairs):
        raise CoefficientNotRational("reduced characteristic coefficient outside the base field")
    return [x for x, _ in pairs]


def _berkowitz(rows, c, e, zero, one, add, mul) -> list:
    """charpoly_raw over a ring, or over its extension s^2 = e*s + c (entries
    (x, y) of x + y*s) with the y parts of the coefficients checked to
    vanish."""
    if c is None:
        return charpoly_raw(rows, zero, one, add, mul)
    eadd, emul = etale_ops(c, zero, add, mul, e)
    return _base_parts(charpoly_raw(rows, (zero, zero), (one, zero), eadd, emul), zero)


def _charpoly_fraction_free(field: RatFunc, rows, c) -> list:
    """Berkowitz over GF(2^k)(t) on packed polynomials, with no gcd in the
    inner loops: the denominators are cleared once into den, and coefficient
    i of den*M is divided by den^(n-i).  A centre c = p/q with q != 1 is
    replaced by the integral generator r = q*s, with r^2 = q*r + p*q and
    x + y*s = x + (y/q)*r."""
    base = field.base
    e = None
    if c is not None:
        p, q = c
        c = p
        if q != 1:
            inv_q = (1, q)
            rows = [[(x, field.rmul(y, inv_q)) for x, y in row] for row in rows]
            e, c = q, pmul(p, q, base)
    den = 1
    for row in rows:
        for entry in row:
            for _, d in (entry,) if c is None else entry:
                if d != 1 and d != den:
                    den = pmul(pdivmod(den, pgcd(den, d, base), base)[0], d, base)

    def cleared(v):
        num, d = v
        return num if d == den else pmul(num, pdivmod(den, d, base)[0], base)

    if c is None:
        rows = [[cleared(v) for v in row] for row in rows]
    else:
        rows = [[(cleared(x), cleared(y)) for x, y in row] for row in rows]
    coeffs = _berkowitz(rows, c, e, 0, 1, operator.xor, lambda a, b: pmul(a, b, base))
    power = 1
    for i in range(len(coeffs) - 1, -1, -1):
        coeffs[i] = field._norm(coeffs[i], power)
        power = pmul(power, den, base)
    return coeffs


def _matrix_tables(field: Field, k: int, entry_mul, conj, gram: Sequence[Fe]):
    """The structure constants and the sigma table of 4x4 matrices over an
    entry ring whose product and conjugation act on k-tuples of payloads,
    for sigma(x) = G^-1 conj(x)^t G with the Gram diagonal G."""
    if any(not g for g in gram):
        raise ZeroScalar("Gram coefficients must be nonzero")
    zero, one, mul = field.rzero, field.rone, field.rmul
    units = [(zero,) * a + (one,) + (zero,) * (k - a - 1) for a in range(k)]
    mults = [[entry_mul(u, v) for v in units] for u in units]
    slots = list(itertools.product(range(4), range(k)))
    cells = [(r, s, a) for r in range(4) for s, a in slots]
    at = {cell: i for i, cell in enumerate(cells)}
    ratio = [[(gr / gs).raw for gs in gram] for gr in gram]
    # (e_rs q_a)(e_st q_b) = e_rt q_a q_b, and sigma(e_rs q) = (g_r / g_s) e_sr conj(q)
    product = [
        tuple(
            (at[s, t, b], tuple((at[r, t, l], c) for l, c in enumerate(mults[a][b]) if c != zero))
            for t, b in slots
        )
        for r, s, a in cells
    ]
    sigma = [
        tuple((at[s, r, l], mul(ratio[r][s], c)) for l, c in enumerate(conj(units[a])) if c != zero)
        for r, s, a in cells
    ]
    return product, sigma


class _MatrixDescriptor:
    """An algebra with involution as three sparse tables over the payload
    coordinates of its elements, built once by the subclass.

    An element is a flat tuple of field payloads: for 4x4 matrices over an
    entry ring, the entries row by row, each as its ``k`` payloads.
    ``_product[i]`` lists the (j, terms) with e_i e_j = sum c e_l over the
    (l, c) in terms, ``_sigma[i]`` the terms of sigma(e_i), and ``_split[i]``
    those of e_i in the flat split_size x split_size matrix of ``split_rows``
    (two payloads per entry when split_c is not None).
    """

    n = 4
    case: str  # the involution type, a key of CASE_DIMS

    def __init__(self, field: Field, k: int, product, sigma, split, split_size: int, split_c=None):
        self.field, self.k, self.ambient_dim = field, k, len(product)
        self._product, self._sigma, self._split = product, sigma, split
        self._split_size, self._split_c = split_size, split_c
        self._space: Optional[InvolutionSpace] = None
        self._srp_raw: Optional[RawQuadraticForm] = None
        self._components = None
        # sigma(sigma(e_i)) = e_i, read off the sigma table
        zero, one, add, mul = field.rzero, field.rone, field.radd, field.rmul
        for i, terms in enumerate(sigma):
            acc = {}
            for l, c in terms:
                for m, d in sigma[l]:
                    acc[m] = add(acc.get(m, zero), mul(c, d))
            if acc.pop(i, zero) != one or any(a != zero for a in acc.values()):
                raise UnsupportedDescriptor("the induced map is not an involution")

    # element plumbing --------------------------------------------------------

    def zero_el(self):
        return (self.field.rzero,) * self.ambient_dim

    def one_el(self):
        return functools.reduce(self.el_add, map(self.projector, range(self.n)))

    def projector(self, i: int):
        """The diagonal matrix unit at (i, i)."""
        n, k = self.n, self.k
        v = [self.field.rzero] * (n * n * k)
        v[(i * n + i) * k] = self.field.rone
        return tuple(v)

    def el_add(self, x, y):
        return tuple(map(self.field.radd, x, y))

    def el_mul(self, x, y):
        field = self.field
        zero, one, add, mul = field.rzero, field.rone, field.radd, field.rmul
        acc = [zero] * self.ambient_dim
        for a, row in zip(x, self._product):
            if a != zero:
                for j, terms in row:
                    b = y[j]
                    if b != zero:
                        p = mul(a, b)
                        for l, c in terms:
                            acc[l] = add(acc[l], p if c == one else mul(c, p))
        return tuple(acc)

    def _apply(self, table, x, width: int, ring=None) -> list:
        """The linear map e_i -> table[i] (sparse terms) on x, as ``width``
        values of ring (zero, one, add, mul), by default the field payloads."""
        field = self.field
        zero, one, add, mul = ring or (field.rzero, field.rone, field.radd, field.rmul)
        acc = [zero] * width
        for a, terms in zip(x, table):
            if a != zero:
                for l, c in terms:
                    acc[l] = add(acc[l], a if c == one else mul(c, a))
        return acc

    def el_scal(self, c: Fe, x):
        c, mul, zero = c.raw, self.field.rmul, self.field.rzero
        return tuple(a if a == zero else mul(c, a) for a in x)

    def rand(self, rng: random.Random):
        return tuple(self.field.rrand(rng) for _ in range(self.ambient_dim))

    def to_vec(self, x) -> tuple:
        if not isinstance(x, tuple) or len(x) != self.ambient_dim:
            raise ShapeMismatch(f"expected a tuple of {self.ambient_dim} field payloads")
        return x

    def involve(self, x):
        return tuple(self._apply(self._sigma, x, self.ambient_dim))

    def split_rows(self, x):
        """A square payload matrix whose characteristic polynomial is the
        reduced one of x, and the etale parameter c of its entry ring
        F[s]/(s^2 + s + c) (None when the entries lie in F)."""
        return self._rows(self._split_flat(x)), self._split_c

    def _split_flat(self, x) -> list:
        """The payloads of split_rows(x), row by row (x and y of each etale entry)."""
        size, c = self._split_size, self._split_c
        return self._apply(self._split, x, size * size * (1 if c is None else 2))

    def _rows(self, flat) -> list:
        """The rows of a flat split_rows matrix."""
        size = self._split_size
        if self._split_c is not None:
            flat = list(zip(flat[::2], flat[1::2]))
        return [flat[r * size : (r + 1) * size] for r in range(size)]

    def reduced_charpoly(self, x) -> List[Fe]:
        return self._charpoly(*self.split_rows(x))

    def _charpoly(self, rows, c) -> List[Fe]:
        """The characteristic polynomial of a split_rows matrix."""
        field = self.field
        if isinstance(field, RatFunc):
            coeffs = _charpoly_fraction_free(field, rows, c)
        else:
            coeffs = _berkowitz(rows, c, None, field.rzero, field.rone, field.radd, field.rmul)
        return list(map(field._el, coeffs))

    def _charpolys_at(self, split, vectors) -> List[List[Fe]]:
        """The characteristic polynomials of M(v) = sum_i v_i S_i at each
        coordinate vector v, S_i = split[i] a flat split_rows matrix
        (split_rows is F-linear).  Over GF(2^k) one Berkowitz run in
        bit-sliced lanes, one lane per vector; otherwise one fraction-free
        run each."""
        field, c, width = self.field, self._split_c, len(split[0])
        table = [[(l, a) for l, a in enumerate(s) if a != field.rzero] for s in split]
        if isinstance(field, GF2k):
            n = len(vectors)
            ring = field.lanes(n)
            # coordinate i of every vector, one lane each, times the payloads of S_i
            xs = [field.to_lanes(column) for column in zip(*vectors)]
            table = [[(l, field.lane_scalar(a, n)) for l, a in terms] for terms in table]
            rows = self._rows(self._apply(table, xs, width, ring))
            lane_c = None if c is None else field.lane_scalar(c, n)
            coeffs = [field.from_lanes(v, n) for v in _berkowitz(rows, lane_c, None, *ring)]
            return [list(map(field._el, poly)) for poly in zip(*coeffs)]
        return [self._charpoly(self._rows(self._apply(table, v, width)), c) for v in vectors]

    def trd(self, x) -> Fe:
        """The reduced trace Trd(x) = Trd(x * 1), the trace of split_rows(x)."""
        return self.trd_product(x, self.one_el())

    def trd_product(self, x, y) -> Fe:
        """Trd(x*y) without forming the product: the sum of X_ik * Y_ki over
        the split_rows matrices X of x and Y of y, which lies in F."""
        (xs, c), ys = self.split_rows(x), self.split_rows(y)[0]
        field = self.field
        zero, add, mul = field.rzero, field.radd, field.rmul
        if c is not None:
            add, mul = etale_ops(c, zero, add, mul)
            zero = (zero, zero)
        acc = zero
        for i, row in enumerate(xs):
            for a, y_row in zip(row, ys):
                if a != zero and y_row[i] != zero:
                    acc = add(acc, mul(a, y_row[i]))
        return field._el(acc if c is None else _base_parts([acc], field.rzero)[0])


class _SympBase(_MatrixDescriptor):
    """4x4 matrices over a quaternion algebra, sigma adjoint to a diagonal
    hermitian form <1, u1, u2, u3>.  ``split_rows`` is the 8x8 image of the
    algebra's splitting embedding on payloads: field payloads when it lies
    over F, else (x, y) pairs over F[s]/(s^2 + s + a)."""

    case = "symplectic"

    def __init__(self, field: Field, quat: QuaternionAlgebra, us: Sequence[Fe]):
        self.quat = quat
        self.us = us = tuple(us)
        conj = functools.partial(quat_conj, field)
        tables = _matrix_tables(field, 4, quat.rmul, conj, (field.one, *us))
        sp = quat.split()
        w = 1 if sp.c is None else 2
        # the entry (r, s) maps to the 2x2 block at (2r, 2s)
        split = [
            tuple((((2 * r + i) * 8 + 2 * s + j) * w + p, m) for (i, j, p), m in sp.terms[a])
            for r, s, a in itertools.product(range(4), repeat=3)
        ]
        super().__init__(field, 4, *tables, split, 8, sp.c)


class SplitSymp(_SympBase):
    """Degree-8 split symplectic case: conj-transpose on 4x4 over [0,1)."""

    kind = "split_symp"

    def __init__(self, field: Field):
        quat = QuaternionAlgebra(field, field.zero, field.one)
        super().__init__(field, quat, (field.one,) * 3)


class Index2Symp(_SympBase):
    """Degree-8 case with A = M_4(Q), sigma adjoint to h = <1, u1, u2, u3>."""

    kind = "index2_symp"

    def __init__(self, field: Field, quat: QuaternionAlgebra, us: Sequence[Fe]):
        if quat.field is not field:
            raise UnsupportedDescriptor("quaternion algebra over a different field")
        super().__init__(field, quat, us)


class UnitaryEtale(_MatrixDescriptor):
    """4x4 matrices over Z = F[s]/(s^2+s+c) with a diagonal unitary involution."""

    kind = "unitary_etale"
    case = "unitary"

    def __init__(self, field: Field, c: Fe, gs: Sequence[Fe]):
        root = solve_artin_schreier(c)
        if isinstance(root, Fe):
            raise UnsupportedDescriptor(
                "the center parameter c must be outside the Artin-Schreier image"
            )
        self.c = c
        self.center = QuadraticExtension(field, c)
        self.gram = gs = tuple(gs)
        add = field.radd
        tables = _matrix_tables(field, 2, self.center.rmul, lambda e: (add(e[0], e[1]), e[1]), gs)
        split = [((i, field.rone),) for i in range(32)]  # the etale entries themselves
        super().__init__(field, 2, *tables, split, 4, c.raw)


class Orthogonal(_MatrixDescriptor):
    """4x4 matrices over F with rho(x) = G^-1 x^t G, G = diag(g1..g4)."""

    kind = "orthogonal"
    case = "orthogonal"

    def __init__(self, field: Field, gs: Sequence[Fe]):
        self.gram = gs = tuple(gs)
        mul = field.rmul
        tables = _matrix_tables(field, 1, lambda x, y: (mul(x[0], y[0]),), lambda e: e, gs)
        super().__init__(field, 1, *tables, [((i, field.rone),) for i in range(16)], 4)


class UnitaryExchange(_MatrixDescriptor):
    """B = E x E^op with the exchange involution: an element lists its E block
    and then its E^op block, each a 4x4 matrix over F.  The product is
    blockwise, opposite on E^op; sigma swaps the blocks, and ``split_rows``
    is the E block."""

    kind = "unitary_exchange"
    case = "unitary"

    def __init__(self, field: Field):
        one, cells = field.rone, list(itertools.product(range(4), range(4)))
        # e_rs e_st = e_rt in E, and e_rs e_qr = e_qs in E^op (offset 16)
        product = [tuple((4 * s + t, ((4 * r + t, one),)) for t in range(4)) for r, s in cells]
        op = [tuple((16 + 4 * q + r, ((16 + 4 * q + s, one),)) for q in range(4)) for r, s in cells]
        swap = [((i + 16, one),) for i in range(16)] + [((i, one),) for i in range(16)]
        super().__init__(field, 1, product + op, swap, swap[16:] + [()] * 16, 4)

    def projector(self, i: int):
        p = super().projector(i)
        return p + p


Descriptor = _MatrixDescriptor


def apply_involution(desc: Descriptor, x):
    """The involution of the descriptor applied to an algebra element."""
    return desc.involve(x)


def _symmetrized_images(desc: Descriptor) -> List[tuple]:
    """e_i + sigma(e_i) for each coordinate i, read off the sigma table."""
    field = desc.field
    images = [unit_vector(field, desc.ambient_dim, i) for i in range(desc.ambient_dim)]
    for v, terms in zip(images, desc._sigma):
        for l, c in terms:
            v[l] = field.radd(v[l], c)
    return list(map(tuple, images))


def symmetric_space(desc: Descriptor) -> InvolutionSpace:
    """Basis of Symd(sigma), the image of Id + sigma, with halves (symplectic)
    or of Sym(sigma), the kernel of x -> x + sigma(x).

    For the symplectic shapes the echelon rows of the images are images:
    e_(r,s,a) with r < s leads at its own coordinate and has its other
    entries in block (s, r), which holds no pivot; on the diagonal only
    e_(r,r,u) has a nonzero image; and the images from block (s, r) are
    combinations of those from block (r, s).  So the half of a row is its e_i.
    """
    if desc._space is not None:
        return desc._space
    field = desc.field
    images = _symmetrized_images(desc)
    symplectic = desc.case == "symplectic"
    if symplectic:
        family = [v for v in images if any(a != field.rzero for a in v)]
    else:
        family = kernel(list(zip(*images)), field)
    rows, pivots = rref(family, field)
    basis = [tuple(row) for row in rows[: len(pivots)]]
    halves = None
    if symplectic:
        try:
            halves = [tuple(unit_vector(field, len(b), images.index(b))) for b in basis]
        except ValueError:
            raise CharformError("an echelon row of Symd is not a symmetrized image") from None
    space = InvolutionSpace(desc, basis, halves)
    expected = CASE_DIMS[desc.case][0]
    if space.dim != expected:
        raise CharformError(
            f"symmetric space of {desc.kind} has dimension {space.dim}, expected {expected}"
        )
    if symplectic and space.coords(desc.one_el()) is None:
        raise UnsupportedDescriptor("1 is not a symmetrized element")
    desc._space = space
    return space


def reduced_charpoly(desc: Descriptor, x) -> List[Fe]:
    """Reduced characteristic polynomial, ascending coefficients, monic."""
    return desc.reduced_charpoly(x)


def reduced_pfaffian(desc: Descriptor, x) -> PfaffianData:
    """Monic square root of the reduced characteristic polynomial.

    Defined for symmetrized elements of the symplectic descriptors; raises
    NotPfaffian when an odd coefficient survives or an even coefficient is
    not a square (both signal x outside Symd(sigma)).
    """
    if desc.case != "symplectic":
        raise UnsupportedDescriptor("reduced Pfaffians need a symplectic descriptor")
    return _pfaffian(desc.reduced_charpoly(x), desc.field)


def _pfaffian(pc: List[Fe], field: Field) -> PfaffianData:
    """The monic square root of a degree-8 reduced characteristic polynomial."""
    assert len(pc) == 9
    coeffs = []
    for i, c in enumerate(pc):
        if i % 2:
            if c:
                raise NotPfaffian("odd characteristic coefficient is nonzero")
        else:
            r = c.sqrt()
            if r is None:
                raise NotPfaffian("even characteristic coefficient is not a square")
            coeffs.append(r)
    p0, p1, p2, p3, p4 = coeffs
    assert p4 == field.one
    return PfaffianData(tuple(coeffs), trace=p3, second=p2, linear=p1, norm=p0)


def _basis_split(desc: Descriptor) -> list:
    """The flat split_rows matrix of each basis vector of the symmetric space."""
    return [desc._split_flat(b) for b in symmetric_space(desc).basis]


def _points_form(desc: Descriptor) -> RawQuadraticForm:
    """The second coefficient q of the reduced Pfaffian (symplectic) or of the
    reduced characteristic polynomial on the symmetric space, read off its
    values at the points e_i and e_i + e_j: u_ii = q(e_i) and
    u_ij = q(e_i + e_j) + q(e_i) + q(e_j), since q is a quadratic form.

    One _charpolys_at batch runs at the points in the order `candidates`
    yields them.  In the symplectic case each charpoly is the square of the
    reduced Pfaffian, so its odd coefficients vanish and its X^4 coefficient
    is the square of q; otherwise NotPfaffian, as in _pfaffian.
    """
    field = desc.field
    n = symmetric_space(desc).dim
    polys = desc._charpolys_at(_basis_split(desc), list(candidates(field, n, None, 0, 0)))
    if desc.case == "symplectic":
        if any(any(pc[1::2]) for pc in polys):
            raise NotPfaffian("odd characteristic coefficient is nonzero")
        values = [pc[4].sqrt() for pc in polys]
        if any(q is None for q in values):
            raise NotPfaffian("even characteristic coefficient is not a square")
    else:
        values = [pc[-3] for pc in polys]  # ascending coefficients: X^(n-2) at -3
    sums = iter(values[n:])
    u = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        u[i][i] = values[i]
        for j in range(i + 1, n):
            u[i][j] = next(sums) + values[i] + values[j]
    return RawQuadraticForm(field, u)


def pfaffian_form(
    desc: Descriptor, *, validate: int = 200, seed: int = 0
) -> RawQuadraticForm:
    """The second Pfaffian coefficient as a raw quadratic form on Symd
    (built by _points_form, exact over both field kinds), cached on the
    descriptor.

    Nothing reads ``validate`` or ``seed``: the form needs no check.  They
    stay for the benchmark tracer, which passes them by name.
    """
    if desc._srp_raw is not None:
        return desc._srp_raw
    if desc.case != "symplectic":
        raise UnsupportedDescriptor("reduced Pfaffians need a symplectic descriptor")
    desc._srp_raw = _points_form(desc)
    return desc._srp_raw


def second_trace_form(desc: Descriptor) -> RawQuadraticForm:
    """Restriction of the degree-(2m-2) characteristic coefficient to Sym
    (built by _points_form); used for the degree-4 unitary and orthogonal
    descriptors.
    """
    if desc.case == "symplectic":
        raise UnsupportedDescriptor("use pfaffian_form for symplectic descriptors")
    if desc._srp_raw is None:
        desc._srp_raw = _points_form(desc)
    return desc._srp_raw


def srd_form_unitary(desc: Descriptor) -> RawQuadraticForm:
    if desc.case != "unitary":
        raise UnsupportedDescriptor("unitary descriptor required")
    return second_trace_form(desc)


def srd_form_orth(desc: Descriptor) -> RawQuadraticForm:
    if desc.case != "orthogonal":
        raise UnsupportedDescriptor("orthogonal descriptor required")
    return second_trace_form(desc)


# invertible symmetrized elements whose determinants det_orthogonal compares
_DET_WITNESSES = 3


def det_orthogonal(desc: Orthogonal, *, seed: int = 0) -> Fe:
    """Determinant class of the orthogonal involution.

    Returns Nrd(w) for an invertible symmetrized element w; independence of
    the choice is asserted on _DET_WITNESSES witnesses (their ratios are
    squares).
    """
    # a basis of {x + rho(x)}, the alternating part inside Sym(rho)
    field = desc.field
    rows, pivots = rref(_symmetrized_images(desc), field)
    basis = rows[: len(pivots)]
    found: List[Fe] = []
    for cs in candidates(field, len(basis), random.Random(seed), 500, 0):
        w = tuple(combination(field, cs, basis, desc.ambient_dim))
        det = desc.reduced_charpoly(w)[0]
        if det:
            found.append(det)
            if len(found) == _DET_WITNESSES:
                break
    if not found:
        raise NoInvertibleWitness("no invertible symmetrized element found")
    for other in found[1:]:
        if not (found[0] / other).is_square():
            raise CharformError("determinant class depends on the witness")
    return found[0]
