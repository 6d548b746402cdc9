"""Matrix algebras with involution and their trace forms.

Degree-8 symplectic algebras are represented as 4x4 matrices over a
quaternion algebra Q, with sigma(x) = D^-1 * conj-transpose(x) * D for a
diagonal hermitian Gram D = diag(1, u1, u2, u3); the split case uses
Q = [0,1) and D = 1.  Degree-4 algebras come in three shapes: the exchange
algebra E x E^op, 4x4 matrices over a quadratic etale extension with a
twisted-transpose unitary involution, and 4x4 matrices over F with a
transpose-type orthogonal involution.

Every descriptor is three sparse tables over its payload coordinates: the
products of its entry ring's unit payloads, sigma, and the split table, the
terms of each e_i in a square matrix with the reduced characteristic
polynomial, over the etale ring F[s]/(s^2 + s + c) when the descriptor has a
parameter c: the 8x8 splitting image of Q for the symplectic shapes (over
the etale ring with c = a only when Q does not split over F), the entries
themselves (the E block of the exchange algebra) for the others.  Products
walk one skeleton per entry size, and sigma is one sparse linear map.  One
builder, ``_cleared``, turns elements into split matrices: integral ones,
sparse numerators over one denominator D, with a centre c = p/q made
integral as r = q*s.  Three readers share it: ``reduced_charpoly``, one
scalar Berkowitz run on numerators for both field kinds; ``trd_product``
(and ``trd``); and the lane driver ``_charpolys_at_points`` for batches:
bit-sliced GF(2^k) lanes, and over GF(2^k)(t) evaluation at the points of
some GF(2^m) and interpolation, in lanes too.  The reduced Pfaffian of a
symmetrized element is the square root of its even coefficients, and both
trace forms are read off the reduced characteristic polynomials at the
points e_i and e_i + e_j of the symmetric space, one batch per form, which
also gives the Pfaffian trace at the e_i.
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
    etale_ops,
    gf2k,
    pdeg,
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

    For symplectic descriptors each basis element b is stored together with
    the coordinate i of its half b' = e_i, b = b' + sigma(b'), so the
    polarization b(x, y) = t(x) t(y) + Trd(x y') of the Pfaffian form needs
    no division by 2 (verify checks it).  Coordinates over the basis are
    lists of field payloads.
    """

    def __init__(self, desc, basis, halves):
        self.desc, self.basis, self.halves = desc, basis, halves
        self._span = Span(basis, desc.field)  # the basis is its echelon form, row by row

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, x) -> Optional[list]:
        return self._span.coords(self.desc.to_vec(x))

    def element(self, coords: Sequence):
        return tuple(self.desc._apply(self._span.terms, coords, list(self.desc.zero_el())))

    def half(self, coords: Sequence):
        if self.halves is None:
            raise UnsupportedDescriptor("halves are stored for symplectic spaces only")
        out = [self.desc.field.rzero] * self.desc.ambient_dim
        for i, c in zip(self.halves, coords):
            out[i] = c
        return tuple(out)

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


# the widest lane run of the Berkowitz driver: more evaluation points run in
# more chunks, so a descriptor of high degree costs time, not memory
_MAX_LANES = 1 << 14


def _power(mul, x, n: int):
    acc = 1
    for _ in range(n):
        acc = mul(acc, x)
    return acc


def _bits(a: int):
    """The positions of the set bits of a, lowest first."""
    while a:
        low = a & -a
        yield low.bit_length() - 1
        a ^= low


def _xor(values) -> int:
    return functools.reduce(operator.xor, values, 0)


def _weight(entries, k: int) -> int:
    """The largest degree of a polynomial in lanes among the entries, or -1."""
    return max((p for planes in entries for p, a in planes.items() if a), default=-k) // k


def _evaluator(base: GF2k, target: GF2k, zs, lanes: int):
    """The value of a polynomial in lanes over GF(2^k) at the points zs of
    GF(2^m), one block of the given number of lanes per point: plane P
    contributes X^(P mod k) z^(P div k) in block z, a pattern of bit planes
    applied with one product (a copy of the plane in each block) and an and
    per plane."""
    k, m, mul = base.k, target.k, target.rmul
    images = _embedding(base, target)[0]
    block, rep = (1 << lanes) - 1, sum(1 << i * lanes for i in range(len(zs)))
    patterns = {}

    def evaluate(planes) -> tuple:
        acc = [0] * m
        for p, a in planes.items():
            if p not in patterns:
                g = [mul(images[p % k], _power(mul, z, p // k)) for z in zs]
                bits = ((q, sum(block << i * lanes for i, v in enumerate(g) if v >> q & 1))
                        for q in range(m))
                patterns[p] = [(q, pattern) for q, pattern in bits if pattern]
            a *= rep
            for q, pattern in patterns[p]:
                acc[q] ^= a & pattern
        return tuple(acc)

    return evaluate


def _interpolate(base: GF2k, target: GF2k, values, n: int) -> list:
    """The packed numerators at the first n lanes of the polynomials over
    GF(2^k) whose values at z = 0, 1, ... of GF(2^m) are the lane values
    values[z] (lists of bit planes): the inverse Vandermonde matrix applied to
    the planes, each coefficient read back in GF(2^k), which it must lie in."""
    flat = [plane for value in values for plane in value]
    if not any(flat):
        return [0] * n
    images, readback = _embedding(base, target)
    planes = []  # plane e*k + b: bit b of the coefficient of t^e
    for row in _interpolation(target, len(values)):
        coef = [_xor(map(flat.__getitem__, terms)) for terms in row]
        if target is not base:
            back = [_xor(map(coef.__getitem__, terms)) for terms in readback]
            if coef != [_xor(b for b, im in zip(back, images) if im >> q & 1) for q in range(target.k)]:
                raise CharformError("an interpolated coefficient lies outside GF(2^k)")
            coef = back
        planes += coef
    return base.from_lanes(planes, n)


@functools.cache
def _embedding(base: GF2k, target: GF2k) -> Tuple[tuple, tuple]:
    """GF(2^k) inside GF(2^m), k | m: the images of the payload bits X^b of
    base, the powers of the least root of its modulus in target, and for each
    b the bits of target whose xor is bit b of the preimage of an image."""
    k = base.k
    if target is base:
        return tuple(1 << b for b in range(k)), tuple((b,) for b in range(k))

    def modulus_at(r):
        acc = 0
        for i in range(k, -1, -1):
            acc = target.rmul(acc, r) ^ (base.modulus >> i & 1)
        return acc

    root = next(r for r in range(target.order) if not modulus_at(r))
    images = tuple(_power(target.rmul, root, b) for b in range(k))
    # reduced echelon rows (pivot bit, row, the bits b whose images sum to it)
    rows = []
    for b, v in enumerate(images):
        combo = 1 << b
        for pivot, w, cw in rows:
            if v >> pivot & 1:
                v, combo = v ^ w, combo ^ cw
        pivot = v.bit_length() - 1
        rows = [(p, w ^ v, cw ^ combo) if w >> pivot & 1 else (p, w, cw) for p, w, cw in rows]
        rows.append((pivot, v, combo))
    return images, tuple(tuple(p for p, _, cw in rows if cw >> b & 1) for b in range(k))


@functools.cache
def _interpolation(target: GF2k, n: int) -> tuple:
    """The inverse Vandermonde matrix of the points z = 0..n-1 of target as
    xors of lane planes: entry [e][p] lists the indices z*m + q of the planes
    q of the values at the z whose xor is plane p of the coefficient of t^e."""
    mul, m = target.rmul, target.k
    master = [1]  # prod_z (t + z), ascending
    for z in range(n):
        master = [a ^ mul(b, z) for a, b in zip([0] + master, master + [0])]
    rows = [[[] for _ in range(m)] for _ in range(n)]
    for z in range(n):
        # the Lagrange basis polynomial of z: master / (t + z), over its value at z
        quot, acc = [0] * n, 0
        for i in range(n, 0, -1):
            acc = master[i] ^ mul(acc, z)
            quot[i - 1] = acc
        scale = target.rinv(functools.reduce(lambda s, a: mul(s, z) ^ a, reversed(quot), 0))
        for e, a in enumerate(quot):
            v = mul(a, scale)
            for q in range(m):
                prod = mul(v, 1 << q)
                for p in range(m):
                    if prod >> p & 1:
                        rows[e][p].append(z * m + q)
    return tuple(tuple(map(tuple, row)) for row in rows)


@functools.cache
def _skeleton(k: int) -> tuple:
    """The structure constants of 4x4 matrices over any entry ring of k
    payloads, less the ring: for the coordinate i = (r, s, a), a and the
    triples (j, (4r + t)k, b) with e_i e_j = e_(r,t) q_a q_b, j = (s, t, b)."""
    return tuple(
        (a, tuple(((4 * s + t) * k + b, (4 * r + t) * k, b) for t in range(4) for b in range(k)))
        for r, s, a in itertools.product(range(4), range(4), range(k))
    )


def _matrix_tables(field: Field, k: int, entry_mul, conj, gram: Sequence[Fe]):
    """The unit products and the sigma table of 4x4 matrices over an entry
    ring whose product and conjugation act on k-tuples of payloads, for
    sigma(x) = G^-1 conj(x)^t G with the Gram diagonal G.  ``units[a][b]``
    lists the (l, c) with q_a q_b = sum c q_l over the unit payloads q_a."""
    if any(not g for g in gram):
        raise ZeroScalar("Gram coefficients must be nonzero")
    zero, one, mul = field.rzero, field.rone, field.rmul
    units = [(zero,) * a + (one,) + (zero,) * (k - a - 1) for a in range(k)]
    mults = [[entry_mul(u, v) for v in units] for u in units]
    products = [[[(l, c) for l, c in enumerate(m) if c != zero] for m in row] for row in mults]
    rat = [[(gr / gs).raw for gs in gram] for gr in gram]
    # sigma(e_rs q) = (g_r / g_s) e_sr conj(q)
    sigma = [
        tuple(((4 * s + r) * k + l, mul(rat[r][s], c)) for l, c in enumerate(conj(u)) if c != zero)
        for r, s, u in itertools.product(range(4), range(4), units)
    ]
    return products, sigma


class _MatrixDescriptor:
    """An algebra with involution as three sparse tables over the payload
    coordinates of its elements, built once by the subclass.

    An element is a flat tuple of field payloads: for 4x4 matrices over an
    entry ring, the entries row by row, each as its ``k`` payloads.  The
    product walks ``_skeleton(k)`` with the unit products ``_units``;
    ``_sigma[i]`` lists the terms (l, c) of sigma(e_i), and
    ``_split_nums[i]`` those of e_i in the flat split_size x split_size
    split matrix (x and y of each entry over the etale ring), as numerators
    over one denominator ``_split_den``.  ``_centre`` is the etale
    parameter c = p/q made integral: (p*q, q) for the generator r = q*s,
    with r^2 = q*r + p*q, and (c, None) for q = 1 (e = 1).
    """

    n = 4
    case: str  # the involution type, a key of CASE_DIMS

    def __init__(self, field: Field, k: int, units, sigma, split, split_size: int, split_c=None):
        self.field, self.k, self.ambient_dim = field, k, len(sigma)
        self._skeleton, self._sigma = _skeleton(k), sigma
        # the unit products as numerators over one denominator _du
        nums, self._du = field.rclear([c for row in units for terms in row for _, c in terms])
        nums = iter(nums)
        self._units = [[[(l, next(nums)) for l, _ in terms] for terms in row] for row in units]
        self._split_size, self._split_c = split_size, split_c
        self._split_width = split_size * split_size * (1 if split_c is None else 2)
        # the split table as numerators over one denominator _split_den
        nums, self._split_den = field.rclear([c for terms in split for _, c in terms])
        nums = iter(nums)
        self._split_nums = [[(l, next(nums)) for l, _ in terms] for terms in split]
        self._centre = (None, None)
        if split_c is not None:
            (p,), q = field.rclear([split_c])
            self._centre = (p, None) if q == 1 else (field.nmul(p, q), q)
        self._one = None
        self._space: Optional[InvolutionSpace] = None
        self._srp_raw: Optional[RawQuadraticForm] = None
        self._trp_raw: Optional[list] = None  # Trp at the Symd basis, cached with _srp_raw
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
        if self._one is None:
            self._one = functools.reduce(self.el_add, map(self.projector, range(self.n)))
        return self._one

    def projector(self, i: int):
        """The diagonal matrix unit at (i, i)."""
        n, k = self.n, self.k
        v = [self.field.rzero] * (n * n * k)
        v[(i * n + i) * k] = self.field.rone
        return tuple(v)

    def el_add(self, x, y):
        return tuple(map(self.field.radd, x, y))

    def el_mul(self, x, y):
        """The product on cleared numerators: ring products summed by xor over
        the skeleton, then each coordinate over Dx*Dy*Du normalised once."""
        field = self.field
        mul = field.nmul
        (xs, dx), (ys, dy) = field.rclear(x), field.rclear(y)
        units = self._units
        acc = [0] * len(x)
        for xi, (a, row) in zip(xs, self._skeleton):
            if xi:
                products = units[a]
                for j, out, b in row:
                    yj = ys[j]
                    if yj:
                        p = mul(xi, yj)
                        for l, c in products[b]:
                            acc[out + l] ^= p if c == 1 else mul(c, p)
        return field.rfractions(acc, mul(mul(dx, dy), self._du))

    def _apply(self, table, x, acc: list) -> list:
        """acc plus the linear map e_i -> table[i] (sparse terms) on x, in place."""
        field = self.field
        zero, one, add, mul = field.rzero, field.rone, field.radd, field.rmul
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
        return tuple(self._apply(self._sigma, x, list(self.zero_el())))

    def symmetrized(self, x):
        """x + sigma(x) in one pass over the sigma table.  sigma reverses
        products, so xy + yx = symmetrized(x*y) for symmetric x and y."""
        return tuple(self._apply(self._sigma, x, list(x)))

    def _cleared(self, elements) -> tuple:
        """The split matrices of the elements as one sparse dict {entry:
        packed numerator} each (x and y of each etale entry, zeros allowed),
        over one denominator D, and D.

        The batch is cleared once through ``rclear`` and the split table,
        which is linear, maps each element's numerators.  Over a centre
        c = p/q the entries become x + y*s = (q*x + y*r)/q in the integral
        generator r = q*s: the x parts times q, and D times q."""
        field, dim = self.field, self.ambient_dim
        mul, q = field.nmul, self._centre[1]
        nums, den = field.rclear([a for x in elements for a in x])
        out = []
        for start in range(0, len(nums), dim):
            acc = {}
            for a, terms in zip(nums[start : start + dim], self._split_nums):
                if a:
                    for l, s in terms:
                        acc[l] = acc.get(l, 0) ^ (a if s == 1 else mul(s, a))
            if q is not None:
                for l in acc:
                    if not l & 1:
                        acc[l] = mul(q, acc[l])
            out.append(acc)
        den = mul(den, self._split_den)
        return out, den if q is None else mul(den, q)

    def _rows(self, flat) -> list:
        """The rows of a flat split matrix (payloads, or pairs over the etale ring)."""
        size = self._split_size
        if self._split_c is not None:
            flat = list(zip(flat[::2], flat[1::2]))
        return [flat[r * size : (r + 1) * size] for r in range(size)]

    def reduced_charpoly(self, x) -> List[Fe]:
        """One scalar Berkowitz run on the numerators of the split matrix
        over D, coefficient i of the result over D^(n-i): a batch of one
        through _charpolys_at_points costs more (its lane products do not
        shrink with the lanes)."""
        field, mul = self.field, self.field.nmul
        (entries,), den = self._cleared([x])
        rows = self._rows([entries.get(l, 0) for l in range(self._split_width)])
        coeffs = _berkowitz(rows, *self._centre, 0, 1, operator.xor, mul)
        power = 1
        for i in range(len(coeffs) - 1, -1, -1):
            coeffs[i] = field._el(field.rfractions((coeffs[i],), power)[0])
            power = mul(power, den)
        return coeffs

    def reduced_charpolys(self, xs, masks=None) -> List[List[Fe]]:
        """The reduced characteristic polynomials at the lanes of one driver
        run: lane l holds the sum of the xs[i] whose masks[i] has bit l set,
        by default xs[i] alone in lane i."""
        if masks is None:
            masks = [1 << i for i in range(len(xs))]
        size, el = self._split_size, self.field._el
        lanes = functools.reduce(operator.or_, masks).bit_length()
        values = self._charpolys_at_points(xs, masks, dict.fromkeys(range(size + 1), lanes))
        return [[el(values[d][l]) for d in range(size + 1)] for l in range(lanes)]

    def _charpolys_at_points(self, elements, masks, wanted) -> dict:
        """The payloads of coefficient d of the reduced characteristic
        polynomials at the first m lanes, for each d: m in wanted, where lane l
        holds the sum of the elements[i] whose masks[i] has bit l set.

        One Berkowitz driver for both field kinds.  With the entries of the
        split matrices, cleared by ``_cleared``, as polynomials in lanes over
        one denominator D (``_lane_matrix``), W their weight and j the
        largest degree wanted, each entry is evaluated at the N = jW + 1
        points z = 0, 1, ... of GF(2^m), m the least multiple of k with
        2^m >= N, and one Berkowitz runs in bit-sliced GF(2^m) lanes per
        chunk of at most _MAX_LANES lanes, one block of lanes per z.  The
        coefficient of X^(size - j) is a polynomial of degree at most jW over
        D^j, so its first jW + 1 values give it by interpolation
        (``_interpolate``).  Over GF(2^k) all weights are 0: one block, m = k
        and nothing to interpolate."""
        field, size = self.field, self._split_size
        base = getattr(field, "base", field)
        lanes = functools.reduce(operator.or_, masks).bit_length()
        entries, den, c, e, weight = self._lane_matrix(elements, masks)
        n_points = (size - min(wanted)) * weight + 1
        m = base.k
        while 1 << m < n_points:
            m += base.k
        if m > 16:
            raise CharformError(f"no field GF(2^m), m <= 16, holds {n_points} evaluation points")
        target = base if m == base.k else gf2k(m)
        counts = {d: (size - d) * weight + 1 for d in wanted}
        values = {d: [] for d in wanted}  # per z, the planes of coefficient d
        per = -(-n_points // -(-n_points * lanes // _MAX_LANES))
        for z0 in range(0, n_points, per):
            zs = range(z0, min(z0 + per, n_points))
            evaluate = _evaluator(base, target, zs, lanes)
            block = (1 << lanes) - 1

            def scalar(poly):
                return None if poly is None else evaluate(dict.fromkeys(_bits(poly), block))

            rows = self._rows(list(map(evaluate, entries)))
            coeffs = _berkowitz(rows, scalar(c), scalar(e), *target.lanes(len(zs) * lanes))
            for d, out in values.items():
                blocks = range(min(len(zs), counts[d] - z0))
                out += [[plane >> i * lanes & block for plane in coeffs[d]] for i in blocks]
        result = {}
        for d, m_d in wanted.items():
            nums = _interpolate(base, target, values[d], m_d)
            result[d] = list(field.rfractions(nums, _power(field.nmul, den, size - d)))
        return result

    def _lane_matrix(self, elements, masks) -> tuple:
        """The split matrix entries at the lanes as polynomials in lanes
        (dicts {P: plane}, bit l of plane P the bit P of the packed numerator
        at lane l), over one denominator D; the etale parameters c and e of
        the lane ring s^2 = e*s + c as packed polynomials (None for no etale
        ring, and for e = 1); and the weight W of the entries.

        ``_cleared`` gives each element's entries, packed into the lanes of
        its mask.  Over a centre c = p/q, r = q*s has a weight w with
        deg q <= w and deg pq <= 2w, an entry x + y*r the weight
        max(deg x, deg y + w), and a product of j entries at most j times the
        largest, so the x part of the coefficient of X^(size - j), and the y
        part that ``_berkowitz`` checks to vanish, have degree at most jW."""
        k = getattr(self.field, "base", self.field).k
        cleared, den = self._cleared(elements)
        entries = [{} for _ in range(self._split_width)]
        for acc, mask in zip(cleared, masks):
            for l, a in acc.items():
                planes = entries[l]
                while a:  # the set bits inline: a _bits generator per entry is 1.7x slower here
                    low = a & -a
                    p = low.bit_length() - 1
                    planes[p] = planes.get(p, 0) ^ mask
                    a ^= low
        c, e = self._centre
        if c is None:
            return entries, den, None, None, max(_weight(entries, k), 0)
        w = max(pdeg(e, k) if e else 0, (pdeg(c, k) + 1) // 2)
        return entries, den, c, e, max(_weight(entries[1::2], k) + w, _weight(entries[::2], k), 0)

    def trd(self, x) -> Fe:
        """The reduced trace Trd(x) = Trd(x * 1), the trace of its split matrix."""
        return self.trd_product(x, self.one_el())

    def trd_product(self, x, y) -> Fe:
        """Trd(x*y) without forming the product: the sum of X_ik * Y_ki over
        the numerators of the split matrices X of x and Y of y over D, which
        lies in F, over D^2."""
        field, (c, e), size = self.field, self._centre, self._split_size
        (xs, ys), den = self._cleared([x, y])
        zero, add, mul = 0, operator.xor, field.nmul
        if c is not None:  # the entries as pairs (x, y) by position
            xs, ys = (
                {m: (acc.get(2 * m, 0), acc.get(2 * m + 1, 0)) for m in {l >> 1 for l in acc}}
                for acc in (xs, ys)
            )
            add, mul = etale_ops(c, zero, add, mul, e)
            zero = (0, 0)
        total = zero
        for m, a in xs.items():
            i, k = divmod(m, size)
            b = ys.get(k * size + i, zero)
            if a != zero and b != zero:
                total = add(total, mul(a, b))
        if c is not None:
            total = _base_parts([total], 0)[0]
        return field._el(field.rfractions((total,), field.nmul(den, den))[0])


class _SympBase(_MatrixDescriptor):
    """4x4 matrices over a quaternion algebra, sigma adjoint to a diagonal
    hermitian form <1, u1, u2, u3>.  The split matrix is the 8x8 image of
    the algebra's splitting embedding on payloads: field payloads when it
    lies over F, else (x, y) pairs over F[s]/(s^2 + s + a)."""

    case = "symplectic"

    def __init__(self, field: Field, quat: QuaternionAlgebra, us: Sequence[Fe]):
        self.quat, self.us = quat, tuple(us)
        conj = functools.partial(quat_conj, field)
        tables = _matrix_tables(field, 4, quat.rmul, conj, (field.one, *self.us))
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
        if isinstance(solve_artin_schreier(c), Fe):
            raise UnsupportedDescriptor(
                "the center parameter c must be outside the Artin-Schreier image"
            )
        self.c, self.center = c, QuadraticExtension(field, c)
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
        tables = _matrix_tables(field, 1, lambda x, y: (field.rmul(x[0], y[0]),), lambda e: e, gs)
        super().__init__(field, 1, *tables, [((i, field.rone),) for i in range(16)], 4)


class UnitaryExchange(_MatrixDescriptor):
    """B = E x E^op with the exchange involution: an element lists its E block
    and then its E^op block, each a 4x4 matrix over F.  The product is
    blockwise, opposite on E^op; sigma swaps the blocks, and the split matrix
    is the E block."""

    kind = "unitary_exchange"
    case = "unitary"

    def __init__(self, field: Field):
        one = field.rone
        swap = [((i + 16, one),) for i in range(16)] + [((i, one),) for i in range(16)]
        super().__init__(field, 1, ((((0, one),),),), swap, swap[16:] + [()] * 16, 4)

    def el_mul(self, x, y):
        return super().el_mul(x[:16], y[:16]) + super().el_mul(y[16:], x[16:])

    def projector(self, i: int):
        p = super().projector(i)
        return p + p


Descriptor = _MatrixDescriptor


def _symmetrized_images(desc: Descriptor) -> List[tuple]:
    """e_i + sigma(e_i) for each coordinate i, read off the sigma table."""
    one, n = [desc.field.rone], desc.ambient_dim
    images = (unit_vector(desc.field, n, i) for i in range(n))
    return [tuple(desc._apply([terms], one, v)) for terms, v in zip(desc._sigma, images)]


def symmetric_space(desc: Descriptor) -> InvolutionSpace:
    """Basis of Symd(sigma), the image of Id + sigma, with halves (symplectic)
    or of Sym(sigma), the kernel of x -> x + sigma(x).

    For the symplectic shapes the echelon rows of the images are images:
    e_(r,s,a) with r < s leads at its own coordinate and has its other
    entries in block (s, r), which holds no pivot; on the diagonal only
    e_(r,r,u) has a nonzero image; and the images from block (s, r) are
    combinations of those from block (r, s).  So a row's half is e_i, stored as i.
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
            halves = [images.index(b) for b in basis]
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


def reduced_charpolys(desc: Descriptor, xs, masks=None) -> List[List[Fe]]:
    """The reduced characteristic polynomials of a batch in one Berkowitz
    run, lane by lane: xs[i] alone in lane i, or with masks, the sum of the
    xs[i] whose masks[i] has bit l set in lane l."""
    return desc.reduced_charpolys(xs, masks)


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
    if len(pc) != 9:
        raise ShapeMismatch("a reduced characteristic polynomial of degree 8 has 9 coefficients")
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
    if p4 != field.one:
        raise NotPfaffian("square root of the characteristic polynomial is not monic")
    return PfaffianData(tuple(coeffs), trace=p3, second=p2, linear=p1, norm=p0)


def _point_masks(n: int) -> List[int]:
    """Bit l of masks[i] is coordinate i (0 or 1) of point l, the points being
    the e_i, then the e_i + e_j (i < j), in the order `candidates` yields them."""
    masks = [1 << i for i in range(n)]
    for lane, (i, j) in enumerate(itertools.combinations(range(n), 2), n):
        masks[i] |= 1 << lane
        masks[j] |= 1 << lane
    return masks


def _points_form(desc: Descriptor) -> Tuple[RawQuadraticForm, Optional[list]]:
    """The second coefficient q of the reduced Pfaffian (symplectic) or of the
    reduced characteristic polynomial on the symmetric space, read off its
    values at the points e_i and e_i + e_j: u_ii = q(e_i) and
    u_ij = q(e_i + e_j) + q(e_i) + q(e_j), since q is a quadratic form.

    On Symd each charpoly is the square of the reduced Pfaffian: its odd
    coefficients vanish, and its X^4 and X^6 coefficients are the squares of
    q and of the linear Pfaffian trace Trp, whose payloads at the e_i come
    back too; otherwise NotPfaffian, as in _pfaffian."""
    field, basis = desc.field, symmetric_space(desc).basis
    n = len(basis)
    degree, symplectic = desc._split_size, desc.case == "symplectic"
    second = degree - 4 if symplectic else degree - 2  # ascending coefficients
    points = n * (n + 1) // 2
    odd = range(1, degree, 2) if symplectic else ()
    wanted = {second: points, **dict.fromkeys(odd, points)}
    if symplectic:
        wanted[degree - 2] = n
    coeffs = desc._charpolys_at_points(basis, _point_masks(n), wanted)
    values, trp = coeffs[second], None
    if symplectic:
        if any(a != field.rzero for d in odd for a in coeffs[d]):
            raise NotPfaffian("odd characteristic coefficient is nonzero")
        values, trp = [list(map(field.rsqrt, coeffs[d])) for d in (second, degree - 2)]
        if None in values or None in trp:
            raise NotPfaffian("even characteristic coefficient is not a square")
    add, sums = field.radd, iter(values[n:])
    u = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        u[i][i] = field._el(values[i])
        for j in range(i + 1, n):
            u[i][j] = field._el(add(add(next(sums), values[i]), values[j]))
    return RawQuadraticForm(field, u), trp


def pfaffian_form(
    desc: Descriptor, *, validate: int = 200, seed: int = 0
) -> RawQuadraticForm:
    """The second Pfaffian coefficient as a raw quadratic form on Symd
    (built by _points_form, exact over both field kinds), cached on the
    descriptor with the payloads of the Pfaffian trace at the basis of Symd.

    Nothing reads ``validate`` or ``seed``: the form needs no check.  They
    stay for the benchmark tracer, which passes them by name.
    """
    if desc._srp_raw is not None:
        return desc._srp_raw
    if desc.case != "symplectic":
        raise UnsupportedDescriptor("reduced Pfaffians need a symplectic descriptor")
    desc._srp_raw, desc._trp_raw = _points_form(desc)
    return desc._srp_raw


def second_trace_form(desc: Descriptor) -> RawQuadraticForm:
    """Restriction of the degree-(2m-2) characteristic coefficient to Sym
    (built by _points_form); used for the degree-4 unitary and orthogonal
    descriptors.
    """
    if desc.case == "symplectic":
        raise UnsupportedDescriptor("use pfaffian_form for symplectic descriptors")
    if desc._srp_raw is None:
        desc._srp_raw = _points_form(desc)[0]
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
