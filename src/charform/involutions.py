"""Matrix algebras with involution and their trace forms.

Degree-8 symplectic algebras are represented as 4x4 matrices over a
quaternion algebra Q, with sigma(x) = D^-1 * conj-transpose(x) * D for a
diagonal hermitian Gram D = diag(1, u1, u2, u3); the split case uses
Q = [0,1) and D = 1.  Degree-4 algebras come in three shapes: the exchange
algebra E x E^op, 4x4 matrices over a quadratic etale extension with a
twisted-transpose unitary involution, and 4x4 matrices over F with a
transpose-type orthogonal involution.

Reduced characteristic polynomials are computed through the Artin-Schreier
splitting of Q (never through a generic subfield search); the reduced
Pfaffian of a symmetrized element is read off the square root of its even
coefficients.
"""

from __future__ import annotations

import functools
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
    EtaleElement,
    Fe,
    Field,
    QuadraticExtension,
    RatFunc,
    etale_ops,
    pdivmod,
    pgcd,
    pmul,
    solve_artin_schreier,
)
from .forms import RawQuadraticForm, candidates
from .linalg import Mat, Span, charpoly, charpoly_raw, kernel, matmul_raw
from .quaternions import Quat, QuaternionAlgebra, q_conj, q_trd


class InvolutionSpace:
    """Coordinatized space of (skew-)symmetric elements.

    For symplectic descriptors each basis element b is stored together with a
    half b' satisfying b = b' + sigma(b'), which makes the polarization of
    the Pfaffian form computable without dividing by 2.
    """

    def __init__(self, desc, basis, halves, span: Span):
        self.desc = desc
        self.basis = basis
        self.halves = halves
        self._span = span
        self._basis_raw = [[e.raw for e in desc.to_vec(b)] for b in basis]
        self._halves_raw = (
            None if halves is None else [[e.raw for e in desc.to_vec(h)] for h in halves]
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, x) -> Optional[List[Fe]]:
        return self._span.coords(self.desc.to_vec(x))

    def contains(self, x) -> bool:
        return self.coords(x) is not None

    def _combine(self, coords: Sequence[Fe], raw_rows):
        field = self.desc.field
        add, mul, zero = field.radd, field.rmul, field.rzero
        acc = [zero] * self.desc.ambient_dim
        for c, row in zip(coords, raw_rows):
            cr = c.raw
            if cr == zero:
                continue
            acc = [a if r == zero else add(a, mul(cr, r)) for a, r in zip(acc, row)]
        return self.desc.from_vec([field._el(a) for a in acc])

    def element(self, coords: Sequence[Fe]):
        return self._combine(coords, self._basis_raw)

    def half(self, coords: Sequence[Fe]):
        assert self.halves is not None, "halves are stored for symplectic spaces only"
        return self._combine(coords, self._halves_raw)

    def rand_coords(self, rng: random.Random) -> List[Fe]:
        return [self.desc.field.rand(rng) for _ in range(self.dim)]


@dataclass(frozen=True)
class PfaffianData:
    """Monic reduced Pfaffian: coefficients ascending, and the named terms."""

    coeffs: Tuple[Fe, ...]
    trace: Fe  # coefficient of X^(m-1)
    second: Fe  # coefficient of X^(m-2)
    linear: Fe  # coefficient of X (the cubic-form value for m = 4)
    norm: Fe  # constant coefficient


class _MatrixDescriptor:
    """4x4 matrices over an entry ring, with sigma(x) = G^-1 conj(x)^t G.

    A subclass passes the entry ring, an F-basis ``units`` of it whose first
    member is 1, and the Gram diagonal G, and defines four entry maps:

    - ``_coords(e)``: the coordinates of the entry e over ``units``;
    - ``_entry(cs)``: the entry with the coordinates cs;
    - ``_conj(e)``: the conjugation of the entry ring that sigma applies;
    - ``_scale(c, e)``: the product of a field scalar c and the entry e.

    Coordinates of an element list its entries row by row, each expanded
    over ``units``; the standard basis is ordered the same way.  Products
    run on payloads through the entry ring's payload arithmetic (``rzero``,
    ``radd``, ``rmul``, ``_el``), which fields, quaternion algebras and
    etale rings all provide.  The exchange algebra overrides this plumbing
    with pairs of matrices over F.
    """

    n = 4

    def __init__(self, field: Field, entry_ring, units, gram: Sequence[Fe]):
        if any(not g for g in gram):
            raise ZeroScalar("Gram coefficients must be nonzero")
        self.field = field
        self.entry_ring = entry_ring
        self.units = tuple(units)
        self.gram = tuple(gram)
        self._space: Optional[InvolutionSpace] = None
        self._srp_raw: Optional[RawQuadraticForm] = None
        self._components = None
        for e in self.std_basis():
            if self.involve(self.involve(e)) != e:
                raise UnsupportedDescriptor("the induced map is not an involution")

    @property
    def ambient_dim(self) -> int:
        return self.n * self.n * len(self.units)

    # element plumbing --------------------------------------------------------

    def zero_el(self):
        return Mat.zeros(self.entry_ring, self.n)

    def one_el(self):
        return Mat.identity(self.entry_ring, self.n)

    def _mat(self, entry) -> Mat:
        """The matrix with entry(i, j) at (i, j)."""
        return Mat(self.entry_ring, [[entry(i, j) for j in range(self.n)] for i in range(self.n)])

    def _unit_mat(self, i: int, j: int, q) -> Mat:
        zero = self.entry_ring.zero
        return self._mat(lambda a, b: q if (a, b) == (i, j) else zero)

    def projector(self, i: int):
        """The diagonal matrix unit at (i, i)."""
        return self._unit_mat(i, i, self.entry_ring.one)

    def el_add(self, x, y):
        return x + y

    def el_mul(self, x: Mat, y: Mat) -> Mat:
        ring = self.entry_ring
        payloads = [[[e.raw for e in row] for row in m.rows] for m in (x, y)]
        rows = matmul_raw(*payloads, ring.rzero, ring.radd, ring.rmul)
        return Mat(ring, [[ring._el(p) for p in row] for row in rows])

    def el_scal(self, c: Fe, x):
        return x.map(lambda e: self._scale(c, e))

    def el_eq(self, x, y) -> bool:
        return x == y

    def rand(self, rng: random.Random):
        k = len(self.units)
        return self._mat(lambda i, j: self._entry([self.field.rand(rng) for _ in range(k)]))

    def std_basis(self):
        n = self.n
        return [self._unit_mat(i, j, q) for i in range(n) for j in range(n) for q in self.units]

    def to_vec(self, x: Mat) -> List[Fe]:
        if not isinstance(x, Mat) or x.ring is not self.entry_ring:
            raise ShapeMismatch(f"expected a {self.n}x{self.n} matrix over the entry ring")
        return [c for row in x.rows for e in row for c in self._coords(e)]

    def from_vec(self, v: Sequence[Fe]) -> Mat:
        k, n = len(self.units), self.n
        return self._mat(lambda i, j: self._entry(v[(i * n + j) * k : (i * n + j + 1) * k]))

    def involve(self, x: Mat) -> Mat:
        g = self.gram
        return self._mat(lambda i, j: self._scale(g[j] / g[i], self._conj(x.rows[j][i])))

    def scalar_part(self, x: Mat) -> Fe:
        return self._coords(x.rows[0][0])[0]


class _SympBase(_MatrixDescriptor):
    """4x4 matrices over a quaternion algebra, sigma adjoint to a diagonal
    hermitian form <1, u1, u2, u3>."""

    def __init__(self, field: Field, quat: QuaternionAlgebra, us: Sequence[Fe]):
        self.quat = quat
        self.us = tuple(us)
        super().__init__(field, quat, (quat.one, quat.u, quat.v, quat.w), (field.one,) + self.us)

    def _coords(self, e: Quat):
        return e.c

    def _entry(self, cs) -> Quat:
        return Quat(self.quat, cs)

    def _conj(self, e: Quat) -> Quat:
        return q_conj(e)

    def _scale(self, c: Fe, e: Quat) -> Quat:
        return e.scal(c)

    def trd(self, x: Mat) -> Fe:
        acc = self.field.zero
        for i in range(4):
            acc = acc + q_trd(x.rows[i][i])
        return acc

    def _raw_split_rows(self, x: Mat):
        """The 8x8 splitting image on raw payloads.

        With s the chosen root of X^2+X+a, a quaternion entry (c0,c1,c2,c3)
        embeds as [[c0+c1*s, (c2+c3*s)*b], [c2+c3*(s+1), c0+c1*(s+1)]].
        Entries are raw field payloads when the root lies in F, else raw
        (x, y) pairs over F[s].
        """
        field = self.field
        sp = self.quat.split()
        add, mul = field.radd, field.rmul
        b = self.quat.b.raw
        split_over_f = sp.ring is field
        if split_over_f:
            r = sp.u_img.rows[0][0].raw
            r1 = add(r, field.rone)
        rows = [[None] * 8 for _ in range(8)]
        for i in range(4):
            for j in range(4):
                c0, c1, c2, c3 = x.rows[i][j].raw
                if split_over_f:
                    e00 = add(c0, mul(c1, r))
                    e01 = mul(add(c2, mul(c3, r)), b)
                    e10 = add(c2, mul(c3, r1))
                    e11 = add(c0, mul(c1, r1))
                else:
                    e00 = (c0, c1)
                    e01 = (mul(c2, b), mul(c3, b))
                    e10 = (add(c2, c3), c3)
                    e11 = (add(c0, c1), c1)
                rows[2 * i][2 * j] = e00
                rows[2 * i][2 * j + 1] = e01
                rows[2 * i + 1][2 * j] = e10
                rows[2 * i + 1][2 * j + 1] = e11
        return rows, split_over_f

    def reduced_charpoly(self, x: Mat) -> List[Fe]:
        field = self.field
        if isinstance(field, RatFunc):
            out = self._reduced_charpoly_ratfunc(x)
            if out is not None:
                return out
        rows, split_over_f = self._raw_split_rows(x)
        if split_over_f:
            coeffs = charpoly_raw(rows, field.rzero, field.rone, field.radd, field.rmul)
            return [field._el(c) for c in coeffs]
        ring = self.quat.split().ring
        coeffs = charpoly_raw(rows, ring.rzero, ring.one.raw, ring.radd, ring.rmul)
        if any(cy != field.rzero for _, cy in coeffs):
            raise CoefficientNotRational(
                "characteristic polynomial coefficient outside the base field"
            )
        return [field._el(cx) for cx, _ in coeffs]

    def _reduced_charpoly_ratfunc(self, x: Mat) -> Optional[List[Fe]]:
        """Fraction-free path over GF(2^k)(t).

        Clears denominators once, runs Berkowitz on packed polynomials (no
        gcd in the inner loops), and rescales the coefficients at the end.
        Requires the first quaternion slot to be a polynomial; callers fall
        back to the generic path otherwise.
        """
        field = self.field
        if self.quat.a.raw[1] != 1:
            return None
        base = field.base
        rows, split_over_f = self._raw_split_rows(x)
        n = 8
        den = 1
        for row in rows:
            for e in row:
                parts = (e,) if split_over_f else e
                for num_d in parts:
                    d = num_d[1]
                    g = pgcd(den, d, base)
                    den = pmul(pdivmod(den, g, base)[0], d, base)

        def cleared(num_d):
            num, d = num_d
            return pmul(num, pdivmod(den, d, base)[0], base)

        if split_over_f:
            poly_rows = [[cleared(e) for e in row] for row in rows]
            coeffs = charpoly_raw(
                poly_rows, 0, 1, lambda p, q: p ^ q, lambda p, q: pmul(p, q, base)
            )
            pairs = [(c, 0) for c in coeffs]
        else:
            eadd, emul = etale_ops(
                self.quat.a.raw[0], operator.xor, lambda p, q: pmul(p, q, base)
            )
            poly_rows = [[(cleared(e[0]), cleared(e[1])) for e in row] for row in rows]
            pairs = charpoly_raw(poly_rows, (0, 0), (1, 0), eadd, emul)
        out = []
        for i, (cx, cy) in enumerate(pairs):
            if cy:
                raise CoefficientNotRational(
                    "characteristic polynomial coefficient outside the base field"
                )
            power = n - i
            d = 1
            for _ in range(power):
                d = pmul(d, den, base)
            out.append(Fe(field, field._norm(cx, d)))
        return out

    def trd_product(self, x: Mat, y: Mat) -> Fe:
        """Trd(x*y) without forming the full product (diagonal terms only)."""
        field, quat = self.field, self.quat
        acc = field.rzero
        for i in range(4):
            for k in range(4):
                p, q = x.rows[i][k].raw, y.rows[k][i].raw
                if p != quat.rzero and q != quat.rzero:
                    acc = field.radd(acc, quat.rmul(p, q)[1])  # trd is the u-coordinate
        return field._el(acc)

    @property
    def symd_dim(self) -> int:
        return 28


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


class UnitaryExchange(_MatrixDescriptor):
    """B = E x E^op with the exchange involution; elements are pairs."""

    kind = "unitary_exchange"

    def __init__(self, field: Field):
        super().__init__(field, field, (field.one,), (field.one,) * 4)

    # pair plumbing ------------------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        return 32

    def zero_el(self):
        z = super().zero_el()
        return (z, z)

    def one_el(self):
        o = super().one_el()
        return (o, o)

    def projector(self, i: int):
        p = super().projector(i)
        return (p, p)

    def el_add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def el_mul(self, x, y):
        mul = super().el_mul
        return (mul(x[0], y[0]), mul(y[1], x[1]))  # opposite multiplication on the right

    def el_scal(self, c: Fe, x):
        return (x[0].map(lambda e: c * e), x[1].map(lambda e: c * e))

    def rand(self, rng):
        def m():
            return Mat(
                self.field,
                [[self.field.rand(rng) for _ in range(4)] for _ in range(4)],
            )

        return (m(), m())

    def std_basis(self):
        units = super().std_basis()
        z = super().zero_el()
        return [(m, z) for m in units] + [(z, m) for m in units]

    def to_vec(self, x) -> List[Fe]:
        e, f = x
        out = [a for row in e.rows for a in row]
        out.extend(a for row in f.rows for a in row)
        return out

    def from_vec(self, v: Sequence[Fe]):
        e = Mat(self.field, [v[4 * i : 4 * i + 4] for i in range(4)])
        f = Mat(self.field, [v[16 + 4 * i : 16 + 4 * i + 4] for i in range(4)])
        return (e, f)

    def involve(self, x):
        return (x[1], x[0])

    def trd(self, x) -> Fe:
        return x[0].trace()

    def scalar_part(self, x) -> Fe:
        return x[0].rows[0][0]

    def reduced_charpoly(self, x) -> List[Fe]:
        return charpoly(x[0])


class UnitaryEtale(_MatrixDescriptor):
    """4x4 matrices over Z = F[s]/(s^2+s+c) with a diagonal unitary involution."""

    kind = "unitary_etale"

    def __init__(self, field: Field, c: Fe, gs: Sequence[Fe]):
        root = solve_artin_schreier(c)
        if isinstance(root, Fe):
            raise UnsupportedDescriptor(
                "the center parameter c must be outside the Artin-Schreier image"
            )
        self.c = c
        self.center = QuadraticExtension(field, c)
        super().__init__(field, self.center, (self.center.one, self.center.s), gs)

    def _coords(self, e: EtaleElement):
        return (e.x, e.y)

    def _entry(self, cs) -> EtaleElement:
        return self.center.el(cs[0], cs[1])

    def _conj(self, e: EtaleElement) -> EtaleElement:
        return e.conj()

    def _scale(self, c: Fe, e: EtaleElement) -> EtaleElement:
        return self.center.el(c * e.x, c * e.y)

    def trd(self, x: Mat) -> Fe:
        z = x.trace()
        if z.y:
            raise CoefficientNotRational("reduced trace is not in the base field")
        return z.x

    def reduced_charpoly(self, x: Mat) -> List[Fe]:
        out = []
        for c in charpoly(x):
            if c.y:
                raise CoefficientNotRational(
                    "characteristic polynomial coefficient outside the base field"
                )
            out.append(c.x)
        return out


class Orthogonal(_MatrixDescriptor):
    """4x4 matrices over F with rho(x) = G^-1 x^t G, G = diag(g1..g4)."""

    kind = "orthogonal"

    def __init__(self, field: Field, gs: Sequence[Fe]):
        super().__init__(field, field, (field.one,), gs)

    def _coords(self, e: Fe):
        return (e,)

    def _entry(self, cs) -> Fe:
        return cs[0]

    def _conj(self, e: Fe) -> Fe:
        return e

    def _scale(self, c: Fe, e: Fe) -> Fe:
        return c * e

    def trd(self, x: Mat) -> Fe:
        return x.trace()

    def reduced_charpoly(self, x: Mat) -> List[Fe]:
        return charpoly(x)


Descriptor = _MatrixDescriptor


def apply_involution(desc: Descriptor, x):
    """The involution of the descriptor applied to an algebra element."""
    return desc.involve(x)


def symmetric_space(desc: Descriptor) -> InvolutionSpace:
    """Basis of Symd(sigma) (symplectic, with halves) or Sym (fixed points)."""
    if desc._space is not None:
        return desc._space
    field = desc.field
    basis_el = desc.std_basis()
    images = [desc.to_vec(desc.el_add(e, desc.involve(e))) for e in basis_el]
    if isinstance(desc, _SympBase):
        span = Span(images, field)
        # a combination over the standard basis has the combination as coordinates
        halves = [desc.from_vec(combo) for combo in span.combos]
        expected = desc.symd_dim
    else:
        # the fixed points are the kernel of x -> x + sigma(x)
        span = Span(kernel([list(col) for col in zip(*images)], field), field)
        halves = None
        expected = 16 if desc.kind.startswith("unitary") else 10
    basis = [desc.from_vec(row) for row in span.rows]
    space = InvolutionSpace(desc, basis, halves, span)
    if space.dim != expected:
        raise CharformError(
            f"symmetric space of {desc.kind} has dimension {space.dim}, expected {expected}"
        )
    if isinstance(desc, _SympBase) and space.coords(desc.one_el()) is None:
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
    if not isinstance(desc, _SympBase):
        raise UnsupportedDescriptor("reduced Pfaffians need a symplectic descriptor")
    pc = desc.reduced_charpoly(x)
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
    assert p4 == desc.field.one
    return PfaffianData(tuple(coeffs), trace=p3, second=p2, linear=p1, norm=p0)


def pfaffian_form(
    desc: Descriptor, *, validate: int = 200, seed: int = 0
) -> RawQuadraticForm:
    """The second Pfaffian coefficient as a raw quadratic form on Symd.

    Diagonal entries come from the reduced Pfaffian of the basis vectors;
    off-diagonal entries from the polarization identity
    b(x, y) = tp(x) tp(y) + Trd(x y'), with tp the Pfaffian trace and y' a
    stored half of y.
    The result is cross-checked against direct Pfaffian evaluation on
    ``validate`` random vectors.
    """
    if desc._srp_raw is not None:
        return desc._srp_raw
    space = symmetric_space(desc)
    field = desc.field
    n = space.dim
    pf = [reduced_pfaffian(desc, b) for b in space.basis]
    traces = [p.trace for p in pf]
    z = field.zero
    u = [[z] * n for _ in range(n)]
    for i in range(n):
        u[i][i] = pf[i].second
    for j in range(n):
        hj = space.halves[j]
        for i in range(j):
            u[i][j] = traces[i] * traces[j] + desc.trd_product(space.basis[i], hj)
    raw = RawQuadraticForm(field, u)
    rng = random.Random(seed)
    for _ in range(validate):
        v = space.rand_coords(rng)
        direct = reduced_pfaffian(desc, space.element(v)).second
        if raw.evaluate(v) != direct:
            raise CharformError("Pfaffian form disagrees with direct evaluation")
    desc._srp_raw = raw
    return raw


def second_trace_form(desc: Descriptor) -> RawQuadraticForm:
    """Restriction of the degree-(2m-2) characteristic coefficient to Sym.

    Polarized through b(x, y) = Trd(x) Trd(y) + Trd(xy); used for the
    degree-4 unitary and orthogonal descriptors.
    """
    if isinstance(desc, _SympBase):
        raise UnsupportedDescriptor("use pfaffian_form for symplectic descriptors")
    if desc._srp_raw is not None:
        return desc._srp_raw
    space = symmetric_space(desc)
    field = desc.field
    n = space.dim
    z = field.zero
    u = [[z] * n for _ in range(n)]
    traces = [desc.trd(b) for b in space.basis]
    for i in range(n):
        u[i][i] = desc.reduced_charpoly(space.basis[i])[2]
        for j in range(i + 1, n):
            u[i][j] = traces[i] * traces[j] + desc.trd(
                desc.el_mul(space.basis[i], space.basis[j])
            )
    raw = RawQuadraticForm(field, u)
    desc._srp_raw = raw
    return raw


def srd_form_unitary(desc: Descriptor) -> RawQuadraticForm:
    if not isinstance(desc, (UnitaryExchange, UnitaryEtale)):
        raise UnsupportedDescriptor("unitary descriptor required")
    return second_trace_form(desc)


def srd_form_orth(desc: Descriptor) -> RawQuadraticForm:
    if not isinstance(desc, Orthogonal):
        raise UnsupportedDescriptor("orthogonal descriptor required")
    return second_trace_form(desc)


def symmetrized_space_orth(desc: Orthogonal) -> List[Mat]:
    """Basis of {x + rho(x)}, the alternating part inside Sym(rho)."""
    images = [desc.to_vec(desc.el_add(e, desc.involve(e))) for e in desc.std_basis()]
    return [desc.from_vec(row) for row in Span(images, desc.field).rows]


def det_orthogonal(desc: Orthogonal, *, seed: int = 0, witnesses: int = 3) -> Fe:
    """Determinant class of the orthogonal involution.

    Returns Nrd(w) for an invertible symmetrized element w; independence of
    the choice is asserted on several witnesses (their ratios are squares).
    """
    basis = symmetrized_space_orth(desc)
    found: List[Fe] = []
    for cs in candidates(desc.field, len(basis), random.Random(seed), 500, 0):
        w = functools.reduce(desc.el_add, (desc.el_scal(c, b) for c, b in zip(cs, basis) if c))
        det = charpoly(w)[0]
        if det:
            found.append(det)
            if len(found) == witnesses:
                break
    if not found:
        raise NoInvertibleWitness("no invertible symmetrized element found")
    for other in found[1:]:
        if not (found[0] / other).is_square():
            raise CharformError("determinant class depends on the witness")
    return found[0]
