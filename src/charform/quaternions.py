"""Characteristic-2 quaternion algebras [a,b), on payloads.

The algebra [a,b) over F has basis 1, u, v, uv with relations u^2 + u = a,
v^2 = b (b nonzero), vu = (u+1)v.  An element is the 4-tuple of the field
payloads of its coordinates; ``quat_mul`` multiplies two of them and
``quat_conj`` is the canonical (symplectic) involution x -> trd(x) + x.  A
splitting embedding into 2x2 matrices is built over F itself in two cases:
when x^2 + x = a has a root in F, and when b/a is a square in F (then
b = a*y^2 is the norm of y*u, so [a,b) is split; Knus, Merkurjev, Rost and
Tignol, The Book of Involutions, section 2).  Over GF(2^k) every element is
a square, so every [a,b) splits over F (Wedderburn).  Only over GF(2^k)(t),
when neither case applies, the embedding goes to the quadratic extension
ring F[s]/(s^2 + s + a); the characteristic polynomial machinery only needs
ring arithmetic, so the split case of that extension is harmless.

``Quat`` is the one object class left here and no runtime path builds one:
the benchmark tracer (perfbench/tracer.py) rebinds ``Quat.__mul__`` by name,
and the object oracles of the tests (tests/oracles.py) build their
quaternions from it.
"""

from __future__ import annotations

from .decision import Decision
from .errors import AlgebraMismatch, ZeroScalar
from .fields import Fe, Field, solve_artin_schreier
from .forms import QuadraticForm, is_anisotropic, quad_pfister


class Quat:
    """Quaternion x0 + x1*u + x2*v + x3*uv with FieldElement coordinates.

    No runtime path builds one; the class stays for the benchmark tracer,
    which rebinds ``Quat.__mul__`` by name, and for the test oracles.
    """

    __slots__ = ("alg", "c")

    def __init__(self, alg: "QuaternionAlgebra", coords):
        self.alg = alg
        self.c = tuple(coords)

    def _same(self, other) -> "Quat":
        if not isinstance(other, Quat) or other.alg is not self.alg:
            raise AlgebraMismatch("quaternions from different algebras")
        return other

    def __add__(self, other):
        other = self._same(other)
        return Quat(self.alg, tuple(p + q for p, q in zip(self.c, other.c)))

    def __mul__(self, other):
        other = self._same(other)
        alg = self.alg
        return Quat(alg, map(alg.field._el, alg.rmul(self.raw, other.raw)))

    @property
    def raw(self):
        """The payload 4-tuple of the coordinates' field payloads."""
        return tuple(x.raw for x in self.c)

    def __bool__(self):
        return any(self.c)

    def __eq__(self, other):
        return isinstance(other, Quat) and other.alg is self.alg and other.c == self.c

    def __repr__(self):
        return f"Quat{self.raw}"


def quat_mul(field: Field, a, b):
    """The multiplication of [a,b) on 4-tuples of field payloads, with a and
    b the payloads of the slots."""
    add, mul = field.radd, field.rmul
    ab = mul(a, b)

    def qmul(x, y):
        x0, x1, x2, x3 = x
        y0, y1, y2, y3 = y
        c0 = add(add(mul(x0, y0), mul(a, mul(x1, y1))), mul(ab, mul(x3, y3)))
        c1 = add(add(mul(x0, y1), mul(x1, y0)), mul(x1, y1))
        c2 = add(add(mul(x0, y2), mul(x2, y0)), mul(x2, y1))
        c3 = add(add(mul(x0, y3), mul(x3, y0)), add(mul(x1, y2), mul(x1, y3)))
        c0 = add(c0, mul(b, add(mul(x2, y2), mul(x2, y3))))
        c1 = add(c1, mul(b, add(mul(x2, y3), mul(x3, y2))))
        c2 = add(c2, mul(a, add(mul(x1, y3), mul(x3, y1))))
        return (c0, c1, c2, add(c3, mul(x2, y1)))

    return qmul


def quat_conj(field: Field, x) -> tuple:
    """The canonical involution trd(x) + x = (x0 + x1, x1, x2, x3) on payloads."""
    return (field.radd(x[0], x[1]), *x[1:])


class QuaternionAlgebra:
    """The symbol algebra [a,b), with the payload product ``rmul`` (the
    structure constants of the symplectic descriptors come from rmul)."""

    def __init__(self, field: Field, a: Fe, b: Fe):
        if not b:
            raise ZeroScalar("the slot b of [a,b) must be nonzero")
        self.field = field
        self.a = a
        self.b = b
        self.rmul = quat_mul(field, a.raw, b.raw)
        self._split = None

    def split(self) -> "SplitEmbedding":
        """The cached splitting data of the algebra."""
        if self._split is None:
            self._split = SplitEmbedding(self)
        return self._split

    def __repr__(self):
        return f"QuaternionAlgebra[{self.a!r},{self.b!r})"


def nrd_form(q: QuaternionAlgebra) -> QuadraticForm:
    """The reduced norm as the 2-fold Pfister form <<b; a]]."""
    return quad_pfister([q.b], q.a)


def is_division(q: QuaternionAlgebra, *, seed: int = 0) -> Decision:
    """Division algebra test: the norm form is anisotropic."""
    return is_anisotropic(nrd_form(q), seed=seed)


class SplitEmbedding:
    """Images of the basis 1, u, v, uv in 2x2 matrices over a splitting ring,
    on payloads.

    The first case that applies is taken:

    1. x^2 + x = a has a root r in F: the ring is F, u -> diag(r, r+1),
       v -> [[0, b], [1, 0]], so uv -> [[0, r*b], [r+1, 0]];
    2. b/a = y^2 for some y in F: the ring is F, u -> [[0, a], [1, 1]],
       v -> y*[[1, 1+a], [1, 1]] (u^2 + u = a, v^2 = a*y^2 = b, vu = (u+1)v),
       so uv -> y*a*[[1, 1], [0, 1]];
    3. otherwise the ring is F[s]/(s^2 + s + a), with the matrices of case 1
       for r = s.

    Over GF(2^k) case 3 never occurs.  ``c`` is the etale parameter: the
    payload of a in case 3, None when the ring is F.  An image entry is a
    ring element with one F-coordinate p = 0 over F and two (x, y of
    x + y*s) over the etale ring.  ``terms[k]`` holds the pairs
    ((i, j, p), m) with m != 0 the payload of coordinate p of the entry
    (i, j) in the image of the k-th basis quaternion 1, u, v, uv.
    """

    def __init__(self, alg: QuaternionAlgebra):
        a, b, one = alg.a, alg.b, alg.field.one
        root = solve_artin_schreier(a)
        y = None if isinstance(root, Fe) or not a else (b / a).sqrt()
        self.c = None
        if isinstance(root, Fe):
            r1 = root + one
            u = {(0, 0, 0): root, (1, 1, 0): r1}
            v = {(0, 1, 0): b, (1, 0, 0): one}
            uv = {(0, 1, 0): root * b, (1, 0, 0): r1}
        elif y is not None:
            ya = y * a
            u = {(0, 1, 0): a, (1, 0, 0): one, (1, 1, 0): one}
            v = {(0, 0, 0): y, (0, 1, 0): y * (one + a), (1, 0, 0): y, (1, 1, 0): y}
            uv = {(0, 0, 0): ya, (0, 1, 0): ya, (1, 1, 0): ya}
        else:
            self.c = a.raw
            u = {(0, 0, 1): one, (1, 1, 0): one, (1, 1, 1): one}
            v = {(0, 1, 0): b, (1, 0, 0): one}
            uv = {(0, 1, 1): b, (1, 0, 0): one, (1, 0, 1): one}
        images = ({(0, 0, 0): one, (1, 1, 0): one}, u, v, uv)
        self.terms = tuple(tuple((k, m.raw) for k, m in im.items() if m) for im in images)
