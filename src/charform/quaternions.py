"""Characteristic-2 quaternion algebras [a,b).

The algebra [a,b) over F has basis 1, u, v, uv with relations u^2 + u = a,
v^2 = b (b nonzero), vu = (u+1)v.  Conjugation x -> trd(x) + x is the
canonical (symplectic) involution.  A splitting embedding into 2x2 matrices
is built over F itself in two cases: when x^2 + x = a has a root in F, and
when b/a is a square in F (then b = a*y^2 is the norm of y*u, so [a,b) is
split; Knus, Merkurjev, Rost and Tignol, The Book of Involutions, section 2).
Over GF(2^k) every element is a square, so every [a,b) splits over F
(Wedderburn).  Only over GF(2^k)(t), when neither case applies, the
embedding goes to the quadratic extension ring F[s]/(s^2 + s + a); the
characteristic polynomial machinery only needs ring arithmetic, so the split
case of that extension is harmless.
"""

from __future__ import annotations

import itertools
import random
from typing import Union

from .decision import Decision
from .errors import AlgebraMismatch, ZeroScalar
from .fields import (
    Fe,
    Field,
    QuadraticExtension,
    frobenius_sqrt,
    solve_artin_schreier,
)
from .forms import QuadraticForm, is_anisotropic, quad_pfister
from .linalg import Mat


class Quat:
    """Quaternion x0 + x1*u + x2*v + x3*uv."""

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

    __sub__ = __add__

    def __mul__(self, other):
        other = self._same(other)
        alg = self.alg
        return alg._el(alg.rmul(self.raw, other.raw))

    def __neg__(self):
        return self

    @property
    def raw(self):
        """The payload 4-tuple of the coordinates' field payloads."""
        return tuple(x.raw for x in self.c)

    def __bool__(self):
        return any(self.c)

    def __eq__(self, other):
        return isinstance(other, Quat) and other.alg is self.alg and other.c == self.c

    def __hash__(self):
        return hash((id(self.alg), self.c))

    def scal(self, c: Fe) -> "Quat":
        return Quat(self.alg, tuple(c * x for x in self.c))

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


class QuaternionAlgebra:
    """The symbol algebra [a,b), with the payload product ``rmul`` and
    ``_el`` on ``Quat.raw`` (the structure constants of the symplectic
    descriptors come from rmul)."""

    def __init__(self, field: Field, a: Fe, b: Fe):
        if not b:
            raise ZeroScalar("the slot b of [a,b) must be nonzero")
        self.field = field
        self.a = a
        self.b = b
        self.rmul = quat_mul(field, a.raw, b.raw)
        z, o = field.zero, field.one
        self.zero = Quat(self, (z, z, z, z))
        self.one = Quat(self, (o, z, z, z))
        self.u = Quat(self, (z, o, z, z))
        self.v = Quat(self, (z, z, o, z))
        self.w = Quat(self, (z, z, z, o))
        self._split = None

    def _el(self, raw) -> Quat:
        return Quat(self, map(self.field._el, raw))

    def el(self, x0: Fe, x1: Fe, x2: Fe, x3: Fe) -> Quat:
        return Quat(self, (x0, x1, x2, x3))

    def scalar(self, c: Fe) -> Quat:
        z = self.field.zero
        return Quat(self, (c, z, z, z))

    def rand(self, rng: random.Random) -> Quat:
        return Quat(self, tuple(self.field.rand(rng) for _ in range(4)))

    def split(self) -> "SplitEmbedding":
        if self._split is None:
            self._split = SplitEmbedding(self)
        return self._split

    def __repr__(self):
        return f"QuaternionAlgebra[{self.a!r},{self.b!r})"


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


def nrd_form(q: QuaternionAlgebra) -> QuadraticForm:
    """The reduced norm as the 2-fold Pfister form <<b; a]]."""
    return quad_pfister([q.b], q.a)


def is_division(q: QuaternionAlgebra, *, seed: int = 0) -> Decision:
    """Division algebra test: the norm form is anisotropic."""
    return is_anisotropic(nrd_form(q), seed=seed)


class SplitEmbedding:
    """Images of the generators in 2x2 matrices over a splitting ring.

    The first case that applies is taken:

    1. x^2 + x = a has a root s in F: the ring is F, u -> diag(s, s+1),
       v -> [[0, b], [1, 0]];
    2. b/a = y^2 for some y in F: the ring is F, u -> [[0, a], [1, 1]],
       v -> y*[[1, 1+a], [1, 1]] (u^2 + u = a, v^2 = a*y^2 = b, vu = (u+1)v);
    3. otherwise the ring is F[s]/(s^2 + s + a), with the matrices of case 1.

    Over GF(2^k) case 3 never occurs.  ``terms`` is the embedding on
    payloads: an image entry is a ring element with one F-coordinate p = 0
    over F and two (x, y of x + y*s) over the etale ring.  ``terms[k]``
    holds the pairs ((i, j, p), m) with m != 0 the payload of coordinate p
    of the entry (i, j) in the image of the k-th basis quaternion 1, u, v, uv.
    """

    def __init__(self, alg: QuaternionAlgebra):
        field = alg.field
        a, b = alg.a, alg.b
        root = solve_artin_schreier(a)
        y = None if isinstance(root, Fe) or not a else frobenius_sqrt(b / a)
        if isinstance(root, Fe) or y is not None:
            ring: Union[Field, QuadraticExtension] = field
            self.lift = lambda c: c
        else:
            ring = QuadraticExtension(field, a)
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
        images = (self.one_img, u_img, v_img, self.w_img)
        rzero = field.rzero
        coords = (lambda e: (e.raw,)) if ring is field else (lambda e: e.raw)
        self.terms = tuple(
            tuple(
                ((i, j, p), c)
                for i, j in itertools.product(range(2), repeat=2)
                for p, c in enumerate(coords(m.rows[i][j]))
                if c != rzero
            )
            for m in images
        )

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


def split_embedding(q: QuaternionAlgebra) -> SplitEmbedding:
    """Cached splitting data for the algebra."""
    return q.split()
