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
  ``poly_eval_matrix``.
"""

import operator
from typing import Sequence

from charform.errors import AlgebraMismatch
from charform.fields import Fe, frobenius_sqrt, solve_artin_schreier
from charform.linalg import Mat, charpoly_raw
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
