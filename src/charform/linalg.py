"""Generic exact linear algebra: matrices over rings, Berkowitz characteristic
polynomials, and Gaussian elimination over fields.

Matrices are immutable tuples of tuples.  A "ring" is any object exposing
``zero`` and ``one`` whose elements support ``+`` and ``*`` (all rings here
have characteristic 2, so subtraction is addition).  Field vectors are lists
of FieldElement; elimination uses exact division.
"""

from __future__ import annotations

import operator
from typing import Callable, List, Optional, Sequence, Tuple


class Mat:
    """Immutable matrix over a ring with zero/one."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = tuple(tuple(r) for r in rows)

    @classmethod
    def identity(cls, ring, n: int) -> "Mat":
        z, o = ring.zero, ring.one
        return cls(ring, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, ring, n: int, m: Optional[int] = None) -> "Mat":
        z = ring.zero
        m = n if m is None else m
        return cls(ring, [[z] * m for _ in range(n)])

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __add__(self, other: "Mat") -> "Mat":
        return Mat(
            self.ring,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    __sub__ = __add__

    def __mul__(self, other: "Mat") -> "Mat":
        n, k = self.shape
        k2, m = other.shape
        assert k == k2, "shape mismatch"
        cols = tuple(zip(*other.rows))
        out = []
        for row in self.rows:
            new = []
            for col in cols:
                acc = self.ring.zero
                for a, b in zip(row, col):
                    acc = acc + a * b
                new.append(acc)
            out.append(new)
        return Mat(self.ring, out)

    def scal(self, c) -> "Mat":
        return Mat(self.ring, [[c * a for a in row] for row in self.rows])

    def map(self, f: Callable, ring=None) -> "Mat":
        return Mat(ring if ring is not None else self.ring, [[f(a) for a in row] for row in self.rows])

    def trace(self):
        acc = self.ring.zero
        for i, row in enumerate(self.rows):
            acc = acc + row[i]
        return acc

    def __eq__(self, other):
        return isinstance(other, Mat) and other.rows == self.rows

    def __hash__(self):
        return hash(self.rows)

    def __bool__(self):
        z = self.ring.zero
        return any(a != z for row in self.rows for a in row)

    def __repr__(self):
        return f"Mat({self.rows!r})"


def charpoly(m: Mat) -> list:
    """Coefficients of det(X*I - m), ascending degree, via Berkowitz.

    Division-free, so valid over any commutative ring (here characteristic 2,
    which also makes all the classical signs vanish).
    """
    ring = m.ring
    return charpoly_raw(m.rows, ring.zero, ring.one, operator.add, operator.mul)


def charpoly_raw(rows, zero, one, add, mul) -> list:
    """Berkowitz with explicit ring closures, ascending coefficients.

    The closures let the hot paths run on unwrapped payloads, avoiding
    element-object overhead in the inner loops.
    """
    n = len(rows)
    if n == 0:
        return [one]
    vec = [one, rows[0][0]]
    for i in range(1, n):
        row = rows[i][:i]
        col = [rows[j][i] for j in range(i)]
        block = [rows[j][:i] for j in range(i)]
        qs = [rows[i][i]]
        w = col
        for step in range(1, i + 1):
            acc = zero
            for rj, wj in zip(row, w):
                acc = add(acc, mul(rj, wj))
            qs.append(acc)
            if step < i:
                w2 = []
                for j in range(i):
                    acc = zero
                    for bj, wj in zip(block[j], w):
                        acc = add(acc, mul(bj, wj))
                    w2.append(acc)
                w = w2
        first_col = [one] + qs
        new = []
        for r in range(i + 2):
            acc = zero
            for c in range(min(r, len(vec) - 1) + 1):
                if r - c < len(first_col):
                    acc = add(acc, mul(first_col[r - c], vec[c]))
            new.append(acc)
        vec = new
    return list(reversed(vec))


# ---------------------------------------------------------------------------
# polynomials over a ring, as coefficient lists (ascending degree)
# ---------------------------------------------------------------------------


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
# Gaussian elimination over fields (vectors of FieldElement)
# ---------------------------------------------------------------------------


def rref(rows: List[list], field) -> Tuple[List[list], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [a * inv for a in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a + f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(rows: List[list], field) -> int:
    return len(rref(rows, field)[1])


def kernel(rows: List[list], field) -> List[list]:
    """Basis of the right kernel {x : A x = 0} of the matrix with these rows."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows, field)
    red = red[: len(pivots)]
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for row, p in zip(red, pivots):
            v[p] = row[f]  # -row[f] in characteristic 2
        basis.append(v)
    return basis


class Span:
    """Row space of a family of vectors, with expression of members.

    Tracks how each echelon row was assembled from the input vectors, so a
    member's coordinates over the original family can be recovered (used to
    carry symmetrization halves along a basis).
    """

    def __init__(self, vectors: Sequence[Sequence], field):
        self.field = field
        self.vectors = [list(v) for v in vectors]
        self.ncols = len(self.vectors[0]) if self.vectors else 0
        n = len(self.vectors)
        aug = [list(v) + unit_vector(field, n, i) for i, v in enumerate(self.vectors)]
        red, pivots = rref(aug, field)
        self.rows = []
        self.combos = []
        self.pivots = []
        for row, p in zip(red, pivots):
            if p >= self.ncols:
                break
            self.rows.append(row[: self.ncols])
            self.combos.append(row[self.ncols :])
            self.pivots.append(p)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Sequence) -> Tuple[list, list]:
        """Return (residual, coefficients over the echelon rows)."""
        v = list(v)
        coeffs = [self.field.zero] * self.dim
        for i, p in enumerate(self.pivots):
            if v[p]:
                c = v[p]
                coeffs[i] = c
                v = [a + c * b for a, b in zip(v, self.rows[i])]
        return v, coeffs

    def contains(self, v: Sequence) -> bool:
        residual, _ = self.reduce(v)
        return not any(residual)

    def coords(self, v: Sequence) -> Optional[list]:
        """Coefficients over the echelon basis, or None if not a member."""
        residual, coeffs = self.reduce(v)
        if any(residual):
            return None
        return coeffs

    def input_coords(self, v: Sequence) -> Optional[list]:
        """Coefficients over the original input family, or None."""
        coeffs = self.coords(v)
        if coeffs is None:
            return None
        n = len(self.vectors)
        out = [self.field.zero] * n
        for c, combo in zip(coeffs, self.combos):
            if c:
                out = [a + c * b for a, b in zip(out, combo)]
        return out

    def basis_vector(self, i: int) -> list:
        return list(self.rows[i])


def unit_vector(field, n: int, i: int) -> list:
    """The i-th standard basis vector of F^n."""
    row = [field.zero] * n
    row[i] = field.one
    return row
