"""Exact linear algebra on payloads: the Berkowitz characteristic
polynomial over a ring given by closures, and Gaussian elimination over
fields.

Field vectors, and the rows of a matrix passed to elimination, are lists of
field payloads (the ``raw`` of a FieldElement); elimination uses exact
division.  ``Mat``, an immutable matrix of element objects, is not used by
the runtime: the benchmark tracer (perfbench/tracer.py) rebinds
``Mat.__mul__`` by name, and the object oracles of the tests
(tests/oracles.py) build their matrices from it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .errors import ShapeMismatch


class Mat:
    """Immutable matrix over a ring with zero/one whose elements support +
    and * (all rings here have characteristic 2, so subtraction is
    addition).  No runtime path builds one; it stays for the benchmark
    tracer and the test oracles."""

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

    def __mul__(self, other: "Mat") -> "Mat":
        if self.shape[1] != other.shape[0]:
            raise ShapeMismatch("shape mismatch")
        add, mul = (lambda s, t: s + t), (lambda s, t: s * t)
        return Mat(self.ring, matmul_raw(self.rows, other.rows, self.ring.zero, add, mul))

    def scal(self, c) -> "Mat":
        return Mat(self.ring, [[c * a for a in row] for row in self.rows])

    def trace(self):
        acc = self.ring.zero
        for i, row in enumerate(self.rows):
            acc = acc + row[i]
        return acc

    def __eq__(self, other):
        return isinstance(other, Mat) and other.rows == self.rows

    def __bool__(self):
        z = self.ring.zero
        return any(a != z for row in self.rows for a in row)

    def __repr__(self):
        return f"Mat({self.rows!r})"


def matmul_raw(a, b, zero, add, mul) -> list:
    """The product of two matrices given as rows, over a ring given by
    closures: row i sums x * (row k of b) over the nonzero x = a[i][k]."""
    rows = []
    for row in a:
        acc = [zero] * len(b[0])
        for x, brow in zip(row, b):
            if x != zero:
                acc = [s if y == zero else add(s, mul(x, y)) for s, y in zip(acc, brow)]
        rows.append(acc)
    return rows


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
# Gaussian elimination over fields, on payload rows
# ---------------------------------------------------------------------------


def combination(field, coeffs: Sequence, rows: Sequence[Sequence], width: int) -> list:
    """sum_k coeffs[k] * rows[k] on payloads, as a list of ``width`` payloads.

    Zero coefficients and zero entries of the rows are skipped.
    """
    add, mul, zero = field.radd, field.rmul, field.rzero
    acc = [zero] * width
    for c, row in zip(coeffs, rows):
        if c != zero:
            acc = [a if r == zero else add(a, mul(c, r)) for a, r in zip(acc, row)]
    return acc


def _eliminate(rows: List[list], field) -> List[int]:
    """Bring payload rows to reduced row echelon form in place; returns the
    pivot columns.  The pivot of each column is its first nonzero entry at
    or below the current row."""
    add, mul, zero, one = field.radd, field.rmul, field.rzero, field.rone
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c] != zero), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        if prow[c] != one:
            inv = field.rinv(prow[c])
            prow = rows[r] = [mul(a, inv) for a in prow]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f != zero:
                rows[i] = [a if b == zero else add(a, mul(f, b)) for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref(rows: Sequence[Sequence], field) -> Tuple[List[list], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    red = [list(r) for r in rows]
    return red, _eliminate(red, field)


def rank(rows: Sequence[Sequence], field) -> int:
    return len(_eliminate([list(r) for r in rows], field))


def kernel(rows: Sequence[Sequence], field) -> List[list]:
    """Basis of the right kernel {x : A x = 0} of the matrix with these rows."""
    ncols = len(rows[0]) if rows else 0
    red = [list(r) for r in rows]
    pivots = _eliminate(red, field)
    pivset = set(pivots)
    basis = []
    for f in (c for c in range(ncols) if c not in pivset):
        v = unit_vector(field, ncols, f)
        for row, p in zip(red, pivots):
            v[p] = row[f]  # -row[f] in characteristic 2
        basis.append(v)
    return basis


class Span:
    """Row space of a family of payload vectors, with expression of members.

    Tracks how each echelon row was assembled from the input vectors, so a
    member's coordinates over the original family can be recovered (used to
    express elements of L_i and W_i over their generators).  ``rows`` are the
    echelon rows, ``terms`` their nonzero (column, payload) entries and
    ``combos`` their coefficients over the input family.
    """

    def __init__(self, vectors: Sequence[Sequence], field):
        self.field = field
        m = len(vectors[0]) if vectors else 0
        self._n = n = len(vectors)
        aug = [list(row) + unit_vector(field, n, i) for i, row in enumerate(vectors)]
        pivots = _eliminate(aug, field)
        self.pivots = [p for p in pivots if p < m]  # the pivots increase
        self.rows = [row[:m] for row in aug[: self.dim]]
        self.terms = [[(j, a) for j, a in enumerate(row) if a != field.rzero] for row in self.rows]
        self.combos = [row[m:] for row in aug[: self.dim]]

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def contains(self, v: Sequence) -> bool:
        return self.coords(v) is not None

    def coords(self, v: Sequence) -> Optional[list]:
        """Coefficients over the echelon basis, or None if not a member."""
        field = self.field
        add, mul, zero = field.radd, field.rmul, field.rzero
        v, coeffs = list(v), [zero] * self.dim
        for i, (p, row) in enumerate(zip(self.pivots, self.terms)):
            c = v[p]
            if c != zero:
                coeffs[i] = c
                for j, b in row:
                    v[j] = add(v[j], mul(c, b))
        return None if v.count(zero) != len(v) else coeffs

    def input_coords(self, v: Sequence) -> Optional[list]:
        """Coefficients over the original input family, or None."""
        coeffs = self.coords(v)
        if coeffs is None:
            return None
        return combination(self.field, coeffs, self.combos, self._n)


def unit_vector(field, n: int, i: int) -> list:
    """The i-th standard basis vector of F^n."""
    row = [field.rzero] * n
    row[i] = field.rone
    return row
