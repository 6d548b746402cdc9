"""Exact arithmetic for GF(2^k) and for rational function fields GF(2^k)(t).

Elements of GF(2^k) are packed as k-bit integers whose bits are the
coefficients of the residue polynomial over GF(2); arithmetic is done modulo
an irreducible degree-k polynomial (default: the lexicographically least
irreducible, for reproducibility).  Polynomials over GF(2^k) are packed as
integers with k bits per coefficient, ascending degree, so that addition is a
single xor.  Rational function field elements are reduced fractions of packed
polynomials with a monic denominator.  Quadratic etale rings F[s]/(s^2+s+c)
work on payload pairs (x, y) of x + y*s and multiply through ``etale_ops``,
which takes the relation s^2 = e*s + c on any commutative ring of payloads
(e = 1 here; the fraction-free reduced characteristic polynomial over
GF(2^k)(t) uses e = q for a centre p/q).  ``FieldElement`` is the only
element object, for scalars.

All values are immutable; field objects are interned so that equality of
fields is identity.
"""

from __future__ import annotations

import functools
import operator
import re
from typing import Iterator, Optional, Union

from .decision import UNKNOWN, Unknown
from .errors import FieldMismatch, ParseError, UnsupportedField

# ---------------------------------------------------------------------------
# polynomials over GF(2), packed as plain ints (one bit per coefficient)
# ---------------------------------------------------------------------------


def _gf2_deg(p: int) -> int:
    return p.bit_length() - 1


def _gf2_mod(p: int, m: int) -> int:
    """Remainder of p modulo a nonzero m, by shift and xor."""
    dm = m.bit_length()
    s = p.bit_length() - dm
    while s >= 0:
        p ^= m << s
        s = p.bit_length() - dm
    return p


def _gf2_irreducible(m: int) -> bool:
    """Trial division by every polynomial of degree 1..deg(m)//2."""
    k = _gf2_deg(m)
    if k < 1:
        return False
    for d in range(1, k // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if _gf2_mod(m, q) == 0:
                return False
    return True


@functools.lru_cache(maxsize=None)
def default_modulus(k: int) -> int:
    """Lexicographically least irreducible polynomial of degree k over GF(2)
    (X for k = 1, whose residues are the constants)."""
    for m in range(1 << k, 1 << (k + 1)):
        if _gf2_irreducible(m):
            return m
    raise ValueError(f"no irreducible polynomial of degree {k}")


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------


class FieldElement:
    """Immutable element of a GF2k or RatFunc field.

    Supports +, -, *, /, ** and unary minus (the identity, characteristic 2).
    Mixing elements of different fields raises FieldMismatch.
    """

    __slots__ = ("field", "raw")

    def __init__(self, field, raw):
        self.field = field
        self.raw = raw

    def _same(self, other) -> "FieldElement":
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {other!r}")
        if other.field is not self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        return other

    def __add__(self, other):
        other = self._same(other)
        return self.field._el(self.field.radd(self.raw, other.raw))

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other):
        other = self._same(other)
        return self.field._el(self.field.rmul(self.raw, other.raw))

    def __truediv__(self, other):
        other = self._same(other)
        return self.field._el(self.field.rmul(self.raw, self.field.rinv(other.raw)))

    def __pow__(self, n: int):
        if n < 0:
            return (self.field.one / self) ** (-n)
        r, b = self.field.one.raw, self.raw
        while n:
            if n & 1:
                r = self.field.rmul(r, b)
            b = self.field.rmul(b, b)
            n >>= 1
        return self.field._el(r)

    def __neg__(self):
        return self

    def __bool__(self):
        return self.raw != self.field.rzero

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and other.field is self.field
            and other.raw == self.raw
        )

    def __hash__(self):
        return hash((id(self.field), self.raw))

    def __repr__(self):
        return f"<{self.field.describe(self.raw)}>"

    def inv(self) -> "FieldElement":
        return self.field._el(self.field.rinv(self.raw))

    def sqrt(self) -> Optional["FieldElement"]:
        r = self.field.rsqrt(self.raw)
        return None if r is None else self.field._el(r)

    def is_square(self) -> bool:
        return self.field.rsqrt(self.raw) is not None


Fe = FieldElement


class GF2k:
    """The finite field GF(2^k) with elements packed as k-bit ints.

    Multiplication and inversion go through log/exp tables built once at
    construction (k <= 16 keeps them small).
    """

    kind = "gf2k"

    def __init__(self, k: int, modulus: Optional[int] = None):
        if not 1 <= k <= 16:
            raise ValueError("supported degrees are 1 <= k <= 16")
        if modulus is None:
            modulus = default_modulus(k)
        if modulus < 1 or _gf2_deg(modulus) != k or not _gf2_irreducible(modulus):
            raise ValueError(f"modulus {modulus:#x} is not irreducible of degree {k}")
        self.k = k
        self.modulus = modulus
        self.order = 1 << k
        self.rzero = 0
        self.rone = 1
        self._cache: dict = {}
        self._build_tables()
        self.zero = self._el(0)
        self.one = self._el(1)
        self._artin_table: Optional[dict] = None

    def _build_tables(self):
        # the first g whose powers reach every nonzero element before 1 again
        n = self.order - 1
        for g in range(1, self.order):
            powers = [1]
            while len(powers) < n and (val := self._mul_raw(powers[-1], g)) != 1:
                powers.append(val)
            if len(powers) == n:
                break
        else:
            raise ValueError("no primitive element found")
        self._exp = powers * 2  # two periods: a sum of two logs stays in range
        self._log = [0] * self.order
        for i, val in enumerate(powers):
            self._log[val] = i

    def _mul_raw(self, a: int, b: int) -> int:
        p = 0
        top = 1 << self.k
        while b:
            if b & 1:
                p ^= a
            a <<= 1
            if a & top:
                a ^= self.modulus
            b >>= 1
        return p

    # raw payload operations -------------------------------------------------

    def radd(self, a: int, b: int) -> int:
        return a ^ b

    def rmul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def rinv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero field element")
        return self._exp[(self.order - 1) - self._log[a]]

    def rsqrt(self, a: int) -> int:
        # every element of a finite field of characteristic 2 is a square
        if a == 0:
            return a
        return self._exp[(self._log[a] << (self.k - 1)) % (self.order - 1)]

    def rtrace(self, a: int) -> int:
        t, x = 0, a
        for _ in range(self.k):
            t ^= x
            x = self._mul_raw(x, x)
        if t not in (0, 1):
            raise AssertionError("absolute trace is not in GF(2)")
        return t

    def rartin(self, a: int) -> Optional[int]:
        """Raw solution of x^2 + x = a, or None."""
        if self._artin_table is None:
            table: dict = {}
            for x in range(self.order):
                img = self._mul_raw(x, x) ^ x
                table.setdefault(img, x)
            self._artin_table = table
        return self._artin_table.get(a)

    # cleared numerators -------------------------------------------------------

    def rclear(self, payloads):
        """The payloads as (numerators, common denominator): over GF(2^k)
        themselves, over 1.  ``nmul`` and xor are the ring operations on
        numerators, and ``rfractions`` turns them back into payloads."""
        return payloads, 1

    nmul = rmul

    def rfractions(self, nums, den) -> tuple:
        return tuple(nums)

    # bit-sliced lanes ----------------------------------------------------------

    def lanes(self, n: int):
        """(zero, one, add, mul) of the product ring GF(2^k)^n in bit-sliced lanes.

        A lane value is a tuple of k ints, one bit plane each: bit l of plane
        p is bit p of the payload in lane l.  ``add`` is one xor per plane;
        ``mul`` makes 2k-1 product planes from k^2 ands and folds the top k-1
        back through the modulus.  The closures fit ``charpoly_raw``, which
        then runs one Berkowitz for n matrices at once.
        """
        k, width = self.k, 2 * self.k - 1
        ands = [(i, j, i + j) for i in range(k) for j in range(k)]
        # plane d >= k folds into the planes d - k + t of the taps t of the modulus
        taps = [t for t in range(k) if self.modulus >> t & 1]
        folds = [(d, d - k + t) for d in range(width - 1, k - 1, -1) for t in taps]

        def add(a, b):
            return tuple(map(operator.xor, a, b))

        def mul(a, b):
            prod = [0] * width
            for i, j, d in ands:
                prod[d] ^= a[i] & b[j]
            for d, e in folds:
                prod[e] ^= prod[d]
            return tuple(prod[:k])

        return (0,) * k, self.lane_scalar(self.rone, n), add, mul

    def lane_scalar(self, a: int, n: int) -> tuple:
        """The lane value with the payload a in each of n lanes."""
        mask = (1 << n) - 1
        return tuple(mask if a >> p & 1 else 0 for p in range(self.k))

    def from_lanes(self, value, n: int) -> list:
        """The payloads of the first n lanes of a lane value."""
        # bit n of a plane fixes the width of its string, which lists lane 0 first
        planes = [format(plane & ((1 << n) - 1) | 1 << n, "b")[:0:-1] for plane in reversed(value)]
        return [int("".join(bits), 2) for bits in zip(*planes)]

    # element-level API -------------------------------------------------------

    def _el(self, raw: int) -> Fe:
        e = self._cache.get(raw)
        if e is None:
            e = Fe(self, raw)
            self._cache[raw] = e
        return e

    def el(self, value: int) -> Fe:
        if not 0 <= value < self.order:
            raise ValueError(f"{value} out of range for GF(2^{self.k})")
        return self._el(value)

    @property
    def gen(self) -> Fe:
        """The class of X (a generator of the extension for k >= 2)."""
        return self._el(2 if self.k >= 2 else 1)

    def elements(self) -> Iterator[Fe]:
        return (self._el(i) for i in range(self.order))

    def rrand(self, rng) -> int:
        return rng.randrange(self.order)

    def rand(self, rng) -> Fe:
        return self._el(self.rrand(rng))

    def rand_nonzero(self, rng) -> Fe:
        return self._el(rng.randrange(1, self.order))

    def describe(self, raw: int) -> str:
        return f"{raw:#x}@gf2k:{self.k}"

    def text(self) -> str:
        if self.k == 1:
            return "gf2"
        return f"gf2k:{self.k}:{self.modulus:#x}"

    def __repr__(self):
        return f"GF2k({self.k}, {self.modulus:#x})"


# ---------------------------------------------------------------------------
# packed polynomials over a GF2k base (k bits per coefficient, ascending)
# ---------------------------------------------------------------------------


def pdeg(p: int, k: int) -> int:
    """Degree of a packed polynomial (-1 for the zero polynomial)."""
    if p == 0:
        return -1
    return (p.bit_length() - 1) // k


def pcoef(p: int, i: int, k: int) -> int:
    return (p >> (i * k)) & ((1 << k) - 1)


def pmake(coeffs, base: GF2k) -> int:
    """Pack coefficients (ascending degree), each a raw element of base."""
    p = 0
    for i, c in enumerate(coeffs):
        if not 0 <= c < base.order:
            raise ValueError(f"coefficient {c:#x} out of range for {base.text()}")
        p |= c << (i * base.k)
    return p


def pcoeffs(p: int, base: GF2k) -> list:
    return [pcoef(p, i, base.k) for i in range(pdeg(p, base.k) + 1)]


def pscale(p: int, c: int, base: GF2k) -> int:
    if c == 0 or p == 0:
        return 0
    if c == 1:
        return p
    r = 0
    for i in range(pdeg(p, base.k) + 1):
        r |= base.rmul(pcoef(p, i, base.k), c) << (i * base.k)
    return r


def pmul(a: int, b: int, base: GF2k) -> int:
    if a == 0 or b == 0:
        return 0
    if base.k == 1:
        if a.bit_count() < b.bit_count():
            a, b = b, a
        r = 0
        while b:
            low = b & -b
            r ^= a * low
            b ^= low
        return r
    r = 0
    for i in range(pdeg(a, base.k) + 1):
        c = pcoef(a, i, base.k)
        if c:
            r ^= pscale(b, c, base) << (i * base.k)
    return r


def pdivmod(a: int, b: int, base: GF2k):
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    k = base.k
    if k == 1:
        q, db = 0, b.bit_length()
        s = a.bit_length() - db
        while s >= 0:
            q ^= 1 << s
            a ^= b << s
            s = a.bit_length() - db
        return q, a
    db = pdeg(b, k)
    lead_inv = base.rinv(pcoef(b, db, k))
    q = 0
    da = pdeg(a, k)
    while a and da >= db:
        c = base.rmul(pcoef(a, da, k), lead_inv)
        q |= c << ((da - db) * k)
        a ^= pscale(b, c, base) << ((da - db) * k)
        da = pdeg(a, k)
    return q, a


def pgcd(a: int, b: int, base: GF2k) -> int:
    """The monic gcd (0 when both are 0)."""
    if base.k == 1:
        while b:
            a, b = b, _gf2_mod(a, b)
        return a
    while b:
        a, b = b, pdivmod(a, b, base)[1]
    if a:
        lead = pcoef(a, pdeg(a, base.k), base.k)
        if lead != 1:
            a = pscale(a, base.rinv(lead), base)
    return a


def psqrt(p: int, base: GF2k) -> Optional[int]:
    """Square root of a packed polynomial, or None if it is not a square."""
    if p == 0:
        return 0
    k = base.k
    r = 0
    for i in range(pdeg(p, k) + 1):
        c = pcoef(p, i, k)
        if i % 2:
            if c:
                return None
        elif c:
            r |= base.rsqrt(c) << ((i // 2) * k)
    return r


def ptext(p: int, base: GF2k, var: str) -> str:
    if p == 0:
        return "0"
    parts = []
    for i in range(pdeg(p, base.k), -1, -1):
        c = pcoef(p, i, base.k)
        if not c:
            continue
        if i == 0:
            parts.append(f"{c:#x}")
        else:
            head = "" if c == 1 else f"{c:#x}*"
            parts.append(f"{head}{var}" + (f"^{i}" if i > 1 else ""))
    return " + ".join(parts)


class RatFunc:
    """The rational function field GF(2^k)(t).

    Raw payloads are (num, den) pairs of packed polynomials, kept fully
    reduced with a monic denominator after every operation.  Every payload
    is built through _norm, so the operations may take the normal form of
    their operands for granted: a polynomial (den 1) needs no gcd, and a
    zero summand returns the other one unchanged.
    """

    kind = "ratfunc"

    def __init__(self, base: GF2k, var: str = "t"):
        if not isinstance(base, GF2k):
            raise UnsupportedField("function field base must be a GF2k field")
        self.base = base
        self.var = var
        self.rzero = (0, 1)
        self.rone = (1, 1)
        self.zero = Fe(self, (0, 1))
        self.one = Fe(self, (1, 1))

    def _norm(self, num: int, den: int):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den == 1:
            return (num, 1)
        if num == 0:
            return (0, 1)
        g = pgcd(num, den, self.base)
        if pdeg(g, self.base.k) > 0:
            num = pdivmod(num, g, self.base)[0]
            den = pdivmod(den, g, self.base)[0]
        lead = pcoef(den, pdeg(den, self.base.k), self.base.k)
        if lead != 1:
            li = self.base.rinv(lead)
            num = pscale(num, li, self.base)
            den = pscale(den, li, self.base)
        return (num, den)

    # raw payload operations -------------------------------------------------

    def radd(self, a, b):
        na, da = a
        nb, db = b
        if na == 0:
            return b
        if nb == 0:
            return a
        if da == db:
            return self._norm(na ^ nb, da)
        return self._norm(
            pmul(na, db, self.base) ^ pmul(nb, da, self.base),
            pmul(da, db, self.base),
        )

    def rmul(self, a, b):
        na, da = a
        nb, db = b
        if na == 0 or nb == 0:
            return (0, 1)
        if da == 1 and db == 1:
            return (pmul(na, nb, self.base), 1)
        g1 = pgcd(na, db, self.base)
        if pdeg(g1, self.base.k) > 0:
            na = pdivmod(na, g1, self.base)[0]
            db = pdivmod(db, g1, self.base)[0]
        g2 = pgcd(nb, da, self.base)
        if pdeg(g2, self.base.k) > 0:
            nb = pdivmod(nb, g2, self.base)[0]
            da = pdivmod(da, g2, self.base)[0]
        # reduced operands after the cross gcds give a reduced product, and
        # monic denominators divided by monic gcds stay monic
        return (pmul(na, nb, self.base), pmul(da, db, self.base))

    def rinv(self, a):
        num, den = a
        if num == 0:
            raise ZeroDivisionError("division by zero field element")
        return self._norm(den, num)

    def rsqrt(self, a):
        num, den = a
        ns = psqrt(num, self.base)
        if ns is None:
            return None
        ds = psqrt(den, self.base)
        if ds is None:
            return None
        return self._norm(ns, ds)

    # cleared numerators -------------------------------------------------------

    def rclear(self, payloads):
        """The payloads as packed numerators over their monic lcm den, and
        den: one gcd per distinct denominator after the first."""
        base = self.base
        dens = {d for _, d in payloads}
        dens.discard(1)
        den = 1
        for d in dens:
            den = d if den == 1 else pmul(pdivmod(den, pgcd(den, d, base), base)[0], d, base)
        if den == 1:
            return [n for n, _ in payloads], 1
        cofactors = {d: pdivmod(den, d, base)[0] for d in dens if d != den}
        cofactors[1] = den
        return [pmul(n, cofactors[d], base) if n and d != den else n for n, d in payloads], den

    @property
    def nmul(self):
        """The product of packed numerators.  It calls pmul positionally, as
        every caller does: the perfbench tracer's counter takes no keywords."""
        base = self.base
        return lambda a, b: pmul(a, b, base)

    def rfractions(self, nums, den) -> tuple:
        """The payloads num/den for the packed numerators nums."""
        if den == 1:
            return tuple([(n, 1) for n in nums])
        norm, zero = self._norm, self.rzero
        return tuple([norm(n, den) if n else zero for n in nums])

    # element-level API -------------------------------------------------------

    def _el(self, raw) -> Fe:
        return Fe(self, raw)

    def el(self, num, den=None) -> Fe:
        """Element from packed ints or coefficient lists (ascending degree)."""
        if isinstance(num, (list, tuple)):
            num = pmake(num, self.base)
        if den is None:
            den = 1
        elif isinstance(den, (list, tuple)):
            den = pmake(den, self.base)
        return Fe(self, self._norm(num, den))

    def const(self, c: Union[int, Fe]) -> Fe:
        if isinstance(c, Fe):
            if c.field is not self.base:
                raise FieldMismatch("constant from a different base field")
            c = c.raw
        return Fe(self, self._norm(c, 1))

    @property
    def t(self) -> Fe:
        return Fe(self, (1 << self.base.k, 1))

    def rrand(self, rng):
        """The payload of a polynomial of degree at most 2 with seeded coefficients."""
        return (pmake([rng.randrange(self.base.order) for _ in range(3)], self.base), 1)

    def rand(self, rng) -> Fe:
        return Fe(self, self.rrand(rng))

    def rand_nonzero(self, rng) -> Fe:
        while True:
            e = self.rand(rng)
            if e:
                return e

    def describe(self, raw) -> str:
        num, den = raw
        s = ptext(num, self.base, self.var)
        if den != 1:
            s = f"({s})/({ptext(den, self.base, self.var)})"
        return s

    def text(self) -> str:
        return f"ratfunc:{self.base.text()}:{self.var}"

    def __repr__(self):
        return f"RatFunc({self.base!r}, {self.var!r})"


Field = Union[GF2k, RatFunc]

# interning so that field equality is identity ------------------------------

_FIELDS: dict = {}


def gf2k(k: int, modulus: Optional[int] = None) -> GF2k:
    if modulus is None:
        modulus = default_modulus(k)
    key = ("gf2k", k, modulus)
    f = _FIELDS.get(key)
    if f is None:
        f = GF2k(k, modulus)
        _FIELDS[key] = f
    return f


GF2 = gf2k(1)


def ratfunc(base: GF2k, var: str = "t") -> RatFunc:
    key = ("ratfunc", id(base), var)
    f = _FIELDS.get(key)
    if f is None:
        f = RatFunc(base, var)
        _FIELDS[key] = f
    return f


# a hex number, ASCII digits with an optional 0x: MOD here, and every field
# element payload in a descriptor file
HEX = re.compile("(0x)?[0-9a-fA-F]+")


def parse_field(text: str) -> Field:
    """Parse a field descriptor: gf2 | gf2k:K | gf2k:K:0xMOD | ratfunc:<base>:VAR."""
    if not isinstance(text, str):
        raise ParseError(f"bad field descriptor {text!r}: not a string")
    parts = text.split(":")
    try:
        if parts[0] == "gf2" and len(parts) == 1:
            return GF2
        if parts[0] == "gf2k":
            if len(parts) > 3:
                raise ParseError(f"bad field descriptor {text!r}: extra parts")
            if not re.fullmatch("[0-9]+", parts[1]):
                raise ParseError(f"bad field descriptor {text!r}: K is not a decimal number")
            if len(parts) == 2:
                return gf2k(int(parts[1]))
            if not HEX.fullmatch(parts[2]):
                raise ParseError(f"bad field descriptor {text!r}: MOD is not a hex number")
            return gf2k(int(parts[1]), int(parts[2], 16))
        if parts[0] == "ratfunc":
            if not (parts[-1].isascii() and parts[-1].isidentifier()):
                raise ParseError(f"bad field descriptor {text!r}: VAR is not an identifier")
            try:
                base = parse_field(":".join(parts[1:-1]))
            except ParseError as exc:
                raise ParseError(f"bad field descriptor {text!r}: in the base, {exc}") from None
            if not isinstance(base, GF2k):
                raise ParseError(f"bad field descriptor {text!r}: the base must be gf2k")
            return ratfunc(base, parts[-1])
    except (ValueError, IndexError) as exc:
        raise ParseError(f"bad field descriptor {text!r}: {exc}") from exc
    raise ParseError(f"bad field descriptor {text!r}")


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def field_arith(kind: str, x: Fe, y: Fe) -> Fe:
    """Dispatch basic arithmetic by name, for tests and library callers."""
    if kind == "add":
        return x + y
    if kind == "mul":
        return x * y
    if kind == "div":
        return x / y
    if kind == "inv":
        return y.inv()  # x unused; kept for the uniform binary signature
    raise ValueError(f"unknown arithmetic kind {kind!r}")


def frobenius_sqrt(x: Fe) -> Optional[Fe]:
    """The square root of x, or None when x is not a square.

    Over GF(2^k) this always succeeds; over GF(2^k)(t) it succeeds exactly
    when numerator and denominator are squares of polynomials.
    """
    return x.sqrt()


def absolute_trace(x: Fe) -> int:
    """Absolute trace GF(2^k) -> GF(2), as an int in {0, 1}."""
    if not isinstance(x.field, GF2k):
        raise UnsupportedField("absolute trace is only defined over GF(2^k)")
    return x.field.rtrace(x.raw)


# polynomial right-hand sides of solve_artin_schreier above degree
# 2 * _AS_DEGREE_BUDGET are left undecided
_AS_DEGREE_BUDGET = 32


def solve_artin_schreier(a: Fe) -> Union[Fe, None, Unknown]:
    """Solve x^2 + x = a.

    Over GF(2^k) the answer is exact (solvable iff the absolute trace of a
    vanishes).  Over GF(2^k)(t) polynomial right-hand sides are decided
    exactly by an ascending coefficient recurrence; non-polynomial ones
    return UNKNOWN, as do polynomials of degree above 2 * _AS_DEGREE_BUDGET.
    """
    field = a.field
    if isinstance(field, GF2k):
        r = field.rartin(a.raw)
        return None if r is None else field._el(r)
    base = field.base
    num, den = a.raw
    if den != 1:
        return UNKNOWN
    if not num:
        return field.zero
    d = pdeg(num, base.k)
    if d > 2 * _AS_DEGREE_BUDGET:
        return UNKNOWN
    if d % 2 == 1:
        return None  # x^2 + x has even degree for polynomial x
    x0 = base.rartin(pcoef(num, 0, base.k))
    if x0 is None:
        return None  # constant-term trace obstruction
    coeffs = {0: x0}
    for j in range(1, d + 1):
        c = pcoef(num, j, base.k)
        if j % 2 == 0:
            c ^= base.rmul(coeffs.get(j // 2, 0), coeffs.get(j // 2, 0))
        coeffs[j] = c
    x = field.el(pmake([coeffs.get(i, 0) for i in range(d + 1)], base))
    if x * x + x == a:
        return x
    return None


# ---------------------------------------------------------------------------
# quadratic etale extension rings F[s]/(s^2 + s + c)
# ---------------------------------------------------------------------------


def etale_ops(c, zero, add, mul, e=None):
    """Addition and multiplication of x + y*s, s^2 = e*s + c, on pairs (x, y)
    of payloads of a commutative ring given by its zero and the closures add
    and mul; e = None stands for e = 1.  A product with a zero operand costs
    no ring product, one with both y parts zero costs one, one with a single
    y part zero costs two; the general case costs five (six with an e)."""

    def emul(p, q):
        x1, y1 = p
        x2, y2 = q
        if y1 == zero:
            if y2 == zero:
                return (mul(x1, x2), zero)
            if x1 == zero:
                return p
            return (mul(x1, x2), mul(x1, y2))
        if y2 == zero:
            if x2 == zero:
                return q
            return (mul(x1, x2), mul(y1, x2))
        yy = mul(y1, y2)
        ey = yy if e is None else mul(e, yy)
        return (add(mul(x1, x2), mul(c, yy)), add(add(mul(x1, y2), mul(y1, x2)), ey))

    return lambda p, q: tuple(map(add, p, q)), emul


class QuadraticExtension:
    """Rank-2 etale ring F[s]/(s^2 + s + c) on payload pairs (x, y) of x + y*s.

    A field exactly when c is outside the Artin-Schreier image of F; the
    split case still supports all ring operations (inversion may fail).
    Like a field it has payload arithmetic: rzero, rone, radd, rmul, and the
    norm and inverse through the automorphism s -> s + 1.
    """

    def __init__(self, field: Field, c: Fe):
        self.field = field
        self.c = c
        self.rzero = (field.rzero, field.rzero)
        self.rone = (field.rone, field.rzero)
        self.radd, self.rmul = etale_ops(c.raw, field.rzero, field.radd, field.rmul)

    def rnorm(self, p):
        """The field payload (x + y*s)(x + y + y*s) = x^2 + x*y + c*y^2."""
        x, y = p
        add, mul = self.field.radd, self.field.rmul
        return add(add(mul(x, x), mul(x, y)), mul(self.c.raw, mul(y, y)))

    def rinv(self, p):
        """(x + y + y*s) / norm; ZeroDivisionError when the norm vanishes."""
        x, y = p
        field = self.field
        n = field.rinv(self.rnorm(p))
        return (field.rmul(field.radd(x, y), n), field.rmul(y, n))

    def __repr__(self):
        return f"QuadraticExtension({self.field!r}, c={self.c!r})"
