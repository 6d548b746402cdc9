"""Field arithmetic tests, with naive-reduction oracles for derived values."""

import itertools
import random

import pytest

from oracles import EtaleRing
from charform.decision import UNKNOWN
from charform.errors import FieldMismatch, UnsupportedField
from charform.fields import (
    GF2,
    QuadraticExtension,
    absolute_trace,
    default_modulus,
    field_arith,
    frobenius_sqrt,
    gf2k,
    parse_field,
    pmake,
    ratfunc,
    solve_artin_schreier,
)

F4 = gf2k(2)
F8 = gf2k(3)
R2 = ratfunc(GF2)


def naive_gf2k_mul(a, b, k, modulus):
    """Shift-and-xor polynomial multiplication followed by long reduction."""
    prod = 0
    for i in range(k):
        if (b >> i) & 1:
            prod ^= a << i
    while prod.bit_length() > k:
        prod ^= modulus << (prod.bit_length() - 1 - (modulus.bit_length() - 1))
    return prod


def test_default_moduli_are_least_irreducibles():
    assert default_modulus(2) == 0b111
    assert default_modulus(3) == 0xB
    assert default_modulus(4) == 0b10011


def test_gf2_tables_exhaustive():
    # GF(2) runs through the same log/exp tables as every other k
    assert default_modulus(1) == 0b10 and GF2.text() == "gf2"
    assert GF2._exp == [1, 1] and GF2._log == [0, 0]
    for a, b in itertools.product(range(2), repeat=2):
        assert GF2.rmul(a, b) == a & b
    assert GF2.rinv(1) == 1
    assert [GF2.rsqrt(a) for a in range(2)] == [0, 1]
    with pytest.raises(ZeroDivisionError):
        GF2.rinv(0)


@pytest.mark.parametrize("k", range(1, 9))
def test_log_exp_tables_invert_each_other(k):
    F = gf2k(k)
    n = F.order - 1
    assert sorted(F._exp[:n]) == list(range(1, F.order))  # powers of a primitive element
    for i in range(n):
        assert F._log[F._exp[i]] == i and F._exp[i + n] == F._exp[i]
    for a in range(1, F.order):
        assert F._exp[F._log[a]] == a
        assert F.rmul(a, F.rinv(a)) == 1
        assert F.rmul(F.rsqrt(a), F.rsqrt(a)) == a
    rng = random.Random(k)
    pairs = [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(500)]
    for a, b in itertools.product(range(F.order), repeat=2) if k <= 4 else pairs:
        assert F.rmul(a, b) == naive_gf2k_mul(a, b, k, F.modulus)


def test_char2_addition():
    assert GF2.one + GF2.one == GF2.zero


def test_gf4_generator_square():
    g = F4.gen
    # oracle: reduce g^2 modulo the modulus by hand
    expected = naive_gf2k_mul(2, 2, 2, F4.modulus)
    assert (g * g).raw == expected
    assert g * g == g + F4.one


def test_ratfunc_inverse_monic_denominator():
    t = R2.t
    inv = (t + R2.one).inv()
    assert inv.raw == (1, 0b11)  # 1 / (t + 1), denominator monic
    assert inv * (t + R2.one) == R2.one


@pytest.mark.parametrize("coeffs, text", [([3], "0x3"), ([-1], "-0x1"), ([1, 2], "0x2")])
def test_ratfunc_el_rejects_out_of_range_coefficients(coeffs, text):
    with pytest.raises(ValueError, match=f"coefficient {text} out of range for gf2"):
        R2.el(coeffs)
    with pytest.raises(ValueError, match="out of range"):
        R2.el([1], coeffs)


def test_field_arith_dispatch_and_errors():
    assert field_arith("add", GF2.one, GF2.one) == GF2.zero
    assert field_arith("mul", F4.gen, F4.gen) == F4.gen + F4.one
    assert field_arith("div", F4.gen, F4.gen) == F4.one
    assert field_arith("inv", F4.one, F4.gen) == F4.gen.inv()
    with pytest.raises(ZeroDivisionError):
        field_arith("div", F4.one, F4.zero)
    with pytest.raises(FieldMismatch):
        field_arith("add", F4.one, F8.one)


def test_frobenius_sqrt_gf4():
    g = F4.gen
    s = frobenius_sqrt(g)
    # oracle: (g+1)^2 = g^2 + 1 = g
    assert (g + F4.one) * (g + F4.one) == g
    assert s == g + F4.one


def test_frobenius_sqrt_ratfunc():
    t = R2.t
    one = R2.one
    assert frobenius_sqrt(t * t + one) == t + one
    assert frobenius_sqrt(t) is None  # odd degree is never a square
    assert frobenius_sqrt((t * t) / ((t + one) * (t + one))) == t / (t + one)


def test_sqrt_square_roundtrip_1000():
    rng = random.Random(11)
    for _ in range(1000):
        x = F8.rand(rng)
        assert frobenius_sqrt(x * x) == x


def test_artin_schreier_gf2():
    assert solve_artin_schreier(GF2.zero) == GF2.zero
    # oracle: brute force, the image of x^2+x over GF(2) is {0}
    image = {x * x + x for x in GF2.elements()}
    assert image == {GF2.zero}
    assert solve_artin_schreier(GF2.one) is None


def test_artin_schreier_gf4_brute():
    image = {x * x + x for x in F4.elements()}
    assert F4.gen not in image  # brute force over all four elements
    assert solve_artin_schreier(F4.gen) is None
    for a in image:
        x = solve_artin_schreier(a)
        assert x is not None and x * x + x == a


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_artin_schreier_image_size(k):
    F = gf2k(k)
    image = {x * x + x for x in F.elements()}
    assert len(image) == F.order // 2
    for a in F.elements():
        x = solve_artin_schreier(a)
        if a in image:
            assert x is not None and x * x + x == a
        else:
            assert x is None


def test_artin_schreier_ratfunc_polynomial():
    t = R2.t
    one = R2.one
    # zero has the root 0 (pdeg(0) = -1 must not count as an odd degree)
    assert solve_artin_schreier(R2.zero) == R2.zero
    # x = t: x^2 + x = t^2 + t
    x = solve_artin_schreier(t * t + t)
    assert x is not None and x * x + x == t * t + t
    # odd-degree polynomial: parity proof of unsolvability
    assert solve_artin_schreier(t) is None
    assert solve_artin_schreier(t * t * t) is None
    # constant-term trace obstruction: t^2 + t + 1
    assert solve_artin_schreier(t * t + t + one) is None
    # non-polynomial right-hand side is beyond the supported shape
    assert solve_artin_schreier(one / t) is UNKNOWN


def test_artin_schreier_ratfunc_over_gf4():
    R4 = ratfunc(F4)
    g = R4.const(F4.gen)
    t = R4.t
    a = (t + g) * (t + g) + (t + g)
    x = solve_artin_schreier(a)
    assert x is not None and x * x + x == a
    assert solve_artin_schreier(R4.zero) == R4.zero


def test_absolute_trace_examples():
    assert absolute_trace(GF2.one) == 1
    g = F4.gen
    # oracle: g + g^2 = g + g + 1 = 1
    assert g + g * g == F4.one
    assert absolute_trace(g) == 1
    assert absolute_trace(F4.one) == 0
    with pytest.raises(UnsupportedField):
        absolute_trace(R2.one)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_trace_kills_artin_schreier_image(k):
    F = gf2k(k)
    for x in F.elements():
        assert absolute_trace(x * x + x) == 0


def test_field_axioms_1000_triples():
    rng = random.Random(7)
    fields = [F8, ratfunc(F4)]
    for field in fields:
        for _ in range(500):
            x, y, z = (field.rand(rng) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert x + y == y + x
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z
            if y:
                assert (x / y) * y == x


def test_parse_field_round_trip():
    assert parse_field("gf2") is GF2
    assert parse_field("gf2k:3") is F8
    assert parse_field("gf2k:3:0xB") is F8
    assert parse_field("ratfunc:gf2:t") is R2
    assert parse_field(F8.text()) is F8
    assert parse_field(ratfunc(F4).text()) is ratfunc(F4)


def test_parse_field_rejects_garbage():
    from charform.errors import ParseError

    for bad in [
        "gf3",
        "gf2k:x",
        "gf2k:3:0x6",
        "ratfunc:ratfunc:gf2:t:u",
        "",
        "gf2k:2:0x7:junk",  # extra parts
        "gf2k:3:0xb:",
        "gf2k:2:-0x7",  # moduli below 1
        "gf2k:2:0x0",
        "ratfunc:gf2:",  # empty variable names
        "ratfunc:gf2k:2:0x7:",
        "gf2k: 2",  # K in ASCII decimal digits only
        "gf2k:+2",
        "gf2k:\uff12",
        "gf2k:2:0x_7",  # MOD in ASCII hex digits only
        "ratfunc:gf2: t",  # VAR an ASCII identifier
        " gf2k:2\n",  # no whitespace around the descriptor or a part
        "\tratfunc:gf2:t",
        "ratfunc: gf2k:2:t",
        "ratfunc:gf2 :t",
    ]:
        with pytest.raises(ParseError):
            parse_field(bad)


def test_quadratic_extension_ring():
    # F4[s]/(s^2+s+g) with g of trace 1 is a field of 16 elements
    ring = EtaleRing(F4, F4.gen)
    s = ring.s
    assert s * s == ring.el(F4.gen, F4.one)  # s^2 = s + g
    assert s.conj() == ring.el(F4.one, F4.one)  # s + 1
    assert (s * s.conj()) == ring.lift(F4.gen)  # norm(s) = g
    assert s.inv() * s == ring.one
    # split case: F2[s]/(s^2+s) has zero divisors
    split = EtaleRing(GF2, GF2.zero)
    with pytest.raises(ZeroDivisionError):
        split.s.inv()
    # the payload ring agrees with the objects on every element
    payload = QuadraticExtension(F4, F4.gen)
    for p, q in itertools.product(itertools.product(F4.elements(), repeat=2), repeat=2):
        x, y = ring.el(*p), ring.el(*q)
        assert payload.rmul(x.raw, y.raw) == (x * y).raw
        assert payload.rnorm(x.raw) == x.norm().raw
        if x:
            assert payload.rinv(x.raw) == x.inv().raw
    with pytest.raises(ZeroDivisionError):
        QuadraticExtension(GF2, GF2.zero).rinv(split.s.raw)


def test_packed_polynomials_over_gf4():
    # (g*t + 1)^2 = g^2 t^2 + 1 over GF(4)
    R4 = ratfunc(F4)
    g = R4.const(F4.gen)
    t = R4.t
    lhs = (g * t + R4.one) * (g * t + R4.one)
    gg = F4.gen * F4.gen
    assert lhs == R4.el(pmake([1, 0, gg.raw], F4))
