"""Format decode/encode and exact-value arithmetic tests.

Expected values come from independent oracles: the host's IEEE 754
`struct` codecs for the interchange formats, Fraction arithmetic with
a brute-force grid search for the rounding kernels, and each format's own
table of decoded values for rounding in `encode`.
"""

import dataclasses
import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmaprobe.formats import (
    NAN,
    NEG_INF,
    NEG_ZERO,
    ONE,
    POS_INF,
    REGISTRY,
    ZERO,
    Dyadic,
    FpFormat,
    RoundingMode,
    Special,
    _round_sig,
    bits_to_hex,
    decode,
    encode,
    hex_to_bits,
    lookup_format,
    pow2,
    sum_of_pow2,
)

B16 = REGISTRY["binary16"]
BF16 = REGISTRY["bfloat16"]
TF32 = REGISTRY["TensorFloat32"]
B32 = REGISTRY["binary32"]
B64 = REGISTRY["binary64"]

ALL_RMS = (RoundingMode.RNE, RoundingMode.RZ, RoundingMode.RU,
           RoundingMode.RD, RoundingMode.TRUNCATE)


def dyadics(max_bits=64, max_exp=64):
    return st.builds(
        lambda s, m, e: Dyadic.make(s, m, e),
        st.sampled_from((1, -1)),
        st.integers(min_value=0, max_value=(1 << max_bits) - 1),
        st.integers(min_value=-max_exp, max_value=max_exp),
    )


# -- Dyadic arithmetic vs Fraction oracle -------------------------------


class TestDyadic:
    def test_constructors(self):
        assert pow2(0) == ONE
        assert sum_of_pow2([0, -23]) == ONE + pow2(-23)
        assert sum_of_pow2([]) == ZERO
        assert Dyadic.from_int(-6) == Dyadic(-1, 3, 1)

    def test_canonical_form(self):
        for sign, sig, exp in ((1, 12, 0), (-1, 2, -3), (1, 0, 5),
                               (-1, 0, -1)):
            with pytest.raises(ValueError, match="non-canonical"):
                Dyadic(sign, sig, exp)
        assert Dyadic.make(1, 12, 0) == Dyadic(1, 3, 2)
        assert Dyadic.make(-1, 0, 7) is ZERO

    def test_negative_zero_compares_equal(self):
        assert NEG_ZERO == ZERO
        assert hash(NEG_ZERO) == hash(ZERO)

    @given(dyadics(), dyadics())
    def test_add_matches_fraction(self, a, b):
        assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()

    @given(dyadics(), dyadics())
    def test_mul_matches_fraction(self, a, b):
        assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()

    @given(dyadics(), dyadics())
    def test_sub_matches_fraction(self, a, b):
        assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()

    @given(dyadics(), dyadics())
    def test_comparisons_match_fraction(self, a, b):
        assert (a == b) == (a.as_fraction() == b.as_fraction())

    @given(dyadics())
    def test_results_are_canonical(self, a):
        for v in (a + a, a * a, a - a):
            if v.is_zero:
                assert v.exp == 0
            else:
                assert v.sig & 1 == 1


# -- rounding kernels ----------------------------------------------------


def oracle_round_to_grid(v: Dyadic, grid: int, rm: RoundingMode) -> Fraction:
    """Independent rounding via Fraction floor/ceil on the grid."""
    x = v.as_fraction() / Fraction(2) ** grid
    lo = math.floor(x)
    hi = math.ceil(x)
    if lo == hi:
        q = lo
    elif rm in (RoundingMode.RZ, RoundingMode.TRUNCATE):
        q = lo if x > 0 else hi
    elif rm is RoundingMode.RU:
        q = hi
    elif rm is RoundingMode.RD:
        q = lo
    else:
        frac = x - lo
        if frac > Fraction(1, 2):
            q = hi
        elif frac < Fraction(1, 2):
            q = lo
        else:
            q = lo if lo % 2 == 0 else hi
    return q * Fraction(2) ** grid


def to_b32(v: Dyadic, rm: RoundingMode):
    """``v`` rounded into binary32 by ``encode``, read back by ``decode``."""
    bits, _ = encode(v, B32, rm)
    return decode(bits, B32)


class TestRounding:
    def test_precision_examples(self):
        v = ONE + pow2(-23) + Dyadic.make(1, 3, -25)
        assert to_b32(v, RoundingMode.RNE) == ONE + pow2(-22)
        assert to_b32(v, RoundingMode.TRUNCATE) == ONE + pow2(-23)
        w = -(Dyadic.from_int(2) - pow2(-27))
        assert to_b32(w, RoundingMode.RNE) == Dyadic.from_int(-2)

    @pytest.mark.parametrize("rm", ALL_RMS, ids=lambda rm: rm.value)
    @pytest.mark.parametrize("sign", (1, -1))
    def test_exact_even_significand_kept(self, sign, rm):
        # An even significand whose dropped bits are all zero is already
        # on the grid, so every mode keeps it, directed modes included.
        for sig, shift in ((0b1100, 2), (0b101000, 3), (1 << 30, 30)):
            assert _round_sig(sig, shift, sign, rm) == sig >> shift
        # One set bit among the dropped ones still rounds.
        up = RoundingMode.RU if sign > 0 else RoundingMode.RD
        assert _round_sig(0b1101, 2, sign, up) == 0b100

    @given(dyadics(max_bits=40, max_exp=40), st.integers(1, 60),
           st.sampled_from(ALL_RMS))
    def test_grid_matches_oracle(self, v, shift, rm):
        # The kernel that encode and the simulator share, dropping
        # ``shift`` bits of ``v``, lands on the oracle's grid point.
        grid = v.exp + shift
        got = Fraction(v.sign * _round_sig(v.sig, shift, v.sign, rm)) \
            * Fraction(2) ** grid
        assert got == oracle_round_to_grid(v, grid, rm)


# -- decode --------------------------------------------------------------


def struct_decode(bits: int, fmt) -> float:
    code = {16: ">e", 32: ">f", 64: ">d"}[fmt.storage_bits]
    return struct.unpack(code, bits.to_bytes(fmt.storage_bits // 8, "big"))[0]


class TestDecode:
    def test_examples(self):
        assert decode(0x3C00, B16) == ONE
        assert decode(0x0001, B16) == pow2(-24)
        assert decode(0x3F800001, B32) == ONE + pow2(-23)

    def test_specials(self):
        assert decode(0x7C00, B16) is POS_INF
        assert decode(0xFC00, B16) is NEG_INF
        assert decode(0x7E00, B16).is_nan
        assert decode(0x8000, B16) == ZERO
        assert decode(0x8000, B16).sign == -1

    @pytest.mark.parametrize("fmt", [B16, B32, B64], ids=lambda f: f.name)
    def test_against_host_codec(self, fmt):
        rng_samples = [0, 1, 2, 0x8000 % (1 << fmt.storage_bits)]
        step = max(1, (1 << fmt.storage_bits) // 4096)
        patterns = set(range(0, 1 << fmt.storage_bits, step)) | {
            (1 << fmt.storage_bits) - 1} | set(rng_samples)
        for bits in patterns:
            v = decode(bits, fmt)
            f = struct_decode(bits, fmt)
            if isinstance(v, Special):
                if v.is_nan:
                    assert math.isnan(f)
                else:
                    assert math.isinf(f) and (f > 0) == (v is POS_INF)
            elif not v.is_zero:
                assert v.as_fraction() == Fraction(f)
            else:
                assert f == 0.0

    def test_tensorfloat32_padding_ignored(self):
        base = 0x3F800000  # one, in the 32-bit container
        noisy = base | 0x1FFF  # all padding bits set
        assert decode(base, TF32) == ONE
        assert decode(noisy, TF32) == ONE


# -- encode --------------------------------------------------------------


class TestEncode:
    def test_tie_to_even(self):
        bits, inexact = encode(ONE + pow2(-24), B32, RoundingMode.RNE)
        assert bits == 0x3F800000 and inexact

    def test_round_up(self):
        bits, inexact = encode(ONE + pow2(-24), B32, RoundingMode.RU)
        assert bits == 0x3F800001 and inexact

    def test_near_two_exact(self):
        v = Dyadic.from_int(2) - pow2(-10)
        for rm in ALL_RMS:
            bits, inexact = encode(v, B16, rm)
            assert not inexact
            assert decode(bits, B16) == v

    def test_overflow_rules(self):
        huge = pow2(200)
        bits, inexact = encode(huge, B32, RoundingMode.RNE)
        assert decode(bits, B32) is POS_INF and inexact
        bits, _ = encode(huge, B32, RoundingMode.RZ)
        assert decode(bits, B32) == B32.max_finite
        bits, _ = encode(-huge, B32, RoundingMode.RU)
        assert decode(bits, B32) == -B32.max_finite
        bits, _ = encode(-huge, B32, RoundingMode.RD)
        assert decode(bits, B32) is NEG_INF

    def test_subnormal_flush_flag(self):
        ftz = FpFormat("b16ftz", precision=11, exp_bits=5, storage_bits=16,
                       subnormals=False)
        bits, inexact = encode(pow2(-24), ftz, RoundingMode.RNE)
        assert bits == 0 and inexact
        # Same value encodes exactly once subnormals are allowed.
        bits, inexact = encode(pow2(-24), B16, RoundingMode.RNE)
        assert bits == 0x0001 and not inexact

    def test_inexact_is_a_bool(self):
        ftz = FpFormat("b16ftz", precision=11, exp_bits=5, storage_bits=16,
                       subnormals=False)
        for v, fmt in [(ONE, B16), (ONE + pow2(-24), B16), (pow2(16), B16),
                       (pow2(-24), ftz), (ZERO, B16), (NAN, B16)]:
            _, inexact = encode(v, fmt)
            assert type(inexact) is bool

    def test_specials_canonical(self):
        nan_bits, _ = encode(NAN, B32)
        assert nan_bits == 0x7FC00000
        inf_bits, _ = encode(POS_INF, B16)
        assert inf_bits == 0x7C00
        ninf_bits, _ = encode(NEG_INF, B16)
        assert ninf_bits == 0xFC00


def _finite_patterns(fmt):
    if fmt.storage_bits <= 16:
        return range(1 << 16)
    if fmt is TF32:
        upper = []
        for hi in range(1 << 19):
            upper.append(hi << 13)
        return upper
    # Wide formats: all exponents with edge and pseudo-random fractions.
    frac_w = fmt.precision - 1
    fracs = {0, 1, (1 << frac_w) - 1, 1 << (frac_w - 1), 0x5A5A5 % (1 << frac_w)}
    out = []
    for sign in (0, 1):
        for e in range(1 << fmt.exp_bits):
            for f in fracs:
                out.append((sign << (fmt.storage_bits - 1))
                           | (e << (frac_w + fmt.pad_bits))
                           | (f << fmt.pad_bits))
    return out


@pytest.mark.parametrize("fmt", [B16, BF16, TF32, B32, B64],
                         ids=lambda f: f.name)
def test_roundtrip_all_finite_patterns(fmt):
    """encode(decode(b)) == b for every finite pattern, under every mode."""
    for bits in _finite_patterns(fmt):
        v = decode(bits, fmt)
        if isinstance(v, Special):
            continue
        for rm in ALL_RMS:
            back, inexact = encode(v, fmt, rm)
            assert back == bits and not inexact, (hex(bits), rm)


B16_FTZ = FpFormat("binary16-ftz", precision=11, exp_bits=5, storage_bits=16,
                   subnormals=False)
E5M2 = FpFormat("e5m2", precision=3, exp_bits=5, storage_bits=8)
_AWAY = {(RoundingMode.RU, 1), (RoundingMode.RD, -1)}


def _value_table(fmt):
    """Every non-negative finite value of ``fmt`` in pattern order, then
    2^(emax+1) standing in for the all-ones-exponent pattern after them."""
    last = ((1 << fmt.exp_bits) - 1) << (fmt.precision - 1)
    return [decode(bits, fmt) for bits in range(last)] + [pow2(fmt.emax + 1)]


def _oracle(table, mag, lo, sign, rm):
    """Expected (magnitude pattern, inexact) for ``sign * mag``, where
    ``table[lo] <= mag < table[lo + 1]`` or ``mag`` is past the table."""
    last = len(table) - 1
    if mag.as_fraction() >= table[last].as_fraction():
        pick = last
    elif mag == table[lo]:
        return lo, False
    elif rm is RoundingMode.RNE:
        below = (mag - table[lo]).as_fraction()
        above = (table[lo + 1] - mag).as_fraction()
        if below == above:  # a tie goes to the even pattern
            pick = lo if lo % 2 == 0 else lo + 1
        else:
            pick = lo if below < above else lo + 1
    else:
        pick = lo + 1 if (rm, sign) in _AWAY else lo
    if pick < last:
        return pick, True
    to_inf = rm is RoundingMode.RNE or (rm, sign) in _AWAY
    return last if to_inf else last - 1, True


def _oracle_points(table, fmt):
    """(magnitude, index of the table value at or below it) test points:
    the values and quarter points between neighbours around every power
    of two, the largest subnormal and a seeded sample, then values at and
    past 2^(emax+1)."""
    last = len(table) - 1
    largest_subnormal = (1 << (fmt.precision - 1)) - 1
    lows = {largest_subnormal - 1, largest_subnormal}
    for i, v in enumerate(table):
        if v.sig == 1:
            lows |= {i - 1, i} if i < last else {i - 1}
    lows |= set(random.Random(fmt.name).sample(range(last), min(300, last)))
    points = []
    for i in sorted(lows):
        gap = table[i + 1] - table[i]
        for quarter in range(4):
            points.append((table[i] + gap * Dyadic.make(1, quarter, -2), i))
    beyond = pow2(fmt.emax + 1)
    points += [(beyond, last), (beyond + pow2(fmt.emax), last),
               (pow2(fmt.emax + 64), last)]
    return points


@pytest.mark.parametrize("fmt", [B16, BF16, B16_FTZ, E5M2],
                         ids=lambda f: f.name)
def test_encode_matches_value_table(fmt):
    """``encode`` agrees with the format's own decoded values at binade
    edges, ties, the subnormal range and past the largest finite value.

    A format without subnormals expects its subnormal twin's result, or
    a signed zero flushed from a nonzero value below the smallest normal.
    """
    twin = dataclasses.replace(fmt, subnormals=True)
    table = _value_table(twin)
    min_normal = 1 << (fmt.precision - 1)
    bad = []
    for mag, lo in _oracle_points(table, twin):
        for sign in (1, -1):
            v = mag if sign > 0 else -mag
            sign_bit = (1 << (fmt.storage_bits - 1)) if sign < 0 else 0
            for rm in ALL_RMS:
                pattern, inexact = _oracle(table, mag, lo, sign, rm)
                if not fmt.subnormals and mag.sig and pattern < min_normal:
                    pattern, inexact = 0, True
                want = (sign_bit | pattern, inexact)
                got = encode(v, fmt, rm)
                if got != want:
                    bad.append((v, rm, got, want))
    assert not bad, bad[:5]


def oracle_encode(v: Dyadic, fmt: FpFormat, rm: RoundingMode):
    """Expected (value, inexact) of a nonzero ``v`` in ``fmt``: ``v`` rounded
    by the Fraction oracle on its binade's grid, then overflowed or flushed
    by the format's range; the value is a ``Special`` or a ``Fraction``."""
    grid = max(v.floor_log2, fmt.emin) - (fmt.precision - 1)
    r = oracle_round_to_grid(v, grid, rm)
    if abs(r) >= Fraction(2) ** (fmt.emax + 1):
        if rm is RoundingMode.RNE or (rm, v.sign) in _AWAY:
            r = POS_INF if v.sign > 0 else NEG_INF
        else:
            r = v.sign * fmt.max_finite.as_fraction()
        return r, True
    if abs(r) < Fraction(2) ** fmt.emin and not fmt.subnormals:
        return Fraction(0), True
    return r, r != v.as_fraction()


def _check_encode(fmt, v, rm) -> None:
    want, want_inexact = oracle_encode(v, fmt, rm)
    bits, inexact = encode(v, fmt, rm)
    got = decode(bits, fmt)
    assert inexact is want_inexact
    if isinstance(want, Special):
        assert got is want
    else:
        assert got.as_fraction() == want
    # The sign survives rounding to zero and overflow; padding stays zero.
    assert bits >> (fmt.storage_bits - 1) == (v.sign < 0)
    assert bits & ((1 << fmt.pad_bits) - 1) == 0


@st.composite
def encode_cases(draw):
    """A nonzero value whose leading bit lies anywhere from below the
    smallest subnormal to past the largest finite value of the format."""
    fmt = draw(st.sampled_from([B16, BF16, TF32, B32, B16_FTZ, E5M2]))
    p = fmt.precision
    sig = draw(st.integers(1, (1 << (p + 6)) - 1))
    lead = draw(st.integers(fmt.emin - p - 1, fmt.emax + 1))
    sign = draw(st.sampled_from((1, -1)))
    return (fmt, Dyadic.make(sign, sig, lead - sig.bit_length() + 1),
            draw(st.sampled_from(ALL_RMS)))


@settings(derandomize=True, max_examples=1500)
@given(encode_cases())
def test_encode_matches_fraction_oracle(case):
    _check_encode(*case)


_ENCODE_EDGES = [
    # Every bit kept rounds up: 2 - 2^-11 carries into the next binade.
    ("carry", B16, Dyadic.make(1, (1 << 12) - 1, -11), RoundingMode.RNE),
    ("carry", B16, -Dyadic.make(1, (1 << 12) - 1, -11), RoundingMode.RD),
    # Half an ulp above the largest subnormal ties up to the smallest normal.
    ("carry", B16, Dyadic.make(1, (1 << 11) - 1, -25), RoundingMode.RNE),
    ("subnormal", B16, Dyadic.make(1, 5, -26), RoundingMode.RZ),
    ("subnormal", B16, -Dyadic.make(1, 3, -26), RoundingMode.RD),
    ("subnormal", TF32, Dyadic.make(1, 3, -140), RoundingMode.RU),
    ("flush", B16_FTZ, Dyadic.make(1, 5, -26), RoundingMode.RZ),
    ("flush", B16_FTZ, -pow2(-30), RoundingMode.RD),
    ("flush", B16_FTZ, Dyadic.make(1, (1 << 11) - 1, -25), RoundingMode.RZ),
] + [("overflow", B16, sign * pow2(16), rm)
     for rm in ALL_RMS for sign in (ONE, -ONE)] + [
    # Half an ulp past the largest finite value overflows only by rounding.
    ("overflow", BF16, sign * Dyadic.make(1, 511, 119), rm)
    for sign, rm in ((ONE, RoundingMode.RNE), (ONE, RoundingMode.RU),
                     (-ONE, RoundingMode.RD))]


@pytest.mark.parametrize("kind,fmt,v,rm", _ENCODE_EDGES,
                         ids=[f"{k}-{f.name}-{v!r}-{rm.value}"
                              for k, f, v, rm in _ENCODE_EDGES])
def test_encode_edges_match_fraction_oracle(kind, fmt, v, rm):
    _check_encode(fmt, v, rm)
    bits, _ = encode(v, fmt, rm)
    got = decode(bits, fmt)
    if kind == "carry":
        assert got.floor_log2 > v.floor_log2
    elif kind == "subnormal":
        assert not got.is_zero and got.floor_log2 < fmt.emin
    elif kind == "overflow":
        assert type(got) is Special or got in (fmt.max_finite,
                                               -fmt.max_finite)
    else:
        assert got.is_zero


def test_hex_rendering():
    assert bits_to_hex(0x3C00, B16) == "3c00"
    assert bits_to_hex(0x1, B32) == "00000001"
    assert hex_to_bits("3C00", B16) == 0x3C00
    assert hex_to_bits("0x3c00", B16) == 0x3C00
    with pytest.raises(ValueError):
        hex_to_bits("3c0", B16)


def test_registry_layout():
    assert B16.precision == 11 and B16.exp_bits == 5
    assert BF16.precision == 8 and BF16.exp_bits == 8
    assert TF32.precision == 11 and TF32.exp_bits == 8
    assert TF32.storage_bits == 32 and TF32.pad_bits == 13
    assert B32.precision == 24 and B32.exp_bits == 8
    assert B64.precision == 53 and B64.exp_bits == 11
    assert lookup_format("tf32") is TF32
    assert lookup_format("binary16") is B16
    with pytest.raises(KeyError):
        lookup_format("binary8")


@pytest.mark.parametrize("name,fmt", [
    ("BFloat16", BF16), ("TENSORFLOAT32", TF32), ("TensorFloat32", TF32),
    ("FP16", B16), ("Double", B64)])
def test_lookup_format_ignores_case(name, fmt):
    assert lookup_format(name) is fmt
