"""Block-FMA model tests: published behaviours, oracle equivalence, bounds."""

import hashlib
import random
from dataclasses import fields, replace

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
    RoundingMode,
    Special,
    decode,
    pow2,
)
from mmaprobe.simulator import (
    AlignmentPolicy,
    BlockFmaConfig,
    CarryOverflow,
    CarryOverflowError,
    FormatContract,
    NormPolicy,
    Ordering,
    SizeContract,
    block_fma,
    config_from_text,
    config_to_text,
    exact_oracle,
    exact_products,
    max_detectable_carry_bits,
    mma_dot,
)
from reference_unit import reference_dot
from test_formats import oracle_round_to_grid, to_b32

B16 = REGISTRY["binary16"]
B32 = REGISTRY["binary32"]
ONES = ONE


def cfgd(**kw) -> BlockFmaConfig:
    return BlockFmaConfig(**{"fma_width": 8, "n_eab": 1, "n_ecb": 3, **kw})


class TestExactProducts:
    def test_narrow_output_allows_exact_values(self):
        # p_out < 2*p_in: fine as long as actual products stay exact.
        exact_products([Dyadic.from_int(3)], [ONE], B16, B16)
        big = Dyadic.from_int(2) - pow2(-10)
        with pytest.raises(FormatContract):
            exact_products([big], [big], B16, B16)

    def test_strict_pair_never_raises(self):
        # 2*p_in <= p_out: the check returns before forming any product,
        # even one wider than p_out from operands decode never yields.
        wide = ONE + pow2(-20)
        assert (wide * wide).bit_count > B32.precision
        exact_products([wide], [wide], B16, B32)

    def test_narrow_pair_skips_specials(self):
        big = Dyadic.from_int(2) - pow2(-10)
        exact_products([NAN, POS_INF, big], [big, big, ONE], B16, B16)
        exact_products([big, NEG_INF], [NAN, ZERO], B16, B16)
        with pytest.raises(FormatContract, match="needs more than 11 bits"):
            exact_products([NAN, big, POS_INF], [big, big, big], B16, B16)


class TestBlockFma:
    def test_tiny_product_truncated(self):
        # Addend two plus a product of three quarters of 2^-22 stays two.
        cfg = cfgd(n_eab=0)
        r = Dyadic.make(1, 3, -24)
        assert block_fma(Dyadic.from_int(2), [r], [ONE], cfg, B32) \
            == Dyadic.from_int(2)
        assert block_fma(Dyadic.from_int(-2), [-r], [ONE], cfg, B32) \
            == Dyadic.from_int(-2)

    def test_one_extra_alignment_bit_keeps_pair(self):
        cfg = cfgd(n_eab=1)
        d = block_fma(ONE, [pow2(-24)] * 2, [ONE] * 2, cfg, B32)
        assert d == ONE + pow2(-23)

    def test_empty_products(self):
        assert block_fma(ZERO, [], [], cfgd(), B32) == ZERO

    def test_immediate_vs_deferred_timing(self):
        rr = pow2(-21) + pow2(-24)
        c = ONE - pow2(-21)
        imm = cfgd(norm_policy=NormPolicy.IMMEDIATE, rm_intra=RoundingMode.RNE)
        dfr = cfgd(rm_intra=RoundingMode.RNE)
        assert block_fma(c, [rr] * 2, [ONE] * 2, imm, B32) == ONE + pow2(-21)
        assert block_fma(c, [rr] * 2, [ONE] * 2, dfr, B32) \
            == ONE + pow2(-21) + pow2(-23)

    def test_carry_only_timing(self):
        c = Dyadic.from_int(2) - pow2(-23)
        r = pow2(-23)
        imm = cfgd(n_eab=0, norm_policy=NormPolicy.IMMEDIATE)
        dfr = cfgd(n_eab=0)
        assert block_fma(c, [r] * 3, [ONE] * 3, imm, B32) == Dyadic.from_int(2)
        assert block_fma(c, [r] * 3, [ONE] * 3, dfr, B32) \
            == Dyadic.from_int(2) + pow2(-22)

    def test_width_contract(self):
        with pytest.raises(SizeContract):
            block_fma(ZERO, [ONE] * 9, [ONE] * 9, cfgd(), B32)

    def test_special_propagation(self):
        cfg = cfgd()
        assert block_fma(POS_INF, [ONE], [ONE], cfg, B32) is POS_INF
        assert block_fma(ONE, [POS_INF], [ONE], cfg, B32) is POS_INF
        assert block_fma(NEG_INF, [POS_INF], [ONE], cfg, B32).is_nan
        assert block_fma(ONE, [POS_INF], [ZERO], cfg, B32).is_nan
        assert block_fma(NAN, [ONE], [ONE], cfg, B32).is_nan

    def test_signed_zero(self):
        cfg = cfgd()
        d = block_fma(ZERO, [ZERO], [ONE], cfg, B32)
        assert d.is_zero and d.sign == 1
        from mmaprobe.formats import NEG_ZERO
        d = block_fma(NEG_ZERO, [NEG_ZERO], [ONE], cfg, B32)
        assert d.is_zero and d.sign == -1
        # Exact cancellation gives the positive zero.
        d = block_fma(ONE, [-ONE], [ONE], cfg, B32)
        assert d.is_zero and d.sign == 1

    def test_carry_overflow_modes(self):
        # Two near-two addends exceed a zero-headroom accumulator.
        c = Dyadic.from_int(2) - pow2(-10)
        r = Dyadic.from_int(2) - pow2(-10)
        base = dict(fma_width=2, n_eab=0, n_ecb=0)
        exact = exact_oracle(c, [r], [ONE])
        wrap = block_fma(c, [r], [ONE],
                         BlockFmaConfig(**base), B32)
        assert wrap != to_b32(exact, RoundingMode.TRUNCATE)
        sat = block_fma(c, [r], [ONE],
                        BlockFmaConfig(**base,
                                       carry_overflow=CarryOverflow.SATURATE),
                        B32)
        assert sat != wrap
        with pytest.raises(CarryOverflowError):
            block_fma(c, [r], [ONE],
                      BlockFmaConfig(**base,
                                     carry_overflow=CarryOverflow.ERROR),
                      B32)
        # One extra carry bit absorbs it exactly.
        ok = block_fma(c, [r], [ONE],
                       BlockFmaConfig(fma_width=2, n_eab=0, n_ecb=1,
                                      carry_overflow=CarryOverflow.ERROR),
                       B32)
        assert ok == to_b32(exact, RoundingMode.TRUNCATE)


class TestExactOracle:
    def test_examples(self):
        assert exact_oracle(ONE + pow2(-23), [ONE, pow2(-23)], [ONE, ONE]) \
            == Dyadic.from_int(2) + pow2(-22)
        assert exact_oracle(ZERO, [], []) == ZERO

    def test_carry_vector_sum(self):
        big = Dyadic.from_int(2) - pow2(-10)
        c = big + pow2(-23)
        got = exact_oracle(c, [big, pow2(-23)], [ONE, ONE])
        assert got == Dyadic.from_int(2) * big + pow2(-22)


class TestMmaDot:
    def test_interblock_truncation(self):
        cfg = cfgd()
        a = [ZERO] * 9
        b = [ZERO] * 9
        a[8] = pow2(-24) + pow2(-25)
        b[8] = ONE
        d = mma_dot(ONE + pow2(-23), a, b, cfg, B32)
        assert d == ONE + pow2(-23)
        d = mma_dot(ONE + pow2(-23), a, b,
                    replace(cfg, rm_inter=RoundingMode.RNE), B32)
        assert d == ONE + pow2(-22)

    def test_ordering_outcomes(self):
        a = [ZERO] * 16
        b = [ZERO] * 16
        a[0], b[0] = Dyadic.from_int(-1), ONE
        a[8], b[8] = pow2(-27), ONE
        cfg = cfgd()
        assert mma_dot(ONE, a, b, cfg, B32) == pow2(-27)
        assert mma_dot(ONE, a, b,
                       replace(cfg, ordering=Ordering.TREE_THEN_C),
                       B32) == ZERO
        assert mma_dot(ONE, a, b,
                       replace(cfg, ordering=Ordering.C_WITH_LAST),
                       B32) == ZERO

    @pytest.mark.parametrize("ordering", list(Ordering),
                             ids=lambda o: o.value)
    def test_specials_meet_in_block_combine(self, ordering):
        # Width one gives each product a block of its own, so the special
        # values below meet when block results combine.
        cfg = cfgd(fma_width=1, ordering=ordering)
        cases = [
            (ZERO, [ONE, POS_INF], [ONE, ONE], POS_INF),
            (ZERO, [POS_INF, NEG_INF], [ONE, ONE], NAN),
            (NEG_INF, [ONE, POS_INF], [ONE, ONE], NAN),
            (ZERO, [ONE, NAN], [ONE, ONE], NAN),
            (ZERO, [ONE, POS_INF], [ONE, ZERO], NAN),
        ]
        for c, a, b, want in cases:
            assert mma_dot(c, a, b, cfg, B32) is want, (c, a, b)

    @pytest.mark.parametrize("ordering", list(Ordering),
                             ids=lambda o: o.value)
    def test_specials_in_different_blocks(self, ordering):
        # Width two, two blocks: each special sits in a block of its own,
        # with finite company, and the addend is finite.
        cfg = cfgd(fma_width=2, blocks_per_tile=2, ordering=ordering)
        cases = [
            ([NAN, ONE, POS_INF, ONE], [ONE] * 4, NAN),
            ([ONE, POS_INF, ONE, NAN], [ONE] * 4, NAN),
            ([POS_INF, ONE, NEG_INF, ONE], [ONE] * 4, NAN),
            ([ONE, NEG_INF, POS_INF, ONE], [ONE] * 4, NAN),
            ([POS_INF, ONE, ONE, ONE], [ZERO, ONE, ONE, ONE], NAN),
            ([ONE, ONE, ONE, ZERO], [ONE, ONE, ONE, NEG_INF], NAN),
            ([POS_INF, ONE, ONE, POS_INF], [ONE, ONE, ONE, ONE], POS_INF),
            ([ONE, ONE, NEG_INF, ONE], [ONE, ONE, ONE, ONE], NEG_INF),
        ]
        for c in (ZERO, ONE):
            for a, b, want in cases:
                assert mma_dot(c, a, b, cfg, B32) is want, (c, a, b)
        # The addend's own infinity meets a product's in the other block.
        assert mma_dot(NEG_INF, [ONE, ONE, POS_INF, ONE], [ONE] * 4,
                       cfg, B32) is NAN
        assert mma_dot(POS_INF, [ONE, ONE, POS_INF, ONE], [ONE] * 4,
                       cfg, B32) is POS_INF

    @pytest.mark.parametrize("ordering", list(Ordering),
                             ids=lambda o: o.value)
    def test_negative_zero_sum_per_block_layout(self, ordering):
        # A -0 addend and -0 products: -0 survives only when the addend's
        # block is the one and only block.  TreeThenC adds c to a block
        # result started from +0, and a second block starts from +0.
        cfg = cfgd(fma_width=2, blocks_per_tile=2, ordering=ordering)
        one_block = mma_dot(NEG_ZERO, [NEG_ZERO, ZERO], [ONE, -ONE],
                            cfg, B32)
        two_blocks = mma_dot(NEG_ZERO, [NEG_ZERO, ZERO, NEG_ZERO],
                             [ONE, -ONE, ONE], cfg, B32)
        empty = mma_dot(NEG_ZERO, [], [], cfg, B32)
        tree = ordering is Ordering.TREE_THEN_C
        for d, want_sign in ((one_block, 1 if tree else -1),
                             (empty, 1 if tree else -1),
                             (two_blocks, 1)):
            assert d.is_zero and d.sign == want_sign, (d, want_sign)
        # One +0 product or a +0 addend gives +0 in every layout.
        d = mma_dot(NEG_ZERO, [NEG_ZERO, ZERO], [ONE, ONE], cfg, B32)
        assert d.is_zero and d.sign == 1
        d = mma_dot(ZERO, [NEG_ZERO], [ONE], cfg, B32)
        assert d.is_zero and d.sign == 1

    @pytest.mark.parametrize("ordering", list(Ordering),
                             ids=lambda o: o.value)
    def test_finite_block_overflow_raises_beside_a_special(self, ordering):
        # Each block's headroom is checked on its own, so a finite block
        # that overflows raises even when the other block holds a NaN.
        big = Dyadic.from_int(2) - pow2(-10)
        cfg = BlockFmaConfig(fma_width=2, n_eab=0, n_ecb=0,
                             ordering=ordering,
                             carry_overflow=CarryOverflow.ERROR)
        with pytest.raises(CarryOverflowError):
            mma_dot(ZERO, [big, big, NAN, ONE], [ONE] * 4, cfg, B32)
        with pytest.raises(CarryOverflowError):
            mma_dot(ZERO, [NAN, ONE, big, big], [ONE] * 4, cfg, B32)
        # The overflowing pair shares its block with the special: no check.
        assert mma_dot(ZERO, [big, POS_INF, big, ONE], [big, ONE, ONE, ZERO],
                       cfg, B32) is POS_INF

    def test_length_mismatch(self):
        with pytest.raises(SizeContract):
            mma_dot(ZERO, [ONE], [], cfgd(), B32)

    def test_tile_bound(self):
        cfg = cfgd(blocks_per_tile=2)
        with pytest.raises(SizeContract):
            mma_dot(ZERO, [ONE] * 17, [ONE] * 17, cfg, B32)

    def test_zero_block_neutral(self):
        cfg = cfgd()
        a = [ONE] + [ZERO] * 15
        b = [ONE] + [ZERO] * 15
        assert mma_dot(ZERO, a, b, cfg, B32) == ONE


# -- model-level properties ----------------------------------------------


def random_inputs(rng, k, p_in=11, span=6):
    """Random fin-exact operand pairs and a fout-exact addend."""
    def operand():
        sig = rng.randrange(1, 1 << p_in)
        exp = rng.randrange(-span, span) - (sig.bit_length() - 1)
        sign = rng.choice((1, -1))
        return Dyadic.make(sign, sig, exp)

    a = [operand() for _ in range(k)]
    b = [Dyadic(1, 1, rng.randrange(-span, span)) for _ in range(k)]
    c_sig = rng.randrange(0, 1 << 24)
    c = Dyadic.make(rng.choice((1, -1)), c_sig,
                    rng.randrange(-span, span) - 23)
    return c, a, b


ALL_RMS = (RoundingMode.TRUNCATE, RoundingMode.RNE, RoundingMode.RU,
           RoundingMode.RD)


def test_oracle_equivalence_with_oversized_accumulator():
    """Wide-enough alignment and headroom make blocks exactly ideal."""
    rng = random.Random(20240901)
    for trial in range(2000):
        k = rng.randrange(0, 9)
        rm = rng.choice(ALL_RMS)
        cfg = BlockFmaConfig(fma_width=8, n_eab=9 * 24, n_ecb=9 * 24,
                             rm_intra=rm)
        c, a, b = random_inputs(rng, k)
        got = block_fma(c, a, b, cfg, B32)
        want = to_b32(exact_oracle(c, a, b), rm)
        assert got == want, (trial, c, a, b, rm)


def test_alignment_truncation_bound():
    """Each aligned addend loses under one grid step; the final rounding
    can add at most one ulp of the result on top of that."""
    rng = random.Random(77)
    for _ in range(1500):
        k = rng.randrange(1, 9)
        n_eab = rng.randrange(0, 3)
        rm = rng.choice(ALL_RMS)
        cfg = BlockFmaConfig(fma_width=8, n_eab=n_eab, n_ecb=5, rm_intra=rm)
        c, a, b = random_inputs(rng, k)
        exact = exact_oracle(c, a, b)
        got = block_fma(c, a, b, cfg, B32)
        ideal = to_b32(exact, rm)
        addends = [c] + [x * y for x, y in zip(a, b)]
        live = [v for v in addends if not v.is_zero]
        if not live:
            continue
        ref = max(v.floor_log2 for v in live)
        grid = ref - 24 + 1 - n_eab
        bound = Dyadic.make(1, k + 1, grid)
        # Aligned-versus-exact accumulation obeys the strict bound.
        truncated = [oracle_round_to_grid(v, grid, RoundingMode.TRUNCATE)
                     for v in addends]
        assert abs(sum(truncated) - exact.as_fraction()) \
            <= bound.as_fraction()
        # Per-addend alignment truncation never rounds a value up.
        for t, v in zip(truncated, addends):
            assert abs(t) <= abs(v.as_fraction())
        # After the single output rounding, one result ulp may be added.
        ulp = pow2(got.floor_log2 - 23) if not got.is_zero else \
            pow2(grid)
        assert abs((got - ideal).as_fraction()) \
            <= (bound + ulp).as_fraction()


def test_block_order_invariance_deferred():
    rng = random.Random(123)
    for _ in range(500):
        k = rng.randrange(2, 9)
        cfg = BlockFmaConfig(fma_width=8, n_eab=rng.randrange(0, 3), n_ecb=4,
                             rm_intra=rng.choice(ALL_RMS))
        c, a, b = random_inputs(rng, k)
        d1 = block_fma(c, a, b, cfg, B32)
        order = list(range(k))
        rng.shuffle(order)
        d2 = block_fma(c, [a[i] for i in order], [b[i] for i in order],
                       cfg, B32)
        assert d1 == d2


def test_sign_symmetry():
    rng = random.Random(9)
    swap = {RoundingMode.RU: RoundingMode.RD, RoundingMode.RD: RoundingMode.RU}
    for _ in range(800):
        k = rng.randrange(0, 9)
        rm = rng.choice(ALL_RMS)
        cfg = BlockFmaConfig(fma_width=8, n_eab=rng.randrange(0, 3),
                             n_ecb=4, rm_intra=rm,
                             norm_policy=rng.choice(list(NormPolicy)))
        c, a, b = random_inputs(rng, k)
        d = block_fma(c, a, b, cfg, B32)
        mirror = replace(cfg, rm_intra=swap.get(rm, rm))
        d_neg = block_fma(-c, [-x for x in a], b, mirror, B32)
        assert d_neg == -d or (d.is_zero and d_neg.is_zero)


def test_immediate_never_overflows_headroom():
    rng = random.Random(31)
    for _ in range(500):
        k = rng.randrange(1, 9)
        cfg = BlockFmaConfig(fma_width=8, n_eab=rng.randrange(0, 2), n_ecb=0,
                             norm_policy=NormPolicy.IMMEDIATE,
                             rm_intra=rng.choice(ALL_RMS),
                             carry_overflow=CarryOverflow.ERROR)
        c, a, b = random_inputs(rng, k)
        block_fma(c, a, b, cfg, B32)  # must not raise


# -- carry-bit arithmetic -------------------------------------------------


def oracle_detectable_bits(k: int, p_in: int) -> int:
    """Direct evaluation of floor(log2(k * (2 - 2^(1 - p_in))))."""
    from fractions import Fraction
    x = Fraction(k) * (2 - Fraction(1, 1 << (p_in - 1)))
    n = 0
    while Fraction(2) ** (n + 1) <= x:
        n += 1
    return n


@pytest.mark.parametrize("k,p_in,expected", [
    (8, 11, 3), (8, 8, 3), (4, 11, 2), (2, 11, 1), (1, 11, 0), (16, 11, 4),
    (3, 8, 2), (16, 8, 4),
])
def test_detectable_carry_bits_values(k, p_in, expected):
    assert max_detectable_carry_bits(k, p_in) == expected
    assert oracle_detectable_bits(k, p_in) == expected


@given(st.integers(1, 400), st.integers(2, 30))
def test_detectable_carry_bits_matches_oracle(k, p_in):
    assert max_detectable_carry_bits(k, p_in) == oracle_detectable_bits(k, p_in)


# -- config serialization -------------------------------------------------


def test_config_round_trip():
    cfg = BlockFmaConfig(fma_width=4, n_eab=2, n_ecb=1,
                         alignment_policy=AlignmentPolicy.RNE,
                         norm_policy=NormPolicy.IMMEDIATE,
                         rm_intra=RoundingMode.RU,
                         rm_inter=RoundingMode.RD,
                         ordering=Ordering.TREE_THEN_C,
                         blocks_per_tile=4,
                         carry_overflow=CarryOverflow.SATURATE)
    assert config_from_text(config_to_text(cfg)) == cfg


def test_config_parse_errors():
    for text, message in [
        ("fma_width = 8\nnope = 1\n", "line 2: unknown config key 'nope'"),
        ("rm_intra = sideways\n",
         "line 1: rm_intra must be one of RNE, RZ, RU, RD, TruncateMagnitude"),
        ("ordering = Sideways\n",
         "line 1: ordering must be one of CFirst, TreeThenC, CWithLast"),
        ("fma_width 8\n", "line 1: expected 'key = value'"),
        ("n_ecb = three\n", "invalid literal for int() with base 10: 'three'"),
        ("fma_width = 0\n", "fma_width must be >= 1"),
        ("n_eab = -1\n", "extra bit counts must be >= 0"),
        ("blocks_per_tile = 0\n", "blocks_per_tile must be >= 1"),
    ]:
        with pytest.raises(ValueError) as e:
            config_from_text(text)
        assert str(e.value) == message


def test_config_text_has_one_line_per_field():
    lines = config_to_text(BlockFmaConfig()).splitlines()
    assert sorted(line.partition(" = ")[0] for line in lines) == \
        sorted(f.name for f in fields(BlockFmaConfig))


def test_config_comments_and_blanks():
    cfg = config_from_text("# comment\n\nfma_width = 2  # trailing\n")
    assert cfg.fma_width == 2


# -- pinned outputs over configurations off the selftest grid -------------

# sha256 of the ``mma_dot`` outputs below (``repr`` of the value, or the
# name of the exception raised), joined by newlines.
MMA_DOT_PIN_SHA256 = \
    "4aa76fcb68321e837cb3b3516941a99f97a4a149be23e87784fbd4f41f4890b4"

PIN_PAIRS = [(REGISTRY[i], REGISTRY[o]) for i, o in (
    ("binary16", "binary32"), ("bfloat16", "binary32"),
    ("TensorFloat32", "binary32"), ("binary16", "binary16"))]


def pin_value(rng, fmt, centre, specials, spread=5):
    """A random ``fmt`` value: mostly normals whose biased exponent lies
    within ``spread`` of ``centre``, plus zeros of both signs, subnormals
    and, when ``specials``, an occasional NaN or infinity."""
    frac_w = fmt.precision - 1
    top = (1 << fmt.exp_bits) - 1
    roll = rng.random()
    if specials and roll < 0.05:
        biased = top
    elif roll < 0.15:
        biased = 0
    else:
        biased = min(max(centre + rng.randrange(-spread, spread + 1), 1),
                     top - 1)
    frac = rng.randrange(1 << frac_w) if rng.random() < 0.7 else 0
    if biased == top and rng.random() < 0.7:
        frac = 0  # infinities more often than NaN
    bits = (rng.getrandbits(1) << (fmt.storage_bits - 1)) \
        | (((biased << frac_w) | frac) << fmt.pad_bits)
    return decode(bits, fmt)


def pin_case(rng):
    cfg = BlockFmaConfig(
        fma_width=rng.randrange(1, 17), n_eab=rng.randrange(0, 4),
        n_ecb=rng.randrange(0, 5), blocks_per_tile=rng.randrange(1, 5),
        alignment_policy=rng.choice(list(AlignmentPolicy)),
        norm_policy=rng.choice(list(NormPolicy)),
        rm_intra=rng.choice(list(RoundingMode)),
        rm_inter=rng.choice(list(RoundingMode)),
        ordering=rng.choice(list(Ordering)),
        carry_overflow=rng.choice(list(CarryOverflow)))
    fin, fout = rng.choice(PIN_PAIRS)
    k = rng.randrange(cfg.max_k + 1)
    mode = rng.random()
    specials = mode < 0.15
    # Near the bottom of the exponent range products meet the subnormals.
    centre = rng.choice((fin.emax, fin.emax, 1, 3))
    a = [pin_value(rng, fin, centre, specials) for _ in range(k)]
    b = [pin_value(rng, fin, fin.emax, specials) for _ in range(k)]
    c = pin_value(rng, fout, fout.emax + 2 * (centre - fin.emax), specials)
    if mode > 0.9:
        # Signed zeros only: the sign rule of an all-zero sum decides.
        a = [rng.choice((ZERO, NEG_ZERO)) for _ in range(k)]
        c = rng.choice((ZERO, NEG_ZERO))
    elif mode > 0.8:
        # Same-sign products on one binade: the carry headroom fills up.
        a = [Dyadic.make(1, x.sig, x.exp) if isinstance(x, Dyadic) else x
             for x in a]
        b = [ONE] * k
    return c, a, b, cfg, fout


def pin_output(case) -> str:
    try:
        return repr(mma_dot(*case))
    except CarryOverflowError as e:
        return type(e).__name__


def test_mma_dot_outputs_pinned():
    rng = random.Random(14)
    outs = [pin_output(pin_case(rng)) for _ in range(4000)]
    # The sample reaches each kind of output the grid digest cannot.
    for kind in ("NaN", "+Inf", "-Inf", "-0", "0", "CarryOverflowError"):
        assert kind in outs, kind
    digest = hashlib.sha256("\n".join(outs).encode()).hexdigest()
    assert digest == MMA_DOT_PIN_SHA256


# -- an independent reading of the unit -----------------------------------

REFERENCE_PAIRS = [(REGISTRY[i], REGISTRY[o]) for i, o in (
    ("binary16", "binary32"), ("bfloat16", "binary32"),
    ("TensorFloat32", "binary32"), ("binary16", "binary16"),
    ("bfloat16", "binary16"))]


@st.composite
def reference_units(draw):
    """A unit off every axis of ``BlockFmaConfig``, a format pair and the
    seed of its requests."""
    cfg = BlockFmaConfig(
        fma_width=draw(st.sampled_from((1, 2, 3, 4, 5, 8, 12, 16))),
        n_eab=draw(st.integers(0, 3)), n_ecb=draw(st.integers(0, 4)),
        alignment_policy=draw(st.sampled_from(list(AlignmentPolicy))),
        norm_policy=draw(st.sampled_from(list(NormPolicy))),
        rm_intra=draw(st.sampled_from(list(RoundingMode))),
        rm_inter=draw(st.sampled_from(list(RoundingMode))),
        ordering=draw(st.sampled_from(list(Ordering))),
        blocks_per_tile=draw(st.integers(1, 4)),
        carry_overflow=draw(st.sampled_from(list(CarryOverflow))))
    fin, fout = draw(st.sampled_from(REFERENCE_PAIRS))
    return cfg, fin, fout, draw(st.integers(0, 1 << 32))


REFERENCE_SHAPES = ("dense", "live-ends", "one-binade", "signed-zeros")


def reference_request(rng, cfg, fin, fout, shape):
    """One request that follows the wire contract: operands decoded from
    ``fin``, ``c`` from ``fout``, and only products that
    ``exact_products`` accepts."""
    k = rng.randint(0, cfg.max_k)
    # A full block beside a special still checks its headroom.
    specials = rng.random() < (0.5 if shape == "one-binade" else 0.2)
    centre = rng.randrange(-6, 7)
    spread = 0 if shape == "one-binade" else 4
    a = [pin_value(rng, fin, fin.emax + centre, specials, spread)
         for _ in range(k)]
    b = [pin_value(rng, fin, fin.emax, specials) for _ in range(k)]
    c = pin_value(rng, fout, fout.emax + 2 * centre + rng.randrange(-3, 4),
                  specials)
    if shape == "live-ends":
        # The width scan's shape: live first and last products, zeros
        # (of either sign) between them.
        a[1:-1] = [rng.choice((ZERO, NEG_ZERO)) for _ in a[1:-1]]
    elif shape == "one-binade":
        # Same-sign products on one binade fill the carry headroom.
        a = [Dyadic.make(1, x.sig, x.exp) if type(x) is Dyadic else x
             for x in a]
        b = [ONE] * k
    elif shape == "signed-zeros":
        # The sign rule of an all-zero sum decides.
        a = [rng.choice((ZERO, NEG_ZERO)) for _ in a]
        c = rng.choice((ZERO, NEG_ZERO))
    for i, (x, y) in enumerate(zip(a, b)):
        if type(x) is Dyadic and type(y) is Dyadic \
                and (x.sig * y.sig).bit_length() > fout.precision:
            b[i] = Dyadic(y.sign, 1, y.floor_log2)  # a power of two
    exact_products(a, b, fin, fout)
    return c, a, b


def reference_output(fn, *args):
    try:
        v = fn(*args)
    except CarryOverflowError:
        return "CarryOverflowError"
    return v if type(v) is Special else (v.sign, v.sig, v.exp)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(reference_units())
def test_mma_dot_matches_reference_unit(unit):
    cfg, fin, fout, seed = unit
    rng = random.Random(seed)
    for _ in range(2):
        for shape in REFERENCE_SHAPES:
            c, a, b = reference_request(rng, cfg, fin, fout, shape)
            assert reference_output(mma_dot, c, a, b, cfg, fout) \
                == reference_output(reference_dot, c, a, b, cfg,
                                    fout.precision), (shape, c, a, b)
