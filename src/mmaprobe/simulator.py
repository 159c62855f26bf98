"""Configurable bit-exact model of a block-FMA (matrix-multiply) unit.

The accumulator model: products enter exactly, every addend is aligned to
the largest addend exponent keeping ``p_out - 1 + n_eab`` fraction bits
(bits shifted past that position are truncated or rounded per the
alignment policy), the aligned signed integers accumulate exactly within
``n_ecb`` headroom bits, and a single normalisation plus rounding to the
output precision happens at the end of the block.  Immediate mode instead
normalises and rounds after every binary addition.

Multi-block dot products partition the operand list into blocks in input
order.  Block results combine pairwise through the same limited-alignment
datapath (a two-operand add keeps the same fraction-bit budget below the
larger exponent), rounded under the inter-block mode.  Which block takes
the accumulator input, and the combine order, follow the configured
ordering.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

from .formats import (
    NAN,
    NEG_INF,
    NEG_ZERO,
    POS_INF,
    ZERO,
    Dyadic,
    FpFormat,
    RoundingMode,
    Special,
    Value,
    _round_sig,
)

__all__ = [
    "AlignmentPolicy",
    "NormPolicy",
    "Ordering",
    "CarryOverflow",
    "BlockFmaConfig",
    "FormatContract",
    "SizeContract",
    "CarryOverflowError",
    "exact_products",
    "exact_oracle",
    "block_fma",
    "mma_dot",
    "max_detectable_carry_bits",
    "config_to_text",
    "config_from_text",
]


class AlignmentPolicy(enum.Enum):
    """Treatment of significand bits shifted past the alignment boundary."""

    TRUNCATE_BITS = "TruncateBits"
    RNE = "RNE"
    RU = "RU"
    RD = "RD"

    @functools.cached_property  # RoundingMode(value) is slow per call
    def rounding(self) -> RoundingMode:
        if self is AlignmentPolicy.TRUNCATE_BITS:
            return RoundingMode.TRUNCATE
        return RoundingMode(self.value)


class NormPolicy(enum.Enum):
    IMMEDIATE = "Immediate"
    DEFERRED = "Deferred"


class Ordering(enum.Enum):
    """How the accumulator input joins the per-block partial sums."""

    C_FIRST = "CFirst"        # ((c + T1) + T2) + ...
    TREE_THEN_C = "TreeThenC"  # c + (T1 + T2 + ...)
    C_WITH_LAST = "CWithLast"  # ((c + T_last) + T_{last-1}) + ... + T1


class CarryOverflow(enum.Enum):
    WRAP = "Wrap"
    SATURATE = "Saturate"
    ERROR = "Error"


class FormatContract(ValueError):
    """A format pair or operand violates the exact-product assumption."""


class SizeContract(ValueError):
    """An operand list exceeds the configured tile capacity."""


class CarryOverflowError(ArithmeticError):
    """Accumulation exceeded the carry headroom with policy=Error."""


@dataclass(frozen=True)
class BlockFmaConfig:
    """Hidden hardware parameters of a simulated block-FMA unit."""

    fma_width: int = 8
    n_eab: int = 1
    n_ecb: int = 3
    alignment_policy: AlignmentPolicy = AlignmentPolicy.TRUNCATE_BITS
    norm_policy: NormPolicy = NormPolicy.DEFERRED
    rm_intra: RoundingMode = RoundingMode.TRUNCATE
    rm_inter: RoundingMode = RoundingMode.TRUNCATE
    ordering: Ordering = Ordering.C_FIRST
    blocks_per_tile: int = 2
    carry_overflow: CarryOverflow = CarryOverflow.WRAP

    def __post_init__(self) -> None:
        if self.fma_width < 1:
            raise ValueError("fma_width must be >= 1")
        if self.n_eab < 0 or self.n_ecb < 0:
            raise ValueError("extra bit counts must be >= 0")
        if self.blocks_per_tile < 1:
            raise ValueError("blocks_per_tile must be >= 1")

    @property
    def max_k(self) -> int:
        return self.fma_width * self.blocks_per_tile


def max_detectable_carry_bits(k: int, p_in: int) -> int:
    """floor(log2(k * (2 - 2^(1-p_in)))): carry bits a k-term test can reveal."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # k * (2 - 2^(1-p_in)) = (k * (2^p_in - 1)) / 2^(p_in - 1); take floor log2
    num = k * ((1 << p_in) - 1)
    return num.bit_length() - 1 - (p_in - 1)


def exact_products(a: Sequence[Value], b: Sequence[Value],
                   fin: FpFormat, fout: FpFormat) -> None:
    """Reject a finite product that needs more than ``p_out`` bits.

    The model assumes products never need rounding.  ``2*p_in <= p_out``
    guarantees that, so such a pair returns at once; a narrower output
    format is accepted only if every finite product still fits ``p_out``
    bits.  Operands come from decoding, so each is already exact in
    ``fin``; ``Special`` operands are skipped.
    """
    if 2 * fin.precision <= fout.precision:
        return
    for x, y in zip(a, b):
        # Decoded significands are odd, and so is their product.
        if type(x) is not Special and type(y) is not Special \
                and (x.sig * y.sig).bit_length() > fout.precision:
            xy = Dyadic(x.sign * y.sign, x.sig * y.sig, x.exp + y.exp)
            raise FormatContract(
                f"product {xy!r} needs more than {fout.precision} bits and "
                f"2*p_in > p_out for {fin.name}->{fout.name}")


def exact_oracle(c: Dyadic, a: Sequence[Dyadic],
                 b: Sequence[Dyadic]) -> Dyadic:
    """Unrounded c + sum(a_l * b_l) as an exact Dyadic."""
    return sum((x * y for x, y in zip(a, b)), c)


def _resolve_specials(addends) -> Optional[Special]:
    """IEEE-like special propagation over the addends; None if all finite."""
    inf_sign = 0
    for v in addends:
        if type(v) is Special:  # isinstance() on an enum class is slower
            if v.is_nan:
                return NAN
            if inf_sign and inf_sign != v.sign:
                return NAN
            inf_sign = v.sign
    if inf_sign:
        return POS_INF if inf_sign > 0 else NEG_INF
    return None


def _special_product(x: Value, y: Value) -> Special:
    """Product of two values at least one of which is special."""
    if x is NAN or y is NAN or (type(x) is not Special and x.sig == 0) \
            or (type(y) is not Special and y.sig == 0):
        return NAN  # a NaN operand, or Inf * 0
    return POS_INF if x.sign * y.sign > 0 else NEG_INF


# The datapath below runs on signed-integer terms ``(m, e)`` meaning
# ``m * 2**e``, not necessarily canonical, from ``Dyadic`` operands.  A
# zero term has no sign; ``mma_dot`` signs a zero result.
def _product_terms(a: Sequence[Value], b: Sequence[Value]) -> list:
    """Each exact product as a term, or as its special value."""
    return [(x.sign * y.sign * x.sig * y.sig, x.exp + y.exp)
            if type(x) is not Special and type(y) is not Special
            else _special_product(x, y) for x, y in zip(a, b)]


def _drop_bits(m: int, shift: int, rm: RoundingMode) -> int:
    """Signed ``m`` with its ``shift > 0`` low bits rounded away under rm."""
    return -_round_sig(-m, shift, -1, rm) if m < 0 else \
        _round_sig(m, shift, 1, rm)


def _round_term(m: int, e: int, p: int, rm: RoundingMode) -> tuple:
    """Round the term to at most ``p`` significand bits."""
    shift = m.bit_length() - p
    return (_drop_bits(m, shift, rm), e + shift) if shift > 0 else (m, e)


def _apply_headroom(total: int, cfg: BlockFmaConfig, p_out: int) -> int:
    """Constrain the accumulated integer to the configured headroom.

    The accumulator holds ``p_out + n_eab`` fraction-resolution bits below
    the reference exponent plus ``n_ecb`` bits above it, so in grid units
    any magnitude below ``2**(p_out + n_eab + n_ecb)`` fits.
    """
    cap_bits = p_out + cfg.n_eab + cfg.n_ecb
    limit = 1 << cap_bits
    if -limit < total < limit:
        return total
    if cfg.carry_overflow is CarryOverflow.ERROR:
        raise CarryOverflowError(
            f"accumulated magnitude needs more than {cfg.n_ecb} carry bits")
    if cfg.carry_overflow is CarryOverflow.SATURATE:
        return limit - 1 if total > 0 else -(limit - 1)
    # Wrap: two's complement with cap_bits payload bits plus a sign bit.
    span = limit << 1
    return ((total + limit) % span) - limit


def _add(terms: Sequence[tuple], cfg: BlockFmaConfig, p_out: int,
         rm: RoundingMode, headroom: bool = False) -> tuple:
    """Sum the terms on a grid ``p_out - 1 + n_eab`` fraction bits below
    the largest one's leading bit, then round to ``p_out`` bits.  Only a
    block checks ``headroom``: an adder normalises its carry-out."""
    live = [t for t in terms if t[0]]
    if not live:
        return 0, 0
    grid = max(m.bit_length() + e for m, e in live) - p_out - cfg.n_eab
    policy = cfg.alignment_policy.rounding
    total = sum(m << (e - grid) if e >= grid
                else _drop_bits(m, grid - e, policy) for m, e in live)
    if headroom:
        total = _apply_headroom(total, cfg, p_out)
    return _round_term(total, grid, p_out, rm)


def _block(addends: list, cfg: BlockFmaConfig, p_out: int) -> tuple:
    """One block over its addends, accumulator input first: deferred
    mode rounds once, immediate mode after every addition."""
    rm = cfg.rm_intra
    if cfg.norm_policy is NormPolicy.DEFERRED:
        return _add(addends, cfg, p_out, rm, headroom=True)
    acc = addends[0]
    for t in addends[1:]:
        acc = _add((acc, t), cfg, p_out, rm)
    return _round_term(*acc, p_out, rm)


def block_fma(c: Value, a: Sequence[Value], b: Sequence[Value],
              cfg: BlockFmaConfig, fout: FpFormat) -> Value:
    """One block FMA: d = round(c + sum(a_l * b_l)) per the configured model,
    which is ``mma_dot`` on one block that takes the addend."""
    if len(a) == len(b) > cfg.fma_width:
        raise SizeContract(
            f"{len(a)} products exceed fma_width={cfg.fma_width}")
    return mma_dot(c, a, b, replace(cfg, ordering=Ordering.C_FIRST), fout)


def mma_dot(c: Value, a: Sequence[Value], b: Sequence[Value],
            cfg: BlockFmaConfig, fout: FpFormat) -> Value:
    """Full shared-dimension dot product: blocks in input order, then combine.

    Products are split into ``fma_width`` chunks; the block holding the
    accumulator input and the combine order follow ``cfg.ordering``; block
    results merge pairwise through the limited two-operand adder under
    ``rm_inter``.  Specials propagate whatever the grouping, so they are
    resolved once over all products.
    """
    if len(a) != len(b):
        raise SizeContract("operand lists differ in length")
    k = len(a)
    if k > cfg.max_k:
        raise SizeContract(
            f"k={k} exceeds tile capacity {cfg.max_k} "
            f"({cfg.fma_width} x {cfg.blocks_per_tile} blocks)")
    terms = _product_terms(a, b)
    w = cfg.fma_width
    # Each block starts from +0 except the one that takes c.
    blocks = [[(0, 0), *terms[i:i + w]] for i in range(0, k, w)] or [[(0, 0)]]
    if cfg.ordering is Ordering.C_WITH_LAST:
        blocks.reverse()
    tree = cfg.ordering is Ordering.TREE_THEN_C  # c joins the block sum last
    cterm = (c.sign * c.sig, c.exp) if type(c) is not Special else c
    if not tree:
        blocks[0][0] = cterm
    p_out = fout.precision
    special = _resolve_specials((c, *terms))
    if special is not None:
        if cfg.carry_overflow is CarryOverflow.ERROR:
            # A block without specials still checks its own headroom.
            for blk in blocks:
                if _resolve_specials(blk) is None:
                    _block(blk, cfg, p_out)
        return special

    acc = _block(blocks[0], cfg, p_out)
    for blk in blocks[1:]:
        acc = _add((acc, _block(blk, cfg, p_out)), cfg, p_out, cfg.rm_inter)
    if tree:
        acc = _add((cterm, acc), cfg, p_out, cfg.rm_inter)
    m, e = acc
    if m:
        return Dyadic.make(1 if m > 0 else -1, abs(m), e)
    # -0 needs c and every product -0 in one block that no +0 joins.
    if len(blocks) == 1 and not tree and c.sig == 0 and c.sign < 0 and all(
            x.sig * y.sig == 0 and x.sign != y.sign for x, y in zip(a, b)):
        return NEG_ZERO
    return ZERO


# -- config file round-trip -------------------------------------------

# Each key is a BlockFmaConfig field; its value is an int or a member of
# the enum of the field's default.
_FIELD_TYPES = {f.name: type(f.default) for f in fields(BlockFmaConfig)}


def config_to_text(cfg: BlockFmaConfig) -> str:
    """Flat key = value serialization, keys matching the field names."""
    lines = []
    for name, kind in _FIELD_TYPES.items():
        value = getattr(cfg, name)
        lines.append(f"{name} = {value if kind is int else value.value}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> BlockFmaConfig:
    """Parse the flat key = value form; unknown keys are rejected."""
    kw: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        kind = _FIELD_TYPES.get(key)
        if kind is None:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if kind is int:
            kw[key] = int(value)
            continue
        try:
            kw[key] = kind(value)
        except ValueError:
            names = ", ".join(m.value for m in kind)
            raise ValueError(
                f"line {lineno}: {key} must be one of {names}") from None
    return BlockFmaConfig(**kw)
