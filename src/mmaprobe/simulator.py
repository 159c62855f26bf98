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

Where this text leaves a choice, ``tests/reference_unit.py`` restates the
reading taken: zero products have no exponent and never enter a block; a
lone addend is still aligned and rounded; only a deferred block checks
headroom (an adder normalises its carry-out), even beside a special
result; rounding has no exponent range; a zero result is -0 only when
every addend meeting in it is -0, and exact cancellation gives +0.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, fields, replace
from typing import Sequence

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


def _resolve_specials(specials: list) -> Special:
    """IEEE-like propagation: a NaN, or infinities of both signs, give NaN;
    otherwise the infinity."""
    if NAN in specials or (POS_INF in specials and NEG_INF in specials):
        return NAN
    return specials[0]


def _special_product(x: Value, y: Value) -> Special:
    """Product of two values at least one of which is special."""
    if x is NAN or y is NAN or (type(x) is not Special and x.sig == 0) \
            or (type(y) is not Special and y.sig == 0):
        return NAN  # a NaN operand, or Inf * 0
    return POS_INF if x.sign * y.sign > 0 else NEG_INF


# The datapath below runs on signed-integer terms ``(m, e)`` meaning
# ``m * 2**e``, not necessarily canonical, from ``Dyadic`` operands.  A
# zero term has no sign; ``mma_dot`` signs a zero result.
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


def _add(x: tuple, y: tuple, cfg: BlockFmaConfig, p_out: int,
         rm: RoundingMode) -> tuple:
    """``x + y`` through the two-operand adder, aligned as in ``_block``
    and rounded under rm; it normalises its carry-out, so no headroom."""
    (mx, ex), (my, ey) = x, y
    if not (mx and my):  # a zero does not place the grid
        if not (mx or my):
            return 0, 0
        ex = ey = ex if mx else ey
    grid = max(mx.bit_length() + ex, my.bit_length() + ey) - p_out - cfg.n_eab
    policy = cfg.alignment_policy.rounding
    total = (mx << (ex - grid) if ex >= grid
             else _drop_bits(mx, grid - ex, policy)) \
        + (my << (ey - grid) if ey >= grid
           else _drop_bits(my, grid - ey, policy))
    return _round_term(total, grid, p_out, rm)


def _block(start: tuple, terms: list, cfg: BlockFmaConfig,
           p_out: int) -> tuple:
    """A block from ``start`` (c or +0) over its nonzero product terms.
    Immediate mode rounds after every add; deferred mode aligns the terms
    ``p_out - 1 + n_eab`` fraction bits below the largest leading bit,
    checks headroom and rounds once."""
    rm = cfg.rm_intra
    if cfg.norm_policy is NormPolicy.IMMEDIATE:
        acc = start
        for t in terms:
            acc = _add(acc, t, cfg, p_out, rm)
        return _round_term(*acc, p_out, rm)
    live = [start, *terms] if start[0] else terms
    if not live:
        return 0, 0
    grid = max([m.bit_length() + e for m, e in live]) - p_out - cfg.n_eab
    policy = cfg.alignment_policy.rounding
    total = sum([m << (e - grid) if e >= grid
                 else _drop_bits(m, grid - e, policy) for m, e in live])
    return _round_term(_apply_headroom(total, cfg, p_out), grid, p_out, rm)


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

    Products are split into ``fma_width`` chunks; ``cfg.ordering`` picks the
    block holding the accumulator input and the combine order; block results
    merge pairwise through the limited two-operand adder under ``rm_inter``.
    Specials propagate whatever the grouping, so they resolve once.
    """
    if len(a) != len(b):
        raise SizeContract("operand lists differ in length")
    k = len(a)
    if k > cfg.max_k:
        raise SizeContract(
            f"k={k} exceeds tile capacity {cfg.max_k} "
            f"({cfg.fma_width} x {cfg.blocks_per_tile} blocks)")
    w = cfg.fma_width
    # Each block holds its nonzero finite products; zeros take no part.
    blocks = [[] for _ in range(0, k, w)] or [[]]
    specials, dead = [], set()  # dead: the blocks that hold a special
    for i, x, y in zip(range(k), a, b):
        if type(x) is Special or type(y) is Special:
            specials.append(_special_product(x, y))
            dead.add(i // w)
        elif m := x.sig * y.sig:
            blocks[i // w].append((m if x.sign == y.sign else -m,
                                   x.exp + y.exp))
    tree = cfg.ordering is Ordering.TREE_THEN_C  # c joins the block sum last
    # The block that takes c, in input order; every other starts from +0.
    cblock = len(blocks) - 1 if cfg.ordering is Ordering.C_WITH_LAST else 0
    start = (0, 0) if tree or type(c) is Special else (c.sign * c.sig, c.exp)
    p_out = fout.precision
    if type(c) is Special:
        specials.append(c)
        if not tree:
            dead.add(cblock)
    if specials:
        if cfg.carry_overflow is CarryOverflow.ERROR:
            # A block without specials still checks its own headroom.
            for j, blk in enumerate(blocks):
                if j not in dead:
                    _block(start if j == cblock else (0, 0), blk, cfg, p_out)
        return _resolve_specials(specials)

    if cblock:
        blocks.reverse()
    acc = _block(start, blocks[0], cfg, p_out)
    for blk in blocks[1:]:
        if blk:  # an empty block adds +0, which leaves acc as it is
            acc = _add(acc, _block((0, 0), blk, cfg, p_out), cfg, p_out,
                       cfg.rm_inter)
    if tree:
        acc = _add((c.sign * c.sig, c.exp), acc, cfg, p_out, cfg.rm_inter)
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
