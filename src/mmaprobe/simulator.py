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
from dataclasses import dataclass
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
    round_to_grid,
    round_to_precision,
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

    @property
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
    bits.  Operands come from ``decode``, so each is already exact in
    ``fin``; ``Special`` operands are skipped.
    """
    if 2 * fin.precision <= fout.precision:
        return
    for x, y in zip(a, b):
        if isinstance(x, Special) or isinstance(y, Special):
            continue
        r = x * y
        if r.bit_count > fout.precision:
            raise FormatContract(
                f"product {r!r} needs more than {fout.precision} bits and "
                f"2*p_in > p_out for {fin.name}->{fout.name}")


def exact_oracle(c: Dyadic, a: Sequence[Dyadic],
                 b: Sequence[Dyadic]) -> Dyadic:
    """Unrounded c + sum(a_l * b_l) as an exact Dyadic."""
    for x, y in zip(a, b):
        c = c + x * y
    return c


def _resolve_specials(c: Value, products: Sequence[Value]) -> Optional[Value]:
    """IEEE-like special propagation over the addend set; None if all finite."""
    inf_sign = 0
    for v in (c, *products):
        if isinstance(v, Special):
            if v.is_nan:
                return NAN
            if inf_sign and inf_sign != v.sign:
                return NAN
            inf_sign = v.sign
    if inf_sign:
        return POS_INF if inf_sign > 0 else NEG_INF
    return None


def _special_product(x: Value, y: Value) -> Value:
    """Product honoring NaN and Inf*0 rules; exact Dyadic when finite."""
    x_special = isinstance(x, Special)
    y_special = isinstance(y, Special)
    if not x_special and not y_special:
        return x * y
    if (x_special and x.is_nan) or (y_special and y.is_nan):
        return NAN
    # One or both infinite.
    if (x_special and not y_special and y.is_zero) or \
       (y_special and not x_special and x.is_zero):
        return NAN
    sx = x.sign if x_special else (1 if x.sign > 0 else -1)
    sy = y.sign if y_special else (1 if y.sign > 0 else -1)
    return POS_INF if sx * sy > 0 else NEG_INF


def _signed_zero_sum(addends: Sequence[Dyadic]) -> Dyadic:
    """Zero result sign: -0 only when every addend is a negative zero."""
    if addends and all(v.is_zero and v.sign == -1 for v in addends):
        return NEG_ZERO
    return ZERO


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


def _aligned_sum(addends: Sequence[Dyadic], cfg: BlockFmaConfig,
                 p_out: int, check_headroom: bool) -> Dyadic:
    """Align addends to the max exponent, sum exactly, return the raw value."""
    live = [v for v in addends if not v.is_zero]
    if not live:
        return _signed_zero_sum(addends)
    ref = max(v.floor_log2 for v in live)
    grid = ref - (p_out - 1) - cfg.n_eab
    policy = cfg.alignment_policy.rounding
    total = 0
    for v in live:
        aligned = round_to_grid(v, grid, policy)
        if not aligned.is_zero:
            total += aligned.sign * (aligned.sig << (aligned.exp - grid))
    if check_headroom:
        total = _apply_headroom(total, cfg, p_out)
    if total == 0:
        return ZERO
    return Dyadic.make(1 if total > 0 else -1, abs(total), grid)


def _fp_add_limited(x: Dyadic, y: Dyadic, cfg: BlockFmaConfig, p_out: int,
                    rm: RoundingMode) -> Dyadic:
    """Two-operand addition through the limited-alignment datapath.

    A standalone adder always normalises its carry-out, so no headroom
    check applies here.
    """
    raw = _aligned_sum((x, y), cfg, p_out, check_headroom=False)
    return round_to_precision(raw, p_out, rm)


def block_fma(c: Value, a: Sequence[Value], b: Sequence[Value],
              cfg: BlockFmaConfig, fout: FpFormat) -> Value:
    """One block FMA: d = round(c + sum(a_l * b_l)) per the configured model.

    Specials propagate by IEEE-like rules.  Deferred mode accumulates all
    aligned addends exactly (within headroom) and rounds once; immediate
    mode folds left, normalising and rounding after every addition.
    """
    if len(a) != len(b):
        raise SizeContract("operand lists differ in length")
    if len(a) > cfg.fma_width:
        raise SizeContract(
            f"{len(a)} products exceed fma_width={cfg.fma_width}")
    products = [_special_product(x, y) for x, y in zip(a, b)]
    special = _resolve_specials(c, products)
    if special is not None:
        return special
    p_out = fout.precision

    if cfg.norm_policy is NormPolicy.DEFERRED:
        raw = _aligned_sum((c, *products), cfg, p_out, check_headroom=True)
        return round_to_precision(raw, p_out, cfg.rm_intra)

    acc = c
    for r in products:
        acc = _fp_add_limited(acc, r, cfg, p_out, cfg.rm_intra)
    return round_to_precision(acc, p_out, cfg.rm_intra)


def mma_dot(c: Value, a: Sequence[Value], b: Sequence[Value],
            cfg: BlockFmaConfig, fout: FpFormat) -> Value:
    """Full shared-dimension dot product: blocks in input order, then combine.

    Products are split into ``fma_width`` chunks; the block holding the
    accumulator input and the combine order follow ``cfg.ordering``; block
    results merge pairwise through the limited two-operand adder under
    ``rm_inter``.
    """
    if len(a) != len(b):
        raise SizeContract("operand lists differ in length")
    k = len(a)
    if k > cfg.max_k:
        raise SizeContract(
            f"k={k} exceeds tile capacity {cfg.max_k} "
            f"({cfg.fma_width} x {cfg.blocks_per_tile} blocks)")
    w = cfg.fma_width
    chunks = [(a[i:i + w], b[i:i + w]) for i in range(0, k, w)] or [((), ())]
    p_out = fout.precision

    def run_block(cin: Value, chunk) -> Value:
        return block_fma(cin, chunk[0], chunk[1], cfg, fout)

    def combine(x: Value, y: Value) -> Value:
        special = _resolve_specials(x, (y,))
        if special is not None:
            return special
        return _fp_add_limited(x, y, cfg, p_out, cfg.rm_inter)

    if cfg.ordering is Ordering.C_FIRST:
        acc = run_block(c, chunks[0])
        rest = chunks[1:]
    elif cfg.ordering is Ordering.C_WITH_LAST:
        acc = run_block(c, chunks[-1])
        rest = list(reversed(chunks[:-1]))
    else:  # TREE_THEN_C: blocks fold among themselves, c joins last.
        acc = run_block(ZERO, chunks[0])
        rest = chunks[1:]

    for chunk in rest:
        acc = combine(acc, run_block(ZERO, chunk))
    if cfg.ordering is Ordering.TREE_THEN_C:
        acc = combine(c, acc)
    return acc


# -- config file round-trip -------------------------------------------

_ENUM_FIELDS = {
    "alignment_policy": AlignmentPolicy,
    "norm_policy": NormPolicy,
    "rm_intra": RoundingMode,
    "rm_inter": RoundingMode,
    "ordering": Ordering,
    "carry_overflow": CarryOverflow,
}
_INT_FIELDS = ("fma_width", "n_eab", "n_ecb", "blocks_per_tile")


def config_to_text(cfg: BlockFmaConfig) -> str:
    """Flat key = value serialization, keys matching the field names."""
    lines = [f"{name} = {getattr(cfg, name)}" for name in _INT_FIELDS]
    for name, _ in _ENUM_FIELDS.items():
        lines.append(f"{name} = {getattr(cfg, name).value}")
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
        if key in _INT_FIELDS:
            kw[key] = int(value)
        elif key in _ENUM_FIELDS:
            enum_cls = _ENUM_FIELDS[key]
            try:
                kw[key] = enum_cls(value)
            except ValueError:
                names = ", ".join(m.value for m in enum_cls)
                raise ValueError(
                    f"line {lineno}: {key} must be one of {names}") from None
        else:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
    return BlockFmaConfig(**kw)
