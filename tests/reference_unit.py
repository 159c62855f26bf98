"""A second, independent reading of the block-FMA unit, on ``Fraction``.

It follows the ``mmaprobe.simulator`` module docstring and the README's
description of the unit, not the simulator's code, so a test can compare
the two bit for bit.  It is slow and literal: every value is an exact
rational, every addition of the model is carried out (zero products
included), and nothing is cached.

The model it implements:

* Each product ``a_l * b_l`` enters exactly.  A NaN operand, or an
  infinity times zero, gives NaN; an infinity times a nonzero finite value
  gives an infinity of the product's sign.
* A sum aligns its nonzero addends to ``E``, the leading-bit exponent of
  the largest one, keeping ``p_out - 1 + n_eab`` fraction bits: each
  addend becomes a multiple of ``2**(E - p_out + 1 - n_eab)``, the bits
  below reduced under the alignment policy (``TruncateBits`` truncates the
  magnitude; ``RNE``, ``RU`` and ``RD`` round on that grid).  The aligned
  addends then add exactly.
* A block's accumulator holds ``n_ecb`` carry bits above ``E``: a sum of
  magnitude ``2**(E + 1 + n_ecb)`` or more overflows, and the carry
  policy wraps it (two's complement on the accumulator's bits), saturates
  it (the largest magnitude on the grid) or raises.
* The sum rounds to ``p_out`` significant bits, with no exponent range.
  Deferred normalisation does this once per block, under ``rm_intra``.
  Immediate normalisation does it after every two-operand addition.
* Blocks take ``fma_width`` products each, in input order.  ``CFirst``
  computes ``((c + T1) + T2) + ...``, ``TreeThenC`` ``c + (T1 + T2 +
  ...)`` and ``CWithLast`` ``((c + T_last) + T_{last-1}) + ... + T1``,
  where the addend ``c`` starts the block it joins and every other block
  starts from +0.  Block results and ``TreeThenC``'s ``c`` combine
  through the same two-operand adder, rounded under ``rm_inter``.
* Specials propagate whatever the grouping: any NaN, or infinities of
  both signs, give NaN, otherwise the infinity wins.

Where the text leaves a choice, the simulator docstring records the
reading; this model takes the same one:

* A two-operand adder normalises its carry-out, so only a deferred
  block's accumulator checks the headroom.
* A zero addend has no exponent: it plays no part in choosing ``E``.
  Adding +0 to a lone addend still aligns and rounds that addend.
* A zero result is -0 only when every addend that meets in it is -0 (a
  block started from +0 brings a +0).  An exact cancellation gives +0
  under every rounding mode.
* A block that holds no special still checks its headroom, so
  ``carry_overflow=Error`` can raise beside a special result.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mmaprobe.formats import (
    NAN,
    NEG_INF,
    NEG_ZERO,
    POS_INF,
    ZERO,
    Dyadic,
    Special,
    Value,
)
from mmaprobe.simulator import (
    BlockFmaConfig,
    CarryOverflow,
    CarryOverflowError,
    NormPolicy,
    Ordering,
)

TWO = Fraction(2)


def _lead(x: Fraction) -> int:
    """Exponent of the leading bit of a nonzero dyadic rational."""
    den = x.denominator
    assert den & (den - 1) == 0, x
    return abs(x.numerator).bit_length() - den.bit_length()


def _to_integer(q: Fraction, mode: str) -> int:
    """``q`` rounded to an integer under a mode named by its value."""
    lo = math.floor(q)
    if lo == q:
        return lo
    if mode in ("RZ", "TruncateMagnitude", "TruncateBits"):
        return lo if q > 0 else lo + 1
    if mode == "RU":
        return lo + 1
    if mode == "RD":
        return lo
    assert mode == "RNE", mode
    rest = q - lo
    if rest != Fraction(1, 2):
        return lo if rest < Fraction(1, 2) else lo + 1
    return lo if lo % 2 == 0 else lo + 1


def _round(x: Fraction, p: int, mode: str) -> Fraction:
    """``x`` rounded to ``p`` significant bits."""
    if x == 0:
        return x
    unit = TWO ** (_lead(x) - p + 1)
    return _to_integer(x / unit, mode) * unit


def _sum(addends: list, cfg: BlockFmaConfig, p: int, mode: str,
         headroom: bool) -> tuple:
    """One pass of the accumulator over ``(value, is_neg_zero)`` addends."""
    live = [x for x, _ in addends if x != 0]
    if not live:
        return Fraction(0), all(neg for _, neg in addends)
    top = max(_lead(x) for x in live)
    unit = TWO ** (top - (p - 1 + cfg.n_eab))
    policy = cfg.alignment_policy.value
    total = sum(_to_integer(x / unit, policy) for x in live) * unit
    if headroom:
        limit = TWO ** (top + 1 + cfg.n_ecb)
        if abs(total) >= limit:
            if cfg.carry_overflow is CarryOverflow.ERROR:
                raise CarryOverflowError("reference accumulator overflow")
            if cfg.carry_overflow is CarryOverflow.SATURATE:
                total = (limit - unit) * (1 if total > 0 else -1)
            else:
                total = (total + limit) % (2 * limit) - limit
    return _round(total, p, mode), False


def _block(start: tuple, products: list, cfg: BlockFmaConfig,
           p: int) -> tuple:
    mode = cfg.rm_intra.value
    if cfg.norm_policy is NormPolicy.DEFERRED:
        return _sum([start, *products], cfg, p, mode, headroom=True)
    acc = start
    for t in products:
        acc = _sum([acc, t], cfg, p, mode, headroom=False)
    return acc


def _product(x: Value, y: Value):
    if type(x) is Special or type(y) is Special:
        if NAN in (x, y) or any(type(v) is Dyadic and v.is_zero
                                for v in (x, y)):
            return NAN
        return POS_INF if x.sign * y.sign > 0 else NEG_INF
    value = x.as_fraction() * y.as_fraction()
    return value, value == 0 and x.sign * y.sign < 0


def _value(x: Fraction, neg_zero: bool) -> Value:
    if x == 0:
        return NEG_ZERO if neg_zero else ZERO
    return Dyadic.make(1 if x > 0 else -1, abs(x.numerator),
                       1 - x.denominator.bit_length())


def reference_dot(c: Value, a: list, b: list, cfg: BlockFmaConfig,
                  p_out: int) -> Value:
    """``c + sum(a_l * b_l)`` as the unit described above computes it."""
    products = [_product(x, y) for x, y in zip(a, b)]
    w = cfg.fma_width
    blocks = [products[i:i + w] for i in range(0, len(products), w)] or [[]]
    order = list(range(len(blocks)))
    if cfg.ordering is Ordering.C_WITH_LAST:
        order.reverse()
    tree = cfg.ordering is Ordering.TREE_THEN_C
    cvalue = c if type(c) is Special else (c.as_fraction(),
                                            c.is_zero and c.sign < 0)
    plus_zero = (Fraction(0), False)
    specials = [v for v in (c, *products) if type(v) is Special]
    results = {}
    for j in order:
        start = cvalue if j == order[0] and not tree else plus_zero
        if type(start) is Special or any(type(t) is Special
                                         for t in blocks[j]):
            continue
        results[j] = _block(start, blocks[j], cfg, p_out)
    if specials:
        if NAN in specials or len(set(specials)) > 1:
            return NAN
        return specials[0]
    inter = cfg.rm_inter.value
    acc = results[order[0]]
    for j in order[1:]:
        acc = _sum([acc, results[j]], cfg, p_out, inter, headroom=False)
    if tree:
        acc = _sum([cvalue, acc], cfg, p_out, inter, headroom=False)
    return _value(*acc)
