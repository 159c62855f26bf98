"""Floating-point format descriptors and exact dyadic-rational values.

Everything the rest of the package computes with flows through two types:

* ``Dyadic`` -- an exact sign-magnitude dyadic rational (``sign * sig * 2**exp``
  with an arbitrary-width integer significand).  Addition, subtraction and
  multiplication are closed and exact, which makes it the reference carrier
  for all test values and oracle sums.
* ``FpFormat`` -- a binary interchange format description (significand bits
  including the implicit bit, exponent field width, subnormal support,
  storage width).  ``decode``/``encode`` convert bit patterns to and from
  ``Dyadic``/``Special`` values bit-exactly.

No floats are used anywhere; rounding is implemented on integers.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

__all__ = [
    "RoundingMode",
    "Special",
    "NAN",
    "POS_INF",
    "NEG_INF",
    "Dyadic",
    "ZERO",
    "NEG_ZERO",
    "ONE",
    "pow2",
    "sum_of_pow2",
    "FpFormat",
    "REGISTRY",
    "lookup_format",
    "decode",
    "encode",
    "bits_to_hex",
    "hex_to_bits",
]


class RoundingMode(enum.Enum):
    """IEEE 754 directed/nearest modes plus magnitude truncation.

    ``TRUNCATE`` (drop significand bits beyond the boundary) gives the same
    value as ``RZ`` everywhere in this package, and classifiers read both as
    "Truncate"; it keeps its own name because presets and config files
    spell it ``TruncateMagnitude``.
    """

    RNE = "RNE"
    RZ = "RZ"
    RU = "RU"
    RD = "RD"
    TRUNCATE = "TruncateMagnitude"


class Special(enum.Enum):
    """A non-finite value: NaN or a signed infinity."""

    NAN = "NaN"
    POS_INF = "+Inf"
    NEG_INF = "-Inf"

    @property
    def is_nan(self) -> bool:
        return self is Special.NAN

    @property
    def sign(self) -> int:
        """+1 or -1 for infinities; +1 for NaN (payloads are canonical)."""
        return -1 if self is Special.NEG_INF else 1

    def __repr__(self) -> str:
        return self.value


NAN, POS_INF, NEG_INF = Special.NAN, Special.POS_INF, Special.NEG_INF


@dataclass(frozen=True)
class Dyadic:
    """Exact dyadic rational ``sign * sig * 2**exp``, canonical when built.

    ``sig`` is a non-negative arbitrary-width integer.  Every value is
    canonical: a nonzero significand is odd and a zero has ``exp == 0``, so
    one value has one set of fields; the constructor rejects anything else
    and ``make`` builds the canonical value from any triple.  The one second
    zero is the negative zero ``(-1, 0, 0)``: it compares and hashes equal
    to zero and exists only so decode/encode can round-trip the -0.0 bit
    pattern.
    """

    sign: int
    sig: int
    exp: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.sig < 0:
            raise ValueError("significand must be non-negative")
        if (self.sig & 1 == 0) if self.sig else self.exp != 0:
            raise ValueError(f"non-canonical Dyadic({self.sign}, {self.sig}, "
                             f"{self.exp}); build it with Dyadic.make")

    # -- constructors -------------------------------------------------

    @staticmethod
    def make(sign: int, sig: int, exp: int) -> "Dyadic":
        """Build the canonical Dyadic with the given value."""
        if sig == 0:
            return ZERO
        shift = (sig & -sig).bit_length() - 1  # count of trailing zero bits
        return Dyadic(sign, sig >> shift, exp + shift)

    @staticmethod
    def from_int(n: int) -> "Dyadic":
        if n == 0:
            return ZERO
        return Dyadic.make(1 if n > 0 else -1, abs(n), 0)

    # -- predicates and views -----------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.sig == 0

    @property
    def floor_log2(self) -> int:
        """Exponent of the leading significand bit (requires nonzero)."""
        if self.sig == 0:
            raise ValueError("zero has no exponent")
        return self.exp + self.sig.bit_length() - 1

    @property
    def bit_count(self) -> int:
        """Width in bits of the significand (0 for zero)."""
        return self.sig.bit_length()

    def as_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.sign * self.sig * (1 << self.exp))
        return Fraction(self.sign * self.sig, 1 << -self.exp)

    # -- exact arithmetic ---------------------------------------------

    def __neg__(self) -> "Dyadic":
        if self.sig == 0:
            return ZERO if self.sign == -1 else NEG_ZERO
        return Dyadic(-self.sign, self.sig, self.exp)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        if not isinstance(other, Dyadic):
            return NotImplemented
        if self.sig == 0:
            # -0 + -0 keeps the sign; any other zero sum is +0.
            if other.sig == 0:
                return NEG_ZERO if self.sign == other.sign == -1 else ZERO
            return other
        if other.sig == 0:
            return self
        e = min(self.exp, other.exp)
        total = (self.sign * (self.sig << (self.exp - e))
                 + other.sign * (other.sig << (other.exp - e)))
        if total == 0:
            return ZERO
        return Dyadic.make(1 if total > 0 else -1, abs(total), e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        if not isinstance(other, Dyadic):
            return NotImplemented
        if self.sig == 0 or other.sig == 0:
            # IEEE sign rule for zero products (needed for -0 bookkeeping).
            return ZERO if self.sign * other.sign > 0 else NEG_ZERO
        return Dyadic.make(self.sign * other.sign, self.sig * other.sig,
                           self.exp + other.exp)

    # -- equality (numeric; -0 == +0) ---------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dyadic):
            return NotImplemented
        return (self.sig == other.sig and self.exp == other.exp
                and (self.sign == other.sign or self.sig == 0))

    def __hash__(self) -> int:
        return hash((self.sign if self.sig else 1, self.sig, self.exp))

    def __repr__(self) -> str:
        s = "-" if self.sign < 0 else ""
        if self.exp == 0:
            return f"{s}{self.sig}"
        return f"{s}{self.sig}*2^{self.exp}"


ZERO = Dyadic(1, 0, 0)
NEG_ZERO = Dyadic(-1, 0, 0)
ONE = Dyadic(1, 1, 0)


def pow2(j: int) -> Dyadic:
    """Exact 2**j."""
    return Dyadic(1, 1, j)


def sum_of_pow2(exponents) -> Dyadic:
    """Exact sum of powers of two; duplicates allowed, [] gives zero."""
    acc = ZERO
    for j in exponents:
        acc = acc + pow2(j)
    return acc


def _round_sig(sig: int, shift: int, sign: int, rm: RoundingMode) -> int:
    """Round away ``shift > 0`` low bits of ``sig`` (sign-magnitude)."""
    kept = sig >> shift
    rem = sig & ((1 << shift) - 1)
    if rem == 0 or rm in (RoundingMode.RZ, RoundingMode.TRUNCATE):
        return kept
    if rm is RoundingMode.RU:
        return kept + 1 if sign > 0 else kept
    if rm is RoundingMode.RD:
        return kept + 1 if sign < 0 else kept
    # RNE
    half = 1 << (shift - 1)
    if rem > half:
        return kept + 1
    if rem < half:
        return kept
    return kept + (kept & 1)


@dataclass(frozen=True, eq=False)
class FpFormat:
    """A binary floating-point interchange format.

    ``precision`` counts significand bits including the implicit bit.
    ``storage_bits`` may exceed ``1 + exp_bits + (precision-1)``; the value
    is then stored left-aligned with zero padding at the least-significant
    end (TensorFloat32 sits in a 32-bit container this way).  Padding bits
    are ignored on read and written as zero.
    """

    name: str
    precision: int
    exp_bits: int
    storage_bits: int
    subnormals: bool = True

    def __post_init__(self) -> None:
        if self.precision < 2 or self.exp_bits < 2:
            raise ValueError("degenerate format")
        if self.storage_bits < 1 + self.exp_bits + (self.precision - 1):
            raise ValueError("storage too narrow for the declared fields")

    @functools.cached_property
    def emax(self) -> int:
        """The largest exponent, which is also the exponent bias."""
        return (1 << (self.exp_bits - 1)) - 1

    @functools.cached_property
    def emin(self) -> int:
        return 1 - self.emax

    @functools.cached_property
    def pad_bits(self) -> int:
        return self.storage_bits - 1 - self.exp_bits - (self.precision - 1)

    @functools.cached_property
    def hex_digits(self) -> int:
        return (self.storage_bits + 3) // 4

    @property
    def min_subnormal(self) -> Dyadic:
        return pow2(self.emin - (self.precision - 1))

    @property
    def min_normal(self) -> Dyadic:
        return pow2(self.emin)

    @property
    def max_finite(self) -> Dyadic:
        # (2 - 2^(1-p)) * 2^emax
        return Dyadic.make(1, (1 << self.precision) - 1,
                           self.emax - self.precision + 1)

    # Memo tables of the wire codec (``backend._to_hex``/``_from_hex``).
    # They belong to this object, which is equal only to itself, so a copy
    # or a same-named format never shares entries.

    @functools.cached_property
    def encode_memo(self) -> dict:
        return {}

    @functools.cached_property
    def decode_memo(self) -> dict:
        return {}


REGISTRY: dict[str, FpFormat] = {
    f.name: f
    for f in (
        FpFormat("binary16", precision=11, exp_bits=5, storage_bits=16),
        FpFormat("bfloat16", precision=8, exp_bits=8, storage_bits=16),
        FpFormat("TensorFloat32", precision=11, exp_bits=8, storage_bits=32),
        FpFormat("binary32", precision=24, exp_bits=8, storage_bits=32),
        FpFormat("binary64", precision=53, exp_bits=11, storage_bits=64),
    )
}

# Registry names and common aliases, lower-cased, to registry names.
_NAMES = {name.lower(): name for name in REGISTRY} | {
    "fp16": "binary16",
    "half": "binary16",
    "bf16": "bfloat16",
    "tf32": "TensorFloat32",
    "fp32": "binary32",
    "single": "binary32",
    "fp64": "binary64",
    "double": "binary64",
}


def lookup_format(name: str) -> FpFormat:
    """Resolve a format by registry name or common alias, in any case."""
    key = _NAMES.get(name.lower())
    if key is None:
        raise KeyError(f"unknown format {name!r}")
    return REGISTRY[key]


Value = Union[Dyadic, Special]


def decode(bits: int, fmt: FpFormat) -> Value:
    """Exact value of a bit pattern. All patterns decode; padding is ignored."""
    if bits < 0 or bits >> fmt.storage_bits:
        raise ValueError(f"pattern does not fit in {fmt.storage_bits} bits")
    frac_w = fmt.precision - 1
    word = bits >> fmt.pad_bits
    frac = word & ((1 << frac_w) - 1)
    biased = (word >> frac_w) & ((1 << fmt.exp_bits) - 1)
    sign = -1 if word >> (fmt.exp_bits + frac_w) else 1
    if biased == 0:
        if frac == 0 or not fmt.subnormals:
            return ZERO if sign > 0 else NEG_ZERO
        sig, exp = frac, fmt.emin - frac_w
    elif biased == (1 << fmt.exp_bits) - 1:
        return NAN if frac else POS_INF if sign > 0 else NEG_INF
    else:
        sig, exp = (1 << frac_w) | frac, biased - fmt.emax - frac_w
    shift = (sig & -sig).bit_length() - 1  # count of trailing zero bits
    return Dyadic(sign, sig >> shift, exp + shift)


def encode(v: Value, fmt: FpFormat,
           rm: RoundingMode = RoundingMode.RNE) -> tuple[int, bool]:
    """Round ``v`` into ``fmt`` under ``rm`` and return (bits, inexact).

    A finite nonzero value rounds on its binade's grid of ``2**(p-1)``
    steps (the subnormal grid below the normal range).  Counted in steps of
    that grid, the rounded value is its exponent and fraction fields as one
    word, a carry into the next binade included.  A word at or past the
    all-ones exponent overflows under the usual directed-rounding rules
    (RNE to infinity, RZ/truncate to the largest finite, RU/RD by sign).
    A subnormal word flushes to zero if the format has no subnormals.
    ``inexact`` tells whether the bits' value differs from ``v``'s.
    """
    frac_w = fmt.precision - 1
    inf_word = ((1 << fmt.exp_bits) - 1) << frac_w
    inexact = False
    if type(v) is Special:
        # A NaN is the canonical quiet NaN: top fraction bit set, positive.
        word = inf_word | (1 << (frac_w - 1) if v.is_nan else 0)
    elif v.sig == 0:
        word = 0
    else:
        sign, sig, exp = v.sign, v.sig, v.exp
        grid = max(exp + sig.bit_length() - 1, fmt.emin) - frac_w
        drop = grid - exp
        steps = _round_sig(sig, drop, sign, rm) if drop > 0 else sig << -drop
        inexact = drop > 0 and steps << drop != sig
        word = ((grid - fmt.emin + frac_w) << frac_w) + steps
        if word >= inf_word:
            away = RoundingMode.RU if sign > 0 else RoundingMode.RD
            to_inf = rm is RoundingMode.RNE or rm is away
            word = inf_word if to_inf else inf_word - 1
            inexact = True
        elif word < 1 << frac_w and not fmt.subnormals:
            word = 0
            inexact = True
    if v.sign < 0:
        word |= 1 << (fmt.exp_bits + frac_w)
    return word << fmt.pad_bits, inexact


def bits_to_hex(bits: int, fmt: FpFormat) -> str:
    """Lowercase fixed-width hex, most-significant nibble first."""
    return "%0*x" % (fmt.hex_digits, bits)


def hex_to_bits(text: str, fmt: FpFormat) -> int:
    s = text.strip().lower()
    if s.startswith("0x"):
        s = s[2:]
    # int() would also take "_", a sign and non-ASCII digits.
    if len(s) != fmt.hex_digits or not (s.isascii() and s.isalnum()):
        raise ValueError(
            f"{fmt.name} patterns need {fmt.hex_digits} hex digits, "
            f"got {text!r}")
    return int(s, 16)
