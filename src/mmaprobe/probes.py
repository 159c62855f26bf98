"""Test-vector generators and output classifiers for feature probing.

Each generator builds scalar MMA tests parameterized only by the input and
output precisions (plus previously inferred features) and pairs them with a
classifier that maps the observed outputs to a feature verdict.  Operands
are always exactly representable in the input format, every intended
product is exact, and rounding-sensitive probes ship both sign polarities;
classifiers judge the polarity pair jointly because directed rounding is
sign-asymmetric.

A classifier never guesses: observations matching no row yield an
undetermined ``Field`` with the reason.

Every builder states its addend, products and classifier outputs at unit
scale.  Only ``_vector`` and ``_probe`` scale them by ``2^j`` (the seed
``j`` otherwise appears only in labels), and only ``_vector`` splits
products into operands and pads each vector to ``k`` slots.

Vectors never depend on the unit under test, so every builder is
memoised per argument set and its results are shared, immutable values:
never change a ``Probe`` or ``ProbeVector`` in place.  A builder that
raises raises again on every call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .formats import (
    ONE,
    ZERO,
    Dyadic,
    FpFormat,
    Special,
    Value,
    pow2,
    sum_of_pow2,
)
from .simulator import exact_oracle, max_detectable_carry_bits

__all__ = [
    "QUAL_EXACT",
    "QUAL_AT_LEAST",
    "QUAL_UNDETERMINED",
    "Field",
    "NotFactorable",
    "ProbeVector",
    "Probe",
    "factor_into_operands",
    "gen_subnormal_probes",
    "gen_post_alignment_rounding_probe",
    "gen_rm_bfma_probe",
    "gen_alignment_bits_probe",
    "gen_alignment_cancel_probe",
    "gen_normalisation_probe",
    "gen_rm_mbfma_probe",
    "gen_ordering_probe",
    "width_test_vectors",
    "carry_test_vector",
    "run_algorithm1",
    "Algorithm1Result",
]

QUAL_EXACT = "="
QUAL_AT_LEAST = ">="
QUAL_UNDETERMINED = "?"

# Argument sets each memoised builder keeps.  One pass over the whole
# selftest grid plus the benchmark's soundness slice reaches at most 56,
# for the width scan's per-k step (``_scan_step``; the next largest is
# ``gen_rm_mbfma_probe`` at 34), so the bound holds every set the pipeline
# uses and caps what a long ``probe --kmax`` scan can keep alive.
_PROBE_MEMO = 256
_memoised = functools.lru_cache(maxsize=_PROBE_MEMO)


@dataclass
class Field:
    """One feature verdict: a value, how firmly it is known, and why."""

    value: object = None
    qualifier: str = QUAL_UNDETERMINED
    reason: str = ""

    @property
    def determinate(self) -> bool:
        return self.qualifier != QUAL_UNDETERMINED

    @property
    def exact(self) -> bool:
        return self.qualifier == QUAL_EXACT

    def render(self) -> str:
        if not self.determinate:
            return "?"
        if self.value is True:
            return "✓"
        if self.value is False:
            return "✗"
        prefix = "≥" if self.qualifier == QUAL_AT_LEAST else ""
        return f"{prefix}{self.value}"

    def to_obj(self) -> dict:
        return {"value": self.value, "qualifier": self.qualifier,
                "reason": self.reason}

    @staticmethod
    def from_obj(obj: dict) -> "Field":
        return Field(obj["value"], obj["qualifier"], obj.get("reason", ""))

    @staticmethod
    def undetermined(reason: str) -> "Field":
        return Field(None, QUAL_UNDETERMINED, reason)


class NotFactorable(ValueError):
    """A product value cannot be split into two input-format operands."""


@dataclass(frozen=True)
class ProbeVector:
    """One scalar MMA test: accumulator input plus product operand pairs.

    ``wire`` keeps the wire form per format pair for ``backend._vector_hex``.
    """

    label: str
    c: Dyadic
    pairs: tuple[tuple[Dyadic, Dyadic], ...]
    wire: dict = field(default_factory=dict, init=False, compare=False,
                       hash=False, repr=False)

    @property
    def k(self) -> int:
        return len(self.pairs)

    def negated(self) -> "ProbeVector":
        flipped = tuple((-a, b) for a, b in self.pairs)
        return ProbeVector(self.label + "-neg", -self.c, flipped)


@dataclass(frozen=True)
class Probe:
    """A set of vectors and an exact-match classifier over their outputs."""

    feature: str
    vectors: tuple[ProbeVector, ...]
    rows: tuple[tuple[tuple[Dyadic, ...], object], ...]
    note: str = ""

    def classify(self, observed: Sequence[Value]) -> Field:
        if len(observed) != len(self.vectors):
            raise ValueError("observation count does not match vector count")
        for expected, value in self.rows:
            if all(e == d for e, d in zip(expected, observed)):
                return Field(value, QUAL_EXACT)
        return Field.undetermined("observation matched no classifier row")


def factor_into_operands(r: Dyadic, fin: FpFormat) -> tuple[Dyadic, Dyadic]:
    """Split an exact product value into (a, b) with b a power of two.

    ``a`` carries the significand scaled into the normal binade [1, 2) and
    is then shifted so both operands stay inside the finite range of
    ``fin``; subnormal operands are used only when no normal split reaches
    the required exponent.
    """
    if r.is_zero:
        return ZERO, ZERO
    if r.bit_count > fin.precision:
        raise NotFactorable(
            f"{r!r} needs {r.bit_count} significand bits, "
            f"{fin.name} has {fin.precision}")
    target = r.floor_log2  # a * b == sig/2^(bits-1) * 2^(target)
    b_exp = min(max(target, fin.emin), fin.emax)
    a_exp = target - b_exp  # exponent of a's leading bit
    a = Dyadic.make(r.sign, r.sig, a_exp - (r.bit_count - 1))
    # a keeps its significand exact as long as its lowest bit stays on or
    # above the subnormal grid (normal a always does).
    if a_exp > fin.emax or a.exp < fin.emin - (fin.precision - 1):
        raise NotFactorable(f"exponent {target} unreachable in {fin.name}")
    if a_exp < fin.emin and not fin.subnormals:
        raise NotFactorable(
            f"{r!r} needs a subnormal operand and {fin.name} flushes them")
    return a, pow2(b_exp)


def _vector(label: str, c: Dyadic,
            products: Sequence[Dyadic] | dict[int, Dyadic], fin: FpFormat,
            j: int = 0, k: int = 0) -> ProbeVector:
    """Instantiate a vector stated at unit scale, scaled by ``2^j``.

    ``products`` are exact values in slot order, or a dict of 1-indexed
    slots to values; each is split into input-format operands.  The vector
    is padded to ``k`` slots with explicit zero products: no backend
    zero-skip is relied on.
    """
    scale = pow2(j)
    if not isinstance(products, dict):
        products = dict(enumerate(products, 1))
    pairs = [(ZERO, ZERO)] * max(k, len(products))
    for pos, r in products.items():
        pairs[pos - 1] = factor_into_operands(r * scale, fin)
    return ProbeVector(label, c * scale, tuple(pairs))


def _probe(feature: str, vectors: tuple[ProbeVector, ...],
           rows: Sequence[tuple[Sequence[Dyadic], object]], j: int,
           note: str = "") -> Probe:
    """A probe whose classifier outputs are stated at unit scale."""
    scale = pow2(j)
    return Probe(feature, vectors, tuple(
        (tuple(x * scale for x in expected), verdict)
        for expected, verdict in rows), note)


def _signed(feature: str, pos: ProbeVector,
            rows: Sequence[tuple[Dyadic, Dyadic, object]], j: int = 0,
            note: str = "") -> Probe:
    """Ship ``pos`` in both sign polarities, ``pos`` first.

    Each row ``(x, y, verdict)`` means ``pos`` returns ``x`` and its
    negation ``-y`` under ``verdict``, both stated at unit scale.
    """
    return _probe(feature, (pos, pos.negated()),
                  tuple(((x, -y), verdict) for x, y, verdict in rows), j, note)


def _rounding_probe(feature: str, pos: ProbeVector, lo: Dyadic,
                    hi: Dyadic, j: int = 0) -> Probe:
    """Name the rounding mode from ``pos`` and its negation.

    ``lo`` is the unit-scale magnitude a truncating unit returns and ``hi``
    the next representable value above it; the four modes differ in which
    polarity rounds up to ``hi``.
    """
    return _signed(feature, pos, (
        (lo, lo, "Truncate"),
        (hi, hi, "RNE"),
        (hi, lo, "RU"),
        (lo, hi, "RD"),
    ), j)


# -- subnormal support -------------------------------------------------


@_memoised
def gen_subnormal_probes(fin: FpFormat, fout: FpFormat) -> tuple[Probe, Probe]:
    """Input-side and output-side subnormal support tests.

    Input side: a subnormal of ``fin`` times one must come back unchanged;
    where it lies below ``fout``'s subnormal range, the other operand is
    the power of two that lifts the product to the smallest normal of
    ``fout``.  The subnormal is the smallest one of ``fin`` that a power
    of two in ``fin`` can lift that far.  Output side: an exact result
    below the smallest normal of ``fout``, produced by a product when the input
    exponent range reaches that low, else injected through the accumulator
    input.
    """
    tiny = pow2(max(fin.min_subnormal.floor_log2, fout.emin - fin.emax))
    scale = ONE
    if tiny.exp < fout.min_subnormal.exp:
        scale = pow2(fout.emin - tiny.floor_log2)
    vec_in = ProbeVector("subnormal-in", ZERO, ((tiny, scale),))
    probe_in = Probe(
        feature="subnormal_in",
        vectors=(vec_in,),
        rows=(((tiny * scale,), True), ((ZERO,), False)),
    )

    target = pow2(fout.emin - 4)  # subnormal in fout for precision >= 5
    lowest_product = 2 * fin.emin
    if lowest_product <= target.floor_log2:
        a = fin.min_normal
        b = pow2(target.floor_log2 - fin.emin)
        vec_out = ProbeVector("subnormal-out-product", ZERO, ((a, b),))
    else:
        # Input range cannot reach the subnormal band; ride the c input.
        vec_out = ProbeVector("subnormal-out-addend", target, ((ZERO, ZERO),))
    probe_out = Probe(
        feature="subnormal_out",
        vectors=(vec_out,),
        rows=(((target,), True), ((ZERO,), False)),
    )
    return probe_in, probe_out


# -- rounding applied to each addend during significand alignment ------


@_memoised
def gen_post_alignment_rounding_probe(fin: FpFormat, fout: FpFormat,
                                      n_eab: int, j: int = 0) -> Probe:
    """Detect how bits shifted past the alignment boundary are reduced.

    With the alignment width known (0 or 1 extra bits), two products carry
    a value straddling the boundary; whether each is truncated or rounded
    during alignment shows up one representable bit above.  Valid for
    deferred accumulation and alignment widths up to one extra bit.
    """
    if n_eab not in (0, 1):
        raise ValueError("post-alignment probe handles n_eab in {0, 1} only")
    p = fout.precision
    r = pow2(-p - n_eab) + pow2(-p - n_eab - 1)
    pos = _vector(f"post-align-round[n_eab={n_eab},j={j}]", ONE, (r, r),
                  fin, j)
    return _rounding_probe("rm_post_alignment", pos, ONE,
                           ONE + pow2(-p + 2 - n_eab), j)


# -- final rounding of one block (RM-BFMA) -----------------------------


@_memoised
def gen_rm_bfma_probe(fin: FpFormat, fout: FpFormat, j: int = 0) -> Probe:
    """Detect the rounding mode of a block's single final conversion.

    Three unit products force two carries so the accumulated value needs a
    two-position normalisation shift; the accumulator input plants bits
    that end up just below the output precision only after that shift, so
    no bit is lost during alignment and only the final rounding acts.
    Requires width >= 3, two carry headroom bits, and deferred accumulation.
    """
    p = fout.precision
    c = ONE + pow2(-p + 1) + pow2(-p + 2)
    pos = _vector(f"rm-bfma[j={j}]", c, (ONE,) * 3, fin, j)
    return _rounding_probe("rm_bfma", pos, pow2(2), pow2(2) + pow2(-p + 3), j)


# -- extra alignment bits ----------------------------------------------


@_memoised
def gen_alignment_bits_probe(fin: FpFormat, fout: FpFormat,
                             n: int, j: int = 0) -> Probe:
    """Ladder test for at least ``n`` extra alignment bits.

    A geometric ladder of products sums to exactly one representable bit
    above the output precision, but only if the two deepest terms survive
    alignment; with fewer extra bits they are truncated and the indicator
    bit never forms.  Requires ``n + 1`` products inside one block and
    deferred accumulation.  The indicator must appear on both polarities;
    a one-sided appearance is directed-rounding reconstruction, not
    alignment survival.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = fout.precision
    ladder = [pow2(-p - i + 1) for i in range(1, n)] + [pow2(-p + 1 - n)] * 2
    pos = _vector(f"align-bits[n={n},j={j}]", ONE, ladder, fin, j)
    show = ONE + pow2(-p + 1)
    return _signed("n_eab_at_least", pos, (
        (show, show, ("at_least", n)),
        (ONE, ONE, ("fewer_than", n)),
        (show, ONE, ("fewer_than", n)),
        (ONE, show, ("fewer_than", n)),
    ), j, note="indicator on one side only = rounding artefact, not survival")


@_memoised
def gen_alignment_cancel_probe(fin: FpFormat, fout: FpFormat,
                               n: int, j: int = 0) -> Probe:
    """Cancellation cross-check for alignment depth ``n``.

    A unit product sets the reference exponent, a single bit rides ``n``
    positions below the output window, and a matching negative unit then
    cancels the reference.  After normalisation the surviving bit is exact
    and representable, so the outcome is rounding-mode independent: the
    bit itself if alignment kept it, zero if alignment dropped it.  Needs
    three products and deferred accumulation, but no accumulator input, so
    it also applies when the addend never joins a block.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    bit = pow2(-fout.precision + 1 - n)
    pos = _vector(f"align-cancel[n={n},j={j}]", ZERO, (ONE, bit, -ONE), fin, j)
    # Rows spelled out, not ``_signed``: the dropped-bit row is +0 on both
    # polarities, and negating it would export negative zero.
    return _probe("n_eab_at_least", (pos, pos.negated()), (
        ((bit, -bit), ("at_least", n)),
        ((ZERO, ZERO), ("fewer_than", n)),
    ), j)


# -- normalisation timing ----------------------------------------------


@_memoised
def gen_normalisation_probe(fin: FpFormat, fout: FpFormat, case: str,
                            t: int = 3) -> Probe:
    """Immediate-versus-deferred normalisation test.

    ``case='carry_only'`` (extra carry bits, no extra alignment bits):
    three small products push a near-two accumulator over the carry
    boundary; an immediately normalising unit loses them at alignment one
    by one, a deferred unit keeps them all.  ``case='carry_and_align'``
    (both kinds of extra bits): two products plant a bit pattern whose
    intermediate sum needs rounding, separating immediate rounding flavors
    from the exact deferred path; ``t >= 3`` keeps a gap between the low
    bits so the carry reaches the top.
    """
    p = fout.precision
    if case == "carry_only":
        two = pow2(1)
        pos = _vector("norm[carry-only]", two - pow2(-p + 1),
                      (pow2(-p + 1),) * 3, fin)
        deferred = two + pow2(-p + 2)
        return _signed("immediate_norm", pos, (
            (two, two, True),
            (deferred, deferred, False),
        ))
    if case == "carry_and_align":
        if t < 3:
            raise ValueError("t must be >= 3")
        r = pow2(-p + t) + pow2(-p)
        pos = _vector(f"norm[carry-and-align,t={t}]", ONE - pow2(-p + t),
                      (r, r), fin)
        base = ONE + pow2(-p + t)
        imm_up = base + pow2(-p + 2)
        deferred = base + pow2(-p + 1)
        return _signed("immediate_norm", pos, (
            (base, base, True),          # immediate, RZ/RD/RNE/trunc
            (imm_up, base, True),        # immediate, RU
            (base, imm_up, True),        # immediate, RD
            (deferred, deferred, False),
        ))
    raise ValueError(f"unknown normalisation case {case!r}")


# -- rounding when block results combine (RM-MBFMA) --------------------


@_memoised
def gen_rm_mbfma_probe(fin: FpFormat, fout: FpFormat, n_fma: int, j: int = 0,
                       live_position: Optional[int] = None) -> Probe:
    """Detect the rounding mode used to combine two block results.

    The accumulator input meets a unit product in the first slot of the
    second block, and their combine overflows into the next binade: no bit
    reaches below the alignment boundary, so neither the alignment width
    nor its reduction mode can move the result, and only the final combine
    rounding decides.  ``live_position`` moves the live product when the
    accumulator input rides a block other than the first.
    """
    if n_fma < 1:
        raise ValueError("n_fma must be >= 1")
    p = fout.precision
    pos_idx = live_position if live_position is not None else n_fma + 1
    c = ONE + pow2(-p + 1) + pow2(-p + 2)
    pos = _vector(f"rm-mbfma-carry[j={j}]", c, {pos_idx: ONE}, fin, j,
                  max(n_fma + 1, pos_idx))
    return _rounding_probe("rm_mbfma", pos, pow2(1) + pow2(-p + 2),
                           pow2(1) + pow2(-p + 3), j)


# -- combine ordering ---------------------------------------------------


@_memoised
def gen_ordering_probe(fin: FpFormat, fout: FpFormat, n_fma: int,
                       j: int = 0) -> Probe:
    """Identify which partial sum the accumulator input joins first.

    Three assignments rotate a cancelling pair and a far-sub-ulp survivor
    among the accumulator input and the two blocks of a two-block tile.
    Exactly one assignment lets the survivor escape cancellation, and
    which one it is names the ordering.  Assumes two blocks per inner
    product and at most three extra alignment bits (the survivor must be
    truncated whenever it aligns against a unit exponent).
    """
    if n_fma < 1:
        raise ValueError("n_fma must be >= 1")
    tiny = pow2(-fout.precision - 3)
    # (addend, first slot of block one, first slot of block two)
    vectors = tuple(
        _vector(f"ordering-{name}[j={j}]", c, {1: first, n_fma + 1: second},
                fin, j, 2 * n_fma)
        for name, c, first, second in (("P1", ONE, -ONE, tiny),
                                       ("P2", tiny, ONE, -ONE),
                                       ("P3", ONE, tiny, -ONE)))
    return _probe("ordering", vectors, (
        ((tiny, ZERO, ZERO), "CFirst"),
        ((ZERO, tiny, ZERO), "TreeThenC"),
        ((ZERO, ZERO, tiny), "CWithLast"),
    ), j)


# -- width and carry-bit search -----------------------------------------


def width_test_vectors(k: int, fin: FpFormat,
                       fout: FpFormat) -> tuple[ProbeVector, ...]:
    """Boundary-detection vectors for shared dimension ``k``.

    Four families, each issued in both polarities, all with the same
    property: a single block keeps their sum exact, while a block split at
    any smaller width loses a fine bit to rounding or alignment in at
    least one polarity.

    * head: the fine-carrying accumulator input meets a unit product in
      the first slot, the trailing fine product sits at position ``k``.
    * tail: the mirror image, for units that fold the accumulator input
      into the last block.
    * cancel variants of both: the trailing fine product negated, so the
      exact total is a clean power of two.  After a block rounds the
      carry-and-fine value toward zero, subtracting the fine bit lands on
      an exactly representable value, which no combine rounding mode can
      pull back to the total; this defeats opposing-mode pairs whose
      errors otherwise cancel across the two stages.
    * straddle and straddle-cancel (k >= 4): two unit-plus-fine pairs at
      the extreme ends with no accumulator involvement, for units that
      combine block results before the addend joins.  Listed last:
      ``run_algorithm1`` reads ``straddle_only`` off its first off vector.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    fine = pow2(-fout.precision + 1)
    c = ONE + fine
    families = [("head", c, {1: ONE, k: fine}),
                ("tail", c, {1: fine, k: ONE}),
                ("head-cancel", c, {1: ONE, k: -fine}),
                ("tail-cancel", c, {1: -fine, k: ONE})]
    if k >= 4:
        ends = {1: ONE, 2: fine, k - 1: ONE}
        families += [("straddle", ZERO, {**ends, k: fine}),
                     ("straddle-cancel", ZERO, {**ends, k: -fine})]
    out = []
    for family, addend, live in families:
        vec = _vector(f"width-{family}[k={k}]", addend, live, fin, k=k)
        out += (vec, vec.negated())
    return tuple(out)


def carry_test_vector(k: int, fin: FpFormat, fout: FpFormat) -> ProbeVector:
    """Carry-headroom test at shared dimension ``k``.

    ``k - 1`` products of the largest value below two maximize the run of
    carries; the accumulator input carries marker bits that end up exactly
    at the last representable position after the carries shift the window,
    and the final product keeps the low end alive.  The sum is exact and
    representable, so any loss means the carries exceeded the headroom.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    p_in, p_out = fin.precision, fout.precision
    big = pow2(1) - pow2(1 - p_in)
    m = (k - 1).bit_length()  # ceil(log2(k)) marker bits above the probe bit
    c = big + sum_of_pow2(-p_out + i for i in range(1, m + 1))
    return _vector(f"carry[k={k}]", c, [big] * (k - 1) + [pow2(-p_out + 1)],
                   fin)


@_memoised
def _scan_step(k: int, fin: FpFormat, fout: FpFormat,
               ) -> tuple[tuple[tuple[ProbeVector, Dyadic], ...],
                          ProbeVector, Optional[Dyadic]]:
    """What the width scan sends at ``k``: each width vector with its exact
    sum, then the carry vector and its exact sum, which is None when the
    carry addend is not exact in ``fout`` (the carry test is then not
    sent)."""
    width = []
    for vec in width_test_vectors(k, fin, fout):
        width.append((vec, exact_oracle(vec.c, *zip(*vec.pairs))))
    cvec = carry_test_vector(k, fin, fout)
    carry_sum = (None if cvec.c.bit_count > fout.precision
                 else exact_oracle(cvec.c, *zip(*cvec.pairs)))
    return tuple(width), cvec, carry_sum


@dataclass
class Algorithm1Result:
    """What the iterative width / carry-bit search observed."""

    n_fma: Optional[int]  # None: no block split up to k_max
    n_ecb: int
    # The first off vector was a straddle one: the addend never met a block.
    straddle_only: bool = False
    # First k whose carry test was not sent: its addend is inexact in the
    # output format, and so is every larger k's.
    carry_skipped_at: Optional[int] = None


def run_algorithm1(evaluate: Callable[[ProbeVector], Value],
                   fin: FpFormat, fout: FpFormat,
                   k_max: int) -> Algorithm1Result:
    """Iterative search for the FMA width and detectable carry bits.

    Per shared dimension ``k`` starting at two: send the boundary vectors
    until one's magnitude is off its exact sum (the width is then ``k - 1``,
    and that vector alone decides ``straddle_only``), then the carry test,
    recording ``floor(log2(k * (2 - 2^(1-p_in))))`` whenever it comes back
    exact.  That bound never falls as ``k`` grows, so the carry test is sent
    only while its bound is above the bits recorded.  The mirrored and
    straddle vectors beyond the published head pair catch block splits
    that the head vectors cannot see when the accumulator input joins a
    different partial sum.  The carry test is sent only while its
    accumulator input is exact in ``fout``; the first ``k`` where it is not
    is recorded as ``carry_skipped_at``.  Each ``k``'s vectors and exact
    sums are built once per format pair (``_scan_step``).

    ``evaluate`` receives a vector and must return the device output; no
    split up to ``k_max`` leaves ``n_fma`` at None (width at least k_max).
    """
    n_ecb = 0
    skipped_at: Optional[int] = None
    for k in range(2, k_max + 1):
        width, cvec, carry_sum = _scan_step(k, fin, fout)
        for vec, exact in width:
            d = evaluate(vec)
            # Canonical values: equal (sig, exp) is equal magnitude, ±0 too.
            if type(d) is Special or d.sig != exact.sig or d.exp != exact.exp:
                return Algorithm1Result(
                    n_fma=k - 1, n_ecb=n_ecb,
                    straddle_only=vec.label.startswith("width-straddle"),
                    carry_skipped_at=skipped_at)
        if skipped_at is None:
            bits = max_detectable_carry_bits(k, fin.precision)
            if carry_sum is None:
                skipped_at = k
            elif bits > n_ecb and evaluate(cvec) == carry_sum:
                n_ecb = bits
    return Algorithm1Result(None, n_ecb, carry_skipped_at=skipped_at)
