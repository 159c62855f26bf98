"""Round-trip verification grid shared by the CLI selftest and the tests.

For every hardware-consistent simulator configuration in the supported
grid, inference must recover each feature exactly where the probes'
preconditions hold, and must return *undetermined* (never a wrong value)
where they do not.  ``expected_fields`` encodes the per-configuration
contract:

* Deferred units with the addend riding a block (``CFirst``/``CWithLast``)
  expose everything: width, carry and alignment bits (up to their caps),
  normalisation timing and all rounding modes.
* Deferred ``TreeThenC`` units keep the addend outside every block, which
  makes the carry test, the addend-anchored timing/rounding probes and
  small-width boundaries structurally unobservable; width (via the
  straddle split plus tile geometry), alignment depth (via the
  cancellation test), ordering and the combine rounding remain
  recoverable for wide enough blocks.
* Immediately normalising units round after every addition, so their
  observable block width is one: the boundary search stops at k=2, no
  carry headroom is detected, and the timing verdict is "immediate".
  The rounding-mode probes then have no valid reading and stay
  undetermined.  (On ``TreeThenC`` the physical boundary is still seen by
  the straddle vectors; the width field reports that structural boundary.)
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from .backend import SimBackend
from .formats import RoundingMode, lookup_format
from .inference import (
    QUAL_AT_LEAST,
    QUAL_EXACT,
    FeatureReport,
    infer_features,
)
from .simulator import (
    BlockFmaConfig,
    NormPolicy,
    Ordering,
    max_detectable_carry_bits,
)

__all__ = ["GridCase", "iter_grid", "expected_fields", "check_case",
           "soundness_problems", "run_selftest", "GOLDEN_PRESETS"]

_RM_NAME = {
    RoundingMode.TRUNCATE: "Truncate",
    RoundingMode.RZ: "Truncate",
    RoundingMode.RNE: "RNE",
    RoundingMode.RU: "RU",
    RoundingMode.RD: "RD",
}

WIDTHS = (1, 2, 3, 4, 8, 16)
EABS = (0, 1, 2)
RMS = (RoundingMode.TRUNCATE, RoundingMode.RNE, RoundingMode.RU,
       RoundingMode.RD)
INPUT_FORMATS = ("binary16", "bfloat16", "TensorFloat32")


@dataclass(frozen=True)
class GridCase:
    cfg: BlockFmaConfig
    fin: str
    fout: str = "binary32"


def iter_grid(fins: Iterable[str] = INPUT_FORMATS,
              quick: bool = False) -> Iterator[GridCase]:
    """Hardware-consistent configurations of the verification grid."""
    for fin in fins:
        p_in = lookup_format(fin).precision
        for width in WIDTHS:
            n_ecb = max_detectable_carry_bits(width, p_in)
            for n_eab in EABS:
                for norm in (NormPolicy.DEFERRED, NormPolicy.IMMEDIATE):
                    for rm_intra in RMS:
                        for rm_inter in RMS:
                            if quick and rm_intra is not rm_inter:
                                continue
                            for ordering in Ordering:
                                yield GridCase(BlockFmaConfig(
                                    fma_width=width, n_eab=n_eab,
                                    n_ecb=n_ecb, norm_policy=norm,
                                    rm_intra=rm_intra, rm_inter=rm_inter,
                                    ordering=ordering, blocks_per_tile=2,
                                ), fin)


def _exact(v) -> tuple:
    return ("exact", v)


def _at_least(v) -> tuple:
    return ("at_least", v)


_UNDET = ("undet",)


def expected_fields(case: GridCase) -> dict:
    """Per-field contract for one grid configuration (see module docs);
    every report field is undetermined unless a row below sets it."""
    cfg = case.cfg
    n, eab = cfg.fma_width, cfg.n_eab
    deferred = cfg.norm_policy is NormPolicy.DEFERRED
    c_anchored = cfg.ordering in (Ordering.C_FIRST, Ordering.C_WITH_LAST)
    rm_intra = _RM_NAME[cfg.rm_intra]
    rm_inter = _RM_NAME[cfg.rm_inter]
    ord_name = cfg.ordering.value

    exp = dict.fromkeys(FeatureReport(case.fin, case.fout).field_map(),
                        _UNDET)
    exp["subnormal_in"] = exp["subnormal_out"] = _exact(True)

    if deferred and c_anchored:
        exp["fma_width"] = _exact(n)
        if n == 1:
            # Single-addition blocks; the ordering stays undetermined
            # because width 1 masks wider immediate units.
            exp["n_ecb"] = _exact(0)
            exp["n_eab"] = _at_least(0)
            exp["immediate_norm"] = _exact(True)
            return exp
        exp["n_ecb"] = _at_least(cfg.n_ecb)
        exp["ordering"] = _exact(ord_name)
        exp["n_eab"] = _exact(eab) if eab <= n - 2 else _at_least(n - 1)
        # At eab == 0 and n == 2 the carry-only test needs 3 products.
        if eab >= 1 or n >= 3:
            exp["immediate_norm"] = _exact(False)
        if n >= 3:
            exp["rm_bfma"] = _exact(rm_intra)
        if eab <= min(1, n - 2):
            exp["rm_post_alignment"] = _exact("Truncate")
        exp["rm_mbfma"] = _exact(rm_inter)
        return exp

    if deferred:  # TreeThenC
        if n >= 3:
            exp["fma_width"] = _exact(n)
            exp["ordering"] = _exact(ord_name)
            exp["rm_mbfma"] = _exact(rm_inter)
        # At n == 3 the boundary is found at k=4, where a per-addition-
        # rounding unit would split too: timing unproven, so the sweep
        # stays off.
        if n >= 4:
            exp["n_eab"] = _exact(eab)  # cancellation sweep, cap n-1 >= 3
            exp["immediate_norm"] = _exact(False)
        return exp

    # Immediate normalisation.
    if c_anchored:
        # Ordering stays undetermined: single-block folds mask it.
        exp["fma_width"] = _exact(1)
        exp["n_ecb"] = _exact(0)
        exp["n_eab"] = _at_least(0)
        exp["immediate_norm"] = _exact(True)
        return exp
    # Immediate TreeThenC: the straddle split still marks the physical
    # block boundary; only the three-wide case survives the tile cross
    # check (wider units all split at the first straddle dimension).
    if n == 3:
        exp["fma_width"] = _exact(3)
        exp["ordering"] = _exact(ord_name)
        exp["rm_mbfma"] = _exact(rm_inter)  # both combines round inter-block
    return exp


def check_case(case: GridCase, report: FeatureReport) -> list[str]:
    """Mismatch descriptions of a grid case's report, one line each."""
    problems = [] if report.complete else ["report incomplete"]
    return problems + _field_problems(report, expected_fields(case))


def _field_problems(report: FeatureReport, expected: dict) -> list[str]:
    """Report fields that differ from ``expected`` rows, one line each."""
    problems = []
    for name, exp in expected.items():
        f = report.field_map()[name]
        if exp == _UNDET:
            if f.determinate:
                problems.append(
                    f"{name}: expected undetermined, got "
                    f"{f.qualifier}{f.value!r}")
            continue
        kind, value = exp
        qual = QUAL_EXACT if kind == "exact" else QUAL_AT_LEAST
        if not (f.qualifier == qual and f.value == value):
            problems.append(
                f"{name}: expected {qual}{value!r}, got "
                f"{f.qualifier}{f.value!r} ({f.reason})")
    return problems


def soundness_problems(case: GridCase, report: FeatureReport) -> list[str]:
    """Determinate claims that contradict the configured ground truth.

    This audit is independent of the per-pipeline expectations: whatever a
    report asserts with a value must be true of the configuration, with
    lower bounds read as bounds.  Width and carry claims on immediately
    normalising units are checked against their observable meaning (every
    addition rounds, so the rounding width is one and no carry propagates),
    with the physical block width accepted as the alternate true reading.
    """
    cfg = case.cfg
    deferred = cfg.norm_policy is NormPolicy.DEFERRED
    problems = []
    fields = report.field_map()

    def bad(name, why):
        f = fields[name]
        problems.append(f"{name}={f.qualifier}{f.value!r}: {why}")

    truth_rm = {"rm_bfma": _RM_NAME[cfg.rm_intra],
                "rm_mbfma": _RM_NAME[cfg.rm_inter],
                "rm_post_alignment": _RM_NAME[cfg.alignment_policy.rounding]}

    for name in ("subnormal_in", "subnormal_out"):
        f = fields[name]
        if f.determinate and f.value is not True:
            bad(name, "formats support subnormals")

    f = fields["fma_width"]
    if f.determinate:
        allowed = {cfg.fma_width} if deferred else {1, cfg.fma_width}
        if f.qualifier == QUAL_EXACT and f.value not in allowed:
            bad("fma_width", f"true width {cfg.fma_width}")
        if f.qualifier == QUAL_AT_LEAST and f.value > cfg.fma_width:
            bad("fma_width", f"bound exceeds true width {cfg.fma_width}")

    f = fields["n_eab"]
    if f.determinate:
        if f.qualifier == QUAL_EXACT and f.value != cfg.n_eab:
            bad("n_eab", f"true value {cfg.n_eab}")
        if f.qualifier == QUAL_AT_LEAST and f.value > cfg.n_eab:
            bad("n_eab", f"bound exceeds true value {cfg.n_eab}")

    f = fields["n_ecb"]
    true_ecb = cfg.n_ecb if deferred and cfg.fma_width > 1 else 0
    if f.determinate:
        if f.qualifier == QUAL_EXACT and f.value != true_ecb:
            bad("n_ecb", f"true observable value {true_ecb}")
        if f.qualifier == QUAL_AT_LEAST and f.value > true_ecb:
            bad("n_ecb", f"bound exceeds observable value {true_ecb}")

    f = fields["immediate_norm"]
    true_imm = (not deferred) or cfg.fma_width == 1
    if f.determinate and f.value != true_imm:
        bad("immediate_norm", f"true observable value {true_imm}")

    for name, true_value in truth_rm.items():
        f = fields[name]
        if f.determinate and f.value != true_value:
            bad(name, f"true value {true_value}")

    f = fields["ordering"]
    if f.determinate and f.value != cfg.ordering.value:
        bad("ordering", f"true value {cfg.ordering.value}")
    return problems


# Preset name -> (fin, fout, expected report fields).
GOLDEN_PRESETS = {
    ("ampere", "binary16", "binary32"): {
        "subnormal_in": _exact(True), "subnormal_out": _exact(True),
        "n_eab": _exact(1), "n_ecb": _at_least(3),
        "immediate_norm": _exact(False), "fma_width": _exact(8),
        "rm_bfma": _exact("Truncate"), "rm_mbfma": _exact("Truncate"),
        "ordering": _exact("CFirst"),
    },
    ("ampere", "bfloat16", "binary32"): {
        "subnormal_in": _exact(True), "subnormal_out": _exact(True),
        "n_eab": _exact(1), "n_ecb": _at_least(3),
        "immediate_norm": _exact(False), "fma_width": _exact(8),
        "rm_bfma": _exact("Truncate"), "rm_mbfma": _exact("Truncate"),
        "ordering": _exact("CFirst"),
    },
    ("tf32_ampere", "TensorFloat32", "binary32"): {
        "subnormal_in": _exact(True), "subnormal_out": _exact(True),
        "n_eab": _exact(1), "n_ecb": _at_least(2),
        "immediate_norm": _exact(False), "fma_width": _exact(4),
        "rm_bfma": _exact("Truncate"), "rm_mbfma": _exact("Truncate"),
        "ordering": _exact("CFirst"),
    },
    ("ampere_b16out", "binary16", "binary16"): {
        "subnormal_in": _exact(True), "subnormal_out": _exact(True),
        "n_eab": _exact(1), "n_ecb": _at_least(3),
        "immediate_norm": _exact(False), "fma_width": _exact(8),
        "rm_bfma": _exact("RNE"), "rm_mbfma": _exact("RNE"),
        "ordering": _exact("CFirst"),
    },
}


def check_golden_preset(preset: str, fin: str, fout: str) -> list[str]:
    from .presets import load_config

    cfg = load_config(preset)
    session = SimBackend(cfg)
    report = infer_features(session, fin, fout)
    return [f"{preset}/{fin}->{fout} {p}" for p in
            _field_problems(report, GOLDEN_PRESETS[(preset, fin, fout)])]


def run_selftest(quick: bool = False, out=None) -> bool:
    """Grid round-trip plus preset goldens; prints one line per section."""
    out = out or sys.stdout
    started = time.monotonic()
    failures = 0
    total = 0
    for case in iter_grid(quick=quick):
        total += 1
        session = SimBackend(case.cfg)
        report = infer_features(session, case.fin, case.fout)
        problems = check_case(case, report) + soundness_problems(case, report)
        if problems:
            failures += 1
            cfg = case.cfg
            out.write(
                f"FAIL grid {case.fin} width={cfg.fma_width} "
                f"eab={cfg.n_eab} norm={cfg.norm_policy.value} "
                f"intra={cfg.rm_intra.value} inter={cfg.rm_inter.value} "
                f"ord={cfg.ordering.value}: {'; '.join(problems)}\n")
    status = "PASS" if failures == 0 else "FAIL"
    out.write(f"{status} round-trip grid: {total - failures}/{total} "
              f"configurations in {time.monotonic() - started:.1f}s\n")

    golden_failures = 0
    for (preset, fin, fout) in GOLDEN_PRESETS:
        problems = check_golden_preset(preset, fin, fout)
        for p in problems:
            out.write(f"FAIL golden: {p}\n")
        golden_failures += len(problems)
        if not problems:
            out.write(f"PASS golden {preset} {fin}->{fout}\n")
    return failures == 0 and golden_failures == 0
