"""Verification-grid helper tests."""

import copy

import pytest

from mmaprobe.backend import SimBackend
from mmaprobe.formats import RoundingMode
from mmaprobe.inference import (
    QUAL_AT_LEAST,
    QUAL_EXACT,
    FeatureReport,
    Field,
    infer_features,
)
from mmaprobe.selftest import (
    _UNDET,
    GridCase,
    check_case,
    expected_fields,
    iter_grid,
    soundness_problems,
)
from mmaprobe.simulator import (
    AlignmentPolicy,
    BlockFmaConfig,
    CarryOverflow,
    NormPolicy,
    Ordering,
    max_detectable_carry_bits,
)


def test_grid_is_hardware_consistent():
    for case in iter_grid(fins=("binary16",), quick=True):
        p_in = 11
        assert case.cfg.n_ecb == max_detectable_carry_bits(
            case.cfg.fma_width, p_in)


def test_grid_sizes():
    full = sum(1 for _ in iter_grid(fins=("binary16",)))
    quick = sum(1 for _ in iter_grid(fins=("binary16",), quick=True))
    assert full == 6 * 3 * 2 * 16 * 3
    assert quick == 6 * 3 * 2 * 4 * 3


def test_expected_fields_cover_all_features():
    for case in iter_grid(fins=("binary16",), quick=True):
        exp = expected_fields(case)
        assert set(exp) == {
            "subnormal_in", "subnormal_out", "n_eab", "n_ecb",
            "immediate_norm", "fma_width", "rm_bfma", "rm_mbfma",
            "rm_post_alignment", "ordering"}


def test_injected_misconfiguration_is_named():
    # A report taken from a four-wide unit checked against an eight-wide
    # expectation must name the mismatching fields.
    case = GridCase(BlockFmaConfig(fma_width=8, n_eab=1, n_ecb=3), "binary16")
    other = SimBackend(BlockFmaConfig(fma_width=4, n_eab=1, n_ecb=2))
    report = infer_features(other, "binary16", "binary32")
    problems = check_case(case, report)
    assert any("fma_width" in p for p in problems)
    assert any("n_ecb" in p for p in problems)


def test_expected_undetermined_field_is_named():
    # An immediately normalising TreeThenC unit wider than three hides its
    # block width; a report that claims one anyway must be flagged.
    case = GridCase(BlockFmaConfig(fma_width=4, n_eab=1, n_ecb=2,
                                   norm_policy=NormPolicy.IMMEDIATE,
                                   ordering=Ordering.TREE_THEN_C), "binary16")
    assert expected_fields(case)["fma_width"] == _UNDET
    report = infer_features(SimBackend(case.cfg), case.fin, case.fout)
    assert check_case(case, report) == []
    report.fma_width = Field(4, QUAL_EXACT)
    assert check_case(case, report) == [
        "fma_width: expected undetermined, got =4"]


# The default unit: width 8, n_eab 1, n_ecb 3, deferred normalisation,
# truncation everywhere, CFirst.  One wrong claim for each refutation in
# ``soundness_problems``; a bound above the true value is wrong too.
FABRICATED = [
    ("subnormal_in", Field(False, QUAL_EXACT)),
    ("subnormal_out", Field(False, QUAL_EXACT)),
    ("fma_width", Field(5, QUAL_EXACT)),
    ("fma_width", Field(9, QUAL_AT_LEAST)),
    ("n_eab", Field(2, QUAL_EXACT)),
    ("n_eab", Field(2, QUAL_AT_LEAST)),
    ("n_ecb", Field(2, QUAL_EXACT)),
    ("n_ecb", Field(4, QUAL_AT_LEAST)),
    ("immediate_norm", Field(True, QUAL_EXACT)),
    ("rm_bfma", Field("RNE", QUAL_EXACT)),
    ("rm_mbfma", Field("RU", QUAL_EXACT)),
    ("rm_post_alignment", Field("RD", QUAL_EXACT)),
    ("ordering", Field("TreeThenC", QUAL_EXACT)),
]
DEFAULT_CASE = GridCase(BlockFmaConfig(), "binary16")


@pytest.fixture(scope="module")
def sound_report():
    report = infer_features(SimBackend(DEFAULT_CASE.cfg), DEFAULT_CASE.fin,
                            DEFAULT_CASE.fout)
    assert soundness_problems(DEFAULT_CASE, report) == []
    return report


@pytest.mark.parametrize("name,claim", FABRICATED,
                         ids=[f"{n}{c.qualifier}{c.value}"
                              for n, c in FABRICATED])
def test_soundness_flags_fabricated_claims(sound_report, name, claim):
    report = copy.deepcopy(sound_report)
    setattr(report, name, claim)
    [problem] = soundness_problems(DEFAULT_CASE, report)
    assert problem.startswith(f"{name}={claim.qualifier}{claim.value!r}: ")


def test_soundness_reads_alignment_rounding_from_config():
    case = GridCase(BlockFmaConfig(alignment_policy=AlignmentPolicy.RNE),
                    "binary16")
    report = FeatureReport(fin="binary16", fout="binary32")
    report.rm_post_alignment = Field("RNE", QUAL_EXACT)
    assert soundness_problems(case, report) == []
    report.rm_post_alignment = Field("Truncate", QUAL_EXACT)
    [problem] = soundness_problems(case, report)
    assert problem.startswith("rm_post_alignment=")


def _deferred(fin, fout, width, eab, ecb, align, intra, inter, ordering,
              blocks):
    return GridCase(BlockFmaConfig(
        fma_width=width, n_eab=eab, n_ecb=ecb, alignment_policy=align,
        rm_intra=intra, rm_inter=inter, ordering=ordering,
        blocks_per_tile=blocks), fin, fout)


RM = RoundingMode
# Off-grid units whose reports once made a wrong claim; each id names it.
# Rounding alignment once misled the half-ulp combine-rounding probe; a
# carry test that never matched once read as an exact zero, and implied
# immediate normalisation.
OFF_GRID = [
    ("rm_mbfma=RD", _deferred(
        "bfloat16", "binary32", 2, 1, 1, AlignmentPolicy.RD, RM.RU,
        RM.TRUNCATE, Ordering.C_WITH_LAST, 4)),
    ("rm_mbfma=RU", _deferred(
        "binary16", "binary16", 2, 1, 1, AlignmentPolicy.RU, RM.RD, RM.RZ,
        Ordering.C_FIRST, 3)),
    ("n_ecb=0-w2", _deferred(
        "binary16", "binary16", 2, 0, 1, AlignmentPolicy.RD, RM.RNE, RM.RNE,
        Ordering.C_WITH_LAST, 2)),
    ("n_ecb=0-w3", _deferred(
        "binary16", "binary16", 3, 0, 2, AlignmentPolicy.RD, RM.RNE, RM.RD,
        Ordering.C_WITH_LAST, 4)),
] + [  # the binary16->binary16 n_eab=0 units of the benchmark's slice
    (f"n_ecb=0-w{width}-{ordering.value}", _deferred(
        "binary16", "binary16", width, 0,
        max_detectable_carry_bits(width, 11), AlignmentPolicy.TRUNCATE_BITS,
        rm, rm, ordering, 2))
    for width, ordering, rm in ((2, Ordering.C_FIRST, RM.RD),
                                (2, Ordering.C_WITH_LAST, RM.RNE),
                                (8, Ordering.C_FIRST, RM.RD),
                                (8, Ordering.C_WITH_LAST, RM.RNE))
]


@pytest.mark.parametrize("case", [c for _, c in OFF_GRID],
                         ids=[name for name, _ in OFF_GRID])
def test_off_grid_reports_are_sound(case):
    report = infer_features(SimBackend(case.cfg), case.fin, case.fout)
    assert soundness_problems(case, report) == []


def test_unsent_carry_test_cannot_abort_the_width_scan():
    # This unit answers a carry test needing more than its 2 carry bits
    # with an Internal error.  The scan recorded 3 bits at k=5, so it
    # sends no carry test from k=6 on: the width and ordering are found,
    # where a scan sending every carry test ended undetermined.
    case = GridCase(BlockFmaConfig(
        fma_width=8, n_eab=0, n_ecb=2, rm_intra=RM.RU, rm_inter=RM.RU,
        ordering=Ordering.TREE_THEN_C, carry_overflow=CarryOverflow.ERROR),
        "binary16")
    report = infer_features(SimBackend(case.cfg), case.fin, case.fout)
    assert (report.fma_width.value, report.fma_width.qualifier) == \
        (8, QUAL_EXACT)
    assert report.ordering == Field("TreeThenC", QUAL_EXACT)
    assert soundness_problems(case, report) == []
