"""Verification-grid helper tests."""

from mmaprobe.backend import SimBackend
from mmaprobe.inference import QUAL_EXACT, FeatureReport, Field, infer_features
from mmaprobe.selftest import (
    GridCase,
    check_case,
    expected_fields,
    iter_grid,
    soundness_problems,
)
from mmaprobe.simulator import (
    AlignmentPolicy,
    BlockFmaConfig,
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


def test_soundness_flags_fabricated_claims():
    case = GridCase(BlockFmaConfig(fma_width=8, n_eab=1, n_ecb=3), "binary16")
    report = infer_features(SimBackend(case.cfg), case.fin, case.fout)
    assert soundness_problems(case, report) == []
    report.fma_width.value = 5  # fabricate a wrong determinate claim
    assert any("fma_width" in p for p in soundness_problems(case, report))


def test_soundness_reads_alignment_rounding_from_config():
    case = GridCase(BlockFmaConfig(alignment_policy=AlignmentPolicy.RNE),
                    "binary16")
    report = FeatureReport(fin="binary16", fout="binary32")
    report.rm_post_alignment = Field("RNE", QUAL_EXACT)
    assert soundness_problems(case, report) == []
    report.rm_post_alignment = Field("Truncate", QUAL_EXACT)
    [problem] = soundness_problems(case, report)
    assert problem.startswith("rm_post_alignment=")
