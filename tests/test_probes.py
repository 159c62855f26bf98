"""Probe generator and classifier tests, driven through the simulator."""

import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmaprobe.formats import (
    NAN,
    ONE,
    POS_INF,
    REGISTRY,
    ZERO,
    Dyadic,
    FpFormat,
    RoundingMode,
    pow2,
)
from mmaprobe.probes import (
    Algorithm1Result,
    NotFactorable,
    Probe,
    ProbeVector,
    _scan_step,
    carry_test_vector,
    factor_into_operands,
    gen_alignment_bits_probe,
    gen_alignment_cancel_probe,
    gen_normalisation_probe,
    gen_ordering_probe,
    gen_post_alignment_rounding_probe,
    gen_rm_bfma_probe,
    gen_rm_mbfma_probe,
    gen_subnormal_probes,
    run_algorithm1,
    width_test_vectors,
)
from mmaprobe.selftest import _RM_NAME
from mmaprobe.simulator import (
    AlignmentPolicy,
    BlockFmaConfig,
    NormPolicy,
    Ordering,
    exact_oracle,
    max_detectable_carry_bits,
    mma_dot,
)

B16 = REGISTRY["binary16"]
BF16 = REGISTRY["bfloat16"]
TF32 = REGISTRY["TensorFloat32"]
B32 = REGISTRY["binary32"]

RM = RoundingMode


def exact_sum(vec):
    return exact_oracle(vec.c, *zip(*vec.pairs))


def eval_probe(probe: Probe, cfg: BlockFmaConfig, fout=B32):
    observed = [mma_dot(v.c, [a for a, _ in v.pairs], [b for _, b in v.pairs],
                        cfg, fout) for v in probe.vectors]
    return probe.classify(observed)


def sim_eval(cfg, fout=B32):
    def evaluate(vec: ProbeVector):
        return mma_dot(vec.c, [a for a, _ in vec.pairs],
                       [b for _, b in vec.pairs], cfg, fout)
    return evaluate


class TestFactorization:
    def test_identity_split(self):
        v = Dyadic.from_int(2) - pow2(-10)
        a, b = factor_into_operands(v, B16)
        assert a * b == v
        assert b == ONE

    def test_power_split_below_normal_range(self):
        a, b = factor_into_operands(pow2(-23), B16)
        assert a == pow2(-9) and b == pow2(-14)

    def test_too_many_bits(self):
        with pytest.raises(NotFactorable):
            factor_into_operands(ONE + pow2(-11), B16)

    def test_zero(self):
        assert factor_into_operands(ZERO, B16) == (ZERO, ZERO)

    @pytest.mark.parametrize("fin", [B16, BF16, TF32], ids=lambda f: f.name)
    def test_random_values_round_trip(self, fin):
        import random
        rng = random.Random(5)
        for _ in range(300):
            sig = rng.randrange(1, 1 << fin.precision)
            exp = rng.randrange(-30, 8)
            v = Dyadic.make(rng.choice((1, -1)), sig, exp)
            a, b = factor_into_operands(v, fin)
            assert a * b == v
            assert a.bit_count <= fin.precision
            assert b.sig == 1

    def test_unreachable_exponent(self):
        with pytest.raises(NotFactorable):
            factor_into_operands(pow2(-60), B16)


class TestSubnormalProbes:
    def test_supported_model(self):
        probe_in, probe_out = gen_subnormal_probes(B16, B32)
        cfg = BlockFmaConfig()
        assert eval_probe(probe_in, cfg).value is True
        assert eval_probe(probe_out, cfg).value is True

    def test_flushing_input_model(self):
        ftz_in = FpFormat("b16ftz", precision=11, exp_bits=5,
                          storage_bits=16, subnormals=False)
        probe_in, _ = gen_subnormal_probes(ftz_in, B32)
        # A flush-on-read backend sees zero operands.
        verdict = probe_in.classify([ZERO])
        assert verdict.value is False

    def test_flushing_output_model(self):
        _, probe_out = gen_subnormal_probes(B16, B32)
        verdict = probe_out.classify([ZERO])
        assert verdict.value is False

    @pytest.mark.parametrize("special", [NAN, POS_INF])
    def test_special_observation_is_undetermined(self, special):
        # No classifier row holds a non-finite value, so a NaN or an
        # infinity falls through every row.
        probe_in, _ = gen_subnormal_probes(B16, B32)
        field = probe_in.classify([special])
        assert not field.determinate
        assert field.reason == "observation matched no classifier row"

    def test_out_vector_reaches_subnormal_band(self):
        # Narrow-range inputs ride the addend; wide-range use a product.
        _, probe_fp16 = gen_subnormal_probes(B16, B32)
        [vec] = probe_fp16.vectors
        expected = vec.c
        for a, b in vec.pairs:
            expected = expected + a * b
        assert not expected.is_zero
        assert expected.floor_log2 < B32.emin

        _, probe_bf16 = gen_subnormal_probes(BF16, B32)
        [vec] = probe_bf16.vectors
        total = vec.c
        for a, b in vec.pairs:
            total = total + a * b
        assert not total.is_zero
        assert total.floor_log2 < B32.emin


class TestPostAlignmentProbe:
    @pytest.mark.parametrize("n_eab", [0, 1])
    def test_truncating_alignment(self, n_eab):
        probe = gen_post_alignment_rounding_probe(B16, B32, n_eab)
        cfg = BlockFmaConfig(n_eab=n_eab)
        assert eval_probe(probe, cfg).value == "Truncate"

    def test_rounding_alignments(self):
        probe = gen_post_alignment_rounding_probe(B16, B32, 1)
        for policy, name in [(AlignmentPolicy.RNE, "RNE"),
                             (AlignmentPolicy.RU, "RU"),
                             (AlignmentPolicy.RD, "RD")]:
            cfg = BlockFmaConfig(n_eab=1, alignment_policy=policy)
            assert eval_probe(probe, cfg).value == name

    def test_example_values(self):
        probe = gen_post_alignment_rounding_probe(B16, B32, 1)
        [pos, neg] = probe.vectors
        r = pos.pairs[0][0] * pos.pairs[0][1]
        assert r == pow2(-25) + pow2(-26)
        assert pos.c == ONE and neg.c == -ONE
        cfg = BlockFmaConfig(n_eab=1, alignment_policy=AlignmentPolicy.RNE)
        d = mma_dot(pos.c, [a for a, _ in pos.pairs],
                    [b for _, b in pos.pairs], cfg, B32)
        assert d == ONE + pow2(-23)

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            gen_post_alignment_rounding_probe(B16, B32, 2)


class TestRmBfmaProbe:
    @pytest.mark.parametrize("rm,name", [
        (RM.TRUNCATE, "Truncate"), (RM.RNE, "RNE"),
        (RM.RU, "RU"), (RM.RD, "RD")])
    def test_deferred_modes(self, rm, name):
        probe = gen_rm_bfma_probe(B16, B32)
        cfg = BlockFmaConfig(n_eab=0, rm_intra=rm)
        assert eval_probe(probe, cfg).value == name

    def test_truncate_value(self):
        probe = gen_rm_bfma_probe(B16, B32)
        [pos, _] = probe.vectors
        cfg = BlockFmaConfig(n_eab=0)
        d = mma_dot(pos.c, [a for a, _ in pos.pairs],
                    [b for _, b in pos.pairs], cfg, B32)
        assert d == Dyadic.from_int(4)

    def test_rne_value(self):
        probe = gen_rm_bfma_probe(B16, B32)
        [pos, _] = probe.vectors
        cfg = BlockFmaConfig(n_eab=0, rm_intra=RM.RNE)
        d = mma_dot(pos.c, [a for a, _ in pos.pairs],
                    [b for _, b in pos.pairs], cfg, B32)
        assert d == Dyadic.from_int(4) + pow2(-21)

    def test_binary16_output_rne(self):
        probe = gen_rm_bfma_probe(B16, B16)
        cfg = BlockFmaConfig(rm_intra=RM.RNE)
        verdict = eval_probe(probe, cfg, fout=B16)
        assert verdict.value == "RNE"
        [pos, _] = probe.vectors
        d = mma_dot(pos.c, [a for a, _ in pos.pairs],
                    [b for _, b in pos.pairs], cfg, B16)
        assert d == Dyadic.from_int(4) + pow2(-8)

    @pytest.mark.parametrize("fout", [B32, B16], ids=lambda f: f.name)
    @pytest.mark.parametrize("width", [3, 8])
    @pytest.mark.parametrize("ordering",
                             [Ordering.C_FIRST, Ordering.C_WITH_LAST])
    @pytest.mark.parametrize("policy", list(AlignmentPolicy))
    def test_alignment_bit_indifference(self, policy, ordering, width,
                                        fout):
        # The carry vectors keep every bit above the alignment boundary,
        # so neither the extra bits nor their reduction can move them.
        probe = gen_rm_bfma_probe(B16, fout)
        n_ecb = max_detectable_carry_bits(width, B16.precision)
        for n_eab in range(4):
            for rm in RoundingMode:
                cfg = BlockFmaConfig(fma_width=width, n_eab=n_eab,
                                     n_ecb=n_ecb, alignment_policy=policy,
                                     rm_intra=rm, ordering=ordering)
                assert eval_probe(probe, cfg, fout=fout).value \
                    == _RM_NAME[rm], (n_eab, rm)


class TestAlignmentProbes:
    def test_ladder_detects_one_bit(self):
        probe = gen_alignment_bits_probe(B16, B32, 1)
        assert eval_probe(probe, BlockFmaConfig(n_eab=1)).value \
            == ("at_least", 1)
        assert eval_probe(probe, BlockFmaConfig(n_eab=0)).value \
            == ("fewer_than", 1)

    def test_ladder_depth_two(self):
        probe = gen_alignment_bits_probe(B16, B32, 2)
        [pos, _] = probe.vectors
        values = [a * b for a, b in pos.pairs]
        assert values[0] == pow2(-24)
        assert values[1] == pow2(-25) and values[2] == pow2(-25)
        assert eval_probe(probe, BlockFmaConfig(n_eab=1)).value \
            == ("fewer_than", 2)
        assert eval_probe(probe, BlockFmaConfig(n_eab=2)).value \
            == ("at_least", 2)

    def test_ladder_one_sided_indicator_reads_fewer(self):
        # Directed block rounding can resurrect the indicator on one
        # polarity; the pair rule must not read that as survival.
        probe = gen_alignment_bits_probe(B16, B32, 2)
        cfg = BlockFmaConfig(n_eab=1, rm_intra=RM.RU)
        assert eval_probe(probe, cfg).value == ("fewer_than", 2)

    def test_cancel_probe_depths(self):
        for true_eab in (0, 1, 2):
            cfg = BlockFmaConfig(n_eab=true_eab, n_ecb=2, fma_width=4)
            for n in (1, 2, 3):
                probe = gen_alignment_cancel_probe(B16, B32, n)
                want = ("at_least", n) if true_eab >= n else ("fewer_than", n)
                assert eval_probe(probe, cfg).value == want, (true_eab, n)

    def test_cancel_probe_rounding_free(self):
        for rm in (RM.TRUNCATE, RM.RNE, RM.RU, RM.RD):
            cfg = BlockFmaConfig(n_eab=2, rm_intra=rm, fma_width=4, n_ecb=2)
            probe = gen_alignment_cancel_probe(B16, B32, 2)
            assert eval_probe(probe, cfg).value == ("at_least", 2)

    def test_cancel_probe_needs_no_addend(self):
        probe = gen_alignment_cancel_probe(B16, B32, 1)
        assert all(v.c.is_zero for v in probe.vectors)
        cfg = BlockFmaConfig(n_eab=1, ordering=Ordering.TREE_THEN_C)
        assert eval_probe(probe, cfg).value == ("at_least", 1)


class TestNormalisationProbe:
    def test_carry_and_align_cases(self):
        probe = gen_normalisation_probe(B16, B32, "carry_and_align", t=3)
        deferred = BlockFmaConfig(n_eab=1, rm_intra=RM.RNE)
        immediate = replace(deferred, norm_policy=NormPolicy.IMMEDIATE)
        assert eval_probe(probe, deferred).value is False
        assert eval_probe(probe, immediate).value is True

    def test_carry_and_align_values(self):
        probe = gen_normalisation_probe(B16, B32, "carry_and_align", t=3)
        [pos, _] = probe.vectors
        deferred = BlockFmaConfig(n_eab=1)
        d = mma_dot(pos.c, [a for a, _ in pos.pairs],
                    [b for _, b in pos.pairs], deferred, B32)
        assert d == ONE + pow2(-21) + pow2(-23)
        immediate = replace(deferred, norm_policy=NormPolicy.IMMEDIATE,
                            rm_intra=RM.RNE)
        d = mma_dot(pos.c, [a for a, _ in pos.pairs],
                    [b for _, b in pos.pairs], immediate, B32)
        assert d == ONE + pow2(-21)

    def test_immediate_directed_modes(self):
        probe = gen_normalisation_probe(B16, B32, "carry_and_align", t=3)
        for rm in (RM.TRUNCATE, RM.RNE, RM.RU, RM.RD):
            cfg = BlockFmaConfig(n_eab=1, rm_intra=rm,
                                 norm_policy=NormPolicy.IMMEDIATE)
            assert eval_probe(probe, cfg).value is True, rm

    def test_carry_only_cases(self):
        probe = gen_normalisation_probe(B16, B32, "carry_only")
        deferred = BlockFmaConfig(n_eab=0)
        immediate = replace(deferred, norm_policy=NormPolicy.IMMEDIATE)
        assert eval_probe(probe, deferred).value is False
        assert eval_probe(probe, immediate).value is True
        [pos, _] = probe.vectors
        d = mma_dot(pos.c, [a for a, _ in pos.pairs],
                    [b for _, b in pos.pairs], immediate, B32)
        assert d == Dyadic.from_int(2)

    def test_gap_parameter(self):
        probe4 = gen_normalisation_probe(B16, B32, "carry_and_align", t=4)
        deferred = BlockFmaConfig(n_eab=1)
        assert eval_probe(probe4, deferred).value is False
        with pytest.raises(ValueError):
            gen_normalisation_probe(B16, B32, "carry_and_align", t=2)


class TestRmMbfmaProbe:
    def test_truncate_value(self):
        probe = gen_rm_mbfma_probe(B16, B32, 8)
        [pos, _] = probe.vectors
        d = mma_dot(pos.c, [a for a, _ in pos.pairs],
                    [b for _, b in pos.pairs], BlockFmaConfig(), B32)
        assert d == pow2(1) + pow2(-22)

    def test_rne_value(self):
        probe = gen_rm_mbfma_probe(B16, B32, 8)
        [pos, _] = probe.vectors
        cfg = BlockFmaConfig(rm_inter=RM.RNE)
        d = mma_dot(pos.c, [a for a, _ in pos.pairs],
                    [b for _, b in pos.pairs], cfg, B32)
        assert d == pow2(1) + pow2(-21)

    def test_binary16_output(self):
        probe = gen_rm_mbfma_probe(B16, B16, 8)
        cfg = BlockFmaConfig(rm_intra=RM.RNE, rm_inter=RM.RNE)
        assert eval_probe(probe, cfg, fout=B16).value == "RNE"
        [pos, _] = probe.vectors
        d = mma_dot(pos.c, [a for a, _ in pos.pairs],
                    [b for _, b in pos.pairs], cfg, B16)
        assert d == pow2(1) + pow2(-8)

    @pytest.mark.parametrize("rm,name", [
        (RM.TRUNCATE, "Truncate"), (RM.RNE, "RNE"),
        (RM.RU, "RU"), (RM.RD, "RD")])
    def test_no_alignment_bits(self, rm, name):
        probe = gen_rm_mbfma_probe(B16, B32, 4)
        cfg = BlockFmaConfig(fma_width=4, n_eab=0, n_ecb=2, rm_inter=rm)
        assert eval_probe(probe, cfg).value == name

    def test_intra_insensitive(self):
        probe = gen_rm_mbfma_probe(B16, B32, 4)
        for intra in (RM.TRUNCATE, RM.RNE, RM.RU, RM.RD):
            cfg = BlockFmaConfig(fma_width=4, n_eab=0, n_ecb=2,
                                 rm_intra=intra, rm_inter=RM.RNE)
            assert eval_probe(probe, cfg).value == "RNE"

    @pytest.mark.parametrize("width", [2, 8])
    @pytest.mark.parametrize("fout", [B32, B16], ids=lambda f: f.name)
    def test_alignment_cannot_move_the_verdict(self, fout, width):
        """No bit of the combine reaches below the alignment boundary, so
        the probe names ``rm_inter`` whatever the alignment width, its
        reduction mode, the ordering or the normalisation timing."""
        wrong = []
        for ordering in Ordering:
            live = 1 if ordering is Ordering.C_WITH_LAST else width + 1
            probe = gen_rm_mbfma_probe(B16, fout, width, live_position=live)
            for policy in AlignmentPolicy:
                for n_eab in range(4):
                    for norm in NormPolicy:
                        for rm in RM:
                            cfg = BlockFmaConfig(
                                fma_width=width, n_eab=n_eab,
                                alignment_policy=policy, norm_policy=norm,
                                rm_inter=rm, ordering=ordering)
                            got = eval_probe(probe, cfg, fout=fout).value
                            if got != _RM_NAME[rm]:
                                wrong.append((cfg, got))
        assert wrong == []


class TestOrderingProbe:
    @pytest.mark.parametrize("ordering,name", [
        (Ordering.C_FIRST, "CFirst"),
        (Ordering.TREE_THEN_C, "TreeThenC"),
        (Ordering.C_WITH_LAST, "CWithLast")])
    def test_assignment_rotation(self, ordering, name):
        probe = gen_ordering_probe(B16, B32, 8)
        cfg = BlockFmaConfig(ordering=ordering)
        assert eval_probe(probe, cfg).value == name

    def test_survivor_value(self):
        probe = gen_ordering_probe(B16, B32, 8)
        v1 = probe.vectors[0]
        d = mma_dot(v1.c, [a for a, _ in v1.pairs],
                    [b for _, b in v1.pairs], BlockFmaConfig(), B32)
        assert d == pow2(-27)

    def test_rounding_mode_indifference(self):
        for rm in (RM.TRUNCATE, RM.RNE, RM.RU, RM.RD):
            probe = gen_ordering_probe(B16, B32, 4)
            cfg = BlockFmaConfig(fma_width=4, n_ecb=2,
                                 ordering=Ordering.TREE_THEN_C,
                                 rm_intra=rm, rm_inter=rm)
            assert eval_probe(probe, cfg).value == "TreeThenC"


class TestScaleCovariance:
    """The same verdicts must come back at shifted scale exponents."""

    @pytest.mark.parametrize("j", [0, 1, 8])
    def test_rm_bfma(self, j):
        probe = gen_rm_bfma_probe(B16, B32, j=j)
        assert eval_probe(probe, BlockFmaConfig(rm_intra=RM.RNE)).value \
            == "RNE"

    @pytest.mark.parametrize("j", [0, 1, 8])
    def test_post_alignment(self, j):
        probe = gen_post_alignment_rounding_probe(B16, B32, 1, j=j)
        assert eval_probe(probe, BlockFmaConfig(n_eab=1)).value == "Truncate"

    @pytest.mark.parametrize("j", [0, 1, 8])
    def test_alignment_ladder(self, j):
        probe = gen_alignment_bits_probe(B16, B32, 1, j=j)
        assert eval_probe(probe, BlockFmaConfig(n_eab=1)).value \
            == ("at_least", 1)

    @pytest.mark.parametrize("j", [0, 1, 8])
    def test_ordering(self, j):
        probe = gen_ordering_probe(B16, B32, 8, j=j)
        assert eval_probe(probe, BlockFmaConfig()).value == "CFirst"

    @pytest.mark.parametrize("j", [0, 1, 8])
    def test_rm_mbfma(self, j):
        probe = gen_rm_mbfma_probe(B16, B32, 8, j=j)
        assert eval_probe(probe, BlockFmaConfig(rm_inter=RM.RD)).value == "RD"

    BUILDERS = {
        "post-align": lambda fin, fout, j: [
            gen_post_alignment_rounding_probe(fin, fout, n, j=j)
            for n in (0, 1)],
        "rm-bfma": lambda fin, fout, j: [gen_rm_bfma_probe(fin, fout, j=j)],
        "align-bits": lambda fin, fout, j: [
            gen_alignment_bits_probe(fin, fout, n, j=j) for n in (1, 2, 3)],
        "align-cancel": lambda fin, fout, j: [
            gen_alignment_cancel_probe(fin, fout, n, j=j) for n in (1, 2)],
        "ordering": lambda fin, fout, j: [
            gen_ordering_probe(fin, fout, n, j=j) for n in (1, 4)],
        "rm-mbfma": lambda fin, fout, j: [
            gen_rm_mbfma_probe(fin, fout, n, j=j, live_position=lp)
            for n, lp in ((1, None), (4, None), (4, 9))],
    }

    @pytest.mark.parametrize("j", [-3, 1, 5])
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    @pytest.mark.parametrize("fin,fout", [(B16, B32), (BF16, B32),
                                          (B16, B16)],
                             ids=lambda f: f.name)
    def test_values_scale_by_two_to_the_j(self, fin, fout, builder, j):
        """Seed j multiplies every addend, product and classifier output
        of the j=0 probe by 2^j and changes labels only in ``j=``."""
        scale = pow2(j)
        build = self.BUILDERS[builder]
        for base, probe in zip(build(fin, fout, 0), build(fin, fout, j)):
            assert probe.feature == base.feature
            assert probe.note == base.note
            assert len(probe.vectors) == len(base.vectors)
            for vec, ref in zip(probe.vectors, base.vectors):
                assert f"j={j}" in vec.label
                assert re.sub(r"j=-?\d+", "j=0", vec.label) == ref.label
                assert vec.c == ref.c * scale
                assert vec.k == ref.k
                assert [a * b for a, b in vec.pairs] \
                    == [a * b * scale for a, b in ref.pairs]
            assert [verdict for _, verdict in probe.rows] \
                == [verdict for _, verdict in base.rows]
            for (expected, _), (ref, _) in zip(probe.rows, base.rows):
                assert list(expected) == [x * scale for x in ref]


class TestOperandDiscipline:
    """Every generated operand is exact in the input format."""

    def probes_for(self, fin, fout):
        yield from gen_subnormal_probes(fin, fout)
        yield gen_post_alignment_rounding_probe(fin, fout, 1)
        yield gen_rm_bfma_probe(fin, fout)
        yield gen_alignment_bits_probe(fin, fout, 2)
        yield gen_alignment_cancel_probe(fin, fout, 2)
        yield gen_normalisation_probe(fin, fout, "carry_and_align")
        yield gen_normalisation_probe(fin, fout, "carry_only")
        yield gen_rm_mbfma_probe(fin, fout, 8)
        yield gen_ordering_probe(fin, fout, 8)

    @pytest.mark.parametrize("fin", [B16, BF16, TF32], ids=lambda f: f.name)
    def test_operands_encode_losslessly(self, fin):
        from mmaprobe.formats import decode, encode

        for probe in self.probes_for(fin, B32):
            for vec in probe.vectors:
                for a, b in vec.pairs:
                    for v in (a, b):
                        bits, inexact = encode(v, fin)
                        assert not inexact, (probe.feature, vec.label, v)
                        assert decode(bits, fin) == v
                c_bits, c_inexact = encode(vec.c, B32)
                assert not c_inexact
                assert decode(c_bits, B32) == vec.c


class TestWidthSearch:
    def run(self, cfg, fin=B16, fout=B32, k_max=64):
        k_max = min(k_max, cfg.max_k)
        return run_algorithm1(sim_eval(cfg, fout), fin, fout, k_max)

    def test_eight_wide_three_carry_bits(self):
        res = self.run(BlockFmaConfig(fma_width=8, n_eab=1, n_ecb=3))
        assert (res.n_fma, res.n_ecb) == (8, 3)

    def test_four_wide_tensorfloat(self):
        cfg = BlockFmaConfig(fma_width=4, n_eab=1, n_ecb=2)
        res = self.run(cfg, fin=TF32)
        assert (res.n_fma, res.n_ecb) == (4, 2)

    def test_width_one(self):
        res = self.run(BlockFmaConfig(fma_width=1, n_eab=1, n_ecb=0))
        assert (res.n_fma, res.n_ecb) == (1, 0)

    def test_no_alignment_bits(self):
        res = self.run(BlockFmaConfig(fma_width=4, n_eab=0, n_ecb=2))
        assert (res.n_fma, res.n_ecb) == (4, 2)

    def test_bfloat_carry_bits(self):
        res = self.run(BlockFmaConfig(fma_width=8, n_eab=1, n_ecb=3),
                       fin=BF16)
        assert (res.n_fma, res.n_ecb) == (8, 3)

    def test_inconclusive_at_cap(self):
        cfg = BlockFmaConfig(fma_width=8, n_eab=1, n_ecb=3)
        res = run_algorithm1(sim_eval(cfg), B16, B32, 6)
        assert res.n_fma is None
        assert res.n_ecb == 3  # matched carries up to the cap

    def test_carry_vector_shape(self):
        vec = carry_test_vector(8, B16, B32)
        total = exact_sum(vec)
        # The exact sum fits the output precision: equality is achievable.
        assert total.bit_count <= 24
        values = [a * b for a, b in vec.pairs]
        big = Dyadic.from_int(2) - pow2(-10)
        assert values[:7] == [big] * 7
        assert values[7] == pow2(-23)

    def test_mixed_mode_pairs_still_break(self):
        # Opposing directed modes cancel errors on the plain vectors;
        # the cancel variants must still expose the boundary.
        for intra, inter in [(RM.RD, RM.RU), (RM.RU, RM.RD),
                             (RM.RU, RM.TRUNCATE), (RM.RNE, RM.RU)]:
            for ordering in Ordering:
                cfg = BlockFmaConfig(fma_width=4, n_eab=1, n_ecb=2,
                                     rm_intra=intra, rm_inter=inter,
                                     ordering=ordering)
                res = self.run(cfg)
                assert res.n_fma == 4, (intra, inter, ordering)

    def test_match_at_all_smaller_k(self):
        # No vector family may split before the true boundary.
        for ordering in Ordering:
            for intra in (RM.TRUNCATE, RM.RNE, RM.RU, RM.RD):
                cfg = BlockFmaConfig(fma_width=8, n_eab=0, n_ecb=3,
                                     rm_intra=intra, ordering=ordering)
                res = self.run(cfg)
                assert res.n_fma == 8, (ordering, intra)

    def test_width_vectors_exact_sums(self):
        for k in (2, 4, 7):
            for vec in width_test_vectors(k, B16, B32):
                total = exact_sum(vec)
                assert total.bit_count <= 24

    def test_scan_sends_only_what_can_change_its_result(self):
        # Per k: the width vectors up to the first off one (none here),
        # then carry[k] only while its bound is above the bits recorded.
        cfg = BlockFmaConfig(fma_width=8, n_eab=1, n_ecb=3)
        unit, sent = sim_eval(cfg), []

        def evaluate(vec):
            sent.append(vec.label)
            return unit(vec)

        assert self.run(cfg) == run_algorithm1(evaluate, B16, B32,
                                               cfg.max_k)
        assert len(sent) == 80  # 95 when every vector went out
        assert [l for l in sent if l.startswith("carry")] == \
            ["carry[k=2]", "carry[k=3]", "carry[k=5]"]


def reference_algorithm1(evaluate, fin, fout, k_max):
    """The width scan as a full sweep: every width vector at each ``k``,
    then every carry test that is sent at all."""
    n_ecb, skipped_at = 0, None
    for k in range(2, k_max + 1):
        width, cvec, carry_sum = _scan_step(k, fin, fout)
        off = [vec.label for vec, exact in width
               if not same_magnitude(evaluate(vec), exact)]
        if off:
            return Algorithm1Result(
                k - 1, n_ecb, all(l.startswith("width-straddle") for l in off),
                skipped_at)
        if skipped_at is None:
            if carry_sum is None:
                skipped_at = k
            elif evaluate(cvec) == carry_sum:
                n_ecb = max_detectable_carry_bits(k, fin.precision)
    return Algorithm1Result(None, n_ecb, carry_skipped_at=skipped_at)


def same_magnitude(d, exact):
    return isinstance(d, Dyadic) and (d.sig, d.exp) == (exact.sig, exact.exp)


def is_subsequence(short, long):
    rest = iter(long)
    return all(x in rest for x in short)


WIDTH_FAMILIES = ("head", "tail", "head-cancel", "tail-cancel", "straddle",
                  "straddle-cancel")
# How a scripted unit answers a listed label: off the exact sum in
# magnitude, a NaN, or the exact magnitude with the sign flipped (a width
# vector reads that as a match, the carry test as a miss).
PERTURB = {
    "off": lambda x: Dyadic.make(x.sign, 2 * x.sig + 1, x.exp - 1),
    "nan": lambda x: NAN,
    "negated": lambda x: -x,
}


@st.composite
def scripted_replies(draw):
    """Labels answered off their exact sum, with how: some width vectors
    at one ``k`` (half the time straddle ones only) and some carry tests
    anywhere."""
    k = draw(st.integers(2, 17))
    families = draw(st.sampled_from([WIDTH_FAMILIES, WIDTH_FAMILIES[4:]]))
    width = draw(st.sets(st.sampled_from(
        [f"width-{f}[k={k}]{neg}" for f in families
         for neg in ("", "-neg")]), min_size=1))
    carry = draw(st.sets(st.integers(2, 17).map(lambda k: f"carry[k={k}]")))
    return {label: draw(st.sampled_from(sorted(PERTURB)))
            for label in sorted(width | carry)}


class TestScanStopsEarly:
    """The scan sends an ordered subsequence of the full sweep's requests
    and returns the full sweep's result, whatever a unit answers."""

    @settings(derandomize=True, max_examples=200)
    @given(st.sampled_from([(B16, B32), (BF16, B16)]), st.integers(2, 17),
           scripted_replies())
    def test_result_does_not_depend_on_unsent_requests(self, pair, k_max,
                                                       replies):
        fin, fout = pair

        def scripted(log):
            def evaluate(vec):
                log.append(vec.label)
                exact = exact_sum(vec)
                how = replies.get(vec.label)
                return PERTURB[how](exact) if how else exact
            return evaluate

        sent, swept = [], []
        res = run_algorithm1(scripted(sent), fin, fout, k_max)
        assert res == reference_algorithm1(scripted(swept), fin, fout, k_max)
        assert is_subsequence(sent, swept)

    @pytest.mark.parametrize("fin, fout", [(B16, B32), (BF16, B16)],
                             ids=["binary16-binary32", "bfloat16-binary16"])
    def test_straddle_vectors_come_last(self, fin, fout):
        for k in range(4, 18):
            width, _, _ = _scan_step(k, fin, fout)
            straddle = [l.startswith("width-straddle")
                        for l in (vec.label for vec, _ in width)]
            assert straddle == sorted(straddle) and straddle.count(True) == 4


# Every memoised builder with one argument set the pipeline uses.
MEMOISED_CALLS = [
    (gen_subnormal_probes, (B16, B32), {}),
    (gen_post_alignment_rounding_probe, (B16, B32, 1), {}),
    (gen_rm_bfma_probe, (B16, B32), {}),
    (gen_alignment_bits_probe, (B16, B32, 2), {}),
    (gen_alignment_cancel_probe, (B16, B32, 2), {}),
    (gen_normalisation_probe, (B16, B32, "carry_and_align", 3), {}),
    (gen_rm_mbfma_probe, (B16, B32, 8), {"live_position": 9}),
    (gen_ordering_probe, (B16, B32, 8), {}),
    (_scan_step, (4, B16, B32), {}),
]


class TestCompileOnce:
    """Builders are memoised per argument set; results are shared."""

    @pytest.mark.parametrize("fn,args,kwargs", MEMOISED_CALLS,
                             ids=[fn.__name__ for fn, _, _ in MEMOISED_CALLS])
    def test_repeat_call_returns_the_same_object(self, fn, args, kwargs):
        assert fn(*args, **kwargs) is fn(*args, **kwargs)

    def test_width_vectors_are_a_tuple(self):
        assert isinstance(width_test_vectors(4, B16, B32), tuple)
        width, _, _ = _scan_step(4, B16, B32)
        assert isinstance(width, tuple)

    def test_scan_step_pairs_vectors_with_exact_sums(self):
        width, cvec, carry_sum = _scan_step(5, B16, B32)
        assert width == tuple((v, exact_sum(v))
                              for v in width_test_vectors(5, B16, B32))
        assert cvec == carry_test_vector(5, B16, B32)
        assert carry_sum == exact_sum(cvec)
        # From k=9 the bfloat16 carry addend is inexact in binary16.
        assert _scan_step(9, BF16, B16)[2] is None

    def test_exceptions_are_not_cached(self):
        before = gen_post_alignment_rounding_probe.cache_info()
        for _ in range(2):
            with pytest.raises(ValueError, match="n_eab in"):
                gen_post_alignment_rounding_probe(B16, B32, 2)
        after = gen_post_alignment_rounding_probe.cache_info()
        assert after.currsize == before.currsize
        assert after.misses == before.misses + 2
