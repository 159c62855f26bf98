"""Inference pipeline, report model, and rendering tests."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmaprobe import inference, probes
from mmaprobe.backend import ExecBackend, MmaReply, SimBackend, _vector_hex
from mmaprobe.cli import main
from mmaprobe.formats import ONE, REGISTRY, RoundingMode, pow2
from mmaprobe.inference import (
    QUAL_AT_LEAST,
    QUAL_EXACT,
    FeatureReport,
    Field,
    InferOptions,
    _STAGES,
    _json_text,
    infer_features,
    parse_report,
    render_report,
)
from mmaprobe.presets import load_config
from mmaprobe.probes import (
    ProbeVector,
    gen_subnormal_probes,
    width_test_vectors,
)
from mmaprobe.selftest import GOLDEN_PRESETS, GridCase, soundness_problems
from mmaprobe.simulator import (
    BlockFmaConfig,
    CarryOverflow,
    NormPolicy,
    Ordering,
    config_to_text,
)

RM = RoundingMode
ROOT = Path(__file__).resolve().parent.parent


def infer(cfg, fin="binary16", fout="binary32", **opts):
    session = SimBackend(cfg)
    return infer_features(session, fin, fout,
                          InferOptions(**opts) if opts else None)


class TestPresetReports:
    def test_eight_wide_truncating(self):
        rep = infer(load_config("ampere"))
        f = rep.field_map()
        assert f["subnormal_in"].value is True
        assert f["subnormal_out"].value is True
        assert (f["n_eab"].qualifier, f["n_eab"].value) == (QUAL_EXACT, 1)
        assert (f["n_ecb"].qualifier, f["n_ecb"].value) == (QUAL_AT_LEAST, 3)
        assert f["immediate_norm"].value is False
        assert (f["fma_width"].qualifier, f["fma_width"].value) \
            == (QUAL_EXACT, 8)
        assert f["rm_bfma"].value == "Truncate"
        assert f["rm_mbfma"].value == "Truncate"
        assert f["ordering"].value == "CFirst"
        assert rep.complete

    def test_low_alignment_four_wide(self):
        rep = infer(load_config("volta_like"))
        f = rep.field_map()
        assert (f["fma_width"].qualifier, f["fma_width"].value) \
            == (QUAL_EXACT, 4)
        assert (f["n_eab"].qualifier, f["n_eab"].value) == (QUAL_EXACT, 0)
        assert f["immediate_norm"].value is False
        assert rep.complete

    def test_four_wide_applicability_without_alignment_bits(self):
        cfg = BlockFmaConfig(fma_width=4, n_eab=0, n_ecb=2,
                             rm_intra=RM.RNE, rm_inter=RM.RNE)
        rep = infer(cfg)
        f = rep.field_map()
        assert (f["fma_width"].qualifier, f["fma_width"].value) \
            == (QUAL_EXACT, 4)
        assert f["n_eab"].value == 0
        # Every stage resolves for this unit.
        assert all(field.determinate for field in f.values()), [
            (n, fl.reason) for n, fl in f.items() if not fl.determinate]


class TestGates:
    def test_tree_hides_addend_anchored_features(self):
        cfg = BlockFmaConfig(ordering=Ordering.TREE_THEN_C)
        rep = infer(cfg)
        f = rep.field_map()
        assert f["fma_width"].value == 8
        assert f["ordering"].value == "TreeThenC"
        assert f["n_eab"].value == 1  # cancellation sweep still works
        assert f["immediate_norm"].value is False
        assert f["rm_mbfma"].value == "Truncate"
        for blind in ("n_ecb", "rm_bfma", "rm_post_alignment"):
            assert not f[blind].determinate
            assert f[blind].reason

    def test_immediate_reports_width_one(self):
        cfg = BlockFmaConfig(norm_policy=NormPolicy.IMMEDIATE)
        rep = infer(cfg)
        f = rep.field_map()
        assert f["fma_width"].value == 1
        assert f["n_ecb"].value == 0
        assert f["immediate_norm"].value is True
        for blind in ("rm_bfma", "rm_mbfma", "rm_post_alignment",
                      "ordering"):
            assert not f[blind].determinate

    def test_width_two_caps_alignment(self):
        cfg = BlockFmaConfig(fma_width=2, n_eab=2, n_ecb=1)
        rep = infer(cfg)
        f = rep.field_map()
        assert (f["n_eab"].qualifier, f["n_eab"].value) == (QUAL_AT_LEAST, 1)
        assert not f["rm_post_alignment"].determinate

    def test_alignment_unknown_leaves_timing_undetermined(self,
                                                          monkeypatch):
        def unfactorable(*args, **kwargs):
            raise probes.NotFactorable("no alignment vector here")

        monkeypatch.setattr(inference, "gen_alignment_bits_probe",
                            unfactorable)
        monkeypatch.setattr(inference, "gen_alignment_cancel_probe",
                            unfactorable)
        rep = infer(load_config("ampere"))
        assert rep.complete
        assert not rep.n_eab.determinate
        assert rep.n_eab.reason == "no alignment vector here"
        assert not rep.immediate_norm.determinate
        assert rep.immediate_norm.reason == "alignment presence unknown"

    def test_backend_abort_marks_partial(self):
        class Dying(SimBackend):
            def __init__(self, cfg):
                super().__init__(cfg)
                self.calls = 0

            def evaluate(self, req):
                self.calls += 1
                if self.calls > 3:
                    from mmaprobe.backend import TransportError
                    raise TransportError("child died")
                return super().evaluate(req)

        rep = infer_features(Dying(BlockFmaConfig()), "binary16", "binary32")
        assert not rep.complete
        assert any("aborted" in n for n in rep.notes)

    def test_inexact_probe_vector_marks_partial(self, monkeypatch):
        # A probe whose addend needs one more significand bit than
        # binary32 has cannot be sent.
        real = inference.gen_rm_bfma_probe

        def inexact(fin, fout, j=0):
            probe = real(fin, fout, j)
            pos = ProbeVector("inexact", ONE + pow2(-fout.precision),
                              probe.vectors[0].pairs)
            return dataclasses.replace(probe, vectors=(pos, pos.negated()))

        monkeypatch.setattr(inference, "gen_rm_bfma_probe", inexact)
        rep = infer(load_config("ampere"))
        assert not rep.complete
        assert any("addend of inexact not exact in binary32" in n
                   for n in rep.notes)

    def test_carry_test_skipped_where_its_addend_is_inexact(self):
        # From k=9 the bfloat16 carry vector's addend needs 12 significand
        # bits; the width scan goes on without it.
        case = GridCase(BlockFmaConfig(fma_width=16, n_eab=1, n_ecb=4),
                        "bfloat16", "binary16")
        rep = infer(case.cfg, fin="bfloat16", fout="binary16")
        assert rep.complete
        assert (rep.fma_width.qualifier, rep.fma_width.value) \
            == (QUAL_EXACT, 16)
        assert (rep.n_ecb.qualifier, rep.n_ecb.value) == (QUAL_AT_LEAST, 3)
        assert rep.n_ecb.reason == ("carry test at k=9 needs an addend not "
                                    "exact in binary16")
        assert soundness_problems(case, rep) == []

    @pytest.mark.parametrize("fin,fout", [("binary64", "binary32"),
                                          ("binary32", "binary16"),
                                          ("binary64", "binary16")])
    def test_no_carry_test_sent_leaves_headroom_undetermined(self, fin,
                                                             fout):
        # A backend offering a pair whose input is more precise than its
        # output: already the k=2 carry addend is inexact in the output,
        # so no carry test is sent and nothing may be guessed from that.
        # The subnormal probe still finds an exact operand to lift.
        case = GridCase(BlockFmaConfig(fma_width=8, n_eab=1, n_ecb=3),
                        fin, fout)
        session = SimBackend(case.cfg)
        session.handshake = dataclasses.replace(
            session.handshake, pairs=((fin, fout),))
        rep = infer_features(session, fin, fout)
        assert rep.complete, rep.notes
        assert rep.subnormal_in.render() == "✓"
        assert (rep.fma_width.qualifier, rep.fma_width.value) \
            == (QUAL_EXACT, 8)
        assert not rep.n_ecb.determinate
        assert rep.n_ecb.reason == ("carry test at k=2 needs an addend not "
                                    f"exact in {fout}")
        assert not rep.immediate_norm.determinate
        assert not any(x["label"].startswith("carry")
                       for x in rep.evidence)
        assert soundness_problems(case, rep) == []


class TestReportInvariants:
    def test_ambiguous_straddle_split_leaves_only_the_count_note(self):
        # An immediate width-2 TreeThenC unit with three blocks splits at
        # k=5 like a deferred width-4 unit; per-addition rounding is not
        # excluded, and the report claims nothing outside its fields.
        cfg = BlockFmaConfig(fma_width=2, n_eab=1, n_ecb=2,
                             norm_policy=NormPolicy.IMMEDIATE,
                             ordering=Ordering.TREE_THEN_C,
                             blocks_per_tile=3)
        rep = infer(cfg)
        assert rep.complete
        assert rep.notes == ["8 feature(s) undetermined"]
        assert not rep.fma_width.determinate
        assert soundness_problems(GridCase(cfg, "binary16"), rep) == []

    def test_each_field_is_set_by_one_stage(self):
        names = [name for name, _ in _STAGES]
        assert sorted(names) == sorted(FeatureReport("x", "y").field_map())

    @pytest.mark.parametrize("fin", ["bfloat16", "TensorFloat32"])
    def test_subnormal_input_seen_on_narrower_output(self, fin):
        # The smallest input subnormal lies below binary16's subnormal
        # range, so the probe must lift it instead of reading a zero.
        case = GridCase(BlockFmaConfig(fma_width=8, n_eab=1, n_ecb=3), fin,
                        "binary16")
        rep = infer(case.cfg, fin=fin, fout="binary16")
        assert rep.subnormal_in.render() == "✓"
        assert soundness_problems(case, rep) == []

    @pytest.mark.parametrize("width,n_ecb", [(2, 1), (4, 2), (8, 3)])
    def test_carry_bound_respected(self, width, n_ecb):
        from mmaprobe.simulator import max_detectable_carry_bits
        rep = infer(BlockFmaConfig(fma_width=width, n_eab=1, n_ecb=n_ecb))
        f = rep.field_map()
        if f["n_ecb"].determinate and f["fma_width"].determinate:
            bound = max_detectable_carry_bits(f["fma_width"].value, 11)
            assert f["n_ecb"].value <= bound

    def test_alignment_below_width(self):
        rep = infer(BlockFmaConfig(fma_width=4, n_eab=2, n_ecb=2))
        f = rep.field_map()
        assert f["n_eab"].value < f["fma_width"].value


class TestUnsupportedReply:
    def test_leaves_only_its_own_field_undetermined(self):
        cfg = load_config("ampere")
        fin, fout = REGISTRY["binary16"], REGISTRY["binary32"]
        [vec] = gen_subnormal_probes(fin, fout)[0].vectors
        refused = _vector_hex(vec, fin, fout)

        class NoSubnormalIn(SimBackend):
            # Refuses the subnormal-in request, as a device may refuse a
            # subnormal operand.
            def evaluate(self, req):
                if (req.a, req.b, req.c) == refused:
                    return MmaReply(req.id, error_code="Unsupported",
                                    error_message="no subnormal operands")
                return super().evaluate(req)

        rep = infer_features(NoSubnormalIn(cfg), "binary16", "binary32")
        plain = infer(cfg).field_map()
        assert rep.complete
        assert rep.subnormal_in == Field.undetermined("no subnormal operands")
        assert plain["subnormal_in"].determinate
        f = rep.field_map()
        del f["subnormal_in"], plain["subnormal_in"]
        assert f == plain


class TestInternalReply:
    def test_leaves_only_its_own_field_undetermined(self):
        # Eight products overflow a one-carry-bit unit that refuses to
        # wrap; the width stage loses its field, the report goes on.
        case = GridCase(BlockFmaConfig(fma_width=8, n_ecb=1,
                                       carry_overflow=CarryOverflow.ERROR),
                        "binary16", "binary32")
        rep = infer(case.cfg)
        assert rep.complete
        assert rep.fma_width == Field.undetermined(
            "Internal: accumulated magnitude needs more than 1 carry bits")
        assert rep.subnormal_in.determinate and rep.subnormal_out.determinate
        assert soundness_problems(case, rep) == []


class TestDeterminism:
    def test_identical_runs_identical_reports(self):
        cfg = load_config("ampere")
        r1 = infer(cfg)
        r2 = infer(cfg)
        assert r1.to_json() == r2.to_json()
        assert render_report(r1, "table") == render_report(r2, "table")

    def test_evidence_has_raw_hex(self):
        rep = infer(load_config("ampere"))
        assert rep.evidence
        entry = rep.evidence[0]
        assert set(entry) == {"label", "request", "reply"}
        assert '"a":' in entry["request"]
        assert '"d":' in entry["reply"]


def _cold_caches():
    """Drop every memoised probe and the registry formats' codec memos."""
    for obj in vars(probes).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    for fmt in REGISTRY.values():
        fmt.encode_memo.clear()
        fmt.decode_memo.clear()


class TestWarmCaches:
    """Shared probes and their kept wire forms change no output."""

    def test_reports_equal_cold_and_warm(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        from workloads import soundness_slice

        jobs = [(load_config(preset), fin, fout)
                for preset, fin, fout in GOLDEN_PRESETS]
        jobs += [(case.cfg, case.fin, case.fout) for case in soundness_slice()]
        assert len(jobs) == len(GOLDEN_PRESETS) + 48

        def texts():
            return [infer_features(SimBackend(cfg), fin, fout).to_json()
                    for cfg, fin, fout in jobs]

        _cold_caches()
        cold = texts()
        assert texts() == cold

    def test_gen_vectors_equal_cold_and_warm(self, capsys):
        argv = ["gen-vectors", "--in", "binary16", "--out", "binary32",
                "--probe", "all", "--fma-width", "8"]
        _cold_caches()
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[1] == outs[0]

    def test_benchmark_tracer_finds_every_wrapped_name(self, monkeypatch):
        # The benchmark's span tracer wraps program names by attribute; a
        # renamed builder or codec call must fail here, not in a traced run.
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        from spans import Tracer

        assert len(Tracer()._wrappers) == 25


class TestEvidence:
    def test_aborted_report_keeps_the_failing_exchange(self):
        # A BadRequest reply ends the report; its exchange is kept.
        fin, fout = REGISTRY["binary16"], REGISTRY["binary32"]
        refused = _vector_hex(width_test_vectors(2, fin, fout)[0], fin, fout)

        class RejectsWidthHead(SimBackend):
            def evaluate(self, req):
                if (req.a, req.b, req.c) == refused:
                    return MmaReply(req.id, error_code="BadRequest",
                                    error_message="operand widths")
                return super().evaluate(req)

        session = RejectsWidthHead(load_config("ampere"))
        rep = infer_features(session, "binary16", "binary32")
        assert not rep.complete
        assert rep.notes == ["aborted: BadRequest: operand widths"]
        assert rep.evidence == [
            {"label": e.label, "request": e.request, "reply": e.reply}
            for e in session.log]
        assert rep.evidence[-1]["label"] == "width-head[k=2]"
        assert '"code": "BadRequest"' in rep.evidence[-1]["reply"]

    def test_internal_reply_exchange_kept_over_the_wire(self, tmp_path):
        # One carry too many for a zero-headroom unit that refuses to wrap.
        cfg = BlockFmaConfig(fma_width=1, n_eab=0, n_ecb=0,
                             rm_intra=RM.TRUNCATE, rm_inter=RM.TRUNCATE,
                             carry_overflow=CarryOverflow.ERROR)
        session = SimBackend(cfg)
        rep = infer_features(session, "binary16", "binary32")
        assert rep.complete
        assert rep.fma_width == Field.undetermined(
            "Internal: accumulated magnitude needs more than 0 carry bits")
        assert rep.evidence[-1]["label"] == "width-head[k=2]"
        assert '"code": "Internal"' in rep.evidence[-1]["reply"]
        path = tmp_path / "overflow.cfg"
        path.write_text(config_to_text(cfg))
        child = ExecBackend(f"{sys.executable} -m mmaprobe.cli serve "
                            f"--config {path}", timeout=30.0)
        try:
            wire = infer_features(child, "binary16", "binary32")
        finally:
            child.close()
        assert wire.to_json() == rep.to_json()

    def test_evidence_starts_at_the_report(self):
        session = SimBackend(load_config("ampere"))
        first = infer_features(session, "binary16", "binary32")
        second = infer_features(session, "binary16", "binary32")
        assert len(session.log) == len(first.evidence) + len(second.evidence)
        assert [e["label"] for e in second.evidence] \
            == [e["label"] for e in first.evidence]


class TestRendering:
    def test_table_columns(self):
        text = render_report([], "table")
        header = text.splitlines()[0]
        for col in ("Subnormal In", "Subnormal Out", "n_eab", "n_ecb",
                    "I.Norm", "N_FMA", "RM-BFMA", "RM-MBFMA"):
            assert col in header

    def test_empty_report_list_is_header_only(self):
        text = render_report([], "table")
        assert len(text.strip().splitlines()) == 2  # header + rule

    def test_table_row_values(self):
        rep = infer(load_config("ampere"))
        text = render_report(rep, "table")
        row = text.splitlines()[2]
        for token in ("binary16", "binary32", "✓", "✗", "8",
                      "≥3", "Truncate"):
            assert token in row

    def test_structured_round_trip(self):
        rep = infer(load_config("tf32_ampere"), fin="TensorFloat32")
        text = render_report(rep, "structured")
        [back] = parse_report(text)
        assert back.to_json() == rep.to_json()

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            render_report([], "fancy")

    def test_parse_rejects_other_documents(self):
        vectors = json.dumps({"schema": "mmaprobe-vectors/2", "records": []})
        with pytest.raises(ValueError, match="not a structured report"):
            parse_report(vectors)

    NO_FIN = json.dumps({
        key: value for key, value
        in FeatureReport("binary16", "binary32").to_obj().items()
        if key != "fin"})

    @pytest.mark.parametrize("text", [
        "[]", '"x"', '{"schema": "mmaprobe-report/1"}',
        '{"schema": "mmaprobe-report/1", "reports": [[]]}',
        f'{{"schema": "mmaprobe-report/1", "reports": [{NO_FIN}]}}',
    ], ids=["list", "string", "no-reports", "list-body", "no-fin"])
    def test_parse_rejects_malformed_documents(self, text):
        with pytest.raises(ValueError):
            parse_report(text)

    @pytest.mark.parametrize("text", ["[]", '"x"', NO_FIN],
                             ids=["list", "string", "no-fin"])
    def test_from_json_rejects_malformed_reports(self, text):
        with pytest.raises(ValueError):
            FeatureReport.from_json(text)

    def test_field_render(self):
        assert Field(True, QUAL_EXACT).render() == "✓"
        assert Field(False, QUAL_EXACT).render() == "✗"
        assert Field(3, QUAL_AT_LEAST).render() == "≥3"
        assert Field.undetermined("why").render() == "?"

    def test_schema_tag_checked(self):
        with pytest.raises(ValueError):
            FeatureReport.from_json('{"schema": "other/9"}')

    @pytest.mark.parametrize("name,fobj,message", [
        ("complete", {"value": 1, "qualifier": "="}, "unknown feature"),
        ("n_eab", {"value": 1, "qualifier": "~"}, "unknown qualifier"),
    ])
    def test_outside_feature_or_qualifier_rejected(self, name, fobj,
                                                   message):
        # Accepting them let a name such as ``complete`` be replaced by a
        # ``Field``, and ``to_json`` then raised.
        obj = FeatureReport("binary16", "binary32").to_obj()
        obj["features"][name] = fobj
        with pytest.raises(ValueError, match=message):
            FeatureReport.from_obj(obj)
        with pytest.raises(ValueError, match=message):
            FeatureReport.from_json(json.dumps(obj))


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# Text with quotes, backslashes, control characters and non-ASCII.
AWKWARD = ('a "quoted" \\ back\x00slash\ttab\nline '
           '\u00e9\u2264\u2028 \U0001f600')

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=12)


class TestReportWriter:
    """The report writer is ``json.dumps(obj, sort_keys=True, indent=2)``
    byte for byte; the grid's reports are checked in the acceptance suite."""

    @settings(derandomize=True)
    @given(_JSON)
    def test_any_json_value(self, obj):
        assert _json_text(obj) == _dumps(obj)

    def test_golden_and_soundness_slice_reports(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        from workloads import soundness_slice

        jobs = [(load_config(preset), fin, fout)
                for preset, fin, fout in GOLDEN_PRESETS]
        jobs += [(case.cfg, case.fin, case.fout) for case in soundness_slice()]
        for cfg, fin, fout in jobs:
            rep = infer_features(SimBackend(cfg), fin, fout)
            assert rep.to_json() == _dumps(rep.to_obj())

    def test_aborted_and_empty_reports(self):
        class Dying(SimBackend):
            def evaluate(self, req):
                if req.id > 3:
                    from mmaprobe.backend import TransportError
                    raise TransportError("child died")
                return super().evaluate(req)

        aborted = infer_features(Dying(BlockFmaConfig()), "binary16",
                                 "binary32")
        assert not aborted.complete
        empty = FeatureReport("binary16", "binary32")
        assert empty.notes == [] and empty.evidence == []
        for rep in (aborted, empty):
            assert rep.to_json() == _dumps(rep.to_obj())

    def test_awkward_reasons_and_notes(self):
        rep = infer(load_config("ampere"))
        rep.n_eab = Field(2, QUAL_AT_LEAST, AWKWARD)
        rep.ordering = Field.undetermined(AWKWARD)
        rep.notes.extend([AWKWARD, ""])
        assert rep.to_json() == _dumps(rep.to_obj())

    def test_parsed_report_with_extra_key_and_float_value(self):
        obj = infer(load_config("volta_like")).to_obj()
        obj["evidence"][0]["device"] = {"clock_mhz": 1410.5, "ids": [3, 1]}
        obj["features"]["n_ecb"]["value"] = 2.5
        rep = FeatureReport.from_obj(obj)
        assert rep.to_json() == _dumps(obj)

    def test_structured_rendering(self):
        reps = [infer(load_config("ampere")),
                infer(load_config("tf32_ampere"), fin="TensorFloat32")]
        reps[0].notes.append(AWKWARD)
        for body in (reps, reps[:1], []):
            text = render_report(body, "structured")
            assert text == _dumps({"schema": inference.SCHEMA,
                                   "reports": [r.to_obj() for r in body]})
            assert [r.to_json() for r in parse_report(text)] \
                == [r.to_json() for r in body]
