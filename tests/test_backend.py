"""Backend protocol, sessions, and scalar-to-matrix embedding tests."""

import dataclasses
import gc
import io
import itertools
import json
import os
import random
import re
import signal
import sys
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmaprobe import backend
from mmaprobe.backend import (
    _MAX_LINE_BYTES,
    _MEMO_BOUND,
    BackendError,
    ExecBackend,
    Handshake,
    MmaReply,
    MmaRequest,
    SimBackend,
    TransportError,
    UnsupportedError,
    embed_scalar_test,
    _dot_hex,
    _from_hex,
    _to_hex,
    _vector_hex,
    evaluate_tile,
    open_backend,
    serve,
)
from mmaprobe.formats import (
    NAN,
    NEG_INF,
    NEG_ZERO,
    ONE,
    POS_INF,
    REGISTRY,
    ZERO,
    Dyadic,
    FpFormat,
    RoundingMode,
    Special,
    bits_to_hex,
    decode,
    encode,
    hex_to_bits,
    pow2,
)
from mmaprobe.inference import infer_features
from mmaprobe.presets import load_config
from mmaprobe.probes import ProbeVector, gen_ordering_probe
from mmaprobe.simulator import (
    AlignmentPolicy,
    BlockFmaConfig,
    CarryOverflow,
    FormatContract,
    NormPolicy,
    Ordering,
    exact_products,
    mma_dot,
)
from test_formats import _finite_patterns

B16 = REGISTRY["binary16"]
B32 = REGISTRY["binary32"]


def hx(v, fmt):
    bits, _ = encode(v, fmt)
    return bits_to_hex(bits, fmt)


SERVE_CMD = (f"{sys.executable} -m mmaprobe.cli serve --config ampere")


class TestWireFormat:
    def test_request_round_trip(self):
        req = MmaRequest(id=7, fin="binary16", fout="binary32", k=2,
                         a=("3c00", "0000"), b=("3c00", "0000"),
                         c="3f800000")
        again = MmaRequest.from_json(req.to_json())
        assert again == req
        assert MmaRequest.from_json(again.to_json()).to_json() \
            == req.to_json()

    def test_reply_round_trip(self):
        ok = MmaReply(id=7, d="40000000")
        assert MmaReply.from_json(ok.to_json()) == ok
        err = MmaReply(id=8, error_code="Unsupported", error_message="k")
        again = MmaReply.from_json(err.to_json())
        assert again.error_code == "Unsupported" and not again.ok

    def test_handshake_round_trip(self):
        hs = Handshake(proto=1, pairs=(("binary16", "binary32"),), kmax=16)
        again = Handshake.from_json(hs.to_json())
        assert again == hs
        assert again.supports("binary16", "binary32")
        assert not again.supports("binary32", "binary16")

    def test_length_mismatch_rejected(self):
        line = json.dumps({"id": 1, "fin": "binary16", "fout": "binary32",
                           "k": 2, "a": ["3c00"], "b": ["3c00", "0000"],
                           "c": "00000000"})
        with pytest.raises(ValueError):
            MmaRequest.from_json(line)

    @pytest.mark.parametrize("parse", [
        Handshake.from_json, MmaRequest.from_json, MmaReply.from_json])
    @pytest.mark.parametrize("line", ["1", "null", "[1]", '"d"'])
    def test_non_object_rejected(self, parse, line):
        with pytest.raises(ValueError, match="not a JSON object"):
            parse(line)

    @pytest.mark.parametrize("parse, line", [
        (Handshake.from_json, '{"proto": 1, "pairs": 5, "kmax": 16}'),
        (Handshake.from_json, '{"proto": [1], "pairs": [], "kmax": 16}'),
        (Handshake.from_json, '{"pairs": [], "kmax": 16}'),
        (MmaRequest.from_json, '{"id": 1, "fin": "binary16", '
         '"fout": "binary32", "k": 0, "a": 1, "b": [], "c": "00000000"}'),
        (MmaReply.from_json, '{"id": 1, "error": "boom"}'),
        (MmaReply.from_json, '{"id": {}, "d": "00000000"}'),
        (MmaReply.from_json, '{"d": "00000000"}'),
    ])
    def test_wrong_field_shape_rejected(self, parse, line):
        with pytest.raises(ValueError, match="bad field"):
            parse(line)


# Wire text a peer may send: quotes, backslashes, control characters,
# non-ASCII, a lone surrogate (JSON's \ud800) and anything else.
_WIRE_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600\ud800'),
    st.characters()), max_size=12)
_WIRE_INT = st.integers(-2 ** 70, 2 ** 70)


class TestWireLineText:
    """The directly written lines equal ``json.dumps(..., sort_keys=True)``
    of the dicts they replaced, and parse back to the same object."""

    @settings(derandomize=True)
    @given(_WIRE_INT, _WIRE_TEXT, _WIRE_TEXT,
           st.lists(st.tuples(_WIRE_TEXT, _WIRE_TEXT), max_size=4),
           _WIRE_TEXT)
    def test_request_line(self, id_, fin, fout, pairs, c):
        a = tuple(x for x, _ in pairs)
        b = tuple(y for _, y in pairs)
        req = MmaRequest(id=id_, fin=fin, fout=fout, k=len(pairs), a=a, b=b,
                         c=c)
        assert req.to_json() == json.dumps({
            "id": id_, "fin": fin, "fout": fout, "k": len(pairs),
            "a": list(a), "b": list(b), "c": c}, sort_keys=True)
        assert MmaRequest.from_json(req.to_json()) == req

    @settings(derandomize=True)
    @given(_WIRE_INT, _WIRE_TEXT, st.one_of(st.none(), _WIRE_TEXT),
           _WIRE_TEXT)
    def test_reply_lines(self, id_, d, code, message):
        ok = MmaReply(id_, d=d)
        assert ok.to_json() == json.dumps({"id": id_, "d": d},
                                          sort_keys=True)
        err = MmaReply(id_, error_code=code, error_message=message)
        assert err.to_json() == json.dumps({
            "id": id_, "error": {"code": code, "message": message}},
            sort_keys=True)
        for reply in (ok, err):
            assert MmaReply.from_json(reply.to_json()) == reply


class TestSimBackend:
    def test_single_unit(self):
        sess = SimBackend(BlockFmaConfig())
        req = MmaRequest(id=1, fin="binary16", fout="binary32", k=1,
                         a=(hx(ONE, B16),), b=(hx(ONE, B16),),
                         c=hx(ZERO, B32))
        reply = sess.evaluate(req)
        assert reply.ok and decode(hex_to_bits(reply.d, B32), B32) == ONE

    def test_matches_model_bit_for_bit(self):
        cfg = BlockFmaConfig(fma_width=4, n_eab=1, n_ecb=2,
                             rm_intra=RoundingMode.RNE)
        sess = SimBackend(cfg)
        rng = random.Random(42)
        for _ in range(300):
            k = rng.randrange(0, 9)
            a = [Dyadic.make(rng.choice((1, -1)),
                             rng.randrange(0, 1 << 11),
                             rng.randrange(-6, 6)) for _ in range(k)]
            b = [Dyadic(1, 1, rng.randrange(-6, 6)) for _ in range(k)]
            c = Dyadic.make(rng.choice((1, -1)), rng.randrange(0, 1 << 24),
                            rng.randrange(-30, 6))
            req = MmaRequest(
                id=1, fin="binary16", fout="binary32", k=k,
                a=tuple(hx(x, B16) for x in a),
                b=tuple(hx(y, B16) for y in b), c=hx(c, B32))
            # Round-trips through the input encodings first.
            a_dec = [decode(hex_to_bits(h, B16), B16) for h in req.a]
            b_dec = [decode(hex_to_bits(h, B16), B16) for h in req.b]
            c_dec = decode(hex_to_bits(req.c, B32), B32)
            want = mma_dot(c_dec, a_dec, b_dec, cfg, B32)
            reply = sess.evaluate(req)
            assert reply.ok
            want_bits, _ = encode(want, B32, cfg.rm_intra)
            assert hex_to_bits(reply.d, B32) == want_bits

    def test_unsupported_k(self):
        sess = SimBackend(BlockFmaConfig(fma_width=2, blocks_per_tile=2))
        req = MmaRequest(id=1, fin="binary16", fout="binary32", k=5,
                         a=(hx(ZERO, B16),) * 5, b=(hx(ZERO, B16),) * 5,
                         c=hx(ZERO, B32))
        reply = sess.evaluate(req)
        assert not reply.ok and reply.error_code == "Unsupported"

    def test_unknown_format(self):
        sess = SimBackend(BlockFmaConfig())
        req = MmaRequest(id=1, fin="binary7", fout="binary32", k=0,
                         a=(), b=(), c=hx(ZERO, B32))
        reply = sess.evaluate(req)
        assert reply.error_code == "Unsupported"

    def test_product_wider_than_output_is_unsupported(self):
        # 0x3fff is 255*2^-7, so its square needs 16 significand bits.
        sess = SimBackend(BlockFmaConfig())
        req = MmaRequest(id=1, fin="bfloat16", fout="binary16", k=1,
                         a=("3fff",), b=("3fff",), c="0000")
        reply = sess.evaluate(req)
        assert reply.error_code == "Unsupported"
        assert reply.error_message.startswith(
            "product 65025*2^-14 needs more than 11 bits")

    def test_special_operand_beside_wide_product_is_unsupported(self):
        # A NaN pair is skipped, the 3fff x 3fff product is still refused.
        sess = SimBackend(BlockFmaConfig())
        req = MmaRequest(id=1, fin="bfloat16", fout="binary16", k=2,
                         a=("7fc0", "3fff"), b=("3f80", "3fff"), c="0000")
        reply = sess.evaluate(req)
        assert reply.error_code == "Unsupported"
        assert reply.error_message == (
            "product 65025*2^-14 needs more than 11 bits and 2*p_in > p_out "
            "for bfloat16->binary16")

    def test_short_pattern_is_bad_request(self):
        sess = SimBackend(BlockFmaConfig())
        req = MmaRequest(id=1, fin="binary16", fout="binary32", k=1,
                         a=("3c0",), b=("3c00",), c="00000000")
        reply = sess.evaluate(req)
        assert reply.error_code == "BadRequest"
        assert reply.error_message == \
            "binary16 patterns need 4 hex digits, got '3c0'"

    def test_run_vector_guards(self):
        sess = SimBackend(BlockFmaConfig(fma_width=2, blocks_per_tile=1))
        vec = ProbeVector("big", ZERO, tuple([(ZERO, ZERO)] * 9))
        with pytest.raises(UnsupportedError):
            sess.run_vector(B16, B32, vec)
        # A pair the handshake does not list is refused before sending.
        assert ("binary32", "binary16") not in sess.handshake.pairs
        one = ProbeVector("one", ZERO, ((ONE, ONE),))
        with pytest.raises(UnsupportedError,
                           match="does not support binary32->binary16"):
            sess.run_vector(B32, B16, one)
        assert sess.log == []

    @pytest.mark.parametrize("d", ["zzzzzzzz", "5", "3f80", "3f80_000",
                                   "+3f80000", "-3f80000", "3f8\u0660000"])
    def test_bad_result_pattern_is_a_transport_failure(self, d):
        class BadResult(SimBackend):
            def evaluate(self, req):
                return MmaReply(req.id, d=d)

        sess = BadResult(BlockFmaConfig())
        vec = ProbeVector("one", ZERO, ((ONE, ONE),))
        for _ in range(2):  # a rejected text is never memoised
            with pytest.raises(TransportError, match=re.escape(
                    f"bad binary32 result {d!r}: ")):
                sess.run_vector(B16, B32, vec)
            assert d not in B32.decode_memo

    def test_evidence_log(self):
        sess = SimBackend(BlockFmaConfig())
        vec = ProbeVector("one", ZERO, ((ONE, ONE),))
        sess.run_vector(B16, B32, vec)
        assert len(sess.log) == 1
        assert sess.log[0].label == "one"
        assert '"a": ["3c00"]' in sess.log[0].request


class TestServeLoop:
    def run_serve(self, lines, cfg=None):
        stdin = io.StringIO("\n".join(lines) + "\n")
        stdout = io.StringIO()
        serve(cfg or BlockFmaConfig(), stdin=stdin, stdout=stdout)
        out = stdout.getvalue().splitlines()
        return Handshake.from_json(out[0]), [MmaReply.from_json(l)
                                             for l in out[1:]]

    def test_handshake_first(self):
        hs, replies = self.run_serve([])
        assert hs.proto == 1 and hs.kmax == 16
        assert hs.supports("binary16", "binary32")
        assert replies == []

    def test_request_reply(self):
        req = MmaRequest(id=3, fin="binary16", fout="binary32", k=1,
                         a=(hx(ONE, B16),), b=(hx(ONE, B16),),
                         c=hx(ZERO, B32))
        _, [reply] = self.run_serve([req.to_json()])
        assert reply.id == 3 and reply.ok
        assert decode(hex_to_bits(reply.d, B32), B32) == ONE

    def test_malformed_line(self):
        _, [reply] = self.run_serve(["{not json"])
        assert not reply.ok and reply.error_code == "BadRequest"

    def test_non_object_line_then_valid_request(self):
        req = MmaRequest(id=3, fin="binary16", fout="binary32", k=1,
                         a=(hx(ONE, B16),), b=(hx(ONE, B16),),
                         c=hx(ZERO, B32))
        _, [bad, good] = self.run_serve(["1", req.to_json()])
        assert bad.error_code == "BadRequest"
        assert bad.error_message == "not a JSON object"
        assert good.id == 3 and good.d == hx(ONE, B32)

    def test_blank_lines_skipped(self):
        _, replies = self.run_serve(["", "  "])
        assert replies == []


class TestExecLoopback:
    """The child-process backend must agree with the in-process one."""

    def test_handshake(self):
        sess = ExecBackend(SERVE_CMD, timeout=30.0)
        try:
            assert sess.handshake.proto == 1
            assert sess.handshake.kmax == 16
        finally:
            sess.close()

    def test_close_closes_both_child_pipes(self):
        # A read end left to garbage collection shows as a ResourceWarning.
        sess = ExecBackend(SERVE_CMD, timeout=30.0)
        proc = sess._proc
        sess.close()
        assert proc.stdin.closed and proc.stdout.closed

    def test_huge_timeout_session_answers(self):
        # select() overflows on a wait this long; each wait is capped.
        sess = ExecBackend(SERVE_CMD, timeout=1e12)
        try:
            req = MmaRequest(id=1, fin="binary16", fout="binary32", k=1,
                             a=("3c00",), b=("3c00",), c="3f800000")
            assert sess.evaluate(req).d == "40000000"
        finally:
            sess.close()

    def test_bit_identical_replies(self):
        cfg = BlockFmaConfig()
        inproc = SimBackend(cfg)
        child = ExecBackend(SERVE_CMD, timeout=30.0)
        rng = random.Random(7)
        try:
            for i in range(40):
                k = rng.randrange(0, 9)
                a = tuple(bits_to_hex(rng.randrange(0, 1 << 16), B16)
                          for _ in range(k))
                b = tuple(bits_to_hex(rng.randrange(0, 1 << 12), B16)
                          for _ in range(k))
                c = bits_to_hex(rng.randrange(0, 1 << 28), B32)
                req = MmaRequest(id=i + 1, fin="binary16", fout="binary32",
                                 k=k, a=a, b=b, c=c)
                r1 = inproc.evaluate(req)
                r2 = child.evaluate(req)
                assert r1.to_json() == r2.to_json()
        finally:
            child.close()

    def test_dead_child_raises_transport(self):
        cmd = f"{sys.executable} -c \"print('not a handshake')\""
        with pytest.raises(TransportError):
            ExecBackend(cmd, timeout=5.0)

    @pytest.mark.parametrize("handshake", [
        None, '{"proto": 2, "pairs": [], "kmax": 1}'],
        ids=["silent", "proto-2"])
    def test_failed_start_leaves_no_child(self, tmp_path, handshake):
        pid_file = tmp_path / "pid"
        script = tmp_path / "child.py"
        script.write_text(
            "import os, pathlib, time\n"
            f"pathlib.Path({str(pid_file)!r}).write_text(str(os.getpid()))\n"
            + (f"print({handshake!r}, flush=True)\n" if handshake else "")
            + "time.sleep(30)\n")
        with pytest.raises(BackendError):
            ExecBackend(f"{sys.executable} {script}", timeout=1.0)
        pid = int(pid_file.read_text())
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        os.kill(pid, signal.SIGKILL)  # still our unreaped child
        pytest.fail(f"child {pid} kept running after the failed start")

    def test_stale_reply_after_timeout_is_discarded(self, tmp_path):
        # The child holds back its reply to request 1 until request 2
        # arrives, long after the client gave up on it.  Every child logs
        # the request ids it receives.
        script = tmp_path / "late.py"
        ids = tmp_path / "ids.log"
        script.write_text(
            "import sys\n"
            "from mmaprobe.backend import MmaRequest, SimBackend\n"
            "from mmaprobe.presets import load_config\n"
            "sim = SimBackend(load_config('ampere'))\n"
            "print(sim.handshake.to_json(), flush=True)\n"
            "late = None\n"
            "for line in sys.stdin:\n"
            "    req = MmaRequest.from_json(line)\n"
            f"    with open({str(ids)!r}, 'a') as log:\n"
            "        log.write(f'{req.id}\\n')\n"
            "    if req.id == 1:\n"
            "        late = sim.evaluate(req)\n"
            "        continue\n"
            "    if late is not None:\n"
            "        print(late.to_json(), flush=True)\n"
            "        late = None\n"
            "    print(sim.evaluate(req).to_json(), flush=True)\n")
        child = ExecBackend(f"{sys.executable} {script}", timeout=2.0)
        try:
            first = infer_features(child, "binary16", "binary32")
            second = infer_features(child, "binary16", "binary32")
        finally:
            child.close()
        assert not first.complete
        assert first.notes[-2:] == ["aborted: no reply within 2.0s",
                                    "exec child restarted: no reply within "
                                    "2.0s"]
        inproc = SimBackend(load_config("ampere"))
        inproc._take_id()  # the wire session spent id 1 on the lost request
        expected = infer_features(inproc, "binary16", "binary32")
        assert second.complete
        assert second.to_json() == expected.to_json()
        # The timed-out child was replaced at once, so its late reply never
        # answered request 2 and no request was resent.
        received = [int(x) for x in ids.read_text().split()]
        assert received == list(range(1, len(second.evidence) + 2))

    def test_restart_mid_report_is_a_note(self, tmp_path):
        # The child dies on its sixth request; its replacement answers the
        # resent request and the rest, so only the note tells them apart.
        marker = tmp_path / "died-once"
        script = tmp_path / "dies-once.py"
        script.write_text(
            "import sys, pathlib\n"
            "from mmaprobe.backend import MmaRequest, SimBackend\n"
            "from mmaprobe.presets import load_config\n"
            f"marker = pathlib.Path({str(marker)!r})\n"
            "restarted = marker.exists()\n"
            "sim = SimBackend(load_config('ampere'))\n"
            "print(sim.handshake.to_json(), flush=True)\n"
            "for n, line in enumerate(sys.stdin):\n"
            "    if n == 5 and not restarted:\n"
            "        marker.touch()\n"
            "        sys.exit(1)\n"
            "    req = MmaRequest.from_json(line)\n"
            "    print(sim.evaluate(req).to_json(), flush=True)\n")
        child = ExecBackend(f"{sys.executable} {script}", timeout=30.0)
        try:
            rep = infer_features(child, "binary16", "binary32")
            again = infer_features(child, "binary16", "binary32")
        finally:
            child.close()
        assert child.restarts == ["child closed stdout"]
        inproc = SimBackend(load_config("ampere"))
        expected = infer_features(inproc, "binary16", "binary32")
        assert rep.complete and marker.exists()
        assert rep.notes == expected.notes + [
            "exec child restarted: child closed stdout"]
        rep.notes = expected.notes
        assert rep.to_json() == expected.to_json()
        assert again.to_json() == infer_features(
            inproc, "binary16", "binary32").to_json()

    def test_endless_reply_line_is_a_transport_failure(self, tmp_path):
        script = tmp_path / "endless.py"
        script.write_text(
            "import sys\n"
            "from mmaprobe.backend import SimBackend\n"
            "from mmaprobe.presets import load_config\n"
            "print(SimBackend(load_config('ampere')).handshake.to_json(),\n"
            "      flush=True)\n"
            "sys.stdin.readline()\n"
            "while True:\n"
            "    sys.stdout.write('7' * 65536)\n"
            "    sys.stdout.flush()\n")
        child = ExecBackend(f"{sys.executable} {script}", timeout=60.0)
        started = time.monotonic()
        try:
            rep = infer_features(child, "binary16", "binary32")
        finally:
            child.close()
        assert time.monotonic() - started < 30.0
        assert not rep.complete
        assert any(f"longer than {_MAX_LINE_BYTES} bytes" in n
                   for n in rep.notes)

    def test_open_backend_specs(self):
        sess = open_backend("sim:ampere")
        assert isinstance(sess, SimBackend)
        with pytest.raises(ValueError):
            open_backend("ftp:nope")
        with pytest.raises(FileNotFoundError):
            open_backend("sim:no_such_preset")
        with pytest.raises(ValueError, match="exec backend needs a command"):
            open_backend("exec:")


class TestCodecMemo:
    """The memoised wire codec answers exactly as the uncached one."""

    @pytest.fixture
    def b16(self):
        # A fresh format object starts with empty memos.
        return FpFormat("binary16", 11, 5, 16)

    @pytest.mark.parametrize("order", [(ZERO, NEG_ZERO), (NEG_ZERO, ZERO)],
                             ids=["plus-first", "minus-first"])
    def test_zeros_keep_their_signs(self, b16, order):
        texts = tuple("8000" if v.sign < 0 else "0000" for v in order)
        for v, text in zip(order * 2, texts * 2):
            assert _to_hex(v, b16, "zero") == text
        for v, text in zip(order * 2, texts * 2):
            got = _from_hex(text, b16)
            assert got.is_zero and got.sign == v.sign

    def test_specials(self, b16):
        for v, text in [(NAN, "7e00"), (POS_INF, "7c00"), (NEG_INF, "fc00")]:
            for _ in range(2):
                assert _to_hex(v, b16, "special") == text
                assert _from_hex(text, b16) is v

    def test_inexact_operand_raises_for_each_caller(self, b16):
        v = ONE + pow2(-20)
        for what in ("operand of first", "operand of second"):
            with pytest.raises(FormatContract) as e:
                _to_hex(v, b16, what)
            assert str(e.value) == f"{what} not exact in binary16"
        assert _to_hex(v, b16, "rounded", RoundingMode.RNE) == "3c00"
        with pytest.raises(FormatContract, match="operand of third"):
            _to_hex(v, b16, "operand of third")

    def test_mode_is_part_of_the_key(self, b16):
        v = ONE + pow2(-11) + pow2(-12)  # three quarters of an ulp above 1
        for _ in range(2):
            assert _to_hex(v, b16, "d", RoundingMode.RNE) == "3c01"
            assert _to_hex(v, b16, "d", RoundingMode.RZ) == "3c00"

    def test_same_named_formats_do_not_share(self):
        ftz = FpFormat("binary16", 11, 5, 16, subnormals=False)
        tiny = B16.min_subnormal
        assert _to_hex(tiny, B16, "tiny") == "0001"
        assert _to_hex(tiny, ftz, "tiny", RoundingMode.RNE) == "0000"
        with pytest.raises(FormatContract):
            _to_hex(tiny, ftz, "tiny")
        assert _from_hex("0001", B16) == tiny
        assert _from_hex("0001", ftz) == ZERO

    def test_reply_seeded_by_an_operand_is_not_parsed(self, monkeypatch):
        # The reply 3f800000 is the text of the vector's own addend, so
        # the value its exact encode stored is the reply's value.
        calls = []

        def record(*args, _fn=backend.decode):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(backend, "decode", record)
        for fmt in (B16, B32):
            fmt.encode_memo.clear()
            fmt.decode_memo.clear()
        vec = ProbeVector("echo", ONE, ((ZERO, ZERO),))
        got = SimBackend(BlockFmaConfig()).run_vector(B16, B32, vec)
        assert got is B32.decode_memo["3f800000"] and got == ONE
        assert calls == []

    def test_memos_stay_within_the_bound(self):
        b32 = FpFormat("binary32", 24, 8, 32)
        peak = 0
        for i in range(1, 3 * _MEMO_BOUND + 1):
            v = Dyadic.from_int(i)
            text = _to_hex(v, b32, "n")
            assert text == hx(v, B32)
            assert _from_hex(text, b32) == v
            peak = max(peak, len(b32.encode_memo), len(b32.decode_memo))
        assert peak == _MEMO_BOUND
        # Exact encodes alone fill both memos; rounded ones only their own.
        for rm in (None, RoundingMode.RNE):
            b32 = FpFormat("binary32", 24, 8, 32)
            peaks = {"encode": 0, "decode": 0}
            for i in range(1, 3 * _MEMO_BOUND + 1):
                _to_hex(Dyadic.from_int(i), b32, "n", rm)
                peaks["encode"] = max(peaks["encode"], len(b32.encode_memo))
                peaks["decode"] = max(peaks["decode"], len(b32.decode_memo))
            assert peaks == {"encode": _MEMO_BOUND,
                             "decode": _MEMO_BOUND if rm is None else 0}

    @pytest.mark.parametrize("fmt", [
        B16, REGISTRY["bfloat16"],
        FpFormat("binary16", 11, 5, 16, subnormals=False),
        REGISTRY["TensorFloat32"], B32,
    ], ids=["binary16", "bfloat16", "binary16-ftz", "TensorFloat32",
            "binary32"])
    def test_exact_encode_seeds_what_decode_reads(self, fmt):
        # The entry an exact encode leaves for its text is what a decode
        # of that text would store: the same Special, or a Dyadic with
        # the decoded value's fields.  Every 16-bit pattern is covered.
        fresh = dataclasses.replace(fmt)
        values = itertools.chain(
            (decode(p, fmt) for p in _finite_patterns(fmt)),
            (NAN, POS_INF, NEG_INF))
        bad = []
        for v in values:
            fresh.encode_memo.clear()
            fresh.decode_memo.clear()
            text = _to_hex(v, fresh, "pattern")
            (key, got), = fresh.decode_memo.items()
            bits = hex_to_bits(text, fmt)
            want = decode(bits, fmt)
            if type(want) is Special:
                ok = got is want
            else:
                ok = (type(got) is Dyadic
                      and (got.sign, got.sig, got.exp)
                      == (want.sign, want.sig, want.exp))
            if key != text or not ok:
                bad.append(text)
        assert bad == []

    def test_inexact_operand_seeds_nothing(self, b16):
        ftz = FpFormat("binary16", 11, 5, 16, subnormals=False)
        for fmt, v in [(b16, ONE + pow2(-20)),       # too many bits
                       (b16, pow2(16)),              # overflow
                       (ftz, B16.min_subnormal)]:    # flushed subnormal
            _to_hex(ONE, fmt, "one")
            memos = dict(fmt.encode_memo), dict(fmt.decode_memo)
            with pytest.raises(FormatContract):
                _to_hex(v, fmt, "operand")
            assert (fmt.encode_memo, fmt.decode_memo) == memos

    def test_cold_request_decodes_only_its_reply(self, monkeypatch):
        # Every operand was encoded in this process, so only the reply,
        # a rounded result, is parsed, and only once.
        calls = []
        for name in ("decode", "hex_to_bits"):
            def record(*args, _name=name, _fn=getattr(backend, name)):
                calls.append((_name,) + args)
                return _fn(*args)
            monkeypatch.setattr(backend, name, record)
        for fmt in (B16, B32):
            fmt.encode_memo.clear()
            fmt.decode_memo.clear()
        vec = ProbeVector("cold", pow2(-3), ((ONE, pow2(-1)), (ONE, ONE)))
        sess = SimBackend(BlockFmaConfig())
        assert sess.run_vector(B16, B32, vec) == Dyadic.make(1, 13, -3)
        assert calls == [("hex_to_bits", "3fd00000", B32),  # 1.625
                         ("decode", 0x3fd00000, B32)]

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_random_operands_are_never_parsed(self, monkeypatch, seed):
        # Twice as many requests as a memo holds, every operand distinct
        # and the addends cycling through a small pool.  A full memo keeps
        # its newer half, so a vector's operands survive their own seeding;
        # an addend that hits the encode memo is stored again as the
        # newest decode entry.  Only a reply text is ever parsed.
        parsed = []

        def record(text, fmt, _fn=backend.hex_to_bits):
            parsed.append(text)
            return _fn(text, fmt)

        monkeypatch.setattr(backend, "hex_to_bits", record)
        for fmt in (B16, B32):
            fmt.encode_memo.clear()
            fmt.decode_memo.clear()
        rng = random.Random(seed)
        sess = SimBackend(BlockFmaConfig())
        ks = [rng.randint(1, 4) for _ in range(2 * _MEMO_BOUND)]
        magnitudes = iter(rng.sample(range(0x0400, 0x7c00), 2 * sum(ks)))
        addends = [Dyadic.make(rng.choice((1, -1)), rng.randrange(1 << 24),
                               rng.randrange(-30, 0)) for _ in range(64)]
        for i, k in enumerate(ks):
            ops = [decode(next(magnitudes) | rng.getrandbits(1) << 15, B16)
                   for _ in range(2 * k)]
            vec = ProbeVector(f"random[{i}]", addends[i % len(addends)],
                              tuple(zip(ops[:k], ops[k:])))
            parsed.clear()
            sess.run_vector(B16, B32, vec)
            reply = json.loads(sess.log[-1].reply)["d"]
            assert parsed in ([], [reply]), (i, parsed)

    def test_only_valid_fixed_width_texts_are_memoised(self, b16):
        for _ in range(2):
            with pytest.raises(ValueError):
                _from_hex("zzzz", b16)
            assert _from_hex(" " * 1000 + "3C00", b16) == ONE
            assert _from_hex("0x3c00", b16) == ONE
        assert b16.decode_memo == {}
        assert _from_hex("3C00", b16) == ONE
        assert list(b16.decode_memo) == ["3C00"]


class TestVectorWire:
    """A probe vector keeps its wire form per format pair."""

    def test_filled_once_per_format_pair(self, monkeypatch):
        vec = ProbeVector("one-addend", ONE, ((ONE, ONE),))
        b32 = _vector_hex(vec, B16, B32)
        b16 = _vector_hex(vec, B16, B16)
        assert b32 == (("3c00",), ("3c00",), "3f800000")
        assert b16 == (("3c00",), ("3c00",), "3c00")
        assert vec.wire == {(B16, B32): b32, (B16, B16): b16}

        def no_codec(*args):
            raise AssertionError("wire form encoded twice")

        monkeypatch.setattr(backend, "_to_hex", no_codec)
        assert _vector_hex(vec, B16, B32) is b32
        assert _vector_hex(vec, B16, B16) is b16

    def test_keyed_by_format_object_not_name(self):
        ftz = FpFormat("binary16", 11, 5, 16, subnormals=False)
        vec = ProbeVector("tiny", ZERO, ((B16.min_subnormal, ONE),))
        assert _vector_hex(vec, B16, B32)[0] == ("0001",)
        with pytest.raises(FormatContract,
                           match="operand of tiny not exact in binary16"):
            _vector_hex(vec, ftz, B32)
        assert list(vec.wire) == [(B16, B32)]

    def test_copied_format_gets_its_own_entry(self):
        # A format equals only itself, so a copy with the same fields has
        # its own wire entries, as it has its own codec memos.
        b16 = dataclasses.replace(B16)
        assert b16 != B16 and b16 == b16
        vec = ProbeVector("one", ONE, ((ONE, ONE),))
        wire = _vector_hex(vec, B16, B32)
        assert _vector_hex(vec, b16, B32) == wire
        assert list(vec.wire) == [(B16, B32), (b16, B32)]
        assert list(b16.encode_memo) == [(1, 1, 0, None)]

    def test_inexact_vector_raises_every_call_and_stores_nothing(self):
        vec = ProbeVector("fine", ONE + pow2(-24), ((ONE, ONE),))
        for _ in range(2):
            with pytest.raises(FormatContract,
                               match="addend of fine not exact in binary32"):
                _vector_hex(vec, B16, B32)
        assert vec.wire == {}

    def test_wire_form_is_not_part_of_the_value(self):
        vec = ProbeVector("one", ZERO, ((ONE, ONE),))
        twin = ProbeVector("one", ZERO, ((ONE, ONE),))
        _vector_hex(vec, B16, B32)
        assert vec == twin and hash(vec) == hash(twin)
        assert "wire" not in repr(vec)

    def test_one_off_vector_is_freed(self):
        sess = SimBackend(BlockFmaConfig())
        vec = ProbeVector("one-off", ONE, ((ONE, ONE),))
        assert sess.run_vector(B16, B32, vec) == Dyadic.from_int(2)
        ref = weakref.ref(vec)
        del vec
        gc.collect()
        assert ref() is None


def _random_pattern(rng, fmt):
    """Wire hex of a seeded pattern: mostly finite values near one, with
    trailing zero fraction bits half the time, and some signed zeros,
    subnormals, NaNs and infinities."""
    frac_w = fmt.precision - 1
    top = (1 << fmt.exp_bits) - 1
    kind = rng.randrange(20)
    frac = rng.getrandbits(frac_w)
    if kind == 0:
        biased, frac = 0, 0
    elif kind < 3:
        biased = 0
    elif kind == 3:
        biased, frac = top, rng.choice((0, frac | 1))
    else:
        biased = fmt.emax + rng.randint(-6, 6)
        if kind % 2:
            frac &= -(1 << rng.randint(0, frac_w))
    bits = ((rng.getrandbits(1) << fmt.exp_bits | biased) << frac_w
            | frac) << fmt.pad_bits
    return bits_to_hex(bits, fmt)


def _random_config(rng):
    return BlockFmaConfig(
        fma_width=rng.choice((1, 2, 4, 8)), n_eab=rng.randint(0, 3),
        n_ecb=rng.randint(0, 4),
        alignment_policy=rng.choice(list(AlignmentPolicy)),
        norm_policy=rng.choice(list(NormPolicy)),
        rm_intra=rng.choice(list(RoundingMode)),
        rm_inter=rng.choice(list(RoundingMode)),
        ordering=rng.choice(list(Ordering)),
        blocks_per_tile=rng.randint(1, 3),
        carry_overflow=rng.choice(list(CarryOverflow)))


def _dyadic_path(a_hex, b_hex, c_hex, cfg, fin, fout):
    """``_dot_hex`` restated on decoded ``Dyadic`` operands."""
    a = [decode(hex_to_bits(h, fin), fin) for h in a_hex]
    b = [decode(hex_to_bits(h, fin), fin) for h in b_hex]
    c = decode(hex_to_bits(c_hex, fout), fout)
    exact_products(a, b, fin, fout)
    d = mma_dot(c, a, b, cfg, fout)
    return bits_to_hex(encode(d, fout, cfg.rm_intra)[0], fout)


def _outcome(fn, *args):
    """The result, or the type and message of the error raised."""
    try:
        return fn(*args)
    except (FormatContract, ArithmeticError) as e:
        return type(e), str(e)


class TestDotHex:
    """The evaluator on decoded fields answers as the ``Dyadic`` path."""

    PAIRS = SimBackend(BlockFmaConfig()).handshake.pairs

    @pytest.mark.parametrize("fin,fout", PAIRS,
                             ids=["->".join(p) for p in PAIRS])
    def test_matches_the_dyadic_path(self, fin, fout):
        rng = random.Random(f"dot-hex:{fin}->{fout}")
        # Fresh format objects, so every memo starts empty.
        fmts = {name: dataclasses.replace(REGISTRY[name])
                for name in (fin, fout)}
        fin, fout = fmts[fin], fmts[fout]
        errors = 0
        for n in range(120):
            cfg = _random_config(rng)
            k = min(rng.choice((0, 1, 2, 3, cfg.max_k)), cfg.max_k)
            a = [_random_pattern(rng, fin) for _ in range(k)]
            b = [_random_pattern(rng, fin) for _ in range(k)]
            c = _random_pattern(rng, fout)
            if n % 2:
                # Texts a reply decode stored as values, not fields.
                for text in (*a, *b):
                    _from_hex(text, fin)
                _from_hex(c, fout)
            want = _outcome(_dyadic_path, a, b, c, cfg, fin, fout)
            assert _outcome(_dot_hex, a, b, c, cfg, fin, fout) == want, \
                (cfg, a, b, c)
            errors += isinstance(want, tuple)
        assert errors < 120

    @pytest.mark.parametrize("fout", ["binary32", "ftz"])
    def test_flush_to_zero_input_through_a_tile(self, fout):
        ftz = FpFormat("binary16", 11, 5, 16, subnormals=False)
        fout = ftz if fout == "ftz" else B32
        rng = random.Random(f"ftz-tile:{fout.name}")
        for _ in range(20):
            cfg = _random_config(rng)
            k0 = rng.randint(1, min(cfg.max_k, 6))
            A = [[_random_pattern(rng, ftz) for _ in range(k0)]
                 for _ in range(2)]
            B = [[_random_pattern(rng, ftz) for _ in range(3)]
                 for _ in range(k0)]
            C = [[_random_pattern(rng, fout) for _ in range(3)]
                 for _ in range(2)]

            def element_by_element():
                return [[_dyadic_path(row, [B[l][j] for l in range(k0)],
                                      C[i][j], cfg, ftz, fout)
                         for j in range(3)] for i, row in enumerate(A)]

            assert _outcome(evaluate_tile, A, B, C, cfg, ftz, fout) == \
                _outcome(element_by_element)

    def test_reaches_every_traced_name(self, monkeypatch):
        # The benchmark tracer times the codec and the simulator by
        # wrapping these names on ``backend``; with cold memos one request
        # must reach each of them.
        calls = {}
        for name in ("encode", "decode", "hex_to_bits", "bits_to_hex",
                     "exact_products", "mma_dot"):
            def record(*args, _name=name, _fn=getattr(backend, name)):
                calls.setdefault(_name, args)
                return _fn(*args)
            monkeypatch.setattr(backend, name, record)
        for fmt in (B16, B32):
            fmt.encode_memo.clear()
            fmt.decode_memo.clear()
        vec = ProbeVector("traced", pow2(-3), ((ONE, pow2(-1)),))
        sess = SimBackend(BlockFmaConfig())
        assert sess.run_vector(B16, B32, vec) == Dyadic.make(1, 5, -3)
        assert sorted(calls) == sorted(("encode", "decode", "hex_to_bits",
                                        "bits_to_hex", "exact_products",
                                        "mma_dot"))
        assert isinstance(calls["mma_dot"][3], BlockFmaConfig)


class TestEmbedding:
    def test_padding_after_live_operands(self):
        vec = ProbeVector("t", pow2(-1), ((ONE, ONE), (pow2(-2), ONE)))
        A, B, C = embed_scalar_test(vec, (16, 16, 16), B16, B32)
        assert len(A) == 16 and len(A[0]) == 16
        assert A[0][0] == hx(ONE, B16) and A[0][1] == hx(pow2(-2), B16)
        assert all(cell == hx(ZERO, B16) for cell in A[0][2:])
        assert B[0][0] == hx(ONE, B16) and B[1][0] == hx(ONE, B16)
        assert C[0][0] == hx(pow2(-1), B32)
        assert C[0][1] == hx(ZERO, B32)

    def test_live_position_preserved(self):
        # An isolated product one past the block boundary must stay there.
        probe = gen_ordering_probe(B16, B32, 8)
        vec = probe.vectors[0]
        A, _, _ = embed_scalar_test(vec, (16, 16, 16), B16, B32)
        assert A[0][8] != hx(ZERO, B16)
        assert A[0][1] == hx(ZERO, B16)

    def test_tile_bound(self):
        from mmaprobe.simulator import SizeContract
        vec = ProbeVector("t", ZERO, tuple([(ZERO, ZERO)] * 20))
        with pytest.raises(SizeContract):
            embed_scalar_test(vec, (16, 16, 16), B16, B32)

    def test_tile_extraction_matches_scalar(self):
        cfg = BlockFmaConfig()
        sess = SimBackend(cfg)
        rng = random.Random(11)
        for _ in range(25):
            k = rng.randrange(0, 9)
            pairs = tuple(
                (Dyadic.make(rng.choice((1, -1)), rng.randrange(0, 1 << 11),
                             rng.randrange(-4, 4)),
                 Dyadic(1, 1, rng.randrange(-4, 4)))
                for _ in range(k))
            c = Dyadic.make(rng.choice((1, -1)), rng.randrange(0, 1 << 24),
                            rng.randrange(-26, 2))
            vec = ProbeVector("embed", c, pairs)
            A, B, C = embed_scalar_test(vec, (4, 4, 16), B16, B32)
            D = evaluate_tile(A, B, C, cfg, B16, B32)
            scalar = sess.run_vector(B16, B32, vec)
            d_bits, _ = encode(scalar, B32, cfg.rm_intra)
            assert D[0][0] == bits_to_hex(d_bits, B32)
            # Zero rows and columns stay zero.
            assert D[1][1] == hx(ZERO, B32)
