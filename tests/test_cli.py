"""Command-line interface tests (exit codes, stdout discipline)."""

import hashlib
import json
import sys

import pytest

from mmaprobe import selftest
from mmaprobe.cli import _GEN_PROBES, main
from mmaprobe.formats import lookup_format
from mmaprobe.probes import run_algorithm1
from mmaprobe.simulator import exact_oracle

AMPERE = "sim:ampere"
SERVE = f"exec:{sys.executable} -m mmaprobe.cli serve --config ampere"

# sha256 over every `gen-vectors --probe all` run below, each hashed as its
# exit code in decimal followed by its stdout: vectors, classifier rows,
# skipped probes and off-grid pairs.
GEN_VECTORS_SHA256 = \
    "1a894a0f4cd46797807db1d51a40a8c272e91c3c34c0af321887569ef6ea6c10"
GEN_VECTORS_PAIRS = (
    ("binary16", "binary32"), ("bfloat16", "binary32"),
    ("TensorFloat32", "binary32"), ("binary16", "binary16"),
    ("bfloat16", "binary16"))
GEN_VECTORS_FLAGS = (
    (),
    ("--fma-width", "1", "--n-eab", "0", "--n-ecb", "0"),
    ("--fma-width", "8", "--ordering", "CFirst", "--n-eab", "1",
     "--n-ecb", "3"),
    ("--fma-width", "4", "--ordering", "CWithLast", "--n-eab", "0",
     "--n-ecb", "2", "--k", "5", "--seed-params", "3,4"),
    ("--fma-width", "4", "--ordering", "TreeThenC", "--n-eab", "2",
     "--n-ecb", "0", "--k", "9"))
# Upstream verdicts under which every gen-vectors probe is sent.
UNIT_FLAGS = ("--fma-width", "8", "--ordering", "CFirst", "--n-eab", "1",
              "--n-ecb", "3")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProbeCommand:
    def test_table_report(self, capsys):
        code, out, err = run(capsys, "probe", "--backend", AMPERE,
                             "--in", "binary16", "--out", "binary32",
                             "--report", "table")
        assert code == 0
        assert "N_FMA" in out and "Truncate" in out
        assert "8" in out

    def test_structured_report_parses(self, capsys):
        code, out, _ = run(capsys, "probe", "--backend", AMPERE,
                           "--in", "binary16", "--out", "binary32",
                           "--report", "structured")
        assert code == 0
        obj = json.loads(out)
        assert obj["schema"] == "mmaprobe-report/1"

    def test_unknown_format_usage_error(self, capsys):
        code, _, err = run(capsys, "probe", "--backend", AMPERE,
                           "--in", "binary7", "--out", "binary32")
        assert code == 64
        assert "binary7" in err

    def test_dying_exec_backend_is_partial(self, capsys, tmp_path):
        # A child that handshakes, answers twice, then dies for good (the
        # restart attempt finds the marker and refuses to handshake).
        marker = tmp_path / "died-once"
        script = tmp_path / "flaky.py"
        script.write_text(
            "import sys, pathlib\n"
            "from mmaprobe.backend import MmaRequest, SimBackend\n"
            "from mmaprobe.simulator import BlockFmaConfig\n"
            f"marker = pathlib.Path({str(marker)!r})\n"
            "if marker.exists():\n"
            "    sys.exit(1)\n"
            "sim = SimBackend(BlockFmaConfig())\n"
            "print(sim.handshake.to_json(), flush=True)\n"
            "for n, line in enumerate(sys.stdin):\n"
            "    if n >= 2:\n"
            "        marker.touch()\n"
            "        sys.exit(1)\n"
            "    req = MmaRequest.from_json(line)\n"
            "    print(sim.evaluate(req).to_json(), flush=True)\n")
        code, out, err = run(capsys, "probe",
                             "--backend", f"exec:{sys.executable} {script}",
                             "--timeout", "10",
                             "--in", "binary16", "--out", "binary32")
        assert code == 2
        assert "INCOMPLETE" in out

    @pytest.mark.parametrize("change", [
        "kmax=8", "pairs=(('binary16', 'binary32'),)"])
    def test_restart_with_another_handshake_is_partial(self, capsys,
                                                       tmp_path, change):
        # A child that dies after two replies; its replacement answers as
        # well, but advertises another kmax or pair list.
        marker = tmp_path / "died-once"
        script = tmp_path / "changeling.py"
        script.write_text(
            "import sys, pathlib, dataclasses\n"
            "from mmaprobe.backend import MmaRequest, SimBackend\n"
            "from mmaprobe.simulator import BlockFmaConfig\n"
            f"marker = pathlib.Path({str(marker)!r})\n"
            "sim = SimBackend(BlockFmaConfig())\n"
            "restarted = marker.exists()\n"
            "handshake = sim.handshake\n"
            "if restarted:\n"
            f"    handshake = dataclasses.replace(handshake, {change})\n"
            "print(handshake.to_json(), flush=True)\n"
            "for n, line in enumerate(sys.stdin):\n"
            "    if n >= 2 and not restarted:\n"
            "        marker.touch()\n"
            "        sys.exit(1)\n"
            "    req = MmaRequest.from_json(line)\n"
            "    print(sim.evaluate(req).to_json(), flush=True)\n")
        code, out, err = run(capsys, "probe",
                             "--backend", f"exec:{sys.executable} {script}",
                             "--timeout", "10", "--report", "structured",
                             "--in", "binary16", "--out", "binary32")
        assert code == 2 and err == ""
        (report,) = json.loads(out)["reports"]
        assert not report["complete"] and marker.exists()
        assert report["notes"][-1].startswith(
            "aborted: restarted backend changed its handshake to ")
        # The lost third request is evidence too, with a Transport reply.
        assert len(report["evidence"]) == 3
        lost = report["evidence"][-1]
        assert json.loads(lost["request"])["id"] == 3
        reply = json.loads(lost["reply"])
        assert reply["id"] == 3 and reply["error"]["code"] == "Transport"
        assert reply["error"]["message"].startswith(
            "restarted backend changed its handshake to ")

    def test_seed_params(self, capsys):
        code, out, _ = run(capsys, "probe", "--backend", AMPERE,
                           "--in", "binary16", "--out", "binary32",
                           "--seed-params", "1,4")
        assert code == 0 and "8" in out

    def test_out_of_range_seed_params_usage_error(self, capsys):
        code, out, err = run(capsys, "probe", "--backend", AMPERE,
                             "--in", "binary16", "--out", "binary32",
                             "--seed-params", "100,3")
        assert code == 64
        assert err.startswith("error: ") and out == ""

    def test_unfactorable_probe_leaves_field_undetermined(self, capsys):
        # binary16 operands cannot make the width scan's 2^-52 products,
        # so the width and what depends on it stay undetermined; no
        # --seed-params was given, so this is a report, not a usage error.
        code, out, err = run(capsys, "probe", "--backend", AMPERE,
                             "--in", "binary16", "--out", "binary64",
                             "--report", "structured")
        assert code == 2 and err == ""
        (report,) = json.loads(out)["reports"]
        assert report["complete"]
        assert report["features"]["fma_width"] == {
            "qualifier": "?", "value": None,
            "reason": "exponent -52 unreachable in binary16"}
        assert report["features"]["subnormal_in"]["qualifier"] == "="

    def test_default_seed_params_given_explicitly(self, capsys):
        # The defaults cannot express every probe for this pair either, so
        # naming them is no usage error.
        code, out, err = run(capsys, "probe", "--backend", AMPERE,
                             "--in", "binary16", "--out", "binary64",
                             "--seed-params", "0,3")
        assert code == 2 and err == "" and "binary64" in out

    def test_small_gap_seed_params_usage_error(self, capsys):
        code, out, err = run(capsys, "probe", "--backend", AMPERE,
                             "--in", "binary16", "--out", "binary32",
                             "--seed-params", "0,2")
        assert code == 64 and out == ""
        assert "error: argument --seed-params: t must be >= 3" in err

    def test_seed_params_need_two_numbers(self, capsys):
        code, out, err = run(capsys, "probe", "--backend", "exec:false",
                             "--in", "binary16", "--out", "binary32",
                             "--seed-params", "1")
        assert code == 64 and out == ""
        assert err.endswith("error: argument --seed-params: expected j,t\n")

    @pytest.mark.parametrize("line,message", [
        ("fma_width = 0", "fma_width must be >= 1"),
        ("n_eab = -1", "extra bit counts must be >= 0"),
        ("blocks_per_tile = 0", "blocks_per_tile must be >= 1"),
    ])
    def test_invalid_config_file_usage_error(self, capsys, tmp_path, line,
                                             message):
        path = tmp_path / "unit.cfg"
        path.write_text(f"# an impossible unit\n{line}\n")
        code, out, err = run(capsys, "probe", "--backend", f"sim:{path}",
                             "--in", "binary16", "--out", "binary32")
        assert code == 64 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("kmax,code,width", [
        ("9", 0, ("=", 8)), ("8", 2, ("?", None))])
    def test_kmax_caps_the_scan(self, capsys, kmax, code, width):
        # An eight-wide unit splits at k = 9: the scan sees the split at
        # --kmax 9 and stops short of it at 8.  --kmax bounds the width
        # scan only; the ordering probe still spans a two-block tile.
        got, out, _ = run(capsys, "probe", "--backend", AMPERE,
                          "--in", "binary16", "--out", "binary32",
                          "--kmax", kmax, "--report", "structured")
        assert got == code
        (report,) = json.loads(out)["reports"]
        field = report["features"]["fma_width"]
        assert (field["qualifier"], field["value"]) == width
        scan_ks = [json.loads(e["request"])["k"] for e in report["evidence"]
                   if "[k=" in e["label"]]
        assert max(scan_ks) == int(kmax)

    @pytest.mark.parametrize("kmax", ["-5", "0", "1"])
    def test_kmax_below_two_usage_error(self, capsys, kmax):
        # Rejected while parsing: no backend is opened, no request sent.
        code, out, err = run(capsys, "probe", "--backend", "exec:false",
                             "--in", "binary16", "--out", "binary32",
                             "--kmax", kmax)
        assert code == 64 and out == ""
        assert err.endswith("error: argument --kmax: must be >= 2\n")


class TestEvalCommand:
    def test_two_plus_tiny_truncates(self, capsys):
        # Addend two plus three quarters of 2^-22 on a truncating unit:
        # 0x1a00 * 0x0400 is 1.5*2^-9 * 2^-14 = 3*2^-24 exactly.
        code, out, _ = run(capsys, "eval", "--backend", "sim:volta_like",
                           "--in", "binary16", "--out", "binary32",
                           "--c", "40000000", "--a", "1a00", "--b", "0400")
        assert code == 0
        assert out.strip() == "40000000"

    def test_length_mismatch(self, capsys):
        code, _, err = run(capsys, "eval", "--backend", AMPERE,
                           "--in", "binary16", "--out", "binary32",
                           "--c", "00000000", "--a", "3c00,3c00",
                           "--b", "3c00")
        assert code == 64

    def test_empty_lists_give_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "--backend", AMPERE,
                           "--in", "binary16", "--out", "binary32",
                           "--c", "00000000")
        assert code == 0
        assert out.strip() == "00000000"

    def test_unoffered_pair_is_unsupported(self, capsys):
        code, out, err = run(capsys, "eval", "--backend", AMPERE,
                             "--in", "binary32", "--out", "binary16",
                             "--c", "0000", "--a", "3f800000",
                             "--b", "3f800000")
        assert (code, out) == (1, "")
        assert err == ("error: Unsupported: backend does not support "
                       "binary32->binary16\n")


class TestGenVectors:
    def test_output_bytes_unchanged(self, capsys):
        digest = hashlib.sha256()
        for fin, fout in GEN_VECTORS_PAIRS:
            for flags in GEN_VECTORS_FLAGS:
                code, out, _ = run(capsys, "gen-vectors", "--in", fin,
                                   "--out", fout, "--probe", "all", *flags)
                digest.update(f"{code}{out}".encode())
        assert digest.hexdigest() == GEN_VECTORS_SHA256

    def test_boundary_search_first_iteration(self, capsys):
        code, out, _ = run(capsys, "gen-vectors", "--probe", "fma_width",
                           "--in", "binary16", "--out", "binary32")
        assert code == 0
        obj = json.loads(out)
        [rec] = obj["records"]
        labels = [v["label"] for v in rec["vectors"]]
        assert labels[0].startswith("width-head[k=2]")
        assert rec["vectors"][0]["k"] == 2
        # r_1 is one; r_2 factors 2^-23 as 2^-9 * 2^-14.
        assert rec["vectors"][0]["a"] == ["3c00", "1800"]
        assert rec["vectors"][0]["b"] == ["3c00", "0400"]
        assert rec["vectors"][0]["c"] == "3f800001"

    @pytest.mark.parametrize("fin, fout, k", [
        pytest.param("binary16", "binary32", 2, id="2"),
        # k=3 already recorded 2 carry bits, all carry[k=4] can show: an
        # exact unit's scan sends only the width vectors.
        pytest.param("binary16", "binary32", 4, id="4"),
        pytest.param("binary16", "binary32", 5, id="5"),
        # From k=9 the bfloat16 carry addend needs 12 significand bits and
        # binary16 has 11: the scan sends only the width vectors.
        pytest.param("bfloat16", "binary16", 9, id="bfloat16-binary16-9"),
        pytest.param("bfloat16", "binary16", 12, id="bfloat16-binary16-12"),
        pytest.param("bfloat16", "binary16", 16, id="bfloat16-binary16-16"),
    ])
    def test_boundary_search_record_matches_the_scan(self, capsys, fin,
                                                     fout, k):
        """The record lists what ``run_algorithm1`` may send at ``k``
        (an exact unit's scan sends a subsequence of it), an exact sum for
        each width vector, and why a carry test is never sent."""
        sent = []

        def evaluate(vec):
            sent.append(vec.label)
            return exact_oracle(vec.c, *zip(*vec.pairs))

        run_algorithm1(evaluate, lookup_format(fin), lookup_format(fout), k)
        code, out, _ = run(capsys, "gen-vectors", "--probe", "fma_width",
                           "--in", fin, "--out", fout, "--k", str(k))
        assert code == 0
        [rec] = json.loads(out)["records"]
        labels = [v["label"] for v in rec["vectors"]]
        rest = iter(labels)
        assert all(l in rest for l in sent if f"[k={k}]" in l)
        carry = f"carry[k={k}]"
        assert len(rec["expected_exact"]) == len(labels) - (carry in labels)
        if carry in labels:
            assert labels[-1] == carry and "carry_skipped" not in rec
        else:
            assert rec["carry_skipped"] == \
                f"addend of {carry} not exact in {fout}"
            assert carry not in sent

    def test_all_enumerates_in_stage_order(self, capsys):
        code, out, _ = run(capsys, "gen-vectors", "--probe", "all",
                           "--in", "binary16", "--out", "binary32",
                           *UNIT_FLAGS)
        assert code == 0
        obj = json.loads(out)
        assert obj["schema"] == "mmaprobe-vectors/2"
        names = [r["probe"] for r in obj["records"]]
        # The n_eab ladder exports every rung below the width of 8, each
        # as the in-block indicator probe and then the cancellation one.
        assert names == [
            "subnormal_in", "subnormal_out", "fma_width", "ordering",
            *["n_eab"] * 14, "immediate_norm", "rm_bfma",
            "rm_post_alignment", "rm_mbfma"]
        assert not any("skipped" in r for r in obj["records"])
        ladder = [r["vectors"][0]["label"] for r in obj["records"]
                  if r["probe"] == "n_eab"]
        assert ladder[-2:] == ["align-bits[n=7,j=0]", "align-cancel[n=7,j=0]"]

    def test_all_without_verdicts_skips_dependents(self, capsys):
        code, out, _ = run(capsys, "gen-vectors", "--probe", "all",
                           "--in", "binary16", "--out", "binary32")
        assert code == 0
        obj = json.loads(out)
        skipped = {r["probe"]: r["skipped"]
                   for r in obj["records"] if "skipped" in r}
        assert skipped["ordering"] == "width unknown"
        assert skipped["rm_mbfma"] == "needs a known width and ordering"
        assert set(skipped) == {
            "ordering", "n_eab", "immediate_norm", "rm_bfma",
            "rm_post_alignment", "rm_mbfma"}

    def test_dependent_probe_without_verdicts_skips(self, capsys):
        code, out, err = run(capsys, "gen-vectors", "--probe", "rm_mbfma",
                             "--in", "binary16", "--out", "binary32",
                             "--fma-width", "4")
        assert (code, err) == (0, "")
        assert json.loads(out)["records"] == [
            {"probe": "rm_mbfma",
             "skipped": "needs a known width and ordering"}]

    @pytest.mark.parametrize("probe", ["rm_post_alignment", "all"])
    def test_two_alignment_bits_skip_post_alignment(self, capsys, probe):
        code, out, err = run(capsys, "gen-vectors", "--probe", probe,
                             "--in", "binary16", "--out", "binary32",
                             "--fma-width", "4", "--ordering", "CFirst",
                             "--n-eab", "2")
        assert (code, err) == (0, "")
        skipped = {r["probe"]: r["skipped"]
                   for r in json.loads(out)["records"] if "skipped" in r}
        assert skipped["rm_post_alignment"] == \
            "straddle values for more than one extra bit need finer tests"

    def test_out_of_range_seed_params_usage_error(self, capsys):
        code, out, err = run(capsys, "gen-vectors", "--probe", "rm_bfma",
                             "--in", "binary16", "--out", "binary32",
                             "--seed-params", "100,3")
        assert code == 64 and out == ""
        assert err.startswith("error: --seed-params: ")

    def test_small_gap_seed_params_usage_error(self, capsys):
        code, out, err = run(capsys, "gen-vectors", "--in", "binary16",
                             "--out", "binary32", "--seed-params", "0,2")
        assert code == 64 and out == ""
        assert "error: argument --seed-params: t must be >= 3" in err

    @pytest.mark.parametrize("args,probe,why", [
        (("--probe", "fma_width", "--k", "1"), "fma_width",
         "k must be >= 2"),
        (("--probe", "all", "--k", "1"), "fma_width", "k must be >= 2"),
        (("--probe", "rm_mbfma", "--fma-width", "0", "--ordering", "CFirst"),
         "rm_mbfma", "n_fma must be >= 1"),
        (("--probe", "ordering", "--fma-width", "0"), "ordering",
         "n_fma must be >= 1"),
        (("--probe", "all", "--fma-width", "0", "--ordering", "CFirst"),
         "rm_mbfma", "n_fma must be >= 1"),
    ], ids=["fma_width-k1", "all-k1", "rm_mbfma-width0", "ordering-width0",
            "all-width0"])
    def test_bad_probe_parameter(self, capsys, args, probe, why):
        code, out, err = run(capsys, "gen-vectors", "--in", "binary16",
                             "--out", "binary32", *args)
        if args[1] != "all":
            assert (code, out, err) == (64, "", f"error: {why}\n")
            return
        assert code == 0
        skipped = {r["probe"]: r["skipped"]
                   for r in json.loads(out)["records"] if "skipped" in r}
        assert skipped[probe] == why

    def test_rounded_vector_is_not_exported(self, capsys):
        # At j=14 an RM-BFMA classifier row overflows binary16.
        args = ("gen-vectors", "--in", "binary16", "--out", "binary16",
                "--seed-params", "14,3", *UNIT_FLAGS)
        why = "rm_bfma classifier row not exact in binary16"
        code, out, err = run(capsys, *args, "--probe", "rm_bfma")
        assert (code, out, err) == (64, "", f"error: {why}\n")
        code, out, _ = run(capsys, *args, "--probe", "all")
        assert code == 0
        skipped = {r["probe"]: r["skipped"]
                   for r in json.loads(out)["records"] if "skipped" in r}
        assert skipped["rm_bfma"] == why

    def test_unknown_probe(self, capsys):
        code, _, err = run(capsys, "gen-vectors", "--probe", "warp_speed",
                           "--in", "binary16", "--out", "binary32")
        assert code == 64
        assert "warp_speed" in err
        for name in (*_GEN_PROBES, "all"):
            assert name in err
        assert "n_ecb" not in _GEN_PROBES

    @pytest.mark.parametrize("ordering, slot", [
        ("CFirst", 5), ("TreeThenC", 5), ("CWithLast", 1)])
    def test_rm_mbfma_live_product_follows_the_ordering(self, capsys,
                                                        ordering, slot):
        code, out, _ = run(capsys, "gen-vectors", "--probe", "rm_mbfma",
                           "--in", "binary16", "--out", "binary32",
                           "--fma-width", "4", "--ordering", ordering)
        assert code == 0
        [rec] = json.loads(out)["records"]
        [vec, _] = rec["vectors"]
        assert vec["k"] == 5 and "note" not in rec
        assert [i + 1 for i, a in enumerate(vec["a"]) if a != "0000"] == \
            [slot]

    def test_classifier_rows_are_hex(self, capsys):
        code, out, _ = run(capsys, "gen-vectors", "--probe", "rm_bfma",
                           "--in", "binary16", "--out", "binary32",
                           *UNIT_FLAGS)
        assert code == 0
        [rec] = json.loads(out)["records"]
        rows = rec["classifier"]
        verdicts = {row["verdict"] for row in rows}
        assert verdicts == {"Truncate", "RNE", "RU", "RD"}
        for row in rows:
            assert all(len(h) == 8 for h in row["observed"])


class TestEnvironmentDefaults:
    def test_backend_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("MMAPROBE_BACKEND", AMPERE)
        code, out, _ = run(capsys, "eval", "--in", "binary16",
                           "--out", "binary32", "--c", "00000000")
        assert code == 0 and out.strip() == "00000000"

    def test_stamp_breaks_byte_identity(self, capsys):
        args = ("probe", "--backend", "sim:volta_like", "--in", "binary16",
                "--out", "binary32")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        _, stamped, _ = run(capsys, *args, "--stamp")
        assert "generated" in stamped


def _replying_child(tmp_path, reply):
    """exec: spec of a child that handshakes, then answers each request
    ``line`` with the Python expression ``reply``."""
    script = tmp_path / "child.py"
    script.write_text(
        "import json, sys\n"
        "from mmaprobe.backend import SimBackend\n"
        "from mmaprobe.simulator import BlockFmaConfig\n"
        "print(SimBackend(BlockFmaConfig()).handshake.to_json(), flush=True)\n"
        "for line in sys.stdin:\n"
        f"    print({reply}, flush=True)\n")
    return f"exec:{sys.executable} {script}"


class TestBackendFailures:
    """Wire failures end in one error line, or in an incomplete report."""

    COMMANDS = {"probe": ("probe",), "eval": ("eval", "--c", "00000000")}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_child_without_handshake(self, capsys, command):
        silent = f'exec:{sys.executable} -c "import time; time.sleep(30)"'
        code, out, err = run(capsys, *self.COMMANDS[command],
                             "--backend", silent, "--timeout", "0.5",
                             "--in", "binary16", "--out", "binary32")
        assert (code, out, err) == (1, "", "error: no reply within 0.5s\n")

    def test_non_object_handshake(self, capsys):
        child = f'exec:{sys.executable} -c "print(1)"'
        code, out, err = run(capsys, "probe", "--backend", child,
                             "--in", "binary16", "--out", "binary32")
        assert (code, out) == (1, "")
        assert err == "error: bad handshake: not a JSON object\n"

    @pytest.mark.parametrize("timeout", ["nan", "0", "-1"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_non_positive_timeout_usage_error(self, capsys, command,
                                              timeout):
        code, out, err = run(capsys, *self.COMMANDS[command],
                             "--backend", SERVE, "--timeout", timeout,
                             "--in", "binary16", "--out", "binary32")
        assert (code, out) == (64, "")
        assert err == f"error: timeout must be > 0 s, got {float(timeout)}\n"

    def test_infinite_timeout_waits(self, capsys):
        code, out, err = run(capsys, "eval", "--backend", SERVE,
                             "--timeout", "inf", "--in", "binary16",
                             "--out", "binary32", "--c", "3f800000",
                             "--a", "3c00", "--b", "3c00")
        assert (code, out, err) == (0, "40000000\n", "")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_harness(self, capsys, command):
        code, out, err = run(capsys, *self.COMMANDS[command],
                             "--backend", "exec:/nonexistent/harness",
                             "--in", "binary16", "--out", "binary32")
        assert code == 1 and out == ""
        assert err.startswith("error: cannot start backend: ")

    @pytest.mark.parametrize("reply, note", [
        ("'not json'", "aborted: bad reply line 'not json': "),
        ("json.dumps({'id': json.loads(line)['id'] + 1, 'd': '00000000'})",
         "aborted: reply id 2 does not match request 1"),
        ("1", "aborted: bad reply line '1': not a JSON object"),
        ("'null'", "aborted: bad reply line 'null': not a JSON object"),
        ("[1]", "aborted: bad reply line '[1]': not a JSON object"),
    ] + [
        (f"json.dumps({{'id': json.loads(line)['id'], 'd': {d!r}}})",
         f"aborted: bad binary32 result {d!r}: ")
        for d in ("zzzzzzzz", "5", "3f80")
    ], ids=["garbage", "wrong-id", "int", "null", "list",
            "d-not-hex", "d-short", "d-half"])
    def test_bad_replies_give_incomplete_report(self, capsys, tmp_path,
                                                reply, note):
        code, out, _ = run(capsys, "probe",
                           "--backend", _replying_child(tmp_path, reply),
                           "--in", "binary16", "--out", "binary32")
        assert code == 2
        assert "INCOMPLETE: binary16->binary32" in out
        assert f"\nnote: {note}" in out

    def test_non_utf8_reply_gives_incomplete_report(self, capsys, tmp_path):
        script = tmp_path / "child.py"
        script.write_text(
            "import sys\n"
            "from mmaprobe.backend import SimBackend\n"
            "from mmaprobe.simulator import BlockFmaConfig\n"
            "print(SimBackend(BlockFmaConfig()).handshake.to_json(),\n"
            "      flush=True)\n"
            "for line in sys.stdin:\n"
            "    sys.stdout.buffer.write(b'\\xff\\xfe garbage\\n')\n"
            "    sys.stdout.buffer.flush()\n")
        code, out, err = run(capsys, "probe",
                             "--backend", f"exec:{sys.executable} {script}",
                             "--in", "binary16", "--out", "binary32")
        assert (code, err) == (2, "")
        assert "INCOMPLETE: binary16->binary32" in out
        assert ("\nnote: aborted: child line is not UTF-8: 'utf-8' codec "
                "can't decode byte 0xff in position 0") in out


class TestSelftestCommand:
    @pytest.fixture(autouse=True)
    def three_cases(self, monkeypatch):
        cases = list(selftest.iter_grid(fins=("binary16",), quick=True))[:3]
        monkeypatch.setattr(selftest, "iter_grid",
                            lambda quick=False: iter(cases))

    def test_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "PASS round-trip grid: 3/3 configurations" in out
        assert out.count("PASS golden ") == 4

    def test_reports_a_mismatch(self, capsys, monkeypatch):
        expected_fields = selftest.expected_fields

        def off_by_one(case):
            fields = expected_fields(case)
            fields["fma_width"] = ("exact", case.cfg.fma_width + 1)
            return fields

        monkeypatch.setattr(selftest, "expected_fields", off_by_one)
        code, out, _ = run(capsys, "selftest")
        assert code == 2
        assert out.count("FAIL grid binary16 ") == 3
        assert "FAIL round-trip grid: 0/3 configurations" in out


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 64

    def test_bad_backend_spec(self, capsys):
        code, _, err = run(capsys, "probe", "--backend", "carrier:pigeon",
                           "--in", "binary16", "--out", "binary32")
        assert code == 64

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "probe", "--backend", "sim:/nope.cfg",
                           "--in", "binary16", "--out", "binary32")
        assert code == 64


class TestServeCommand:
    def test_bad_config(self, capsys):
        code, _, err = run(capsys, "serve", "--config", "/does/not/exist")
        assert code == 64
