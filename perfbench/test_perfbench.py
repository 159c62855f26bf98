"""Tests of the benchmark itself: its checkers and very short runs.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import shutil
import struct
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from mmaprobe.inference import Field, QUAL_EXACT  # noqa: E402


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


# -- the independent arithmetic ------------------------------------------

def test_round_binary32_matches_struct_rne():
    rng = random.Random(7)
    for _ in range(2000):
        # at most 53 significant bits, so float() is exact and struct
        # rounds once, to nearest even
        x = Fraction(rng.getrandbits(53) * rng.choice((1, -1)),
                     1 << rng.randint(0, 80))
        if x == 0:
            continue
        want = int.from_bytes(struct.pack(">f", float(x)), "big")
        assert checks.round_binary32(x, "RNE") == want


@pytest.mark.parametrize("rm,pos,neg", [
    ("RZ", 0x3F800000, 0xBF800000),
    ("TruncateMagnitude", 0x3F800000, 0xBF800000),
    ("RU", 0x3F800001, 0xBF800000),
    ("RD", 0x3F800000, 0xBF800001),
    ("RNE", 0x3F800000, 0xBF800000),
])
def test_round_binary32_directed(rm, pos, neg):
    third_ulp = Fraction(1) + Fraction(1, 3 << 23)
    assert checks.round_binary32(third_ulp, rm) == pos
    assert checks.round_binary32(-third_ulp, rm) == neg


def test_bits_value_decodes_each_layout():
    assert checks.bits_value(0x3C00, "binary16") == 1
    assert checks.bits_value(0xBF80, "bfloat16") == -1
    assert checks.bits_value(0x40000000, "TensorFloat32") == 2
    assert checks.bits_value(0x3F000000, "binary32") == Fraction(1, 2)


# -- every checker counts a corrupted output -----------------------------

class _Corrupting:
    """Runs a workload's session, then corrupts one output."""

    def __init__(self, inner, corrupt):
        self.inner = inner
        self.corrupt = corrupt

    def run(self, s):
        result = self.inner.run(s)
        self.corrupt(result)
        return result

    def check(self, s, result):
        return self.inner.check(s, result)


def _tally_of(workload, session):
    tally = run.Tally()
    run.run_session(workload, session, tally)
    return tally


def _flip_reply_bit(result, index=0):
    entry = result.log[index]
    reply = json.loads(entry.reply)
    reply["d"] = "%08x" % (int(reply["d"], 16) ^ 1)
    result.log[index] = replace(entry, reply=json.dumps(reply))


@pytest.mark.parametrize("kind", ["exact", "hw", "preset"])
def test_random_mma_counts_a_flipped_reply_bit(kind):
    w = workloads.RandomMma(3)
    s = next(s for s in w.sessions(0) if s.label.startswith(kind))
    assert _tally_of(w, s).failed == 0
    bad = _tally_of(_Corrupting(w, _flip_reply_bit), s)
    assert (bad.attempted, bad.failed) == (1, 1)
    assert bad.unexpected


def test_random_mma_counts_a_changed_operand():
    w = workloads.RandomMma(3)
    s = next(s for s in w.sessions(0) if s.label.startswith("exact"))

    def change_c(result):
        entry = result.log[3]
        req = json.loads(entry.request)
        req["c"] = "%08x" % (int(req["c"], 16) ^ 0x10)
        result.log[3] = replace(entry, request=json.dumps(req))

    assert _tally_of(_Corrupting(w, change_c), s).failed == 1


def _set_field(name, value):
    def corrupt(result):
        setattr(result.report, name, Field(value, QUAL_EXACT))
    return corrupt


@pytest.mark.parametrize("kind", ["grid", "preset"])
def test_grid_sample_counts_a_changed_report_field(kind):
    w = workloads.GridSample(5)
    s = next(s for s in w.base if s.kind == kind)
    assert _tally_of(w, s).failed == 0
    bad = _tally_of(_Corrupting(w, _set_field("ordering", "Bogus")), s)
    assert bad.failed == 1 and bad.unexpected


def test_soundness_slice_failures_are_known_and_counted():
    w = workloads.GridSample(5)
    sound = [s for s in w.base if s.kind == "sound"]
    tally = run.Tally()
    for s in sound:
        run.run_session(w, s, tally)
    assert (tally.attempted, tally.failed) == (48, 6)
    assert not tally.unexpected


def test_wire_sessions_count_a_one_byte_difference(tmp_path, monkeypatch):
    w = workloads.WireSessions(2, sys.executable, tmp_path)
    s = next(s for s in w.base if s.label.startswith("preset:ampere:binary16"))

    def one_byte(result):
        i = result.text.index('"fin"')
        result.text = result.text[:i] + "'" + result.text[i + 1:]

    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    assert _tally_of(w, s).failed == 0
    bad = _tally_of(_Corrupting(w, one_byte), s)
    assert bad.failed == 1
    assert "byte" in bad.unexpected[0]


def test_seeds_change_modes_not_cost():
    def shape(seed):
        return sorted(repr((s.case.fin, workloads._structure(s.case.cfg)))
                      for s in workloads.GridSample(seed).base)
    assert shape(1) == shape(2)
    a = {s.label for s in workloads.GridSample(1).base}
    b = {s.label for s in workloads.GridSample(2).base}
    assert a != b


def test_benchmark_json_names_the_printed_metrics():
    import spans
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        spans.LAYER_UNITS
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)


# -- very short runs through the command line ----------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_untraced_run(workload):
    done = _bench("--workload", workload, "--seed", "11", "--seconds",
                  "0.1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    expected_failures = {"grid-sample": 6}.get(workload, 0)
    assert result["failed"] == expected_failures


def test_short_traced_run_reports_every_layer():
    import spans
    done = _bench("--workload", "random-mma", "--seed", "4", "--seconds",
                  "0.1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert result["correct"] is True
    assert set(result["metrics"]) == set(spans.LAYER_UNITS)
    assert all(m["value"] > 0 for name, m in result["metrics"].items()
               if name != "trace.overhead_pct")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "grid-sample", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
