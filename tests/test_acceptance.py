"""Acceptance suite: every exit criterion runs here at full strength.

Each criterion test prints one ``ACCEPTANCE n: PASS/FAIL`` line.  All comparisons are
exact (integer/enum/bit-pattern equality); there are no tolerances to tune.

Criterion 8 (protocol loopback) spawns one child process per simulator
configuration; by default it covers every width/ordering/normalisation/
alignment combination with a rounding-mode subsample, because a full
5184-process sweep costs minutes of pure interpreter start-up.  Set
``MMAPROBE_LOOPBACK_FULL=1`` to run the identical full grid over the wire.
"""

import hashlib
import json
import os
import random
import re
import sys

import pytest

from mmaprobe.backend import ExecBackend, SimBackend
from mmaprobe.cli import main
from mmaprobe.formats import (
    REGISTRY,
    Dyadic,
    RoundingMode,
    decode,
    encode,
    lookup_format,
)
from mmaprobe.inference import QUAL_EXACT, InferOptions, infer_features
from mmaprobe.presets import load_config
from mmaprobe.probes import run_algorithm1, ProbeVector
from mmaprobe.selftest import (
    GOLDEN_PRESETS,
    RMS,
    WIDTHS,
    check_case,
    check_golden_preset,
    iter_grid,
    soundness_problems,
)
from mmaprobe.simulator import (
    BlockFmaConfig,
    Ordering,
    block_fma,
    exact_oracle,
    max_detectable_carry_bits,
    mma_dot,
)

B32 = REGISTRY["binary32"]
RM = RoundingMode


def _line(n: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {desc}",
          flush=True)


@pytest.fixture(scope="module")
def grid_results():
    import time
    started = time.monotonic()
    results = []
    for case in iter_grid():
        session = SimBackend(case.cfg)
        report = infer_features(session, case.fin, case.fout)
        results.append((case, report))
    return results, time.monotonic() - started


def test_criterion_1_round_trip_grid(grid_results):
    """Every hardware-consistent configuration round-trips through
    inference: widths, carry/alignment bits (to their caps), timing and
    rounding verdicts recovered exactly wherever the probes apply.
    The whole sweep must stay under the five-minute budget."""
    results, elapsed = grid_results
    failures = []
    for case, report in results:
        problems = check_case(case, report)
        if problems:
            failures.append((case, problems))
    ok = not failures and elapsed < 300.0
    _line(1, ok, f"round-trip grid over {len(results)} configurations "
                 f"({len(failures)} mismatching, {elapsed:.0f}s)")
    assert not failures, failures[:5]
    assert elapsed < 300.0, f"grid took {elapsed:.0f}s"


# sha256 of every grid report's ``to_json()``, joined by newlines in
# ``iter_grid()`` order.  A change meant to alter report bytes updates it.
GRID_REPORTS_SHA256 = \
    "0c61654eb5788eaff6a147bcb5143f5127b9ace06433c74282c1dd27b5b4c59d"


def test_grid_report_bytes_unchanged(grid_results):
    """The grid's reports are byte-identical to the pinned digest."""
    results, _ = grid_results
    text = "\n".join(report.to_json() for _, report in results)
    assert hashlib.sha256(text.encode()).hexdigest() == GRID_REPORTS_SHA256


def test_grid_report_writer_equals_json_dumps(grid_results):
    """Every grid report's text is ``json.dumps`` of its object."""
    results, _ = grid_results
    differing = [case for case, report in results
                 if report.to_json()
                 != json.dumps(report.to_obj(), sort_keys=True, indent=2)]
    assert len(results) == 5184 and not differing, differing[:5]


# Notes hold only run events; every claim about the unit is a field.
RUN_EVENT_NOTE = re.compile(
    r"^\d+ feature\(s\) undetermined$|^aborted: |^exec child restarted: ")


def test_grid_notes_record_run_events_only(grid_results):
    """No grid report carries a note other than a run event."""
    results, _ = grid_results
    stray = [(case, note) for case, report in results
             for note in report.notes if not RUN_EVENT_NOTE.match(note)]
    assert not stray, stray[:5]


# sha256 of the ``to_json()`` reports below at non-zero scale seeds, joined
# by newlines in loop order: per (j, t), the four golden presets, then one
# deferred n_eab=1 binary16->binary32 grid case per (width, ordering) with
# the rounding-mode pair rotating.  The grid digest pins only j=0.
SEEDED_REPORTS_SHA256 = \
    "9d76ee2b9bcc81aad2b1b4ffe24db566881d6ad75125b4e55dfb6940b6ab9771"
SEEDS = ((-3, 3), (1, 4), (5, 5))


def test_seeded_report_bytes_unchanged():
    """Reports at shifted scale seeds are byte-identical to the pin."""
    targets = [(load_config(preset), fin, fout)
               for preset, fin, fout in GOLDEN_PRESETS]
    for i, (width, ordering) in enumerate(
            (w, o) for w in WIDTHS for o in Ordering):
        cfg = BlockFmaConfig(
            fma_width=width, n_eab=1,
            n_ecb=max_detectable_carry_bits(
                width, lookup_format("binary16").precision),
            rm_intra=RMS[i % 4], rm_inter=RMS[(i + 1) % 4],
            ordering=ordering, blocks_per_tile=2)
        targets.append((cfg, "binary16", "binary32"))
    reports = [infer_features(SimBackend(cfg), fin, fout,
                              InferOptions(j=j, t=t)).to_json()
               for j, t in SEEDS for cfg, fin, fout in targets]
    assert len(reports) == 66
    text = "\n".join(reports)
    assert hashlib.sha256(text.encode()).hexdigest() == SEEDED_REPORTS_SHA256


def test_criterion_2_published_feature_rows():
    """Preset units reproduce the published feature rows exactly."""
    failures = []
    for (preset, fin, fout) in GOLDEN_PRESETS:
        failures += check_golden_preset(preset, fin, fout)
    ok = not failures
    _line(2, ok, "published rows for the shipped presets "
                 f"({len(GOLDEN_PRESETS)} reports)")
    assert ok, failures


def test_criterion_3_carry_bound_spot_checks():
    """The closed-form detectable-carry bound equals the iterative
    detection on matching simulators."""
    spots = [(8, "binary16", 3), (8, "bfloat16", 3), (4, "binary16", 2),
             (4, "TensorFloat32", 2)]
    failures = []
    for width, fin_name, expected in spots:
        fin = lookup_format(fin_name)
        formula = max_detectable_carry_bits(width, fin.precision)
        if formula != expected:
            failures.append(f"formula({width},{fin_name})={formula}")
            continue
        cfg = BlockFmaConfig(fma_width=width, n_eab=1, n_ecb=expected)

        def evaluate(vec: ProbeVector, _cfg=cfg, _fin=fin):
            return mma_dot(vec.c, [a for a, _ in vec.pairs],
                           [b for _, b in vec.pairs], _cfg, B32)

        res = run_algorithm1(evaluate, fin, B32, cfg.max_k)
        if (res.n_fma, res.n_ecb) != (width, expected):
            failures.append(
                f"detected({width},{fin_name})=({res.n_fma},{res.n_ecb})")
    ok = not failures
    _line(3, ok, "carry-bound spot values equal iterative detection")
    assert ok, failures


def test_criterion_4_known_truncation_example():
    """Two plus three quarters of 2^-22 is exactly two on a truncating,
    zero-extra-alignment deferred unit; negation mirrors exactly."""
    cfg = BlockFmaConfig(fma_width=8, n_eab=0, n_ecb=3)
    r = Dyadic.make(1, 3, -24)
    one = Dyadic.from_int(1)
    d_pos = block_fma(Dyadic.from_int(2), [r], [one], cfg, B32)
    d_neg = block_fma(Dyadic.from_int(-2), [-r], [one], cfg, B32)
    ok = d_pos == Dyadic.from_int(2) and d_neg == Dyadic.from_int(-2)
    _line(4, ok, "known truncation regression, both polarities")
    assert ok, (d_pos, d_neg)


def test_criterion_5_oracle_equivalence_10k():
    """10,000 randomized small MMAs: an oversized accumulator matches the
    exact sum rounded once; zero mismatches allowed."""
    rng = random.Random(1234)
    mismatches = 0
    fins = [REGISTRY[n] for n in ("binary16", "bfloat16", "TensorFloat32")]
    for trial in range(10_000):
        fin = fins[trial % 3]
        p_in = fin.precision
        k = rng.randrange(0, 9)
        rm = rng.choice((RM.TRUNCATE, RM.RNE, RM.RU, RM.RD))
        cfg = BlockFmaConfig(fma_width=8, n_eab=9 * 24, n_ecb=9 * 24,
                             rm_intra=rm)
        a = [Dyadic.make(rng.choice((1, -1)), rng.randrange(0, 1 << p_in),
                         rng.randrange(-8, 8)) for _ in range(k)]
        b = [Dyadic(1, 1, rng.randrange(-8, 8)) for _ in range(k)]
        c = Dyadic.make(rng.choice((1, -1)), rng.randrange(0, 1 << 24),
                        rng.randrange(-30, 6))
        got = block_fma(c, a, b, cfg, B32)
        want = decode(encode(exact_oracle(c, a, b), B32, rm)[0], B32)
        if got != want:
            mismatches += 1
    ok = mismatches == 0
    _line(5, ok, f"oracle equivalence on 10000 randomized MMAs "
                 f"({mismatches} mismatches)")
    assert ok


def test_criterion_6_no_alignment_bits_unit():
    """A four-wide deferred unit without extra alignment bits is fully
    searchable: the width comes back exactly and determinately."""
    cfg = BlockFmaConfig(fma_width=4, n_eab=0, n_ecb=2,
                         rm_intra=RM.RNE, rm_inter=RM.RNE)
    report = infer_features(SimBackend(cfg), "binary16", "binary32")
    width = report.fma_width
    ok = (report.complete and width.qualifier == QUAL_EXACT
          and width.value == 4)
    _line(6, ok, "width search applies with zero extra alignment bits")
    assert ok, (width.qualifier, width.value, width.reason)


def test_criterion_7_classifier_soundness(grid_results):
    """No determinate verdict anywhere in the grid contradicts the
    configured ground truth; blind spots stay undetermined."""
    grid_results, _ = grid_results
    failures = []
    for case, report in grid_results:
        problems = soundness_problems(case, report)
        if problems:
            failures.append((case, problems))
    ok = not failures
    _line(7, ok, f"no wrong determinate verdict across "
                 f"{len(grid_results)} configurations")
    assert ok, failures[:5]


def test_gen_vectors_export_every_probe_the_grid_sends(grid_results,
                                                       capsys):
    """Given a report's determinate upstream verdicts as flags,
    ``gen-vectors`` exports every request that report sent outside the
    width scan."""
    results, _ = grid_results
    exported = {}  # (fin, fout, flags) -> set of (k, a, b, c)
    missing = []
    for case, report in results:
        flags = []
        for name in ("fma_width", "ordering", "n_eab", "n_ecb"):
            field = getattr(report, name)
            if field.determinate:
                flags += [f"--{name.replace('_', '-')}", str(field.value)]
        key = (report.fin, report.fout, tuple(flags))
        if key not in exported:
            assert main(["gen-vectors", "--in", report.fin,
                         "--out", report.fout, *flags]) == 0
            records = json.loads(capsys.readouterr().out)["records"]
            exported[key] = {
                (v["k"], tuple(v["a"]), tuple(v["b"]), v["c"])
                for rec in records for v in rec.get("vectors", ())}
        for entry in report.evidence:
            if entry["label"].startswith(("width-", "carry[")):
                continue
            req = json.loads(entry["request"])
            if (req["k"], tuple(req["a"]), tuple(req["b"]),
                    req["c"]) not in exported[key]:
                missing.append((case, entry["label"]))
    assert len(results) == 5184 and not missing, missing[:5]


def _loopback_cases():
    full = os.environ.get("MMAPROBE_LOOPBACK_FULL") == "1"
    for case in iter_grid(fins=("binary16",)):
        cfg = case.cfg
        if full:
            yield case
            continue
        # Every structural combination, with paired rounding modes plus
        # one opposing pair as the wire-level smoke of mode mixing.
        if cfg.rm_intra is cfg.rm_inter or (
                cfg.rm_intra is RM.RD and cfg.rm_inter is RM.RU):
            yield case


def test_criterion_8_protocol_loopback(tmp_path):
    """The child-process backend reproduces the in-process reports
    bit-identically, and the preset rows survive the wire."""
    from concurrent.futures import ThreadPoolExecutor
    from mmaprobe.simulator import config_to_text
    from mmaprobe.presets import preset_text

    jobs = [(f"case{idx}", config_to_text(case.cfg), case.cfg, case.fin,
             case.fout, case)
            for idx, case in enumerate(_loopback_cases())]
    jobs += [(preset, preset_text(preset), load_config(preset), fin, fout,
              (preset, fin, fout))
             for preset, fin, fout in GOLDEN_PRESETS]

    def session(job):
        """The job's failure tag when wire and in-process reports differ."""
        name, text, cfg, fin, fout, tag = job
        cfg_file = tmp_path / f"{name}.cfg"
        cfg_file.write_text(text)
        cmd = f"{sys.executable} -m mmaprobe.cli serve --config {cfg_file}"
        child = ExecBackend(cmd, timeout=30.0)
        try:
            wire = infer_features(child, fin, fout)
        finally:
            child.close()
        inproc = infer_features(SimBackend(cfg), fin, fout)
        return None if wire.to_json() == inproc.to_json() else tag

    # Two sessions at a time: one child starts while the other answers.
    with ThreadPoolExecutor(max_workers=2) as pool:
        outcomes = list(pool.map(session, jobs))
    failures = [tag for tag in outcomes if tag is not None]
    count = len(outcomes)

    ok = not failures
    _line(8, ok, f"wire loopback bit-identical on {count} sessions")
    assert ok, failures[:5]
