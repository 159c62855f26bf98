"""Feature inference driver: run probes in dependency order, build a report.

Probes have preconditions on other features and on where the accumulator
input travels, so the driver resolves them in stages:

1. subnormal support (no dependencies),
2. block width and carry headroom (iterative boundary search),
3. combine ordering (needs the width),
4. extra alignment bits (needs width; needs the addend to reach a block,
   or the rounding-free cancellation test when it does not),
5. normalisation timing (needs alignment/carry presence),
6. per-block final rounding (width >= 3, two carry bits),
7. post-alignment reduction mode (alignment width <= 1),
8. inter-block rounding (width and ordering known).

A stage whose preconditions are unmet records an undetermined value with
the reason; a verdict is never guessed.  The report's evidence is the
session log of the exchanges it sent, in order, including the one that
aborted an incomplete report, so third parties can re-classify the raw
observations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

from .formats import FpFormat, lookup_format
from .probes import (
    Probe,
    ProbeVector,
    Verdict,
    gen_alignment_bits_probe,
    gen_alignment_cancel_probe,
    gen_normalisation_probe,
    gen_ordering_probe,
    gen_post_alignment_rounding_probe,
    gen_rm_bfma_probe,
    gen_rm_mbfma_probe,
    gen_subnormal_probes,
    run_algorithm1,
)
from .backend import BackendError, UnsupportedError
from .simulator import FormatContract

__all__ = [
    "SCHEMA",
    "QUAL_EXACT",
    "QUAL_AT_LEAST",
    "QUAL_UNDETERMINED",
    "Field",
    "FeatureReport",
    "InferOptions",
    "infer_features",
    "render_report",
    "parse_report",
]

SCHEMA = "mmaprobe-report/1"

QUAL_EXACT = "="
QUAL_AT_LEAST = ">="
QUAL_UNDETERMINED = "?"


@dataclass
class Field:
    """One inferred feature: a value, how firmly it is known, and why."""

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


_FEATURE_FIELDS = (
    "subnormal_in", "subnormal_out", "n_eab", "n_ecb", "immediate_norm",
    "fma_width", "rm_bfma", "rm_mbfma", "rm_post_alignment", "ordering",
)


@dataclass
class FeatureReport:
    """Inferred feature set for one (input format, output format) pair."""

    fin: str
    fout: str
    subnormal_in: Field = dc_field(default_factory=Field)
    subnormal_out: Field = dc_field(default_factory=Field)
    n_eab: Field = dc_field(default_factory=Field)
    n_ecb: Field = dc_field(default_factory=Field)
    immediate_norm: Field = dc_field(default_factory=Field)
    fma_width: Field = dc_field(default_factory=Field)
    rm_bfma: Field = dc_field(default_factory=Field)
    rm_mbfma: Field = dc_field(default_factory=Field)
    rm_post_alignment: Field = dc_field(default_factory=Field)
    ordering: Field = dc_field(default_factory=Field)
    complete: bool = True
    notes: list = dc_field(default_factory=list)
    evidence: list = dc_field(default_factory=list)

    def field_map(self) -> dict:
        return {name: getattr(self, name) for name in _FEATURE_FIELDS}

    def to_json(self, with_evidence: bool = True) -> str:
        obj = {
            "schema": SCHEMA,
            "fin": self.fin,
            "fout": self.fout,
            "complete": self.complete,
            "features": {n: f.to_obj() for n, f in self.field_map().items()},
            "notes": list(self.notes),
        }
        if with_evidence:
            obj["evidence"] = list(self.evidence)
        return json.dumps(obj, sort_keys=True, indent=2)

    @staticmethod
    def from_json(text: str) -> "FeatureReport":
        obj = json.loads(text)
        if obj.get("schema") != SCHEMA:
            raise ValueError(f"unknown report schema {obj.get('schema')!r}")
        rep = FeatureReport(fin=obj["fin"], fout=obj["fout"],
                            complete=bool(obj["complete"]),
                            notes=list(obj.get("notes", [])),
                            evidence=list(obj.get("evidence", [])))
        for name, fobj in obj["features"].items():
            setattr(rep, name, Field.from_obj(fobj))
        return rep


@dataclass
class InferOptions:
    k_max: int = 64
    j: int = 0
    t: int = 3


_C_ANCHORED = ("CFirst", "CWithLast")

# Runs one probe for the report's format pair and classifies the outputs.
_Run = Callable[[Probe], Verdict]


def _verdict_field(verdict: Verdict, reason_if_undet: str = "") -> Field:
    if verdict.determinate:
        return Field(verdict.value, QUAL_EXACT)
    return Field.undetermined(
        reason_if_undet or "observation matched no classifier row")


def infer_features(session, fin_name: str, fout_name: str,
                   options: Optional[InferOptions] = None) -> FeatureReport:
    """Run the full probe pipeline against a backend session."""
    opts = options or InferOptions()
    fin = lookup_format(fin_name)
    fout = lookup_format(fout_name)
    report = FeatureReport(fin=fin.name, fout=fout.name)
    start = len(session.log)
    try:
        _pipeline(session, fin, fout, report, opts)
    except (BackendError, FormatContract) as e:
        report.complete = False
        report.notes.append(f"aborted: {e}")
    finally:
        report.evidence = [
            {"label": x.label, "request": x.request, "reply": x.reply}
            for x in session.log[start:]]
    return report


def _pipeline(session, fin: FpFormat, fout: FpFormat, report: FeatureReport,
              opts: InferOptions) -> None:
    def run(probe: Probe) -> Verdict:
        return probe.classify([session.run_vector(fin, fout, vec)
                               for vec in probe.vectors])

    # 1. subnormal support
    probe_in, probe_out = gen_subnormal_probes(fin, fout)
    report.subnormal_in = _verdict_field(run(probe_in))
    report.subnormal_out = _verdict_field(run(probe_out))

    # 2. block width and raw carry headroom
    k_cap = min(opts.k_max, session.handshake.kmax)

    def evaluate(_expected, vec: ProbeVector):
        return session.run_vector(fin, fout, vec)

    scan = run_algorithm1(evaluate, fin, fout, k_cap, extended=True)
    deferred_proven = False
    if scan.conclusive:
        c_anchored_break = any(("head" in l) or ("tail" in l)
                               for l in scan.mismatch_labels)
        if c_anchored_break:
            report.fma_width = Field(scan.n_fma, QUAL_EXACT)
        else:
            # Straddle-only split: the addend never met a block, so the
            # boundary position aliases small widths unless the tile
            # geometry (two blocks per inner product) pins it.
            if session.handshake.kmax == 2 * scan.n_fma:
                report.fma_width = Field(
                    scan.n_fma, QUAL_EXACT,
                    "straddle split corroborated by tile k0 = 2*width")
            else:
                report.fma_width = Field.undetermined(
                    f"straddle split at k={scan.k_stop} is width-ambiguous "
                    "without tile geometry")
            deferred_proven = scan.k_stop > 4
            if deferred_proven:
                report.notes.append(
                    "four-term prefixes accumulated losslessly before the "
                    "split: per-addition rounding excluded")
    else:
        report.fma_width = Field.undetermined(
            f"no block split observed up to k={scan.k_stop}; a width bound "
            "would require knowing where the addend joins")

    # 3. combine ordering (needs the width)
    if report.fma_width.exact:
        width = report.fma_width.value
        if width == 1:
            # A width-1 report also covers wider units that normalise per
            # addition; their single-block folds mimic a first-anchored
            # combine at k=2, so no ordering verdict is sound here.
            report.ordering = Field.undetermined(
                "width 1: cannot exclude a wider per-addition-rounding "
                "unit, whose one-block folds mimic first-anchored combining")
        elif 2 * width <= session.handshake.kmax:
            try:
                report.ordering = _verdict_field(
                    run(gen_ordering_probe(fin, fout, width, opts.j)))
            except UnsupportedError as e:
                report.ordering = Field.undetermined(str(e))
        else:
            report.ordering = Field.undetermined(
                "backend cannot take k = 2*width")
    else:
        report.ordering = Field.undetermined("width unknown")

    ordering = report.ordering.value if report.ordering.determinate else None
    c_anchored = ordering in _C_ANCHORED

    # 4. carry headroom: valid only when the addend rode inside a block,
    # otherwise the carries happened in the always-normalising combiner.
    if report.fma_width.exact and report.fma_width.value == 1:
        # Rounding after every addition by construction: no carry ever
        # propagates across additions, whatever the register width is.
        report.n_ecb = Field(0, QUAL_EXACT,
                             "no carry propagation across successive "
                             "additions observed")
    elif c_anchored:
        if scan.n_ecb == 0:
            report.n_ecb = Field(0, QUAL_EXACT)
        else:
            report.n_ecb = Field(
                scan.n_ecb, QUAL_AT_LEAST,
                "wider tests would need a larger block width")
    else:
        report.n_ecb = Field.undetermined(
            "carry test needs the addend inside a block; ordering is "
            f"{ordering or 'unknown'}")

    # 5. extra alignment bits
    report.n_eab = _alignment_sweep(run, fin, fout, report, opts, ordering,
                                    deferred_proven)

    # 6. normalisation timing
    report.immediate_norm = _normalisation_stage(run, fin, fout, report, opts,
                                                 ordering, deferred_proven)

    # 7. per-block final rounding
    width_f = report.fma_width
    if not (width_f.exact and c_anchored):
        report.rm_bfma = Field.undetermined(
            "needs a known width and the addend inside the first block")
    elif width_f.value < 3:
        report.rm_bfma = Field.undetermined(
            "needs at least three products in one block")
    elif not (report.n_ecb.determinate and (report.n_ecb.value or 0) >= 2):
        report.rm_bfma = Field.undetermined(
            "needs two carry headroom bits")
    else:
        if report.n_eab.determinate and (report.n_eab.value or 0) >= 1:
            # The carry-based vectors keep every bit above the alignment
            # boundary, so extra alignment bits cannot disturb them; note
            # the assumption rather than skipping.
            report.notes.append(
                "per-block rounding vectors assume no reliance on "
                "alignment bits; they hold for the detected width")
        report.rm_bfma = _verdict_field(
            run(gen_rm_bfma_probe(fin, fout, opts.j)))

    # 8. post-alignment reduction mode
    report.rm_post_alignment = _post_alignment_stage(run, fin, fout, report,
                                                     opts, c_anchored)

    # 9. inter-block rounding
    report.rm_mbfma = _rm_mbfma_stage(run, fin, fout, report, opts, ordering)

    undet = sum(1 for f in report.field_map().values() if not f.determinate)
    if undet:
        report.notes.append(f"{undet} feature(s) undetermined")


def _alignment_sweep(run: _Run, fin: FpFormat, fout: FpFormat,
                     report: FeatureReport, opts: InferOptions,
                     ordering: Optional[str], deferred_proven: bool) -> Field:
    width_f = report.fma_width
    if not width_f.exact:
        return Field.undetermined("width unknown")
    width = width_f.value
    if width < 2:
        return Field(0, QUAL_AT_LEAST,
                     "alignment tests need at least two products per block")
    tree = ordering == "TreeThenC"
    if ordering is None:
        return Field.undetermined("ordering unknown")
    if tree and not deferred_proven:
        return Field.undetermined(
            "addend outside blocks and per-addition rounding not excluded")

    cancel_ok = width >= 3
    n = 1
    while n <= width - 1:
        verdicts = []
        if not tree:
            verdicts.append(run(
                gen_alignment_bits_probe(fin, fout, n, opts.j)))
        if cancel_ok:
            verdicts.append(run(
                gen_alignment_cancel_probe(fin, fout, n, opts.j)))
        # The cancellation outcome is exact and rounding-free; prefer it.
        chosen = next((v for v in reversed(verdicts) if v.determinate), None)
        if chosen is None:
            return Field.undetermined(
                f"alignment observations at depth {n} matched no row")
        kind, depth = chosen.value
        if kind == "fewer_than":
            return Field(depth - 1, QUAL_EXACT)
        n += 1
    return Field(width - 1, QUAL_AT_LEAST,
                 "ladder capped at one product below the block width")


def _normalisation_stage(run: _Run, fin: FpFormat, fout: FpFormat,
                         report: FeatureReport, opts: InferOptions,
                         ordering: Optional[str],
                         deferred_proven: bool) -> Field:
    width_f = report.fma_width
    if not width_f.exact:
        return Field.undetermined("width unknown")
    width = width_f.value
    if width == 1 and report.n_ecb.determinate and report.n_ecb.value == 0:
        return Field(True, QUAL_EXACT,
                     "no carry headroom detected: every addition is "
                     "normalised before the next")
    if ordering == "TreeThenC":
        if deferred_proven:
            return Field(False, QUAL_EXACT,
                         "lossless multi-term prefixes in the width scan "
                         "exclude per-addition rounding")
        return Field.undetermined(
            "timing test needs the addend inside a block")
    if ordering not in _C_ANCHORED:
        return Field.undetermined("ordering unknown")

    eab = report.n_eab
    ecb = report.n_ecb
    if not ecb.determinate:
        return Field.undetermined("carry presence unknown")
    if ecb.value == 0:
        return Field(True, QUAL_EXACT,
                     "no carry headroom: immediate normalisation implied")
    if eab.determinate and (eab.value or 0) >= 1:
        if width >= 2:
            return _verdict_field(run(gen_normalisation_probe(
                fin, fout, "carry_and_align", opts.t)))
        return Field.undetermined("needs two products in one block")
    if eab.determinate and eab.value == 0:
        if width >= 3:
            return _verdict_field(run(gen_normalisation_probe(
                fin, fout, "carry_only")))
        return Field.undetermined(
            "carry-only timing test needs three products per block")
    return Field.undetermined("alignment presence unknown")


def _post_alignment_stage(run: _Run, fin: FpFormat, fout: FpFormat,
                          report: FeatureReport, opts: InferOptions,
                          c_anchored: bool) -> Field:
    width_f = report.fma_width
    if not (width_f.exact and c_anchored):
        return Field.undetermined(
            "needs a known width and the addend inside the block")
    if width_f.value < 2:
        return Field.undetermined("needs two products in one block")
    eab = report.n_eab
    if not eab.exact:
        # With only a lower bound, deeper-surviving bits reach the final
        # rounding and would impersonate an alignment rounding mode.
        return Field.undetermined("alignment width not pinned exactly")
    if eab.value >= 2:
        return Field.undetermined(
            "straddle values for more than one extra bit need finer tests")
    return _verdict_field(run(gen_post_alignment_rounding_probe(
        fin, fout, int(eab.value), opts.j)))


def _rm_mbfma_stage(run: _Run, fin: FpFormat, fout: FpFormat,
                    report: FeatureReport, opts: InferOptions,
                    ordering: Optional[str]) -> Field:
    width_f = report.fma_width
    if not width_f.exact or ordering is None:
        return Field.undetermined("needs a known width and ordering")
    width = width_f.value
    if width == 1 and ordering in _C_ANCHORED:
        # A width-1 report covers both genuine one-product blocks and
        # immediately normalising wider units; on the latter a k=2 probe
        # would read the per-addition mode, so no verdict is sound.
        return Field.undetermined(
            "width 1: block-combination rounding not separable from "
            "per-addition rounding")
    live_position = 1 if ordering == "CWithLast" else width + 1
    eab = report.n_eab
    eab_param = None
    if eab.determinate and (eab.value or 0) >= 1:
        eab_param = 1  # the half-ulp survives the combine alignment
    try:
        probe = gen_rm_mbfma_probe(fin, fout, width,
                                   j=opts.j, n_eab=eab_param,
                                   live_position=live_position)
        return _verdict_field(run(probe))
    except UnsupportedError as e:
        return Field.undetermined(str(e))


# -- rendering ----------------------------------------------------------

_TABLE_COLUMNS = (
    ("Input", lambda r: r.fin),
    ("Output", lambda r: r.fout),
    ("Subnormal In", lambda r: r.subnormal_in.render()),
    ("Subnormal Out", lambda r: r.subnormal_out.render()),
    ("n_eab", lambda r: r.n_eab.render()),
    ("n_ecb", lambda r: r.n_ecb.render()),
    ("I.Norm", lambda r: r.immediate_norm.render()),
    ("N_FMA", lambda r: r.fma_width.render()),
    ("RM-BFMA", lambda r: r.rm_bfma.render()),
    ("RM-MBFMA", lambda r: r.rm_mbfma.render()),
    ("RM-Align", lambda r: r.rm_post_alignment.render()),
    ("Ordering", lambda r: r.ordering.render()),
)


def render_report(reports, style: str = "table") -> str:
    """Render one report or a list of reports; deterministic output."""
    if isinstance(reports, FeatureReport):
        reports = [reports]
    if style == "structured":
        body = [json.loads(r.to_json()) for r in reports]
        return json.dumps({"schema": SCHEMA, "reports": body},
                          sort_keys=True, indent=2)
    if style != "table":
        raise ValueError(f"unknown style {style!r}")
    headers = [name for name, _ in _TABLE_COLUMNS]
    rows = [[fn(r) for _, fn in _TABLE_COLUMNS] for r in reports]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = [
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
    notes = [f"note: {n}" for r in reports for n in r.notes]
    incomplete = [f"INCOMPLETE: {r.fin}->{r.fout}"
                  for r in reports if not r.complete]
    return "\n".join(lines + notes + incomplete) + "\n"


def parse_report(text: str) -> list:
    """Inverse of the structured rendering."""
    obj = json.loads(text)
    if obj.get("schema") != SCHEMA:
        raise ValueError("not a structured report")
    out = []
    for body in obj["reports"]:
        out.append(FeatureReport.from_json(json.dumps(body)))
    return out
