"""Feature inference driver: run probes in dependency order, build a report.

Probes have preconditions on other features and on where the accumulator
input travels.  ``_STAGES`` lists the report fields in the order they are
resolved, each with the stage that resolves it from the fields before it.
A stage whose preconditions are unmet records an undetermined value with
the reason; a verdict is never guessed.  Every claim about the unit is a
field: notes record only run events (the undetermined count, an abort,
exec child restarts, and ``probe --stamp``).  The report's evidence is the
session log of the exchanges it sent, in order, including the one that
aborted an incomplete report, so third parties can re-classify the raw
observations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from .formats import FpFormat, Value, lookup_format
from .probes import (
    QUAL_AT_LEAST,
    QUAL_EXACT,
    QUAL_UNDETERMINED,
    Algorithm1Result,
    Field,
    NotFactorable,
    Probe,
    ProbeVector,
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
from .backend import (BackendError, InternalError, UnsupportedError,
                      _parse_object)
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

# The report's features in table order, with their table column headers.
_FEATURES = (
    ("subnormal_in", "Subnormal In"), ("subnormal_out", "Subnormal Out"),
    ("n_eab", "n_eab"), ("n_ecb", "n_ecb"), ("immediate_norm", "I.Norm"),
    ("fma_width", "N_FMA"), ("rm_bfma", "RM-BFMA"), ("rm_mbfma", "RM-MBFMA"),
    ("rm_post_alignment", "RM-Align"), ("ordering", "Ordering"),
)
_QUALIFIERS = (QUAL_EXACT, QUAL_AT_LEAST, QUAL_UNDETERMINED)


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
        return {name: getattr(self, name) for name, _ in _FEATURES}

    def to_obj(self) -> dict:
        return {
            "schema": SCHEMA,
            "fin": self.fin,
            "fout": self.fout,
            "complete": self.complete,
            "features": {n: f.to_obj() for n, f in self.field_map().items()},
            "notes": list(self.notes),
            "evidence": list(self.evidence),
        }

    def to_json(self) -> str:
        return _json_text(self.to_obj())

    @staticmethod
    def from_obj(obj: dict) -> "FeatureReport":
        """Inverse of ``to_obj``; rejects unknown features and qualifiers."""
        if obj.get("schema") != SCHEMA:
            raise ValueError(f"unknown report schema {obj.get('schema')!r}")
        rep = FeatureReport(fin=obj["fin"], fout=obj["fout"],
                            complete=bool(obj["complete"]),
                            notes=list(obj.get("notes", [])),
                            evidence=list(obj.get("evidence", [])))
        names = rep.field_map()
        for name, fobj in obj["features"].items():
            if name not in names:
                raise ValueError(f"unknown feature {name!r}")
            field = Field.from_obj(fobj)
            if field.qualifier not in _QUALIFIERS:
                raise ValueError(
                    f"unknown qualifier {field.qualifier!r} for {name!r}")
            setattr(rep, name, field)
        return rep

    @staticmethod
    def from_json(text: str) -> "FeatureReport":
        return _parse_object(text, FeatureReport.from_obj)


@dataclass
class InferOptions:
    k_max: int = 64
    j: int = 0
    t: int = 3


_C_ANCHORED = ("CFirst", "CWithLast")
# At an exact width of this or more, the scan's k=4 vectors came back
# exact inside one block, which excludes per-addition rounding.
_DEFERRED_PROOF_WIDTH = 4


@dataclass
class _State:
    """What the stages of one report share: its target and earlier scans."""

    session: object
    fin: FpFormat
    fout: FpFormat
    opts: InferOptions
    report: FeatureReport
    scan: Optional[Algorithm1Result] = None  # set by the width stage

    @property
    def width(self) -> Optional[int]:
        """The exact block width, or None."""
        f = self.report.fma_width
        return f.value if f.exact else None

    @property
    def ordering(self) -> Optional[str]:
        f = self.report.ordering
        return f.value if f.determinate else None

    def send(self, vec: ProbeVector) -> Value:
        return self.session.run_vector(self.fin, self.fout, vec)

    def field(self, probe: Probe) -> Field:
        return probe.classify([self.send(vec) for vec in probe.vectors])


class _Planner(_State):
    """A sessionless state whose report holds the given verdicts as exact:
    it finds what each stage sends to such a unit.  ``field`` records the
    probe and answers with its first classifier row, ``("at_least", n)``
    for both ladder probes, so the ``n_eab`` ladder runs every rung."""

    def __init__(self, fin: FpFormat, fout: FpFormat, opts: InferOptions,
                 **verdicts) -> None:
        report = FeatureReport(fin.name, fout.name)
        for name, value in verdicts.items():
            if value is not None:
                setattr(report, name, Field(value, QUAL_EXACT))
        super().__init__(None, fin, fout, opts, report)
        self.sent: list[Probe] = []

    def field(self, probe: Probe) -> Field:
        self.sent.append(probe)
        return Field(probe.rows[0][1], QUAL_EXACT)

    def plan(self, name: str) -> tuple[list[Probe], Field]:
        """The probes stage ``name`` sends, in order, and its field."""
        self.sent = []
        field = dict(_STAGES)[name](self)
        return self.sent, field


def infer_features(session, fin_name: str, fout_name: str,
                   options: Optional[InferOptions] = None) -> FeatureReport:
    """Run the ``_STAGES`` table in order against a backend session; each
    exec child restart during the run adds a note with its reason."""
    fin = lookup_format(fin_name)
    fout = lookup_format(fout_name)
    report = FeatureReport(fin=fin.name, fout=fout.name)
    state = _State(session, fin, fout, options or InferOptions(), report)
    start, restarts = len(session.log), len(session.restarts)
    try:
        for name, stage in _STAGES:
            try:
                field = stage(state)
            except (UnsupportedError, InternalError, NotFactorable) as e:
                field = Field.undetermined(str(e))
            setattr(report, name, field)
        undet = sum(1 for f in report.field_map().values()
                    if not f.determinate)
        if undet:
            report.notes.append(f"{undet} feature(s) undetermined")
    except (BackendError, FormatContract) as e:
        report.complete = False
        report.notes.append(f"aborted: {e}")
    finally:
        report.notes += [f"exec child restarted: {r}"
                         for r in session.restarts[restarts:]]
        report.evidence = [
            {"label": x.label, "request": x.request, "reply": x.reply}
            for x in session.log[start:]]
    return report


def _block_width(s: _State) -> Field:
    # The same scan records the raw carry headroom for the n_ecb stage.
    k_max = min(s.opts.k_max, s.session.handshake.kmax)
    s.scan = scan = run_algorithm1(s.send, s.fin, s.fout, k_max)
    if scan.n_fma is None:
        return Field.undetermined(
            f"no block split observed up to k={k_max}; a width bound "
            "would require knowing where the addend joins")
    if not scan.straddle_only:
        return Field(scan.n_fma, QUAL_EXACT)
    # Straddle-only split: the addend never met a block, so the boundary
    # position aliases small widths unless the tile geometry (two blocks
    # per inner product) pins it.
    if s.session.handshake.kmax == 2 * scan.n_fma:
        return Field(scan.n_fma, QUAL_EXACT,
                     "straddle split corroborated by tile k0 = 2*width")
    return Field.undetermined(f"straddle split at k={scan.n_fma + 1} is "
                              "width-ambiguous without tile geometry")


def _ordering(s: _State) -> Field:
    if s.width is None:
        return Field.undetermined("width unknown")
    if s.width == 1:
        # A width-1 report also covers wider units that normalise per
        # addition; their single-block folds mimic a first-anchored
        # combine at k=2, so no ordering verdict is sound here.
        return Field.undetermined(
            "width 1: cannot exclude a wider per-addition-rounding "
            "unit, whose one-block folds mimic first-anchored combining")
    return s.field(gen_ordering_probe(s.fin, s.fout, s.width, s.opts.j))


def _carry_headroom(s: _State) -> Field:
    # Valid only when the addend rode inside a block, otherwise the
    # carries happened in the always-normalising combiner.
    if s.width == 1:
        # Rounding after every addition by construction: no carry ever
        # propagates across additions, whatever the register width is.
        return Field(0, QUAL_EXACT, "no carry propagation across "
                     "successive additions observed")
    if s.ordering not in _C_ANCHORED:
        return Field.undetermined(
            "carry test needs the addend inside a block; ordering is "
            f"{s.ordering or 'unknown'}")
    skipped = s.scan.carry_skipped_at
    why_skipped = (f"carry test at k={skipped} needs an addend not exact "
                   f"in {s.fout.name}")
    if skipped == 2:
        return Field.undetermined(why_skipped)
    return Field(s.scan.n_ecb, QUAL_AT_LEAST, why_skipped if skipped else
                 "wider tests would need a larger block width")


def _alignment_bits(s: _State) -> Field:
    width = s.width
    if width is None:
        return Field.undetermined("width unknown")
    if width < 2:
        return Field(0, QUAL_AT_LEAST,
                     "alignment tests need at least two products per block")
    if s.ordering is None:
        return Field.undetermined("ordering unknown")
    tree = s.ordering == "TreeThenC"
    if tree and width < _DEFERRED_PROOF_WIDTH:
        return Field.undetermined(
            "addend outside blocks and per-addition rounding not excluded")
    for n in range(1, width):
        fields = []
        if not tree:
            fields.append(s.field(
                gen_alignment_bits_probe(s.fin, s.fout, n, s.opts.j)))
        if width >= 3:
            fields.append(s.field(
                gen_alignment_cancel_probe(s.fin, s.fout, n, s.opts.j)))
        # The cancellation outcome is exact and rounding-free; prefer it.
        chosen = next((f for f in reversed(fields) if f.determinate), None)
        if chosen is None:
            return Field.undetermined(
                f"alignment observations at depth {n} matched no row")
        kind, depth = chosen.value
        if kind == "fewer_than":
            return Field(depth - 1, QUAL_EXACT)
    return Field(width - 1, QUAL_AT_LEAST,
                 "ladder capped at one product below the block width")


def _normalisation(s: _State) -> Field:
    width = s.width
    if width is None:
        return Field.undetermined("width unknown")
    eab = s.report.n_eab
    ecb = s.report.n_ecb
    if width == 1:
        return Field(True, QUAL_EXACT,
                     "no carry headroom detected: every addition is "
                     "normalised before the next")
    if s.ordering == "TreeThenC":
        if width >= _DEFERRED_PROOF_WIDTH:
            return Field(False, QUAL_EXACT,
                         "lossless multi-term prefixes in the width scan "
                         "exclude per-addition rounding")
        return Field.undetermined(
            "timing test needs the addend inside a block")
    if s.ordering not in _C_ANCHORED:
        return Field.undetermined("ordering unknown")
    if not ecb.value:
        return Field.undetermined("carry presence unknown")
    if eab.determinate and (eab.value or 0) >= 1:
        return s.field(gen_normalisation_probe(
            s.fin, s.fout, "carry_and_align", s.opts.t))
    if eab.determinate and eab.value == 0:
        if width >= 3:
            return s.field(gen_normalisation_probe(
                s.fin, s.fout, "carry_only"))
        return Field.undetermined(
            "carry-only timing test needs three products per block")
    return Field.undetermined("alignment presence unknown")


def _rm_bfma(s: _State) -> Field:
    if s.width is None or s.ordering not in _C_ANCHORED:
        return Field.undetermined(
            "needs a known width and the addend inside the first block")
    if s.width < 3:
        return Field.undetermined(
            "needs at least three products in one block")
    ecb = s.report.n_ecb
    if not (ecb.determinate and (ecb.value or 0) >= 2):
        return Field.undetermined("needs two carry headroom bits")
    return s.field(gen_rm_bfma_probe(s.fin, s.fout, s.opts.j))


def _rm_post_alignment(s: _State) -> Field:
    if s.width is None or s.ordering not in _C_ANCHORED:
        return Field.undetermined(
            "needs a known width and the addend inside the block")
    eab = s.report.n_eab
    if not eab.exact:
        # With only a lower bound, deeper-surviving bits reach the final
        # rounding and would impersonate an alignment rounding mode.
        return Field.undetermined("alignment width not pinned exactly")
    if eab.value >= 2:
        return Field.undetermined(
            "straddle values for more than one extra bit need finer tests")
    return s.field(gen_post_alignment_rounding_probe(
        s.fin, s.fout, int(eab.value), s.opts.j))


def _rm_mbfma(s: _State) -> Field:
    width = s.width
    if width is None or s.ordering is None:
        return Field.undetermined("needs a known width and ordering")
    return s.field(gen_rm_mbfma_probe(
        s.fin, s.fout, width, j=s.opts.j,
        live_position=1 if s.ordering == "CWithLast" else width + 1))


# The inference pipeline: (report field, stage) in run order.  A stage
# reads the fields set before it, and returns undetermined with a reason
# when their values do not meet its probe's preconditions.  Stages call
# the probe generators through this module's globals at run time.
_STAGES = (
    ("subnormal_in",
     lambda s: s.field(gen_subnormal_probes(s.fin, s.fout)[0])),
    ("subnormal_out",
     lambda s: s.field(gen_subnormal_probes(s.fin, s.fout)[1])),
    ("fma_width", _block_width),
    ("ordering", _ordering),
    ("n_ecb", _carry_headroom),
    ("n_eab", _alignment_bits),
    ("immediate_norm", _normalisation),
    ("rm_bfma", _rm_bfma),
    ("rm_post_alignment", _rm_post_alignment),
    ("rm_mbfma", _rm_mbfma),
)


# -- rendering ----------------------------------------------------------

def _json_text(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, without the pure-Python
    encoder that indenting selects; ``pad`` is newline plus indent."""
    if isinstance(obj, str):
        return _quote(obj)
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = [f"{inner}{_quote(key)}: {_json_text(obj[key], inner)}"
                 for key in sorted(obj)]
        return "{" + ",".join(items) + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        items = [inner + _json_text(x, inner) for x in obj]
        return "[" + ",".join(items) + pad + "]"
    return json.dumps(obj)  # other leaves and empty containers


def render_report(reports, style: str = "table") -> str:
    """Render one report or a list of reports; deterministic output."""
    if isinstance(reports, FeatureReport):
        reports = [reports]
    if style == "structured":
        body = [r.to_obj() for r in reports]
        return _json_text({"schema": SCHEMA, "reports": body})
    if style != "table":
        raise ValueError(f"unknown style {style!r}")
    headers = ["Input", "Output"] + [header for _, header in _FEATURES]
    rows = [[r.fin, r.fout] + [f.render() for f in r.field_map().values()]
            for r in reports]
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
    """Inverse of the structured rendering; other text is a ValueError."""
    def reports(obj: dict) -> list:
        if obj.get("schema") != SCHEMA:
            raise ValueError("not a structured report")
        return [FeatureReport.from_obj(body) for body in obj["reports"]]
    return _parse_object(text, reports)
