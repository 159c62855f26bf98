"""The three workloads: their inputs, their sessions and their checks.

Every workload is a list of sessions repeated in whole rounds.  A round
holds the same configurations in every run and for every seed; the seed
picks the rounding modes of the grid configurations, the session order of
each round and the random operands, none of which changes how many
requests a report sends.  ``run`` is the timed part of a session,
``check`` the untimed part.
"""

from __future__ import annotations

import random
import shlex
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from mmaprobe import backend, inference, selftest
from mmaprobe.formats import Dyadic, RoundingMode, lookup_format
from mmaprobe.presets import load_config
from mmaprobe.probes import ProbeVector
from mmaprobe.simulator import (
    BlockFmaConfig,
    NormPolicy,
    Ordering,
    config_to_text,
    max_detectable_carry_bits,
)

import checks

RM = RoundingMode


@dataclass
class Session:
    label: str
    kind: str          # grid | sound | preset | batch
    case: Optional[selftest.GridCase] = None
    preset: str = ""
    batch: Optional["Batch"] = None
    command: str = ""  # set for a session over the wire


@dataclass
class Result:
    requests: int
    log: list
    report: object = None
    text: str = ""


def _structure(cfg: BlockFmaConfig) -> tuple:
    return (cfg.fma_width, cfg.n_eab, cfg.norm_policy, cfg.ordering)


def _seeded_grid_slice(rng: random.Random, fins) -> list:
    """One grid case per (input, width, n_eab, norm, ordering), modes seeded.

    The request count of a report does not depend on the two rounding
    modes, so every seed gives slices of the same cost.
    """
    groups = defaultdict(list)
    for case in selftest.iter_grid(fins=fins):
        groups[(case.fin, _structure(case.cfg))].append(case)
    return [rng.choice(groups[key]) for key in sorted(groups, key=repr)]


def _case_label(kind: str, case: selftest.GridCase) -> str:
    c = case.cfg
    return (f"{kind}:{case.fin}->{case.fout}:w{c.fma_width}:e{c.n_eab}:"
            f"b{c.blocks_per_tile}:{c.norm_policy.value}:{c.ordering.value}:"
            f"{c.rm_intra.value}/{c.rm_inter.value}")


def soundness_slice() -> list:
    """Off-grid configurations checked for soundness only.

    Fixed, not seeded.  Two named faults make some of these reports wrong
    on every run: ``TreeThenC``, width 2, ``blocks_per_tile=4`` comes back
    as exact width 4 (2 reports), and binary16->binary16 deferred units
    with ``n_eab=0`` and the addend inside a block come back as
    ``n_ecb = 0`` with ``immediate_norm`` set (4 reports).
    """
    p = lookup_format("binary16").precision
    cases = []
    for bpt in (1, 4):
        for ordering in Ordering:
            for width in (2, 8):
                for norm in NormPolicy:
                    cases.append(selftest.GridCase(BlockFmaConfig(
                        fma_width=width, n_eab=1,
                        n_ecb=max_detectable_carry_bits(width, p),
                        norm_policy=norm, rm_intra=RM.TRUNCATE,
                        rm_inter=RM.TRUNCATE, ordering=ordering,
                        blocks_per_tile=bpt), "binary16", "binary32"))
    modes = (RM.TRUNCATE, RM.RNE, RM.RU, RM.RD)
    for i, (width, eab, norm, ordering) in enumerate(
            (w, e, n, o) for w in (2, 8) for e in (0, 1)
            for n in NormPolicy for o in Ordering):
        rm = modes[i % 4]
        cases.append(selftest.GridCase(BlockFmaConfig(
            fma_width=width, n_eab=eab,
            n_ecb=max_detectable_carry_bits(width, p), norm_policy=norm,
            rm_intra=rm, rm_inter=rm, ordering=ordering),
            "binary16", "binary16"))
    return cases


def _report_result(session, fin: str, fout: str) -> Result:
    report = inference.infer_features(session, fin, fout)
    return Result(len(session.log), session.log, report, report.to_json())


class _Workload:
    """Rounds of sessions; subclasses say what a session does."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.base: list[Session] = []
        self._references: dict[str, str] = {}

    def sessions(self, round_index: int) -> list[Session]:
        order = list(self.base)
        random.Random(f"{self.seed}:order:{round_index}").shuffle(order)
        return order

    def run(self, s: Session) -> Result:
        return _over_wire(s) if s.command else _in_process(s)

    def check(self, s: Session, result: Result) -> list[str]:
        problems = _check_report(s, result.report)
        if s.command:
            problems += checks.wire_problems(result.text, self._reference(s))
        return problems

    def _reference(self, s: Session) -> str:
        """In-process report of a wire session, computed once per run."""
        if s.label not in self._references:
            self._references[s.label] = _in_process(s).text
        return self._references[s.label]


def _in_process(s: Session) -> Result:
    cfg = load_config(s.preset) if s.preset else s.case.cfg
    return _report_result(backend.SimBackend(cfg), s.case.fin, s.case.fout)


def _over_wire(s: Session) -> Result:
    child = backend.ExecBackend(s.command, timeout=60.0)
    try:
        return _report_result(child, s.case.fin, s.case.fout)
    finally:
        child.close()


def _check_report(s: Session, report) -> list[str]:
    if s.kind == "grid":
        return checks.grid_problems(s.case, report)
    if s.kind == "sound":
        return checks.soundness_only_problems(s.case, report)
    return checks.preset_problems(s.case, report, s.preset)


def _preset_session(preset: str, fin: str, fout: str) -> Session:
    case = selftest.GridCase(load_config(preset), fin, fout)
    return Session(f"preset:{preset}:{fin}->{fout}", "preset", case, preset)


def serve_command(python: str, config: str) -> str:
    return f"{shlex.quote(python)} -m mmaprobe.cli serve --config " \
           f"{shlex.quote(config)}"


class GridSample(_Workload):
    """In-process reports: seeded grid slice, soundness slice, presets."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(f"{seed}:grid")
        self.base = [Session(_case_label("grid", c), "grid", c)
                     for c in _seeded_grid_slice(rng, selftest.INPUT_FORMATS)]
        self.base += [Session(_case_label("sound", c), "sound", c)
                      for c in soundness_slice()]
        self.base += [_preset_session(p, fin, fout)
                      for p, fin, fout in selftest.GOLDEN_PRESETS]


WIRE_PRESETS = (("ampere", "binary16", "binary32"),
                ("ampere", "bfloat16", "binary32"),
                ("tf32_ampere", "TensorFloat32", "binary32"),
                ("ampere_b16out", "binary16", "binary16"),
                ("volta_like", "binary16", "binary32"))


def wire_structures() -> set:
    """18 binary16 grid structures: every width under every ordering.

    Normalisation and alignment bits rotate with the position, so both
    policies and all three ``n_eab`` values appear.
    """
    out = set()
    for wi, width in enumerate(selftest.WIDTHS):
        for oi, ordering in enumerate(Ordering):
            norm = (NormPolicy.IMMEDIATE if (wi + oi) % 3 == 2
                    else NormPolicy.DEFERRED)
            out.add((width, (wi + 2 * oi) % 3, norm, ordering))
    return out


class WireSessions(_Workload):
    """One fresh ``mmaprobe serve`` child per report."""

    def __init__(self, seed: int, python: str, cfg_dir: Path) -> None:
        super().__init__(seed)
        rng = random.Random(f"{seed}:wire")
        wanted = wire_structures()
        cfg_dir.mkdir(parents=True, exist_ok=True)
        for i, case in enumerate(_seeded_grid_slice(rng, ("binary16",))):
            if _structure(case.cfg) not in wanted:
                continue
            path = cfg_dir / f"wire{i}.cfg"
            path.write_text(config_to_text(case.cfg))
            self.base.append(Session(_case_label("grid", case), "grid", case,
                                     command=serve_command(python, str(path))))
        for preset, fin, fout in WIRE_PRESETS:
            s = _preset_session(preset, fin, fout)
            s.command = serve_command(python, preset)
            self.base.append(s)


class Calibration(_Workload):
    """Reports that reach every layer, traced after the measured rounds.

    They give the per-layer numbers of layers a workload never reaches:
    widths 1, 8 and 16 in process, and ``ampere`` over the wire.
    """

    def __init__(self, python: str) -> None:
        super().__init__(0)
        for case in selftest.iter_grid(fins=("binary16",), quick=True):
            c = case.cfg
            if (c.fma_width in (1, 16) and c.n_eab == 1
                    and c.norm_policy is NormPolicy.DEFERRED
                    and c.ordering is Ordering.C_FIRST
                    and c.rm_intra is RM.TRUNCATE):
                self.base.append(Session(_case_label("grid", case), "grid",
                                         case))
        self.base.append(_preset_session("ampere", "binary16", "binary32"))
        wire = _preset_session("ampere", "binary16", "binary32")
        wire.label = "wire:" + wire.label
        wire.command = serve_command(python, "ampere")
        self.base.append(wire)

    def sessions(self, round_index: int) -> list[Session]:
        return list(self.base)


# -- random MMAs ---------------------------------------------------------

BATCH = 32            # requests per session
EXP_SPAN_IN = 6       # operand exponents within 2**-6 .. 2**6
EXP_SPAN_C = 12       # addend exponents within 2**-12 .. 2**12

# storage bits, exponent bits, fraction bits, padding below the fraction
LAYOUT = {
    "binary16": (16, 5, 10, 0),
    "bfloat16": (16, 8, 7, 0),
    "TensorFloat32": (32, 8, 10, 13),
    "binary32": (32, 8, 23, 0),
}


@dataclass
class Batch:
    cfg: BlockFmaConfig
    fin: str
    oversized: bool
    vectors: list = field(default_factory=list)   # (a bits, b bits, c bits)
    probe_vectors: list = field(default_factory=list)


def _random_bits(rng: random.Random, fmt: str, span: int) -> int:
    storage, exp_bits, frac_bits, pad = LAYOUT[fmt]
    bias = (1 << (exp_bits - 1)) - 1
    sign = rng.getrandbits(1)
    biased = bias + rng.randint(-span, span)
    frac = rng.getrandbits(frac_bits)
    return (((sign << exp_bits | biased) << frac_bits | frac) << pad)


def _dyadic(bits: int, fmt: str) -> Dyadic:
    """Value of a normal bit pattern, from its fields."""
    storage, exp_bits, frac_bits, pad = LAYOUT[fmt]
    bits >>= pad
    frac = bits & ((1 << frac_bits) - 1)
    biased = (bits >> frac_bits) & ((1 << exp_bits) - 1)
    sign = -1 if bits >> (exp_bits + frac_bits) else 1
    bias = (1 << (exp_bits - 1)) - 1
    return Dyadic.make(sign, (1 << frac_bits) | frac,
                       biased - bias - frac_bits)


def _negate(bits: int, fmt: str) -> int:
    return bits ^ (1 << (LAYOUT[fmt][0] - 1))


def mma_configs() -> list:
    """(label, config, input format, oversized) for every batch session."""
    out = []
    fins = selftest.INPUT_FORMATS
    orderings = tuple(Ordering)
    i = 0
    for width in (1, 8, 16):
        for fin in fins:
            cfg = BlockFmaConfig(
                fma_width=width, n_eab=1,
                n_ecb=max_detectable_carry_bits(
                    width, lookup_format(fin).precision),
                norm_policy=(NormPolicy.IMMEDIATE if i % 3 == 2
                             else NormPolicy.DEFERRED),
                rm_intra=(RM.TRUNCATE, RM.RNE)[i % 2],
                rm_inter=(RM.RNE, RM.TRUNCATE)[i % 2],
                ordering=orderings[i % 3])
            out.append((f"hw:w{width}:{fin}", cfg, fin, False))
            i += 1
    for preset, fin in (("ampere", "binary16"), ("volta_like", "binary16"),
                        ("tf32_ampere", "TensorFloat32"),
                        ("ampere_b16out", "bfloat16")):
        out.append((f"preset:{preset}:{fin}", load_config(preset), fin,
                    False))
    # Oversized accumulators: one block, alignment and carry room for any
    # operand in the exponent windows above, so the unit rounds once.
    for i, rm in enumerate(RM):
        width = 32 if i % 2 else 16
        cfg = BlockFmaConfig(fma_width=width, n_eab=64, n_ecb=8,
                             rm_intra=rm, rm_inter=rm, blocks_per_tile=1)
        out.append((f"exact:w{width}:{rm.value}:{fins[i % 3]}", cfg,
                    fins[i % 3], True))
    return out


def make_batch(rng: random.Random, cfg: BlockFmaConfig, fin: str,
               oversized: bool) -> Batch:
    """``BATCH`` requests; on hardware-like units, pairs (v, -v)."""
    batch = Batch(cfg, fin, oversized)
    fout = "binary32"
    while len(batch.vectors) < BATCH:
        k = rng.randint(1, cfg.max_k)
        a = [_random_bits(rng, fin, EXP_SPAN_IN) for _ in range(k)]
        b = [_random_bits(rng, fin, EXP_SPAN_IN) for _ in range(k)]
        c = _random_bits(rng, fout, EXP_SPAN_C)
        batch.vectors.append((a, b, c))
        if not oversized:
            batch.vectors.append(([_negate(x, fin) for x in a], b,
                                  _negate(c, fout)))
    for n, (a, b, c) in enumerate(batch.vectors):
        batch.probe_vectors.append(ProbeVector(
            f"random[{n}]", _dyadic(c, fout),
            tuple((_dyadic(x, fin), _dyadic(y, fin)) for x, y in zip(a, b))))
    return batch


class RandomMma(_Workload):
    """Seeded random scalar MMAs, one fixed-size batch per session."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.configs = mma_configs()

    def sessions(self, round_index: int) -> list[Session]:
        rng = random.Random(f"{self.seed}:mma:{round_index}")
        out = [Session(label, "batch",
                       batch=make_batch(rng, cfg, fin, oversized))
               for label, cfg, fin, oversized in self.configs]
        rng.shuffle(out)
        return out

    def run(self, s: Session) -> Result:
        session = backend.SimBackend(s.batch.cfg)
        fin = lookup_format(s.batch.fin)
        fout = lookup_format("binary32")
        for vec in s.batch.probe_vectors:
            session.run_vector(fin, fout, vec)
        return Result(len(session.log), session.log)

    def check(self, s: Session, result: Result) -> list[str]:
        return checks.batch_problems(s.batch, result.log)
