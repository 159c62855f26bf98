"""Output checks made apart from the code they check.

Grid and preset reports are held against the configured ``BlockFmaConfig``
through ``selftest.check_case``/``soundness_problems`` and the
``GOLDEN_PRESETS`` rows.  Wire reports must match the in-process report
byte for byte.  Raw MMA replies are decoded with ``struct``, summed with
``fractions`` and rounded by the integer code below, never by ``mmaprobe``.

Every checker returns a list of problem strings; an empty list is a pass.
"""

from __future__ import annotations

import json
import struct
from fractions import Fraction

from mmaprobe import selftest
from mmaprobe.inference import QUAL_AT_LEAST, QUAL_EXACT


def bits_value(bits: int, fmt: str) -> Fraction:
    """Exact value of a finite bit pattern, decoded through ``struct``."""
    if fmt == "binary16":
        return Fraction(struct.unpack(">e", bits.to_bytes(2, "big"))[0])
    if fmt == "bfloat16":
        bits <<= 16
    return Fraction(struct.unpack(">f", bits.to_bytes(4, "big"))[0])


def round_binary32(x: Fraction, rm: str) -> int:
    """Bits of ``x`` rounded once to binary32 under ``rm`` (normal range).

    ``rm`` is a ``RoundingMode`` value: RNE, RZ, RU, RD or
    TruncateMagnitude.  An exact zero gives +0, the unit model's sign for
    a cancelling sum of non-zero addends.
    """
    if x == 0:
        return 0
    sign = 1 if x < 0 else 0
    mag = -x if sign else x
    e = mag.numerator.bit_length() - mag.denominator.bit_length()
    if Fraction(2) ** e > mag:
        e -= 1
    scaled = mag * Fraction(2) ** (23 - e)      # in [2**23, 2**24)
    q, rem = divmod(scaled.numerator, scaled.denominator)
    if rem:
        up = {"RZ": False, "TruncateMagnitude": False,
              "RU": not sign, "RD": bool(sign)}.get(rm)
        if up is None:  # RNE
            twice = 2 * rem
            up = twice > scaled.denominator or (
                twice == scaled.denominator and q & 1)
        q += up
    if q == 1 << 24:
        q >>= 1
        e += 1
    if not -126 <= e <= 127:
        raise ValueError(f"{x} leaves the binary32 normal range")
    return (sign << 31) | ((e + 127) << 23) | (q - (1 << 23))


def _field_problems(report, expected: dict) -> list[str]:
    """Report fields against ``("exact"|"at_least", value)`` rows."""
    out = []
    fields = report.field_map()
    for name, (kind, value) in expected.items():
        f = fields[name]
        qual = QUAL_EXACT if kind == "exact" else QUAL_AT_LEAST
        if not (f.qualifier == qual and f.value == value):
            out.append(f"{name}: expected {qual}{value!r}, "
                       f"got {f.qualifier}{f.value!r}")
    return out


def grid_problems(case, report) -> list[str]:
    """Grid configuration: full per-field contract plus soundness."""
    return (selftest.check_case(case, report)
            + selftest.soundness_problems(case, report))


def soundness_only_problems(case, report) -> list[str]:
    """Off-grid configuration: completeness and soundness only."""
    out = [] if report.complete else ["report incomplete"]
    return out + selftest.soundness_problems(case, report)


def preset_problems(case, report, preset: str) -> list[str]:
    """Shipped preset: published rows (where listed) plus soundness."""
    out = soundness_only_problems(case, report)
    rows = selftest.GOLDEN_PRESETS.get((preset, case.fin, case.fout))
    if rows is not None:
        out += _field_problems(report, rows)
    return out


def wire_problems(wire_json: str, inproc_json: str) -> list[str]:
    """The wire report must equal the in-process report byte for byte."""
    if wire_json == inproc_json:
        return []
    at = next((i for i, (x, y) in enumerate(zip(wire_json, inproc_json))
               if x != y), min(len(wire_json), len(inproc_json)))
    return [f"wire report differs from the in-process report at byte {at}"]


def exchange_bits(log_entry) -> tuple[list[int], list[int], int, int]:
    """(a, b, c, d) bit patterns of one logged request/reply pair."""
    req = json.loads(log_entry.request)
    reply = json.loads(log_entry.reply)
    if "d" not in reply:
        raise ValueError(f"error reply {log_entry.reply}")
    return ([int(h, 16) for h in req["a"]], [int(h, 16) for h in req["b"]],
            int(req["c"], 16), int(reply["d"], 16))


def exact_sum(a: list[int], b: list[int], c: int, fin: str) -> Fraction:
    total = bits_value(c, "binary32")
    for x, y in zip(a, b):
        total += bits_value(x, fin) * bits_value(y, fin)
    return total


def batch_problems(batch, log) -> list[str]:
    """Random-MMA batch: wire form, then exact-once or sign symmetry.

    ``batch.vectors`` holds the (a, b, c) bit patterns sent, in order.  On
    an oversized accumulator every reply must be the exact sum rounded
    once under the configured mode; on a hardware-like unit with a
    sign-symmetric mode each odd vector negates the one before it, so its
    reply must be the negated reply.
    """
    if len(log) != len(batch.vectors):
        return [f"{len(log)} replies for {len(batch.vectors)} requests"]
    problems = []
    replies = []
    for i, ((a, b, c), entry) in enumerate(zip(batch.vectors, log)):
        try:
            sa, sb, sc, d = exchange_bits(entry)
        except (ValueError, KeyError) as e:
            problems.append(f"request {i}: {e}")
            replies.append(None)
            continue
        if (sa, sb, sc) != (a, b, c):
            problems.append(f"request {i}: operands changed on the wire")
        replies.append(d)
        if batch.oversized:
            want = round_binary32(exact_sum(a, b, c, batch.fin),
                                  batch.cfg.rm_intra.value)
            if d != want:
                problems.append(f"request {i}: reply {d:08x}, exact sum "
                                f"rounded once is {want:08x}")
    if not batch.oversized:
        for i in range(0, len(replies) - 1, 2):
            pos, neg = replies[i], replies[i + 1]
            if pos is None or neg is None:
                continue
            if pos & 0x7FFFFFFF == 0:
                ok = neg & 0x7FFFFFFF == 0
            else:
                ok = neg == pos ^ 0x80000000
            if not ok:
                problems.append(f"requests {i},{i + 1}: replies {pos:08x} "
                                f"and {neg:08x} are not sign-symmetric")
    return problems
