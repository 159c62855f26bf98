"""Span tracing from outside the program, and the per-layer metrics.

A traced session swaps wrappers in at the names the calling modules look
up (``mmaprobe.backend.encode``, ``SimBackend.evaluate``,
``mmaprobe.inference.gen_ordering_probe`` ...) and swaps the originals
back when it ends, so untraced sessions run the program untouched.  Each
wrapped call records one span: layer name, session id, parent span, start
and end (``perf_counter_ns``) and one integer of context (the configured
width for ``mma_dot``, the vector count for probe generators).  Spans stay
in memory in flat integer arrays and are written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import os
import statistics
import time
from array import array

from mmaprobe import backend, inference, probes

_MISSING = object()

GEN_PROBES = (
    "gen_subnormal_probes", "gen_alignment_bits_probe",
    "gen_alignment_cancel_probe", "gen_normalisation_probe",
    "gen_ordering_probe", "gen_post_alignment_rounding_probe",
    "gen_rm_bfma_probe", "gen_rm_mbfma_probe",
)


def _vector_count(result) -> int:
    if isinstance(result, tuple):          # gen_subnormal_probes
        return sum(len(p.vectors) for p in result)
    return len(result.vectors)


def _targets():
    """(owner, attribute, span name, context function) for every wrap."""
    out = [
        (backend, "encode", "formats.encode", None),
        (backend, "decode", "formats.decode", None),
        (backend, "bits_to_hex", "formats.hex", None),
        (backend, "hex_to_bits", "formats.hex", None),
        (backend, "mma_dot", "simulator.mma_dot",
         lambda args, result: args[3].fma_width),
        (backend, "exact_products", "simulator.exact_products", None),
        (backend.SimBackend, "run_vector", "backend.sim_run_vector", None),
        (backend.SimBackend, "evaluate", "backend.sim_evaluate", None),
        (backend.ExecBackend, "__init__", "backend.exec_start", None),
        (backend.ExecBackend, "run_vector", "backend.exec_run_vector", None),
        (backend.ExecBackend, "evaluate", "backend.exec_round_trip", None),
        (probes.Probe, "classify", "probes.classify", None),
        (probes, "width_test_vectors", "probes.gen",
         lambda args, result: len(result)),
        (probes, "carry_test_vector", "probes.gen", lambda args, result: 1),
        (inference, "infer_features", "inference.infer_features", None),
        (inference.FeatureReport, "to_json", "inference.to_json", None),
    ]
    out += [(inference, name, "probes.gen",
             lambda args, result: _vector_count(result))
            for name in GEN_PROBES]
    return out


def _children_peak_kb() -> int:
    """Largest ``VmHWM`` among this process's live children.

    ``getrusage(RUSAGE_CHILDREN)`` would count the parent's pages that a
    child held between fork and exec; ``VmHWM`` starts afresh at exec.
    """
    pid = os.getpid()
    with open(f"/proc/{pid}/task/{pid}/children") as fh:
        children = fh.read().split()
    peak = 0
    for child in children:
        try:
            with open(f"/proc/{child}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except FileNotFoundError:
            pass
    return peak


class Tracer:
    """Span store plus the install/remove switch for the wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.sessions: list[tuple[str, str]] = []   # (label, base)
        self.wire_bytes: dict[int, tuple[int, int]] = {}
        self.col_name = array("i")
        self.col_session = array("i")
        self.col_parent = array("q")
        self.col_t0 = array("q")
        self.col_t1 = array("q")
        self.col_extra = array("q")
        self._stack: list[int] = []
        self._session = -1
        self._saved: list[tuple[object, str, object]] = []
        self.child_peak_kb = 0
        self._wrappers = [(owner, attr, self._wrap(name, owner, attr, ctx))
                          for owner, attr, name, ctx in _targets()]
        self._wrappers.append((backend.ExecBackend, "close",
                               self._wrap_close(backend.ExecBackend.close)))

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name, owner, attr, ctx):
        fn = getattr(owner, attr)
        name_id = self._name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack
        c_name, c_session, c_parent = (self.col_name, self.col_session,
                                       self.col_parent)
        c_t0, c_t1, c_extra = self.col_t0, self.col_t1, self.col_extra
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(c_t0)
            c_name.append(name_id)
            c_session.append(tracer._session)
            c_parent.append(stack[-1] if stack else -1)
            c_t1.append(0)
            c_extra.append(0)
            stack.append(idx)
            c_t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                c_t1[idx] = clock()
                stack.pop()
            if ctx is not None:
                c_extra[idx] = ctx(args, result)
            return result

        return wrapper

    def _wrap_close(self, fn):
        """Read the serve child's peak RSS just before it is stopped."""
        tracer = self

        def close(session):
            tracer.child_peak_kb = max(tracer.child_peak_kb,
                                       _children_peak_kb())
            return fn(session)

        return close

    def begin(self, label: str, base: str = "timed") -> None:
        """Open a traced session and install every wrapper."""
        self.sessions.append((label, base))
        self._session = len(self.sessions) - 1
        for owner, attr, wrapper in self._wrappers:
            self._saved.append((owner, attr, owner.__dict__.get(attr,
                                                                _MISSING)))
            setattr(owner, attr, wrapper)

    def end(self) -> None:
        """Close the session and restore the program's own functions."""
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._session = -1

    def record_wire(self, log) -> None:
        """Wire bytes of the current session: request and reply lines."""
        sent = sum(len(e.request) + len(e.reply) + 2 for e in log)
        self.wire_bytes[len(self.sessions) - 1] = (sent, len(log))

    @property
    def span_count(self) -> int:
        return len(self.col_t0)

    def write(self, path) -> None:
        """Spans as gzip JSON lines: a header, then one array per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({
                "columns": ["name", "session", "parent", "t0_ns", "t1_ns",
                            "extra"],
                "names": self.names,
                "sessions": [{"label": l, "base": b}
                             for l, b in self.sessions],
            }) + "\n")
            for row in zip(self.col_name, self.col_session, self.col_parent,
                           self.col_t0, self.col_t1, self.col_extra):
                fh.write("[%d,%d,%d,%d,%d,%d]\n" % row)


def tail(values):
    """Highest order statistic with at least ten samples beyond it.

    With fewer than forty samples that would be no tail, so the median
    stands in.
    """
    xs = sorted(values)
    if len(xs) < 40:
        return statistics.median(xs) if xs else 0.0
    return xs[len(xs) - 11]


# name -> unit, in the order they are reported.
LAYER_UNITS = {
    "formats.encode_us": "us",
    "formats.decode_us": "us",
    "formats.hex_us": "us",
    "formats.codec_calls_per_request": "count",
    "simulator.mma_dot_us": "us",
    "simulator.mma_dot_us.w1": "us",
    "simulator.mma_dot_us.w8": "us",
    "simulator.mma_dot_us.w16": "us",
    "simulator.exact_products_us": "us",
    "probes.gen_ms_per_session": "ms",
    "probes.classify_us": "us",
    "probes.vectors_per_session": "count",
    "inference.self_ms_per_session": "ms",
    "inference.to_json_ms": "ms",
    "backend.run_vector_us": "us",
    "backend.run_vector_us_tail": "us",
    "backend.client_us": "us",
    "backend.sim_evaluate_us": "us",
    "backend.exec_start_ms": "ms",
    "backend.exec_round_trip_us": "us",
    "backend.exec_round_trip_us_tail": "us",
    "backend.wire_bytes_per_request": "bytes",
    "backend.child_peak_rss_mb": "MB",
    "trace.overhead_pct": "%",
}


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Per-layer metrics from the spans: value, base and sample count.

    Each metric is taken over the spans of timed sessions; a layer the
    workload never reaches is taken over the calibration sessions
    instead, and ``base`` says which.  ``trace.overhead_pct`` and
    ``backend.child_peak_rss_mb`` are filled in by the caller.
    """
    ids = {name: i for i, name in enumerate(tracer.names)}
    base_of = [b for _, b in tracer.sessions]
    name_col, parent_col, extra = (tracer.col_name, tracer.col_parent,
                                   tracer.col_extra)
    dur = [t1 - t0 for t0, t1 in zip(tracer.col_t0, tracer.col_t1)]
    by_name = {(nid, base): [] for nid in range(len(tracer.names))
               for base in ("timed", "calibration")}
    for i, (nid, sid) in enumerate(zip(name_col, tracer.col_session)):
        by_name[nid, base_of[sid]].append(i)
    out: dict[str, dict] = {}

    def pick(name, where=None):
        """Span indices from timed sessions, else from calibration ones."""
        for base in ("timed", "calibration"):
            idx = [i for i in by_name[ids[name], base]
                   if where is None or where(i)]
            if idx:
                return base, idx
        return "none", []

    def put(metric, base, total, samples):
        out[metric] = {"value": total / samples if samples else 0.0,
                       "unit": LAYER_UNITS[metric], "base": base,
                       "samples": samples}

    def mean(metric, name, scale=1e-3, where=None):
        base, idx = pick(name, where)
        put(metric, base, sum(dur[i] for i in idx) * scale, len(idx))
        return base, idx

    mean("formats.encode_us", "formats.encode")
    mean("formats.decode_us", "formats.decode")
    mean("formats.hex_us", "formats.hex")
    base, enc = pick("formats.encode")
    requests = sum(len(by_name[ids[name], base]) for name in
                   ("backend.sim_run_vector", "backend.exec_run_vector"))
    put("formats.codec_calls_per_request", base, len(enc), requests)

    mean("simulator.mma_dot_us", "simulator.mma_dot")
    for w in (1, 8, 16):
        mean(f"simulator.mma_dot_us.w{w}", "simulator.mma_dot",
             where=lambda i, w=w: extra[i] == w)
    mean("simulator.exact_products_us", "simulator.exact_products")

    # Inference self time: infer_features minus the requests and the probe
    # generation directly under it; top-level generator spans give the
    # generation time and the vector count.
    gen_id = ids["probes.gen"]
    base, infer = pick("inference.infer_features")
    children = {i: 0 for i in infer}
    direct = {gen_id, ids["backend.sim_run_vector"],
              ids["backend.exec_run_vector"]}
    for nid in direct:
        for i in by_name[nid, base]:
            if parent_col[i] in children:
                children[parent_col[i]] += dur[i]
    gen = [i for i in by_name[gen_id, base]
           if parent_col[i] < 0 or name_col[parent_col[i]] != gen_id]
    put("probes.gen_ms_per_session", base,
        sum(dur[i] for i in gen) * 1e-6, len(infer))
    mean("probes.classify_us", "probes.classify")
    put("probes.vectors_per_session", base,
        sum(extra[i] for i in gen), len(infer))
    put("inference.self_ms_per_session", base,
        sum(dur[i] - children[i] for i in infer) * 1e-6, len(infer))
    mean("inference.to_json_ms", "inference.to_json", scale=1e-6)

    base, rv = mean("backend.run_vector_us", "backend.sim_run_vector")
    out["backend.run_vector_us_tail"] = dict(
        out["backend.run_vector_us"],
        value=tail([dur[i] * 1e-3 for i in rv]))
    inner = {i: 0 for i in rv}
    for i in by_name[ids["backend.sim_evaluate"], base]:
        if parent_col[i] in inner:
            inner[parent_col[i]] += dur[i]
    put("backend.client_us", base,
        sum(dur[i] - inner[i] for i in rv) * 1e-3, len(rv))
    mean("backend.sim_evaluate_us", "backend.sim_evaluate")

    mean("backend.exec_start_ms", "backend.exec_start", scale=1e-6)
    base, rt = mean("backend.exec_round_trip_us", "backend.exec_round_trip")
    out["backend.exec_round_trip_us_tail"] = dict(
        out["backend.exec_round_trip_us"],
        value=tail([dur[i] * 1e-3 for i in rt]))
    for base in ("timed", "calibration"):
        wire = [v for s, v in tracer.wire_bytes.items() if base_of[s] == base]
        if wire:
            break
    put("backend.wire_bytes_per_request", base,
        sum(b for b, _ in wire), sum(r for _, r in wire))
    return out
