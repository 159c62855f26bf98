"""Command-line interface.

Subcommands: ``probe`` (full feature inference), ``eval`` (single MMA),
``gen-vectors`` (export probe vectors for offline harnesses), ``selftest``
(round-trip grid and golden-report checks), and ``serve`` (run the
simulator as a line-protocol child process).

Reports and vector records go to stdout; diagnostics go to stderr.  Exit
codes: 0 success, 1 operational error, 2 partial or undetermined-heavy
report (or selftest failure), 64 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .backend import (
    BackendError,
    MmaRequest,
    _to_hex,
    _vector_hex,
    open_backend,
    serve,
)
from .formats import FpFormat, lookup_format
from .inference import (_STAGES, InferOptions, _json_text, _Planner,
                        infer_features, render_report)
from .presets import PRESET_NAMES, load_config
from .probes import (
    NotFactorable,
    Probe,
    ProbeVector,
    _scan_step,
    gen_normalisation_probe,
    gen_rm_bfma_probe,
)
from .simulator import Ordering

EX_OK = 0
EX_ERROR = 1
EX_PARTIAL = 2
EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 64 on usage errors."""

    def error(self, message: str) -> None:  # noqa: D401
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _format_or_die(name: str) -> FpFormat:
    try:
        return lookup_format(name)
    except KeyError as e:
        print(f"error: {e.args[0]}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _backend_or_die(args):
    try:
        return open_backend(args.backend, timeout=args.timeout)
    except (ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _vec_to_obj(vec: ProbeVector, fin: FpFormat, fout: FpFormat) -> dict:
    a, b, c = _vector_hex(vec, fin, fout)
    return {"label": vec.label, "c": c, "a": a, "b": b, "k": vec.k}


def _probe_to_record(name: str, probe: Probe, fin: FpFormat,
                     fout: FpFormat) -> dict:
    rows = []
    for expected, verdict in probe.rows:
        rows.append({
            "observed": [_to_hex(e, fout, f"{name} classifier row")
                         for e in expected],
            "verdict": list(verdict) if isinstance(verdict, tuple) else verdict,
        })
    rec = {
        "probe": name,
        "feature": probe.feature,
        "fin": fin.name,
        "fout": fout.name,
        "vectors": [_vec_to_obj(v, fin, fout) for v in probe.vectors],
        "classifier": rows,
    }
    if probe.note:
        rec["note"] = probe.note
    return rec


def _algorithm1_record(fin: FpFormat, fout: FpFormat, k: int) -> dict:
    """Every vector ``run_algorithm1`` may send at ``k``, in sending order
    (it stops at the first off width vector and may skip ``carry[k]``)."""
    width, cvec, carry_sum = _scan_step(k, fin, fout)
    rec = {
        "probe": "fma_width",
        "feature": "fma_width,n_ecb",
        "fin": fin.name,
        "fout": fout.name,
        "vectors": [_vec_to_obj(v, fin, fout) for v, _ in width],
        "expected_exact": [_to_hex(exact, fout, f"exact sum of {v.label}")
                           for v, exact in width],
        "note": "iterate k upward; any width vector whose magnitude is off "
                "its exact sum marks the block boundary at k-1; the carry "
                "vector matching exactly records "
                "floor(log2(k*(2-2^(1-p_in)))) carry bits",
    }
    if carry_sum is None:
        rec["carry_skipped"] = (f"addend of {cvec.label} not exact in "
                                f"{fout.name}")
    else:
        rec["vectors"].append(_vec_to_obj(cvec, fin, fout))
    return rec


# gen-vectors probes: the inference stages in run order.  n_ecb sends no
# probe of its own: it reads the width scan, which fma_width exports.
_GEN_PROBES = tuple(name for name, _ in _STAGES if name != "n_ecb")


def _options_or_die(fin: FpFormat, fout: FpFormat,
                    seed_params: Optional[tuple[int, int]]) -> InferOptions:
    opts = InferOptions()
    if seed_params is not None:
        opts.j, opts.t = seed_params
        # A usage error only where j,t break a width-free probe that the
        # defaults build; a probe no j,t can build is left to the report.
        for build in (lambda o: gen_rm_bfma_probe(fin, fout, o.j),
                      lambda o: gen_normalisation_probe(
                          fin, fout, "carry_and_align", o.t)):
            try:
                build(InferOptions())
            except NotFactorable:
                continue
            try:
                build(opts)
            except NotFactorable as e:
                print(f"error: --seed-params: {e}", file=sys.stderr)
                raise SystemExit(EX_USAGE)
    return opts


def cmd_probe(args) -> int:
    fin = _format_or_die(args.infmt)
    fout = _format_or_die(args.outfmt)
    opts = _options_or_die(fin, fout, args.seed_params)
    opts.k_max = args.kmax
    session = _backend_or_die(args)
    try:
        report = infer_features(session, fin.name, fout.name, opts)
    finally:
        session.close()
    if args.stamp:
        import datetime
        report.notes.append(
            "generated " + datetime.datetime.now().isoformat())
    sys.stdout.write(render_report(report, args.report))
    undet = sum(1 for f in report.field_map().values() if not f.determinate)
    if not report.complete:
        return EX_PARTIAL
    if undet * 2 >= len(report.field_map()):
        return EX_PARTIAL
    return EX_OK


def cmd_eval(args) -> int:
    fin = _format_or_die(args.infmt)
    fout = _format_or_die(args.outfmt)
    a = [s for s in args.a.split(",") if s] if args.a else []
    b = [s for s in args.b.split(",") if s] if args.b else []
    if len(a) != len(b):
        print("error: --a and --b must list the same number of operands",
              file=sys.stderr)
        return EX_USAGE
    session = _backend_or_die(args)
    try:
        req = MmaRequest(id=1, fin=fin.name, fout=fout.name, k=len(a),
                         a=tuple(a), b=tuple(b), c=args.c)
        reply = session.evaluate(req)
    finally:
        session.close()
    if not reply.ok:
        print(f"error: {reply.error_code}: {reply.error_message}",
              file=sys.stderr)
        return EX_ERROR
    print(reply.d)
    return EX_OK


def cmd_gen_vectors(args) -> int:
    fin = _format_or_die(args.infmt)
    fout = _format_or_die(args.outfmt)
    planner = _Planner(
        fin, fout, _options_or_die(fin, fout, args.seed_params),
        fma_width=args.fma_width, ordering=args.ordering, n_eab=args.n_eab,
        n_ecb=args.n_ecb)
    records = []
    for name in _GEN_PROBES if args.probe == "all" else (args.probe,):
        try:
            if name == "fma_width":
                records.append(_algorithm1_record(fin, fout, args.k))
                continue
            probes, field = planner.plan(name)
            records += ([_probe_to_record(name, p, fin, fout) for p in probes]
                        or [{"probe": name, "skipped": field.reason}])
        except ValueError as e:
            if args.probe != "all":
                print(f"error: {e}", file=sys.stderr)
                return EX_USAGE
            records.append({"probe": name, "skipped": str(e)})
    sys.stdout.write(_json_text(
        {"schema": "mmaprobe-vectors/2", "records": records}) + "\n")
    return EX_OK


def cmd_selftest(args) -> int:
    from .selftest import run_selftest
    ok = run_selftest(quick=args.quick, out=sys.stdout)
    return EX_OK if ok else EX_PARTIAL


def cmd_serve(args) -> int:
    try:
        cfg = load_config(args.config)
    except (FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EX_USAGE
    return serve(cfg)


def _seed_params(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected j,t")
    j, t = int(parts[0]), int(parts[1])
    if t < 3:
        raise argparse.ArgumentTypeError("t must be >= 3")
    return j, t


def _kmax(text: str) -> int:
    k = int(text)
    if k < 2:
        raise argparse.ArgumentTypeError("must be >= 2")
    return k


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="mmaprobe",
                  description="Probe numerical features of "
                              "matrix-multiply-accumulate units.")
    sub = top.add_subparsers(dest="command", required=True)

    def add_backend_opts(p):
        default_backend = os.environ.get("MMAPROBE_BACKEND")
        p.add_argument("--backend", required=default_backend is None,
                       default=default_backend,
                       help="sim:<config-file-or-preset> or exec:<command> "
                            "(default from MMAPROBE_BACKEND); presets: "
                            f"{', '.join(PRESET_NAMES)}")
        p.add_argument("--timeout", type=float, default=30.0,
                       help="per-request timeout for exec backends (s)")

    def add_formats(p):
        p.add_argument("--in", dest="infmt", required=True,
                       help="input format name")
        p.add_argument("--out", dest="outfmt", required=True,
                       help="output format name")

    def add_seed_params(p):
        p.add_argument("--seed-params", type=_seed_params, metavar="j,t",
                       help="scale exponent and gap parameter (default 0,3)")

    p = sub.add_parser("probe", help="infer the full feature report")
    add_backend_opts(p)
    add_formats(p)
    p.add_argument("--report", choices=("table", "structured"),
                   default="table")
    p.add_argument("--kmax", type=_kmax, default=64,
                   help="largest shared dimension the width scan tries")
    add_seed_params(p)
    p.add_argument("--stamp", action="store_true",
                   help="append a generation timestamp note (reports are "
                        "otherwise byte-identical across runs)")
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("eval", help="evaluate one MMA (hex operands)")
    add_backend_opts(p)
    add_formats(p)
    p.add_argument("--c", required=True, help="addend bit pattern (hex)")
    p.add_argument("--a", default="", help="comma-separated a operands")
    p.add_argument("--b", default="", help="comma-separated b operands")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gen-vectors",
                       help="export probe vectors with classifier tables")
    add_formats(p)
    p.add_argument("--probe", choices=(*_GEN_PROBES, "all"), default="all")
    p.add_argument("--fma-width", type=int, help="block width verdict")
    p.add_argument("--ordering", choices=[o.value for o in Ordering],
                   help="ordering verdict")
    p.add_argument("--n-eab", type=int, help="extra alignment bits verdict")
    p.add_argument("--n-ecb", type=int, help="extra carry bits verdict")
    add_seed_params(p)
    p.add_argument("--k", type=int, default=2,
                   help="shared dimension for the fma_width record")
    p.set_defaults(fn=cmd_gen_vectors)

    p = sub.add_parser("selftest",
                       help="round-trip grid and golden-report checks")
    p.add_argument("--quick", action="store_true",
                   help="subsample the configuration grid")
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("serve",
                       help="run the simulator as a protocol child process")
    p.add_argument("--config", required=True,
                   help="simulator config file or preset name")
    p.set_defaults(fn=cmd_serve)
    return top


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EX_USAGE
    try:
        return args.fn(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EX_USAGE
    except BackendError as e:
        print(f"error: {e}", file=sys.stderr)
        return EX_ERROR
    except BrokenPipeError:
        return EX_ERROR


if __name__ == "__main__":
    sys.exit(main())
