"""Evaluation backends: in-process simulator, external process, embedding.

Every backend answers one question: given input/output formats, a shared
dimension ``k``, ``k`` operand pairs and an accumulator input, what bit
pattern does the unit return for ``d = sum(a_l * b_l) + c``?

The external protocol is newline-delimited JSON records over the child
process's standard input/output, one request per line with strictly
in-order replies.  The first line the child writes is a handshake
advertising the protocol version, supported format pairs, and maximum
shared dimension:

    {"proto": 1, "pairs": [["binary16", "binary32"], ...], "kmax": 16}
    {"id": 1, "fin": "binary16", "fout": "binary32", "k": 2,
     "a": ["3c00", "0000"], "b": ["3c00", "0000"], "c": "3f800000"}
    {"id": 1, "d": "40000000"}

Error replies carry ``{"id": ..., "error": {"code": ..., "message": ...}}``
with codes ``Unsupported``, ``BadRequest``, or ``Internal``.  Bit patterns
are lowercase fixed-width hex, most-significant nibble first.
"""

from __future__ import annotations

import functools
import json
import os
import select
import shlex
import subprocess
import sys
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple, Optional, Sequence

from .formats import (
    FpFormat,
    REGISTRY,
    RoundingMode,
    Special,
    Value,
    ZERO,
    bits_to_hex,
    decode,
    encode,
    hex_to_bits,
)
from .probes import ProbeVector
from .simulator import (
    BlockFmaConfig,
    FormatContract,
    SizeContract,
    exact_products,
    mma_dot,
)

__all__ = [
    "PROTO_VERSION",
    "BackendError",
    "TransportError",
    "UnsupportedError",
    "BackendTimeout",
    "InternalError",
    "Handshake",
    "MmaRequest",
    "MmaReply",
    "SimBackend",
    "ExecBackend",
    "open_backend",
    "serve",
    "embed_scalar_test",
    "evaluate_tile",
]

PROTO_VERSION = 1


class BackendError(Exception):
    """Base class for backend failures."""


class TransportError(BackendError):
    """The child process died, closed its pipe, or spoke garbage."""


class UnsupportedError(BackendError):
    """The backend rejected the format pair or shared dimension."""


class BackendTimeout(BackendError):
    """No reply within the configured per-request timeout."""


class InternalError(BackendError):
    """The backend answered one request with an ``Internal`` error."""


def _parse_object(line: str, build):
    """``build`` applied to one wire line's JSON object.

    A line that is not a JSON object, or a field of the wrong shape,
    raises ``ValueError``.
    """
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    try:
        return build(obj)
    except (KeyError, TypeError, AttributeError) as e:
        raise ValueError(f"bad field: {e!r}") from e


@dataclass(frozen=True)
class Handshake:
    proto: int
    pairs: tuple[tuple[str, str], ...]
    kmax: int

    @functools.cached_property  # not a field, so ``==`` ignores it
    def _pair_set(self) -> frozenset:
        return frozenset(self.pairs)

    def supports(self, fin: str, fout: str) -> bool:
        return (fin, fout) in self._pair_set

    def to_json(self) -> str:
        return json.dumps({
            "proto": self.proto,
            "pairs": [list(p) for p in self.pairs],
            "kmax": self.kmax,
        }, sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "Handshake":
        return _parse_object(line, lambda obj: Handshake(
            proto=int(obj["proto"]),
            pairs=tuple((str(a), str(b)) for a, b in obj["pairs"]),
            kmax=int(obj["kmax"]),
        ))


class MmaRequest(NamedTuple):
    """One scalar MMA evaluation in wire form (hex operands)."""

    id: int
    fin: str
    fout: str
    k: int
    a: tuple[str, ...]
    b: tuple[str, ...]
    c: str

    def to_json(self) -> str:
        """``json.dumps`` of the fields with sorted keys, written directly."""
        a, b = ", ".join(map(_quote, self.a)), ", ".join(map(_quote, self.b))
        return (f'{{"a": [{a}], "b": [{b}], "c": {_quote(self.c)}, '
                f'"fin": {_quote(self.fin)}, "fout": {_quote(self.fout)}, '
                f'"id": {self.id}, "k": {self.k}}}')

    @staticmethod
    def from_json(line: str) -> "MmaRequest":
        req = _parse_object(line, lambda obj: MmaRequest(
            id=int(obj["id"]), fin=str(obj["fin"]), fout=str(obj["fout"]),
            k=int(obj["k"]), a=tuple(str(x) for x in obj["a"]),
            b=tuple(str(x) for x in obj["b"]), c=str(obj["c"])))
        if len(req.a) != req.k or len(req.b) != req.k:
            raise ValueError("operand list lengths do not match k")
        return req


class MmaReply(NamedTuple):
    id: int
    d: Optional[str] = None
    error_code: Optional[str] = None
    error_message: str = ""

    @property
    def ok(self) -> bool:
        return self.d is not None

    def to_json(self) -> str:
        if self.d is not None:
            return f'{{"d": {_quote(self.d)}, "id": {self.id}}}'
        code = "null" if self.error_code is None else _quote(self.error_code)
        return (f'{{"error": {{"code": {code}, "message": '
                f'{_quote(self.error_message)}}}, "id": {self.id}}}')

    @staticmethod
    def from_json(line: str) -> "MmaReply":
        return _parse_object(line, MmaReply._from_object)

    @staticmethod
    def _from_object(obj: dict) -> "MmaReply":
        if "d" in obj:
            return MmaReply(id=int(obj["id"]), d=str(obj["d"]))
        err = obj.get("error") or {}
        code = err.get("code", "Internal")
        return MmaReply(id=int(obj["id"]),
                        error_code=None if code is None else str(code),
                        error_message=str(err.get("message", "")))


@dataclass
class EvidenceEntry:
    """Raw request/reply pair kept for audit."""

    label: str
    request: str
    reply: str


class _SessionBase:
    """Shared request-counter and Dyadic-level convenience layer."""

    handshake: Handshake

    def __init__(self) -> None:
        self._next_id = 0
        self.log: list[EvidenceEntry] = []
        self.restarts: list[str] = []  # why each exec child was replaced

    def evaluate(self, req: MmaRequest) -> MmaReply:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def run_vector(self, fin: FpFormat, fout: FpFormat,
                   vec: ProbeVector) -> Value:
        """Encode a probe vector, evaluate it, decode and log the exchange."""
        if not self.handshake.supports(fin.name, fout.name):
            raise UnsupportedError(
                f"backend does not support {fin.name}->{fout.name}")
        if vec.k > self.handshake.kmax:
            raise UnsupportedError(
                f"k={vec.k} exceeds backend kmax={self.handshake.kmax}")
        a_hex, b_hex, c_hex = _vector_hex(vec, fin, fout)
        req = MmaRequest(id=self._take_id(), fin=fin.name, fout=fout.name,
                         k=vec.k, a=a_hex, b=b_hex, c=c_hex)
        try:
            reply = self.evaluate(req)
        except BackendError as e:  # the lost request is evidence too
            self.log.append(EvidenceEntry(vec.label, req.to_json(), MmaReply(
                req.id, error_code="Transport",
                error_message=str(e)).to_json()))
            raise
        self.log.append(EvidenceEntry(vec.label, req.to_json(),
                                      reply.to_json()))
        if not reply.ok:
            if reply.error_code == "Unsupported":
                raise UnsupportedError(reply.error_message)
            error = (InternalError if reply.error_code == "Internal"
                     else TransportError)
            raise error(f"{reply.error_code}: {reply.error_message}")
        try:
            return _from_hex(reply.d, fout)
        except ValueError as e:
            raise TransportError(
                f"bad {fout.name} result {reply.d!r}: {e}") from e


# Entries a format's encode or decode memo holds; a full memo is rebuilt
# from its newer half.  Probe vectors repeat a few hundred patterns, and
# random operands never repeat, so a larger memo buys only memory.  An
# exact encode stores its text's value in the decode memo as the newest
# entry, so a request this process encoded decodes no operand.
_MEMO_BOUND = 1024


def _make_room(memo: dict) -> None:
    if len(memo) >= _MEMO_BOUND:
        newer = list(memo.items())[_MEMO_BOUND // 2:]
        memo.clear()
        memo.update(newer)


def _to_hex(v: Value, fmt: FpFormat, what: str,
            rm: Optional[RoundingMode] = None) -> str:
    """Wire hex of ``v`` in ``fmt``, rounded under ``rm`` if one is given.

    Without ``rm`` the value must be exact in ``fmt``; otherwise
    ``FormatContract`` names ``what``.  This and ``_from_hex`` are the only
    places values cross to and from the wire form.  Results are memoised
    per format by the value's fields and ``rm``, never by the ``Dyadic``
    itself (it hashes -0 equal to +0); enum members are keyed by their
    plain string values, which hash cheaply.  Without ``rm`` only exact
    results are stored, so an inexact value raises on every call; each
    call, hit or miss, also stores ``v`` in the decode memo as the newest
    entry for its text, the value ``_from_hex`` reads from it.  Rounded
    results seed nothing.
    """
    mode = None if rm is None else rm._value_
    key = ((v._value_, mode) if type(v) is Special
           else (v.sign, v.sig, v.exp, mode))
    memo = fmt.encode_memo
    text = memo.get(key)
    if text is None:
        bits, inexact = encode(v, fmt, rm or RoundingMode.RNE)
        if rm is None and inexact:
            raise FormatContract(f"{what} not exact in {fmt.name}")
        text = bits_to_hex(bits, fmt)
        _make_room(memo)
        memo[key] = text
    if rm is None:
        decoded = fmt.decode_memo
        decoded.pop(text, None)
        _make_room(decoded)
        decoded[text] = v
    return text


def _from_hex(text: str, fmt: FpFormat) -> Value:
    """Value of a wire pattern, memoised per format by the exact text (an
    exact ``_to_hex`` stores its own texts).  Only texts of the format's
    fixed width are stored, so a padded text from a child cannot make a
    key of any size.
    """
    memo = fmt.decode_memo
    v = memo.get(text)
    if v is None:
        v = decode(hex_to_bits(text, fmt), fmt)
        if len(text) == fmt.hex_digits:
            _make_room(memo)
            memo[text] = v
    return v


def _vector_hex(vec: ProbeVector, fin: FpFormat, fout: FpFormat,
                ) -> tuple[tuple[str, ...], tuple[str, ...], str]:
    """Exact wire form of a probe vector: (a operands, b operands, addend).

    Kept on the vector per format pair, keyed by the format objects, so a
    memoised probe's vector is encoded once; an inexact vector stores
    nothing and raises ``FormatContract`` on every call.
    """
    key = (fin, fout)
    wire = vec.wire.get(key)
    if wire is None:
        what = f"operand of {vec.label}"
        wire = (tuple(_to_hex(a, fin, what) for a, _ in vec.pairs),
                tuple(_to_hex(b, fin, what) for _, b in vec.pairs),
                _to_hex(vec.c, fout, f"addend of {vec.label}"))
        vec.wire[key] = wire
    return wire


def _dot_hex(a_hex: Sequence[str], b_hex: Sequence[str], c_hex: str,
             cfg: BlockFmaConfig, fin: FpFormat, fout: FpFormat) -> str:
    """One output element: decode, check the products, ``mma_dot``, encode.

    Raises ``ValueError`` on a malformed pattern, ``FormatContract`` when a
    product is not exact, ``ArithmeticError`` from the simulator.
    """
    get = fin.decode_memo.get  # a stored value is never None or falsy
    a = [get(h) or _from_hex(h, fin) for h in a_hex]
    b = [get(h) or _from_hex(h, fin) for h in b_hex]
    c = _from_hex(c_hex, fout)
    exact_products(a, b, fin, fout)
    d = mma_dot(c, a, b, cfg, fout)
    return _to_hex(d, fout, "result", cfg.rm_intra)


class SimBackend(_SessionBase):
    """In-process session evaluating against a block-FMA configuration."""

    def __init__(self, cfg: BlockFmaConfig) -> None:
        super().__init__()
        self.cfg = cfg
        pairs = tuple((fi, fo) for fi in REGISTRY for fo in REGISTRY
                      if REGISTRY[fi].precision <= REGISTRY[fo].precision)
        self.handshake = Handshake(proto=PROTO_VERSION, pairs=pairs,
                                   kmax=cfg.max_k)

    def evaluate(self, req: MmaRequest) -> MmaReply:
        if not self.handshake.supports(req.fin, req.fout):
            return MmaReply(req.id, error_code="Unsupported",
                            error_message="backend does not support "
                            f"{req.fin}->{req.fout}")
        fin = REGISTRY[req.fin]
        fout = REGISTRY[req.fout]
        if req.k > self.cfg.max_k:
            return MmaReply(req.id, error_code="Unsupported",
                            error_message=f"k={req.k} exceeds "
                            f"kmax={self.cfg.max_k}")
        try:
            return MmaReply(req.id, d=_dot_hex(req.a, req.b, req.c, self.cfg,
                                               fin, fout))
        except (FormatContract, SizeContract) as e:
            return MmaReply(req.id, error_code="Unsupported",
                            error_message=str(e))
        except ValueError as e:
            return MmaReply(req.id, error_code="BadRequest",
                            error_message=str(e))
        except ArithmeticError as e:
            return MmaReply(req.id, error_code="Internal",
                            error_message=str(e))


# Longest line a child may write; a longer one is a transport failure, so
# a child that never ends its line cannot grow the parent without bound.
_MAX_LINE_BYTES = 1 << 20

# Longest single ``select`` wait; the deadline still holds.  ``select``
# overflows on waits above about 1e9 s, an infinite timeout included.
_MAX_WAIT_S = 3600.0


class _LinePipe:
    """Unbuffered line I/O with a select-based timeout over a child pipe."""

    def __init__(self, proc: subprocess.Popen) -> None:
        self.proc = proc
        self._buf = bytearray()

    def write_line(self, line: str) -> None:
        try:
            self.proc.stdin.write(line.encode() + b"\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as e:
            raise TransportError(f"child stdin closed: {e}") from e

    def read_line(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        end = self._buf.find(b"\n")
        while end < 0:
            if len(self._buf) > _MAX_LINE_BYTES:
                raise TransportError(
                    f"child line longer than {_MAX_LINE_BYTES} bytes")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BackendTimeout(f"no reply within {timeout:.1f}s")
            ready, _, _ = select.select([fd], [], [],
                                        min(remaining, _MAX_WAIT_S))
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise TransportError("child closed stdout")
            hit = chunk.find(b"\n")
            if hit >= 0:
                end = len(self._buf) + hit
            self._buf += chunk
        line = self._buf[:end]
        del self._buf[:end + 1]
        try:
            return line.decode()
        except UnicodeDecodeError as e:
            raise TransportError(f"child line is not UTF-8: {e}") from e


class ExecBackend(_SessionBase):
    """Session over a child process speaking the line protocol.

    One in-flight request at a time; a transport failure triggers one
    restart-and-resend before giving up, and a timeout replaces the child
    before it is raised; ``restarts`` records the reason for each
    replacement.  A replacement child with another handshake would change a
    report's basis mid-run, so that restart is a transport failure.
    """

    def __init__(self, command: str, timeout: float = 30.0) -> None:
        if not timeout > 0:
            raise ValueError(f"timeout must be > 0 s, got {timeout}")
        super().__init__()
        self.command = command
        self.timeout = timeout
        self._proc: Optional[subprocess.Popen] = None
        self._pipe: Optional[_LinePipe] = None
        self.handshake: Optional[Handshake] = None
        self._start()

    def _start(self) -> None:
        try:
            self._proc = subprocess.Popen(
                shlex.split(self.command),
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                bufsize=0)
        except OSError as e:
            raise TransportError(f"cannot start backend: {e}") from e
        self._pipe = _LinePipe(self._proc)
        try:
            try:
                handshake = Handshake.from_json(
                    self._pipe.read_line(self.timeout))
            except ValueError as e:
                raise TransportError(f"bad handshake: {e}") from e
            if handshake.proto != PROTO_VERSION:
                raise TransportError(
                    f"protocol {handshake.proto} not supported")
            if self.handshake is not None and handshake != self.handshake:
                raise TransportError("restarted backend changed its "
                                     f"handshake to {handshake.to_json()}")
        except BaseException:
            self.close()  # a failed start leaves no child running
            raise
        self.handshake = handshake

    def _round_trip(self, req: MmaRequest) -> MmaReply:
        self._pipe.write_line(req.to_json())
        line = self._pipe.read_line(self.timeout)
        try:
            reply = MmaReply.from_json(line)
        except ValueError as e:
            raise TransportError(f"bad reply line {line!r}: {e}") from e
        if reply.id != req.id:
            raise TransportError(
                f"reply id {reply.id} does not match request {req.id}")
        return reply

    def evaluate(self, req: MmaRequest) -> MmaReply:
        try:
            return self._round_trip(req)
        except (BackendTimeout, TransportError) as e:
            self.close()
            self._start()
            self.restarts.append(str(e))
            if isinstance(e, BackendTimeout):
                raise
            return self._round_trip(req)

    def close(self) -> None:
        if self._proc is not None:
            try:
                self._proc.stdin.close()
            except OSError:
                pass
            try:
                self._proc.terminate()
                self._proc.wait(timeout=5)
            except (OSError, subprocess.TimeoutExpired):
                self._proc.kill()
            self._proc.stdout.close()
            self._proc = None


def open_backend(spec: str, timeout: float = 30.0) -> _SessionBase:
    """Open ``sim:<config-file>`` or ``exec:<command>`` backend spec."""
    kind, _, rest = spec.partition(":")
    if kind == "sim":
        from .presets import load_config
        return SimBackend(load_config(rest))
    if kind == "exec":
        if not rest:
            raise ValueError("exec backend needs a command")
        return ExecBackend(rest, timeout=timeout)
    raise ValueError(f"unknown backend spec {spec!r} (use sim:... or exec:...)")


def serve(cfg: BlockFmaConfig, stdin=None, stdout=None) -> int:
    """Child-process loop: handshake, then one reply per request line.

    This is the loopback server used to exercise the external protocol and
    the reference implementation for GPU-side harnesses.
    """
    inp = stdin if stdin is not None else sys.stdin
    out = stdout if stdout is not None else sys.stdout
    sim = SimBackend(cfg)
    out.write(sim.handshake.to_json() + "\n")
    out.flush()
    for raw in inp:
        line = raw.strip()
        if not line:
            continue
        try:
            req = MmaRequest.from_json(line)
        except ValueError as e:
            out.write(MmaReply(0, error_code="BadRequest",
                               error_message=str(e)).to_json() + "\n")
            out.flush()
            continue
        out.write(sim.evaluate(req).to_json() + "\n")
        out.flush()
    return 0


def embed_scalar_test(vec: ProbeVector, tile: tuple[int, int, int],
                      fin: FpFormat, fout: FpFormat,
                      ) -> tuple[list[list[str]], list[list[str]], list[list[str]]]:
    """Embed a scalar test at element (1,1) of an m x n x k0 tile.

    Row one of A holds the a-operands, column one of B the b-operands,
    C[1][1] the addend; all other entries are zero.  Zeros pad AFTER the
    live operands so the in-order block assignment is preserved.
    """
    m, n, k0 = tile
    if vec.k > k0:
        raise SizeContract(f"probe k={vec.k} exceeds tile k0={k0}")
    zero_in = _to_hex(ZERO, fin, "zero")
    zero_out = _to_hex(ZERO, fout, "zero")
    A = [[zero_in] * k0 for _ in range(m)]
    B = [[zero_in] * n for _ in range(k0)]
    C = [[zero_out] * n for _ in range(m)]
    a_hex, b_hex, C[0][0] = _vector_hex(vec, fin, fout)
    for idx, (a, b) in enumerate(zip(a_hex, b_hex)):
        A[0][idx] = a
        B[idx][0] = b
    return A, B, C


def evaluate_tile(A: Sequence[Sequence[str]], B: Sequence[Sequence[str]],
                  C: Sequence[Sequence[str]], cfg: BlockFmaConfig,
                  fin: FpFormat, fout: FpFormat) -> list[list[str]]:
    """Whole-tile simulator evaluation: every D element via the block model.

    Each element goes through the same evaluator as a scalar request, so a
    product that is not exact raises ``FormatContract``.
    """
    k0 = len(B)
    n = len(B[0]) if B else 0
    return [[_dot_hex([A[i][l] for l in range(k0)],
                      [B[l][j] for l in range(k0)], C[i][j], cfg, fin, fout)
             for j in range(n)]
            for i in range(len(A))]
