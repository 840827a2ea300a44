"""lamwire: the binary data plane of the sharded cluster.

Every message that crosses a worker connection — cluster waves and
replies, replication frames, parallel-scheduler group results, worker
reports — is encoded by this module, and only by it.  A generic
serializer would pay per-crossing costs the kernel's fast paths spent
four PRs eliminating *inside* the machine: every label re-validated and
re-interned on every hop, every frame re-shipping strings the peer has
seen a thousand times.  This module is the wire-level analogue of the
in-kernel caches, built from two ideas:

**Schema'd frames.**  Messages encode to type-tagged binary: varint
integers (zigzag for sign), UTF-8 strings, struct-packed headers, and
positional fields for the RPC dataclasses — no class names, no opcodes,
no protocol framing per object.  The schema is closed: a value outside
it raises :class:`WireError` at encode, so nothing but schema'd bytes
ever reaches a decoder, and a frame that does not parse raises
:class:`WireError` at decode.  Each message has one encoding: its
registry tag, then its fields in declaration order, decoded slot-direct.
The two wave shapes the executors ship — ``[(shard_id, ShardRequest),
...]`` and ``[ShardResponse, ...]`` — have one vectorized encoding each.
A codec installs the message registry when it is built, so every wave,
the first included, takes its wave encoding.

**A per-connection value dictionary.**  Both endpoints of a connection
keep one synchronized dictionary, populated in-band: strings, small
byte payloads, whole
:class:`~repro.osim.kernel.Sqe`/:class:`~repro.osim.kernel.Cqe`
entries (and whole uniform *batches* of them: a request's ``sqes``
tuple is one entry), bare :class:`~repro.core.labels.Label` objects and
(secrecy, integrity) :class:`~repro.core.labels.LabelPair`\\ s are
defined once (``DEF id value``) and thereafter referenced by a varint
id (``REF id``).  A steady-state Zipfian workload repeats a small set
of operations, so whole request bodies collapse to ~2-byte references
and the decoder returns the *same cached object* — zero construction,
zero re-interning.  Labels need no guard against tag-namespace changes:
they are immutable and the trusted allocator never reuses a tag value,
so a label or pair decoded once means the same thing for the life of
the connection.  The codec counts the label pairs it sends as
references and in full as ``label_dict_hits``/``label_dict_misses``.

The dictionary is strictly per-connection, per-direction state: the
``DEF`` frames that populate the decoder travel in the same FIFO stream
as the ``REF`` frames that use them, so in-order delivery (guaranteed by
the ``multiprocessing`` pipes underneath) is the only synchronization.
It is deliberately *not* registered with
:func:`repro.core.fastpath.register_cache`: clearing one endpoint of a
connection mid-stream would desynchronize the pair.  A frame that is
never sent rolls its encoder back (:meth:`BinaryWireCodec.rollback`),
so no later frame references a definition the peer never saw.

Byte payloads are copied into the frame's one ``bytearray`` whatever
their size (small ``bytes`` also go through the value dictionary);
``bytearray`` and ``memoryview`` payloads encode like ``bytes`` and
decode as ``bytes``.

The codec counts ``frames`` and ``bytes_on_wire`` into the process-wide
:data:`repro.core.fastpath.counters` on encode (payload bytes, header
excluded).  Per-connection accounting is the pool's
(:meth:`repro.osim.pool.Pool.wire_stats`).
"""

from __future__ import annotations

import struct
from operator import attrgetter
from typing import Optional

from ..core.capabilities import Capability, CapabilitySet, CapType
from ..core.fastpath import counters
from ..core.labels import Label, LabelPair
from ..core.tags import Tag
from .kernel import Cqe, Sqe

#: Frame header: one big-endian u32 payload length.
HEADER = struct.Struct(">I")
_F64 = struct.Struct(">d")

#: Ceiling on a single frame's payload (a corrupt header must not make a
#: receiver try to allocate gigabytes).
MAX_FRAME_PAYLOAD = 1 << 28

#: Small ``bytes`` at or under this size are value-dictionary candidates
#: (a repeated write payload becomes a 2-byte reference).
DICT_BYTES_MAX = 64

#: Entry cap.  Past the cap the encoder stops defining and falls back to
#: inline encoding; decode stays correct either way.
VALUE_DICT_CAP = 1 << 16

# Wire type tags (one byte).  32+ are the RPC message classes.
T_NONE = 0
T_TRUE = 1
T_FALSE = 2
T_INT = 3
T_FLOAT = 4
T_BYTES = 5
T_STR = 6
T_TUPLE = 7
T_LIST = 8
T_DICT = 9
T_REF = 10
T_DEF = 11
T_LABELPAIR = 12
T_LABEL = 16
T_SQE = 17
T_CQE = 18
T_CAPSET = 19
T_WAVE = 21
T_RWAVE = 22
T_MESSAGE_BASE = 32

_OSA = object.__setattr__
# C-level column extractors for the batch-dictionary keys.
_AG_OP = attrgetter("op")
_AG_ARGS = attrgetter("args")
_AG_RESULT = attrgetter("result")
_AG_ERRNO = attrgetter("errno")


class WireError(ValueError):
    """A value outside the closed wire schema, refused at encode, or a
    malformed frame, refused at decode."""


def _off_schema(obj) -> WireError:
    return WireError(f"{obj!r:.80} is outside the wire schema")


def _w_uvarint(buf: bytearray, n: int) -> None:
    """Append an unsigned LEB128 varint to the frame buffer."""
    while n > 0x7F:
        buf.append((n & 0x7F) | 0x80)
        n >>= 7
    buf.append(n)


def _r_uvarint(buf, pos: int) -> tuple[int, int]:
    b = buf[pos]
    pos += 1
    if b < 0x80:
        return b, pos
    result = b & 0x7F
    shift = 7
    while True:
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if b < 0x80:
            return result, pos
        shift += 7


def _r_count(buf, pos: int) -> tuple[int, int]:
    """A decoded element count or byte length.  Every element takes at
    least one byte, so a count past the bytes left in the frame is
    refused before anything is allocated for it."""
    n, pos = _r_uvarint(buf, pos)
    if n > len(buf) - pos:
        raise WireError(f"count {n} exceeds the {len(buf) - pos} bytes left")
    return n, pos


# ------------------------------------------------------- message registry

#: RPC message classes in wire-tag order: class -> (tag, field names).
#: Filled on the first codec construction, since the rpc and psched
#: modules import this one.
_MESSAGES: dict = {}

#: Message fields that must be non-negative ints wherever they appear
#: (the wave encodings carry them as unsigned varints).
_UNSIGNED_FIELDS = frozenset({"seq", "shard_id", "deferred"})


def _message_registry() -> dict:
    if not _MESSAGES:
        import dataclasses

        from . import psched, rpc

        classes = (
            rpc.ShardRequest,
            rpc.ShardResponse,
            rpc.TagSync,
            rpc.CapSync,
            rpc.SyncAck,
            rpc.Shutdown,
            rpc.ShardReport,
            rpc.WorkerReport,
            psched.GroupResult,
            rpc.WorkerFailed,
        )
        for offset, cls in enumerate(classes):
            names = tuple(f.name for f in dataclasses.fields(cls))
            _MESSAGES[cls] = (T_MESSAGE_BASE + offset, names)
    return _MESSAGES


# ------------------------------------------------------------ binary wire


class BinaryWireCodec:
    """One endpoint of a binary-wire connection: a stateful encoder
    (the value dictionary keyed by content) paired with a stateful
    decoder (the same dictionary keyed by id, populated from in-band
    ``DEF`` frames).  One instance serves both directions of one
    connection; the two directions' id spaces are independent because
    each direction is (this encoder → peer decoder).

    The encoder streams into one ``bytearray`` per frame
    (``self._buf``), header included.  Not reentrant — one codec per
    connection, used from one thread, exactly like the socket it fronts.
    """

    name = "binary"

    def __init__(self) -> None:
        # Encoder state: content -> id.  Key spaces are disjoint by
        # construction (str, bytes, Label, LabelPair, and tuples for
        # Sqe/Cqe entries and batches).
        self._evals: dict = {}
        # Decoder state: id -> decoded object.
        self._dvals: dict[int, object] = {}
        #: This encoder's label pairs sent as references and in full
        #: (the process-wide totals are ``counters.label_dict_hits``/
        #: ``_misses``).
        self.label_dict_hits = 0
        self.label_dict_misses = 0
        self._buf: Optional[bytearray] = None
        self._enc = {
            type(None): self._enc_none,
            bool: self._enc_bool,
            int: self._enc_int,
            float: self._enc_float,
            str: self._enc_str,
            bytes: self._enc_bytes,
            bytearray: self._enc_buffer,
            memoryview: self._enc_buffer,
            tuple: self._enc_tuple,
            list: self._enc_list,
            dict: self._enc_dict,
            Sqe: self._enc_sqe,
            Cqe: self._enc_cqe,
            Label: self._enc_label,
            LabelPair: self._enc_labelpair,
            CapabilitySet: self._enc_capset,
        }
        # Indexed by the tag byte itself, so every byte value has a slot.
        dec: list = [None] * 256
        dec[T_NONE] = self._dec_none
        dec[T_TRUE] = self._dec_true
        dec[T_FALSE] = self._dec_false
        dec[T_INT] = self._dec_int
        dec[T_FLOAT] = self._dec_float
        dec[T_BYTES] = self._dec_bytes
        dec[T_STR] = self._dec_str
        dec[T_TUPLE] = self._dec_tuple
        dec[T_LIST] = self._dec_list
        dec[T_DICT] = self._dec_dict
        dec[T_REF] = self._dec_ref
        dec[T_DEF] = self._dec_def
        dec[T_LABELPAIR] = self._dec_labelpair
        dec[T_LABEL] = self._dec_label
        dec[T_SQE] = self._dec_sqe
        dec[T_CQE] = self._dec_cqe
        dec[T_CAPSET] = self._dec_capset
        dec[T_WAVE] = self._dec_wave
        dec[T_RWAVE] = self._dec_rwave
        # The message classes live in modules that import this one, so
        # the registry is installed here, when a codec is built.
        from .rpc import ShardRequest, ShardResponse

        for cls, (tag, names) in _message_registry().items():
            self._enc[cls] = self._message_encoder(tag, names)
            dec[tag] = self._message_decoder(cls, names)
        self._dec = dec
        self._req_cls = ShardRequest
        self._resp_cls = ShardResponse

    # -- framing --------------------------------------------------------

    def encode(self, message: object) -> bytes:
        """Encode one frame: the header is reserved up front and filled
        in once the payload length is known.  A refused frame rolls the
        encoder back (:meth:`rollback`): the peer never decodes it, so
        the definitions it made must not be referenced later."""
        mark = len(self._evals)
        buf = self._buf = bytearray(HEADER.size)
        try:
            self._enc_value(message)
            length = len(buf) - HEADER.size
            if length > MAX_FRAME_PAYLOAD:
                raise WireError(f"frame payload of {length} bytes exceeds cap")
        except BaseException:
            self.rollback(mark)
            raise
        finally:
            self._buf = None
        HEADER.pack_into(buf, 0, length)
        counters.frames += 1
        counters.bytes_on_wire += length
        return bytes(buf)

    def checkpoint(self) -> int:
        """The encoder state to :meth:`rollback` to if the frames encoded
        from now on are never sent."""
        return len(self._evals)

    def rollback(self, mark: int) -> None:
        """Forget what the encoder defined since ``mark`` (a
        :meth:`checkpoint`): value ids from ``mark`` on are dropped, so
        each of those values is defined again on its next use."""
        evals = self._evals
        while len(evals) > mark:
            evals.popitem()  # ids are assigned in insertion order

    def decode(self, buf: bytes) -> tuple[object, bytes]:
        """Decode one frame; returns ``(message, remainder)`` so callers
        can consume a concatenated stream frame by frame.  Frames MUST be
        decoded in the order the peer encoded them — dictionary
        definitions are in-band.  A malformed frame raises
        :class:`WireError`, whatever part of it is malformed."""
        if len(buf) < HEADER.size:
            raise WireError("short frame: missing header")
        (length,) = HEADER.unpack_from(buf)
        if length > MAX_FRAME_PAYLOAD:
            raise WireError(f"frame claims {length} payload bytes, over cap")
        end = HEADER.size + length
        if len(buf) < end:
            raise WireError(f"truncated frame: want {length} payload bytes")
        # Decoders read up to len(frame): nothing past this frame's end.
        frame = buf if len(buf) == end else buf[:end]
        try:
            message, pos = self._dec_value(frame, HEADER.size)
        except WireError:
            raise
        except (
            IndexError,  # a value runs past the frame's end
            KeyError,  # a reference to an id never defined
            ValueError,  # bad UTF-8, among others
            TypeError,  # an unhashable decoded dict key
            struct.error,
            RecursionError,
        ) as exc:
            raise WireError(f"malformed frame: {exc!r:.80}") from exc
        if pos != end:
            raise WireError(
                f"frame length mismatch: consumed {pos - HEADER.size} "
                f"of {length} payload bytes"
            )
        return message, buf[end:]

    def stats(self) -> dict:
        return {
            "wire": self.name,
            "value_dict_entries": len(self._evals),
            "decoded_value_entries": len(self._dvals),
            "label_dict_hits": self.label_dict_hits,
            "label_dict_misses": self.label_dict_misses,
        }

    # -- messages -------------------------------------------------------

    def _message_encoder(self, tag: int, names: tuple):
        """The one encoding of a registered message class: its tag, then
        every field in declaration order."""
        enc_value = self._enc_value
        unsigned = tuple(name in _UNSIGNED_FIELDS for name in names)

        def enc_msg(msg) -> None:
            self._buf.append(tag)
            for name, check in zip(names, unsigned):
                value = getattr(msg, name)
                if check and not (type(value) is int and value >= 0):
                    raise _off_schema(msg)
                enc_value(value)

        return enc_msg

    def _message_decoder(self, cls, names: tuple):
        """Slot-direct decoder for a frozen message dataclass: the wire
        carries every field positionally and peers are trusted, so skip
        the generated ``__init__`` (and its frozen-guard indirection)."""
        new = cls.__new__
        dec_value = self._dec_value

        def dec_msg(buf, pos: int):
            msg = new(cls)
            for name in names:
                value, pos = dec_value(buf, pos)
                _OSA(msg, name, value)
            return msg, pos

        return dec_msg

    # -- encoder --------------------------------------------------------

    def _enc_value(self, obj: object) -> None:
        fn = self._enc.get(type(obj))
        if fn is None:
            raise _off_schema(obj)
        fn(obj)

    def _enc_none(self, obj) -> None:
        self._buf.append(T_NONE)

    def _enc_bool(self, obj) -> None:
        self._buf.append(T_TRUE if obj else T_FALSE)

    def _enc_int(self, n: int) -> None:
        buf = self._buf
        buf.append(T_INT)
        _w_uvarint(buf, (n << 1) if n >= 0 else ((-n << 1) - 1))

    def _enc_float(self, x: float) -> None:
        buf = self._buf
        buf.append(T_FLOAT)
        buf += _F64.pack(x)

    def _define(self, key) -> bool:
        """Try to assign ``key`` the next value-dictionary id and emit the
        ``DEF id`` prefix; returns False when the dictionary is full (the
        caller then encodes inline, undicted)."""
        evals = self._evals
        if len(evals) >= VALUE_DICT_CAP:
            return False
        eid = len(evals)
        evals[key] = eid
        buf = self._buf
        buf.append(T_DEF)
        _w_uvarint(buf, eid)
        return True

    def _enc_str(self, s: str) -> None:
        buf = self._buf
        eid = self._evals.get(s)
        if eid is not None:
            buf.append(T_REF)
            _w_uvarint(buf, eid)
            return
        self._define(s)
        data = s.encode("utf-8")
        buf.append(T_STR)
        _w_uvarint(buf, len(data))
        buf += data

    def _enc_bytes(self, b: bytes) -> None:
        buf = self._buf
        n = len(b)
        if n <= DICT_BYTES_MAX:
            eid = self._evals.get(b)
            if eid is not None:
                buf.append(T_REF)
                _w_uvarint(buf, eid)
                return
            self._define(b)
        buf.append(T_BYTES)
        _w_uvarint(buf, n)
        buf += b

    def _enc_buffer(self, b) -> None:
        # bytearray (mutable, unhashable) and memoryview: copied inline,
        # never dictionaried.
        if type(b) is memoryview and b.format != "B":
            b = b.cast("B")
        buf = self._buf
        buf.append(T_BYTES)
        _w_uvarint(buf, len(b))
        buf += b

    def _enc_tuple(self, t: tuple) -> None:
        buf = self._buf
        # Batch-level dictionary: a request's ``sqes`` (and a response's
        # ``cqes``) recur as whole tuples under a steady-state workload,
        # so intern the tuple itself — one REF replaces the entire batch
        # and the decoder returns one cached object.  Tuples of Sqe/Cqe
        # need an explicit content key (both hash by identity).
        if t:
            first = type(t[0])
            if first is Sqe or first is Cqe:
                try:
                    # Column-wise keys: no per-element tuple builds, and
                    # the shapes (2-tuple for Sqe batches, 3-tuple for
                    # Cqe) cannot collide with each other or with the
                    # ("S"/"C", ...) single-entry keys below.
                    if first is Sqe:
                        key = (
                            tuple(map(_AG_OP, t)),
                            tuple(map(_AG_ARGS, t)),
                        )
                    else:
                        key = (
                            tuple(map(_AG_OP, t)),
                            tuple(map(_AG_RESULT, t)),
                            tuple(map(_AG_ERRNO, t)),
                        )
                    eid = self._evals.get(key)
                except (TypeError, AttributeError):
                    key = eid = None  # mixed batch or unhashable fields
                if eid is not None:
                    buf.append(T_REF)
                    if eid < 0x80:
                        buf.append(eid)
                    else:
                        _w_uvarint(buf, eid)
                    return
                if key is not None:
                    self._define(key)
        buf.append(T_TUPLE)
        _w_uvarint(buf, len(t))
        enc_value = self._enc_value
        for item in t:
            enc_value(item)

    def _enc_list(self, items: list) -> None:
        # The two wave shapes the executors ship — [(shard_id,
        # ShardRequest), ...] and [ShardResponse, ...] — get vectorized
        # encodings: one type tag for the whole wave and an inlined
        # per-item loop instead of per-item dynamic dispatch.  Items that
        # don't fit the shape escape to the generic encoder via a
        # per-item flag byte, so the fast path never needs a pre-scan.
        if items:
            first = items[0]
            tf = type(first)
            if (
                tf is tuple
                and len(first) == 2
                and type(first[1]) is self._req_cls
            ):
                self._enc_wave(items)
                return
            if tf is self._resp_cls:
                self._enc_rwave(items)
                return
        buf = self._buf
        buf.append(T_LIST)
        _w_uvarint(buf, len(items))
        enc_value = self._enc_value
        for item in items:
            enc_value(item)

    def _enc_wave(self, items: list) -> None:
        buf = self._buf
        buf.append(T_WAVE)
        _w_uvarint(buf, len(items))
        RQ = self._req_cls
        enc_str = self._enc_str
        enc_tuple = self._enc_tuple
        for p in items:
            if type(p) is tuple and len(p) == 2 and type(p[1]) is RQ:
                shard_id, req = p
                seq = req.seq
                principal = req.principal
                sqes = req.sqes
                if (
                    type(shard_id) is int
                    and 0 <= shard_id
                    and type(seq) is int
                    and 0 <= seq
                    and type(principal) is str
                    and type(sqes) is tuple
                ):
                    buf.append(1)
                    if shard_id < 0x80:
                        buf.append(shard_id)
                    else:
                        _w_uvarint(buf, shard_id)
                    if seq < 0x80:
                        buf.append(seq)
                    else:
                        _w_uvarint(buf, seq)
                    enc_str(principal)
                    enc_tuple(sqes)
                    continue
            buf.append(0)
            self._enc_value(p)

    def _dec_wave(self, buf, pos: int):
        n, pos = _r_count(buf, pos)
        items = [None] * n
        RQ = self._req_cls
        new = RQ.__new__
        dvals = self._dvals
        dec_value = self._dec_value
        for i in range(n):
            if not buf[pos]:
                items[i], pos = dec_value(buf, pos + 1)
                continue
            shard_id = buf[pos + 1]
            pos += 2
            if shard_id >= 0x80:
                shard_id, pos = _r_uvarint(buf, pos - 1)
            seq = buf[pos]
            if seq < 0x80:
                pos += 1
            else:
                seq, pos = _r_uvarint(buf, pos)
            tag = buf[pos]
            if tag == T_REF and buf[pos + 1] < 0x80:
                principal = dvals[buf[pos + 1]]
                pos += 2
            else:
                principal, pos = dec_value(buf, pos)
            tag = buf[pos]
            if tag == T_REF and buf[pos + 1] < 0x80:
                sqes = dvals[buf[pos + 1]]
                pos += 2
            else:
                sqes, pos = dec_value(buf, pos)
            req = new(RQ)
            _OSA(req, "seq", seq)
            _OSA(req, "principal", principal)
            _OSA(req, "sqes", sqes)
            items[i] = (shard_id, req)
        return items, pos

    def _enc_rwave(self, items: list) -> None:
        buf = self._buf
        buf.append(T_RWAVE)
        _w_uvarint(buf, len(items))
        RS = self._resp_cls
        enc_tuple = self._enc_tuple
        enc_value = self._enc_value
        for resp in items:
            if type(resp) is RS:
                seq = resp.seq
                shard_id = resp.shard_id
                cqes = resp.cqes
                deferred = resp.deferred
                if (
                    type(seq) is int
                    and 0 <= seq
                    and type(shard_id) is int
                    and 0 <= shard_id
                    and type(cqes) is tuple
                    and type(deferred) is int
                    and 0 <= deferred
                ):
                    buf.append(1)
                    if seq < 0x80:
                        buf.append(seq)
                    else:
                        _w_uvarint(buf, seq)
                    if shard_id < 0x80:
                        buf.append(shard_id)
                    else:
                        _w_uvarint(buf, shard_id)
                    enc_tuple(cqes)
                    audit = resp.audit
                    if type(audit) is tuple and not audit:
                        buf.append(T_TUPLE)
                        buf.append(0)
                    else:
                        enc_value(audit)
                    traffic = resp.traffic
                    if type(traffic) is tuple and not traffic:
                        buf.append(T_TUPLE)
                        buf.append(0)
                    else:
                        enc_value(traffic)
                    if deferred < 0x80:
                        buf.append(deferred)
                    else:
                        _w_uvarint(buf, deferred)
                    continue
            buf.append(0)
            self._enc_value(resp)

    def _dec_rwave(self, buf, pos: int):
        n, pos = _r_count(buf, pos)
        items = [None] * n
        RS = self._resp_cls
        new = RS.__new__
        dvals = self._dvals
        dec_value = self._dec_value
        for i in range(n):
            if not buf[pos]:
                items[i], pos = dec_value(buf, pos + 1)
                continue
            seq = buf[pos + 1]
            pos += 2
            if seq >= 0x80:
                seq, pos = _r_uvarint(buf, pos - 1)
            shard_id = buf[pos]
            if shard_id < 0x80:
                pos += 1
            else:
                shard_id, pos = _r_uvarint(buf, pos)
            tag = buf[pos]
            if tag == T_REF and buf[pos + 1] < 0x80:
                cqes = dvals[buf[pos + 1]]
                pos += 2
            else:
                cqes, pos = dec_value(buf, pos)
            if buf[pos] == T_TUPLE and not buf[pos + 1]:
                audit = ()
                pos += 2
            else:
                audit, pos = dec_value(buf, pos)
            if buf[pos] == T_TUPLE and not buf[pos + 1]:
                traffic = ()
                pos += 2
            else:
                traffic, pos = dec_value(buf, pos)
            deferred = buf[pos]
            if deferred < 0x80:
                pos += 1
            else:
                deferred, pos = _r_uvarint(buf, pos)
            resp = new(RS)
            _OSA(resp, "seq", seq)
            _OSA(resp, "shard_id", shard_id)
            _OSA(resp, "cqes", cqes)
            _OSA(resp, "audit", audit)
            _OSA(resp, "traffic", traffic)
            _OSA(resp, "deferred", deferred)
            items[i] = resp
        return items, pos

    def _enc_dict(self, d: dict) -> None:
        buf = self._buf
        buf.append(T_DICT)
        _w_uvarint(buf, len(d))
        enc_value = self._enc_value
        for key, value in d.items():
            enc_value(key)
            enc_value(value)

    def _enc_sqe(self, sqe: Sqe) -> None:
        # Sqe hashes by identity, so the dictionary key is the value
        # tuple; unhashable args (mutable payloads) simply skip the
        # dictionary.
        buf = self._buf
        try:
            key = ("S", sqe.op) + sqe.args
            eid = self._evals.get(key)
        except TypeError:
            key = eid = None
        if eid is not None:
            buf.append(T_REF)
            _w_uvarint(buf, eid)
            return
        if key is not None:
            self._define(key)
        buf.append(T_SQE)
        self._enc_str(sqe.op)
        args = sqe.args
        _w_uvarint(buf, len(args))
        enc_value = self._enc_value
        for arg in args:
            enc_value(arg)

    def _enc_cqe(self, cqe: Cqe) -> None:
        buf = self._buf
        try:
            key = ("C", cqe.op, cqe.result, cqe.errno)
            eid = self._evals.get(key)
        except TypeError:
            key = eid = None
        if eid is not None:
            buf.append(T_REF)
            _w_uvarint(buf, eid)
            return
        if key is not None:
            self._define(key)
        buf.append(T_CQE)
        self._enc_str(cqe.op)
        self._enc_value(cqe.result)
        _w_uvarint(buf, cqe.errno)

    def _raw_label(self, label: Label) -> None:
        buf = self._buf
        tags = label.tags()
        _w_uvarint(buf, len(tags))
        for tag in tags:
            _w_uvarint(buf, tag.value)
            data = tag.name.encode("utf-8")
            _w_uvarint(buf, len(data))
            buf += data

    def _enc_label(self, label: Label) -> None:
        buf = self._buf
        eid = self._evals.get(label)
        if eid is not None:
            buf.append(T_REF)
            _w_uvarint(buf, eid)
            return
        self._define(label)
        buf.append(T_LABEL)
        self._raw_label(label)

    def _enc_labelpair(self, pair: LabelPair) -> None:
        buf = self._buf
        eid = self._evals.get(pair)
        if eid is not None:
            counters.label_dict_hits += 1
            self.label_dict_hits += 1
            buf.append(T_REF)
            _w_uvarint(buf, eid)
            return
        counters.label_dict_misses += 1
        self.label_dict_misses += 1
        self._define(pair)
        buf.append(T_LABELPAIR)
        self._raw_label(pair.secrecy)
        self._raw_label(pair.integrity)

    def _enc_capset(self, caps: CapabilitySet) -> None:
        buf = self._buf
        buf.append(T_CAPSET)
        _w_uvarint(buf, len(caps))
        for cap in caps:  # iterates in canonical sort_key order
            _w_uvarint(buf, cap.tag.value)
            data = cap.tag.name.encode("utf-8")
            _w_uvarint(buf, len(data))
            buf += data
            buf.append(43 if cap.kind is CapType.PLUS else 45)  # '+' / '-'

    # -- decoder --------------------------------------------------------

    def _dec_value(self, buf, pos: int) -> tuple[object, int]:
        tag = buf[pos]
        fn = self._dec[tag]
        if fn is None:
            raise WireError(f"unknown wire tag {tag}")
        return fn(buf, pos + 1)

    def _dec_none(self, buf, pos: int):
        return None, pos

    def _dec_true(self, buf, pos: int):
        return True, pos

    def _dec_false(self, buf, pos: int):
        return False, pos

    def _dec_int(self, buf, pos: int):
        u, pos = _r_uvarint(buf, pos)
        return (u >> 1) if not (u & 1) else -((u + 1) >> 1), pos

    def _dec_float(self, buf, pos: int):
        (x,) = _F64.unpack_from(buf, pos)
        return x, pos + 8

    def _dec_bytes(self, buf, pos: int):
        n, pos = _r_count(buf, pos)
        end = pos + n
        return bytes(buf[pos:end]), end

    def _dec_str(self, buf, pos: int):
        n, pos = _r_count(buf, pos)
        end = pos + n
        return str(buf[pos:end], "utf-8"), end

    def _dec_tuple(self, buf, pos: int):
        n, pos = _r_count(buf, pos)
        if n == 0:
            return (), pos
        items = [None] * n
        dec_value = self._dec_value
        for i in range(n):
            items[i], pos = dec_value(buf, pos)
        return tuple(items), pos

    def _dec_list(self, buf, pos: int):
        n, pos = _r_count(buf, pos)
        items = [None] * n
        dec_value = self._dec_value
        for i in range(n):
            items[i], pos = dec_value(buf, pos)
        return items, pos

    def _dec_dict(self, buf, pos: int):
        n, pos = _r_count(buf, pos)
        out: dict = {}
        dec_value = self._dec_value
        for _ in range(n):
            key, pos = dec_value(buf, pos)
            value, pos = dec_value(buf, pos)
            out[key] = value
        return out, pos

    def _dec_ref(self, buf, pos: int):
        eid = buf[pos]
        if eid < 0x80:
            return self._dvals[eid], pos + 1
        eid, pos = _r_uvarint(buf, pos)
        return self._dvals[eid], pos

    def _dec_def(self, buf, pos: int):
        eid, pos = _r_uvarint(buf, pos)
        obj, pos = self._dec_value(buf, pos)
        self._dvals[eid] = obj
        return obj, pos

    def _dec_labelpair(self, buf, pos: int):
        secrecy, pos = self._dec_label(buf, pos)
        integrity, pos = self._dec_label(buf, pos)
        return LabelPair(secrecy, integrity), pos

    def _dec_label(self, buf, pos: int):
        n, pos = _r_count(buf, pos)
        entries = []
        for _ in range(n):
            value, pos = _r_uvarint(buf, pos)
            ln, pos = _r_count(buf, pos)
            end = pos + ln
            entries.append((value, str(buf[pos:end], "utf-8")))
            pos = end
        return Label.from_wire(entries), pos

    def _dec_sqe(self, buf, pos: int):
        op, pos = self._dec_value(buf, pos)
        n, pos = _r_count(buf, pos)
        args = [None] * n
        dec_value = self._dec_value
        for i in range(n):
            args[i], pos = dec_value(buf, pos)
        # Slot-direct construction: Sqe.__init__ only assigns, and the
        # wire is trusted peer output, so skip the call-protocol cost.
        sqe = Sqe.__new__(Sqe)
        sqe.op = op
        sqe.args = tuple(args)
        return sqe, pos

    def _dec_cqe(self, buf, pos: int):
        op, pos = self._dec_value(buf, pos)
        result, pos = self._dec_value(buf, pos)
        errno, pos = _r_uvarint(buf, pos)
        cqe = Cqe.__new__(Cqe)
        cqe.op = op
        cqe.result = result
        cqe.errno = errno
        return cqe, pos

    def _dec_capset(self, buf, pos: int):
        n, pos = _r_count(buf, pos)
        caps = []
        for _ in range(n):
            value, pos = _r_uvarint(buf, pos)
            ln, pos = _r_count(buf, pos)
            end = pos + ln
            name = str(buf[pos:end], "utf-8")
            kind = CapType.PLUS if buf[end] == 43 else CapType.MINUS
            caps.append(Capability(Tag(value, name), kind))
            pos = end + 1
        return CapabilitySet(caps), pos
