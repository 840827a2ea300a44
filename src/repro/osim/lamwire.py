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
:class:`WireError` at decode.  The two hot messages
(:class:`~repro.osim.rpc.ShardRequest`,
:class:`~repro.osim.rpc.ShardResponse`) have dedicated fixed-layout
encoders and slot-direct decoders.

**Per-connection dictionaries.**  Both endpoints of a connection keep a
pair of synchronized dictionaries, populated in-band:

* a *value dictionary* — strings, small byte payloads, whole
  :class:`~repro.osim.kernel.Sqe`/:class:`~repro.osim.kernel.Cqe`
  entries (and whole uniform *batches* of them: a request's ``sqes``
  tuple is one entry), and bare :class:`~repro.core.labels.Label`
  objects are defined once (``DEF id value``) and thereafter referenced
  by a varint id (``REF id``).  A steady-state Zipfian workload repeats
  a small set of operations, so whole request bodies collapse to ~2-byte
  references and the decoder returns the *same cached object* — zero
  construction, zero re-interning.
* a *label dictionary* — each (secrecy, integrity)
  :class:`~repro.core.labels.LabelPair` is transmitted once and then
  referenced by a 16-bit id, **guarded by the tag-allocator epoch**:
  the codec registers an epoch listener on every bound
  :class:`~repro.core.tags.TagAllocator`, and any allocation or applied
  snapshot invalidates the encoder's entries, forcing the next use of
  each pair to re-send its full definition (`LPDEF`).  Definitions are
  self-contained, so the guard is pure conservatism — a decoder is
  always correct — but it means no id is ever dereferenced across a
  change of the tag namespace it was defined under.

Dictionaries are strictly per-connection, per-direction state: the
``DEF`` frames that populate the decoder travel in the same FIFO stream
as the ``REF`` frames that use them, so in-order delivery (guaranteed by
the ``multiprocessing`` pipes underneath) is the only synchronization.
They are deliberately *not* registered with
:func:`repro.core.fastpath.register_cache`: clearing one endpoint of a
connection mid-stream would desynchronize the pair.  (Encoder-side
resets alone are harmless — definitions carry explicit ids — which is
also why the epoch guard can invalidate unilaterally.)

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

#: Entry caps.  Past the cap the encoder stops defining and falls back to
#: inline encoding; decode stays correct either way.
VALUE_DICT_CAP = 1 << 16
LABEL_DICT_CAP = 1 << 16

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
T_LPREF = 13
T_LPDEF = 14
T_LPRAW = 15
T_LABEL = 16
T_SQE = 17
T_CQE = 18
T_CAPSET = 19
T_WAVE = 21
T_RWAVE = 22
T_MESSAGE_BASE = 32
_DEC_TABLE_SIZE = 48

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

#: RPC message classes in wire-tag order.  Built lazily (the rpc and
#: psched modules import this one): class -> (tag, field names) for the
#: generic encode path, tag -> (builder, field names) for decode.
_MSG_BY_TYPE: Optional[dict] = None
_MSG_BY_TAG: Optional[dict] = None


def _message_registry() -> tuple[dict, dict]:
    global _MSG_BY_TYPE, _MSG_BY_TAG
    if _MSG_BY_TYPE is None:
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
        by_type: dict = {}
        by_tag: dict = {}
        for offset, cls in enumerate(classes):
            names = tuple(f.name for f in dataclasses.fields(cls))
            by_type[cls] = (T_MESSAGE_BASE + offset, names)
            by_tag[T_MESSAGE_BASE + offset] = (_make_builder(cls, names), names)
        _MSG_BY_TYPE, _MSG_BY_TAG = by_type, by_tag
    return _MSG_BY_TYPE, _MSG_BY_TAG


def _make_builder(cls, names):
    """Slot-direct constructor for a frozen message dataclass: the wire
    carries every field positionally and peers are trusted, so skip the
    generated ``__init__`` (and its frozen-guard indirection) entirely."""
    new = cls.__new__

    def build(values):
        obj = new(cls)
        for name, value in zip(names, values):
            _OSA(obj, name, value)
        return obj

    return build


# ------------------------------------------------------------ binary wire


class BinaryWireCodec:
    """One endpoint of a binary-wire connection: a stateful encoder
    (value + label dictionaries keyed by content) paired with a stateful
    decoder (the same dictionaries keyed by id, populated from in-band
    ``DEF``/``LPDEF`` frames).  One instance serves both directions of
    one connection; the two directions' id spaces are independent
    because each direction is (this encoder → peer decoder).

    The encoder streams into one ``bytearray`` per frame
    (``self._buf``), header included.  Not reentrant — one codec per
    connection, used from one thread, exactly like the socket it fronts.
    """

    name = "binary"

    def __init__(self) -> None:
        # Encoder state: content -> id.  Key spaces are disjoint by
        # construction (str, bytes, Label, and ("S"/"C", ...)-prefixed
        # tuples for Sqe/Cqe entries and batches).
        self._evals: dict = {}
        # Identity memo over dictionaried batch tuples: id(t) -> (eid, t).
        # A steady-state sender re-ships the *same* sqes/cqes tuple object
        # (retries, same-process round-trips, replayed waves); the memo
        # turns those into one dict probe instead of rebuilding and
        # rehashing the column-wise content key.  The strong reference in
        # the value pins the tuple, so its id cannot be recycled while
        # the entry lives; a content miss always falls through to the
        # key path, so the memo is purely an accelerator.
        self._etid: dict[int, tuple[int, tuple]] = {}
        self._elp: dict[LabelPair, tuple[int, int]] = {}
        self._next_lp = 0
        # Decoder state: id -> decoded object.
        self._dvals: dict[int, object] = {}
        self._dlp: dict[int, LabelPair] = {}
        #: Monotonic label-dictionary epoch: bumped by every bound
        #: allocator's epoch change (and manually via
        #: :meth:`bump_label_epoch`).  Encoder entries remember the epoch
        #: they were defined under; a mismatch forces re-definition.
        self.label_epoch = 0
        #: This encoder's label-dictionary traffic (the process-wide
        #: totals are ``counters.label_dict_hits``/``_misses``).
        self.label_dict_hits = 0
        self.label_dict_misses = 0
        self._bound: list = []
        self._buf: Optional[bytearray] = None
        self._msg_by_type: Optional[dict] = None
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
        dec: list = [None] * _DEC_TABLE_SIZE
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
        dec[T_LPREF] = self._dec_lpref
        dec[T_LPDEF] = self._dec_lpdef
        dec[T_LPRAW] = self._dec_lpraw
        dec[T_LABEL] = self._dec_label
        dec[T_SQE] = self._dec_sqe
        dec[T_CQE] = self._dec_cqe
        dec[T_CAPSET] = self._dec_capset
        dec[T_WAVE] = self._dec_wave
        dec[T_RWAVE] = self._dec_rwave
        self._dec = dec
        self._req_cls = self._resp_cls = None

    # -- epoch guard ----------------------------------------------------

    def bind_allocator(self, allocator) -> None:
        """Guard the label dictionary with ``allocator``'s epoch: any
        local allocation or applied snapshot invalidates every encoder
        entry (next use re-sends its definition)."""
        allocator.add_epoch_listener(self._on_allocator_epoch)
        self._bound.append(allocator)

    def _on_allocator_epoch(self, epoch: int) -> None:
        self.label_epoch += 1

    def bump_label_epoch(self) -> None:
        """Manual invalidation for endpoints without a local allocator to
        bind (the cluster driver bumps on every ``sync_tags``)."""
        self.label_epoch += 1

    # -- framing --------------------------------------------------------

    def encode(self, message: object) -> bytes:
        """Encode one frame: the header is reserved up front and filled
        in once the payload length is known."""
        buf = self._buf = bytearray(HEADER.size)
        self._enc_value(message)
        self._buf = None
        length = len(buf) - HEADER.size
        if length > MAX_FRAME_PAYLOAD:
            raise WireError(f"frame payload of {length} bytes exceeds cap")
        HEADER.pack_into(buf, 0, length)
        counters.frames += 1
        counters.bytes_on_wire += length
        return bytes(buf)

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
            "label_dict_entries": len(self._elp),
            "label_dict_hits": self.label_dict_hits,
            "label_dict_misses": self.label_dict_misses,
            "label_epoch": self.label_epoch,
        }

    # -- hot-message specializations ------------------------------------

    def _install_messages(self) -> None:
        """First encounter with an RPC message: load the registry and
        install the generic per-class decoders plus the dedicated
        fixed-layout paths for the two data-plane messages."""
        from . import rpc

        by_type, by_tag = _message_registry()
        self._msg_by_type = by_type
        for tag, (build, names) in by_tag.items():
            self._dec[tag] = self._make_msg_decoder(build, names)
        req_tag, _ = by_type[rpc.ShardRequest]
        resp_tag, _ = by_type[rpc.ShardResponse]
        self._req_tag = req_tag
        self._resp_tag = resp_tag
        self._req_cls = rpc.ShardRequest
        self._resp_cls = rpc.ShardResponse
        self._enc[rpc.ShardRequest] = self._enc_shardrequest
        self._enc[rpc.ShardResponse] = self._enc_shardresponse
        self._dec[req_tag] = self._dec_shardrequest
        self._dec[resp_tag] = self._dec_shardresponse

    def _make_msg_decoder(self, build, names):
        dec_value = self._dec_value

        def dec_msg(buf, pos):
            values = []
            for _ in names:
                value, pos = dec_value(buf, pos)
                values.append(value)
            return build(values), pos

        return dec_msg

    def _enc_shardrequest(self, req) -> None:
        seq = req.seq
        principal = req.principal
        sqes = req.sqes
        if not (
            type(seq) is int
            and 0 <= seq
            and type(principal) is str
            and type(sqes) is tuple
        ):
            raise _off_schema(req)
        buf = self._buf
        buf.append(self._req_tag)
        if seq < 0x80:
            buf.append(seq)
        else:
            _w_uvarint(buf, seq)
        self._enc_str(principal)
        self._enc_tuple(sqes)

    def _dec_shardrequest(self, buf, pos: int):
        seq = buf[pos]
        if seq < 0x80:
            pos += 1
        else:
            seq, pos = _r_uvarint(buf, pos)
        principal, pos = self._dec_value(buf, pos)
        sqes, pos = self._dec_value(buf, pos)
        req = self._req_cls.__new__(self._req_cls)
        _OSA(req, "seq", seq)
        _OSA(req, "principal", principal)
        _OSA(req, "sqes", sqes)
        return req, pos

    def _enc_shardresponse(self, resp) -> None:
        seq = resp.seq
        shard_id = resp.shard_id
        cqes = resp.cqes
        deferred = resp.deferred
        if not (
            type(seq) is int
            and 0 <= seq
            and type(shard_id) is int
            and 0 <= shard_id
            and type(cqes) is tuple
            and type(deferred) is int
            and 0 <= deferred
        ):
            raise _off_schema(resp)
        buf = self._buf
        buf.append(self._resp_tag)
        if seq < 0x80:
            buf.append(seq)
        else:
            _w_uvarint(buf, seq)
        _w_uvarint(buf, shard_id)
        self._enc_tuple(cqes)
        enc_value = self._enc_value
        enc_value(resp.audit)
        enc_value(resp.traffic)
        _w_uvarint(buf, deferred)

    def _dec_shardresponse(self, buf, pos: int):
        seq = buf[pos]
        if seq < 0x80:
            pos += 1
        else:
            seq, pos = _r_uvarint(buf, pos)
        shard_id, pos = _r_uvarint(buf, pos)
        dec_value = self._dec_value
        cqes, pos = dec_value(buf, pos)
        audit, pos = dec_value(buf, pos)
        traffic, pos = dec_value(buf, pos)
        deferred, pos = _r_uvarint(buf, pos)
        resp = self._resp_cls.__new__(self._resp_cls)
        _OSA(resp, "seq", seq)
        _OSA(resp, "shard_id", shard_id)
        _OSA(resp, "cqes", cqes)
        _OSA(resp, "audit", audit)
        _OSA(resp, "traffic", traffic)
        _OSA(resp, "deferred", deferred)
        return resp, pos

    # -- encoder --------------------------------------------------------

    def _enc_value(self, obj: object) -> None:
        fn = self._enc.get(type(obj))
        if fn is not None:
            fn(obj)
            return
        if self._msg_by_type is None:
            self._install_messages()
            fn = self._enc.get(type(obj))
            if fn is not None:
                fn(obj)
                return
        entry = self._msg_by_type.get(type(obj))
        if entry is not None:
            tag, names = entry
            self._buf.append(tag)
            enc_value = self._enc_value
            for name in names:
                enc_value(getattr(obj, name))
            return
        raise _off_schema(obj)

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
            entry = self._etid.get(id(t))
            if entry is not None and entry[1] is t:
                eid = entry[0]
                buf.append(T_REF)
                if eid < 0x80:
                    buf.append(eid)
                else:
                    _w_uvarint(buf, eid)
                return
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
                    if len(self._etid) < VALUE_DICT_CAP:
                        self._etid[id(t)] = (eid, t)
                    buf.append(T_REF)
                    if eid < 0x80:
                        buf.append(eid)
                    else:
                        _w_uvarint(buf, eid)
                    return
                if key is not None:
                    if (
                        self._define(key)
                        and len(self._etid) < VALUE_DICT_CAP
                    ):
                        self._etid[id(t)] = (self._evals[key], t)
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
        if items and self._msg_by_type is not None:
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
        if self._msg_by_type is None:
            self._install_messages()
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
        if self._msg_by_type is None:
            self._install_messages()
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
        entry = self._elp.get(pair)
        epoch = self.label_epoch
        if entry is not None and entry[1] == epoch:
            counters.label_dict_hits += 1
            self.label_dict_hits += 1
            pair_id = entry[0]
            buf.append(T_LPREF)
            buf.append(pair_id >> 8)
            buf.append(pair_id & 0xFF)
            return
        counters.label_dict_misses += 1
        self.label_dict_misses += 1
        if entry is not None:
            # Epoch-stale: re-send the definition under the entry's
            # existing id (the decoder overwrites in place).
            pair_id = entry[0]
        elif self._next_lp < LABEL_DICT_CAP:
            pair_id = self._next_lp
            self._next_lp += 1
        else:
            buf.append(T_LPRAW)
            self._raw_label(pair.secrecy)
            self._raw_label(pair.integrity)
            return
        self._elp[pair] = (pair_id, epoch)
        buf.append(T_LPDEF)
        buf.append(pair_id >> 8)
        buf.append(pair_id & 0xFF)
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
        try:
            fn = self._dec[tag]
        except IndexError:
            fn = None
        if fn is None:
            if (
                T_MESSAGE_BASE <= tag < _DEC_TABLE_SIZE
                and self._msg_by_type is None
            ):
                self._install_messages()
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

    def _dec_lpref(self, buf, pos: int):
        return self._dlp[(buf[pos] << 8) | buf[pos + 1]], pos + 2

    def _dec_lpdef(self, buf, pos: int):
        pair_id = (buf[pos] << 8) | buf[pos + 1]
        pair, pos = self._dec_lpraw(buf, pos + 2)
        self._dlp[pair_id] = pair
        return pair, pos

    def _dec_lpraw(self, buf, pos: int):
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
