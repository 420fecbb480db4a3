"""Multi-core encryption — the paper's closing observation made real.

§V-C: "To fully utilize the network links whose throughput is
significantly higher than the single thread encryption-decryption
throughput, one will almost have no choice but to parallelize
encryption using multiple threads, or accelerate it via GPU."

:class:`PipelinedCrypto` implements the thread-parallel variant for the
simulator: a large message is split into fixed-size chunks, each chunk
is encrypted independently (its own nonce — cryptographically this is
a sequence of AEAD messages, so security is preserved), and chunks are
processed round-robin across the cores currently idle on the rank's
node.  The virtual-time cost becomes

    ceil(nchunks / ncores) waves x per-chunk cost

instead of the serial sum, which is exactly the headroom the paper
predicts for end-host encryption.  The ablation benchmark sweeps chunk
size and core count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.crypto.aead import WIRE_OVERHEAD
from repro.crypto.errors import AuthenticationError
from repro.encmpi.replay import ReplayError
from repro.models.cpu import pipeline_waves
from repro.models.cryptolib import CryptoLibraryProfile
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, OpaquePayload
from repro.simmpi.request import Status


DEFAULT_CHUNK = 256 * 1024

#: Per-chunk framing header of the cryptmpi wire protocol:
#: ``u32 seq || u32 total_chunks || u32 chunk_index`` — authenticated
#: as AAD in ``bytework="real"`` so a forged sequence, chunk count, or
#: reordered index fails the tag check, exactly like a tampered
#: ciphertext.  ``seq`` is a per-sender message sequence number; chunks
#: past the first travel on the internal tag ``CHUNK_TAG_BASE + seq``
#: so interleaved multi-chunk messages on one (source, tag) channel
#: (e.g. a window of isends) can never cross-match.
HEADER_SIZE = 12

#: Internal tag space of sibling chunk frames — far above the
#: collective phase tags (which grow upward from MAX_USER_TAG).
CHUNK_TAG_BASE = 1 << 40


@dataclass(frozen=True)
class PipelinePlan:
    """The schedule for one pipelined operation."""

    size: int
    chunk_bytes: int
    cores: int
    nchunks: int
    waves: int
    serial_time: float
    parallel_time: float

    @property
    def speedup(self) -> float:
        if self.parallel_time == 0:
            return 1.0
        return self.serial_time / self.parallel_time


def plan_pipeline(
    profile: CryptoLibraryProfile,
    size: int,
    cores: int,
    chunk_bytes: int = DEFAULT_CHUNK,
) -> PipelinePlan:
    """Compute the chunked-parallel schedule for encrypting *size* bytes."""
    if size < 0:
        raise ValueError(f"negative size {size}")
    if cores < 1:
        raise ValueError(f"cores must be >= 1, got {cores}")
    if chunk_bytes < 1:
        raise ValueError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
    serial = profile.encrypt_time(size)
    if size <= chunk_bytes or cores == 1:
        return PipelinePlan(size, chunk_bytes, cores, 1, 1, serial, serial)
    nchunks = math.ceil(size / chunk_bytes)
    waves = pipeline_waves(nchunks, cores)
    # Every chunk pays the per-call framing overhead; the last chunk may
    # be short but scheduling is dominated by the full chunks.
    per_chunk = profile.encrypt_time(min(chunk_bytes, size))
    parallel = waves * per_chunk
    return PipelinePlan(size, chunk_bytes, cores, nchunks, waves, serial, parallel)


class PipelinedCrypto:
    """Charges pipelined (multi-core) crypto time for an EncryptedComm.

    Usage: wrap an :class:`EncryptedComm`'s context before a large
    transfer.  ``encrypt_time``/``decrypt_time`` report what the rank
    should be charged given the idle cores on its node *right now*.
    """

    def __init__(self, enc_comm, chunk_bytes: int = DEFAULT_CHUNK):
        self.enc = enc_comm
        self.chunk_bytes = chunk_bytes

    def _cores_available(self) -> int:
        # The rank's own core plus whatever is idle on the node.
        return 1 + self.enc.ctx.extra_cores().idle

    def charge_encrypt(self, size: int) -> PipelinePlan:
        plan = plan_pipeline(
            self.enc.profile, size, self._cores_available(), self.chunk_bytes
        )
        self.enc.ctx.compute(plan.parallel_time)
        self._emit_aead("seal", size, plan)
        return plan

    def charge_decrypt(self, size: int) -> PipelinePlan:
        plan = plan_pipeline(
            self.enc.profile, size, self._cores_available(), self.chunk_bytes
        )
        self.enc.ctx.compute(plan.parallel_time)
        self._emit_aead("open", size, plan)
        return plan

    def _emit_aead(self, kind: str, size: int, plan: PipelinePlan) -> None:
        rec = self.enc.ctx.recorder
        if rec is None:
            return
        rank = self.enc.rank
        rec.emit("aead", kind, rank, backend=self.enc._aead.name,
                 bytes=size, dur=plan.parallel_time, cores=plan.cores,
                 chunks=plan.nchunks)
        counters = rec.rank_counters(rank)
        if kind == "seal":
            counters.aead_seals += 1
            counters.bytes_sealed += size
        else:
            counters.aead_opens += 1
            counters.bytes_opened += size

    def _consume_nonce(self) -> bytes:
        nonce = self.enc._nonces.next()
        rec = self.enc.ctx.recorder
        if rec is not None:
            rec.rank_counters(self.enc.rank).nonces_consumed += 1
        return nonce

    def send(self, data: bytes, dest: int, tag: int = 0) -> PipelinePlan:
        """Pipelined variant of EncryptedComm.send for bulk payloads."""
        data = bytes(data)
        plan = self.charge_encrypt(len(data))
        wire = self._frame(data)
        self.enc.ctx.comm.send(
            wire, dest, tag, wire_bytes=self.enc._wire_bytes(len(data))
        )
        return plan

    def recv(self, source: int, tag: int = 0) -> tuple[bytes, PipelinePlan]:
        wire, _status = self.enc.ctx.comm.recv(source, tag)
        plan = self.charge_decrypt(max(0, len(wire) - 28))
        return self._unframe(wire), plan

    # -- chunked framing (nonce per chunk) -------------------------------

    def _frame(self, data: bytes):
        if self.enc.config.crypto.bytework != "real":
            from repro.simmpi.message import OpaquePayload

            return OpaquePayload(self._consume_nonce(), data, bytes(16))
        parts = []
        for off in range(0, max(len(data), 1), self.chunk_bytes):
            chunk = data[off : off + self.chunk_bytes]
            nonce = self._consume_nonce()
            parts.append(len(chunk).to_bytes(4, "big"))
            parts.append(nonce + self.enc._aead.seal(nonce, chunk))
        return b"".join(parts)

    def _unframe(self, wire) -> bytes:
        if self.enc.config.crypto.bytework != "real":
            from repro.simmpi.message import OpaquePayload

            if isinstance(wire, OpaquePayload):
                return wire.base
            return wire[12:-16]
        out = []
        offset = 0
        while offset < len(wire):
            n = int.from_bytes(wire[offset : offset + 4], "big")
            offset += 4
            nonce = wire[offset : offset + 12]
            body = wire[offset + 12 : offset + 12 + n + 16]
            out.append(self.enc._aead.open(nonce, body))
            offset += 12 + n + 16
        return b"".join(out)


# ----------------------------------------------------------------------
# CryptMPI mode: chunked sends scheduled on the node's helper cores
# ----------------------------------------------------------------------


def _chunk_header(seq: int, total: int, index: int) -> bytes:
    return (
        (seq & 0xFFFFFFFF).to_bytes(4, "big")
        + total.to_bytes(4, "big")
        + index.to_bytes(4, "big")
    )


def _parse_chunk_header(wire) -> tuple[int, int, int]:
    """``(seq, total_chunks, chunk_index)`` of one chunk frame."""
    hdr = wire.prefix[:HEADER_SIZE] if isinstance(wire, OpaquePayload) \
        else bytes(wire[:HEADER_SIZE])
    if len(hdr) < HEADER_SIZE:
        raise AuthenticationError("chunk frame shorter than its header")
    return (
        int.from_bytes(hdr[:4], "big"),
        int.from_bytes(hdr[4:8], "big"),
        int.from_bytes(hdr[8:], "big"),
    )


class ChunkedSendRequest:
    """Composite handle over one chunk-framed logical send."""

    kind = "send"
    status = None

    def __init__(self, inners):
        self._inners = inners

    @property
    def completed(self) -> bool:
        return all(r.completed for r in self._inners)

    def wait(self) -> None:
        for r in self._inners:
            r.wait()
        return None


class ChunkedRecvRequest:
    """Composite handle over one chunk-framed logical receive.

    Only the first chunk's receive is posted up front — the frame's
    header tells the receiver how many siblings to expect, so the
    remaining receives (and the helper-core decrypt jobs) are posted
    inside ``wait``, preserving the non-blocking property of
    Encrypted_IRecv just like the serial path.
    """

    kind = "recv"

    def __init__(self, pipe: "ChunkPipeline", source: int, tag: int):
        self._pipe = pipe
        self._source = source
        self._tag = tag
        self._first = pipe.enc.ctx.comm.irecv(source, tag)
        self._result: bytes | None = None
        self._waited = False
        self.status: Status | None = None

    @property
    def completed(self) -> bool:
        return self._waited or self._first.completed

    def wait(self) -> bytes:
        if self._waited:
            return self._result
        self._waited = True
        self._result = self._pipe._recv_wait(self)
        return self._result


class ChunkPipeline:
    """CryptMPI-style pipelined encryption for point-to-point traffic.

    Large sends split into ``chunk_bytes`` pieces, each sealed under its
    own nonce.  Seal (and open) time is charged to the node's helper
    cores via :class:`repro.models.cpu.CoreAllocator` — the rank's own
    core only frames and injects — so a sealed chunk enters the
    transport as soon as it is ready and encryption of later chunks
    overlaps the wire transfer of earlier ones, while the NIC remains
    the shared max-min-fair bottleneck.  On a node with no idle helpers
    (every core resident to a rank, or ``helper_cores=0``) the pipeline
    degrades to *serial-chunked*: the rank seals each chunk on its own
    core and still overlaps the chunk's transfer with the next seal.

    Wire protocol, per chunk::

        u32 seq || u32 total_chunks || u32 chunk_index || nonce(12) || ct(len+16)

    so a chunked ℓ-byte message costs ``nchunks * (12 + 28)`` extra
    fabric bytes over the serial frame.  The first chunk travels on the
    user's (source, tag) channel; siblings travel on the internal tag
    ``CHUNK_TAG_BASE + seq`` learned from that frame's header, so
    interleaved multi-chunk messages (a window of isends on one channel)
    can never cross-match.  Route-FIFO delivery plus posted-order
    matching guarantee index order within a message.  Collectives are
    not chunked — CryptMPI pipelines point-to-point transfers, and the
    serial collectives keep their golden traces.
    """

    def __init__(self, enc_comm):
        self.enc = enc_comm
        plan = enc_comm.config.crypto
        self.plan = plan
        self.chunk_bytes = plan.chunk_bytes
        #: per-sender message sequence; names the internal tag sibling
        #: chunks travel on, so windowed isends never cross-match
        self._seq = 0

    def _helper_cap(self, alloc) -> int:
        """Helper cores this operation may occupy at once."""
        if self.plan.helper_cores is None:
            return alloc.helpers
        return min(self.plan.helper_cores, alloc.helpers)

    def _split(self, data: bytes) -> list[bytes]:
        cb = self.chunk_bytes
        return [data[off:off + cb] for off in range(0, len(data), cb)] or [b""]

    # -- sender ----------------------------------------------------------

    def isend(self, data: bytes, dest: int, tag: int = 0) -> ChunkedSendRequest:
        enc = self.enc
        data = bytes(data)
        chunks = self._split(data)
        total = len(chunks)
        seq = self._seq
        self._seq += 1
        aad_tail = enc._aad_for_peer(enc.rank, tag)
        alloc = enc.ctx.node_alloc
        cap = self._helper_cap(alloc)
        enc.messages_sent += 1
        rec = enc.ctx.recorder
        if rec is not None:
            rec.emit("encmpi", "chunked_send", enc.rank, dest=dest, tag=tag,
                     bytes=len(data), chunks=total, helpers=cap)
        durs = [enc.profile.encrypt_time(len(c), enc.crypto_slowdown)
                for c in chunks]
        events = []
        if cap > 0:
            # Submit every seal now; the after= chain caps this
            # operation at `cap` concurrent helpers (chunk i waits for
            # chunk i-cap) while the pool itself arbitrates FIFO against
            # other operations on the node.
            for i, c in enumerate(chunks):
                after = events[i - cap] if i >= cap else None
                events.append(alloc.submit(
                    durs[i], rank=enc.rank, work="seal", nbytes=len(c),
                    chunk=i, after=after,
                ))
        sib_tag = CHUNK_TAG_BASE + (seq & 0xFFFFFFFF)
        inners = []
        for i, c in enumerate(chunks):
            if cap > 0:
                events[i].wait()
            else:
                enc.ctx.compute(durs[i])  # serial-chunked fallback
            wire = self._seal_chunk(seq, i, total, c, aad_tail, durs[i])
            reseal = None
            if enc._resilience is not None:
                reseal = self._make_chunk_reseal(seq, i, total, c, aad_tail)
            inners.append(enc.ctx.comm.isend(
                wire, dest, tag if i == 0 else sib_tag,
                wire_bytes=HEADER_SIZE + enc._wire_bytes(len(c)),
                _internal=i > 0,
                _reseal=reseal,
            ))
        return ChunkedSendRequest(inners)

    def _seal_chunk(self, seq: int, index: int, total: int, chunk: bytes,
                    aad_tail: bytes, dur: float):
        """Frame one chunk (byte work only — time already charged)."""
        enc = self.enc
        header = _chunk_header(seq, total, index)
        nonce = enc._nonces.next()
        if enc._san is not None:
            enc._san.check_nonce(enc._aead.key, nonce, enc.rank)
        enc.bytes_encrypted += len(chunk)
        rec = enc.ctx.recorder
        if rec is not None:
            rec.emit("aead", "seal", enc.rank, backend=enc._aead.name,
                     bytes=len(chunk), dur=dur, chunk=index)
            c = rec.rank_counters(enc.rank)
            c.aead_seals += 1
            c.bytes_sealed += len(chunk)
            c.nonces_consumed += 1
            c.chunk_seals += 1
        if self.plan.bytework == "real":
            return header + nonce + enc._aead.seal(nonce, chunk,
                                                   header + aad_tail)
        return OpaquePayload(header + nonce, chunk, bytes(16))

    def _make_chunk_reseal(self, seq: int, index: int, total: int,
                           chunk: bytes, aad_tail: bytes):
        """Fresh-nonce re-framing of one chunk for the reliability layer."""
        enc = self.enc

        def reseal():
            dur = enc.profile.encrypt_time(len(chunk), enc.crypto_slowdown)
            return self._seal_chunk(seq, index, total, chunk, aad_tail,
                                    dur), dur

        return reseal

    # -- receiver --------------------------------------------------------

    def irecv(self, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> ChunkedRecvRequest:
        self.enc.messages_received += 1
        return ChunkedRecvRequest(self, source, tag)

    def _recv_wait(self, req: ChunkedRecvRequest) -> bytes:
        enc = self.enc
        comm = enc.ctx.comm
        alloc = enc.ctx.node_alloc
        cap = self._helper_cap(alloc)
        wire0 = req._first.wait()
        status0 = req._first.status
        seq, total, _ = _parse_chunk_header(wire0)
        if total < 1:
            raise AuthenticationError(f"bad chunk count {total} in frame")
        src, tag = status0.source, status0.tag
        # Siblings travel on the message's own internal tag (learned
        # from the first frame's header), pinned to the matched source;
        # route FIFO delivers them to these receives in index order.
        sib_tag = CHUNK_TAG_BASE + seq
        inners = [req._first] + [comm.irecv(src, sib_tag, _internal=True)
                                 for _ in range(total - 1)]
        open_events: list = []
        wires: list = [None] * total
        plains: list = [None] * total
        for i in range(total):
            wire = wires[i] = inners[i].wait() if i else wire0
            plain_len = max(0, len(wire) - HEADER_SIZE - WIRE_OVERHEAD)
            dur = enc.profile.decrypt_time(plain_len, enc.crypto_slowdown)
            if cap > 0:
                # Schedule the open the moment the chunk arrives; it
                # runs on a helper while later chunks are still in
                # flight (and while the sender is still sealing).
                after = open_events[i - cap] if i >= cap else None
                open_events.append(alloc.submit(
                    dur, rank=enc.rank, work="open", nbytes=plain_len,
                    chunk=i, after=after,
                ))
            else:
                enc.ctx.compute(dur)
                plains[i] = self._open_chunk_reliable(
                    inners[i], wire, src, tag, seq, i, total, dur)
        if cap > 0:
            for i in range(total):
                open_events[i].wait()
                plain_len = max(0, len(wires[i]) - HEADER_SIZE - WIRE_OVERHEAD)
                dur = enc.profile.decrypt_time(plain_len, enc.crypto_slowdown)
                plains[i] = self._open_chunk_reliable(
                    inners[i], wires[i], src, tag, seq, i, total, dur)
        data = b"".join(plains)
        # Like the serial path, count reflects delivered frame bytes.
        req.status = Status(source=src, tag=tag,
                            count=sum(len(w) for w in wires))
        return data

    def _open_chunk_reliable(self, inner, wire, src: int, tag: int,
                             seq: int, index: int, total: int,
                             dur: float) -> bytes:
        """Open one chunk; NACK + pinned re-post on failure (resilience)."""
        enc = self.enc
        attempts = 0
        while True:
            try:
                return self._open_chunk(wire, src, tag, seq, index, total,
                                        dur)
            except (AuthenticationError, ReplayError) as exc:
                mgr = enc._resilience
                if mgr is None:
                    raise
                attempts += 1
                env = getattr(inner, "_match_env", None)
                decision = mgr.on_recv_failure(
                    env, enc.rank, attempts,
                    reason="replay" if isinstance(exc, ReplayError)
                    else "auth_fail",
                )
                if decision.outcome == "fail":
                    from repro.simmpi.resilience import ResilienceExhausted

                    raise ResilienceExhausted(
                        f"rank {enc.rank}: chunk {index} from {src} still "
                        f"failing after {attempts} receive attempts "
                        f"(escalation='fail')"
                    ) from exc
                if decision.outcome == "drop":
                    raise
                inner = enc.ctx.comm.irecv(
                    src, tag if index == 0 else CHUNK_TAG_BASE + seq,
                    _internal=index > 0, _require_id=decision.require_id)
                wire = inner.wait()
                # Retry decrypt runs on the rank's core — the helper
                # schedule for the happy path is already spent.
                enc.ctx.compute(dur)

    def _open_chunk(self, wire, src: int, tag: int, seq: int, index: int,
                    total: int, dur: float) -> bytes:
        """Byte-open one chunk frame (time must already be charged)."""
        enc = self.enc
        got_seq, got_total, got_index = _parse_chunk_header(wire)
        plain_len = max(0, len(wire) - HEADER_SIZE - WIRE_OVERHEAD)
        try:
            if (got_total != total or got_index != index
                    or got_seq != seq & 0xFFFFFFFF):
                raise AuthenticationError(
                    f"chunk framing mismatch: expected {index}/{total} of "
                    f"message {seq}, got {got_index}/{got_total} of "
                    f"message {got_seq}"
                )
            nonce = wire.prefix[HEADER_SIZE:] if isinstance(wire, OpaquePayload) \
                else bytes(wire[HEADER_SIZE:HEADER_SIZE + 12])
            enc._replay_check_nonce(src, nonce)
            if isinstance(wire, OpaquePayload):
                plain = wire.base
            elif self.plan.bytework == "real":
                header = _chunk_header(got_seq, got_total, got_index)
                plain = enc._aead.open(
                    nonce, wire[HEADER_SIZE + 12:],
                    header + enc._aad_for_peer(src, tag),
                )
            else:
                plain = wire[HEADER_SIZE + 12:-16]
        except AuthenticationError:
            enc._record_auth_fail(plain_len)
            raise
        enc.bytes_decrypted += plain_len
        rec = enc.ctx.recorder
        if rec is not None:
            rec.emit("aead", "open", enc.rank, backend=enc._aead.name,
                     bytes=plain_len, dur=dur, chunk=index)
            c = rec.rank_counters(enc.rank)
            c.aead_opens += 1
            c.bytes_opened += plain_len
            c.chunk_opens += 1
        return plain
