"""EncryptedComm: the per-rank encrypted communicator (§IV).

Every outgoing message is framed as ``nonce || Enc(K, nonce, M)`` —
ℓ+28 bytes on the wire — and every incoming message is parsed and
decrypted, per Algorithm 1.  The configured library's calibrated cost
is charged to the rank's core; under ``bytework="real"`` the AEAD work
is additionally performed on the actual bytes, so tampering anywhere in
the simulated fabric is detected exactly as on the paper's clusters.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.aead import NONCE_SIZE, WIRE_OVERHEAD, get_aead
from repro.crypto.errors import AuthenticationError
from repro.crypto.nonces import make_nonce_source
from repro.encmpi.config import SecurityConfig
from repro.encmpi.replay import ReplayError, ReplayGuard, counter_of_nonce
from repro.simmpi.resilience import ResilienceExhausted
from repro.models.cryptolib import CryptoLibraryProfile, profile_for_network
from repro.des.process import run_blocking
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, OpaquePayload
from repro.simmpi.request import Request
from repro.simmpi.world import RankContext


class EncryptedRequest:
    """Wraps a plain request; decryption happens inside ``wait``.

    This mirrors the paper's Encrypted_IRecv/MPI_Wait split: the
    non-blocking call returns immediately and the cryptographic work is
    deferred to the wait, keeping the non-blocking property.

    When the job runs with a :class:`ResiliencePolicy` armed, a receive
    whose frame fails authentication (or is rejected by the replay
    guard) does not raise immediately: the failure is reported to the
    :class:`~repro.simmpi.resilience.ReliabilityManager` as a NACK, and
    the wait re-posts a receive pinned to the retransmitted copy —
    which the sender re-seals with a fresh nonce — until the retry
    budget is exhausted and the policy escalates.
    """

    def __init__(self, inner: Request, owner: "EncryptedComm", kind: str,
                 source: int | None = None, tag: int | None = None):
        self._inner = inner
        self._owner = owner
        self.kind = kind
        # requested (source, tag) — needed to re-post under resilience
        self._source = source
        self._tag = tag
        self._result: bytes | None = None
        self._waited = False

    @property
    def completed(self) -> bool:
        return self._inner.completed

    @property
    def status(self):
        return self._inner.status

    def wait(self) -> bytes | None:
        return run_blocking(self._owner.ctx._scheduler, self.co_wait())

    def co_wait(self):
        """Generator form of :meth:`wait` (the single implementation)."""
        if self.kind == "send":
            yield from self._inner.co_wait()
            return None
        if self._waited:
            return self._result
        self._waited = True
        owner = self._owner
        value = yield from self._inner.co_wait()
        attempts = 0
        while True:
            status = self._inner.status
            aad = b""
            if status is not None and owner.config.bind_header:
                aad = owner._aad_for_peer(status.source, status.tag)
            try:
                if status is not None:
                    owner._replay_check(status.source, value)
                self._result = yield from owner._co_decrypt_charged(value, aad)
                return self._result
            except (AuthenticationError, ReplayError) as exc:
                mgr = owner._resilience
                if mgr is None:
                    raise
                attempts += 1
                env = getattr(self._inner, "_match_env", None)
                decision = mgr.on_recv_failure(
                    env, owner.rank, attempts,
                    reason="replay" if isinstance(exc, ReplayError)
                    else "auth_fail",
                )
                if decision.outcome == "fail":
                    src = env.src if env is not None else "?"
                    raise ResilienceExhausted(
                        f"rank {owner.rank}: message from {src} still "
                        f"failing after {attempts} receive attempts "
                        f"(escalation='fail')"
                    ) from exc
                if decision.outcome == "drop":
                    raise
                self._inner = owner.ctx.comm.irecv(
                    self._source if self._source is not None else ANY_SOURCE,
                    self._tag if self._tag is not None else ANY_TAG,
                    _require_id=decision.require_id,
                )
                value = yield from self._inner.co_wait()


class EncryptedComm:
    """Encrypted counterpart of :class:`repro.simmpi.comm.CommHandle`."""

    def __init__(
        self,
        ctx: RankContext,
        config: SecurityConfig | None = None,
        *,
        crypto_slowdown: float = 1.0,
    ):
        self.ctx = ctx
        self.config = config or SecurityConfig()
        #: bulk-crypto slowdown for cache-cold payloads (see
        #: calibration.NAS_COLD_CACHE_FACTOR); 1.0 = the Fig. 2/9 curves.
        self.crypto_slowdown = crypto_slowdown
        self.profile: CryptoLibraryProfile = profile_for_network(
            self.config.library,
            ctx._cluster.network.name,
            self.config.key_bits,
        )
        self._aead = get_aead(self.config.key, self.config.backend)
        self._nonces = make_nonce_source(self.config.nonce_strategy, ctx.rank)
        #: job sanitizer (repro.analysis.sanitize.Sanitizer) — when set,
        #: every seal's (key, nonce) pair is checked for reuse, even in
        #: modeled mode where no real AEAD call happens
        self._san = getattr(ctx, "sanitizer", None)
        #: job reliability manager (repro.simmpi.resilience) — when set,
        #: point-to-point sends register a fresh-nonce reseal closure
        #: and failed receives NACK into retransmissions
        self._resilience = getattr(ctx, "resilience", None)
        #: per-source anti-replay windows (populated lazily when
        #: config.replay_window > 0)
        self._replay_guards: dict[int, ReplayGuard] = {}
        #: cryptmpi chunk pipeline — point-to-point sends/receives are
        #: chunk-framed and their seals/opens scheduled on the node's
        #: helper cores when CryptoPlan(mode="cryptmpi"); None (and the
        #: wire format byte-identical to before) under mode="serial"
        self._pipe = None
        if self.config.crypto.pipelined:
            from repro.encmpi.pipeline import ChunkPipeline

            self._pipe = ChunkPipeline(self)
        #: counters for reporting
        self.bytes_encrypted = 0
        self.bytes_decrypted = 0
        self.messages_sent = 0
        self.messages_received = 0
        self.auth_failures = 0
        self.replay_drops = 0

    @property
    def rank(self) -> int:
        return self.ctx.rank

    @property
    def size(self) -> int:
        return self.ctx.size

    # ------------------------------------------------------------------
    # framing
    # ------------------------------------------------------------------

    def _encrypt_charged(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Blocking spelling of :meth:`_co_encrypt_charged`."""
        return run_blocking(
            self.ctx._scheduler, self._co_encrypt_charged(plaintext, aad)
        )

    def _co_encrypt_charged(self, plaintext: bytes, aad: bytes = b""):
        """Charge virtual encryption time and frame the message."""
        dur = self.profile.encrypt_time(len(plaintext), self.crypto_slowdown)
        yield from self.ctx.co_compute(dur)
        self.bytes_encrypted += len(plaintext)
        nonce = self._nonces.next()
        if self._san is not None:
            self._san.check_nonce(self._aead.key, nonce, self.rank)
        rec = self.ctx.recorder
        if rec is not None:
            rec.emit("aead", "seal", self.rank, backend=self._aead.name,
                     bytes=len(plaintext), dur=dur)
            c = rec.rank_counters(self.rank)
            c.aead_seals += 1
            c.bytes_sealed += len(plaintext)
            c.nonces_consumed += 1
        if self.config.crypto.bytework == "real":
            return nonce + self._aead.seal(nonce, plaintext, aad)
        # Modeled: time already charged; ship the plaintext inside a
        # zero-copy frame whose length accounting is the real ℓ+28 (see
        # OpaquePayload — this keeps p² fan-outs from materializing p²
        # ciphertext buffers in the single simulator process).
        return OpaquePayload(nonce, plaintext, bytes(16))

    def _decrypt_charged(self, wire, aad: bytes = b"") -> bytes:
        """Blocking spelling of :meth:`_co_decrypt_charged`."""
        return run_blocking(
            self.ctx._scheduler, self._co_decrypt_charged(wire, aad)
        )

    def _co_decrypt_charged(self, wire, aad: bytes = b""):
        plain_len = self._plaintext_len(wire)
        dur = self.profile.decrypt_time(plain_len, self.crypto_slowdown)
        yield from self.ctx.co_compute(dur)
        self.bytes_decrypted += plain_len
        try:
            if len(wire) < WIRE_OVERHEAD:
                raise AuthenticationError("message shorter than nonce + tag")
            if isinstance(wire, OpaquePayload):
                # Zero-copy modeled frame: the plaintext rides inside.
                plain = wire.base
            else:
                nonce, body = wire[:NONCE_SIZE], wire[NONCE_SIZE:]
                if self.config.crypto.bytework == "real":
                    plain = self._aead.open(nonce, body, aad)
                else:
                    plain = body[:-16]
        except AuthenticationError:
            self._record_auth_fail(plain_len)
            raise
        rec = self.ctx.recorder
        if rec is not None:
            rec.emit("aead", "open", self.rank, backend=self._aead.name,
                     bytes=plain_len, dur=dur)
            c = rec.rank_counters(self.rank)
            c.aead_opens += 1
            c.bytes_opened += plain_len
        return plain

    def _record_auth_fail(self, plain_len: int) -> None:
        self.auth_failures += 1
        rec = self.ctx.recorder
        if rec is not None:
            rec.emit("aead", "auth_fail", self.rank, bytes=plain_len)
            rec.rank_counters(self.rank).auth_failures += 1

    def _replay_check(self, source: int, wire) -> None:
        """Sliding-window anti-replay check for a point-to-point message.

        Reads the sequence counter out of the (counter-strategy) nonce
        and runs it through the per-source :class:`ReplayGuard`.  A
        rejected message surfaces as :class:`ReplayError` from ``wait``
        and as a ``replay_drop`` trace event.  No-op unless
        ``config.replay_window > 0``.
        """
        nonce = wire.prefix if isinstance(wire, OpaquePayload) else bytes(wire[:NONCE_SIZE])
        self._replay_check_nonce(source, nonce)

    def _replay_check_nonce(self, source: int, nonce: bytes) -> None:
        """Replay check on an already-extracted nonce (the chunked
        cryptmpi frames carry theirs past an 8-byte header)."""
        if self.config.replay_window <= 0:
            return
        counter = counter_of_nonce(nonce[:NONCE_SIZE])
        guard = self._replay_guards.get(source)
        if guard is None:
            guard = self._replay_guards[source] = ReplayGuard(self.config.replay_window)
        try:
            guard.check(counter)
        except ReplayError:
            self.replay_drops += 1
            rec = self.ctx.recorder
            if rec is not None:
                rec.emit("aead", "replay_drop", self.rank, src=source,
                         counter=counter)
                rec.rank_counters(self.rank).replay_drops += 1
            raise

    def _make_reseal(self, plaintext: bytes, aad: bytes):
        """Closure the reliability layer calls to re-frame a message.

        Every invocation draws a **fresh nonce** — so retransmissions
        never reuse a (key, nonce) pair (the sanitizer's ledger stays
        clean) and the receiver's ReplayGuard sees a new counter.  The
        seal's CPU time is returned, not charged here: the reliability
        layer folds it into the retransmission delay (the re-seal runs
        on the sender's progress machinery, off the rank's critical
        path).
        """

        def reseal():
            dur = self.profile.encrypt_time(len(plaintext), self.crypto_slowdown)
            self.bytes_encrypted += len(plaintext)
            nonce = self._nonces.next()
            if self._san is not None:
                self._san.check_nonce(self._aead.key, nonce, self.rank)
            rec = self.ctx.recorder
            if rec is not None:
                rec.emit("aead", "seal", self.rank, backend=self._aead.name,
                         bytes=len(plaintext), dur=dur)
                c = rec.rank_counters(self.rank)
                c.aead_seals += 1
                c.bytes_sealed += len(plaintext)
                c.nonces_consumed += 1
            if self.config.crypto.bytework == "real":
                return nonce + self._aead.seal(nonce, plaintext, aad), dur
            return OpaquePayload(nonce, plaintext, bytes(16)), dur

        return reseal

    def _plaintext_len(self, wire: bytes) -> int:
        return max(0, len(wire) - WIRE_OVERHEAD)

    def _wire_bytes(self, plaintext_len: int) -> int:
        """Fabric bytes for an ℓ-byte message: ℓ + 28 (Algorithm 1)."""
        return plaintext_len + WIRE_OVERHEAD

    def _aad_for_peer(self, sender: int, tag: int) -> bytes:
        """Header AAD (bind_header extension, point-to-point only):
        authenticates who sent the message and under which tag."""
        if not self.config.bind_header:
            return b""
        return sender.to_bytes(4, "big") + tag.to_bytes(8, "big", signed=True)

    # ------------------------------------------------------------------
    # point-to-point (§IV: Send/Recv/ISend/IRecv/Wait/Waitall)
    # ------------------------------------------------------------------

    def isend(self, data: bytes, dest: int, tag: int = 0):
        if self._pipe is not None:
            return self._pipe.isend(bytes(data), dest, tag)
        return run_blocking(
            self.ctx._scheduler, self._co_isend_serial(data, dest, tag)
        )

    def co_isend(self, data: bytes, dest: int, tag: int = 0):
        """Generator form of :meth:`isend` (serial plans only)."""
        self._check_not_pipelined("co_isend")
        return (yield from self._co_isend_serial(data, dest, tag))

    def _co_isend_serial(self, data: bytes, dest: int, tag: int = 0):
        data = bytes(data)
        aad = self._aad_for_peer(self.rank, tag)
        wire = yield from self._co_encrypt_charged(data, aad)
        self.messages_sent += 1
        reseal = None
        if self._resilience is not None:
            reseal = self._make_reseal(data, aad)
        inner = yield from self.ctx.comm.co_isend(
            wire, dest, tag, wire_bytes=self._wire_bytes(len(data)),
            _reseal=reseal,
        )
        return EncryptedRequest(inner, self, "send")

    def _check_not_pipelined(self, op: str) -> None:
        if self._pipe is not None:
            raise RuntimeError(
                f"{op}: CryptoPlan(mode='cryptmpi') chunk pipelining needs "
                "the threads runtime; run with EngineOptions("
                "runtime='threads') or the blocking API"
            )

    def send(self, data: bytes, dest: int, tag: int = 0) -> None:
        self.isend(data, dest, tag).wait()

    def co_send(self, data: bytes, dest: int, tag: int = 0):
        req = yield from self.co_isend(data, dest, tag)
        yield from req.co_wait()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        if self._pipe is not None:
            return self._pipe.irecv(source, tag)
        inner = self.ctx.comm.irecv(source, tag)
        self.messages_received += 1
        return EncryptedRequest(inner, self, "recv", source=source, tag=tag)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> tuple[bytes, object]:
        req = self.irecv(source, tag)
        data = req.wait()
        return data, req.status

    def co_recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        self._check_not_pipelined("co_recv")
        req = self.irecv(source, tag)
        data = yield from req.co_wait()
        return data, req.status

    @staticmethod
    def waitall(requests: list[EncryptedRequest]) -> list:
        return [r.wait() for r in requests]

    @staticmethod
    def co_waitall(requests: list[EncryptedRequest]):
        values = []
        for req in requests:
            values.append((yield from req.co_wait()))
        return values

    def sendrecv(
        self,
        senddata: bytes,
        dest: int,
        recvsource: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> tuple[bytes, object]:
        rreq = self.irecv(recvsource, recvtag)
        sreq = self.isend(senddata, dest, sendtag)
        data = rreq.wait()
        sreq.wait()
        return data, rreq.status

    def co_sendrecv(
        self,
        senddata: bytes,
        dest: int,
        recvsource: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ):
        self._check_not_pipelined("co_sendrecv")
        rreq = self.irecv(recvsource, recvtag)
        sreq = yield from self.co_isend(senddata, dest, sendtag)
        data = yield from rreq.co_wait()
        yield from sreq.co_wait()
        return data, rreq.status

    # ------------------------------------------------------------------
    # collectives (§IV: Bcast, Allgather, Alltoall, Alltoallv)
    # ------------------------------------------------------------------

    def bcast(self, data: bytes | None, root: int = 0, *,
              nbytes: int | None = None) -> bytes:
        """Encrypted_Bcast: the root encrypts once, every other rank
        decrypts once; the ordinary bcast moves nonce||ciphertext."""
        return run_blocking(
            self.ctx._scheduler, self.co_bcast(data, root, nbytes=nbytes)
        )

    def co_bcast(self, data: bytes | None, root: int = 0, *,
                 nbytes: int | None = None):
        if self.ctx.rank == root:
            assert data is not None
            wire = yield from self._co_encrypt_charged(bytes(data))
            yield from self.ctx.comm.co_bcast(wire, root)
            return bytes(data)
        if nbytes is None:
            raise ValueError("non-root ranks must pass nbytes")
        received = yield from self.ctx.comm.co_bcast(
            None, root, nbytes=nbytes + WIRE_OVERHEAD
        )
        return (yield from self._co_decrypt_charged(received))

    def allgather(self, data: bytes) -> list[bytes]:
        """Encrypted_Allgather: encrypt own block, allgather, decrypt all."""
        return run_blocking(self.ctx._scheduler, self.co_allgather(data))

    def co_allgather(self, data: bytes):
        wire = yield from self._co_encrypt_charged(bytes(data))
        gathered = yield from self.ctx.comm.co_allgather(wire)
        # Like Algorithm 1's alltoall, every received block — including
        # the rank's own — goes through decryption.
        out = []
        for block in gathered:
            out.append((yield from self._co_decrypt_charged(block)))
        return out

    def alltoall(self, chunks: Sequence[bytes]) -> list[bytes]:
        """Encrypted_Alltoall, exactly Algorithm 1: encrypt every chunk
        with a fresh nonce, exchange, decrypt every received chunk."""
        return run_blocking(self.ctx._scheduler, self.co_alltoall(chunks))

    def co_alltoall(self, chunks: Sequence[bytes]):
        enc = []
        for c in chunks:
            enc.append((yield from self._co_encrypt_charged(bytes(c))))
        received = yield from self.ctx.comm.co_alltoall(enc)
        out = []
        for block in received:
            out.append((yield from self._co_decrypt_charged(block)))
        return out

    def alltoallv(self, chunks: Sequence[bytes]) -> list[bytes]:
        return run_blocking(self.ctx._scheduler, self.co_alltoallv(chunks))

    def co_alltoallv(self, chunks: Sequence[bytes]):
        enc = []
        for c in chunks:
            enc.append((yield from self._co_encrypt_charged(bytes(c))))
        received = yield from self.ctx.comm.co_alltoallv(enc)
        out = []
        for block in received:
            out.append((yield from self._co_decrypt_charged(block)))
        return out
