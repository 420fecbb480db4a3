"""Message envelopes and matching wildcards."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

#: MPI_ANY_SOURCE / MPI_ANY_TAG wildcards for ``recv``.
ANY_SOURCE = -1
ANY_TAG = -1

#: Tags at or above this value are reserved for internal use
#: (collective phases); user tags must stay below.
MAX_USER_TAG = 1 << 20

_seq = itertools.count()


class OpaquePayload:
    """Zero-copy framed payload for the simulator.

    The paper's Encrypted_Alltoall materializes p ciphertext buffers on
    *each of p ranks* — distributed over the cluster's memory.  The
    simulator hosts every rank in one process, so naively framing a
    4 MB chunk per destination per rank would need p² × 4 MB (~17 GB at
    p = 64).  Under ``bytework="modeled"`` the frame therefore *shares*
    the plaintext object and only virtually prepends the nonce and
    appends the tag: length accounting (and hence all timing) sees the
    full ℓ+28 bytes, while memory holds one plaintext.

    Behaves like an immutable bytes-ish object for the operations the
    stack needs (``len``, slicing, equality via materialization).
    """

    __slots__ = ("prefix", "base", "suffix")

    def __init__(self, prefix: bytes, base, suffix: bytes):
        self.prefix = prefix
        self.base = base
        self.suffix = suffix

    def __len__(self) -> int:
        return len(self.prefix) + len(self.base) + len(self.suffix)

    def to_bytes(self) -> bytes:
        base = self.base.to_bytes() if isinstance(self.base, OpaquePayload) else self.base
        return self.prefix + bytes(base) + self.suffix

    def __getitem__(self, index):
        return self.to_bytes()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, OpaquePayload):
            return self.to_bytes() == other.to_bytes()
        if isinstance(other, (bytes, bytearray)):
            return self.to_bytes() == other
        return NotImplemented

    def __hash__(self):
        return hash(self.to_bytes())

    def __repr__(self) -> str:
        return f"<OpaquePayload {len(self)}B>"


def as_bytes(payload) -> bytes:
    """Materialize any payload (bytes-like or OpaquePayload) as bytes."""
    if isinstance(payload, OpaquePayload):
        return payload.to_bytes()
    return bytes(payload)


@dataclass
class Envelope:
    """One in-flight message: routing header plus the payload bytes.

    ``wire_bytes`` is what actually crosses the fabric — for encrypted
    MPI that is ``len(payload)`` where the payload already carries the
    12-byte nonce and 16-byte tag, so no separate accounting is needed;
    it is distinct from ``payload`` only for protocol-level framing.

    ``payload_bytes`` is what *traffic accounting* should attribute to
    the message.  It defaults to ``len(payload)``; collective internals
    that pack index/length headers into the payload (headers that, like
    MPI datatype metadata, never cross the fabric — ``wire_bytes``
    already excludes them) pass the true data size so point-to-point and
    collective byte accounting agree.
    """

    src: int
    dst: int
    tag: int
    comm_id: int
    payload: bytes
    wire_bytes: int = -1
    payload_bytes: int = -1
    seq: int = field(default_factory=lambda: next(_seq))
    #: extra metadata for upper layers (encrypted MPI stores the nonce
    #: strategy context here when needed)
    info: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.wire_bytes < 0:
            self.wire_bytes = len(self.payload)
        if self.payload_bytes < 0:
            self.payload_bytes = len(self.payload)

    def matches(self, source: int, tag: int) -> bool:
        """Does this envelope satisfy a recv posted for (source, tag)?"""
        if source != ANY_SOURCE and source != self.src:
            return False
        if tag != ANY_TAG and tag != self.tag:
            return False
        return True

    def __repr__(self) -> str:
        return (
            f"<Envelope {self.src}->{self.dst} tag={self.tag} "
            f"comm={self.comm_id} {len(self.payload)}B seq={self.seq}>"
        )
