"""Wire plumbing for the service runtime: record channels + frame envelopes.

Two kinds of bytes cross process boundaries:

* **control records** — tuples of ints/floats/strs/bytes/bools/None/
  nested tuples, length-prefix framed via :mod:`repro.net.framing`
  (``encode_record`` / ``StreamDecoder``).  The coordinator speaks them
  over blocking sockets; node hosts over asyncio streams.

* **frame envelopes** — one per deposited frame row, carrying the
  byte-level payload encoding plus the real edge-key HMAC and a
  ``(band, order, subseq)`` sort key.  Receivers re-decode the payload,
  re-derive the canonical edge-MAC message and verify the HMAC
  themselves — acceptance is recomputed from crypto on every process,
  never trusted from the sender.

The sort key makes a receiver's per-interval inbox order *identical* to
the in-process simulator's chronological deposit order no matter how the
asynchronous shipping interleaves: band 0 frames (base station + pre-tick
adversary + frames sent into future intervals) precede honest frames
(band 1, ordered by sender id, then per-host sequence), which precede
post-tick adversary frames (band 2).  Within a coordinator band, a global
monotone counter preserves coordinator chronology.
"""

from __future__ import annotations

import socket
import struct
import time
from typing import Callable, List, Optional, Tuple

from ..errors import HostChannelError, HostUnresponsiveError, ServiceError
from ..net.framing import FramingError, StreamDecoder, encode_record
from ..net.network import PhaseContext, _SendBatch
from .resilience import ControlTimeouts, control_timeout

#: (interval, receiver, band, order, subseq, claimed_sender, key_index,
#:  edge_mac, payload_bytes)
Envelope = Tuple[int, int, int, int, int, int, int, bytes, bytes]

DEFAULT_TIMEOUT = 60.0

_RECV_CHUNK = 65536

#: Liveness keep-alive record, sent host -> coordinator on a timer and
#: filtered out of the record queue on receipt: heartbeats refresh the
#: channel's last-traffic clock but are invisible to protocol logic.
HEARTBEAT = ("hb",)


# ----------------------------------------------------------------------
# Frame envelopes
# ----------------------------------------------------------------------
def delivery_envelope(
    batch: _SendBatch,
    receiver: int,
    key_index: int,
    interval: int,
    band: int,
    order: int,
    subseq: int,
) -> Envelope:
    """Pack one deposited frame — a row of ``batch`` — for shipping.

    The edge MAC is computed for real on the sending process — the wire
    always carries authenticated frames.
    """
    return (
        interval,
        receiver,
        band,
        order,
        subseq,
        batch.claimed_sender,
        key_index,
        batch.edge_mac(receiver, key_index, interval),
        batch.payload_bytes,
    )


def envelope_sort_key(env: Envelope) -> Tuple[int, int, int]:
    return (env[2], env[3], env[4])


def ingest_envelope(
    phase: PhaseContext, env: Envelope, previous: Optional[_SendBatch] = None
) -> Tuple[_SendBatch, bool]:
    """Decode an envelope on the receiving side: ``(batch, verified)``.

    The payload is re-decoded from its canonical bytes, the canonical
    encoding check guards against any decode/encode asymmetry, and the
    verdict is recomputed locally from the shipped HMAC — the receiving
    process trusts only the cryptography, not the sender's verdict.

    A block ships one envelope per receiver, so consecutive envelopes
    often repeat the claimed sender and payload bytes.  ``previous``, the
    batch the last envelope produced, is reused for such a repeat: its
    bytes already passed the canonical check, so the block is decoded
    once.  The MAC is still checked per envelope.
    """
    from ..net.framing import decode_payload

    interval, receiver, _band, _order, _subseq, sender, key_index, mac, payload_bytes = env
    if (
        previous is not None
        and previous.claimed_sender == sender
        and previous.payload_bytes == payload_bytes
    ):
        batch = previous
    else:
        payload = decode_payload(payload_bytes)
        batch = _SendBatch(phase, sender, payload)
        if batch.payload_bytes != payload_bytes:
            raise ServiceError(
                f"frame payload re-encoding mismatch for sender {sender} -> "
                f"{receiver} in interval {interval}"
            )
    message = batch.message_for(receiver, interval)
    verified = phase.network._accepts_message(receiver, key_index, mac, message)
    return batch, verified


# ----------------------------------------------------------------------
# Synchronous record channel (coordinator side)
# ----------------------------------------------------------------------
class RecordChannel:
    """Length-prefixed record I/O over one blocking socket.

    The receive path waits in short poll slices rather than one long
    blocking read, so between slices the channel can (a) run an optional
    ``liveness`` probe (the coordinator points it at the supervisor's
    child-exit poll, turning a crashed host into an immediate
    :class:`~repro.errors.HostChannelError` instead of a timeout) and
    (b) enforce the heartbeat detection window: if *no* traffic — not
    even a heartbeat — arrives for ``detection_window`` seconds, the
    peer is declared unresponsive (hung or stopped process).  Socket
    failures, EOF, and corrupt framing all raise
    :class:`~repro.errors.HostChannelError` — the recoverable class the
    resilience layer answers with a restart; only peer-*reported* errors
    stay plain :class:`~repro.errors.ServiceError` (fatal logic bugs).
    """

    def __init__(
        self,
        sock: socket.socket,
        timeout: Optional[float] = None,
        on_wire: Optional[Callable[[int, int], None]] = None,
        timeouts: Optional[ControlTimeouts] = None,
        liveness: Optional[Callable[[], None]] = None,
    ) -> None:
        if timeouts is None:
            timeouts = ControlTimeouts(
                control_timeout=timeout if timeout is not None else control_timeout(),
                detection_window=0.0,  # disabled for bare channels
            )
        self.timeouts = timeouts
        self.sock = sock
        sock.settimeout(min(timeouts.poll, timeouts.control_timeout))
        self.decoder = StreamDecoder()
        self._queue: List[tuple] = []
        self.on_wire = on_wire
        self.liveness = liveness
        self._last_rx = time.monotonic()
        self.records_sent = 0

    def send(self, *parts) -> None:
        data = encode_record(*parts)
        try:
            self.sock.sendall(data)
        except OSError as exc:
            raise HostChannelError(f"control send failed: {exc}") from exc
        self.records_sent += 1
        if self.on_wire is not None:
            self.on_wire(len(data), 1)

    def recv(self) -> tuple:
        started = time.monotonic()
        while not self._queue:
            try:
                chunk = self.sock.recv(_RECV_CHUNK)
            except socket.timeout:
                now = time.monotonic()
                if self.liveness is not None:
                    self.liveness()
                window = self.timeouts.detection_window
                if window > 0 and now - self._last_rx > window:
                    raise HostUnresponsiveError(
                        f"no control traffic (not even a heartbeat) for "
                        f"{now - self._last_rx:.1f}s > detection window {window}s"
                    ) from None
                if now - started > self.timeouts.control_timeout:
                    raise HostChannelError("control channel timed out") from None
                continue
            except OSError as exc:
                raise HostChannelError(f"control recv failed: {exc}") from exc
            if not chunk:
                raise HostChannelError("control channel closed by peer")
            self._last_rx = time.monotonic()
            if self.on_wire is not None:
                self.on_wire(len(chunk), 0)
            try:
                records = self.decoder.feed(chunk)
            except FramingError as exc:
                raise HostChannelError(f"corrupt control stream: {exc}") from exc
            self._queue.extend(r for r in records if r != HEARTBEAT)
        record = self._queue.pop(0)
        if self.on_wire is not None:
            self.on_wire(0, 1)
        if record and record[0] == "error":
            raise ServiceError(f"peer reported: {record[1]}")
        return record

    def request(self, *parts) -> tuple:
        self.send(*parts)
        return self.recv()

    def abort(self) -> None:
        """Reset the connection (RST, not FIN) — chaos-harness hook.

        ``SO_LINGER`` with a zero timeout makes ``close()`` discard any
        unsent data and send a TCP reset, which the peer observes as a
        hard connection failure mid-stream.
        """
        try:
            self.sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        except OSError:
            pass
        self.close()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Asynchronous record stream (node-host side)
# ----------------------------------------------------------------------
class AsyncRecordStream:
    """Length-prefixed record I/O over one asyncio stream pair.

    Sends are serialized under a lock so a background heartbeat task and
    the dispatch loop can share one stream without interleaving frames.
    """

    def __init__(self, reader, writer, on_wire=None) -> None:
        self.reader = reader
        self.writer = writer
        self.decoder = StreamDecoder()
        self._queue: List[tuple] = []
        self.on_wire = on_wire
        self._send_lock = None  # created lazily inside the running loop

    async def send(self, *parts) -> None:
        import asyncio

        if self._send_lock is None:
            self._send_lock = asyncio.Lock()
        data = encode_record(*parts)
        async with self._send_lock:
            self.writer.write(data)
            await self.writer.drain()
        if self.on_wire is not None:
            self.on_wire(len(data), 1)

    async def recv(self) -> Optional[tuple]:
        """Next record, or ``None`` on clean EOF."""
        while not self._queue:
            chunk = await self.reader.read(_RECV_CHUNK)
            if not chunk:
                return None
            if self.on_wire is not None:
                self.on_wire(len(chunk), 0)
            self._queue.extend(self.decoder.feed(chunk))
        record = self._queue.pop(0)
        if self.on_wire is not None:
            self.on_wire(0, 1)
        return record

    def close(self) -> None:
        try:
            self.writer.close()
        except Exception:
            pass
