"""Exception hierarchy for the VMAT reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch package failures with a single ``except`` clause while
still being able to discriminate the subsystem that failed.
:func:`typed_fields` is the one check the JSON parsers (campaign specs,
fault plans) apply to an input object before they raise
:class:`ConfigError`.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """A configuration object is internally inconsistent or out of range."""


class TopologyError(ReproError):
    """A topology is malformed (disconnected, unknown node, bad geometry)."""


class CryptoError(ReproError):
    """A cryptographic operation failed (bad key material, encoding)."""


class MacVerificationError(CryptoError):
    """A MAC failed verification.

    Protocol code generally treats failed verification as a *condition*
    (returning ``False``) rather than an exception; this error is reserved
    for API misuse such as verifying with an empty key.
    """


class BroadcastAuthError(CryptoError):
    """An authenticated-broadcast message failed chain verification."""


class KeyManagementError(ReproError):
    """Key pre-distribution or registry invariant violated."""


class RevocationError(KeyManagementError):
    """An invalid revocation was requested (unknown key, double revoke)."""


class NetworkError(ReproError):
    """Message-layer failure: unknown destination, link without edge key."""


class ProtocolError(ReproError):
    """A VMAT protocol phase detected an internal invariant violation.

    This indicates a bug in the implementation (or an adversary escaping
    its sandbox), never a legitimate adversarial outcome: the protocol is
    designed so that *every* adversarial behaviour maps to a defined
    outcome (correct result, veto-triggered pinpointing, or junk-triggered
    pinpointing).
    """


class AuditTrailError(ProtocolError):
    """An audit trail failed well-formedness validation."""


class PinpointError(ProtocolError):
    """The pinpointing protocol reached a state the proofs rule out."""


class SimulationError(ReproError):
    """An interval schedule, clock offset or guard band was used incorrectly."""


class ServiceError(ReproError):
    """The service runtime failed: a node-host process died, timed out,
    reported an error, or a wire frame failed its canonical-bytes check."""


class HostChannelError(ServiceError):
    """The control channel to one node host failed at the socket or
    framing layer (reset, EOF, corrupt stream, child exit).

    Distinct from a host *reporting* an error record (a logic bug, which
    stays a plain :class:`ServiceError`): a channel-level failure is the
    recoverable kind — the resilience layer responds by restarting the
    host and replaying the control journal, never by retrying protocol
    logic blindly."""


class HostUnresponsiveError(HostChannelError):
    """A node host went silent past the detection window (hung or
    stopped process): no reply, no heartbeat, but the socket is open."""


#: Default of a :func:`typed_fields` field that must be present.
REQUIRED = object()


def typed_fields(
    kind: str, data: Any, fields: Mapping[str, Tuple[Tuple[type, ...], Any]]
) -> Dict[str, Any]:
    """``data``'s fields, type-checked and with defaults filled in.

    A non-object, an unknown key (a misspelled field would otherwise
    run with its default), a missing required field or a value of the
    wrong JSON type (a bool is not a number) raises :class:`ConfigError`.
    """
    if not isinstance(data, Mapping):
        raise ConfigError(f"a {kind} is a JSON object, not {type(data).__name__}")
    unknown = sorted(str(name) for name in data if name not in fields)
    if unknown:
        raise ConfigError(f"{kind} has unknown fields {unknown}; known: {sorted(fields)}")
    out: Dict[str, Any] = {}
    for name, (types, default) in fields.items():
        if name not in data:
            if default is REQUIRED:
                raise ConfigError(f"{kind} needs a {name!r} field")
            out[name] = default
            continue
        value = data[name]
        if isinstance(value, bool) or not isinstance(value, types):
            expected = " or ".join(t.__name__ for t in types)
            raise ConfigError(f"{kind} field {name!r} must be {expected}, got {value!r}")
        out[name] = value
    return out
