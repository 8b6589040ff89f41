"""Validation of outside input: request fields and bind addresses.

The gateway's request bodies are validated field by field with these
helpers (through :meth:`repro.service.core.ServiceCore.request_points`);
a bad field raises :class:`ProtocolError`, which the gateway answers
with a typed ``400 bad-request``. :func:`parse_address` parses the
``--http`` bind.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ProtocolError(Exception):
    """A request field that fails validation."""


def check_int(message: Dict[str, Any], field: str, default: int,
              minimum: int) -> int:
    """Validated integer field of a request (used for settings knobs)."""
    value = message.get(field, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"field {field!r} must be an integer, "
                            f"got {value!r}")
    if value < minimum:
        raise ProtocolError(f"field {field!r} must be >= {minimum}, "
                            f"got {value}")
    return value


def check_names(message: Dict[str, Any], field: str,
                allowed: Optional[list] = None) -> list:
    """Validated non-empty list-of-strings field (architectures,
    workloads); ``allowed`` whitelists the values."""
    value = message.get(field)
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, list) or not value or \
            not all(isinstance(v, str) for v in value):
        raise ProtocolError(
            f"field {field!r} must be a non-empty list of strings")
    if allowed is not None:
        unknown = [v for v in value if v not in allowed]
        if unknown:
            raise ProtocolError(
                f"unknown {field}: {', '.join(sorted(unknown))} "
                f"(known: {', '.join(allowed)})")
    return value


# -- address parsing (the gateway's --http bind) ------------------------------

#: The gateway's port when an address names only a host.
DEFAULT_PORT = 8643


def parse_address(text: str):
    """``host:port`` or ``unix:/path`` → ``("tcp", host, port)`` /
    ``("unix", path)``."""
    if text.startswith("unix:"):
        path = text[len("unix:"):]
        if not path:
            raise ValueError("unix address needs a path: unix:/some/socket")
        return ("unix", path)
    host, sep, port = text.rpartition(":")
    if not sep:
        host, port = text, str(DEFAULT_PORT)
    if not host:
        host = "127.0.0.1"
    try:
        return ("tcp", host, int(port))
    except ValueError:
        raise ValueError(f"bad address {text!r}: expected host:port or "
                         f"unix:/path") from None
