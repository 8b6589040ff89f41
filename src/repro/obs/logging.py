"""Structured JSON logging with correlation fields.

The serving stack (gateway → :class:`~repro.service.core.ServiceCore`
→ executor → fabric workers) used to narrate itself with ad-hoc
``print`` calls; this module replaces those with stdlib ``logging``
emitting **one JSON object per line**, so fleet log pipelines can parse
them and correlate a request across processes.

Correlation works through two channels:

* :func:`log_context` pushes fields (job id, tenant, content hash)
  onto a :mod:`contextvars` stack — every log record emitted inside
  the ``with`` block carries them, across ``await`` points, without
  threading arguments through call signatures;
* every record always carries ``pid``, so fabric-worker lines (the
  worker calls :func:`configure_from_env` on startup) are attributable
  even though the worker is a separate process.

Nothing configures itself at import time: library code calls
``get_logger(...)`` and logs; with no handler installed the records
propagate to the root logger as usual (invisible below WARNING), so
tests and embedders see no new output. The CLI's ``serve``/``gateway``/
``top`` entry points call :func:`configure`, which installs one named
handler (idempotent) and exports ``REPRO_LOG`` so spawn-mode fabric
workers inherit the configuration.

Every ``debug``/``info`` helper gates on ``isEnabledFor`` before
building the record, keeping the disabled path within the project's
≤2% overhead budget (the ``telemetry`` scenario of BENCH.json).
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import logging
import os
import sys
import time
from typing import Any, Dict, Iterator, Optional, TextIO

#: Root of the project's logger hierarchy.
ROOT_LOGGER = "repro"

#: Name of the handler :func:`configure` installs (idempotency key).
_HANDLER_NAME = "repro-structured"

#: Environment variable carrying ``<format>:<level>`` to subprocesses.
ENV_VAR = "REPRO_LOG"

_context: contextvars.ContextVar[Dict[str, Any]] = contextvars.ContextVar(
    "repro_log_context", default={})


def context_fields() -> Dict[str, Any]:
    """The correlation fields currently in scope."""
    return dict(_context.get())


@contextlib.contextmanager
def log_context(**fields: Any) -> Iterator[None]:
    """Push correlation fields for every record emitted inside the
    block (task-local: safe under asyncio interleaving)."""
    merged = dict(_context.get())
    merged.update(fields)
    token = _context.set(merged)
    try:
        yield
    finally:
        _context.reset(token)


class JsonFormatter(logging.Formatter):
    """One JSON object per line: ``{"ts", "level", "logger", "event",
    "pid", ...fields}`` (+ ``"exc"`` when exception info is attached).
    Keys are sorted so lines diff cleanly."""

    def format(self, record: logging.LogRecord) -> str:
        payload: Dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
            "pid": record.process,
        }
        fields = getattr(record, "fields", None)
        if fields:
            for key, value in fields.items():
                payload.setdefault(key, value)
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=str)


class HumanFormatter(logging.Formatter):
    """``HH:MM:SS LEVEL event key=value ...`` — for interactive runs."""

    def format(self, record: logging.LogRecord) -> str:
        stamp = time.strftime("%H:%M:%S", time.localtime(record.created))
        parts = [stamp, record.levelname.lower(), record.getMessage()]
        fields = getattr(record, "fields", None)
        if fields:
            parts.extend(f"{key}={value}" for key, value in fields.items())
        line = " ".join(str(p) for p in parts)
        if record.exc_info:
            line += "\n" + self.formatException(record.exc_info)
        return line


class StructuredLogger:
    """Thin wrapper over a stdlib logger adding keyword fields and the
    ambient :func:`log_context` to every record."""

    __slots__ = ("_logger",)

    def __init__(self, logger: logging.Logger) -> None:
        self._logger = logger

    @property
    def stdlib(self) -> logging.Logger:
        return self._logger

    def enabled_for(self, level: int) -> bool:
        return self._logger.isEnabledFor(level)

    def _log(self, level: int, event: str, exc_info: Any,
             fields: Dict[str, Any]) -> None:
        merged = dict(_context.get())
        merged.update(fields)
        self._logger.log(level, event, exc_info=exc_info,
                         extra={"fields": merged})

    def debug(self, event: str, **fields: Any) -> None:
        if self._logger.isEnabledFor(logging.DEBUG):
            self._log(logging.DEBUG, event, None, fields)

    def info(self, event: str, **fields: Any) -> None:
        if self._logger.isEnabledFor(logging.INFO):
            self._log(logging.INFO, event, None, fields)

    def warning(self, event: str, **fields: Any) -> None:
        if self._logger.isEnabledFor(logging.WARNING):
            self._log(logging.WARNING, event, None, fields)

    def error(self, event: str, exc_info: Any = None, **fields: Any
              ) -> None:
        if self._logger.isEnabledFor(logging.ERROR):
            self._log(logging.ERROR, event, exc_info, fields)


def get_logger(name: str) -> StructuredLogger:
    """Project logger ``repro.<name>`` (or the root for ``""``)."""
    full = f"{ROOT_LOGGER}.{name}" if name else ROOT_LOGGER
    return StructuredLogger(logging.getLogger(full))


_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}


def configure(level: str = "info", *, fmt: str = "json",
              stream: Optional[TextIO] = None,
              export_env: bool = True) -> None:
    """Install the structured handler on the ``repro`` logger.

    Idempotent: re-running replaces the previously installed handler
    (found by name) instead of stacking duplicates. Logs go to
    ``stream`` (default stderr, keeping stdout free for the CLI's
    parseable output). ``export_env=True`` records the configuration in
    ``REPRO_LOG`` so spawn-mode fabric workers — which do not inherit
    handlers — can rebuild it via :func:`configure_from_env`.
    """
    if level not in _LEVELS:
        raise ValueError(f"unknown log level {level!r}")
    if fmt not in ("json", "human"):
        raise ValueError(f"unknown log format {fmt!r}")
    root = logging.getLogger(ROOT_LOGGER)
    for handler in list(root.handlers):
        if handler.get_name() == _HANDLER_NAME:
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.set_name(_HANDLER_NAME)
    handler.setFormatter(JsonFormatter() if fmt == "json"
                         else HumanFormatter())
    root.addHandler(handler)
    root.setLevel(_LEVELS[level])
    root.propagate = False
    if export_env:
        os.environ[ENV_VAR] = f"{fmt}:{level}"


def configure_from_env(env: Optional[Dict[str, str]] = None) -> bool:
    """Rebuild the parent's logging configuration from ``REPRO_LOG``
    (``<format>:<level>``); no-op when unset. Called by fabric worker
    processes on startup. Returns True when configuration happened."""
    value = (env if env is not None else os.environ).get(ENV_VAR)
    if not value:
        return False
    fmt, _, level = value.partition(":")
    try:
        configure(level or "info", fmt=fmt or "json", export_env=False)
    except ValueError:
        return False
    return True
