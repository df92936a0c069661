"""Structured logging for the ``repro.*`` logger hierarchy.

The library logs through named children of the ``repro`` logger
(``repro.api``, ``repro.core.params``, ...).  By default nothing is
configured — library code never hijacks the host application's logging.
:func:`configure_logging` opts in: it installs exactly one (tagged, hence
idempotently replaceable) stream handler on the ``repro`` root, either
human-readable or as JSON lines via :class:`JsonLogFormatter`.

:func:`log_event` is the structured emission helper: the *event* name
becomes both the message and an ``event`` field, and every keyword rides
along as a first-class JSON field (``logging``'s ``extra`` mechanism), so
downstream collectors can filter on ``event == "legacy_kwarg"`` instead of
regex-ing message strings.  When a request trace context is active
(:func:`repro.obs.trace.trace_scope`), every event automatically carries
its ``trace_id``, so one slow query's log lines and trace spans join on
the same id across the router and its shard workers.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import IO

from repro.obs.trace import current_trace_id

__all__ = [
    "JsonLogFormatter",
    "configure_logging",
    "get_logger",
    "log_event",
    "reset_logging",
]

ROOT_LOGGER_NAME = "repro"

#: Attributes every LogRecord carries; anything else came in via ``extra``.
_STANDARD_RECORD_ATTRS = frozenset(
    logging.LogRecord("", 0, "", 0, "", (), None).__dict__
) | {"message", "asctime", "taskName"}

_HANDLER_TAG = "_repro_obs_handler"


class JsonLogFormatter(logging.Formatter):
    """Format each record as one JSON object per line.

    Core fields: ``ts`` (epoch seconds), ``level``, ``logger``,
    ``message``.  Every non-standard record attribute — i.e. everything
    passed through ``extra`` — is merged in at the top level; exception
    info renders under ``exception``.
    """

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, object] = {
            "ts": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        for key, value in record.__dict__.items():
            if key not in _STANDARD_RECORD_ATTRS and not key.startswith("_"):
                payload[key] = value
        if record.exc_info:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=str)


def get_logger(name: str = "") -> logging.Logger:
    """Return a logger inside the ``repro.*`` hierarchy.

    ``get_logger("api")`` and ``get_logger("repro.api")`` are the same
    logger; the empty string names the ``repro`` root itself.
    """
    if not name:
        qualified = ROOT_LOGGER_NAME
    elif name == ROOT_LOGGER_NAME or name.startswith(ROOT_LOGGER_NAME + "."):
        qualified = name
    else:
        qualified = f"{ROOT_LOGGER_NAME}.{name}"
    return logging.getLogger(qualified)


def configure_logging(
    *,
    json_format: bool = True,
    level: int | str = logging.INFO,
    stream: IO[str] | None = None,
) -> logging.Logger:
    """Install the library's stream handler on the ``repro`` root logger.

    Idempotent: a handler installed by a previous call is replaced, never
    stacked.  Returns the configured root logger.  With *json_format*
    (default) records render through :class:`JsonLogFormatter`; otherwise a
    conventional one-line text format is used.  *stream* defaults to
    ``sys.stderr`` so structured logs never mix into command output.
    """
    root = get_logger()
    reset_logging()
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    setattr(handler, _HANDLER_TAG, True)
    if json_format:
        handler.setFormatter(JsonLogFormatter())
    else:
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
        )
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False
    return root


def reset_logging() -> None:
    """Remove any handler :func:`configure_logging` installed (testing aid)."""
    root = get_logger()
    for handler in list(root.handlers):
        if getattr(handler, _HANDLER_TAG, False):
            root.removeHandler(handler)
    root.propagate = True


def log_event(
    logger: logging.Logger,
    event: str,
    level: int = logging.INFO,
    **fields: object,
) -> None:
    """Emit one structured event record.

    The *event* name doubles as the human-readable message; *fields*
    become top-level JSON attributes via ``extra``.  Records are cheap
    no-ops unless a handler is listening at *level*.  An active trace
    context contributes a ``trace_id`` field (an explicit keyword wins).

    A field named like a standard :class:`logging.LogRecord` attribute
    (``name``, ``msg``, ``module``, ...) raises :class:`ValueError` at
    every level — ``logging`` would refuse it only once a handler
    listens, so the mistake would surface in production, not in tests.
    """
    if not _STANDARD_RECORD_ATTRS.isdisjoint(fields):
        reserved = sorted(_STANDARD_RECORD_ATTRS.intersection(fields))
        raise ValueError(
            f"log_event({event!r}): field(s) {reserved} would overwrite "
            "LogRecord attributes; rename them"
        )
    if logger.isEnabledFor(level):
        if "trace_id" not in fields:
            trace_id = current_trace_id()
            if trace_id is not None:
                fields["trace_id"] = trace_id
        logger.log(level, event, extra={"event": event, **fields})
