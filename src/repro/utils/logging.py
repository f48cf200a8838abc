"""Lightweight structured logging for experiment runs.

The standard :mod:`logging` module is used underneath; this wrapper adds a
uniform ``repro.*`` namespace.  Structured per-run records go out as
telemetry events (:meth:`~repro.telemetry.runtime.Telemetry.event`) through
the telemetry JSONL exporter.  The root log level is controlled by the
``REPRO_LOG_LEVEL`` environment variable (a name like ``DEBUG`` or a
numeric level); explicit ``level`` arguments win.
"""

from __future__ import annotations

import logging
import os
__all__ = ["get_logger", "env_log_level"]

_FORMAT = "%(asctime)s %(name)s %(levelname)s %(message)s"

#: Environment variable that sets the default ``repro`` log level.
LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"


def env_log_level(default: int = logging.WARNING) -> int:
    """The log level named by ``$REPRO_LOG_LEVEL`` (default when unset/bad).

    Accepts standard level names (``DEBUG``, ``info``...) and integers.
    """
    raw = os.environ.get(LOG_LEVEL_ENV, "").strip()
    if not raw:
        return default
    if raw.isdigit():
        return int(raw)
    level = logging.getLevelName(raw.upper())
    return level if isinstance(level, int) else default


def get_logger(name: str, level: int | None = None) -> logging.Logger:
    """Return a namespaced logger, configuring a handler once per process.

    ``level`` overrides the environment-derived default (see
    :func:`env_log_level`) for the shared ``repro`` root logger; it only
    takes effect on the call that first configures the handler.
    """
    logger = logging.getLogger(f"repro.{name}")
    root = logging.getLogger("repro")
    if not root.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter(_FORMAT))
        root.addHandler(handler)
        root.setLevel(env_log_level() if level is None else level)
    return logger
