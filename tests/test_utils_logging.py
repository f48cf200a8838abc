"""Tests for repro.utils.logging."""

import logging

from repro.utils.logging import LOG_LEVEL_ENV, env_log_level, get_logger


class TestGetLogger:
    def test_namespaced(self):
        logger = get_logger("crowd")
        assert logger.name == "repro.crowd"

    def test_same_name_same_logger(self):
        assert get_logger("x") is get_logger("x")


class TestEnvLogLevel:
    def test_unset_uses_default(self, monkeypatch):
        monkeypatch.delenv(LOG_LEVEL_ENV, raising=False)
        assert env_log_level() == logging.WARNING

    def test_level_name(self, monkeypatch):
        monkeypatch.setenv(LOG_LEVEL_ENV, "debug")
        assert env_log_level() == logging.DEBUG

    def test_numeric_level(self, monkeypatch):
        monkeypatch.setenv(LOG_LEVEL_ENV, "15")
        assert env_log_level() == 15

    def test_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv(LOG_LEVEL_ENV, "LOUD")
        assert env_log_level() == logging.WARNING

    def test_configures_root_level(self, monkeypatch):
        monkeypatch.setenv(LOG_LEVEL_ENV, "INFO")
        root = logging.getLogger("repro")
        saved_handlers, root.handlers = root.handlers, []
        saved_level = root.level
        try:
            get_logger("envtest")
            assert root.level == logging.INFO
        finally:
            root.handlers = saved_handlers
            root.setLevel(saved_level)
