"""Tests for structured JSON logging and the log_event helper."""

import io
import json
import logging

import pytest

from repro.obs.logging import (
    JsonLogFormatter,
    configure_logging,
    get_logger,
    log_event,
    reset_logging,
)


@pytest.fixture(autouse=True)
def _clean_handlers():
    reset_logging()
    yield
    reset_logging()


class TestGetLogger:
    def test_names_are_qualified_into_the_repro_hierarchy(self):
        assert get_logger("api").name == "repro.api"
        assert get_logger("repro.api").name == "repro.api"
        assert get_logger().name == "repro"

    def test_children_share_the_root(self):
        assert get_logger("api").parent is get_logger()


class TestConfigureLogging:
    def test_installs_exactly_one_handler(self):
        root = configure_logging()
        configure_logging()
        configure_logging()
        assert len(root.handlers) == 1
        assert root.propagate is False

    def test_reset_removes_handler_and_restores_propagation(self):
        root = configure_logging()
        reset_logging()
        assert root.handlers == []
        assert root.propagate is True

    def test_reset_leaves_foreign_handlers_alone(self):
        root = get_logger()
        foreign = logging.NullHandler()
        root.addHandler(foreign)
        try:
            configure_logging()
            reset_logging()
            assert foreign in root.handlers
        finally:
            root.removeHandler(foreign)

    def test_json_records_reach_the_stream(self):
        stream = io.StringIO()
        configure_logging(stream=stream)
        log_event(get_logger("tests"), "unit.event", answer=42)
        record = json.loads(stream.getvalue())
        assert record["event"] == "unit.event"
        assert record["message"] == "unit.event"
        assert record["answer"] == 42
        assert record["logger"] == "repro.tests"
        assert record["level"] == "INFO"
        assert record["ts"] > 0

    def test_text_format_is_plain(self):
        stream = io.StringIO()
        configure_logging(json_format=False, stream=stream)
        get_logger("tests").info("hello")
        line = stream.getvalue()
        assert "hello" in line
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)

    def test_level_filters_events(self):
        stream = io.StringIO()
        configure_logging(stream=stream, level=logging.WARNING)
        log_event(get_logger("tests"), "quiet.event")
        assert stream.getvalue() == ""
        log_event(get_logger("tests"), "loud.event", level=logging.WARNING)
        assert json.loads(stream.getvalue())["level"] == "WARNING"


class TestReservedFields:
    """``logging`` refuses ``extra`` keys that overwrite LogRecord
    attributes, but only when a handler listens; log_event refuses them
    at every level, so the configured state of logging (and hence test
    order) cannot hide the mistake."""

    @pytest.mark.parametrize("configured", [False, True])
    @pytest.mark.parametrize("key", ["name", "msg", "module", "message"])
    def test_reserved_keys_rejected_at_every_level(self, configured, key):
        if configured:
            configure_logging(stream=io.StringIO())
        with pytest.raises(ValueError, match=key):
            log_event(get_logger("tests"), "unit.event", **{key: "x"})

    def test_breaker_transitions_log_under_info(self):
        from repro.serve import CircuitBreaker

        stream = io.StringIO()
        configure_logging(stream=stream)
        breaker = CircuitBreaker(name="unit-breaker", failure_threshold=1)
        breaker.record_failure()
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        transition = next(
            r for r in records if r["event"] == "circuit.transition"
        )
        assert transition["breaker"] == "unit-breaker"
        assert transition["to"] == "open"
        assert transition["logger"] == "repro.serve.breaker"


class TestJsonLogFormatter:
    def _record(self, **extra):
        record = logging.LogRecord(
            "repro.unit", logging.INFO, __file__, 1, "msg %s", ("arg",), None
        )
        for key, value in extra.items():
            setattr(record, key, value)
        return record

    def test_message_is_interpolated(self):
        payload = json.loads(JsonLogFormatter().format(self._record()))
        assert payload["message"] == "msg arg"

    def test_extra_fields_surface_at_top_level(self):
        payload = json.loads(
            JsonLogFormatter().format(self._record(owner="X", alias="c"))
        )
        assert payload["owner"] == "X"
        assert payload["alias"] == "c"

    def test_non_serialisable_values_fall_back_to_str(self):
        payload = json.loads(
            JsonLogFormatter().format(self._record(obj=object()))
        )
        assert payload["obj"].startswith("<object object")

    def test_exception_renders_under_exception(self):
        try:
            raise ValueError("boom")
        except ValueError:
            import sys
            record = logging.LogRecord(
                "repro.unit", logging.ERROR, __file__, 1, "failed", (),
                sys.exc_info(),
            )
        payload = json.loads(JsonLogFormatter().format(record))
        assert "ValueError: boom" in payload["exception"]
