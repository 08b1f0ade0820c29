"""Client settings that no wait and no JSON request can hold fail when
--config is read, as one error line naming the field and the file."""

from __future__ import annotations

import json
import socket
import urllib.error

import pytest

from cgqa import llm
from cgqa.cli import main
from cgqa.graph import dump_graph, ingest_triples
from cgqa.llm import ChatError, ChatMessage, ClientConfig, HttpChatClient

# Nothing listens on the discard port, so a request there is refused.
UNREACHABLE = "http://127.0.0.1:9/v1"
MESSAGES = [ChatMessage("system", "You are terse."),
            ChatMessage("user", "hello")]


@pytest.fixture
def ask_http(tmp_path):
    """The argv of an ask over the http backend, up to its --config."""
    graph = tmp_path / "movies.jsonl"
    dump_graph(ingest_triples([("Heat", "directed_by", "Mann")]), str(graph))
    return ["ask", "Who directed Heat?", "--graph", str(graph), "--backend",
            "http", "--self-consistency", "1", "--config"]


def config_error(ask_http, tmp_path, capsys, text: str) -> str:
    path = tmp_path / "client.json"
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main([*ask_http, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    prefix = f"error: {path}: "
    assert err.startswith(prefix)
    return err[len(prefix):-1]


@pytest.mark.parametrize("field, value", [
    ("timeout", "1e999"), ("retry_backoff", "1e999"), ("timeout", "1e10"),
    ("retry_backoff", "1e10"), ("retry_backoff", "-1e10"),
    ("temperature", "NaN"), ("timeout", "NaN"), ("temperature", "-Infinity"),
], ids=["timeout_inf", "backoff_inf", "timeout_1e10", "backoff_1e10",
        "backoff_minus_1e10", "temperature_nan", "timeout_nan",
        "temperature_minus_inf"])
def test_config_value_no_request_can_hold_fails_on_read(
        ask_http, tmp_path, capsys, field, value):
    text = f'{{"endpoint": "{UNREACHABLE}", "{field}": {value}}}'
    assert config_error(ask_http, tmp_path, capsys, text) == (
        f"field '{field}' must be a number from -1000000000 to 1000000000")


@pytest.mark.parametrize("config, want", [
    ({"retries": -1}, "retries must be >= 0"),
    ({"timeout": 0}, "timeout must be positive"),
], ids=["retries_negative", "timeout_zero"])
def test_config_out_of_range_fails_on_read(ask_http, tmp_path, capsys,
                                           config, want):
    text = json.dumps({"endpoint": UNREACHABLE, **config})
    assert config_error(ask_http, tmp_path, capsys, text) == want
    with pytest.raises(ValueError, match=want):
        ClientConfig(**config)


def test_the_longest_wait_fits_a_socket_timeout():
    with socket.socket() as sock:
        sock.settimeout(llm._MAX_WAIT)
        assert sock.gettimeout() == llm._MAX_WAIT


def test_a_timeout_set_in_code_past_the_longest_wait_cannot_crash():
    # ClientConfig.read bounds a --config timeout; one set in code is only
    # positive, and a socket holds no timeout of 1e10 seconds
    config = ClientConfig(backend="http", endpoint=UNREACHABLE,
                          timeout=1e10, retries=0)
    with pytest.raises(ChatError):
        HttpChatClient(config).complete(MESSAGES)


def test_a_nan_timeout_set_in_code_is_refused():
    # nan <= 0 is False, so it once reached socket.settimeout as a
    # ValueError instead of failing here or as a ChatError
    with pytest.raises(ValueError, match="^timeout must be positive$"):
        ClientConfig(backend="http", endpoint=UNREACHABLE,
                     timeout=float("nan"))


class TestBackoff:
    @pytest.fixture
    def waits(self, monkeypatch):
        """Every request is refused; waits are recorded, never slept."""
        def refuse(*args, **kwargs):
            raise urllib.error.URLError(ConnectionRefusedError(111, "refused"))
        monkeypatch.setattr(llm.urllib.request, "urlopen", refuse)
        waits = []
        monkeypatch.setattr(llm.time, "sleep", waits.append)
        return waits

    def test_a_doubling_backoff_stops_at_the_longest_wait(self, waits):
        config = ClientConfig(backend="http", endpoint=UNREACHABLE,
                              retries=3, retry_backoff=4e8)
        with pytest.raises(ChatError, match="refused"):
            HttpChatClient(config).complete(MESSAGES)
        assert waits == [4e8, 8e8, llm._MAX_WAIT]

    def test_many_retries_without_backoff_never_wait(self, waits):
        # 2 ** 1024 is past float range; the delay must not compute it
        config = ClientConfig(backend="http", endpoint=UNREACHABLE,
                              retries=1100, retry_backoff=0.0)
        with pytest.raises(ChatError, match="refused"):
            HttpChatClient(config).complete(MESSAGES)
        assert waits == []
