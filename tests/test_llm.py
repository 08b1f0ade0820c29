"""Chat clients: scripted playback determinism and HTTP wire behavior."""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgqa import llm
from cgqa.correction import PipelineConfig, generate_initial
from cgqa.graph import ingest_table
from cgqa.llm import (
    ChatError,
    ChatMessage,
    ClientConfig,
    HttpChatClient,
    HttpStatusError,
    MalformedResponseError,
    ScriptExhaustedError,
    ScriptedChatClient,
    flatten_messages,
    make_client,
    request_digest,
)

MESSAGES = [
    ChatMessage("system", "You are terse."),
    ChatMessage("user", "hello"),
]


class TestScripted:
    def test_keyed_playback(self):
        digest = request_digest(MESSAGES)
        client = ScriptedChatClient(
            [{"key": digest, "reply": "query1 = count(set=output_of_query1)"}]
        )
        assert client.complete(MESSAGES).startswith("query1 =")

    def test_keyed_entries_consumed_in_order(self):
        digest = request_digest(MESSAGES)
        client = ScriptedChatClient(
            [{"key": digest, "reply": "first"}, {"key": digest, "reply": "second"}]
        )
        assert client.complete(MESSAGES) == "first"
        assert client.complete(MESSAGES) == "second"

    def test_ordered_fallback(self):
        client = ScriptedChatClient([{"reply": "a"}, {"reply": "b"}])
        assert client.complete(MESSAGES) == "a"
        assert client.complete(MESSAGES) == "b"

    def test_exhaustion_fails_loudly(self):
        client = ScriptedChatClient([{"reply": "a"}])
        client.complete(MESSAGES)
        with pytest.raises(ScriptExhaustedError):
            client.complete(MESSAGES)

    def test_unscripted_request_without_fallback(self):
        client = ScriptedChatClient([{"key": "deadbeef00000000",
                                      "reply": "x"}])
        with pytest.raises(ScriptExhaustedError):
            client.complete(MESSAGES)

    def test_deterministic_replay(self, tmp_path):
        path = tmp_path / "script.jsonl"
        entries = [{"key": request_digest(MESSAGES), "reply": "r1"},
                   {"reply": "r2"}]
        path.write_text(
            "".join(json.dumps(e) + "\n" for e in entries), encoding="utf-8"
        )
        seq1 = []
        seq2 = []
        for seq in (seq1, seq2):
            client = ScriptedChatClient.from_file(str(path))
            seq.append(client.complete(MESSAGES))
            seq.append(client.complete(MESSAGES))
        assert seq1 == seq2 == ["r1", "r2"]

    def test_digest_depends_on_content(self):
        other = [ChatMessage("system", "You are terse."),
                 ChatMessage("user", "bye")]
        assert request_digest(MESSAGES) != request_digest(other)
        assert request_digest(MESSAGES) == request_digest(list(MESSAGES))


class _Handler(BaseHTTPRequestHandler):
    # (status, body) or (status, body, extra response headers)
    behaviors: list[tuple] = []
    requests: list[dict] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        _Handler.requests.append(json.loads(self.rfile.read(length)))
        status, body, *extra = (
            _Handler.behaviors.pop(0) if _Handler.behaviors else (200, b"{}")
        )
        self.send_response(status)
        for name, value in (extra[0].items() if extra else ()):
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.behaviors = []
    _Handler.requests = []
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


def _ok_body(text: str) -> bytes:
    return json.dumps({"choices": [{"message": {"content": text}}]}).encode()


class TestHttp:
    def test_success_and_wire_format(self, http_server):
        _Handler.behaviors = [(200, _ok_body("hi there"))]
        config = ClientConfig(backend="http", endpoint=http_server,
                              model="test-model", temperature=0.25,
                              retry_backoff=0.0)
        client = HttpChatClient(config)
        assert client.complete(MESSAGES) == "hi there"
        sent = _Handler.requests[-1]
        assert sent["model"] == "test-model"
        assert sent["temperature"] == 0.25
        assert sent["messages"] == [
            {"role": "system", "content": "You are terse."},
            {"role": "user", "content": "hello"},
        ]

    def test_429_retries_then_fails(self, http_server):
        _Handler.behaviors = [(429, b"slow down")] * 3
        config = ClientConfig(backend="http", endpoint=http_server,
                              retries=2, retry_backoff=0.0)
        with pytest.raises(HttpStatusError) as exc_info:
            HttpChatClient(config).complete(MESSAGES)
        assert exc_info.value.code == 429
        assert len(_Handler.requests) == 3  # initial try + two retries

    def test_retry_recovers(self, http_server):
        _Handler.behaviors = [(429, b""), (200, _ok_body("ok"))]
        config = ClientConfig(backend="http", endpoint=http_server,
                              retries=2, retry_backoff=0.0)
        assert HttpChatClient(config).complete(MESSAGES) == "ok"

    def test_client_error_not_retried(self, http_server):
        _Handler.behaviors = [(400, b"bad request")] * 2
        config = ClientConfig(backend="http", endpoint=http_server,
                              retries=2, retry_backoff=0.0)
        with pytest.raises(HttpStatusError) as exc_info:
            HttpChatClient(config).complete(MESSAGES)
        assert exc_info.value.code == 400
        assert len(_Handler.requests) == 1

    def test_malformed_response(self, http_server):
        _Handler.behaviors = [(200, b'{"nope": true}')]
        config = ClientConfig(backend="http", endpoint=http_server,
                              retry_backoff=0.0)
        with pytest.raises(MalformedResponseError):
            HttpChatClient(config).complete(MESSAGES)

    def test_api_key_header(self, http_server, monkeypatch):
        monkeypatch.setenv("CGQA_API_KEY", "sekrit")
        _Handler.behaviors = [(200, _ok_body("x"))]
        config = ClientConfig(backend="http", endpoint=http_server,
                              retry_backoff=0.0)
        HttpChatClient(config).complete(MESSAGES)
        # header validation happens server-side in real deployments; here we
        # only check the request went through with the key configured
        assert _Handler.requests

    def test_endpoint_from_environment(self, http_server, monkeypatch):
        monkeypatch.setenv("CGQA_ENDPOINT", http_server)
        _Handler.behaviors = [(200, _ok_body("from env"))]
        config = ClientConfig(backend="http", retry_backoff=0.0)
        assert HttpChatClient(config).complete(MESSAGES) == "from env"

    def test_no_endpoint_anywhere(self, monkeypatch):
        monkeypatch.delenv("CGQA_ENDPOINT", raising=False)
        config = ClientConfig(backend="http", retry_backoff=0.0)
        with pytest.raises(ChatError):
            HttpChatClient(config).complete(MESSAGES)


class TestRetryAfter:
    """Waits are recorded by a patched time.sleep, so no test really waits."""

    @pytest.fixture
    def waits(self, monkeypatch):
        waits = []
        monkeypatch.setattr(llm.time, "sleep", waits.append)
        return waits

    @pytest.mark.parametrize("code, value, backoff, want", [
        (429, "3", 0.5, [3]),
        (503, " 2 ", 0.0, [2]),
        (429, "0", 0.5, [0.5]),  # the backoff is longer
        (503, "Wed, 21 Oct 2015 07:28:00 GMT", 0.5, [0.5]),  # an HTTP-date
        (429, "1.5", 0.5, [0.5]),
        (429, "-1", 0.5, [0.5]),
        (429, "soon", 0.0, []),
        (500, "3", 0.5, [0.5]),  # only 429 and 503 are honoured
    ])
    def test_wait_is_the_longer_of_retry_after_and_backoff(
            self, http_server, waits, code, value, backoff, want):
        _Handler.behaviors = [(code, b"busy", {"Retry-After": value}),
                              (200, _ok_body("ok"))]
        config = ClientConfig(backend="http", endpoint=http_server,
                              retries=2, retry_backoff=backoff)
        assert HttpChatClient(config).complete(MESSAGES) == "ok"
        assert waits == want
        assert len(_Handler.requests) == 2

    def test_backoff_grows_past_retry_after(self, http_server, waits):
        _Handler.behaviors = [(429, b"", {"Retry-After": "1"})] * 2 + [
            (200, _ok_body("ok"))]
        config = ClientConfig(backend="http", endpoint=http_server,
                              retries=2, retry_backoff=0.75)
        assert HttpChatClient(config).complete(MESSAGES) == "ok"
        assert waits == [1, 1.5]

    @pytest.mark.parametrize("code", [429, 503])
    def test_retry_after_beyond_timeout_fails_at_once(self, http_server,
                                                      waits, code):
        _Handler.behaviors = [(code, b"later", {"Retry-After": "60"}),
                              (200, _ok_body("ok"))]
        config = ClientConfig(backend="http", endpoint=http_server,
                              timeout=5, retries=2, retry_backoff=0.5)
        with pytest.raises(HttpStatusError) as exc_info:
            HttpChatClient(config).complete(MESSAGES)
        assert exc_info.value.code == code
        assert waits == []
        assert len(_Handler.requests) == 1


class _FanOutServer(ThreadingHTTPServer):
    """Holds each request until `target` are in flight at once (or a safety
    timeout passes), then answers earlier arrivals later, so replies finish
    in roughly the reverse of the order they were sent. The request that
    arrives `fail_arrival`-th gets HTTP 404 without waiting."""

    daemon_threads = True

    def __init__(self, target: int, fail_arrival: int | None = None) -> None:
        super().__init__(("127.0.0.1", 0), _FanOutHandler)
        self.target = target
        self.fail_arrival = fail_arrival
        self.lock = threading.Lock()
        self.all_in = threading.Event()
        self.arrived = 0
        self.in_flight = 0
        self.max_in_flight = 0


class _FanOutHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        srv = self.server
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with srv.lock:
            arrival = srv.arrived
            srv.arrived += 1
            srv.in_flight += 1
            srv.max_in_flight = max(srv.max_in_flight, srv.in_flight)
            if srv.in_flight >= srv.target:
                srv.all_in.set()
        if arrival == srv.fail_arrival:
            status, body = 404, b"no such model"
        else:
            srv.all_in.wait(timeout=5)
            time.sleep(0.02 * max(srv.target - arrival, 0))
            status, body = 200, _ok_body(f"reply {arrival}")
        with srv.lock:
            srv.in_flight -= 1
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def fan_out_server():
    servers = []

    def start(target, fail_arrival=None):
        server = _FanOutServer(target, fail_arrival)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server, HttpChatClient(ClientConfig(
            backend="http", retry_backoff=0.0,
            endpoint=f"http://127.0.0.1:{server.server_port}/v1"))

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


class _TaggingPool(ThreadPoolExecutor):
    """Prefixes each result with the index of its submission."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._submitted = 0

    def submit(self, fn, /, *args, **kwargs):
        i = self._submitted
        self._submitted += 1
        return super().submit(lambda: f"{i}:{fn(*args, **kwargs)}")


class TestSample:
    def test_samples_are_in_flight_together(self, fan_out_server):
        server, client = fan_out_server(target=5)
        replies = client.sample(MESSAGES, 5)
        assert server.max_in_flight == 5
        assert sorted(replies) == [f"reply {i}" for i in range(5)]

    def test_replies_in_submission_order(self, fan_out_server, monkeypatch):
        monkeypatch.setattr(llm, "ThreadPoolExecutor", _TaggingPool)
        _, client = fan_out_server(target=5)
        replies = client.sample(MESSAGES, 5)
        assert [r.split(":")[0] for r in replies] == ["0", "1", "2", "3", "4"]

    def test_failure_raised_after_every_sample_finished(self, fan_out_server):
        server, client = fan_out_server(target=4, fail_arrival=0)
        finished = []
        complete = client.complete

        def counting_complete(messages):
            try:
                return complete(messages)
            finally:
                finished.append(1)

        client.complete = counting_complete
        with pytest.raises(HttpStatusError) as exc_info:
            client.sample(MESSAGES, 5)
        assert exc_info.value.code == 404
        assert len(finished) == 5
        assert server.arrived == 5  # the 404 is not retried

    def test_at_most_eight_in_flight(self, fan_out_server):
        server, client = fan_out_server(target=8)
        replies = client.sample(MESSAGES, 10)
        assert len(replies) == 10
        assert server.arrived == 10
        assert server.max_in_flight == 8

    def test_interrupt_cancels_unsent_samples(self, monkeypatch):
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        def interrupted_wait(futures):
            raise KeyboardInterrupt

        release = threading.Event()
        started = []

        def blocking_complete(messages):
            started.append(1)
            release.wait(timeout=5)
            return "reply"

        monkeypatch.setattr(llm, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(llm, "wait", interrupted_wait)
        client = HttpChatClient(ClientConfig(backend="http"))
        client.complete = blocking_complete
        with pytest.raises(KeyboardInterrupt):
            client.sample(MESSAGES, 10)
        release.set()
        pools[0].shutdown(wait=True)
        assert len(started) <= 8  # the queued samples never ran


class TestContract:
    def test_first_message_must_be_system(self):
        client = ScriptedChatClient([{"reply": "x"}])
        with pytest.raises(ChatError):
            client.complete([ChatMessage("user", "hi")])
        with pytest.raises(ChatError):
            client.complete([])

    def test_bad_role_rejected(self):
        with pytest.raises(ValueError):
            ChatMessage("robot", "hi")

    def test_make_client_dispatch(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"reply": "a"}\n', encoding="utf-8")
        scripted = make_client(ClientConfig(backend="scripted",
                                            script_path=str(path)))
        assert isinstance(scripted, ScriptedChatClient)
        http = make_client(ClientConfig(backend="http", endpoint="http://x"))
        assert isinstance(http, HttpChatClient)
        with pytest.raises(ChatError):
            make_client(ClientConfig(backend="carrier-pigeon"))


def test_flatten_messages_role_prefixes():
    flat = flatten_messages(MESSAGES)
    assert flat == ("### system\nYou are terse.\n\n### user\nhello\n\n"
                    "### assistant\n")


def test_scripted_client_is_thread_safe():
    import threading

    client = ScriptedChatClient([{"reply": str(i)} for i in range(64)])
    got: list[str] = []
    lock = threading.Lock()

    def worker():
        for _ in range(8):
            reply = client.complete(MESSAGES)
            with lock:
                got.append(reply)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(got, key=int) == [str(i) for i in range(64)]


def test_digest_bytes_are_pinned():
    # Reply scripts written by older versions key replies by these digests.
    messages = [
        ChatMessage("system", 'Answer with a plan.\nUse "query1 = ..." lines.'),
        ChatMessage("user", 'Wer leitete die Oper in Zürich? C:\\temp \\ '
                            '"quoted" — 東京'),
        ChatMessage("assistant", "query1 = get_information("
                                 "head_entity='O\\'Brien')"),
    ]
    assert request_digest(messages) == "ffcfc987e7e253c3"


OTHER = [ChatMessage("system", "You are terse."), ChatMessage("user", "bye")]


def _outcome(call):
    try:
        return ("replies", call())
    except ChatError as exc:
        return ("raised", type(exc), str(exc))


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(st.tuples(
        st.sampled_from([request_digest(MESSAGES), request_digest(OTHER),
                         None]),
        st.sampled_from(["a", "b", "c", "d"])), max_size=12),
    n=st.integers(1, 8),
    after=st.lists(st.booleans(), max_size=8),
)
def test_sample_equals_repeated_complete(entries, n, after):
    script = [{"key": key, "reply": f"{reply}{i}"}
              for i, (key, reply) in enumerate(entries)]
    batched = ScriptedChatClient(script)
    one_by_one = ScriptedChatClient(script)

    def n_completes():
        return [one_by_one.complete(MESSAGES) for _ in range(n)]

    assert _outcome(lambda: batched.sample(MESSAGES, n)) == _outcome(
        n_completes)
    # Both clients are left with the same queues.
    for messages in (MESSAGES if same else OTHER for same in after):
        assert _outcome(lambda: batched.complete(messages)) == _outcome(
            lambda: one_by_one.complete(messages))


def test_generate_initial_digests_one_batch_once(monkeypatch):
    digests = []

    def counting_digest(messages):
        digests.append(1)
        return request_digest(messages)

    monkeypatch.setattr(llm, "request_digest", counting_digest)
    cg = ingest_table([["Alice", "20"]], ["Name", "Age"])
    plan = "query1 = get_information(head_entity='Alice', relation='Age')"
    client = ScriptedChatClient([{"reply": plan}] * 5)
    text, outcome = generate_initial("How old is Alice?", "source: table",
                                     cg, client, PipelineConfig(sc_n=5))
    assert (text, outcome.answer) == (plan, frozenset({20}))
    assert len(digests) == 1
