"""Chat-completion clients: an HTTP backend and a deterministic scripted one.

The correction loop only sees an object with a complete() method, so the two
backends are interchangeable; sample() asks for the self-consistency replies
of one prompt at once, sent concurrently or digested once. The scripted
client replays canned replies —
keyed by a digest of the exact request, with an in-order fallback —
and fails loudly when asked something it has no reply for.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from typing import Iterable, Sequence

from .jsonl import Record, check_types, read_jsonl

ROLES = ("system", "user", "assistant")
_MAX_SAMPLES_IN_FLIGHT = 8
_MAX_WAIT = 1e9  # seconds (about 31 years): a socket timeout or sleep holds it


class ChatError(Exception):
    """Base for client failures."""


class ChatTimeout(ChatError):
    pass


class HttpStatusError(ChatError):
    def __init__(self, code: int, body: str = "") -> None:
        self.code = code
        super().__init__(f"HTTP {code}: {body[:200]}")


class MalformedResponseError(ChatError):
    pass


class ScriptExhaustedError(ChatError):
    pass


@dataclass(frozen=True)
class ChatMessage:
    """One chat message; content_json, when set, is content written as a
    JSON string literal, which request_digest then need not escape."""

    role: str
    content: str
    content_json: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if self.content is None:
            raise ValueError("content must not be None")


@dataclass
class ClientConfig(Record):
    backend: str = "scripted"  # "http" | "scripted"
    endpoint: str = ""
    model: str = ""
    temperature: float = 0.0
    timeout: float = 30.0
    retries: int = 2
    retry_backoff: float = 0.5
    script_path: str = ""
    api_key_env: str = "CGQA_API_KEY"

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if not self.timeout > 0:  # NaN too
            raise ValueError("timeout must be positive")

    @classmethod
    def read(cls, data: dict) -> ClientConfig:
        """A --config object (from_dict, strict) that requests and waits
        hold; a number no wait can hold is named before __post_init__ runs,
        so a NaN timeout fails as out of range, not as not positive."""
        for name in ("temperature", "timeout", "retry_backoff"):
            value = data.get(name, 0.0)
            if isinstance(value, (int, float)) and not abs(value) <= _MAX_WAIT:
                raise ValueError(f"field '{name}' must be a number from "
                                 f"-{_MAX_WAIT:.0f} to {_MAX_WAIT:.0f}")
        return cls.from_dict(data, strict=True)


def flatten_messages(messages: Sequence[ChatMessage]) -> str:
    """Flatten to a single string, each role prefixed with '###', ending in
    an empty assistant block that cues the reply."""
    blocks = [f"### {m.role}\n{m.content}" for m in messages]
    return "\n\n".join([*blocks, "### assistant\n"])


def request_digest(messages: Sequence[ChatMessage]) -> str:
    """Stable digest of a request, used to key scripted replies: of the
    JSON that json.dumps([{"role": m.role, "content": m.content} for m in
    messages], ensure_ascii=False, sort_keys=True) writes, put together
    from each message's content_json (or its escaped content) and its role,
    which needs no escaping."""
    canon = ", ".join(
        f'{{"content": {m.content_json or encode_basestring(m.content)}, '
        f'"role": "{m.role}"}}' for m in messages)
    return hashlib.sha256(f"[{canon}]".encode("utf-8")).hexdigest()[:16]


class ScriptedChatClient:
    """Replays scripted replies, bit-deterministically.

    Entries with a "key" serve requests whose digest matches, in file order;
    entries without a key form an ordered fallback queue consumed one per
    unmatched request.
    """

    def __init__(self, entries: Iterable[dict]) -> None:
        self._keyed: dict[str, list[str]] = {}
        self._ordered: list[str] = []
        for entry in entries:
            if entry.get("key"):
                self._keyed.setdefault(entry["key"], []).append(entry["reply"])
            else:
                self._ordered.append(entry["reply"])
        self._lock = threading.Lock()  # one client may serve many threads

    @classmethod
    def from_file(cls, path: str) -> "ScriptedChatClient":
        def build(entry: dict) -> dict:
            check_types(entry, {"key": str | None, "reply": str})
            return {"key": entry.get("key"), "reply": entry["reply"]}
        return cls(read_jsonl(path, build))

    @property
    def replays_in_order(self) -> bool:
        """Whether some reply goes to whichever request comes first rather
        than to one request: then concurrent callers race for it."""
        return bool(self._ordered)

    def complete(self, messages: Sequence[ChatMessage]) -> str:
        return self.sample(messages, 1)[0]

    def sample(self, messages: Sequence[ChatMessage], n: int) -> list[str]:
        """What n complete() calls would return, raise and leave queued,
        from one digest and one hold of the lock."""
        if n < 1:
            raise ValueError("n must be >= 1")
        _check_messages(messages)
        digest = request_digest(messages)
        with self._lock:
            queue = self._keyed.get(digest, [])
            keyed = queue[:n]
            replies = keyed + self._ordered[:n - len(keyed)]
            del queue[:len(keyed)], self._ordered[:len(replies) - len(keyed)]
        if len(replies) < n:
            raise ScriptExhaustedError(f"no scripted reply for request "
                                       f"digest {digest}")
        return replies


class HttpChatClient:
    """Minimal client for the common chat-completions wire format."""

    def __init__(self, config: ClientConfig) -> None:
        self.config = config

    def complete(self, messages: Sequence[ChatMessage]) -> str:
        """One completion; a retried 429 or 503 waits its Retry-After seconds
        when longer than the backoff, and fails at once beyond timeout."""
        _check_messages(messages)
        cfg = self.config
        endpoint = cfg.endpoint or os.environ.get("CGQA_ENDPOINT", "")
        if not endpoint:
            raise ChatError("no endpoint configured (set CGQA_ENDPOINT)")
        payload = json.dumps(
            {
                "model": cfg.model,
                "messages": [{"role": m.role, "content": m.content}
                             for m in messages],
                "temperature": cfg.temperature,
            }, allow_nan=False
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(cfg.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        last_exc: Exception | None = None
        for attempt in range(cfg.retries + 1):
            delay = min(cfg.retry_backoff * 2 ** min(attempt, 64), _MAX_WAIT)
            try:
                req = urllib.request.Request(endpoint, data=payload,
                                             headers=headers)
                with urllib.request.urlopen(
                        req, timeout=min(cfg.timeout, _MAX_WAIT)) as resp:
                    return _parse_completion(resp.read())
            except urllib.error.HTTPError as exc:
                last_exc = HttpStatusError(exc.code, exc.read().decode(
                    "utf-8", "replace"))
                if exc.code not in (429, 500, 502, 503, 504):
                    raise last_exc from exc
                after = (exc.headers or {}).get("Retry-After", "").strip()
                if (exc.code in (429, 503) and after.isascii()
                        and after.isdigit()):
                    if int(after) > cfg.timeout:
                        raise last_exc from exc
                    delay = max(delay, int(after))
            except TimeoutError as exc:
                last_exc = ChatTimeout(str(exc))
            except urllib.error.URLError as exc:
                if isinstance(exc.reason, TimeoutError):
                    last_exc = ChatTimeout(str(exc))
                else:
                    last_exc = ChatError(str(exc))
            if attempt < cfg.retries and delay > 0:
                time.sleep(delay)
        assert last_exc is not None
        raise last_exc

    def sample(self, messages: Sequence[ChatMessage], n: int) -> list[str]:
        """n completions of one request, returned in submission order.

        At most 8 requests are in flight at once, each with its own retries.
        If any fails, the others are still waited for, then the failure of
        the lowest-index sample is raised. If the wait is interrupted (say by
        Ctrl-C), samples not yet sent are cancelled; those in flight still
        run to the end of their retries before the process can exit.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        # Each send stays on its own pool thread, which spreads the connects
        # out: sent from one thread, they arrive as a burst, and a server
        # with a short listen backlog (socketserver's is 5) drops some, each
        # costing a TCP retransmit of about 1 s.
        pool = ThreadPoolExecutor(max_workers=min(n, _MAX_SAMPLES_IN_FLIGHT))
        try:
            futures = [pool.submit(self.complete, messages) for _ in range(n)]
            wait(futures)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return [f.result() for f in futures]


def _parse_completion(body: bytes) -> str:
    try:
        data = json.loads(body.decode("utf-8"))
        content = data["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise MalformedResponseError(
            f"cannot extract completion: {body[:200]!r}"
        ) from exc
    if not isinstance(content, str):
        raise MalformedResponseError(f"completion content not text: {content!r}")
    return content


def _check_messages(messages: Sequence[ChatMessage]) -> None:
    if not messages:
        raise ChatError("empty message list")
    if messages[0].role != "system":
        raise ChatError("first message must carry the system role")


def make_client(config: ClientConfig):
    if config.backend == "scripted":
        if not config.script_path:
            raise ChatError("scripted backend needs script_path")
        return ScriptedChatClient.from_file(config.script_path)
    if config.backend == "http":
        return HttpChatClient(config)
    raise ChatError(f"unknown backend {config.backend!r}")
