"""Chat-completion clients: an HTTP backend and a deterministic scripted one.

The correction loop only sees an object with a complete() method, so the two
backends are interchangeable; the HTTP client also has sample(), which sends
the self-consistency requests of one prompt concurrently. The scripted
client replays canned replies —
keyed by a digest of the exact request, with an optional in-order fallback —
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
from dataclasses import dataclass
from typing import Iterable, Sequence

from .jsonl import read_jsonl

ROLES = ("system", "user", "assistant")
_MAX_SAMPLES_IN_FLIGHT = 8


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
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if self.content is None:
            raise ValueError("content must not be None")


@dataclass
class ClientConfig:
    backend: str = "scripted"  # "http" | "scripted"
    endpoint: str = ""
    model: str = ""
    temperature: float = 0.0
    timeout: float = 30.0
    retries: int = 2
    retry_backoff: float = 0.5
    script_path: str = ""
    ordered_fallback: bool = True
    api_key_env: str = "CGQA_API_KEY"

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


def messages_to_wire(messages: Sequence[ChatMessage]) -> list[dict[str, str]]:
    return [{"role": m.role, "content": m.content} for m in messages]


def flatten_messages(
    messages: Sequence[ChatMessage], add_assistant_cue: bool = False
) -> str:
    """Flatten to a single string, each role prefixed with '###'."""
    blocks = [f"### {m.role}\n{m.content}" for m in messages]
    if add_assistant_cue:
        blocks.append("### assistant\n")
    return "\n\n".join(blocks)


def request_digest(messages: Sequence[ChatMessage]) -> str:
    """Stable digest of a request, used to key scripted replies."""
    canon = json.dumps(messages_to_wire(messages), ensure_ascii=False,
                       sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


class ScriptedChatClient:
    """Replays scripted replies, bit-deterministically.

    Entries with a "key" serve requests whose digest matches, in file order;
    entries without a key form an ordered fallback queue consumed one per
    unmatched request (when ordered_fallback is on).
    """

    def __init__(
        self, entries: Iterable[dict], ordered_fallback: bool = True
    ) -> None:
        self._keyed: dict[str, list[str]] = {}
        self._ordered: list[str] = []
        for entry in entries:
            if entry.get("key"):
                self._keyed.setdefault(entry["key"], []).append(entry["reply"])
            else:
                self._ordered.append(entry["reply"])
        self._ordered_enabled = ordered_fallback
        self._lock = threading.Lock()  # one client may serve many threads

    @classmethod
    def from_file(cls, path: str, ordered_fallback: bool = True
                  ) -> "ScriptedChatClient":
        entries = read_jsonl(path, lambda entry: {
            "key": entry.get("key"), "reply": entry["reply"]})
        return cls(entries, ordered_fallback=ordered_fallback)

    def complete(self, messages: Sequence[ChatMessage]) -> str:
        _check_messages(messages)
        digest = request_digest(messages)
        with self._lock:
            queue = self._keyed.get(digest)
            if queue:
                return queue.pop(0)
            if self._ordered_enabled and self._ordered:
                return self._ordered.pop(0)
        raise ScriptExhaustedError(
            f"no scripted reply for request digest {digest}"
        )


class HttpChatClient:
    """Minimal client for the common chat-completions wire format."""

    def __init__(self, config: ClientConfig) -> None:
        self.config = config

    def complete(self, messages: Sequence[ChatMessage]) -> str:
        _check_messages(messages)
        cfg = self.config
        endpoint = cfg.endpoint or os.environ.get("CGQA_ENDPOINT", "")
        if not endpoint:
            raise ChatError("no endpoint configured (set CGQA_ENDPOINT)")
        payload = json.dumps(
            {
                "model": cfg.model,
                "messages": messages_to_wire(messages),
                "temperature": cfg.temperature,
            }
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(cfg.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        last_exc: Exception | None = None
        for attempt in range(cfg.retries + 1):
            try:
                req = urllib.request.Request(endpoint, data=payload,
                                             headers=headers)
                with urllib.request.urlopen(req, timeout=cfg.timeout) as resp:
                    return _parse_completion(resp.read())
            except urllib.error.HTTPError as exc:
                last_exc = HttpStatusError(exc.code, exc.read().decode(
                    "utf-8", "replace"))
                if exc.code not in (429, 500, 502, 503, 504):
                    raise last_exc from exc
            except TimeoutError as exc:
                last_exc = ChatTimeout(str(exc))
            except urllib.error.URLError as exc:
                if isinstance(exc.reason, TimeoutError):
                    last_exc = ChatTimeout(str(exc))
                else:
                    last_exc = ChatError(str(exc))
            if attempt < cfg.retries and cfg.retry_backoff > 0:
                time.sleep(cfg.retry_backoff * (2 ** attempt))
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
        return ScriptedChatClient.from_file(
            config.script_path, ordered_fallback=config.ordered_fallback
        )
    if config.backend == "http":
        return HttpChatClient(config)
    raise ChatError(f"unknown backend {config.backend!r}")


def chat(messages: Sequence[ChatMessage], config: ClientConfig) -> str:
    """One-shot convenience: build the configured client and complete."""
    return make_client(config).complete(messages)
