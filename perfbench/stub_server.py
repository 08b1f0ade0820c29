"""Stub chat-completions server with a fixed reply delay.

Replies are keyed by cgqa's request_digest of the received messages; the
entries of one key are served in rotation, so repeated passes over a
dataset replay the same conversation. An unknown key gets HTTP 404, which
the client does not retry. GET /stats returns the request counters.

    python3 perfbench/stub_server.py <replies.jsonl> <delay_ms>

The chosen port is printed as "PORT <n>" on the first line of stdout.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cgqa.llm import ChatMessage, request_digest  # noqa: E402


class Replies:
    def __init__(self, path: str, delay_s: float) -> None:
        self.by_key: dict[str, list[str]] = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    entry = json.loads(line)
                    self.by_key.setdefault(entry["key"], []).append(
                        entry["reply"])
        self.delay_s = delay_s
        self.served: dict[str, int] = {}
        self.requests = 0
        self.unknown = 0
        self.lock = threading.Lock()

    def answer(self, messages: list[dict]) -> str | None:
        key = request_digest([ChatMessage(m["role"], m["content"])
                              for m in messages])
        with self.lock:
            self.requests += 1
            replies = self.by_key.get(key)
            if replies is None:
                self.unknown += 1
                return None
            n = self.served.get(key, 0)
            self.served[key] = n + 1
        return replies[n % len(replies)]


def make_handler(replies: Replies):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length))
            reply = replies.answer(body["messages"])
            time.sleep(replies.delay_s)
            if reply is None:
                self._send(404, {"error": "no reply for this request"})
            else:
                self._send(200, {"choices": [{"message": {
                    "role": "assistant", "content": reply}}]})

        def do_GET(self):
            if self.path != "/stats":
                self._send(404, {"error": "unknown path"})
                return
            with replies.lock:
                self._send(200, {"requests": replies.requests,
                                 "unknown": replies.unknown})

        def _send(self, status: int, data: dict) -> None:
            payload = json.dumps(data).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    return Handler


def main(path: str, delay_ms: str) -> None:
    replies = Replies(path, float(delay_ms) / 1000)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(replies))
    server.daemon_threads = True
    print(f"PORT {server.server_port}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
