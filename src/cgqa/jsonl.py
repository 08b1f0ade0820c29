"""The on-disk record format: JSON objects, one per line (JSONL) or per file.

Bad JSON, a non-object, or a KeyError, TypeError or ValueError from a reader's
build callable fails as one ValueError("path:line: reason")."""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable, TypeVar

T = TypeVar("T")


def read_jsonl(path: str, build: Callable[[dict[str, Any]], T]) -> list[T]:
    """build(obj) for each line; blank lines are skipped but counted."""
    with open(path, encoding="utf-8") as fh:
        return [_build(line, build, path, n)
                for n, line in enumerate(fh, start=1) if not line.isspace()]


def read_json(path: str, build: Callable[[dict[str, Any]], T]) -> T:
    """build(obj) for the one object the file holds."""
    with open(path, encoding="utf-8") as fh:
        return _build(fh.read(), build, path)


def write_jsonl(items: Iterable[Any], path: str) -> int:
    """Write each item, or its to_dict(), as one line; return the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for item in items:
            data = item.to_dict() if hasattr(item, "to_dict") else item
            fh.write(json.dumps(data, ensure_ascii=False) + "\n")
            count += 1
    return count


def _build(text: str, build: Callable[[dict[str, Any]], T], path: str,
           line: int | None = None) -> T:
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object, got {text.strip()[:40]}")
        return build(data)
    except json.JSONDecodeError as exc:
        line = line or exc.lineno  # a whole file names the decoder's line
        reason = f"invalid JSON: {exc.msg} (column {exc.colno})"
    except KeyError as exc:
        reason = f"missing key {exc}"
    except (TypeError, ValueError) as exc:
        reason = str(exc)
    where = path if line is None else f"{path}:{line}"
    raise ValueError(f"{where}: {reason}") from None
