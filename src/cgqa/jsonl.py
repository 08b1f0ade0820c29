"""The on-disk record format: JSON objects, one per line (JSONL) or per file.

Bad JSON, a non-object, or a KeyError, TypeError or ValueError from a reader's
build callable fails as one ValueError("path:line: reason"); text that is not
UTF-8 fails as ValueError("path: reason"). A Record reads and writes itself
through a codec derived from its dataclass fields, so a wrongly typed value
fails as it is read instead of deep inside the pipeline.
"""

from __future__ import annotations

import dataclasses
import json
import types
from contextlib import contextmanager
from functools import cache
from typing import (Any, Callable, Iterable, Iterator, Mapping, TextIO,
                    TypeVar, Union, get_args, get_origin, get_type_hints)

T = TypeVar("T")
R = TypeVar("R", bound="Record")

_JSON_NAMES = {str: "a string", int: "an integer", float: "a number",
               bool: "a boolean", list: "an array", dict: "an object",
               type(None): "null"}


class FieldTypeError(TypeError, ValueError):
    """A JSON value of the wrong type: bad input, so a ValueError too."""


class _Mismatch(TypeError):
    """A value that does not fit its type; the caller says whose it is."""


@cache
def _spec(hint: Any) -> tuple[frozenset[type], str, Callable | None,
                              Callable | None]:
    """How a value of hint is kept in JSON: the exact JSON types it may
    have, their names, and the conversions it needs from and to JSON, if
    any. A float takes an integer too."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType):
        specs = [_spec(arg) for arg in args]
        *names, last = [names for _, names, _, _ in specs]
        to = {t: read for ts, _, read, _ in specs if read for t in ts}
        # A union that holds a record or a list of them is X | None.
        write = next(filter(None, [write for *_, write in specs]), None)
        return (frozenset().union(*(ts for ts, *_ in specs)),
                f"{', '.join(names)} or {last}",
                to and (lambda v: to[type(v)](v) if type(v) in to else v),
                write and (lambda v: None if v is None else write(v)))
    if hint is float:
        return frozenset({int, float}), "a number", None, None
    if hint in _JSON_NAMES:
        return frozenset({hint}), _JSON_NAMES[hint], None, None
    if origin is dict:
        item = _spec(args[1])
        return frozenset({dict}), "an object", lambda v: {
            k: _read(item, x, "items ") for k, x in v.items()}, None
    if origin in (list, frozenset):
        item = _spec(args[0])
        write = item[3]
        return (frozenset({list}), "an array", lambda v: origin(
            _read(item, x, "items ") for x in v),
            write and (lambda v: [write(x) for x in v]))
    if hasattr(hint, "from_dict"):
        return frozenset({dict}), "an object", hint.from_dict, hint.to_dict
    raise TypeError(f"no JSON form for {hint!r}")


def _read(spec: tuple, value: Any, part: str = "") -> Any:
    types_, names, read, _ = spec
    if type(value) not in types_:
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise _Mismatch(f"{part}must be {names}, not {got}")
    return read(value) if read else value


def _read_fields(data: Mapping[str, Any], readers: Iterable[tuple],
                 what: str = "field") -> dict:
    """Field name -> value for each (key, field name, required, spec) of
    readers whose key data holds; a mismatch names the key as what."""
    kwargs = {}
    try:
        for key, name, required, spec in readers:
            if key in data:
                kwargs[name] = _read(spec, data[key])
            elif required:
                raise KeyError(key)
    except _Mismatch as exc:
        raise FieldTypeError(f"{what} {key!r} {exc}") from None
    return kwargs


def check_types(data: Mapping[str, Any], hints: Mapping[str, Any],
                what: str = "field") -> None:
    """Raise FieldTypeError("<what> 'x' must be ...") for the first field
    x of data (a JSON object, not a Record) whose value does not fit its
    type hint. Absent fields pass, so that the caller's lookup reports them."""
    _read_fields(data, [(k, k, False, _spec(h)) for k, h in hints.items()],
                 what)


@cache
def _codec(cls: type) -> tuple:
    """A record class's JSON keys, its to_dict, and the (key, field name,
    required, spec) of its fields."""
    hints = get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.compare]
    keys = tuple(f.metadata.get("key", f.name) for f in fields)
    encoders, items, readers = {}, [], []
    for key, f in zip(keys, fields):
        encoders[key] = f.metadata.get("encode") or _spec(hints[f.name])[3]
        items.append(f"{key!r}: " + (f"enc[{key!r}](self.{f.name})"
                                     if encoders[key] else f"self.{f.name}"))
        wire, decode = f.metadata.get("decode", (hints[f.name], None))
        spec = _spec(wire)
        if decode and (read := spec[2]):  # the wire type's reader checks items
            decode = lambda v, read=read, decode=decode: decode(read(v))
        spec = spec if decode is None else (*spec[:2], decode, None)
        required = f.default is f.default_factory is dataclasses.MISSING
        readers.append((key, f.name, required, spec))
    # A dict display compiled once per class, as dataclasses compiles
    # __init__, so that writing a record costs no call per plain field.
    to_dict = eval(f"lambda self: {{{', '.join(items)}}}", {"enc": encoders})
    return keys, to_dict, readers


class Record:
    """A dataclass that is written and read as one JSON object: one key per
    field, in field order, typed by the field's type hint. Field metadata
    sets the wire form only where it differs: "key" is the JSON key,
    "encode" maps the value to JSON, and "decode" is a pair (JSON type
    hint, function) that maps JSON, once read as that type, to the value.
    A field with compare=False is in memory only, neither written nor read.

    from_dict ignores unknown keys unless strict. A missing key whose field
    has no default fails as KeyError(key), and a wrongly typed value as
    FieldTypeError("field 'x' must be ..., not ...").
    """

    def to_dict(self) -> dict[str, Any]:
        return _codec(type(self))[1](self)

    @classmethod
    def from_dict(cls: type[R], data: Mapping[str, Any],
                  strict: bool = False) -> R:
        keys, _, readers = _codec(cls)
        if strict and (unknown := [k for k in data if k not in keys]):
            raise ValueError(f"unknown key {unknown[0]!r}")
        return cls(**_read_fields(data, readers))


@contextmanager
def open_text(path: str, newline: str | None = None) -> Iterator[TextIO]:
    """path opened, once, to read UTF-8 text. Text that does not decode
    fails as ValueError("path: reason"), naming no line: text decodes in
    chunks, so the line being read need not hold the bad byte. The reason
    names the byte's offset in the file, or none if the handle cannot seek
    back to decode it whole (a pipe): the decoder counts from its chunk."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            if fh.seekable():
                fh.buffer.seek(0)
                try:
                    fh.buffer.read().decode("utf-8")
                except UnicodeDecodeError as whole:
                    raise ValueError(f"{path}: {whole}") from None
            raise ValueError(f"{path}: '{exc.encoding}' codec can't decode "
                             f"byte 0x{exc.object[exc.start]:02x}: "
                             f"{exc.reason}") from None


def read_jsonl(path: str, build: Callable[[dict[str, Any]], T]) -> list[T]:
    """build(obj) for each line; blank lines are skipped but counted."""
    with open_text(path) as fh:
        return _build_lines(fh, build, path)


def read_json(path: str, build: Callable[[dict[str, Any]], T]) -> T:
    """build(obj) for the one object the file holds."""
    with open_text(path) as fh:
        return _build(fh.read(), build, path)


def write_jsonl(items: Iterable[Any], path: str) -> int:
    """Write each item, or its to_dict(), as one line; return the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for item in items:
            data = item.to_dict() if hasattr(item, "to_dict") else item
            fh.write(_encode(data) + "\n")
            count += 1
    return count


_encode = json.JSONEncoder(ensure_ascii=False, allow_nan=False).encode
_scan = json.JSONDecoder().scan_once


def _loads(text: str) -> Any:
    """json.loads(text); a value that fills the text, up to a last newline,
    is read without the decoder's whitespace scans."""
    try:
        data, end = _scan(text, 0)
        if text[end:] in ("", "\n"):
            return data
    except (StopIteration, ValueError):
        pass
    return json.loads(text)  # any other text, and any error


def _build_lines(lines: Iterable[str], build: Callable[[dict[str, Any]], T],
                 path: str, line: int = 1) -> list[T]:
    """build(obj) for each of lines, numbered from line, as read_jsonl."""
    return [_build(text, build, path, n)
            for n, text in enumerate(lines, line) if not text.isspace()]


def _build(text: str, build: Callable[[dict[str, Any]], T], path: str,
           line: int | None = None) -> T:
    try:
        data = _loads(text)
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
