from __future__ import annotations

import os
import threading
from contextlib import suppress

import pytest

from cgqa.graph import ConditionGraph, ingest_table, ingest_temporal, ingest_triples


@pytest.fixture
def toy_graph() -> ConditionGraph:
    """Two-person table: the smallest graph the executor examples use."""
    return ingest_table(
        [
            ["Alice", "Utah", "20", "Texas"],
            ["Bob", "Princeton", "25", "Boston"],
        ],
        ["Name", "Colleges", "Age", "Hometown"],
    )


@pytest.fixture
def people_graph() -> ConditionGraph:
    """Four-person table with a text-only column for fault scenarios."""
    return ingest_table(
        [
            ["Alice", "Utah", "20", "Texas", "Ace"],
            ["Bob", "Princeton", "25", "Boston", "Bo"],
            ["Carol", "Stanford", "30", "Dallas", "Caz"],
            ["Dave", "Utah", "35", "Boston", "Dee"],
        ],
        ["Name", "Colleges", "Age", "Hometown", "Nickname"],
    )


@pytest.fixture
def movies_graph() -> ConditionGraph:
    return ingest_triples(
        [
            ("Inception", "directed_by", "Nolan"),
            ("Inception", "genre", "SciFi"),
            ("Memento", "directed_by", "Nolan"),
            ("Memento", "genre", "Thriller"),
            ("Interstellar", "directed_by", "Nolan"),
            ("Interstellar", "genre", "SciFi"),
            ("Heat", "directed_by", "Mann"),
            ("Heat", "genre", "Crime"),
        ]
    )


@pytest.fixture
def terms_graph() -> ConditionGraph:
    return ingest_temporal(
        [
            ("France", "president", "Chirac", "1996"),
            ("France", "president", "Sarkozy", "2008"),
            ("USA", "president", "Clinton", "1996"),
            ("USA", "president", "Bush", "2004"),
        ]
    )


@pytest.fixture
def piped():
    """pipe(data) -> a /dev/fd path that reads data through a pipe, which a
    thread writes. At teardown each pipe is closed, so a writer that a
    reader left behind ends, and each writer is joined."""
    ends = []

    def pipe(data: bytes) -> str:
        read, write = os.pipe()

        def feed() -> None:
            with suppress(BrokenPipeError), open(write, "wb") as fh:
                fh.write(data)

        thread = threading.Thread(target=feed)
        thread.start()
        ends.append((read, thread))
        return f"/dev/fd/{read}"

    yield pipe
    for read, thread in ends:
        os.close(read)
        thread.join()
