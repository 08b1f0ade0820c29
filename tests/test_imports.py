"""Every module of the package uses each name it imports, the package
reads each private name it defines, and the package or the benchmark reads
each public function, class and method, every JSON writer refuses NaN
and infinities, no function takes a loop setting (mct, sc_n, ...) as a
parameter, and every module parses as the oldest Python that
pyproject.toml requires: checks built on the standard library's ast module
alone. An import on a line marked `# noqa: F401` (a
re-export) is exempt, and so is `__init__.py`, whose imports are the
package's public names."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cgqa"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = {p.name: p.read_text(encoding="utf-8")
           for p in sorted(PACKAGE.glob("*.py"))}
BENCHMARK = {f"perfbench/{p.name}": p.read_text(encoding="utf-8")
             for p in sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))}
# Public names that neither the package nor the benchmark reads, and why
# each is kept.
KEPT_PUBLIC = {
    "compare_values": "the scalar comparison rule that the tests' "
                      "brute-force scans call",
}


def unused_imports(source: str) -> list[str]:
    """'line: name' for each imported name that the module never reads. A
    dotted `import a.b` counts as read only where `a.b` is."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= {ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "__future__"):
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name
            if name != "*" and name not in read:
                unused.append(f"{node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, want", [
    ("import os\n", ["1: os"]),
    ("import os\nos.sep\n", []),
    ("import urllib.error\nimport urllib.request\nurllib.request.urlopen\n",
     ["1: urllib.error"]),
    ("from a import (\n    b,\n    c,\n)\nc()\n", ["1: b"]),
    ("from a import b as c\nb\n", ["1: c"]),
    ("from a import b  # noqa: F401, re-export\n", []),
    ("from __future__ import annotations\n", []),
    ("def f():\n    import json\n", ["2: json"]),
], ids=["unused", "used", "dotted", "multiline", "alias", "noqa", "future",
        "local"])
def test_unused_imports_finds_each_unread_name(source, want):
    assert unused_imports(source) == want


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def read_names(source: str) -> set[str]:
    """The names a module reads: as a name, an attribute, an import or the
    string getattr is given."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            read.add(node.args[1].value)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """'module: name' for each private name (_name, not __dunder__) that a
    module defines at its top level, or as a method of a top-level class,
    and that no module reads (see read_names)."""
    read, defined = set(), []
    for module, source in sources.items():
        tree = ast.parse(source)
        read |= read_names(source)
        for node in tree.body:
            names = [node.name] if isinstance(node, _DEFS) else [
                t.id for t in getattr(node, "targets", [
                    getattr(node, "target", None)])
                if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef):
                names += [item.name for item in node.body
                          if isinstance(item, _DEFS[:2])]
            defined += [(module, name) for name in names if _private(name)]
    return [f"{module}: {name}" for module, name in defined
            if name not in read]


def test_package_reads_every_private_name_it_defines():
    assert unread_private_names(SOURCES) == []


@pytest.mark.parametrize("sources, want", [
    ({"a.py": "_X = 1\n"}, ["a.py: _X"]),
    ({"a.py": "_X = 1\n", "b.py": "from a import _X\n"}, []),
    ({"a.py": "def _f():\n    pass\n_f()\n"}, []),
    ({"a.py": "class C:\n    def _m(self):\n        pass\n"}, ["a.py: _m"]),
    ({"a.py": "class C:\n    def _m(self):\n        self._m()\n"}, []),
    ({"a.py": "class C:\n    def __init__(self):\n        pass\n"}, []),
    ({"a.py": "_T: int = 1\nclass _C:\n    pass\n"},
     ["a.py: _T", "a.py: _C"]),
    ({"a.py": "def f():\n    _local = 1\n"}, []),
], ids=["unread", "imported", "called", "method", "method read", "dunder",
        "annotated and class", "local"])
def test_unread_private_names_finds_each_unread_definition(sources, want):
    assert unread_private_names(sources) == want


def unread_public_names(sources: dict[str, str],
                        readers: dict[str, str]) -> list[str]:
    """'module: name' for each public function or class that a module of
    sources defines at its top level, and each public method of such a
    class, that no module of readers reads (see read_names)."""
    read = set().union(*map(read_names, readers.values()))
    unread = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, _DEFS):
                continue
            names = [node.name]
            if isinstance(node, ast.ClassDef):
                names += [item.name for item in node.body
                          if isinstance(item, _DEFS[:2])]
            unread += [f"{module}: {name}" for name in names
                       if not name.startswith("_") and name not in read]
    return unread


def test_package_or_benchmark_reads_every_public_name():
    unread = unread_public_names(SOURCES, {**SOURCES, **BENCHMARK})
    assert [line for line in unread
            if line.partition(": ")[2] not in KEPT_PUBLIC] == []


@pytest.mark.parametrize("sources, readers, want", [
    ({"a.py": "def f():\n    pass\n"}, {}, ["a.py: f"]),
    ({"a.py": "def f():\n    pass\n"}, {"b.py": "from a import f\n"}, []),
    ({"a.py": "class C:\n    def m(self):\n        pass\n"},
     {"b.py": "C\n"}, ["a.py: m"]),
    ({"a.py": "class C:\n    def m(self):\n        pass\n"},
     {"b.py": "C().m()\n"}, []),
    ({"a.py": "def f():\n    pass\n"}, {"b.py": "getattr(a, 'f')\n"}, []),
    ({"a.py": "X = 1\ndef _f():\n    pass\nclass C:\n"
      "    def __len__(self):\n        return 0\n"}, {"b.py": "C\n"}, []),
], ids=["unread", "imported", "method", "method read", "getattr",
        "not public"])
def test_unread_public_names_finds_each_unread_definition(sources, readers,
                                                          want):
    assert unread_public_names(sources, readers) == want


# Loop settings live on PipelineConfig alone; a function reads them there.
LOOP_SETTINGS = {"mct", "sc_n", "author", "metric", "match_mode",
                 "full_history"}


def loop_setting_parameters(source: str) -> list[str]:
    """'line: parameter' for each parameter of a function or lambda that is
    named as a loop setting."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (*_DEFS[:2], ast.Lambda)):
            a = node.args
            found += [f"{node.lineno}: {arg.arg}" for arg in [
                *a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
                if arg is not None and arg.arg in LOOP_SETTINGS]
    return found


@pytest.mark.parametrize("name", SOURCES)
def test_no_function_takes_a_loop_setting_as_a_parameter(name):
    assert loop_setting_parameters(SOURCES[name]) == []


@pytest.mark.parametrize("source, want", [
    ("def f(config, mct=3):\n    pass\n", ["1: mct"]),
    ("class C:\n    def m(self, *, author):\n        pass\n",
     ["2: author"]),
    ("g = lambda metric: metric\n", ["1: metric"]),
    ("def f(config, mode='hits1'):\n    return config.sc_n\n", []),
    ("@dataclass\nclass C:\n    full_history: bool = False\n", []),
], ids=["default", "keyword only", "lambda", "reads config", "field"])
def test_loop_setting_parameters_finds_each_setting_parameter(source, want):
    assert loop_setting_parameters(source) == want


_JSON_WRITERS = {"dumps", "dump", "JSONEncoder"}


def lax_json_writers(source: str) -> list[str]:
    """'line: call' for each call of json.dumps, json.dump or
    json.JSONEncoder (or the bare name, if imported) that does not pass
    allow_nan=False, so would write NaN or Infinity, which strict JSON
    parsers reject."""
    lax = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.attr if isinstance(func, ast.Attribute)
                and ast.unparse(func.value) == "json" else
                func.id if isinstance(func, ast.Name) else None)
        if name in _JSON_WRITERS and not any(
                k.arg == "allow_nan" and isinstance(k.value, ast.Constant)
                and k.value.value is False for k in node.keywords):
            lax.append(f"{node.lineno}: {ast.unparse(func)}")
    return lax


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_json_writer_refuses_nan(path):
    assert lax_json_writers(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, want", [
    ("json.dumps(x)\n", ["1: json.dumps"]),
    ("json.dumps(x, allow_nan=False)\n", []),
    ("json.dumps(x, allow_nan=True)\n", ["1: json.dumps"]),
    ("e = json.JSONEncoder(ensure_ascii=False).encode\n",
     ["1: json.JSONEncoder"]),
    ("from json import dumps\ndumps(x)\n", ["2: dumps"]),
    ("json.loads(x)\nyaml.dumps(x)\n", []),
], ids=["dumps", "strict", "allow", "encoder", "bare name", "not a writer"])
def test_lax_json_writers_finds_each_writer_that_allows_nan(source, want):
    assert lax_json_writers(source) == want


REQUIRES = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', (
    PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8"), re.M)
OLDEST = (int(REQUIRES[1]), int(REQUIRES[2]))


@pytest.mark.parametrize("name", SOURCES)
def test_module_parses_as_the_oldest_python_it_requires(name):
    ast.parse(SOURCES[name], feature_version=OLDEST)


def test_a_newer_syntax_fails_to_parse_as_python_3_10():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))
