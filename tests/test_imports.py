"""Every name a corpuskit module imports is used in that module, and only
core.py decodes bytes.

A removed function often leaves its imports behind (a helper module, a
typing name, a record type). The package's __init__ is left out: importing
names there is how it exports them. Input lines are decoded in one place,
core.decoded_lines, so that every reader numbers lines and reports bad
UTF-8 the same way; a `.decode(...)` call anywhere else is a second decoder.
No command loads hashlib: BLAKE2b comes from CPython's built-in _blake2, since
importing hashlib also loads OpenSSL's libcrypto.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "corpuskit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import bisect\nimport os.path\nfrom typing import Iterable, Iterator as It\n"
                     "def f(x: It) -> None:\n    os.path.join(x)\n")
    assert _unused_imports(tree) == ["line 1: bisect", "line 3: Iterable"]


def _decode_calls(tree: ast.Module) -> list[int]:
    """Lines of `x.decode(...)` calls, except the package's own
    functions named decode called through their module (`bpe.decode`)."""
    modules = {p.stem for p in MODULES}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "decode"
            and not (isinstance(node.func.value, ast.Name) and node.func.value.id in modules)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_only_core_decodes_bytes(path):
    assert _decode_calls(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) == []


def test_the_check_sees_a_decode_call():
    tree = ast.parse("def f(raw, model):\n    decode(model, [1])\n    bpe.decode(model, [1])\n"
                     "    return raw.strip().decode('utf-8')\n")
    assert _decode_calls(tree) == [4]


def _run_python(code: str, *args) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True,
                          text=True, encoding="utf-8", check=True)
    return done.stdout


def test_no_command_loads_hashlib(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("one two\nthree four\none two\n", encoding="utf-8")
    code = (
        "import sys\n"
        "import corpuskit\n"
        "from corpuskit import cli\n"
        "src, tmp = sys.argv[1:]\n"
        "assert cli.main(['dedup', '--in', src, '--out', tmp + '/d.txt', '--external-sort', '--tmp', tmp]) == 0\n"
        "assert cli.main(['split', '--in', src, '--ratio', '0.5', '--seed', '1', '--unit', 'line',\n"
        "                 '--out-a', tmp + '/a.txt', '--out-b', tmp + '/b.txt']) == 0\n"
        "print(sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules))\n"
    )
    assert _run_python(code, src, tmp_path).splitlines()[-1] == "[]"
    assert (tmp_path / "d.txt").read_text(encoding="utf-8") == "one two\nthree four\n"

