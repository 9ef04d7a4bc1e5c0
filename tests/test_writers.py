"""One function in the package writes files: cli._write, which rewrites an
output in place and then cuts it to length, so that ext4 starts no writeback
of a rewritten file on close. These tests scan the package source and allow a
file write nowhere else, so a later output path cannot bring back the
truncating write."""

import ast
from pathlib import Path

import stigmagame

SRC = Path(stigmagame.__file__).parent
WRITE_MODE_CHARS = set("wax+")


def _writes(call: ast.Call) -> bool:
    """Whether the call writes a file: write_text, write_bytes, os.open on
    anything but os.devnull, or open / Path.open with a writing mode (a mode
    that is not a string literal counts as one)."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and ast.unparse(func.value) == "os":
        return not (call.args and ast.unparse(call.args[0]) == "os.devnull")
    position = 0 if isinstance(func, ast.Attribute) else 1  # path.open(mode), open(path, mode)
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None and len(call.args) > position:
        mode = call.args[position]
    if mode is None:
        return False  # the default mode reads
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return bool(WRITE_MODE_CHARS & set(mode.value))


def _file_writes(tree: ast.AST) -> list[tuple[str, int]]:
    """(innermost enclosing function, line) of each file-writing call."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and _writes(node):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "<module>")
    return found


def test_the_scan_sees_each_form_of_file_write():
    source = """
def f(p):
    p.write_text("x")
    p.write_bytes(b"x")
    os.open(p, os.O_WRONLY)
    open(p, "w")
    open(p, mode="a")
    p.open("rb+")
    open(p, m)
    open(p)
    open(p, "rb", encoding=None)
    p.open()
    os.open(os.devnull, os.O_WRONLY)
"""
    assert _file_writes(ast.parse(source)) == [("f", line) for line in range(3, 10)]


def test_cli_write_is_the_one_file_writer():
    found = {
        (path.stem, func)
        for path in sorted(SRC.glob("*.py"))
        for func, _ in _file_writes(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {("cli", "_write")}
