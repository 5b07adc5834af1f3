"""Each output decision has one home in ``src/signstorm``: a file is
opened for writing only in ``harness.write_text``, which fixes the
encoding and the line endings of every file a command writes, and the
chart names are spelled out only in ``charts.CHARTS``."""

import ast
from pathlib import Path

from signstorm.charts import CHARTS

SRC = Path(__file__).resolve().parent.parent / "src" / "signstorm"
WRITER = ("harness.py", "write_text")


def _mode(call: ast.Call) -> ast.expr:
    """The mode argument of ``open(file, mode)``, ``io.open(file, mode)``
    or ``path.open(mode)``, or "r" where none is given."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    if isinstance(call.func, ast.Attribute) and len(call.args) == 1 \
            and isinstance(call.args[0], ast.Constant):
        return call.args[0]
    return call.args[1] if len(call.args) > 1 else ast.Constant("r")


def write_opens(source: str) -> list[tuple[int, str | None]]:
    """(line, enclosing function) of every ``open(...)`` or ``x.open(...)``
    call whose mode writes, appends, creates or updates, or is not a
    string literal; the function is None at module level."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "open"
                or getattr(node.func, "attr", None) == "open"):
            mode = _mode(node)
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")):
                found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_only_the_writer_opens_files_for_writing():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    opens = [(path.name, func) for path in paths
             for _, func in write_opens(path.read_text(encoding="utf-8"))]
    assert opens == [WRITER], opens


def test_guard_finds_every_write_mode():
    source = ("open(p)\n"
              "open(p, encoding='utf-8')\n"
              "open(p, 'rb')\n"
              "def f(mode):\n"
              "    open(p, 'w')\n"
              "    open(p, mode='a', newline='')\n"
              "    io.open(p, 'x')\n"
              "    path.open('r+')\n"
              "    open(p, mode)\n"
              "with open(p, 'wb') as fh:\n"
              "    pass\n")
    assert write_opens(source) == [(5, "f"), (6, "f"), (7, "f"), (8, "f"), (9, "f"),
                                   (10, None)]


def test_chart_names_are_spelled_out_only_in_charts():
    spelled = [(path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Constant) and node.value in CHARTS]
    assert [name for name, _ in spelled] == ["charts.py"] * len(CHARTS), spelled
