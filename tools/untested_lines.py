"""List the statements of a Python package that a pytest run never runs.

    python tools/untested_lines.py [PACKAGE_DIR] [PYTEST_ARGS...]

PACKAGE_DIR defaults to src/bepower, as in tools/code_lines.py, and is
put first on sys.path so that the tests import it from there; the
remaining arguments go to pytest, which runs in this process under a
line tracer (`sys.settrace` and `threading.settrace`) that records only
frames of the package's files.  Code run in worker processes or
subprocesses is not traced, so its statements are listed as never run.

A statement counts when it lies in a function body (a nested function's
too, but no docstring, `global` or `nonlocal`), and it ran when a line
event fell on its head: the whole statement for a simple one, the lines
before its body for a compound one (its decorators included).  The
listing gives, per module, every such statement that never ran, then
the total; the exit status is pytest's.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

from code_lines import docstring_lines

_SILENT = (ast.Global, ast.Nonlocal)
_BLOCKS = (ast.stmt, ast.excepthandler, ast.match_case)


def _first_line(node):
    return min([node.lineno] + [d.lineno for d in
                                getattr(node, "decorator_list", ())])


def _head(stmt):
    """The lines of stmt a line event may fall on when it runs."""
    first = _first_line(stmt)
    inner = [_first_line(c) for c in ast.iter_child_nodes(stmt)
             if isinstance(c, _BLOCKS)]
    last = min(inner) - 1 if inner else stmt.end_lineno
    return range(first, max(first, last) + 1)


def statements(tree):
    """The statements of tree's function bodies, by first line."""
    docs = docstring_lines(tree)
    found = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if (isinstance(node, ast.stmt) and node is not fn
                        and not isinstance(node, _SILENT)
                        and node.lineno not in docs):
                    found[_first_line(node)] = node
    return found


def untested(path, ran):
    """(line, source) of every statement of path's function bodies that
    no line event in `ran` (a set of line numbers) fell on."""
    source = Path(path).read_text(encoding="utf-8")
    lines = source.splitlines()
    return [(line, lines[line - 1].strip())
            for line, stmt in sorted(statements(ast.parse(source)).items())
            if ran.isdisjoint(_head(stmt))]


def traced_pytest(root, args):
    """Run pytest on args, recording the line events of root's files;
    returns (exit status, {file: set of lines})."""
    files = {str(p.resolve()): set() for p in root.glob("*.py")}
    tracers = {}  # co_filename -> its local tracer, or None

    def recorder(ran):
        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return local
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            ran = files.get(str(Path(name).resolve()))
            tracers[name] = None if ran is None else recorder(ran)
        return tracers[name]

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, files


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/bepower").resolve()
    sys.path.insert(0, str(root.parent))
    status, files = traced_pytest(root, argv[2:])
    total = 0
    for path, ran in sorted(files.items()):
        for line, text in untested(path, ran):
            print(f"{Path(path).name}:{line}: {text}")
            total += 1
    print(f"total {total}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
