"""Count the code lines of a Python package: non-blank, non-comment,
non-docstring lines, per module and in total.

    python tools/code_lines.py [PACKAGE_DIR]    # default: src/bepower

A line counts when it holds a token other than a comment or a line
break, and does not belong to a module, class or function docstring.
A statement continued over several lines counts each of its lines.
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    with open(path, "rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline)
                  if t.type not in _SKIP]
    lines = set()
    for t in tokens:
        lines.update(range(t.start[0], t.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(Path(path).read_bytes())))


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/bepower")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.name:24s} {n:6d}")
    print(f"{'total':24s} {total:6d}")


if __name__ == "__main__":
    main(sys.argv)
