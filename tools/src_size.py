"""Print the code lines and docstring lines of each module under a directory.

Usage: ``python3 tools/src_size.py [DIR]`` (DIR defaults to ``src``).  A
docstring line is a line of a module, class or function docstring (found by
``ast``); a code line is any other line that holds a token other than a
comment or a line break (found by ``tokenize``), a line a multi-line token
spans counting once.  One row per module, by path relative to DIR, then a
``total`` row.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple[int, int]:
    """(code lines, docstring lines) of one module's source."""
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            doc.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - doc), len(doc)


def main(argv: list) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    rows = [(str(path.relative_to(root)), *count(path.read_text(encoding="utf-8")))
            for path in sorted(root.rglob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'code':>6}  {'docstring':>9}")
    for name, code, doc in rows:
        print(f"{name:<{width}}  {code:>6}  {doc:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
