#!/usr/bin/env python3
"""Count code and docstring lines of the package, per file and in total.

    python3 tools/loc.py [DIR]

DIR defaults to ``src/blocksense``. A docstring line is a line of a module,
class or function docstring. A code line is any other line that holds a
token other than a comment, so blanks, comments and docstrings are not code.
The last line gives the size of the repository's README.md in bytes.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple[int, int]:
    """(code lines, docstring lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings), len(docstrings)


def main(argv: list[str]) -> int:
    repo = Path(__file__).resolve().parent.parent
    root = Path(argv[0]) if argv else repo / "src" / "blocksense"
    total_code = total_doc = 0
    print(f"{'file':<20} {'code':>6} {'doc':>6}")
    for path in sorted(root.glob("*.py")):
        code, doc = count(path.read_text(encoding="utf-8"))
        total_code += code
        total_doc += doc
        print(f"{path.name:<20} {code:>6} {doc:>6}")
    print(f"{'total':<20} {total_code:>6} {total_doc:>6}")
    print(f"{'README.md bytes':<20} {(repo / 'README.md').stat().st_size:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
