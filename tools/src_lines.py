"""Count the lines of each module under ``src/``: non-blank lines, and code
lines (non-blank lines that hold code, so neither a comment alone nor part
of a docstring).

A docstring is the string expression that opens a module, class or
function body.  A line counts as code when a token other than a comment
starts on it or a multi-line token (a string) covers it.  Stdlib only::

    python3 tools/src_lines.py            # every module under src/
    python3 tools/src_lines.py path ...   # these files or directories
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Tokens that carry no code of their own.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """(non-blank lines, code lines) of one module's source text."""
    nonblank = sum(1 for line in source.splitlines() if line.strip())
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return nonblank, len(code - docstring_lines(ast.parse(source)))


def modules(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv):
    paths = argv or [ROOT / "src"]
    rows = [(str(p.relative_to(ROOT) if p.is_relative_to(ROOT) else p), *count(p.read_text()))
            for p in modules(paths)]
    width = max([len(name) for name, *_ in rows] + [5])
    print(f"{'module':<{width}}  non-blank  code")
    for name, nonblank, code in rows:
        print(f"{name:<{width}}  {nonblank:>9}  {code:>4}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>9}  {sum(r[2] for r in rows):>4}")


if __name__ == "__main__":
    main(sys.argv[1:])
