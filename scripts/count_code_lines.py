"""Code lines per module of the longlasso package.

A code line is a non-blank line that holds something besides comments
and docstrings.  A docstring is the string statement that opens a
module, class or function; every line it spans is left out.  Prints one
line per module, sorted by name, then the total.

Example:
    python scripts/count_code_lines.py
    python scripts/count_code_lines.py path/to/src/longlasso
"""
import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "longlasso"
# tokens that put no code on a line
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    skipped = _docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(line for line in range(token.start[0], token.end[0] + 1)
                        if line not in skipped)
    return len(code)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE)
    args = parser.parse_args()
    total = 0
    for path in sorted(args.package.glob("*.py")):
        count = count_code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.stem:<12} {count:>5}")
    print(f"{'total':<12} {total:>5}")


if __name__ == "__main__":
    main()
