"""Line counts of the package source, the way ROADMAP and CHANGES quote them.

For each file under src/levypide, and for the whole of src: code lines (lines
that hold a token other than a comment, after the docstrings are taken out),
docstring lines (the lines of every module, class and function docstring, by
the `ast` module's line span) and physical lines.

Usage: python3 scripts/count_lines.py [SRC_DIR]
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def counts(text: str) -> tuple[int, int, int]:
    """(code, docstring, physical) lines of one Python source."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs), len(docs), len(text.splitlines())


def main() -> int:
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    total = [0, 0, 0]
    print(f"{'file':<28} {'code':>6} {'doc':>6} {'physical':>9}")
    for path in sorted(src.rglob("*.py")):
        c = counts(path.read_text())
        total = [t + n for t, n in zip(total, c)]
        print(f"{str(path.relative_to(src)):<28} {c[0]:>6} {c[1]:>6} {c[2]:>9}")
    print(f"{'src':<28} {total[0]:>6} {total[1]:>6} {total[2]:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
