"""Count code lines and total lines of Python files.

    python3 tools/count_lines.py src/bohm_squeeze/*.py

Code lines are the lines holding a token other than a comment, a docstring
or layout: blank lines, comments and the docstrings of modules, classes
and functions do not count.  Prints code and total lines per file, then
the sums.
"""

import ast
import io
import sys
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(path: str) -> tuple[int, int]:
    """(code lines, total lines) of the file at ``path``."""
    source = open(path, encoding="utf-8").read()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings), source.count("\n")


if __name__ == "__main__":
    totals = [0, 0]
    for path in sys.argv[1:]:
        code, total = count(path)
        totals[0] += code
        totals[1] += total
        print(f"{code:6d} {total:6d}  {path}")
    print(f"{totals[0]:6d} {totals[1]:6d}  total")
