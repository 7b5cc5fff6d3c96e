"""Count code lines, total lines and tokens of Python files.

    python3 tools/count_lines.py src/bohm_squeeze/*.py

Code lines are the lines holding a token other than a comment, a docstring
or layout: blank lines, comments and the docstrings of modules, classes
and functions do not count.  Tokens are the ``tokenize`` tokens other than
comments and layout, a docstring counting as one; they follow the size of
what the interpreter compiles, which a run pays when it writes no bytecode
cache.  Prints code lines, total lines and tokens per file, then the sums.
"""

import ast
import io
import sys
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(path: str) -> tuple[int, int, int]:
    """(code lines, total lines, tokens) of the file at ``path``."""
    source = open(path, encoding="utf-8").read()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code, tokens = set(), 0
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
            tokens += 1
    return len(code - docstrings), source.count("\n"), tokens


if __name__ == "__main__":
    totals = [0, 0, 0]
    for path in sys.argv[1:]:
        counts = count(path)
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{counts[0]:6d} {counts[1]:6d} {counts[2]:7d}  {path}")
    print(f"{totals[0]:6d} {totals[1]:6d} {totals[2]:7d}  total")
