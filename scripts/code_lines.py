#!/usr/bin/env python3
"""Print each module's physical lines and code-only lines, then the totals.

Code-only lines are counted with ``ast`` and ``tokenize``: a line counts
when some token other than a comment covers it, and it lies outside every
module, class and function docstring.  Blank lines and comment lines are
left out, and a multi-line string that is no docstring counts every line.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "treegamekit"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and ast.get_docstring(
            node, clean=False
        ) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    covered = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            covered.update(range(tok.start[0], tok.end[0] + 1))
    return len(covered - docstrings)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--package", type=Path, default=PACKAGE, help="directory of the modules to count")
    args = parser.parse_args()
    print("module\tphysical\tcode")
    physical_total = code_total = 0
    for path in sorted(args.package.glob("*.py")):
        source = path.read_text()
        physical, code = len(source.splitlines()), code_lines(source)
        print(f"{path.name}\t{physical}\t{code}")
        physical_total += physical
        code_total += code
    print(f"total\t{physical_total}\t{code_total}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
