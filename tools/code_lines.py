"""Count the code lines of the mzgle package.

A code line is a line of a ``.py`` file that holds some token other than
a comment or a docstring (the string that opens a module, class or
function body); blank lines hold none.  Usage:

    python tools/code_lines.py [directory]

The directory defaults to ``src/mzgle`` beside this script's parent.  Each
of its ``.py`` files, recursively, is printed with its count, and the total
over them comes last.
"""

import ast
import io
import pathlib
import sys
import tokenize

# tokens that carry no code: layout and comments
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The lines spanned by the docstrings of tree's module, classes and
    functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """Number of lines of source holding a token other than a comment or
    a docstring."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED:
            continue
        if tok.type == tokenize.STRING and tok.start[0] in docs:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv):
    root = (pathlib.Path(argv[0]) if argv
            else pathlib.Path(__file__).resolve().parent.parent / "src" / "mzgle")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text())
        print(path.relative_to(root), count)
        total += count
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
