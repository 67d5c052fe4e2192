"""Print the two source line counts that ROADMAP aim 2 tracks.

The total line count of ``src/spherestein/*.py`` (as ``wc -l`` counts it)
and its code lines: those not blank, comment-only or docstring, so a deleted
comment does not read as a smaller program; then both counts per module,
to show where a change landed.  The sources are found beside this script,
so it runs from any directory:

    python3 tools/src_lines.py
"""

import ast
import os
import pathlib
import sys
import tokenize

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "spherestein"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: pathlib.Path) -> int:
    docs = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def main() -> None:
    paths = sorted(SRC.glob("*.py"))
    if not paths:
        sys.exit(f"error: no Python files in {SRC}")
    lines = {path.name: path.read_bytes().count(b"\n") for path in paths}
    code = {path.name: code_lines(path) for path in paths}
    print(f"src/spherestein/*.py: {sum(lines.values())} lines")
    print(f"src/spherestein/*.py: {sum(code.values())} code lines")
    for name in lines:
        print(f"  {name}: {lines[name]} lines, {code[name]} code lines")


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); point stdout at devnull
        # so the flush at exit does not raise again, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
