"""Count the code lines of each module of a package, src/aclp by default.

A code line is a line on which a token starts, other than a comment, a
docstring (a statement that is only a string) or a NEWLINE, NL, INDENT or
DEDENT token.  So blank lines, comments, docstrings and the continuation
lines of a multi-line string do not count.

    python3 tools/code_lines.py [package directory]

prints one line per module, then the total.
"""

import pathlib
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING}


def code_lines(path) -> int:
    lines, statement = set(), []
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if any(t.type != tokenize.STRING for t in statement):
                    lines.update(t.start[0] for t in statement)
                statement = []
            elif tok.type not in _LAYOUT:
                statement.append(tok)
    return len(lines)


def main(argv) -> None:
    package = pathlib.Path(argv[0] if argv else
                           pathlib.Path(__file__).parent.parent / "src" / "aclp")
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6}  {path.name}")
    print(f"{total:6}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
