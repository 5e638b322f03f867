"""List the statements of src/aclp that a pytest run never executes.

coverage.py is not a dependency, so the run is traced with
`sys.settrace`, and with `threading.settrace` for the worker thread of
each `engine.solve`.  A statement is an `ast.stmt` other than a
docstring or a `global`/`nonlocal` declaration, which compile to no
code.  It counts as run when a line event fell on one of its own lines:
all of a simple statement's, the header of a compound one (its
decorators included), or, since a `try:` has no code of its own, the
first statement of its body.

    python3 tools/line_coverage.py [pytest arguments]

runs pytest in this process with the given arguments, then prints each
never-run statement as `path:line: source` and a closing count.  The
trace slows the run about sevenfold (the tier-1 suite takes minutes),
so this is a tool to run by hand, not a CI step.
"""

import ast
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aclp"


def _own_lines(node):
    """The lines on which a line event shows that `node` ran."""
    body = getattr(node, "body", None)
    if not (isinstance(body, list) and body and isinstance(body[0], ast.stmt)):
        return set(range(node.lineno, node.end_lineno + 1))
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", ())])
    return set(range(first, body[0].lineno)) | _own_lines(body[0])


def statements(path) -> dict:
    """First line of each statement of a module -> the lines that show
    it ran (`_own_lines`)."""
    out = {}
    for node in ast.walk(ast.parse(pathlib.Path(path).read_text())):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue   # a docstring, or a string standing as a statement
        out[node.lineno] = _own_lines(node)
    return out


def never_run(paths, hits) -> list:
    """(path, line) of each statement of `paths` on none of whose lines
    `hits`, a set of (filename, line) pairs, has an event."""
    out = []
    for path in paths:
        name = str(path)
        for line, own in sorted(statements(path).items()):
            if not any((name, n) in hits for n in own):
                out.append((path, line))
    return out


def traced(run, directory=PACKAGE):
    """Call `run()` under a trace and return the (filename, line) pairs
    of every line event in the modules under `directory`."""
    prefix, hits, wanted = str(directory), set(), {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        keep = wanted.get(name)
        if keep is None:
            keep = wanted[name] = name.startswith(prefix)
        return local if keep else None

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return hits


def main(argv=None) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    argv = sys.argv[1:] if argv is None else argv
    status = []
    hits = traced(lambda: status.append(pytest.main(argv)))
    paths = sorted(PACKAGE.glob("*.py"))
    total = sum(len(statements(p)) for p in paths)
    missed = never_run(paths, hits)
    for path, line in missed:
        source = path.read_text().splitlines()[line - 1].strip()
        print(f"{path.relative_to(ROOT)}:{line}: {source}")
    print(f"{len(missed)} of {total} statements never run")
    return int(status[0])


if __name__ == "__main__":
    sys.exit(main())
