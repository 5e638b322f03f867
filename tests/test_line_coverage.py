"""The never-run statement lister of tools/line_coverage.py."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).parent.parent / "tools" / "line_coverage.py"
_SPEC = importlib.util.spec_from_file_location("line_coverage", _PATH)
line_coverage = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(line_coverage)


def test_only_a_statement_that_never_ran_is_listed(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('''"""A module docstring."""


def f(x):
    """A docstring."""
    global y
    if x:
        return 1
    try:
        x += 1
    finally:
        pass
    return (x +
            2)
''')
    spec = importlib.util.spec_from_file_location("m", module)
    m = importlib.util.module_from_spec(spec)

    def run():
        spec.loader.exec_module(m)
        assert m.f(0) == 3

    hits = line_coverage.traced(run, tmp_path)
    # the docstrings and `global y` compile to no code; `try:` counts
    # as run through its body's first statement
    assert line_coverage.never_run([module], hits) == [(module, 8)]
