"""The code-line counter of tools/code_lines.py."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def test_a_code_line_is_one_on_which_a_code_token_starts(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(a,
      b):
    """A docstring."""
    s = """a string
that spans two lines"""
    return (a +
            b)
''')
    # import, def, its second line, the assignment, return and its
    # second line; not the string's second line
    assert code_lines.code_lines(module) == 6


def test_the_package_total_is_the_sum_of_its_modules(capsys):
    code_lines.main([])
    *modules, total = capsys.readouterr().out.splitlines()
    assert total.split() == [str(sum(int(m.split()[0]) for m in modules)),
                             "total"]
    assert "engine.py" in {m.split()[1] for m in modules}
