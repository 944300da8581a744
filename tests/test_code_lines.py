"""tools/code_lines.py counts the lines that hold code, leaving out blank
lines, comment lines and docstrings."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

FIXTURE = textwrap.dedent(
    '''\
    """Module docstring,
    on two lines."""

    import os  # a comment after code counts


    # a comment line
    def f(x):
        """Function docstring."""
        return max(
            x,

            1,
        )


    class C:
        """Class docstring."""

        text = """not a docstring,
        on two lines"""
        "an expression that is not the first statement"
    '''
)


def test_the_counted_lines_of_a_fixture():
    # import, def, return max( and its three non-blank lines, class, the two
    # lines of the assigned string, and the bare string
    assert code_lines.code_lines(FIXTURE) == 10


def test_the_command_prints_each_module_then_the_total(tmp_path):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# comment\n")
    run = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True
    )
    assert run.stdout.splitlines() == ["10  a", " 1  b", "11  total"]
