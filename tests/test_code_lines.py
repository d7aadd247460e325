"""tools/code_lines.py: the code-size count quoted for src/."""

from helpers import ROOT, load_script

code_lines = load_script(ROOT / "tools" / "code_lines.py")

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment-only line
import math


def f(x):
    """Function docstring."""
    y = math.hypot(  # a trailing comment does not hide the code
        x,
        1.0,
    )
    return y
'''


def test_counts_code_lines_only():
    # import, def, the four lines of the call, return
    assert code_lines.code_lines(FIXTURE) == 7


def test_a_string_statement_past_the_first_is_code():
    assert code_lines.code_lines('"""doc"""\n"""not a docstring"""\nx = 1\n') == 2


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 7\nb 1\ntotal 8\n"
