"""``tools/code_lines.py``, which the size targets of the package are
counted with: what it counts as a code line and what it leaves out."""

import importlib.util
import pathlib
import textwrap

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def count(source):
    return code_lines.code_lines(textwrap.dedent(source))


def test_module_class_and_function_docstrings_do_not_count():
    assert count('''\
        """A module docstring
        over two lines."""
        class A:
            """A class docstring."""
            def f(self):
                """A function
                docstring."""
                return 1
        async def g():
            """An async function's docstring."""
        ''') == 4


def test_comment_only_and_blank_lines_do_not_count():
    assert count('''\
        # a comment

        x = 1  # a comment after code counts with its code
            # an indented comment

        ''') == 1


def test_each_line_of_a_statement_over_several_lines_counts():
    assert count('''\
        total = (
            1
            + 2
        )
        ''') == 4


def test_a_string_that_is_not_a_docstring_counts():
    # Only the first statement of a body is its docstring; a later string,
    # or one that is assigned, is code on every line it spans.
    assert count('''\
        def f():
            x = 1
            """not a
            docstring"""
            return """also
            code"""
        ''') == 6


def test_an_empty_source_has_no_code_lines():
    assert count("") == 0


def test_main_prints_the_total_and_each_file(tmp_path, capsys):
    one, two = tmp_path / "one.py", tmp_path / "two.py"
    one.write_text('"""Doc."""\nx = 1\n', encoding="utf-8")
    two.write_text("y = 2\nz = 3\n", encoding="utf-8")
    assert code_lines.main(["--each", str(one), str(two)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"     1 {one}", f"     2 {two}", "3"]


@pytest.mark.parametrize("name", ["montecarlo.py", "protocol.py"])
def test_a_package_module_counts_fewer_lines_than_it_has(name):
    source = (_PATH.parents[1] / "src" / "hyperqkd" / name).read_text(encoding="utf-8")
    assert 0 < code_lines.code_lines(source) < len(source.splitlines())
