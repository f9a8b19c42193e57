import pytest


@pytest.fixture(scope="module")
def srcloc(import_from):
    return import_from("tools", "srcloc")


def test_counts_leave_out_blank_comment_and_docstring_lines(srcloc, tmp_path, capsys):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text(
        '"""Module docstring\n'            # docstring
        'over two lines."""\n'             # docstring
        "\n"                               # blank
        "# a comment\n"                    # comment
        "X = 1  # trailing comment\n")     # code
    (package / "sub" / "mod.py").write_text(
        "class C:\n"                       # code
        '    """Class docstring."""\n'     # docstring
        "\n"                               # blank
        "    def f(self):\n"               # code
        "        '''Function doc.'''\n"    # docstring
        "        return (1,\n"             # code
        "                2)\n"             # code
        "\n"                               # blank
        'TEXT = """not a\n'                # code: a string, not a docstring
        'docstring"""\n')                  # code
    assert srcloc.count_lines((package / "__init__.py").read_text()) == (5, 1)
    assert srcloc.count_lines((package / "sub" / "mod.py").read_text()) == (10, 6)
    assert srcloc.main([str(package)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].split()[:2] == ["15", "7"]
    assert out[0].split() == ["5", "1", "__init__.py"]
