"""scripts/linecount.py: wc and code-line counts of src/bbmlab/*.py, and their change."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "linecount.py"

# 17 lines, 7 of them code: the docstrings, the comments and the blank lines do not count, and
# the bare string spanning two lines counts on both.
SOURCE = '''"""Module docstring."""
# a comment

import os


def f(x):
    """Docstring
    over two lines."""
    s = """not a
docstring"""
    return x  # a trailing comment


class C:
    \'\'\'Class docstring.\'\'\'
    y = 1
'''


@pytest.fixture(scope="module")
def linecount():
    spec = importlib.util.spec_from_file_location("linecount", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_without_docstrings_comments_or_blanks(linecount):
    assert linecount.count(SOURCE) == {"wc": 17, "code": 7}


def test_against_records_both_trees_and_the_change(linecount, tmp_path, capsys):
    package = tmp_path / "src" / "bbmlab"
    package.mkdir(parents=True)
    (package / "a.py").write_text(SOURCE)
    (package / "b.py").write_text("x = 1\n\n")
    (package / "notes.txt").write_text("not python\n")
    assert linecount.count_tree(tmp_path) == {"wc": 19, "code": 8}
    assert linecount.main(["--against", str(tmp_path)]) == 0
    record = json.loads(capsys.readouterr().out)
    this = linecount.count_tree(ROOT)
    assert {key: record[key] for key in ("wc", "code")} == this
    assert record["against"] == {"tree": str(tmp_path), "wc": 19, "code": 8,
                                 "change": {"wc": this["wc"] - 19, "code": this["code"] - 8}}
