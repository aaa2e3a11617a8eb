import importlib.util
import subprocess
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_lines", _ROOT / "scripts" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)


def test_counts_of_each_package_file_sum_to_wc_l():
    files = sorted((_ROOT / "src" / "trflm").glob("*.py"))
    assert files
    for path in files:
        wc = int(subprocess.run(["wc", "-l", str(path)], capture_output=True, text=True,
                                check=True).stdout.split()[0])
        counts = src_lines.count_lines(path.read_text(encoding="utf-8"))
        assert sum(counts) == wc and min(counts) >= 0, (path.name, counts, wc)


def test_each_line_falls_in_its_class():
    text = (
        '"""Module docstring,\n'  # doc
        "\n"  # doc: a blank line inside a docstring
        'two lines."""\n'  # doc
        "\n"  # blank
        "# a comment\n"  # doc
        "def f(x):  # code with a comment\n"  # code
        '    """Docstring."""\n'  # doc
        '    s = """a string\n'  # code
        "\n"  # code: inside a string that is not a docstring
        '"""\n'  # code
        "    return (x,\n"  # code
        "            s)\n"  # code
        "x = 1"  # no newline: wc -l does not count it
    )
    assert src_lines.count_lines(text) == (6, 5, 1)


def test_delta_between_two_trees_lists_changed_files_and_the_total(tmp_path):
    before, after = tmp_path / "before", tmp_path / "after"
    files = {
        before: {"same.py": "x = 1\n", "grew.py": "x = 1\n", "gone.py": "# note\n\n"},
        after: {
            "same.py": "x = 1\n", "grew.py": '"""Doc."""\n\nx = 1\ny = 2\n', "new.py": "z = 3\n"
        },
    }
    for root, texts in files.items():
        (root / "pkg").mkdir(parents=True)
        for name, text in texts.items():
            (root / "pkg" / name).write_text(text)
    (after / "outside.py").write_text("w = 4\n")  # not under the counted path
    rows = src_lines.delta(before, after, ["pkg"])
    assert rows == [
        ("pkg/gone.py", (0, 1, 1), (0, 0, 0)),
        ("pkg/grew.py", (1, 0, 0), (2, 1, 1)),
        ("pkg/new.py", (0, 0, 0), (1, 0, 0)),
        ("total", (2, 1, 1), (4, 1, 1)),
    ]
