import importlib.util
import sys
from pathlib import Path

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(_SCRIPTS))  # bitcheck imports bench_pairs from beside it
_spec = importlib.util.spec_from_file_location("bitcheck", _SCRIPTS / "bitcheck.py")
bitcheck = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bitcheck)


def test_tiny_setting_twice_in_one_tree_is_equal_on_every_line():
    first = bitcheck.tree_digests(bitcheck.ROOT, bitcheck.TINY)
    second = bitcheck.tree_digests(bitcheck.ROOT, bitcheck.TINY)
    lines = bitcheck.compare(first, second)
    names = [line.split("\t")[0] for line in lines]
    assert names == sorted(first) and len(names) == 8
    assert all(line.split("\t")[1] == "equal" for line in lines), lines
    assert all(len(value) == 64 for value in first.values())


def test_compare_marks_a_changed_or_missing_artifact_different():
    lines = bitcheck.compare({"a": "1", "b": "2"}, {"a": "1", "b": "3", "c": "4"})
    assert lines == ["a\tequal\t1\t1", "b\tdifferent\t2\t3", "c\tdifferent\t-\t4"]
