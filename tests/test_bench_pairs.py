import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "tokens_per_s", "unit": "tok/s", "better": "higher", "bound": 0.25},
    {"name": "dev_nll", "unit": "nats", "better": "lower", "bound": 0.03},
]


def _run(setup, tokens, nll, failed=0, correct=True):
    values = {"setup_s": setup, "tokens_per_s": tokens, "dev_nll": nll}
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()},
    }


def test_summarize_synthetic_pairs():
    parent = [_run(s, t, 70.0 + i) for i, (s, t) in enumerate(
        [(1.0, 100.0), (2.0, 110.0), (3.0, 90.0), (4.0, 100.0), (5.0, 120.0)])]
    change = [_run(s, t, 70.0 + i, failed=1) for i, (s, t) in enumerate(
        [(0.5, 100.0), (1.0, 120.0), (3.5, 95.0), (2.0, 90.0), (2.5, 130.0)])]
    got = bench_pairs.summarize(parent, change, END_TO_END)
    setup = got["metrics"]["setup_s"]
    assert setup["parent_q1_median_q3"] == [2.0, 3.0, 4.0]
    assert setup["change_q1_median_q3"] == [1.0, 2.0, 2.5]
    assert setup["change_vs_parent_median"] == pytest.approx(-1.0 / 3.0)
    assert setup["parent_iqr"] == 2.0
    assert (setup["change_wins"], setup["ties"]) == (4, 0)  # lower is better
    tokens = got["metrics"]["tokens_per_s"]
    assert tokens["parent_q1_median_q3"] == [100.0, 100.0, 110.0]
    assert (tokens["change_wins"], tokens["ties"]) == (3, 1)  # higher is better
    assert got["metrics"]["dev_nll"]["ties"] == 5
    assert got["dev_nll_bit_identical_every_pair"]
    assert got["pairs"] == 5
    assert got["parent_failed_of_attempted"] == [[0, 10]] * 5
    assert got["change_failed_of_attempted"] == [[1, 10]] * 5
    assert got["all_checks_ok"] and got["parent_correct"] and got["change_correct"]


def test_summarize_keeps_each_pairs_values():
    parent = [_run(1.0, 100.0, 70.0), _run(3.0, 90.0, 71.0)]
    change = [_run(2.0, 110.0, 70.0), _run(0.5, 80.0, 71.0)]
    got = bench_pairs.summarize(parent, change, END_TO_END)["metrics"]
    assert got["setup_s"]["parent_per_pair"] == [1.0, 3.0]
    assert got["setup_s"]["change_per_pair"] == [2.0, 0.5]
    assert got["tokens_per_s"]["change_per_pair"] == [110.0, 80.0]


def test_summarize_flags_a_moved_dev_nll_and_a_failed_check():
    parent = [_run(1.0, 100.0, 70.0), _run(1.0, 100.0, 71.0)]
    change = [_run(1.0, 100.0, 70.0), _run(1.0, 100.0, 71.0 + 1e-12, correct=False)]
    got = bench_pairs.summarize(parent, change, END_TO_END)
    assert not got["dev_nll_bit_identical_every_pair"]
    assert got["parent_correct"] and not got["change_correct"] and not got["all_checks_ok"]


def test_summarize_adds_interior_step_median_from_details():
    # two train() calls of 3 steps: intervals 0 and 3 are the calls' first
    parent = [_run(1.0, 100.0, 70.0), _run(1.0, 100.0, 70.0)]
    change = [_run(1.0, 100.0, 70.0), _run(1.0, 100.0, 70.0)]
    for run, steps in zip(parent + change, [
        [0.5, 0.10, 0.12, 0.5, 0.14, 0.16], [0.5, 0.2, 0.2, 0.5, 0.2, 0.2],
        [0.01, 0.05, 0.07, 0.01, 0.09, 0.11], [0.01, 0.1, 0.1, 0.01, 0.1, 0.3],
    ]):
        run["details"] = {"train_calls": 2, "step_s": steps}
    got = bench_pairs.summarize(parent, change, END_TO_END)["metrics"]["op_ms.p50_interior"]
    assert got["parent_q1_median_q3"] == pytest.approx([147.5, 165.0, 182.5])
    assert got["change_q1_median_q3"] == pytest.approx([85.0, 90.0, 95.0])
    assert (got["change_wins"], got["ties"], got["better"]) == (2, 0, "lower")
    assert "op_ms.p50_interior" not in bench_pairs.summarize(
        [_run(1.0, 100.0, 70.0)], [_run(1.0, 100.0, 70.0)], END_TO_END
    )["metrics"]


def test_verdict_prints_each_metric_from_the_section():
    parent = [_run(s, t, 70.0) for s, t in [(1.0, 100.0), (2.0, 110.0), (3.0, 90.0), (4.0, 100.0)]]
    change = [_run(s, t, 70.0) for s, t in [(0.5, 100.0), (1.0, 120.0), (3.5, 95.0), (2.0, 90.0)]]
    for run in parent + change:
        run["details"] = {"train_calls": 1, "step_s": [0.5, 0.1, 0.1]}
    section = bench_pairs.summarize(parent, change, END_TO_END)
    section["metrics"]["dev_nll"]["change_vs_parent_median"] = None  # a parent median of 0
    assert bench_pairs.verdict(section) == [
        "setup_s: change vs parent median -40.0%, wins 3 of 4, ties 0, parent IQR 1.5 s",
        "tokens_per_s: change vs parent median -2.5%, wins 2 of 4, ties 1, parent IQR 5 tok/s",
        "dev_nll: change vs parent median n/a, wins 0 of 4, ties 4, parent IQR 0 nats",
        "op_ms.p50_interior: change vs parent median +0.0%, wins 0 of 4, ties 4, parent IQR 0 ms",
    ]


def test_summarize_needs_matched_pairs():
    with pytest.raises(ValueError):
        bench_pairs.summarize([_run(1.0, 1.0, 1.0)], [], END_TO_END)


def test_export_copies_the_working_tree_as_git_sees_it(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "dest"
    (repo / "pkg").mkdir(parents=True)
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "pkg" / "kept.py").write_text("committed\n")
    (repo / "pkg" / "gone.py").write_text("deleted after the commit\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "start")
    (repo / "pkg" / "kept.py").write_text("edited\n")
    (repo / "pkg" / "gone.py").unlink()
    (repo / "pkg" / "new.py").write_text("untracked\n")
    (repo / "pkg" / "__pycache__").mkdir()
    (repo / "pkg" / "__pycache__" / "kept.pyc").write_text("ignored\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench_pairs, "ROOT", repo)
        bench_pairs.export(None, dest)
        bench_pairs.export("HEAD", tmp_path / "head")
    files = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert files == [".gitignore", "pkg/kept.py", "pkg/new.py"]
    assert (dest / "pkg" / "kept.py").read_text() == "edited\n"
    assert (tmp_path / "head" / "pkg" / "gone.py").is_file()
    assert (tmp_path / "head" / "pkg" / "kept.py").read_text() == "committed\n"
