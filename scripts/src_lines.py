"""Count the code, documentation and blank lines of the package's sources.

    python3 scripts/src_lines.py            # the files of src/trflm
    python3 scripts/src_lines.py DIR_OR_FILE ...
    python3 scripts/src_lines.py --parent REV   # the change since a git revision

Each line that ``wc -l`` counts falls in one class, from the tokens that
``tokenize`` reads on it:

- code: a line that any token other than a comment or a docstring touches,
  so ``x = 1  # note`` is code and so is every line of a multi-line string
  that is not a docstring;
- doc: a line that only comments or docstrings touch, blank lines inside a
  docstring included. A docstring is a string that is a statement of its
  own;
- blank: the rest.

It prints one row per file and a total row: code, doc, blank and lines,
where lines = code + doc + blank.

With ``--parent`` the revision is exported with ``git archive`` into a
temporary directory, as ``bench_pairs.py`` does, and the paths, which are
then taken relative to the repository's root, are counted in it and in
this tree. It prints a row for each file whose counts differ, a file that
one side lacks counting as zeros there, and a total row: the signed change
in code, doc, blank and lines, then the revision's and this tree's
code/doc/blank.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def count_lines(text):
    """(code, doc, blank) line counts of Python source text; they sum to
    the number of newlines in it, as ``wc -l`` counts lines."""
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    code, doc = set(), set()
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            doc.update(range(tok.start[0], tok.end[0] + 1))
    # a docstring is a string between the start and the end of a statement
    sig = [t for t in tokens if t.type not in (tokenize.NL, tokenize.COMMENT)]
    for prev, tok, after in zip([None] + sig[:-1], sig, sig[1:] + [None]):
        if tok.type in LAYOUT:
            continue
        docstring = (
            tok.type == tokenize.STRING
            and (prev is None or prev.type in STATEMENT_START)
            and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        (doc if docstring else code).update(range(tok.start[0], tok.end[0] + 1))
    n = text.count("\n")
    n_code = sum(1 for r in code if r <= n)
    n_doc = sum(1 for r in doc - code if r <= n)
    return n_code, n_doc, n - n_code - n_doc


def sources(paths):
    """The .py files of the given files and directories, in name order."""
    for path in paths:
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def tree_counts(root, paths):
    """{file path relative to root: (code, doc, blank)} of the .py files of
    the given paths, relative to root."""
    files = sources([root / path for path in paths])
    return {os.path.relpath(f, root): count_lines(f.read_text(encoding="utf-8")) for f in files}


def delta(before_root, after_root, paths):
    """Rows (file, counts before, counts after) of the files under paths
    whose counts differ between the two trees, zeros for a file one tree
    lacks, in name order, then ("total", counts before, counts after)."""
    before, after = tree_counts(before_root, paths), tree_counts(after_root, paths)
    zero = (0, 0, 0)
    rows = [
        (name, before.get(name, zero), after.get(name, zero))
        for name in sorted(before.keys() | after.keys())
        if before.get(name) != after.get(name)
    ]
    totals = [tuple(map(sum, zip(zero, *side.values()))) for side in (before, after)]
    return rows + [("total", *totals)]


def main(argv=None):
    p = argparse.ArgumentParser(prog="scripts/src_lines.py")
    p.add_argument("paths", nargs="*", type=Path)
    p.add_argument("--parent", metavar="REV", help="print the change since this git revision")
    args = p.parse_args(argv)
    if args.parent is not None:
        from bench_pairs import export  # beside this script, on sys.path when it runs

        paths = args.paths or [Path("src", "trflm")]
        with tempfile.TemporaryDirectory() as tmp:
            export(args.parent, Path(tmp))
            rows = delta(Path(tmp), ROOT, paths)
        print("file\tcode\tdoc\tblank\tlines\t%s -> this tree" % args.parent)
        for name, old, new in rows:
            diff = [b - a for a, b in zip(old, new)]
            row = (name, *diff, sum(diff), *old, *new)
            print("%s\t%+d\t%+d\t%+d\t%+d\t%d/%d/%d -> %d/%d/%d" % row)
        return 0
    args.paths = args.paths or [ROOT / "src" / "trflm"]
    print("file\tcode\tdoc\tblank\tlines")
    total = [0, 0, 0]
    for path in sources(args.paths):
        counts = count_lines(path.read_text(encoding="utf-8"))
        total = [a + b for a, b in zip(total, counts)]
        print("%s\t%d\t%d\t%d\t%d" % (os.path.relpath(path), *counts, sum(counts)))
    print("total\t%d\t%d\t%d\t%d" % (*total, sum(total)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
