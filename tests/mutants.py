"""Mutation check: every mutant of the package must fail the tests named for it.

Usage, from the root of a checkout:

    python tests/mutants.py

Each entry of ``MUTANTS`` is (file under ``src/fuzzysoft``, old text, new
text, test files). For each entry the script copies ``src/``, ``tests/``,
``perfbench/`` (whose fine spec a reduction test reads) and
``pyproject.toml`` to a temporary directory, replaces the old text, which must
occur exactly once, by the new text, and runs pytest on the named test files
only. A mutant that leaves them passing survives. The unmutated copy must pass
every named file first. The script prints one line per mutant and exits 1 if
any mutant survives or the unmutated copy fails.

The suite runs this outside the tier-1 tests: each mutant reruns whole test
files. Add an entry for each fast path, tolerance or documented rule whose
tests should catch a wrong edit.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

REDUCTION = ("tests/test_reduction.py",)
SCORING = ("tests/test_scoring.py",)
CLI = ("tests/test_cli.py",)
PIPELINE = ("tests/test_pipeline.py",)
VERIFY = ("tests/test_verify.py",)
PROPERTIES = ("tests/test_properties.py",)
SOFTSET = ("tests/test_softset.py",)
INGEST = ("tests/test_ingest.py",)

MUTANTS: list[tuple[str, str, str, tuple[str, ...]]] = [
    # the documented tolerances, pinned by cases with a 5e-9 gap
    ("reduction.py", "TIE_EPSILON = 1e-9", "TIE_EPSILON = 1e-8", REDUCTION),
    ("scoring.py", "COMPARISON_EPSILON = 1e-9", "COMPARISON_EPSILON = 1e-8", SCORING),
    # the threshold keeps its tie guard
    ("reduction.py", "block -= TIE_EPSILON", "block -= 0.0", REDUCTION),
    # tie comparisons stay inclusive on the target side and strict on the other
    ("reduction.py", "f >= best - TIE_EPSILON", "f > best - TIE_EPSILON", REDUCTION),
    ("reduction.py", "sums.min(axis=0) >= block", "sums.min(axis=0) > block", REDUCTION),
    ("reduction.py", "sums.max(axis=0) < threshold[first:stop]", "sums.max(axis=0) <= threshold[first:stop]", REDUCTION),
    # the other rows are walked only when there are some: no rows give no block size
    ("reduction.py", "if not in_target.all():", "if True:", REDUCTION),
    # sums run left to right in parameter order, in choice_values as in the search
    ("reduction.py", "for j in range(s.degrees.shape[1]):", "for j in reversed(range(s.degrees.shape[1])):", REDUCTION),
    # one block per depth, reused: a fresh block per yield is caught by the buffer count
    ("reduction.py", "block = stack[depth]", "block = np.empty_like(table)", REDUCTION),
    # only the optimal rows' support is searched, and when every object is optimal the
    # all-zero columns outside it are reducts on their own
    ("reduction.py", "(s.degrees[in_target] != 0)", "(s.degrees[~in_target] != 0)", REDUCTION),
    ("reduction.py", "if in_target.all():", "if in_target.any():", REDUCTION),
    ("reduction.py", "combos += [(j,) for j in range(len(s.parameters)) if j not in searched]", "combos += []", REDUCTION),
    # minimality: covered runs from each mask up to its supersets, and a mask is tested
    # against the masks one bit smaller
    ("reduction.py", "pairs[:, 1] |= pairs[:, 0]", "pairs[:, 0] |= pairs[:, 1]", REDUCTION),
    ("reduction.py", "pairs[:, 1] &= ~below[:, 0]", "pairs[:, 1] &= ~below[:, 1]", REDUCTION),
    # the count table's uint8 accumulator is flushed before it can overflow
    ("scoring.py", "_FLUSH_COLUMNS = 255", "_FLUSH_COLUMNS = 256", SCORING),
    # the calling thread runs the first row block and the pool only the others
    ("scoring.py", "        try:\n            fill(*jobs[0])", "        try:\n            pass", SCORING),
    ("scoring.py", "for job in jobs[1:]]", "for job in jobs]", SCORING),
    # a count tile skips only the columns that every one of its rows wins outright: a
    # saturated cell is at or above its column's largest q, the skipped columns are those
    # saturated on all of the tile's rows, and each adds exactly 1
    ("scoring.py", "_pattern_tiles(codes >= q.max(axis=1)", "_pattern_tiles(codes > q.max(axis=1)", SCORING),
    ("scoring.py", "np.bitwise_and.reduceat(packed", "np.bitwise_or.reduceat(packed", SCORING),
    ("scoring.py", "total.fill(m - len(cols))", "total.fill(m - len(cols) + 1)", SCORING),
    # a tile's sums go to its rows through the sort order, not to its sorted positions
    ("scoring.py", "counts[order[a:b]] = total", "counts[a:b] = total", SCORING),
    # a tile's later compare chunks add to its accumulator, one column as it is; a tile
    # holds at most cap rows
    ("scoring.py", "if c == 0:", "if True:", SCORING),
    ("scoring.py", "np.add(acc, hit[0], out=acc)", "np.copyto(acc, hit[0])", SCORING),
    ("scoring.py", "cuts.extend(range(min(cuts[-1] + cap, stop), stop + 1, cap))", "pass", SCORING),
    # the workers get contiguous shares of the sorted rows, of about equal cost, a tile cut
    # by a share boundary split between the two
    ("scoring.py", "share = (2 * ends - cost) * workers //", "share = (2 * ends - cost) * 0 //", SCORING),
    ("scoring.py", "[(max(a, lo), min(b, hi), cols) for a, b, cols in tiles", "[(a, b, cols) for a, b, cols in tiles", SCORING),
    # difference mode's tiles cover every row, its workers are no more than its budgeted
    # rows, and its tiles are shared out among them
    ("scoring.py", "(a, min(a + height, n), columns)", "(a, min(a + height, n - 1), columns)", SCORING),
    ("scoring.py", "workers = min(_worker_count(n * n * m), budget_rows)", "workers = _worker_count(n * n * m)", SCORING),
    ("scoring.py", "for a in range(0, n, height)], workers)", "for a in range(0, n, height)], 1)", SCORING),
    # q is the level map of the degrees minus epsilon
    ("scoring.py", "values.searchsorted(values - COMPARISON_EPSILON)", "values.searchsorted(values)", SCORING),
    # a spec's variable names and partition codes are not empty
    ("variables.py", "if not self.name or not all(codes):", "if False:", CLI),
    # a leading BOM is skipped in the data CSV and in the spec JSON
    ("ingest.py", 'encoding="utf-8-sig"', 'encoding="utf-8"', INGEST),
    ("variables.py", 'encoding="utf-8-sig"', 'encoding="utf-8"', ("tests/test_cli.py",)),
    # each error type carries its exit code; write failures and config checks are config errors
    ("errors.py", "exit_code = 2", "exit_code = 1", CLI),
    ("pipeline.py", 'if self.combiner != "max":', "if False:", CLI),
    ("pipeline.py", "if isinstance(exc, OSError):", "if False:", PIPELINE),
    # auto scores the published table only in the mode it was scored with
    ("pipeline.py", ' and cfg.mode == "count"', "", CLI),
    # the study's 72-column product: LPN M and H folded, max-combined, AGE {M, O}
    ("fixtures.py", "np.maximum(lpn[:, 1], lpn[:, 2])", "lpn[:, 1]", VERIFY),
    ("fixtures.py", 'product_n(factors, "max")', 'product_n(factors, "min")', VERIFY),
    ("fixtures.py", '["(AGE)_M", "(AGE)_O"]', '["(AGE)_Y", "(AGE)_O"]', VERIFY),
    # the product merges every operand's levels, folds the codes with its own combiner,
    # and lays out its labels row-major with the first operand slowest
    ("softset.py", "np.concatenate([s.levels.values for s in sets])",
     "np.concatenate([s.levels.values for s in sets[:2]])", PROPERTIES),
    ("softset.py", "codes = fold(", "codes = reduce(partial(_combine_columns, np.maximum), ", PROPERTIES),
    ("softset.py", "itertools.product(*(s.parameters for s in sets))",
     "itertools.product(*(s.parameters for s in sets[::-1]))", (*PROPERTIES, *SOFTSET)),
    # a -0.0 cell is written as its own text
    ("text.py", "np.append(values, -0.0)", "np.append(values, 0.0)", SOFTSET),
    # a grid's IDs and rows are as many
    ("text.py", "if len(ids) != len(grid):", "if False:", SOFTSET),
    # fixed-point texts: a scaled value near a half goes to Python's format, the sign
    # sits in its own column, and an integer part's leading zeros are blank
    ("text.py", "fast &= np.abs(scaled - np.floor(scaled) - 0.5) > scaled * 2.0**-52", "fast &= True", SOFTSET),
    ("text.py", "raw[:, len(lead)] = np.where(sign", "raw[:, len(lead) + 1] = np.where(sign", SOFTSET),
    ("text.py", "blanks += whole == 0", "pass", SOFTSET),
    # the run's quoted IDs are cached by the IDs themselves, not by their count
    ("text.py", "@lru_cache(maxsize=1)\ndef quoted_ids(",
     "@(lambda build: lambda ids, _cache={}: _cache.get(len(ids)) or _cache.setdefault(len(ids), build(ids)))\n"
     "def quoted_ids(", PIPELINE),
    # a membership curve's left tail is the left one
    ("membership.py", "left=mf.left_tail, right=mf.right_tail", "left=mf.right_tail, right=mf.left_tail",
     ("tests/test_membership.py",)),
    # a variable's matrix of degrees is clipped to [0, 1]
    ("membership.py", "return np.clip(out, 0.0, 1.0, out=out)", "return out", ("tests/test_membership.py",)),
    # a column read strips its cells before checking them, refuses an underscore and a
    # ragged row, and leaves any refusal to the row walk, which names the first bad cell
    ("ingest.py", "tokens = [row[index[col]].strip() for row in body]", "tokens = [row[index[col]] for row in body]",
     INGEST),
    ("ingest.py", 'if not all(tokens) or "_" in joined or', "if not all(tokens) or", INGEST),
    ("ingest.py", "if any(len(row) != len(header) for row in body):\n        return None",
     "if False:\n        return None", INGEST),
    ("ingest.py", "        _raise_first_bad_cell(path, *read)", '        raise DataError(f"{path}: cannot read a cell")',
     INGEST),
]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(cwd: Path, tests: tuple[str, ...]) -> int:
    # pyproject.toml puts the copy's src/ first on the path; -B writes no bytecode, which a
    # same-size mutant restored within the same second would otherwise read back
    command = [sys.executable, "-B", "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="fuzzysoft-mutants-") as tmp:
        work = Path(tmp)
        _copy(work)
        named = tuple(sorted({test for *_, tests in MUTANTS for test in tests}))
        if _pytest(work, named) != 0:
            print(f"the unmutated copy fails {' '.join(named)}")
            return 1
        survivors = 0
        for file, old, new, tests in MUTANTS:
            path = work / "src" / "fuzzysoft" / file
            original = path.read_text(encoding="utf-8")
            if original.count(old) != 1:
                print(f"ERROR {file}: {old!r} occurs {original.count(old)} times, not once")
                return 1
            path.write_text(original.replace(old, new), encoding="utf-8")
            start = time.perf_counter()
            try:
                code = _pytest(work, tests)
            finally:
                path.write_text(original, encoding="utf-8")
            if code in (4, 5):  # usage error, no tests collected: the entry is wrong
                print(f"ERROR {file}: pytest exit {code} on {' '.join(tests)}")
                return 1
            verdict = "survived" if code == 0 else "killed"
            survivors += code == 0
            print(f"{verdict:8} {time.perf_counter() - start:5.1f} s  {file}: {old!r} -> {new!r}")
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
