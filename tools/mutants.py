"""Run the committed mutation list against a freeconv checkout.

Usage: python tools/mutants.py SRC

SRC is the ``src`` directory of a freeconv checkout, whose parent holds its
``tests``.  ``tools/mutants.json`` beside this script holds one record per
mutant: an ``id``, the ``file`` it changes (relative to the checkout), an
exact ``snippet`` that occurs once in that file, its ``replacement``, and
the ids of the ``tests`` expected to kill it.

The checkout is copied once to a temporary directory.  The named tests of
every mutant first run there unmutated, and must pass.  Then, one mutant at
a time, the snippet is replaced, the mutant's tests run in one pytest
subprocess (hypothesis seeded, stopping at the first failure), and the file
is restored.  A mutant is killed when a test fails and survives when every
test passes.  One line per mutant is printed.  The exit code is 1 if any
mutant survived; else 2 on a bad list, a failing unmutated run or a run
that neither passed nor failed its tests (one that could not collect them);
else 0.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

LIST = Path(__file__).resolve().parent / "mutants.json"
_COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                      ".hypothesis", "results")


def load(path=LIST):
    """The mutant records, each checked for its keys."""
    records = json.loads(Path(path).read_text())
    for rec in records:
        missing = {"id", "file", "snippet", "replacement", "tests"} - set(rec)
        if missing:
            raise ValueError(f"mutant {rec.get('id')!r} lacks {sorted(missing)}")
    return records


def mutated(text, rec):
    """text with the mutant's snippet replaced; the snippet must occur
    exactly once."""
    count = text.count(rec["snippet"])
    if count != 1:
        raise ValueError(f"mutant {rec['id']!r}: snippet occurs {count} "
                         f"times in {rec['file']}")
    return text.replace(rec["snippet"], rec["replacement"])


def run_tests(root, tests):
    """pytest's exit code for the given test ids, run in root."""
    # no bytecode is written, so no mutant can be read back from a stale .pyc
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
            "no:cacheprovider", "--hypothesis-seed=0", *tests]
    return subprocess.run(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, check=False).returncode


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve().parent
    try:
        records = load()
        sources = {rec["file"]: (checkout / rec["file"]).read_text()
                   for rec in records}
        texts = [mutated(sources[rec["file"]], rec) for rec in records]
    except (OSError, ValueError) as exc:
        print(f"mutants: {exc}", file=sys.stderr)
        return 2
    survived = errors = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "checkout"
        shutil.copytree(checkout, root, ignore=_COPY_IGNORE)
        tests = sorted({t for rec in records for t in rec["tests"]})
        code = run_tests(root, tests)
        if code != 0:
            print(f"mutants: the unmutated tests exit {code}", file=sys.stderr)
            return 2
        for rec, text in zip(records, texts):
            target = root / rec["file"]
            target.write_text(text)
            start = time.perf_counter()
            code = run_tests(root, rec["tests"])
            target.write_text(sources[rec["file"]])
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error {code}")
            survived += code == 0
            errors += code not in (0, 1)
            print(f"{verdict:9} {rec['id']} "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(records)} mutants: {len(records) - survived - errors} "
          f"killed, {survived} survived, {errors} errors")
    return 1 if survived else 2 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
