"""One digest line per verify report of the fixed report matrix.

Usage: python tools/report_digest.py SRC

SRC is the ``src`` directory of a freeconv checkout.  Every suite in SUITES
runs at every (order, dim, trials, seed) in SETTINGS, each as
``python -m freeconv verify`` in a fresh process from SRC, and prints

    SUITE ORDER/DIM/TRIALS/SEED exit=CODE sha1=DIGEST

where DIGEST is the SHA-1 of the report's bytes with the value of its
"elapsed" field blanked, the one field that varies between runs with the
same arguments.  So two checkouts give reports that are byte-identical
apart from ``elapsed``, with the same exit codes, exactly when the outputs
of this script for their two SRC directories do not differ:

    python tools/report_digest.py old/src > old.txt
    python tools/report_digest.py new/src > new.txt
    diff old.txt new.txt
"""

import hashlib
import os
import re
import subprocess
import sys

SUITES = ("transforms", "freeprob", "bijections", "operad", "sab-search",
          "all")
SETTINGS = ((3, 2, 2, 0), (3, 2, 2, 1), (4, 1, 2, 2), (3, 3, 1, 3))

_ELAPSED = re.compile(rb'"elapsed": [^,\n}]*')


def digest_line(src, suite, settings):
    """The digest line of one verify run of the checkout whose source
    directory is `src`."""
    order, dim, trials, seed = settings
    src = os.path.abspath(src)
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "freeconv", "verify", "--suite", suite,
            "--order", str(order), "--dim", str(dim), "--trials", str(trials),
            "--seed", str(seed)]
    run = subprocess.run(argv, cwd=src, env=env, stdout=subprocess.PIPE,
                         check=False)
    sha = hashlib.sha1(_ELAPSED.sub(b'"elapsed": null', run.stdout))
    cell = "/".join(map(str, settings))
    return f"{suite} {cell} exit={run.returncode} sha1={sha.hexdigest()}"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    for settings in SETTINGS:
        for suite in SUITES:
            print(digest_line(argv[0], suite, settings), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
