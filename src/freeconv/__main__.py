"""``python -m freeconv``: the same command line as the ``freeconv`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
