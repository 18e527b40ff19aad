"""``python -m combcurv``: the command-line interface of :mod:`combcurv.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
