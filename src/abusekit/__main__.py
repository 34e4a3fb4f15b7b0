"""``python -m abusekit``: the same command line as the ``abusekit`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
