"""Worker process of training.run_folds.

    python -m abusekit._foldworker

It reads a pickled (job, folds) from stdin, the pipe of the command that
started it, and writes the pickled [job(fold) for fold in folds] to
stdout.  A failing fold is one line on stderr and exit 3 for a
NumericError, exit 2 for any other AbusekitError or an OSError.
"""

import pickle
import sys

from .errors import AbusekitError, NumericError


def main() -> int:
    try:
        job, folds = pickle.load(sys.stdin.buffer)
        results = [job(fold) for fold in folds]
    except NumericError as exc:
        print(exc, file=sys.stderr)
        return 3
    except (AbusekitError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    pickle.dump(results, sys.stdout.buffer, protocol=pickle.HIGHEST_PROTOCOL)
    sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
