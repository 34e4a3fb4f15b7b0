"""Worker process of a parallel ensemble predict (training.ensemble_predict).

    python -m abusekit._foldworker RUN_DIR BATCH_SIZE FOLD [FOLD ...]

It reads the encoded posts, one .npy array, from stdin, loads each FOLD
of the run directory RUN_DIR, and writes each fold's per-head softmax
probabilities to stdout as .npy arrays, fold by fold and head by head.
A fold that does not load is one line on stderr and exit 2.
"""

import sys

from .errors import AbusekitError
from .training import _npy_arrays, _npy_bytes, fold_probabilities, read_run


def main(argv: list[str]) -> int:
    run_dir, batch_size, *folds = argv
    try:
        sequences, = _npy_arrays(sys.stdin.buffer.read(), 1)
        run = read_run(run_dir)
        probs = [p for fold in folds for p in fold_probabilities(
            run.load_fold(int(fold)), sequences, int(batch_size))]
    except (AbusekitError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    sys.stdout.buffer.write(_npy_bytes(probs))
    sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
