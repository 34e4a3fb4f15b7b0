"""Word-vector plumbing: text files, header autodetection, binary cache.

Writes a toy vector file, reads it back both with and without a count
header, builds the padded embedding matrix a model consumes, and shows
the binary cache reloading value-identically.
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from abusekit.embeddings import (build_matrix, parse_vector_file, read_cache,
                                 write_cache, write_vector_file)
from abusekit.synthetic import make_vector_file
from abusekit.text import build_vocab


def main():
    tokens = ["apple", "banana", "cherry", "durian", "elderberry"]
    vectors = make_vector_file(tokens, dim=8, seed=1)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        plain = tmp / "plain.txt"
        write_vector_file(vectors, plain)
        print(f"wrote {plain.name}, first line:")
        print("  " + plain.read_text().splitlines()[0][:72] + "...")
        parsed = parse_vector_file(plain)
        print(f"parsed: dim={parsed.dimension}, entries={len(parsed.entries)}, "
              f"header detected: {parsed.had_header}")

        headed = tmp / "with_header.txt"
        write_vector_file(vectors, headed, header=True)
        print(f"\nwrote {headed.name}, first line: "
              f"{headed.read_text().splitlines()[0]!r}")
        parsed2 = parse_vector_file(headed)
        print(f"parsed: header detected: {parsed2.had_header}")

        # vocabulary indices 0/1 are reserved for padding and OOV
        vocab = build_vocab([["apple", "banana", "zucchini"]])
        matrix, coverage = build_matrix(vocab, vectors)
        print(f"\nembedding matrix: {matrix.shape}, "
              f"coverage {coverage:.2f} "
              f"(zucchini missing, PAD and OOV rows stay zero)")
        print(f"row norms: {np.linalg.norm(matrix, axis=1).round(3)}")

        cache = tmp / "vectors.cache"
        started = time.perf_counter()
        write_cache(vectors, cache)
        reloaded = read_cache(cache)
        elapsed = time.perf_counter() - started
        identical = all(np.array_equal(reloaded.entries[w], vectors.entries[w])
                        for w in vectors.entries)
        print(f"\nbinary cache round trip in {elapsed * 1000:.1f}ms, "
              f"value-identical: {identical}")


if __name__ == "__main__":
    main()
