"""Runs one measured command in a fresh interpreter.

    python3 child.py RESULT_JSON MODE MARK KIND [ARGS...]

MODE is "plain" or "trace".  MARK names the calls, comma-separated as
"module:qualname", whose first call ends the command's set-up.  KIND is:

- ``cli``: ARGS is an ``abusekit`` command line, run through cli.main;
- ``ids``: ARGS is DATASET_JSONL VOCAB_OUT, the corpus-to-ids stage of
  ``train`` (preprocess, build_vocab, encode_batch) over a prepared set;
- ``cache``: ARGS is VECTORS CACHE_OUT: parse a text vector file, then
  write its binary cache.

The result file records the exit code, the time of the first marked
call, the in-process time of the stage for ``ids`` and ``cache``, and the
spans in trace mode.  The process exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time

from tracing import FirstCall, Patcher, Tracer


def _ids_stage(result, dataset, vocab_out):
    from abusekit import corpus, text
    examples = corpus.read_dataset(dataset)
    config = text.PreprocessConfig.default()
    start = time.perf_counter()
    tokens = [text.preprocess(ex.text, ex.language, config) for ex in examples]
    vocab = text.build_vocab(tokens)
    ids = text.encode_batch(tokens, vocab, max_len=100)
    result["stage_s"] = time.perf_counter() - start
    vocab.save(vocab_out)
    result["rows"] = int(ids.shape[0])
    result["cols"] = int(ids.shape[1])
    result["empty_rows"] = int((ids == text.PAD_INDEX).all(axis=1).sum())
    result["vocab_size"] = len(vocab)
    return 0


def _cache_stage(result, vectors_path, cache_out):
    from abusekit import embeddings
    vectors = embeddings.parse_vector_file(vectors_path)
    start = time.perf_counter()
    embeddings.write_cache(vectors, cache_out)
    result["stage_s"] = time.perf_counter() - start
    result["rows"] = len(vectors)
    return 0


def main(argv) -> int:
    result_path, mode, mark, kind, *args = argv
    import abusekit.cli  # loads every package module before anything is patched

    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install(Patcher())
    marker = FirstCall(mark.split(","))
    result = {}
    if kind == "cli":
        code = abusekit.cli.main(args)
    elif kind == "ids":
        code = _ids_stage(result, *args)
    elif kind == "cache":
        code = _cache_stage(result, *args)
    else:
        raise SystemExit(f"unknown kind {kind!r}")
    result["exit"] = code
    result["first_call"] = marker.time
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
