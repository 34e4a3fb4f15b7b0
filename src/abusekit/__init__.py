"""abusekit: CNN-BiLSTM toolkit for gendered-abuse classification.

Pipeline: multi-annotator CSV ingestion with majority-vote label
aggregation, Unicode-aware text cleaning for English/Hindi/Tamil posts,
frozen pretrained embeddings, a hand-differentiated CNN-BiLSTM classifier,
k-fold cross-validated training with fold ensembling, and macro-averaged
precision/recall/F1 scoring.
"""

from .corpus import (LabeledExample, aggregate_label, assemble_examples,
                     kfold_indices, load_external, merge_external,
                     parse_uli_csv, read_dataset, split_train_test,
                     write_dataset)
from .embeddings import (WordVectorFile, build_matrix, load_vectors,
                         parse_vector_file, read_cache, write_cache,
                         write_vector_file)
from .errors import (AbusekitError, BoundsError, ConfigurationError,
                     CorruptionError, DataIntegrityError, NumericError,
                     ParseError, SchemaError, ShapeError)
from .layers import AdamConfig, Parameter, adam_step, softmax_cross_entropy
from .metrics import (ClassificationReport, classification_report, confusion,
                      macro_average, macro_f1, per_class_pr)
from .model import (ModelConfig, Network, load_checkpoint, save_checkpoint,
                    train_step)
from .text import (PreprocessConfig, Vocabulary, build_vocab, clean,
                   encode_batch, preprocess, remove_stopwords)
from .training import (RunReport, SavedRun, TrainConfig, emit_curves,
                       ensemble_predict, read_config, read_run, run_cv,
                       write_report)

__version__ = "0.1.0"

__all__ = [
    "AbusekitError",
    "AdamConfig",
    "BoundsError",
    "ClassificationReport",
    "ConfigurationError",
    "CorruptionError",
    "DataIntegrityError",
    "LabeledExample",
    "ModelConfig",
    "Network",
    "NumericError",
    "Parameter",
    "ParseError",
    "PreprocessConfig",
    "RunReport",
    "SavedRun",
    "SchemaError",
    "ShapeError",
    "TrainConfig",
    "Vocabulary",
    "WordVectorFile",
    "adam_step",
    "aggregate_label",
    "assemble_examples",
    "build_matrix",
    "build_vocab",
    "classification_report",
    "clean",
    "confusion",
    "emit_curves",
    "encode_batch",
    "ensemble_predict",
    "kfold_indices",
    "load_checkpoint",
    "load_external",
    "load_vectors",
    "macro_average",
    "macro_f1",
    "merge_external",
    "parse_uli_csv",
    "parse_vector_file",
    "per_class_pr",
    "preprocess",
    "read_cache",
    "read_config",
    "read_dataset",
    "read_run",
    "remove_stopwords",
    "run_cv",
    "save_checkpoint",
    "softmax_cross_entropy",
    "split_train_test",
    "train_step",
    "write_cache",
    "write_dataset",
    "write_report",
    "write_vector_file",
]
