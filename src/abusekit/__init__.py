"""abusekit: CNN-BiLSTM toolkit for gendered-abuse classification.

Pipeline: multi-annotator CSV ingestion with majority-vote label
aggregation, Unicode-aware text cleaning for English/Hindi/Tamil posts,
frozen pretrained embeddings, a hand-differentiated CNN-BiLSTM classifier,
k-fold cross-validated training with fold ensembling, and macro-averaged
precision/recall/F1 scoring.

``import abusekit`` loads no submodule: a public name imports its module
on first use (PEP 562), so a data command never compiles the model code.
"""

import importlib

__version__ = "0.1.0"

# the public names of each submodule
_EXPORTS = {
    "corpus": "LabeledExample aggregate_label assemble_examples kfold_indices "
              "load_external merge_external parse_uli_csv read_dataset "
              "split_train_test write_dataset",
    "embeddings": "WordVectorFile build_matrix load_vectors parse_vector_file "
                  "read_cache write_cache write_vector_file",
    "errors": "AbusekitError BoundsError ConfigurationError CorruptionError "
              "DataIntegrityError NumericError ParseError SchemaError ShapeError",
    "layers": "AdamConfig Parameter adam_step softmax_cross_entropy",
    "metrics": "ClassificationReport classification_report confusion macro_average "
               "macro_f1 per_class_pr",
    "model": "ModelConfig Network load_checkpoint save_checkpoint train_step",
    "text": "PreprocessConfig Vocabulary build_vocab clean encode_batch preprocess "
            "remove_stopwords",
    "training": "RunReport SavedRun TrainConfig emit_curves ensemble_predict "
                "read_config read_run run_cv write_report",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:   # abusekit.training works after a plain import abusekit
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
