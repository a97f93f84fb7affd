"""Citation-aware document embeddings with structural citation contexts.

The package learns joint document/word vectors from hyper-documents whose
citations appear inline as ``[[doc-id]]`` markers.  A citation is predicted
from its surrounding words plus the other documents cited nearby, so the
embeddings capture both content and co-citation structure.  Two variants
share one training loop: "avg" combines context pieces uniformly, "att"
learns per-slot attention weights.

The top level carries the pipeline entry points and the types they return;
every other name lives in its submodule.
"""

from .corpus import (
    CitationRelation,
    Corpus,
    SplitResult,
    SyntheticSpec,
    Token,
    extract_relations,
    generate_synthetic_corpus,
    parse_corpus,
    split_train_test,
    tokenize_text,
)
from .errors import (
    CitevecError,
    ConfigError,
    CorpusFormatError,
    ModelIOError,
    QueryError,
)
from .evaluation import (
    AblationRow,
    MetricReport,
    ablation_report,
    evaluate,
    format_ablation,
)
from .model import (
    EmbeddingConfig,
    Model,
    export_word2vec_text,
    init_model,
    load_model,
    save_model,
)
from .recommend import RecommendationList, rank_i4i, recommend
from .train import TrainProgress, train

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # corpus
    "Token",
    "CitationRelation",
    "Corpus",
    "SplitResult",
    "SyntheticSpec",
    "tokenize_text",
    "parse_corpus",
    "extract_relations",
    "split_train_test",
    "generate_synthetic_corpus",
    # model
    "EmbeddingConfig",
    "Model",
    "init_model",
    "save_model",
    "load_model",
    "export_word2vec_text",
    # train
    "TrainProgress",
    "train",
    # recommend
    "RecommendationList",
    "rank_i4i",
    "recommend",
    # evaluation
    "MetricReport",
    "AblationRow",
    "evaluate",
    "ablation_report",
    "format_ablation",
    # errors
    "CitevecError",
    "CorpusFormatError",
    "ConfigError",
    "ModelIOError",
    "QueryError",
]
