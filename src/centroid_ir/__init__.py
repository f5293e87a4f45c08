"""Embedding-centroid document retrieval.

Documents and questions become (optionally IDF-weighted) centroids of
their word embeddings; retrieval ranks documents by cosine similarity of
centroids, exactly or through a forest of random-hyperplane partition
trees; retrieved lists can be reranked by relaxed Word Mover's Distance
and evaluated against binary relevance judgments.
"""

from .centroids import Centroid, centroid_idf, centroid_simple, cosine
from .corpus import DocumentRecord, iter_corpus, load_corpus
from .embeddings import (EmbeddingStore, compute_idf, document_frequencies,
                         load_embeddings, load_idf, save_idf)
from .errors import (ConfigMismatch, DimensionMismatch, DuplicateId,
                     EngineError, EvaluationError, IndexFormatError,
                     ParseError, StateError, UnknownIds)
from .evaluation import (EvalReport, average_precision, evaluate,
                         interpolated_precision_curve, ndcg_at_k, read_qrels,
                         report_table, report_to_dict, report_to_json)
from .index import (DEFAULT_LEAF_CAP, DEFAULT_SEED, DEFAULT_TREES,
                    CentroidIndex, load_index, save_index)
from .retrieval import (DEFAULT_K, Question, build_corpus_index, hybrid,
                        load_questions, rerank, retrieve)
from .runs import RankedRun, read_run, write_run
from .rwmd import EmbeddedText, embed_text, rwmd_d, rwmd_max, rwmd_q
from .text import TokenizedText, default_stopwords, load_stopwords, tokenize

__version__ = "0.1.0"

__all__ = [
    "Centroid", "CentroidIndex", "ConfigMismatch", "DEFAULT_K",
    "DEFAULT_LEAF_CAP", "DEFAULT_SEED", "DEFAULT_TREES", "DimensionMismatch",
    "DocumentRecord", "DuplicateId", "EmbeddedText", "EmbeddingStore",
    "EngineError", "EvalReport", "EvaluationError", "IndexFormatError",
    "ParseError", "Question", "RankedRun", "StateError", "TokenizedText",
    "UnknownIds", "average_precision", "build_corpus_index",
    "centroid_idf", "centroid_simple", "compute_idf", "cosine",
    "default_stopwords", "document_frequencies", "embed_text", "evaluate",
    "hybrid", "interpolated_precision_curve",
    "iter_corpus", "load_corpus", "load_embeddings", "load_idf", "load_index",
    "load_questions", "load_stopwords", "ndcg_at_k", "read_qrels", "read_run",
    "rerank", "report_table", "report_to_dict", "report_to_json", "retrieve",
    "rwmd_d", "rwmd_max", "rwmd_q", "save_idf", "save_index", "tokenize",
    "write_run",
]
