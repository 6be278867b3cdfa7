"""Cross-language retrieval engine.

Late-interaction dense search over compressed token embeddings, probabilistic
document translation feeding BM25/HMM sparse retrieval with RM3 feedback,
topic date filters applied as document masks, multilingual score fusion,
distillation support operations, and TREC-style evaluation.
"""

from .corpus import (
    Document,
    Passage,
    Tokenizer,
    Topic,
    form_query,
    ingest_collection,
    ingest_topics,
    split_passages,
)
from .dense import (
    DenseIndexParams,
    ResidualCodebook,
    build_dense_index,
    compress,
    decompress,
    load_embeddings,
    maxp_aggregate,
    maxsim,
    search_dense,
    train_codebook,
    write_embeddings,
)
from .distill import DistillPair, distill_loss, mine_hard_passages
from .errors import FormatError, ValidationError, XlirError
from .evaluation import RunEntry, evaluate, ndcg_at_k, read_qrels, read_run, recall_at_k, write_run
from .lexical import (
    InvertedIndex,
    LexicalParams,
    bm25_score,
    build_index,
    hmm_score,
    rm3_expand,
    search_lexical,
)
from .psq import TranslationTable, load_table, prune_table, translate_doc
from .search import open_index
from .shards import DateFilter, ShardPlan, fuse_multilingual, merge_shard_results, plan_shards, select_shards

__version__ = "0.1.0"
