"""Cross-language retrieval engine.

Late-interaction dense search over compressed token embeddings, probabilistic
document translation feeding BM25/HMM sparse retrieval with RM3 feedback,
topic date filters applied as document masks, multilingual score fusion,
distillation support operations, and TREC-style evaluation.
"""

__version__ = "0.1.0"
