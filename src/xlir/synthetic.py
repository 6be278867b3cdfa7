"""Deterministic synthetic multilingual corpus for pipeline tests and demos.

Generates a small document collection in several artificial "languages"
(disjoint token alphabets), English topics, translation tables from each
document language into English, graded relevance judgments, and token
embeddings in which a document token sits close to its English translation.
Everything derives from a single seed, so two generations with the same
seed are identical.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import DateFilter, Document, Topic, document_tokens, passage_key, split_spans, write_collection, write_topics
from .dense import write_embeddings
from .evaluation import Qrels, write_qrels
from .psq import TranslationTable, table_from_rows, write_table

DEFAULT_LANGUAGES = ("fas", "rus", "zho")


@dataclass
class SyntheticCorpus:
    docs: list[Document]
    topics: list[Topic]
    tables: dict[str, TranslationTable]  # document language -> table into English
    qrels: Qrels
    passage_embeddings: dict[str, np.ndarray]
    query_embeddings: dict[str, np.ndarray]


def _unit(vector: np.ndarray) -> np.ndarray:
    return vector / np.linalg.norm(vector)


def generate(
    seed: int = 0,
    num_docs: int = 500,
    num_topics: int = 10,
    languages: tuple[str, ...] = DEFAULT_LANGUAGES,
    dim: int = 16,
    background_terms: int = 60,
    topical_terms: int = 8,
    year: int = 2020,
) -> SyntheticCorpus:
    rng = np.random.default_rng(seed)

    eng_topical = [
        [f"eng{t:02d}t{j:02d}" for j in range(topical_terms)] for t in range(num_topics)
    ]
    eng_background = [f"engbg{j:03d}" for j in range(background_terms)]
    eng_vocab = [term for group in eng_topical for term in group] + eng_background

    # One or two source tokens per language per English term; the first is the
    # dominant translation, the second leaks a little mass to a random term.
    tables: dict[str, TranslationTable] = {}
    source_tokens: dict[str, dict[str, list[str]]] = {}
    for lang in languages:
        rows: list[tuple[str, str, float]] = []
        by_eng: dict[str, list[str]] = {}
        for i, eng in enumerate(eng_vocab):
            primary = f"{lang}{i:03d}a"
            rows.append((primary, eng, 0.9))
            rows.append((primary, eng_vocab[int(rng.integers(len(eng_vocab)))], 0.1))
            tokens = [primary]
            if rng.random() < 0.3:
                alias = f"{lang}{i:03d}b"
                rows.append((alias, eng, 1.0))
                tokens.append(alias)
            by_eng[eng] = tokens
        # Collapse duplicate (source, target) rows that the random leak may create.
        merged: dict[tuple[str, str], float] = {}
        for source, target, prob in rows:
            merged[(source, target)] = merged.get((source, target), 0.0) + prob
        tables[lang] = table_from_rows((s, t, p) for (s, t), p in merged.items())
        source_tokens[lang] = by_eng

    topics: list[Topic] = []
    for t in range(num_topics):
        terms = eng_topical[t]
        title = " ".join(terms[:2])
        body = list(terms[2:]) + [
            eng_background[int(rng.integers(background_terms))] for _ in range(2)
        ]
        description = " ".join(body)
        start_date = end_date = None
        if t % 3 == 0:
            month = int(rng.integers(1, 13))
            day = int(rng.integers(1, 28))
            start_date = dt.date(year, month, day)
            if t % 6 == 0:
                end_date = start_date + dt.timedelta(days=int(rng.integers(0, 45)))
        topics.append(
            Topic(
                topic_id=f"{t + 201}",
                title=title,
                description=description,
                dates=DateFilter(start_date, end_date),
            )
        )

    docs: list[Document] = []
    qrels: Qrels = {topic.topic_id: {} for topic in topics}
    for i in range(num_docs):
        lang = languages[i % len(languages)]
        doc_id = f"{lang}-{i:04d}"
        topical = rng.random() < 0.7
        topic_idx = int(rng.integers(num_topics)) if topical else -1
        length = int(rng.integers(30, 150))
        topical_fraction = float(rng.uniform(0.15, 0.5)) if topical else 0.0

        tokens: list[str] = []
        for _ in range(length):
            if topical and rng.random() < topical_fraction:
                eng = eng_topical[topic_idx][int(rng.integers(topical_terms))]
            else:
                eng = eng_background[int(rng.integers(background_terms))]
            choices = source_tokens[lang][eng]
            tokens.append(choices[int(rng.integers(len(choices)))])

        title_tokens = tokens[: int(rng.integers(2, 5))]
        date = None
        if rng.random() < 0.9:
            date = dt.date(year, int(rng.integers(1, 13)), int(rng.integers(1, 29)))
        docs.append(
            Document(
                doc_id=doc_id,
                title=" ".join(title_tokens),
                text=" ".join(tokens),
                lang=lang,
                date=date,
            )
        )
        if topical:
            topic_id = topics[topic_idx].topic_id
            qrels[topic_id][doc_id] = 2 if topical_fraction > 0.3 else 1
        elif rng.random() < 0.1:
            topic_id = topics[int(rng.integers(num_topics))].topic_id
            qrels[topic_id][doc_id] = 0

    term_vectors = {term: _unit(rng.standard_normal(dim)) for term in eng_vocab}
    token_vectors: dict[str, np.ndarray] = {}
    for lang in languages:
        for eng, tokens in source_tokens[lang].items():
            for token in tokens:
                noisy = term_vectors[eng] + 0.15 * rng.standard_normal(dim)
                token_vectors[token] = _unit(noisy)

    passage_embeddings: dict[str, np.ndarray] = {}
    for doc in docs:
        tokens = document_tokens(doc)
        for i, (start, end) in enumerate(split_spans(len(tokens))):
            matrix = np.stack([token_vectors[token] for token in tokens[start:end]]).astype(np.float32)
            passage_embeddings[passage_key(doc.doc_id, i)] = matrix

    query_embeddings: dict[str, np.ndarray] = {}
    for topic in topics:
        terms = (topic.title + " " + topic.description).split()
        matrix = np.stack([term_vectors[term] for term in terms]).astype(np.float32)
        query_embeddings[topic.topic_id] = matrix

    return SyntheticCorpus(
        docs=docs,
        topics=topics,
        tables=tables,
        qrels=qrels,
        passage_embeddings=passage_embeddings,
        query_embeddings=query_embeddings,
    )


def write_corpus(dirpath: str | Path, corpus: SyntheticCorpus) -> dict[str, Path]:
    """Write all corpus artifacts under a directory; returns the path map."""
    dirpath = Path(dirpath)
    (dirpath / "tables").mkdir(parents=True, exist_ok=True)
    (dirpath / "embeddings").mkdir(parents=True, exist_ok=True)
    paths = {
        "docs": dirpath / "docs.jsonl",
        "topics": dirpath / "topics.jsonl",
        "qrels": dirpath / "qrels.txt",
        "passage_embeddings": dirpath / "embeddings" / "passages.liemb",
        "query_embeddings": dirpath / "embeddings" / "queries.liemb",
    }
    write_collection(paths["docs"], corpus.docs)
    write_topics(paths["topics"], corpus.topics)
    write_qrels(paths["qrels"], corpus.qrels)
    for lang, table in corpus.tables.items():
        paths[f"table_{lang}"] = dirpath / "tables" / f"{lang}.tsv"
        write_table(paths[f"table_{lang}"], table)
    write_embeddings(paths["passage_embeddings"], corpus.passage_embeddings)
    write_embeddings(paths["query_embeddings"], corpus.query_embeddings)
    return paths
