import numpy as np

from xlir.corpus import ingest_collection, ingest_topics
from xlir.psq import load_table
from xlir.synthetic import generate, write_corpus


def test_same_seed_same_corpus():
    one = generate(seed=5, num_docs=40, num_topics=4)
    two = generate(seed=5, num_docs=40, num_topics=4)
    assert one.docs == two.docs
    assert one.topics == two.topics
    assert one.tables == two.tables
    assert one.qrels == two.qrels
    assert list(one.passage_embeddings) == list(two.passage_embeddings)
    for key in one.passage_embeddings:
        np.testing.assert_array_equal(one.passage_embeddings[key], two.passage_embeddings[key])


def test_different_seed_differs():
    assert generate(seed=1, num_docs=20, num_topics=3).docs != generate(
        seed=2, num_docs=20, num_topics=3
    ).docs


def test_shape_and_validity(tmp_path):
    corpus = generate(seed=9, num_docs=60, num_topics=5)
    assert len(corpus.docs) == 60
    assert len(corpus.topics) == 5
    assert {doc.lang for doc in corpus.docs} == {"fas", "rus", "zho"}
    # Every topic has at least one relevant judged document.
    for topic in corpus.topics:
        grades = corpus.qrels[topic.topic_id].values()
        assert any(g > 0 for g in grades)
    # Embedding rows are unit length.
    for matrix in list(corpus.passage_embeddings.values())[:10]:
        np.testing.assert_allclose(np.linalg.norm(matrix, axis=1), 1.0, atol=1e-4)
    # Written artifacts ingest cleanly; each table file passes load_table's checks and reads back as generated.
    paths = write_corpus(tmp_path, corpus)
    assert len(ingest_collection(paths["docs"])) == 60
    assert ingest_topics(paths["topics"]) == corpus.topics
    for lang, table in corpus.tables.items():
        assert load_table(paths[f"table_{lang}"]) == table
