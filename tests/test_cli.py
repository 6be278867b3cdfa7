import json
import logging
import re
import shutil

import numpy as np
import pytest

from xlir.cli import load_config, main
from xlir.errors import ValidationError
from xlir.evaluation import read_run
from xlir.synthetic import generate, write_corpus


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small generated corpus plus indexes built through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    corpus = generate(seed=42, num_docs=60, num_topics=4)
    paths = write_corpus(root / "data", corpus)

    for lang in ("fas", "rus", "zho"):
        assert main([
            "psq-translate",
            "--docs", str(paths["docs"]),
            "--table", str(paths[f"table_{lang}"]),
            "--lang", lang,
            "--output", str(root / f"bags/{lang}.jsonl"),
        ]) == 0
        assert main([
            "index-lexical",
            "--bags", str(root / f"bags/{lang}.jsonl"),
            "--output", str(root / f"idx/lex-{lang}"),
        ]) == 0

    assert main([
        "index-dense",
        "--embeddings", str(paths["passage_embeddings"]),
        "--output", str(root / "idx/dense"),
        "--num-centroids", "16",
        "--kmeans-iters", "5",
        "--seed", "7",
    ]) == 0

    plan = root / "shards/plan.json"
    assert main(["shard-plan", "--docs", str(paths["docs"]), "--output", str(plan)]) == 0
    assert main([
        "index-lexical",
        "--bags", str(root / "bags/rus.jsonl"),
        "--shard-plan", str(plan),
        "--output", str(root / "idx/sharded-lexical"),
    ]) == 0
    assert main([
        "index-dense",
        "--embeddings", str(paths["passage_embeddings"]),
        "--shard-plan", str(plan),
        "--output", str(root / "idx/sharded-dense"),
        "--num-centroids", "8",
        "--kmeans-iters", "3",
        "--seed", "7",
    ]) == 0
    return root, paths


INDEX_DIRS = {
    "lexical": "idx/lex-rus",
    "dense": "idx/dense",
    "sharded-lexical": "idx/sharded-lexical",
    "sharded-dense": "idx/sharded-dense",
}


def _search_argv(root, paths, kind, index_dir=None):
    """``search`` arguments for one of the workspace's four index kinds."""
    argv = [
        "search",
        "--index", str(index_dir or root / INDEX_DIRS[kind]),
        "--topics", str(paths["topics"]),
        "--scorer", "bm25",
        "--k", "100",
    ]
    if kind.endswith("dense"):
        argv += ["--query-embeddings", str(paths["query_embeddings"])]
    return argv


def test_search_emits_valid_run(workspace):
    root, paths = workspace
    out = root / "runs/fas_hmm.run"
    code = main([
        "search",
        "--index", str(root / "idx/lex-fas"),
        "--topics", str(paths["topics"]),
        "--variant", "TD",
        "--scorer", "hmm",
        "--rm3",
        "--k", "1000",
        "--run-tag", "hmm_td_rm3",
        "--output", str(out),
    ])
    assert code == 0
    entries = read_run(out)  # validates ranks and score ordering
    assert entries
    assert all(entry.run_tag == "hmm_td_rm3" for entry in entries)


def test_fuse_merges_sorted(workspace):
    root, paths = workspace
    for lang in ("fas", "rus", "zho"):
        main([
            "search",
            "--index", str(root / f"idx/lex-{lang}"),
            "--topics", str(paths["topics"]),
            "--scorer", "hmm",
            "--k", "100",
            "--run-tag", f"hmm_{lang}",
            "--output", str(root / f"runs/{lang}.run"),
        ])
    out = root / "runs/fused.run"
    code = main([
        "fuse",
        str(root / "runs/fas.run"),
        str(root / "runs/rus.run"),
        str(root / "runs/zho.run"),
        "--k", "100",
        "--run-tag", "psqraw",
        "--output", str(out),
    ])
    assert code == 0
    entries = read_run(out)
    langs = {entry.doc_id.split("-")[0] for entry in entries}
    assert langs == {"fas", "rus", "zho"}


def test_dense_search_and_mine(workspace):
    root, paths = workspace
    out = root / "runs/dense.run"
    assert main([
        "search",
        "--index", str(root / "idx/dense"),
        "--query-embeddings", str(paths["query_embeddings"]),
        "--k", "50",
        "--run-tag", "dense",
        "--output", str(out),
    ]) == 0
    entries = read_run(out)
    assert entries
    # Document-level results after MaxP: no passage separators in ids.
    assert all("#" not in entry.doc_id for entry in entries)

    distill_out = root / "distill.jsonl"
    assert main([
        "mine-distill",
        "--index", str(root / "idx/dense"),
        "--query-embeddings", str(paths["query_embeddings"]),
        "--k", "20",
        "--output", str(distill_out),
    ]) == 0
    lines = [json.loads(line) for line in distill_out.read_text().splitlines()]
    assert lines
    assert all(len(record["passages"]) >= 2 for record in lines)


def test_evaluate_prints_means(workspace, capsys):
    root, paths = workspace
    run = root / "runs/for_eval.run"
    main([
        "search",
        "--index", str(root / "idx/lex-fas"),
        "--topics", str(paths["topics"]),
        "--scorer", "bm25",
        "--k", "100",
        "--output", str(run),
    ])
    metrics = root / "metrics.json"
    assert main([
        "evaluate",
        "--run", str(run),
        "--qrels", str(paths["qrels"]),
        "--output", str(metrics),
    ]) == 0
    captured = capsys.readouterr().out
    assert "mean\tndcg@20=" in captured
    report = json.loads(metrics.read_text())
    assert 0.0 <= report["mean"]["ndcg"] <= 1.0


def test_sharded_lexical_pipeline(workspace):
    root, paths = workspace
    plan = root / "plan.json"
    assert main(["shard-plan", "--docs", str(paths["docs"]), "--output", str(plan)]) == 0
    assert main([
        "index-lexical",
        "--bags", str(root / "bags/fas.jsonl"),
        "--shard-plan", str(plan),
        "--output", str(root / "idx/lex-fas-sharded"),
    ]) == 0
    out = root / "runs/fas_sharded.run"
    assert main([
        "search",
        "--index", str(root / "idx/lex-fas-sharded"),
        "--topics", str(paths["topics"]),
        "--scorer", "bm25",
        "--k", "100",
        "--output", str(out),
    ]) == 0
    assert read_run(out)


def test_sharded_dense_pipeline(workspace):
    root, paths = workspace
    plan = root / "plan_dense.json"
    assert main(["shard-plan", "--docs", str(paths["docs"]), "--output", str(plan)]) == 0
    assert main([
        "index-dense",
        "--embeddings", str(paths["passage_embeddings"]),
        "--shard-plan", str(plan),
        "--output", str(root / "idx/dense-sharded"),
        "--num-centroids", "8",
        "--kmeans-iters", "3",
        "--seed", "7",
    ]) == 0
    out = root / "runs/dense_sharded.run"
    assert main([
        "search",
        "--index", str(root / "idx/dense-sharded"),
        "--topics", str(paths["topics"]),
        "--query-embeddings", str(paths["query_embeddings"]),
        "--k", "50",
        "--output", str(out),
    ]) == 0
    entries = read_run(out)
    assert entries
    assert all("#" not in entry.doc_id for entry in entries)


@pytest.mark.parametrize("kind", sorted(INDEX_DIRS))
def test_threads_do_not_change_output(workspace, kind):
    root, paths = workspace
    outputs = []
    for threads in ("1", "4"):
        out = root / f"runs/threads_{kind}_{threads}.run"
        assert main([*_search_argv(root, paths, kind), "--threads", threads, "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0]
    assert outputs[0] == outputs[1]


def test_dense_search_uses_stored_parameters(workspace, tmp_path, caplog):
    """The candidate cap stored at index time applies unless a flag or [dense] config key overrides it."""
    root, paths = workspace
    index_dir = tmp_path / "capped"
    assert main([
        "index-dense",
        "--embeddings", str(paths["passage_embeddings"]),
        "--output", str(index_dir),
        "--num-centroids", "16",
        "--kmeans-iters", "2",
        "--candidate-cap", "5",
    ]) == 0
    config = tmp_path / "dense.ini"
    config.write_text("[dense]\ncandidate_cap = 7\n")
    cases = [
        ([], 5),
        (["--candidate-cap", "3"], 3),
        (["--config", str(config)], 7),
        (["--config", str(config), "--candidate-cap", "3"], 3),
    ]
    for extra, scored in cases:
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="xlir"):
            argv = [*_search_argv(root, paths, "dense", index_dir), *extra, "--output", str(tmp_path / "run")]
            assert main(argv) == 0
        counts = [re.search(r"scored=(\d+)", m).group(1) for m in caplog.messages if "event=dense_search" in m]
        assert counts and set(counts) == {str(scored)}, extra


def test_fully_oov_topics_yield_empty_valid_run(workspace, tmp_path):
    root, _ = workspace
    topics = tmp_path / "oov_topics.jsonl"
    topics.write_text(
        '{"topic_id": "901", "title": "zzz qqq", "description": "www vvv"}\n'
    )
    out = tmp_path / "oov.run"
    assert main([
        "search",
        "--index", str(root / "idx/lex-fas"),
        "--topics", str(topics),
        "--scorer", "hmm",
        "--k", "10",
        "--output", str(out),
    ]) == 0
    assert read_run(out) == []


def test_missing_input_fails_nonzero(tmp_path):
    assert main([
        "index-lexical",
        "--bags", str(tmp_path / "missing.jsonl"),
        "--output", str(tmp_path / "idx"),
    ]) == 1
    assert not (tmp_path / "idx").exists()


def test_config_unknown_key_rejected(tmp_path):
    config = tmp_path / "bad.ini"
    config.write_text("[lexical]\nk1 = 0.9\nbogus = 1\n")
    with pytest.raises(ValidationError, match="bogus"):
        load_config(config)
    ok = tmp_path / "ok.ini"
    ok.write_text("[lexical]\nk1 = 1.2\nlambda = 0.3\n\n[search]\nscorer = hmm\nk = 5\n")
    parsed = load_config(ok)
    assert parsed["lexical"]["k1"] == 1.2
    assert parsed["search"]["k"] == 5


def test_config_supplies_collection_paths(workspace, tmp_path):
    root, paths = workspace
    config = tmp_path / "coll.ini"
    config.write_text(
        f"[collection]\ntopics = {paths['topics']}\nqrels = {paths['qrels']}\n"
        "\n[tokenizer]\nstemmer = identity\n"
    )
    out = tmp_path / "cfg_paths.run"
    assert main([
        "search",
        "--index", str(root / "idx/lex-fas"),
        "--config", str(config),
        "--scorer", "bm25",
        "--k", "20",
        "--output", str(out),
    ]) == 0
    assert main([
        "evaluate",
        "--run", str(out),
        "--config", str(config),
    ]) == 0


def test_unknown_stemmer_rejected(workspace, tmp_path):
    root, paths = workspace
    config = tmp_path / "stem.ini"
    config.write_text("[tokenizer]\nstemmer = porter\n")
    out = tmp_path / "never.run"
    assert main([
        "search",
        "--index", str(root / "idx/lex-fas"),
        "--topics", str(paths["topics"]),
        "--config", str(config),
        "--output", str(out),
    ]) == 1
    assert not out.exists()


def test_config_drives_search(workspace, tmp_path):
    root, paths = workspace
    config = tmp_path / "exp.ini"
    config.write_text("[search]\nscorer = hmm\nk = 10\n\n[output]\nrun_tag = from_config\n")
    out = tmp_path / "cfg.run"
    assert main([
        "search",
        "--index", str(root / "idx/lex-fas"),
        "--topics", str(paths["topics"]),
        "--config", str(config),
        "--output", str(out),
    ]) == 0
    entries = read_run(out)
    assert all(entry.run_tag == "from_config" for entry in entries)
    assert max(entry.rank for entry in entries) <= 10


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _edit_json(change):
    def corrupt(path):
        record = json.loads(path.read_text())
        change(record)
        path.write_text(json.dumps(record))

    return corrupt


def _rename_in_first_line(old, new):
    def corrupt(path):
        first, rest = path.read_text().split("\n", 1)
        path.write_text(first.replace(old, new, 1) + "\n" + rest)

    return corrupt


def _set_first_weight(value):
    def corrupt(path):
        first, rest = path.read_text().split("\n", 1)
        record = json.loads(first)
        record["postings"][0][1] = value
        path.write_text(json.dumps(record) + "\n" + rest)

    return corrupt


def _set_first_centroid_id(value):
    def corrupt(path):
        ids = np.load(path)
        ids[0] = value
        np.save(path, ids)

    return corrupt


def _retype(dtype):
    def corrupt(path):
        np.save(path, np.load(path).astype(dtype))

    return corrupt


def _negate_first_token_count(path):
    # The second passage absorbs the difference, so the totals still match the arrays.
    counts = np.load(path)
    counts[1] += 2 * counts[0]
    counts[0] = -counts[0]
    np.save(path, counts)


def _assign_first_doc(shard):
    return _edit_json(lambda plan: plan["assignment"].update({min(plan["assignment"]): shard}))


# case -> (index kind, file inside the index directory, corruption)
CORRUPTIONS = {
    "sharded-meta-truncated": ("sharded-lexical", "meta.json", _truncate),
    "sharded-meta-no-shards": ("sharded-dense", "meta.json", _edit_json(lambda meta: meta.pop("shards"))),
    "plan-truncated": ("sharded-lexical", "plan.json", _truncate),
    "plan-no-windows": ("sharded-dense", "plan.json", _edit_json(lambda plan: plan.pop("windows"))),
    "plan-shard-out-of-range": ("sharded-lexical", "plan.json", _assign_first_doc(99)),
    "dense-meta-truncated": ("dense", "meta.json", _truncate),
    "dense-meta-no-nprobe": ("dense", "meta.json", _edit_json(lambda meta: meta.pop("nprobe"))),
    "centroid-id-too-large": ("dense", "centroid_ids.npy", _set_first_centroid_id(16)),
    "centroid-id-negative": ("dense", "centroid_ids.npy", _set_first_centroid_id(-1)),
    "centroids-truncated": ("dense", "centroids.npy", _truncate),
    "token-counts-truncated": ("dense", "token_counts.npy", _truncate),
    "token-count-negative": ("dense", "token_counts.npy", _negate_first_token_count),
    "packed-codes-truncated": ("dense", "packed_codes.npy", _truncate),
    "packed-codes-int16": ("dense", "packed_codes.npy", _retype(np.int16)),
    "stats-truncated": ("lexical", "stats.json", _truncate),
    "stats-no-num-docs": ("lexical", "stats.json", _edit_json(lambda stats: stats.pop("num_docs"))),
    "postings-truncated": ("lexical", "postings.jsonl", _truncate),
    "postings-no-term": ("lexical", "postings.jsonl", _rename_in_first_line('"term"', '"trm"')),
    "postings-weight-nan": ("lexical", "postings.jsonl", _set_first_weight(float("nan"))),
    "postings-weight-infinite": ("lexical", "postings.jsonl", _set_first_weight(float("inf"))),
    "postings-weight-negative": ("lexical", "postings.jsonl", _set_first_weight(-1.0)),
    "postings-weight-text": ("lexical", "postings.jsonl", _set_first_weight("x")),
    "postings-weight-numeric-text": ("lexical", "postings.jsonl", _set_first_weight("0.5")),
    "postings-weight-boolean": ("lexical", "postings.jsonl", _set_first_weight(True)),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupt_index_is_a_typed_error(workspace, tmp_path, capsys, case):
    root, paths = workspace
    kind, name, corrupt = CORRUPTIONS[case]
    index_dir = tmp_path / "index"
    shutil.copytree(root / INDEX_DIRS[kind], index_dir)
    corrupt(index_dir / name)
    out = tmp_path / "never.run"
    capsys.readouterr()
    assert main([*_search_argv(root, paths, kind, index_dir), "--output", str(out)]) == 1
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    assert stderr.strip().splitlines()[-1].startswith("error: ")
    assert name in stderr.strip().splitlines()[-1]
    assert not out.exists()


def test_out_of_range_shard_plan_rejected_before_indexing(workspace, tmp_path, capsys):
    root, _ = workspace
    plan = tmp_path / "plan.json"
    shutil.copy(root / "shards/plan.json", plan)
    _assign_first_doc(99)(plan)
    out = tmp_path / "idx"
    assert main(["index-lexical", "--bags", str(root / "bags/fas.jsonl"), "--shard-plan", str(plan),
                 "--output", str(out)]) == 1
    assert "outside [0," in capsys.readouterr().err
    assert not out.exists()
