import importlib
import json
import logging
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xlir.cli import _CONFIG_SCHEMA, build_parser, load_config, main
from xlir.corpus import ingest_topics
from xlir.dense import EMBEDDING_MAGIC, load_dense_index, search_dense, write_embeddings
from xlir.distill import read_distill_file
from xlir.errors import ValidationError
from xlir.evaluation import read_run
from xlir.shards import ShardPlan, select_shards
from xlir.synthetic import generate, write_corpus

REPO_ROOT = Path(__file__).resolve().parent.parent


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

    assert main(["shard-plan", "--docs", str(paths["docs"]), "--output", str(root / "shards/plan.json")]) == 0
    return root, paths


# search kind -> index directory; a dated search also passes the workspace's shard plan.
INDEX_DIRS = {
    "lexical": "idx/lex-rus",
    "dense": "idx/dense",
    "dated-lexical": "idx/lex-rus",
    "dated-dense": "idx/dense",
}


def _search_argv(root, paths, kind, index_dir=None, plan=None):
    """``search`` arguments for one of the workspace's four search kinds; ``plan`` replaces the
    workspace's shard plan in a dated search."""
    argv = [
        "search",
        "--index", str(index_dir or root / INDEX_DIRS[kind]),
        "--topics", str(paths["topics"]),
        "--scorer", "bm25",
        "--k", "100",
    ]
    if kind.endswith("dense"):
        argv += ["--query-embeddings", str(paths["query_embeddings"])]
    if kind.startswith("dated-"):
        argv += ["--shard-plan", str(plan or root / "shards/plan.json")]
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
    assert read_run(out)  # validates ranks and score ordering
    assert _run_tags(out, None) == {"hmm_td_rm3"}


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
    langs = {doc_id.split("-")[0] for ranked in read_run(out).values() for doc_id, _ in ranked}
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
    run = read_run(out)
    assert run
    # Document-level results after MaxP: no passage separators in ids.
    assert all("#" not in doc_id for ranked in run.values() for doc_id, _ in ranked)

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


def test_mine_distill_refuses_a_lexical_index(workspace, tmp_path, capsys):
    root, paths = workspace
    out = tmp_path / "pairs.jsonl"
    assert main(["mine-distill", "--index", str(root / "idx/lex-fas"),
                 "--query-embeddings", str(paths["query_embeddings"]), "--output", str(out)]) == 1
    assert capsys.readouterr().err.strip().splitlines()[-1] == "error: mine-distill requires a dense index"
    assert not out.exists()


def test_mine_distill_takes_keys_that_name_no_document(tmp_path):
    # "p0000" has no "#<passage number>", so search could not map it to a document.
    rng = np.random.default_rng(5)

    def unit(shape):
        vectors = rng.standard_normal(shape)
        return (vectors / np.linalg.norm(vectors, axis=1, keepdims=True)).astype(np.float32)

    write_embeddings(tmp_path / "passages.emb", {f"p{i:04d}": unit((int(rng.integers(2, 9)), 8)) for i in range(200)})
    queries = {f"q{i}": unit((4, 8)) for i in range(3)}
    write_embeddings(tmp_path / "queries.emb", queries)
    index_dir, out = tmp_path / "idx", tmp_path / "pairs.jsonl"
    assert main(["index-dense", "--embeddings", str(tmp_path / "passages.emb"), "--output", str(index_dir),
                 "--num-centroids", "16", "--kmeans-iters", "5"]) == 0
    assert main(["mine-distill", "--index", str(index_dir), "--query-embeddings", str(tmp_path / "queries.emb"),
                 "--k", "10", "--output", str(out)]) == 0
    index = load_dense_index(index_dir)
    expected = {query_id: search_dense(index, vectors)[:10] for query_id, vectors in queries.items()}
    assert read_distill_file(out) == expected


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "infinity"])
def test_non_finite_embeddings_are_refused_without_output(workspace, tmp_path, capsys, value):
    # A NaN norm once passed the norm check: search wrote "nan" scores and mine-distill bare NaN teacher scores.
    root, paths = workspace
    for kind in ("passage", "query"):
        data = paths[f"{kind}_embeddings"].read_bytes()
        (tmp_path / f"{kind}.liemb").write_bytes(data[:-4] + np.float32(value).tobytes())
    out = tmp_path / "out"
    queries = ["--query-embeddings", str(tmp_path / "query.liemb")]
    for argv in (
        ["index-dense", "--embeddings", str(tmp_path / "passage.liemb"), "--output", str(out / "idx")],
        ["search", "--index", str(root / "idx/dense"), *queries, "--output", str(out / "dense.run")],
        ["mine-distill", "--index", str(root / "idx/dense"), *queries, "--output", str(out / "pairs.jsonl")],
    ):
        assert main(argv) == 1
        assert capsys.readouterr().err.strip().splitlines()[-1].endswith(f"has norm {value:.6f}, expected 1")
    assert not out.exists()


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


@pytest.mark.parametrize("engine", ["lexical", "dense"])
def test_dated_search_returns_documents_of_the_admitted_windows(workspace, tmp_path, engine):
    """``search --shard-plan`` keeps each topic to the windows its date filter selects, and leaves
    a topic without a filter as the undated search ranks it."""
    root, paths = workspace
    plan = ShardPlan.load(root / "shards/plan.json")
    runs = {}
    for kind in (engine, f"dated-{engine}"):
        out = tmp_path / f"{kind}.run"
        assert main([*_search_argv(root, paths, kind), "--output", str(out)]) == 0
        runs[kind] = read_run(out)
    filtered = 0
    for topic in ingest_topics(paths["topics"]):
        date_filter = topic.dates
        dated, undated = runs[f"dated-{engine}"].get(topic.topic_id, []), runs[engine].get(topic.topic_id, [])
        selected = select_shards(plan, date_filter)
        assert all(plan.assignment[doc_id] in selected for doc_id, _ in dated)
        if len(selected) == plan.num_shards:
            assert dated == undated
        else:
            filtered += 1
            assert dated and len(dated) < len(undated)
    assert filtered


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


def test_threads_do_not_change_hmm_rm3_output(workspace):
    # Threads that search one freshly loaded index at once may each compute its impacts.
    root, paths = workspace
    argv = [*_search_argv(root, paths, "lexical"), "--scorer", "hmm", "--rm3"]
    outputs = []
    for threads in ("1", "4"):
        out = root / f"runs/threads_hmm_rm3_{threads}.run"
        assert main([*argv, "--threads", threads, "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0]
    assert outputs[0] == outputs[1]


def test_non_finite_k1_refused(workspace, tmp_path, capsys):
    root, paths = workspace
    config = tmp_path / "nan.ini"
    config.write_text("[lexical]\nk1 = nan\n")
    out = tmp_path / "never.run"
    capsys.readouterr()
    assert main([*_search_argv(root, paths, "lexical"), "--config", str(config), "--output", str(out)]) == 1
    assert "k1 must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_refused(workspace, tmp_path, capsys, threads):
    root, paths = workspace
    out = tmp_path / "never.run"
    capsys.readouterr()
    assert main([*_search_argv(root, paths, "lexical"), "--threads", threads, "--output", str(out)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"error: --threads must be >= 1, got {threads}"]
    assert not out.exists()


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
    assert read_run(out) == {}


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


def test_tokenizer_section_rejected_as_unknown(workspace, tmp_path, capsys):
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
    assert capsys.readouterr().err.strip().splitlines()[-1] == f"error: {config}: unknown config section [tokenizer]"
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
    run = read_run(out)
    assert _run_tags(out, None) == {"from_config"}
    assert max(map(len, run.values())) <= 10


def _docs_subset(paths, tmp_path):
    lines = paths["docs"].read_text(encoding="utf-8").splitlines(keepends=True)
    subset = tmp_path / "docs_subset.jsonl"
    subset.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")
    return str(subset)


def _plan_argv(root, paths, out):
    return ["shard-plan", "--docs", str(paths["docs"]), "--output", str(out)]


def _psq_argv(root, paths, out):
    return ["psq-translate", "--docs", str(paths["docs"]), "--table", str(paths["table_fas"]),
            "--lang", "fas", "--output", str(out)]


def _index_dense_argv(root, paths, out):
    return ["index-dense", "--embeddings", str(paths["passage_embeddings"]), "--output", str(out),
            "--num-centroids", "8", "--kmeans-iters", "2"]


def _lexical_search_argv(root, paths, out):
    return ["search", "--index", str(root / INDEX_DIRS["lexical"]), "--topics", str(paths["topics"]),
            "--output", str(out)]


def _dense_search_argv(root, paths, out):
    return [*_search_argv(root, paths, "dense"), "--output", str(out)]


def _read_bytes(path, _):
    return path.read_bytes()


def _run_tags(path, _):
    read_run(path)  # validates the file
    return {line.split()[5] for line in path.read_text(encoding="utf-8").splitlines()}


def _stored_seed(index_dir, _):
    return json.loads((index_dir / "meta.json").read_text())["seed"]


def _probed_centroids(_, messages):
    return [re.search(r"probed_centroids=(\d+)", m).group(1) for m in messages if "event=dense_search" in m]


# case -> (section, key, config value, value of the flag that must beat it, command argv,
# what to compare as a function of the output path and the log messages); a value may be a
# function of (paths, tmp_path)
PRECEDENCE = {
    "collection-docs": ("collection", "docs", lambda paths, _: str(paths["docs"]), _docs_subset,
                        lambda root, paths, out: ["shard-plan", "--output", str(out)], _read_bytes),
    "psq-max-alts": ("psq", "max_alts", 1, 2, _psq_argv, _read_bytes),
    "dense-seed": ("dense", "seed", 3, 5, _index_dense_argv, _stored_seed),
    "dense-nprobe": ("dense", "nprobe", 1, 16, _dense_search_argv, _probed_centroids),
    "shards-window-months": ("shards", "window_months", 1, 6, _plan_argv, _read_bytes),
    "search-variant": ("search", "variant", "T", "TD", _lexical_search_argv, _read_bytes),
    "search-k": ("search", "k", 3, 5, _lexical_search_argv, _read_bytes),
    "output-run-tag": ("output", "run_tag", "from_config", "from_flag", _lexical_search_argv, _run_tags),
}


@pytest.mark.parametrize("case", sorted(PRECEDENCE))
def test_config_value_applies_and_a_flag_beats_it(workspace, tmp_path, caplog, case):
    """A config key replaces the built-in default, and its flag replaces the config value."""
    root, paths = workspace
    section, key, config_value, flag_value, argv, observe = PRECEDENCE[case]
    config_value, flag_value = (str(v(paths, tmp_path) if callable(v) else v) for v in (config_value, flag_value))
    flag = "--" + key.replace("_", "-")
    config = tmp_path / "exp.ini"
    config.write_text(f"[{section}]\n{key} = {config_value}\n", encoding="utf-8")

    def run(name, *extra):
        out = tmp_path / name
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="xlir"):
            code = main([*argv(root, paths, out), *extra])
        return observe(out, caplog.messages) if code == 0 else None

    default = run("default")
    from_config = run("config", "--config", str(config))
    from_flag = run("flag", flag, flag_value)
    assert from_config is not None and from_flag is not None
    assert from_config != default and from_flag != from_config
    assert run("config-as-flag", flag, config_value) == from_config
    assert run("config-and-flag", "--config", str(config), flag, flag_value) == from_flag


def test_config_keys_are_unique_across_sections():
    """main sets every config key as a parser default by its bare name, so no two sections may share one."""
    keys = [key for section in _CONFIG_SCHEMA.values() for key in section]
    assert len(keys) == len(set(keys))


def test_readme_cli_example_parses():
    """Every ``xlir`` line of the README's CLI example is accepted by the parser."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("## CLI", 1)[1].split("```", 2)[1].replace("\\\n", " ")
    lines = [line for line in example.splitlines() if line.startswith("xlir ")]
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def test_embedding_record_claiming_more_than_the_file_is_refused(tmp_path, capsys):
    # dim 2**31 and 2**31 tokens claim 2**64 bytes, which once ended in a raw OverflowError.
    path = tmp_path / "huge.liemb"
    header = EMBEDDING_MAGIC + struct.pack("<IIQ", 1, 2**31, 1) + struct.pack("<H", 2) + b"p0"
    path.write_bytes(header + struct.pack("<I", 2**31) + bytes(16))
    out = tmp_path / "idx"
    assert main(["index-dense", "--embeddings", str(path), "--output", str(out)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == [f"error: {path}: truncated embedding file while reading 'p0' vectors"]
    assert not out.exists()


def test_json_line_nested_too_deeply_is_refused(workspace, tmp_path, capsys):
    root, paths = workspace
    lines = paths["docs"].read_text(encoding="utf-8").splitlines()
    bad = _write(tmp_path / "docs.jsonl", "\n".join([lines[0], "[" * 100_000, *lines[1:]]) + "\n")
    out = tmp_path / "plan.json"
    capsys.readouterr()
    assert main(["shard-plan", "--docs", str(bad), "--output", str(out)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {bad}:2: JSON nested too deeply to read"]
    assert not out.exists()


def test_bag_weight_that_is_zero_as_float32_indexes_and_searches(tmp_path):
    # index-lexical once wrote 1e-46 as float32 0.0, and search then refused the index's weights.npy.
    topics = _write(tmp_path / "topics.jsonl", '{"topic_id": "1", "title": "a b", "description": "a b"}\n')
    for name, tiny in (("tiny", ', "b": 1e-46'), ("without", "")):
        bags = _write(tmp_path / f"{name}.jsonl", f'{{"id": "d1", "weights": {{"a": 1.0{tiny}}}}}\n'
                      '{"id": "d2", "weights": {"a": 0.5, "b": 2.0}}\n')
        assert main(["index-lexical", "--bags", str(bags), "--output", str(tmp_path / f"idx-{name}")]) == 0
        assert main(["search", "--index", str(tmp_path / f"idx-{name}"), "--topics", str(topics),
                     "--output", str(tmp_path / f"{name}.run")]) == 0
    assert read_run(tmp_path / "tiny.run") == read_run(tmp_path / "without.run") != {}


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _edit_json(change):
    def corrupt(path):
        record = json.loads(path.read_text())
        change(record)
        path.write_text(json.dumps(record))

    return corrupt


def _edit_array(change):
    def corrupt(path):
        np.save(path, change(np.load(path)))

    return corrupt


def _set_first_weight(value):
    def corrupt(path):
        weights = np.load(path)
        weights[0] = value
        np.save(path, weights)

    return corrupt


def _set_first_centroid_id(value):
    # Widened first, so that a value the stored dtype cannot hold is still written.
    def corrupt(path):
        ids = np.load(path).astype(np.int64)
        ids[0] = value
        np.save(path, ids)

    return corrupt


def _set_first_in_stored_dtype(value):
    # One-byte ids and ordinals hold these bad values, so they are written without widening.
    def corrupt(path):
        array = np.load(path)
        assert array.dtype == np.uint8
        array[0] = value(path) if callable(value) else value
        np.save(path, array)

    return corrupt


def _num_docs(postings_path):
    return len(json.loads((postings_path.parent / "docs.json").read_text()))


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


def _wrap_first_token_count(path):
    # As unsigned 64-bit counts, 2**64 - 1 in passage 0 and one more token in passage 1
    # add up to the same total modulo 2**64.
    counts = np.load(path).astype(np.uint64)
    counts[1] += counts[0] + np.uint64(1)
    counts[0] = np.iinfo(np.uint64).max
    np.save(path, counts)


def _claim_shape(shape):
    # The header claims far more values than follow it: loading once allocated them all first.
    def corrupt(path):
        array = np.load(path)
        with open(path, "wb") as fh:
            descr = np.lib.format.dtype_to_descr(array.dtype)
            np.lib.format.write_array_header_1_0(fh, {"descr": descr, "fortran_order": False, "shape": shape})
            fh.write(array.tobytes())

    return corrupt


def _nest_deeply(path):
    # Deeper than the JSON parser recurses, which once raised a raw RecursionError.
    path.write_text("[" * 100_000)


def _assign_first_doc(shard):
    return _edit_json(lambda plan: plan["assignment"].update({min(plan["assignment"]): shard}))


# case -> (index kind, file inside the index directory, corruption)
CORRUPTIONS = {
    "dense-meta-truncated": ("dense", "meta.json", _truncate),
    "dense-meta-no-nprobe": ("dense", "meta.json", _edit_json(lambda meta: meta.pop("nprobe"))),
    "dense-meta-dim": ("dense", "meta.json", _edit_json(lambda meta: meta.update(dim=99))),
    "dense-meta-num-centroids": ("dense", "meta.json", _edit_json(lambda meta: meta.update(num_centroids=3))),
    # int() would load these as 2, 1 and 3; a zero nprobe or negative cap would fail only at search.
    "dense-meta-nprobe-float": ("dense", "meta.json", _edit_json(lambda meta: meta.update(nprobe=2.7))),
    "dense-meta-nprobe-true": ("dense", "meta.json", _edit_json(lambda meta: meta.update(nprobe=True))),
    "dense-meta-nprobe-text": ("dense", "meta.json", _edit_json(lambda meta: meta.update(nprobe="3"))),
    "dense-meta-nprobe-zero": ("dense", "meta.json", _edit_json(lambda meta: meta.update(nprobe=0))),
    "dense-meta-cap-negative": ("dense", "meta.json", _edit_json(lambda meta: meta.update(candidate_cap=-1))),
    "dense-meta-seed-negative": ("dense", "meta.json", _edit_json(lambda meta: meta.update(seed=-1))),
    "centroid-id-too-large": ("dense", "centroid_ids.npy", _set_first_centroid_id(16)),
    "centroid-id-negative": ("dense", "centroid_ids.npy", _set_first_centroid_id(-1)),
    "centroid-id-too-large-uint8": ("dense", "centroid_ids.npy", _set_first_in_stored_dtype(16)),
    "centroids-truncated": ("dense", "centroids.npy", _truncate),
    "token-counts-truncated": ("dense", "token_counts.npy", _truncate),
    "token-count-negative": ("dense", "token_counts.npy", _negate_first_token_count),
    "token-count-unsigned-wraps": ("dense", "token_counts.npy", _wrap_first_token_count),
    "codes-truncated": ("dense", "codes.npy", _truncate),
    "codes-int16": ("dense", "codes.npy", _retype(np.int16)),
    "codes-shape-beyond-file": ("dense", "codes.npy", _claim_shape((2**22, 2**22))),
    "stats-truncated": ("lexical", "stats.json", _truncate),
    "stats-nested-too-deeply": ("lexical", "stats.json", _nest_deeply),
    "stats-no-num-docs": ("lexical", "stats.json", _edit_json(lambda stats: stats.pop("num_docs"))),
    "offsets-truncated": ("lexical", "offsets.npy", _truncate),
    "postings-truncated": ("lexical", "postings.npy", _truncate),
    "postings-shape-beyond-file": ("lexical", "postings.npy", _claim_shape((2**45,))),
    "weights-truncated": ("lexical", "weights.npy", _truncate),
    "offsets-missing-term": ("lexical", "offsets.npy", _edit_array(lambda offsets: offsets[:-1])),
    "postings-ordinal-too-large": ("lexical", "postings.npy", _edit_array(lambda docs: docs.astype(np.int64) + 1000)),
    "postings-ordinal-num-docs-uint8": ("lexical", "postings.npy", _set_first_in_stored_dtype(_num_docs)),
    "terms-number": ("lexical", "terms.json", _edit_json(lambda terms: terms.__setitem__(0, 7))),
    "weights-nan": ("lexical", "weights.npy", _set_first_weight(np.nan)),
    "weights-infinite": ("lexical", "weights.npy", _set_first_weight(np.inf)),
    "weights-negative": ("lexical", "weights.npy", _set_first_weight(-1.0)),
    "weights-zero": ("lexical", "weights.npy", _set_first_weight(0.0)),
    "weights-float64": ("lexical", "weights.npy", _retype(np.float64)),
    "weights-text": ("lexical", "weights.npy", _edit_array(lambda weights: np.full(weights.shape, "x"))),
    "weights-numeric-text": ("lexical", "weights.npy", _retype(str)),
    "weights-boolean": ("lexical", "weights.npy", _retype(bool)),
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


def _drop_first_doc(plan):
    record = json.loads(plan.read_text())
    del record["assignment"][min(record["assignment"])]
    plan.write_text(json.dumps(record))


# case -> (search kind, corruption of a copy of the workspace's shard plan)
PLAN_CORRUPTIONS = {
    "plan-truncated": ("dated-lexical", _truncate),
    "plan-no-windows": ("dated-dense", _edit_json(lambda plan: plan.pop("windows"))),
    "plan-shard-out-of-range": ("dated-lexical", _assign_first_doc(99)),
    "plan-missing-document": ("dated-dense", _drop_first_doc),
}


@pytest.mark.parametrize("case", sorted(PLAN_CORRUPTIONS))
def test_bad_shard_plan_refused_at_search(workspace, tmp_path, capsys, case):
    root, paths = workspace
    kind, corrupt = PLAN_CORRUPTIONS[case]
    plan = tmp_path / "plan.json"
    shutil.copy(root / "shards/plan.json", plan)
    corrupt(plan)
    out = tmp_path / "never.run"
    capsys.readouterr()
    assert main([*_search_argv(root, paths, kind, plan=plan), "--output", str(out)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {plan}"), lines
    assert not out.exists()


def test_out_of_range_shard_plan_rejected_before_searching(workspace, tmp_path, capsys):
    root, paths = workspace
    plan = tmp_path / "plan.json"
    shutil.copy(root / "shards/plan.json", plan)
    _assign_first_doc(99)(plan)
    out = tmp_path / "never.run"
    assert main([*_search_argv(root, paths, "dated-lexical", plan=plan), "--output", str(out)]) == 1
    assert "outside [0," in capsys.readouterr().err
    assert not out.exists()


def test_shard_plan_without_topics_refused(workspace, tmp_path, capsys):
    """A dense search takes its queries from embeddings, so without topics a plan would date nothing."""
    root, paths = workspace
    argv = _search_argv(root, paths, "dated-dense")
    del argv[argv.index("--topics") : argv.index("--topics") + 2]
    out = tmp_path / "never.run"
    capsys.readouterr()
    assert main([*argv, "--output", str(out)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == ["error: --shard-plan needs topics to filter by date: pass --topics or set collection.topics"]
    assert not out.exists()


@pytest.mark.parametrize(
    "record",
    [
        '{"id": "d2", "weights": {"a": "abc"}}',
        '{"id": "d2", "weights": {"a": true}}',
        '{"id": 5, "weights": {"a": 1.0}}',
        '{"id": "d2", "weights": {"a": 1' + "0" * 400 + "}}",
    ],
    ids=["text-weight", "boolean-weight", "numeric-id", "weight-too-large-for-a-float"],
)
def test_bad_bag_rejected_before_indexing(tmp_path, capsys, record):
    bags = tmp_path / "bags.jsonl"
    bags.write_text('{"id": "d1", "weights": {"a": 1.0}}\n' + record + "\n")
    out = tmp_path / "idx"
    assert main(["index-lexical", "--bags", str(bags), "--output", str(out)]) == 1
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    assert stderr.strip().splitlines()[-1].startswith(f"error: {bags}:2: ")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["lexical", "dense"])
@pytest.mark.parametrize("k", ["0", "-5"])
def test_search_rejects_k_below_one(workspace, tmp_path, capsys, kind, k):
    root, paths = workspace
    out = tmp_path / "never.run"
    capsys.readouterr()
    assert main([*_search_argv(root, paths, kind), "--k", k, "--output", str(out)]) == 1
    stderr = capsys.readouterr().err
    assert stderr.strip().splitlines()[-1] == f"error: k must be >= 1, got {k}"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,config,message",
    [
        (["--seed", "-1"], None, "error: seed must be >= 0, got -1"),
        ([], "[dense]\nsample_per_centroid = 0\n", "error: sample_per_centroid must be >= 1, got 0"),
    ],
    ids=["negative-seed-flag", "zero-sample-config"],
)
def test_bad_dense_params_refused_before_indexing(workspace, tmp_path, capsys, flags, config, message):
    # Both once reached numpy's random generator or sampler and ended in a raw ValueError traceback.
    _, paths = workspace
    out = tmp_path / "idx"
    argv = ["index-dense", "--embeddings", str(paths["passage_embeddings"]), "--output", str(out), *flags]
    if config is not None:
        argv += ["--config", str(_write(tmp_path / "exp.ini", config))]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.strip().splitlines() == [message]
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--ndcg-k", "0", "--recall-k", "-5"], "ndcg_k must be >= 1, got 0"),
        (["--recall-k", "-5"], "recall_k must be >= 1, got -5"),
    ],
)
def test_evaluate_rejects_depth_below_one(workspace, tmp_path, capsys, flags, message):
    # The run's topic is unjudged, so no metric would be computed: the refusal comes before scoring.
    _, paths = workspace
    run = _write(tmp_path / "good.run", _GOOD_RUN)
    out = tmp_path / "metrics.json"
    capsys.readouterr()
    assert main(["evaluate", "--run", str(run), "--qrels", str(paths["qrels"]), *flags, "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [f"error: {message}"]
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("k", ["0", "-5"])
def test_fuse_rejects_k_below_one_before_reading_a_run(tmp_path, capsys, k):
    out = tmp_path / "fused.run"
    capsys.readouterr()
    assert main(["fuse", str(tmp_path / "missing.run"), "--k", k, "--output", str(out)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"error: k must be >= 1, got {k}"]
    assert not out.exists()


# case -> (the valid JSON-lines input as (root, paths) -> path, its id field, argv reading the damaged
# copy ``bad`` and writing ``out``)
SURROGATE_INPUTS = {
    "docs": (
        lambda root, paths: paths["docs"],
        "id",
        lambda root, paths, bad, out: ["psq-translate", "--docs", bad, "--table", str(paths["table_fas"]),
                                       "--output", out],
    ),
    "topics": (
        lambda root, paths: paths["topics"],
        "topic_id",
        lambda root, paths, bad, out: ["search", "--index", str(root / INDEX_DIRS["lexical"]), "--topics", bad,
                                       "--output", out],
    ),
    "bags": (
        lambda root, paths: root / "bags/fas.jsonl",
        "id",
        lambda root, paths, bad, out: ["index-lexical", "--bags", bad, "--output", out],
    ),
}


@pytest.mark.parametrize("case", sorted(SURROGATE_INPUTS))
def test_lone_surrogate_id_is_refused_without_output(workspace, tmp_path, capsys, case):
    # JSON reads "\ud800" as a lone surrogate, which the UTF-8 outputs cannot hold: each command once left a
    # file cut at that record (a run file, a bag file, or a lexical index with a truncated docs.json).
    root, paths = workspace
    source, field, argv = SURROGATE_INPUTS[case]
    lines = source(root, paths).read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record[field] = "\ud800" + record[field]
    lines[1] = json.dumps(record)
    assert "\\ud800" in lines[1]
    bad = _write(tmp_path / f"bad-{case}.jsonl", "\n".join(lines) + "\n")
    out = tmp_path / "never"
    capsys.readouterr()
    assert main(argv(root, paths, str(bad), str(out))) == 1
    stderr = capsys.readouterr().err
    assert stderr.strip().splitlines() == [f"error: {bad}:2: holds a lone surrogate, which UTF-8 cannot encode"]
    assert not out.exists()


@pytest.mark.parametrize("name, what", [("docs.json", "document list"), ("terms.json", "term list")])
def test_lone_surrogate_in_a_lexical_index_is_refused_without_output(workspace, tmp_path, capsys, name, what):
    # JSON reads a "\ud800" escape as a lone surrogate, which the UTF-8 run file cannot hold.
    root, paths = workspace
    index_dir = tmp_path / "idx"
    shutil.copytree(root / INDEX_DIRS["lexical"], index_dir)
    names = json.loads((index_dir / name).read_text(encoding="utf-8"))
    names[0] += "\ud800"
    (index_dir / name).write_text(json.dumps(names) + "\n", encoding="utf-8")
    out = tmp_path / "never.run"
    capsys.readouterr()
    assert main([*_search_argv(root, paths, "lexical", index_dir=index_dir), "--output", str(out)]) == 1
    message = f"error: {index_dir / name}: {what} entry {names[0]!r} holds a lone surrogate, which UTF-8 cannot encode"
    assert capsys.readouterr().err.strip().splitlines() == [message]
    assert not out.exists()


def test_verbose_flag_is_gone(capsys):
    # No code logs at debug level, so a flag that selects it would change nothing.
    with pytest.raises(SystemExit) as caught:
        main(["--verbose", "fuse", "a.run", "--output", "never.run"])
    assert caught.value.code == 2
    assert "unrecognized arguments: --verbose" in capsys.readouterr().err


# The first byte of the first passage key: magic, then version, dim and count (16 bytes), then the key length.
_FIRST_KEY_BYTE = len(EMBEDDING_MAGIC) + 16 + 2
_GOOD_RUN = "1 Q0 d1 1 2.0 t\n1 Q0 d2 2 1.0 t\n"

# case -> (the valid input as (root, paths, tmp_path) -> path, offset of the byte set to 0xff
# (None: the middle of the file), argv reading the damaged copy ``bad`` and writing ``out``)
NON_UTF8_INPUTS = {
    "docs": (
        lambda root, paths, tmp: paths["docs"],
        None,
        lambda root, paths, bad, out: ["shard-plan", "--docs", bad, "--output", out],
    ),
    "topics": (
        lambda root, paths, tmp: paths["topics"],
        None,
        lambda root, paths, bad, out: ["search", "--index", str(root / INDEX_DIRS["lexical"]), "--topics", bad,
                                       "--output", out],
    ),
    "table": (
        lambda root, paths, tmp: paths["table_fas"],
        None,
        lambda root, paths, bad, out: ["psq-translate", "--docs", str(paths["docs"]), "--table", bad,
                                       "--lang", "fas", "--output", out],
    ),
    "bags": (
        lambda root, paths, tmp: root / "bags/fas.jsonl",
        None,
        lambda root, paths, bad, out: ["index-lexical", "--bags", bad, "--output", out],
    ),
    "run": (
        lambda root, paths, tmp: _write(tmp / "good.run", _GOOD_RUN),
        None,
        lambda root, paths, bad, out: ["evaluate", "--run", bad, "--qrels", str(paths["qrels"]), "--output", out],
    ),
    "qrels": (
        lambda root, paths, tmp: paths["qrels"],
        None,
        lambda root, paths, bad, out: ["evaluate", "--run", str(_write(Path(out).with_name("good.run"), _GOOD_RUN)),
                                       "--qrels", bad, "--output", out],
    ),
    "embeddings": (
        lambda root, paths, tmp: paths["passage_embeddings"],
        _FIRST_KEY_BYTE,
        lambda root, paths, bad, out: ["index-dense", "--embeddings", bad, "--output", out,
                                       "--num-centroids", "8", "--kmeans-iters", "2"],
    ),
    "config": (
        lambda root, paths, tmp: _write(tmp / "good.ini", "[search]\nk = 5\n"),
        None,
        lambda root, paths, bad, out: ["search", "--index", str(root / INDEX_DIRS["lexical"]),
                                       "--topics", str(paths["topics"]), "--config", bad, "--output", out],
    ),
}


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("case", sorted(NON_UTF8_INPUTS))
def test_non_utf8_input_is_refused(workspace, tmp_path, capsys, case):
    root, paths = workspace
    source, at, argv = NON_UTF8_INPUTS[case]
    data = source(root, paths, tmp_path).read_bytes()
    at = len(data) // 2 if at is None else at
    bad = tmp_path / f"bad-{case}"
    bad.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
    out = tmp_path / "never"
    capsys.readouterr()
    assert main(argv(root, paths, str(bad), str(out))) == 1
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    last = stderr.strip().splitlines()[-1]
    assert last.startswith("error: ") and str(bad) in last
    assert not out.exists()


def test_module_and_console_script_start_the_cli():
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "xlir", "--help"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "mine-distill" in proc.stdout
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    scripts = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"xlir": "xlir.cli:main"}
    module, _, name = scripts["xlir"].partition(":")
    assert getattr(importlib.import_module(module), name) is main
