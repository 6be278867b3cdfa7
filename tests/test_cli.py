import json
import logging
import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from xlir.cli import _CONFIG_SCHEMA, build_parser, load_config, main
from xlir.dense import EMBEDDING_MAGIC
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
    return {entry.run_tag for entry in read_run(path)}


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
    "dense-meta-dim": ("dense", "meta.json", _edit_json(lambda meta: meta.update(dim=99))),
    "dense-meta-num-centroids": ("dense", "meta.json", _edit_json(lambda meta: meta.update(num_centroids=3))),
    "centroid-id-too-large": ("dense", "centroid_ids.npy", _set_first_centroid_id(16)),
    "centroid-id-negative": ("dense", "centroid_ids.npy", _set_first_centroid_id(-1)),
    "centroids-truncated": ("dense", "centroids.npy", _truncate),
    "token-counts-truncated": ("dense", "token_counts.npy", _truncate),
    "token-count-negative": ("dense", "token_counts.npy", _negate_first_token_count),
    "packed-codes-truncated": ("dense", "packed_codes.npy", _truncate),
    "packed-codes-int16": ("dense", "packed_codes.npy", _retype(np.int16)),
    "stats-truncated": ("lexical", "stats.json", _truncate),
    "stats-no-num-docs": ("lexical", "stats.json", _edit_json(lambda stats: stats.pop("num_docs"))),
    "offsets-truncated": ("lexical", "offsets.npy", _truncate),
    "postings-truncated": ("lexical", "postings.npy", _truncate),
    "weights-truncated": ("lexical", "weights.npy", _truncate),
    "offsets-missing-term": ("lexical", "offsets.npy", _edit_array(lambda offsets: offsets[:-1])),
    "postings-ordinal-too-large": ("lexical", "postings.npy", _edit_array(lambda ordinals: ordinals + 1000)),
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


@pytest.mark.parametrize(
    "record",
    [
        '{"id": "d2", "weights": {"a": "abc"}}',
        '{"id": "d2", "weights": {"a": true}}',
        '{"id": 5, "weights": {"a": 1.0}}',
    ],
    ids=["text-weight", "boolean-weight", "numeric-id"],
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
