"""The benchmark makes its parameter sets from ``perfbench/workloads.json``, and the CLI reads the
``[lexical]`` and ``[dense]`` config sections by field name, so a renamed field or a tightened check
must fail here, fast, rather than in a benchmark run."""

import importlib.util
import json
from dataclasses import fields
from pathlib import Path

import pytest

from xlir.cli import _CONFIG_SCHEMA
from xlir.dense import DenseIndexParams
from xlir.lexical import LexicalParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = sorted(json.loads((PERFBENCH / "workloads.json").read_text(encoding="utf-8"))["workloads"])


@pytest.fixture(scope="module")
def workload_config():
    """``perfbench/common.py``'s reader, which overlays ``tiny`` and ``brief`` as a benchmark run does."""
    spec = importlib.util.spec_from_file_location("perfbench_common", PERFBENCH / "common.py")
    common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(common)
    return common.workload_config


@pytest.mark.parametrize("brief", [False, True], ids=["timed", "brief"])
@pytest.mark.parametrize("scale", ["full", "tiny"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_workload_makes_its_parameter_sets(workload_config, name, scale, brief):
    cfg = workload_config(name, scale, brief=brief)
    # Made as perfbench/measure.py and perfbench/oracles.py make them; the pipeline workload runs the CLI
    # with its script's flags and holds neither section.
    if "index" in cfg:
        search = cfg["search"]
        DenseIndexParams(**cfg["index"], nprobe=search["nprobe"], candidate_cap=search["candidate_cap"])
    if "lexical" in cfg:
        LexicalParams(**cfg["lexical"])
    assert ("index" in cfg or "lexical" in cfg) == (name != "pipeline")


def test_config_keys_name_the_parameter_fields():
    for section, cls in (("lexical", LexicalParams), ("dense", DenseIndexParams)):
        names = {f.name for f in fields(cls)}
        for key in _CONFIG_SCHEMA[section]:
            assert key in names or key + "_" in names, (section, key)
        assert len(_CONFIG_SCHEMA[section]) == len(names)
    assert _CONFIG_SCHEMA["lexical"] == {
        "k1": float, "b": float, "lambda": float, "rm3_fb_docs": int, "rm3_fb_terms": int, "rm3_alpha": float,
    }


def test_every_dense_field_is_an_integer():
    assert set(_CONFIG_SCHEMA["dense"].values()) == {int}
    for f in fields(DenseIndexParams):
        assert f.default is None or type(f.default) is int, f.name
