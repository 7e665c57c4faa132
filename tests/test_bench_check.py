"""The bench-schema validator catches rot; the committed files pass it.

The validator's file list and required columns come from the suite
registry (:mod:`repro.experiments.bench`), so this module also pins the
registry <-> validator <-> repo-file coverage in both directions: every
registry suite must have its output file committed and validated, and
every committed ``BENCH_*.json`` must belong to a registry suite.
"""

import importlib.util
import json
import pathlib

import pytest

from repro.experiments import bench

REPO_ROOT = pathlib.Path(__file__).parent.parent


@pytest.fixture(scope="module")
def check_bench():
    spec = importlib.util.spec_from_file_location(
        "check_bench", REPO_ROOT / "scripts" / "check_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _minimal_serve_payload():
    return {
        "schema": "bsl-serve-bench/v2",
        "created_unix": 1.0,
        "dataset": "tiny",
        "config": {"k": 5},
        "results": [
            {"kind": "serve", "index": "exact", "cache": "cold",
             "batch_size": 8, "k": 5, "users_per_s": 100.0,
             "ms_per_batch": 1.0, "cache_hit_rate": 0.0},
            {"kind": "serve_sharded", "index": "sharded-exact",
             "shards": 2, "partition_by": "both", "strategy": "contiguous",
             "batch_size": 8, "k": 5, "users_per_s": 90.0,
             "merge_overhead_ms": 0.1, "merge_fraction": 0.05,
             "per_shard_bytes": 1024},
        ],
    }


def _minimal_train_payload():
    return {
        "schema": "bsl-train-bench/v1",
        "created_unix": 1.0,
        "dataset": "tiny",
        "config": {"model": "mf"},
        "results": [
            {"kind": "train_throughput", "model": "mf", "loss": "bsl",
             "grad_mode": "sparse", "num_items": 80, "catalogue_scale": 1,
             "batch_size": 64, "n_negatives": 8, "ms_per_step": 5.0,
             "steps_per_s": 200.0},
            {"kind": "train_quality", "model": "mf", "loss": "bsl",
             "grad_mode": "sparse", "sparse_mode": "lazy", "epochs": 2,
             "ndcg_at_20": 0.2},
        ],
    }


def _minimal_ann_payload():
    return {
        "schema": "bsl-ann-bench/v1",
        "created_unix": 1.0,
        "dataset": "tiny",
        "config": {"k": 5},
        "results": [
            {"kind": "ann_baseline", "index": "exact", "k": 5,
             "batch_size": 32, "users_per_s": 100.0},
            {"kind": "ann", "index": "ivf", "nlist": 4, "nprobe": 2,
             "recall": 0.97, "users_per_s": 300.0, "k": 5,
             "batch_size": 32, "candidates_mean": 20.0,
             "speedup_vs_exact": 3.0},
        ],
    }


def _minimal_scale_payload():
    return {
        "schema": "bsl-scale-bench/v1",
        "created_unix": 1.0,
        "dataset": "tiny",
        "config": {"levels": ["tiny"]},
        "results": [
            {"kind": "scale", "level": "tiny", "num_users": 100,
             "num_items": 80, "catalogue": 8000, "num_train": 500,
             "dim": 8, "batch_size": 64, "n_negatives": 4, "steps": 3,
             "ms_per_step": 1.0, "users_per_s": 100.0,
             "peak_rss_mb": 50.0, "est_dense_bytes": 8000,
             "shard_bytes": 4096},
        ],
    }


class TestRegistryCoverage:
    """Registry <-> validator <-> committed files, both directions."""

    def test_every_suite_output_is_validated(self, check_bench):
        for name in bench.suite_names():
            suite = bench.get_suite(name)
            assert suite.output in check_bench.EXPECTED, name

    def test_every_validated_file_belongs_to_a_suite(self, check_bench):
        outputs = {bench.get_suite(n).output for n in bench.suite_names()}
        assert set(check_bench.EXPECTED) == outputs

    def test_every_suite_output_is_committed(self):
        for name in bench.suite_names():
            suite = bench.get_suite(name)
            assert (REPO_ROOT / suite.output).is_file(), (
                f"suite {name!r} promises {suite.output} but the repo "
                f"does not carry it — run `make {suite.make_target}`")

    def test_every_committed_bench_file_has_a_suite(self):
        outputs = {bench.get_suite(n).output for n in bench.suite_names()}
        for path in REPO_ROOT.glob("BENCH_*.json"):
            assert path.name in outputs, (
                f"{path.name} is committed but no registry suite owns it")

    def test_required_kinds_have_row_fields(self, check_bench):
        for name in bench.suite_names():
            for kind in bench.get_suite(name).required_kinds:
                assert check_bench.REQUIRED_FIELDS.get(kind), (name, kind)


class TestRepoFilesPass:
    def test_committed_bench_files_validate(self, check_bench):
        assert check_bench.main([]) == 0

    def test_serve_schema_is_v2(self):
        payload = json.loads((REPO_ROOT / "BENCH_serve.json").read_text())
        assert payload["schema"] == "bsl-serve-bench/v2"
        kinds = {row["kind"] for row in payload["results"]}
        assert {"serve", "serve_sharded", "overlap"} <= kinds

    def test_ann_file_expected(self, check_bench):
        assert "BENCH_ann.json" in check_bench.EXPECTED
        payload = json.loads((REPO_ROOT / "BENCH_ann.json").read_text())
        assert payload["schema"] == "bsl-ann-bench/v1"
        kinds = {row["kind"] for row in payload["results"]}
        assert {"ann", "ann_baseline"} <= kinds

    def test_train_file_expected(self, check_bench):
        assert "BENCH_train.json" in check_bench.EXPECTED
        payload = json.loads((REPO_ROOT / "BENCH_train.json").read_text())
        assert payload["schema"] == "bsl-train-bench/v1"
        kinds = {row["kind"] for row in payload["results"]}
        assert {"train_throughput", "train_quality"} <= kinds

    def test_scale_file_expected(self, check_bench):
        assert "BENCH_scale.json" in check_bench.EXPECTED
        payload = json.loads((REPO_ROOT / "BENCH_scale.json").read_text())
        assert payload["schema"] == "bsl-scale-bench/v1"
        assert {row["kind"] for row in payload["results"]} == {"scale"}


class TestValidatorCatchesRot:
    def test_good_payload_passes(self, check_bench):
        problems = check_bench.check_payload("BENCH_serve.json",
                                             _minimal_serve_payload())
        assert problems == []

    def test_wrong_schema_rejected(self, check_bench):
        payload = _minimal_serve_payload()
        payload["schema"] = "bsl-serve-bench/v1"
        problems = check_bench.check_payload("BENCH_serve.json", payload)
        assert any("does not match expected" in p for p in problems)

    def test_missing_section_rejected(self, check_bench):
        payload = _minimal_serve_payload()
        payload["results"] = [r for r in payload["results"]
                              if r["kind"] != "serve_sharded"]
        problems = check_bench.check_payload("BENCH_serve.json", payload)
        assert any("serve_sharded" in p and "required section" in p
                   for p in problems)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_numbers_rejected(self, check_bench, bad):
        payload = _minimal_serve_payload()
        payload["results"][0]["users_per_s"] = bad
        problems = check_bench.check_payload("BENCH_serve.json", payload)
        assert any("non-finite" in p for p in problems)

    def test_missing_row_fields_rejected(self, check_bench):
        payload = _minimal_serve_payload()
        del payload["results"][1]["merge_overhead_ms"]
        problems = check_bench.check_payload("BENCH_serve.json", payload)
        assert any("missing fields" in p and "merge_overhead_ms" in p
                   for p in problems)

    def test_missing_top_level_key_rejected(self, check_bench):
        payload = _minimal_serve_payload()
        del payload["results"]
        problems = check_bench.check_payload("BENCH_serve.json", payload)
        assert any("missing top-level key" in p for p in problems)

    def test_empty_results_rejected(self, check_bench):
        payload = _minimal_serve_payload()
        payload["results"] = []
        problems = check_bench.check_payload("BENCH_serve.json", payload)
        assert any("empty" in p for p in problems)

    def test_missing_file_reported(self, check_bench, tmp_path):
        problems = check_bench.check_file(tmp_path / "BENCH_serve.json")
        assert any("file missing" in p for p in problems)

    def test_invalid_json_reported(self, check_bench, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        path.write_text("{not json")
        problems = check_bench.check_file(path)
        assert any("invalid JSON" in p for p in problems)

    def test_unknown_file_reported(self, check_bench, tmp_path):
        path = tmp_path / "BENCH_other.json"
        path.write_text("{}")
        problems = check_bench.check_file(path)
        assert any("unknown bench file" in p for p in problems)


class TestTrainValidation:
    def test_good_train_payload_passes(self, check_bench):
        problems = check_bench.check_payload("BENCH_train.json",
                                             _minimal_train_payload())
        assert problems == []

    def test_missing_frontier_columns_rejected(self, check_bench):
        for column in ("grad_mode", "num_items", "ms_per_step",
                       "steps_per_s"):
            payload = _minimal_train_payload()
            del payload["results"][0][column]
            problems = check_bench.check_payload("BENCH_train.json", payload)
            assert any("missing fields" in p and column in p
                       for p in problems), column

    def test_missing_quality_section_rejected(self, check_bench):
        payload = _minimal_train_payload()
        payload["results"] = [r for r in payload["results"]
                              if r["kind"] != "train_quality"]
        problems = check_bench.check_payload("BENCH_train.json", payload)
        assert any("train_quality" in p and "required section" in p
                   for p in problems)

    def test_non_finite_step_time_rejected(self, check_bench):
        payload = _minimal_train_payload()
        payload["results"][0]["ms_per_step"] = float("nan")
        problems = check_bench.check_payload("BENCH_train.json", payload)
        assert any("non-finite" in p for p in problems)

    def test_wrong_schema_rejected(self, check_bench):
        payload = _minimal_train_payload()
        payload["schema"] = "bsl-train-bench/v0"
        problems = check_bench.check_payload("BENCH_train.json", payload)
        assert any("does not match expected" in p for p in problems)


class TestAnnValidation:
    def test_good_ann_payload_passes(self, check_bench):
        problems = check_bench.check_payload("BENCH_ann.json",
                                             _minimal_ann_payload())
        assert problems == []

    def test_missing_frontier_columns_rejected(self, check_bench):
        for column in ("nlist", "nprobe", "recall", "users_per_s"):
            payload = _minimal_ann_payload()
            del payload["results"][1][column]
            problems = check_bench.check_payload("BENCH_ann.json", payload)
            assert any("missing fields" in p and column in p
                       for p in problems), column

    def test_missing_baseline_section_rejected(self, check_bench):
        payload = _minimal_ann_payload()
        payload["results"] = [r for r in payload["results"]
                              if r["kind"] != "ann_baseline"]
        problems = check_bench.check_payload("BENCH_ann.json", payload)
        assert any("ann_baseline" in p and "required section" in p
                   for p in problems)

    def test_non_finite_recall_rejected(self, check_bench):
        payload = _minimal_ann_payload()
        payload["results"][1]["recall"] = float("nan")
        problems = check_bench.check_payload("BENCH_ann.json", payload)
        assert any("non-finite" in p for p in problems)

    def test_wrong_schema_rejected(self, check_bench):
        payload = _minimal_ann_payload()
        payload["schema"] = "bsl-ann-bench/v0"
        problems = check_bench.check_payload("BENCH_ann.json", payload)
        assert any("does not match expected" in p for p in problems)


class TestScaleValidation:
    def test_good_scale_payload_passes(self, check_bench):
        problems = check_bench.check_payload("BENCH_scale.json",
                                             _minimal_scale_payload())
        assert problems == []

    def test_missing_frontier_columns_rejected(self, check_bench):
        for column in ("level", "num_users", "num_items", "ms_per_step",
                       "users_per_s", "peak_rss_mb", "est_dense_bytes",
                       "shard_bytes"):
            payload = _minimal_scale_payload()
            del payload["results"][0][column]
            problems = check_bench.check_payload("BENCH_scale.json", payload)
            assert any("missing fields" in p and column in p
                       for p in problems), column

    def test_missing_scale_section_rejected(self, check_bench):
        payload = _minimal_scale_payload()
        payload["results"][0]["kind"] = "other"
        problems = check_bench.check_payload("BENCH_scale.json", payload)
        assert any("'scale'" in p and "required section" in p
                   for p in problems)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_rss_rejected(self, check_bench, bad):
        payload = _minimal_scale_payload()
        payload["results"][0]["peak_rss_mb"] = bad
        problems = check_bench.check_payload("BENCH_scale.json", payload)
        assert any("non-finite" in p for p in problems)

    def test_wrong_schema_rejected(self, check_bench):
        payload = _minimal_scale_payload()
        payload["schema"] = "bsl-scale-bench/v0"
        problems = check_bench.check_payload("BENCH_scale.json", payload)
        assert any("does not match expected" in p for p in problems)
