"""The perf harness runs, reports sane numbers, and keeps its schema."""

import json

import numpy as np
import pytest

from repro.experiments import perf
from repro.experiments.perf import (CLOCK_RESOLUTION_S, PerfConfig, SCHEMA,
                                    clamp_elapsed, run_perf_suite, summarize,
                                    time_eval, time_index_topk,
                                    time_recommend, time_recommend_sharded,
                                    time_train_steps, write_report)

pytestmark = pytest.mark.filterwarnings("ignore")

_FAST = dict(steps=2, warmup=1, dim=8, batch_size=64, n_negatives=8)


class TestTimers:
    def test_train_row_fields(self, tiny_dataset):
        row = time_train_steps("mf", "sl", tiny_dataset, **_FAST)
        assert row["kind"] == "train_step"
        assert row["model"] == "mf" and row["loss"] == "sl"
        assert row["fused"] is True and row["cache_propagation"] is True
        assert row["steps"] == 2
        assert row["total_s"] > 0
        assert row["ms_per_step"] == pytest.approx(
            1e3 * row["total_s"] / row["steps"])
        assert row["steps_per_s"] > 0

    def test_eval_row_fields(self, tiny_dataset):
        row = time_eval("mf", tiny_dataset, repeats=2, dim=8)
        assert row["kind"] == "eval"
        assert row["chunked"] is True
        assert row["users"] > 0
        assert row["users_per_s"] > 0

    def test_reference_flags_recorded(self, tiny_dataset):
        row = time_train_steps("lightgcn", "bsl", tiny_dataset,
                               fused=False, cache_propagation=False, **_FAST)
        assert row["fused"] is False and row["cache_propagation"] is False


class TestSuitePayload:
    @pytest.fixture(scope="class")
    def payload(self):
        config = PerfConfig(dataset="tiny",
                            models=("mf", "lightgcn", "simgcl"),
                            losses=("sl", "bsl"),
                            eval_repeats=1, include_reference=True, **_FAST)
        return run_perf_suite(config)

    def test_schema_header(self, payload):
        assert payload["schema"] == SCHEMA == "bsl-fastpath-bench/v1"
        assert payload["dataset"] == "tiny"
        assert payload["created_unix"] > 0
        assert payload["config"]["models"] == ["mf", "lightgcn", "simgcl"]
        assert payload["config"]["losses"] == ["sl", "bsl"]

    def test_covers_required_grid(self, payload):
        """Acceptance: train rows for {mf, lightgcn, simgcl} x {sl, bsl}."""
        train = {(r["model"], r["loss"]) for r in payload["results"]
                 if r["kind"] == "train_step" and r["fused"]}
        assert train == {(m, l) for m in ("mf", "lightgcn", "simgcl")
                         for l in ("sl", "bsl")}
        evals = {r["model"] for r in payload["results"]
                 if r["kind"] == "eval" and r["chunked"]}
        assert evals == {"mf", "lightgcn", "simgcl"}

    def test_reference_rows_present(self, payload):
        assert any(r["kind"] == "train_step" and not r["fused"]
                   for r in payload["results"])
        assert any(r["kind"] == "eval" and not r["chunked"]
                   for r in payload["results"])

    def test_json_roundtrip(self, payload, tmp_path):
        out = tmp_path / "BENCH_fastpath.json"
        write_report(payload, out)
        loaded = json.loads(out.read_text())
        assert loaded == json.loads(json.dumps(payload))
        assert loaded["schema"] == SCHEMA

    def test_summarize_mentions_every_cell(self, payload):
        text = summarize(payload)
        for model in ("mf", "lightgcn", "simgcl"):
            assert model in text
        assert "ms/step" in text and "users/s" in text


class TestCLI:
    def test_perf_subcommand(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "bench.json"
        rc = main(["perf", "--dataset", "tiny", "--models", "mf",
                   "--losses", "sl", "--steps", "2", "--warmup", "1",
                   "--dim", "8", "--batch-size", "64", "--negatives", "8",
                   "--eval-repeats", "1", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == SCHEMA
        captured = capsys.readouterr().out
        assert "wrote" in captured


class TestMonotonicFloor:
    """Regression: a too-fast timed section must clamp to one clock tick
    instead of emitting ``float("inf")`` throughput that
    ``scripts/check_bench.py`` itself rejects."""

    def test_clamp_floors_at_resolution(self):
        assert clamp_elapsed(0.0) == CLOCK_RESOLUTION_S
        assert clamp_elapsed(-1.0) == CLOCK_RESOLUTION_S
        assert clamp_elapsed(CLOCK_RESOLUTION_S / 2) == CLOCK_RESOLUTION_S

    def test_clamp_passes_real_intervals_through(self):
        assert clamp_elapsed(0.25) == 0.25

    def test_resolution_positive(self):
        assert CLOCK_RESOLUTION_S > 0.0

    @pytest.fixture()
    def frozen_clock(self, monkeypatch):
        """perf_counter that never advances: every elapsed reads 0.0."""
        monkeypatch.setattr(perf.time, "perf_counter", lambda: 123.0)

    def test_time_index_topk_finite_on_frozen_clock(self, frozen_clock):
        class InstantIndex:
            def topk(self, users, k=10):
                return None

        row = time_index_topk(InstantIndex(), np.arange(8), batch_size=4,
                              k=5, repeats=2)
        assert np.isfinite(row["users_per_s"])
        assert row["users_per_s"] == pytest.approx(8 / CLOCK_RESOLUTION_S)

    def test_time_recommend_finite_on_frozen_clock(self, frozen_clock):
        class InstantService:
            class index:
                kind = "exact"

            class stats:
                hit_rate = 0.0

            def recommend(self, users, k=10):
                return []

        row = time_recommend(InstantService(), np.arange(8), batch_size=4,
                             k=5, repeats=2)
        assert np.isfinite(row["users_per_s"])

    def test_time_recommend_sharded_finite_on_frozen_clock(self,
                                                           frozen_clock):
        class InstantStats:
            sweeps = 0
            merge_s = 0.0
            merge_fraction = 0.0

            def reset(self):
                pass

        class InstantIndex:
            kind = "sharded-exact"
            per_shard_table_bytes = [128]

        class InstantService:
            index = InstantIndex()
            router_stats = InstantStats()

            def recommend(self, users, k=10):
                return []

        row = time_recommend_sharded(InstantService(), np.arange(8),
                                     batch_size=4, k=5, repeats=2, shards=2)
        assert np.isfinite(row["users_per_s"])
        assert np.isfinite(row["merge_overhead_ms"])
