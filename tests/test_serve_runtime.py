"""ServingRuntime: admission, shedding, queue-drain batching, breakdown."""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.serve import (AsyncRequest, ExactTopKIndex, OverloadError,
                         RecommendationService, RuntimeConfig, RuntimeStats,
                         ServingRuntime, ShardedRecommendationService,
                         export_sharded_snapshot)


@pytest.fixture()
def service(tiny_mf_snapshot):
    _, snapshot = tiny_mf_snapshot
    return RecommendationService(snapshot)


def fast_config(**overrides):
    """Small queue and batch bound so tests exercise both quickly."""
    defaults = dict(max_queue=64, max_batch=32)
    defaults.update(overrides)
    return RuntimeConfig(**defaults)


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [
        dict(max_queue=0), dict(max_queue=-1),
        dict(max_batch=0), dict(max_batch=-4),
        dict(poll_ms=0.0), dict(poll_ms=-1.0),
        dict(deadline_ms=-1.0), dict(reservoir_size=0),
    ])
    def test_bad_knobs_rejected(self, bad):
        with pytest.raises(ValueError):
            RuntimeConfig(**bad)

    def test_defaults_valid(self):
        config = RuntimeConfig()
        assert config.max_batch > 0 and config.max_queue > 0
        assert [f.name for f in dataclasses.fields(RuntimeConfig)] == [
            "max_queue", "max_batch", "poll_ms", "reservoir_size",
            "reservoir_seed", "deadline_ms", "restart_on_crash",
            "max_restarts"]


class TestSubmitAndResults:
    def test_results_match_direct_recommend(self, tiny_mf_snapshot, service):
        _, snapshot = tiny_mf_snapshot
        users = list(range(12))
        with ServingRuntime(service, fast_config()) as runtime:
            handles = [runtime.submit(u, k=7) for u in users]
            results = [h.result(timeout=10.0) for h in handles]
        want = ExactTopKIndex(snapshot).topk(np.array(users), k=7)
        for row, rec in enumerate(results):
            assert rec.user_id == users[row]
            np.testing.assert_array_equal(rec.items, want.items[row])
            np.testing.assert_array_equal(rec.scores, want.scores[row])

    def test_mixed_request_shapes_grouped(self, service):
        with ServingRuntime(service, fast_config()) as runtime:
            a = runtime.submit(0, k=3)
            b = runtime.submit(1, k=9)
            c = runtime.submit(2, k=3, filter_seen=False)
            assert len(a.result(timeout=10.0).items) == 3
            assert len(b.result(timeout=10.0).items) == 9
            assert len(c.result(timeout=10.0).items) == 3

    def test_stats_count_admitted_and_completed(self, service):
        with ServingRuntime(service, fast_config()) as runtime:
            handles = [runtime.submit(u, k=5) for u in range(20)]
            for handle in handles:
                handle.result(timeout=10.0)
        stats = runtime.stats
        assert stats.admitted == 20 and stats.completed == 20
        assert stats.rejected == 0 and stats.shed_rate == 0.0
        assert 0 < stats.batches <= 20
        assert stats.mean_batch == pytest.approx(20 / stats.batches)

    def test_request_timestamps_and_latency(self, service):
        with ServingRuntime(service, fast_config()) as runtime:
            handle = runtime.submit(3, k=5)
            handle.result(timeout=10.0)
        assert handle.done
        assert handle.enqueued_at <= handle.started_at <= handle.finished_at
        assert handle.latency_ms >= handle.service_ms >= 0.0
        assert handle.latency_ms == pytest.approx(
            handle.queue_ms + handle.service_ms)

    def test_unfinished_request_reports_zero_latency(self):
        request = AsyncRequest(0, 10, True)
        assert not request.done
        assert request.queue_ms == request.service_ms == 0.0
        assert request.latency_ms == 0.0

    def test_result_timeout_raises(self, service):
        runtime = ServingRuntime(service, fast_config())  # never started
        handle = runtime.submit(0, k=5)
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.01)

    def test_worker_error_propagates_to_waiters(self, service):
        with ServingRuntime(service, fast_config()) as runtime:
            handle = runtime.submit(10 ** 9, k=5)  # out-of-range user id
            with pytest.raises(ValueError):
                handle.result(timeout=10.0)


class TestOverload:
    def test_full_queue_sheds_with_overload_error(self, service):
        runtime = ServingRuntime(service, fast_config(max_queue=4))
        for u in range(4):
            runtime.submit(u, k=5)
        with pytest.raises(OverloadError, match="shed"):
            runtime.submit(99, k=5)
        assert runtime.stats.rejected == 1
        assert runtime.stats.admitted + runtime.stats.rejected == 5
        assert runtime.stats.shed_rate == pytest.approx(0.2)
        runtime.start()
        runtime.stop()
        # every admitted request is served; the shed one never is
        assert runtime.stats.completed == runtime.stats.admitted == 4

    def test_shed_rate_zero_without_traffic(self):
        assert RuntimeStats().shed_rate == 0.0
        assert RuntimeStats().mean_batch == 0.0


class TestLifecycle:
    def test_stop_drains_admitted_requests(self, service):
        runtime = ServingRuntime(service, fast_config())
        handles = [runtime.submit(u, k=5) for u in range(10)]
        runtime.start()
        runtime.stop()
        assert all(h.done for h in handles)
        assert runtime.pending == 0
        assert not runtime.running

    def test_start_stop_idempotent(self, service):
        runtime = ServingRuntime(service, fast_config())
        runtime.start()
        runtime.start()
        assert runtime.running
        runtime.stop()
        runtime.stop()
        assert not runtime.running

    def test_restart_after_stop(self, service):
        runtime = ServingRuntime(service, fast_config())
        with runtime:
            runtime.submit(0, k=5).result(timeout=10.0)
        with runtime:
            runtime.submit(1, k=5).result(timeout=10.0)
        assert runtime.stats.completed == 2

    def test_repr_mentions_state(self, service):
        runtime = ServingRuntime(service, fast_config())
        assert "running=False" in repr(runtime)
        assert "max_batch=32" in repr(runtime)


class _RecordingService:
    """Delegating wrapper that records every ``recommend`` batch size.

    With ``stall`` set, the first call signals ``entered`` and then
    blocks until ``release`` is set, so a test can queue work behind a
    batch in flight deterministically.
    """

    def __init__(self, inner, stall: bool = False):
        self._inner = inner
        self.sizes: list[int] = []
        self.entered = threading.Event()
        self.release = threading.Event()
        if not stall:
            self.release.set()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def recommend(self, users, k=10, filter_seen=True):
        self.sizes.append(len(users))
        self.entered.set()
        assert self.release.wait(10.0), "stalled batch never released"
        return self._inner.recommend(users, k=k, filter_seen=filter_seen)


def _greedy_split(queued: int, max_batch: int) -> list[int]:
    """The batches queue-drain forms from ``queued`` waiting requests."""
    full, rest = divmod(queued, max_batch)
    return [max_batch] * full + ([rest] if rest else [])


class TestQueueDrainBatching:
    """Each sweep takes everything queued, up to ``max_batch``: the
    batch is a function of queue depth alone, never of past batches."""

    def test_queued_backlog_drains_in_max_batches(self, service):
        recorder = _RecordingService(service)
        runtime = ServingRuntime(recorder, RuntimeConfig())
        handles = [runtime.submit(u % 50, k=5) for u in range(300)]
        runtime.start()
        runtime.stop()
        assert recorder.sizes == [256, 44]
        assert all(h.done for h in handles)
        assert runtime.stats.batches == 2
        assert runtime.stats.mean_batch == pytest.approx(150.0)

    @pytest.mark.parametrize("queued", [1, 7, 8, 9, 33])
    def test_batches_never_exceed_max_batch(self, service, queued):
        recorder = _RecordingService(service)
        runtime = ServingRuntime(recorder, fast_config(max_batch=8))
        for u in range(queued):
            runtime.submit(u % 50, k=5)
        runtime.start()
        runtime.stop()
        assert recorder.sizes == _greedy_split(queued, 8)
        assert runtime.stats.completed == queued

    def test_batch_after_a_stall_drains_the_backlog(self, service):
        """A stalled batch lets the queue grow; the next sweep must take
        min(queued, max_batch), so a stall can only raise throughput
        for the backlog behind it, never shrink the batch."""
        recorder = _RecordingService(service, stall=True)
        with ServingRuntime(recorder, RuntimeConfig()) as runtime:
            first = runtime.submit(0, k=5)
            assert recorder.entered.wait(10.0)
            backlog = [runtime.submit(u % 50, k=5) for u in range(300)]
            assert runtime.pending == 300
            recorder.release.set()
            for handle in [first, *backlog]:
                handle.result(timeout=10.0)
        assert recorder.sizes == [1, 256, 44]
        assert runtime.stats.completed == 301


class TestAdaptiveBatching:
    """The batch adapts to queue depth alone; what it did stays visible
    through the batch counters and the latency quantiles."""

    def test_adaptation_counters_exposed(self, service):
        with ServingRuntime(service, fast_config()) as runtime:
            for u in range(12):
                runtime.submit(u, k=5).result(timeout=10.0)
        # one request in flight at a time: every sweep serves it alone
        assert runtime.stats.completed == 12
        assert runtime.stats.batches == 12
        assert runtime.stats.mean_batch == pytest.approx(1.0)
        assert runtime.breakdown()["mean_batch"] == pytest.approx(1.0)
        quantiles = runtime.latency_quantiles()
        assert set(quantiles) == {"p50_ms", "p99_ms"}
        assert all(v >= 0.0 for v in quantiles.values())


class TestBreakdown:
    def test_unsharded_breakdown_terms(self, service):
        with ServingRuntime(service, fast_config()) as runtime:
            handles = [runtime.submit(u, k=5) for u in range(16)]
            for handle in handles:
                handle.result(timeout=10.0)
        breakdown = runtime.breakdown()
        for term in ("queue_ms", "service_ms", "sweep_ms", "mean_batch"):
            assert term in breakdown
        assert breakdown["queue_ms"] >= 0.0
        assert breakdown["service_ms"] > 0.0
        assert breakdown["sweep_ms"] > 0.0
        assert "gather_ms" not in breakdown  # no router underneath

    def test_sharded_breakdown_includes_router_split(self, tiny_dataset,
                                                     tiny_mf_snapshot,
                                                     tmp_path):
        model, _ = tiny_mf_snapshot
        sharded = export_sharded_snapshot(model, tiny_dataset, tmp_path,
                                          shards=3)
        service = ShardedRecommendationService(sharded, cache_size=0)
        with ServingRuntime(service, fast_config()) as runtime:
            handles = [runtime.submit(u, k=5) for u in range(16)]
            for handle in handles:
                handle.result(timeout=10.0)
        breakdown = runtime.breakdown()
        for term in ("gather_ms", "score_ms", "merge_ms"):
            assert term in breakdown
            assert breakdown[term] >= 0.0

    def test_concurrent_submitters_all_answered(self, service):
        """Multiple client threads submitting at once: every request is
        answered exactly once and counters stay consistent."""
        errors = []

        def client(runtime, base):
            try:
                handles = [runtime.submit((base + i) % 50, k=5)
                           for i in range(10)]
                for handle in handles:
                    handle.result(timeout=10.0)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with ServingRuntime(service, fast_config()) as runtime:
            threads = [threading.Thread(target=client, args=(runtime, b))
                       for b in (0, 10, 20)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert runtime.stats.completed == 30
        assert runtime.stats.admitted == 30


class TestLatencyReservoir:
    """latency_quantiles() samples a bounded *seeded* reservoir, so the
    lifetime estimate is deterministic for a given request order and
    never grows with the soak length."""

    def test_reservoir_config_knobs_validated(self):
        with pytest.raises(ValueError, match="reservoir_size"):
            RuntimeConfig(reservoir_size=0)
        with pytest.raises(ValueError, match="reservoir_size"):
            RuntimeConfig(reservoir_size=-8)

    def test_sample_is_bounded_by_capacity(self, service):
        config = fast_config(reservoir_size=16)
        with ServingRuntime(service, config) as runtime:
            for u in range(80):
                runtime.submit(u % 50, k=5).result(timeout=10.0)
        assert len(runtime._reservoir) == 16
        assert runtime._reservoir.seen == runtime.stats.completed == 80
        quantiles = runtime.latency_quantiles()
        assert quantiles["p50_ms"] >= 0.0
        assert quantiles["p99_ms"] >= quantiles["p50_ms"]

    def test_under_capacity_keeps_every_sample(self, service):
        with ServingRuntime(service, fast_config()) as runtime:
            for u in range(10):
                runtime.submit(u, k=5).result(timeout=10.0)
        assert len(runtime._reservoir) == 10
        assert runtime._reservoir.seen == 10

    def test_selection_is_seed_deterministic(self):
        """Which *positions* of the latency stream survive is a pure
        function of (capacity, seed) — replaying the same stream through
        a twin reservoir keeps identical samples."""
        from repro.obs.metrics import Reservoir
        config = RuntimeConfig(reservoir_size=32, reservoir_seed=7)
        twin = Reservoir(capacity=config.reservoir_size,
                         seed=config.reservoir_seed)
        stream = [float(i % 97) for i in range(500)]
        mirror = Reservoir(capacity=config.reservoir_size,
                           seed=config.reservoir_seed)
        for v in stream:
            twin.add(v)
            mirror.add(v)
        assert twin.values() == mirror.values()
        assert twin.seen == 500


# ----------------------------------------------------------------------
# Robustness: deadlines, worker supervision, health (docs/robustness.md)
# ----------------------------------------------------------------------
class _SlowService:
    """Delegating wrapper whose every ``recommend`` sleeps first."""

    def __init__(self, inner, delay_s: float):
        self._inner = inner
        self._delay_s = delay_s

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def recommend(self, users, k=10, filter_seen=True):
        time.sleep(self._delay_s)
        return self._inner.recommend(users, k=k, filter_seen=filter_seen)


class _PoisonService:
    """Delegating wrapper that raises for batches containing ``bad``."""

    def __init__(self, inner, bad: int):
        self._inner = inner
        self._bad = bad

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def recommend(self, users, k=10, filter_seen=True):
        if self._bad in list(users):
            raise ValueError(f"poisoned request for user {self._bad}")
        return self._inner.recommend(users, k=k, filter_seen=filter_seen)


class TestResultTimeout:
    def test_result_expires_while_pending(self, service):
        runtime = ServingRuntime(service, fast_config())
        handle = runtime.submit(0, k=5)  # no worker started yet
        with pytest.raises(TimeoutError, match="still pending"):
            handle.result(timeout=0.05)
        assert not handle.done
        runtime.start()
        runtime.stop()
        assert handle.result(timeout=5.0).user_id == 0


class TestQueueDeadlines:
    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            RuntimeConfig(deadline_ms=0.0)
        with pytest.raises(ValueError):
            RuntimeConfig(max_restarts=-1)

    def test_expired_requests_fail_with_deadline_exceeded(self, service):
        from repro.serve import DeadlineExceeded
        slow = _SlowService(service, 0.05)
        config = fast_config(deadline_ms=20.0, max_batch=2)
        with ServingRuntime(slow, config) as runtime:
            handles = [runtime.submit(u, k=5) for u in range(8)]
            served = expired = 0
            for handle in handles:
                try:
                    handle.result(timeout=10.0)
                    served += 1
                except DeadlineExceeded:
                    expired += 1
        # The first batch is picked up fresh; everything queued behind
        # a 50 ms batch has blown its 20 ms deadline at pickup.
        assert served >= 1 and expired >= 1
        assert served + expired == 8
        assert runtime.stats.deadline_expired == expired

    def test_stop_drains_a_backlog_of_expired_requests(self, service):
        """Regression: a sweep whose every request had expired returns
        an empty batch, and the loop used to take that for an empty
        queue and exit on stop, stranding the rest of the backlog."""
        from repro.serve import DeadlineExceeded
        runtime = ServingRuntime(service,
                                 fast_config(deadline_ms=1.0, max_batch=2))
        handles = [runtime.submit(u, k=5) for u in range(5)]
        time.sleep(0.02)  # every deadline is now well past
        runtime._stop.set()
        runtime._run()  # the worker loop, on this thread
        assert all(h.done for h in handles)
        assert runtime.pending == 0
        for handle in handles:
            with pytest.raises(DeadlineExceeded):
                handle.result(timeout=0)
        assert runtime.stats.deadline_expired == 5
        assert runtime.stats.completed == 0

    def test_no_deadline_by_default(self, service):
        with ServingRuntime(service, fast_config()) as runtime:
            handle = runtime.submit(0, k=5)
            assert handle.deadline_at is None
            handle.result(timeout=10.0)


class TestWorkerSupervision:
    def test_service_exception_fails_batch_not_worker(self, service):
        poison = _PoisonService(service, bad=3)
        config = fast_config(max_batch=1)
        with ServingRuntime(poison, config) as runtime:
            ok = runtime.submit(0, k=5)
            bad = runtime.submit(3, k=5)
            after = runtime.submit(1, k=5)
            assert ok.result(timeout=10.0).user_id == 0
            with pytest.raises(ValueError, match="poisoned"):
                bad.result(timeout=10.0)
            # The worker survived the service error and kept serving.
            assert after.result(timeout=10.0).user_id == 1
            health = runtime.health()
        assert health["ok"]
        assert health["worker_crashes"] == 0

    def test_crash_fails_backlog_with_cause_then_restarts(self, service):
        from repro.serve import WorkerCrashed
        runtime = ServingRuntime(service, fast_config())
        handles = [runtime.submit(u, k=5) for u in range(5)]
        original = runtime._collect_batch
        state = {"fired": False}

        def boom_once():
            if not state["fired"]:
                state["fired"] = True
                raise RuntimeError("dropped the batch")
            return original()

        runtime._collect_batch = boom_once
        runtime.start()
        for handle in handles:
            with pytest.raises(WorkerCrashed, match="dropped the batch"):
                handle.result(timeout=10.0)
            assert isinstance(handle._error.__cause__, RuntimeError)
        # The supervisor restarted the loop in place; new work serves.
        assert runtime.submit(7, k=5).result(timeout=10.0).user_id == 7
        runtime.stop()
        assert runtime.stats.worker_crashes == 1
        assert runtime.stats.worker_restarts == 1
        assert runtime.health()["worker_restarts"] == 1

    def test_fail_stop_refuses_work_until_restarted(self, service):
        from repro.serve import WorkerCrashed
        runtime = ServingRuntime(service,
                                 fast_config(restart_on_crash=False))

        def always_boom():
            raise RuntimeError("kaboom")

        runtime._collect_batch = always_boom
        runtime.start()
        for _ in range(400):
            if runtime._fatal is not None:
                break
            time.sleep(0.005)
        health = runtime.health()
        assert not health["ok"]
        assert "kaboom" in health["fatal"]
        with pytest.raises(WorkerCrashed, match="fail-stopped"):
            runtime.submit(0, k=5)
        # An explicit operator start() clears the fatal state.
        del runtime._collect_batch
        runtime.start()
        assert runtime.health()["ok"]
        assert runtime.submit(1, k=5).result(timeout=10.0).user_id == 1
        runtime.stop()

    def test_health_probe_reports_liveness(self, service):
        runtime = ServingRuntime(service, fast_config())
        idle = runtime.health()
        assert not idle["ok"] and not idle["running"]
        assert idle["fatal"] is None
        with runtime:
            live = runtime.health()
            assert live["ok"] and live["running"]
            assert live["snapshot_version"] == service.snapshot.version
            assert live["pending"] == 0


class TestRefreshRacesStop:
    def test_refresh_concurrent_with_stop_never_hangs(
            self, tiny_mf_snapshot, tmp_path):
        from repro.serve import LiveState, RecommendationService
        from repro.serve.delta import export_state
        _, snap_a = tiny_mf_snapshot
        state = LiveState.from_snapshot(snap_a)
        state.upsert_item(0, np.ones(state.dim))
        snap_b = export_state(state, tmp_path / "b", created_unix=1.0)
        service = RecommendationService(snap_a)
        runtime = ServingRuntime(service, fast_config())
        runtime.start()
        done = threading.Event()
        errors = []

        def do_refresh():
            try:
                runtime.refresh(snap_b, timeout=10.0)
            except Exception as exc:  # noqa: BLE001 - recorded, asserted
                errors.append(exc)
            finally:
                done.set()

        refresher = threading.Thread(target=do_refresh)
        refresher.start()
        runtime.stop()
        assert done.wait(10.0), "refresh hung across stop()"
        refresher.join()
        assert not errors
        assert service.snapshot.version == snap_b.version
