"""One run of one workload: the untraced (end-to-end) and traced modes."""

from __future__ import annotations

import gc
import sys
import time

import numpy as np

from repro.obs.metrics import get_registry
from repro.serve.index import scoring_ready_items

import loadgen
import pipeline as P
from spans import SpanRecorder, median, pct

#: train-lightgcn must reach at least this NDCG@20 (the quality guard)
NDCG_FLOOR = 0.05
#: refreshes issued during the refresh level
REFRESHES = 8
#: request rate of the refresh level, as a share of capacity: low enough
#: that the queue absorbs a refresh stall without shedding
REFRESH_LEVEL_SHARE = 0.1
#: queue depth left at the end of a ladder rung that still counts as
#: drained (one full micro-batch)
MAX_BACKLOG = 256
#: the light and heavy levels alternate in this many segments each, so
#: a slow spell of the machine does not fall on one level only
SEGMENTS = 4
#: share of the serving time given to each level (the ladder's share
#: is split evenly over its rungs); the untraced run serves only the
#: refresh level and trains for the rest of the time
SERVE_SPLIT = {"light": 0.4, "heavy": 0.25, "ladder": 0.2, "refresh": 0.15}


def metric(value, unit):
    return {"value": float(value), "unit": unit}


class Tally:
    """Attempted and failed operations of a run, failures by cause."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.causes: dict[str, int] = {}

    def add(self, attempted, failed=0, cause="check"):
        self.attempted += int(attempted)
        self.failed += int(failed)
        if failed:
            self.causes[cause] = self.causes.get(cause, 0) + int(failed)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _setup_train(p, inputs, seed, repeats):
    """Build the train side ``repeats`` times, timing construction only;
    the warm-up steps of the side kept run after the timer."""
    times, side = [], None
    for _ in range(repeats):
        side = None
        gc.collect()
        side, took = _timed(lambda: P.build_train_side(p, inputs, seed))
        times.append(took)
    P.warm_up(side)
    return side, times


def _setup_serve(p, side, inputs, work, repeats):
    times, service = [], None
    for i in range(repeats):
        if service is not None:
            _close(service)
        service, took = _timed(
            lambda: P.publish(p, side, inputs, work / f"publish{i}"))
        times.append(took)
    return service, times


def _close(service):
    """Shut the router's fan-out pools, if the service has a router."""
    close = getattr(service.index, "close", None)
    if close is not None:
        close()


def run(p, seed: int, seconds: float, trace: bool, work, out_dir) -> dict:
    tally = Tally()
    started = [time.perf_counter()]

    def phase(name):
        now = time.perf_counter()
        print(f"perfbench: {name} {now - started[0]:.2f}s, peak RSS "
              f"{P.peak_rss_mb():.0f} MB", file=sys.stderr)
        started[0] = now

    inputs = P.make_inputs(p, seed, work)
    phase("inputs")
    repeats = 1 if trace else P.SETUP_REPEATS
    side, setup_train = _setup_train(p, inputs, seed, repeats)
    phase("train set-up")
    serve_budget = seconds * (1.0 - p.train_share)
    # The light, heavy and ladder levels feed per-layer metrics only, so
    # the untraced run skips them and gives their time to training.
    train_budget = (seconds - serve_budget) if trace else \
        seconds - serve_budget * SERVE_SPLIT["refresh"]
    rec = SpanRecorder() if trace else None

    # -- training ------------------------------------------------------
    if trace:
        plain = P.run_training(side, train_budget / 2,
                               keep_at=P.PUBLISH_STEP)
        P.install_train_spans(rec, side, p)
        before = P.minor_faults()
        train = P.run_training(side, train_budget / 2, recorder=rec)
        faults = {"train": (P.minor_faults() - before) / train.steps}
        tally.add(plain.steps, not plain.losses_finite, "non-finite loss")
        kept = plain.kept
    else:
        train = P.run_training(
            side, train_budget, keep_at=P.PUBLISH_STEP,
            evaluate=lambda: P.eval_pass(p, side, inputs)[0])
        kept = train.kept
    tally.add(train.steps, not train.losses_finite, "non-finite loss")
    # Both modes evaluate and serve the same model: the one after
    # PUBLISH_STEP steps.
    side.model.load_state_dict(kept)

    before = P.minor_faults()
    took, result = P.eval_pass(p, side, inputs)
    if trace:
        faults["eval"] = P.minor_faults() - before
    eval_times = train.eval_s + [took]
    users, ndcg = len(result.evaluated_users), result.metrics["ndcg@20"]
    tally.add(len(eval_times))
    if p.backbone == "lightgcn":
        tally.add(1, ndcg < NDCG_FLOOR, f"ndcg@20 {ndcg:.4f} < floor")
    if trace:
        rec.close()
    # Serving needs only the trained tables: drop the optimizer state,
    # sampler and evaluator as a train-then-serve process would.
    side.trainer.optimizer.flush()
    side.trainer = side.evaluator = side.stream = None
    gc.collect()
    phase("train + eval")

    # -- publish and serve ---------------------------------------------
    service, setup_serve = _setup_serve(p, side, inputs, work, repeats)
    phase("serve set-up")
    try:
        versions = P.make_versions(p, side, service, inputs, REFRESHES,
                                   seed, work / "versions")
        phase("refresh payloads")
        # Everything built so far lives to the end of the run: move it
        # out of the collector's reach so collections while serving
        # stay short.
        gc.collect()
        gc.freeze()
        rng = np.random.default_rng([seed, 4])
        draw = loadgen.user_sampler(p.num_users, rng)
        loadgen.run_level(service, "warm-up", 0.25 * p.capacity_qps, 2.0,
                          draw, rng)
        phase("warm-up")
        serve = Serve(p, service, versions, draw, rng, serve_budget, tally)
        out = serve.traced(rec) if trace else \
            {"refresh": serve.refresh_level()}
        phase("serve levels")
        recall, checked, mismatched = P.final_recall(p, service, versions,
                                                     seed)
        tally.add(checked, mismatched, "served != exact")
    finally:
        _close(service)

    if trace:
        rec.dump(out_dir / f"trace-{p.name}-{seed}.json")
        metrics = _layer_metrics(p, rec, train, plain, users, eval_times,
                                 ndcg, out, tally, faults)
    else:
        metrics = {
            "setup_s": metric(median(setup_train) + median(setup_serve),
                              "s"),
            "peak_rss_mb": metric(P.peak_rss_mb(), "MB"),
            "train_pairs_per_s": metric(P.BATCH / median(train.step_s),
                                        "1/s"),
            "eval_users_per_s": metric(users / median(eval_times), "1/s"),
            "recall_at_10": metric(recall, "ratio"),
            "refresh_p50_ms": metric(median(out["refresh"].refresh_ms),
                                     "ms"),
        }
    for cause, n in sorted(tally.causes.items()):
        print(f"perfbench: {n} failed: {cause}", file=sys.stderr)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


class Serve:
    """The serving levels of one run, all over the same service."""

    def __init__(self, p, service, versions, draw, rng, budget_s, tally):
        self.p, self.service, self.versions = p, service, versions
        self.draw, self.rng, self.tally = draw, rng, tally
        self.cap = p.capacity_qps
        self.dur = {k: budget_s * v for k, v in SERVE_SPLIT.items()}

    def level(self, name, share, duration, **kw):
        level = loadgen.run_level(self.service, name, share * self.cap,
                                  duration, self.draw, self.rng, **kw)
        self.tally.add(level.sent, level.failed,
                       f"{level.name}: shed or error")
        return level

    def refresh_level(self):
        interval = self.dur["refresh"] / (REFRESHES + 1)
        level = self.level(
            "refresh", REFRESH_LEVEL_SHARE, self.dur["refresh"],
            keep_every=1,
            refresher=P.refresher(self.versions.loaders, interval))
        self.tally.add(*P.check_responses(level.responses, self.versions),
                       "torn read or served != exact")
        self.tally.add(len(level.refresh_ms),
                       len(level.refresh_ms) < REFRESHES,
                       f"only {len(level.refresh_ms)} refreshes landed")
        return level

    def levels(self) -> dict:
        """Light and heavy levels in alternating segments, then the
        goodput ladder, all untraced."""
        segments = {"light": [], "heavy": []}
        for _ in range(SEGMENTS):
            for name, share in (("light", 0.25), ("heavy", 0.75)):
                segments[name].append(self.level(
                    name, share, self.dur[name] / SEGMENTS, keep_every=8))
        out = {name: loadgen.merge(levels)
               for name, levels in segments.items()}
        for level in out.values():
            self.tally.add(*P.check_responses(level.responses,
                                              self.versions),
                           "served != exact")
        rung_s = self.dur["ladder"] / len(P.LADDER)
        out["goodput"], rungs = loadgen.goodput(
            self.service, [r * self.cap for r in P.LADDER], rung_s,
            self.draw, self.rng, max_backlog=MAX_BACKLOG)
        # The rung that missed the limit is the probe that found
        # capacity; its shed requests are its measurement, not a
        # failure of the run.  Its errors still are.
        probe = None if rungs[-1].meets_limit(MAX_BACKLOG) else rungs[-1]
        for level in rungs:
            if level is probe:
                self.tally.add(level.sent, level.errors,
                               f"{level.name}: error")
            else:
                self.tally.add(level.sent, level.failed,
                               f"{level.name}: shed or error")
        self.tally.add(1, out["goodput"] <= 0, "no ladder rung met the limit")
        return out

    def traced(self, rec) -> dict:
        """The untraced light/heavy/ladder sequence, then a traced heavy
        level and the traced refresh level."""
        out = {"plain": self.levels()}
        before = _serve_counters(self.service)
        P.install_serve_spans(rec, self.p, self.service)
        out["heavy"] = self.level("heavy.traced", 0.75, self.dur["heavy"])
        out["heavy.counters"] = _delta(_serve_counters(self.service),
                                       before)
        before = _serve_counters(self.service)
        out["refresh"] = self.refresh_level()
        out["refresh.counters"] = _delta(_serve_counters(self.service),
                                         before)
        rec.close()
        out["staleness"] = 0.0
        data = getattr(self.service.index, "data", None)
        if data is not None and hasattr(data, "staleness"):
            snap = self.service.snapshot
            out["staleness"] = data.staleness(
                scoring_ready_items(np.asarray(snap.items), snap.scoring))
        return out


def _serve_counters(service) -> dict:
    stats = service.stats
    registry = get_registry()
    out = {"hits": stats.cache_hits, "misses": stats.cache_misses,
           "invalidated": stats.cache_invalidated,
           "ann_queries": registry.counter("ann.ivf.queries").value,
           "ann_candidates": registry.counter("ann.ivf.candidates").value}
    router = getattr(service, "router_stats", None)
    if router is not None:
        out.update(gather_s=router.gather_s, score_s=router.score_s,
                   merge_s=router.merge_s)
    return out


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def _layer_metrics(p, rec, train, plain, users, eval_times, ndcg, out,
                   tally, faults) -> dict:
    self_ms = rec.self_times_ms()
    # Training layers also run inside evaluation passes (propagation is
    # memoized there): take their figures from training steps only.
    step_ms = rec.self_times_ms(root="train.step")

    def self_median(name, spans=self_ms):
        return median(spans.get(name, []))

    steps = rec.durations_ms("train.step")
    heavy, refresh = out["heavy"], out["refresh"]
    hc, rc = out["heavy.counters"], out["refresh.counters"]
    hs, rs = heavy.stats, refresh.stats
    lookups = hc["hits"] + hc["misses"]
    sweeps = rec.durations_ms("serve.service.sweep")
    shard_groups = [v for k, v in rec.by_parent(
        "serve.shard.partial_topk").items() if k is not None]
    routed = sum(hc.get(k, 0.0) for k in ("gather_s", "score_s", "merge_s"))
    ann_queries = hc["ann_queries"] + rc["ann_queries"]
    ann_candidates = hc["ann_candidates"] + rc["ann_candidates"]
    plain_serve = out["plain"]
    levels = [plain_serve["heavy"], heavy, refresh]
    m = {
        "train.step_ms.p50": metric(pct(steps, 50), "ms"),
        "train.step_ms.p99": metric(pct(steps, 99), "ms"),
        "train.step_self_ms": metric(
            self_median("train.step", step_ms), "ms"),
        "graph.propagate_ms": metric(
            self_median("graph.propagate", step_ms), "ms"),
        "tensor.backward_ms": metric(
            self_median("tensor.backward", step_ms), "ms"),
        "nn.optim.step_ms": metric(
            self_median("nn.optim.step", step_ms), "ms"),
        "nn.optim.touched_rows": metric(
            rec.counts["nn.optim.touched_rows"] / max(train.steps, 1),
            "count"),
        "models.scores_ms": metric(
            self_median("models.scores", step_ms), "ms"),
        "losses.bsl_ms": metric(
            self_median("losses.bsl", step_ms), "ms"),
        "data.sampling.next_ms": metric(self_median("data.sampling.next"),
                                        "ms"),
        "data.source.pairs_read": metric(
            rec.counts["data.source.pairs"] / max(train.steps, 1), "count"),
        "train.minor_faults_per_step": metric(faults["train"], "count"),
        "eval.evaluate_ms": metric(median(eval_times) * 1e3, "ms"),
        "eval.users": metric(users, "count"),
        "eval.ndcg_at_20": metric(ndcg, "ratio"),
        "eval.minor_faults_per_pass": metric(faults["eval"], "count"),
        "serve.runtime.queue_ms.p50": metric(pct(heavy.queue_ms, 50), "ms"),
        "serve.runtime.queue_ms.p99": metric(pct(heavy.queue_ms, 99), "ms"),
        "serve.runtime.service_ms.p50": metric(pct(heavy.service_ms, 50),
                                               "ms"),
        "serve.runtime.service_ms.p99": metric(pct(heavy.service_ms, 99),
                                               "ms"),
        "serve.runtime.batch_mean": metric(
            hs["completed"] / max(hs["batches"], 1), "count"),
        "serve.runtime.shed": metric(sum(l.shed for l in levels), "count"),
        "serve.runtime.deadline_expired": metric(
            hs["deadline_expired"] + rs["deadline_expired"], "count"),
        "serve.runtime.errors": metric(sum(l.errors for l in levels),
                                       "count"),
        "serve.service.hit_ratio": metric(hc["hits"] / max(lookups, 1),
                                          "ratio"),
        "serve.service.hits": metric(hc["hits"], "count"),
        "serve.service.lookups": metric(lookups, "count"),
        "serve.service.sweeps": metric(len(sweeps), "count"),
        "serve.service.sweep_ms.p50": metric(pct(sweeps, 50), "ms"),
        "serve.service.sweep_ms.p99": metric(pct(sweeps, 99), "ms"),
        "serve.service.users_per_sweep": metric(
            rec.counts["serve.service.sweep"] / max(len(sweeps), 1),
            "count"),
        "serve.service.invalidated": metric(rc["invalidated"], "count"),
        "serve.router.topk_ms": metric(
            self_median("serve.service.sweep") if p.on_disk else 0.0, "ms"),
        "serve.router.merge_fraction": metric(
            hc.get("merge_s", 0.0) / routed if routed else 0.0, "ratio"),
        "serve.shard.partial_topk_ms.max": metric(
            median([max(g) for g in shard_groups]), "ms"),
        "serve.shard.partial_topk_ms.sum": metric(
            median([sum(g) for g in shard_groups]), "ms"),
        "ann.topk_ms": metric(
            0.0 if p.on_disk else pct(sweeps, 50), "ms"),
        "ann.probed_fraction": metric(
            ann_candidates / ann_queries / p.num_items if ann_queries
            else 0.0, "ratio"),
        "serve.delta.apply_ms": metric(
            median(rec.durations_ms("serve.delta.apply")), "ms"),
        "ann.refreshed_ms": metric(
            median(rec.durations_ms("ann.refreshed")), "ms"),
        "ann.staleness": metric(out["staleness"], "ratio"),
        "serve.runtime.refresh_ms": metric(
            1e3 * rs["refresh_s"] / rs["refreshes"] if rs["refreshes"]
            else 0.0, "ms"),
        "loadgen.late_ms.p99": metric(
            pct(np.concatenate([l.late_ms for l in levels]), 99), "ms"),
        "failed_frac": metric(tally.failed / max(tally.attempted, 1),
                              "ratio"),
        "trace.overhead.train_step_frac": metric(
            median(steps) / (1e3 * median(plain.step_s)) - 1.0, "ratio"),
        "trace.overhead.serve_p50_frac": metric(
            heavy.p50 / plain_serve["heavy"].p50 - 1.0
            if plain_serve["heavy"].p50 else 0.0, "ratio"),
        # Measured untraced, like the end-to-end metrics, but too noisy
        # on a shared 2-core machine to carry a regression bound.
        "serve.p50_ms.light": metric(plain_serve["light"].p50, "ms"),
        "serve.p99_ms.light": metric(plain_serve["light"].p99, "ms"),
        "serve.p50_ms.heavy": metric(plain_serve["heavy"].p50, "ms"),
        "serve.p99_ms.heavy": metric(plain_serve["heavy"].p99, "ms"),
        "serve.goodput_qps": metric(plain_serve["goodput"], "1/s"),
        "trace.spans": metric(len(rec.spans), "count"),
    }
    for level in levels:
        for field in ("sent", "succeeded", "failed"):
            m[f"loadgen.{level.name}.{field}"] = metric(
                getattr(level, field), "count")
    return m
