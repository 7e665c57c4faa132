"""Benchmark suite registry: one place that knows every bench.

Every performance suite in the repo — what it's called, which schema it
emits, which repo-root JSON it maintains, which result kinds and row
columns that JSON must carry, how its CLI flags parse and how it runs —
is declared here as a :class:`BenchSuite`.  Everything else derives
from the registry instead of repeating the list:

* the CLI's ``repro bench <suite>`` verb (and the legacy ``perf-*``
  aliases) come from :func:`add_bench_subparsers` /
  :func:`add_legacy_verbs`;
* ``scripts/check_bench.py`` validates the committed ``BENCH_*.json``
  files against :func:`expected_files` / :func:`required_row_fields`;
* ``make bench-<suite>`` targets invoke the registry verbs, and
  ``tests/test_bench_check.py`` / ``tests/test_ci.py`` assert the
  registry, the Makefile and the committed files stay in sync both
  ways.

The heavy harnesses (:mod:`repro.experiments.perf`,
:mod:`repro.experiments.scale_perf`) are imported lazily inside each
suite's ``run`` so ``repro --help`` stays fast.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable

from repro.data import dataset_names
from repro.losses import loss_names
from repro.models import model_names

__all__ = ["BenchSuite", "SUITES", "DEPRECATED_VERBS", "ALIAS_VERBS",
           "suite_names", "get_suite", "expected_files",
           "required_row_fields", "add_bench_subparsers",
           "add_legacy_verbs", "run_legacy", "run_legacy_perf_serve"]

#: Default request depth of the serving suites (mirrors ``repro recommend``).
DEFAULT_TOP_K = 10


@dataclass(frozen=True)
class BenchSuite:
    """One registered benchmark suite.

    ``row_fields`` lists every result kind the suite may emit (required
    kinds plus optional extras such as the serve suite's ``overlap``
    rows) with the columns each row must carry.
    """

    name: str
    help: str
    schema: str
    #: repo-root JSON file the suite maintains (``--out`` default)
    output: str
    #: result kinds the committed file must contain
    required_kinds: frozenset
    #: kind -> columns every row of that kind must carry
    row_fields: dict
    make_target: str
    configure: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


# ----------------------------------------------------------------------
# Flag sets
# ----------------------------------------------------------------------
def _configure_fastpath(parser) -> None:
    parser.add_argument("--dataset", default="yelp2018-small",
                        choices=dataset_names())
    parser.add_argument("--models", default="mf,lightgcn,simgcl",
                        help="comma-separated model registry names")
    parser.add_argument("--losses", default="sl,bsl",
                        help="comma-separated loss registry names")
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--steps", type=int, default=15,
                        help="timed optimizer steps per cell")
    parser.add_argument("--warmup", type=int, default=3)
    parser.add_argument("--batch-size", type=int, default=1024)
    parser.add_argument("--negatives", type=int, default=128)
    parser.add_argument("--eval-repeats", type=int, default=3)
    parser.add_argument("--no-reference", action="store_true",
                        help="skip the compositional/uncached baseline rows")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_fastpath.json")


def _configure_train(parser) -> None:
    parser.add_argument("--dataset", default="yelp2018-small",
                        choices=dataset_names())
    parser.add_argument("--model", default="mf", choices=model_names())
    parser.add_argument("--losses", default="bpr,bsl",
                        help="comma-separated loss registry names")
    parser.add_argument("--scales", default="1,8,64",
                        help="comma-separated catalogue inflation factors")
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--steps", type=int, default=15,
                        help="timed optimizer steps per cell")
    parser.add_argument("--warmup", type=int, default=3)
    parser.add_argument("--batch-size", type=int, default=1024)
    parser.add_argument("--negatives", type=int, default=128)
    parser.add_argument("--sparse-mode", default="lazy",
                        choices=("lazy", "exact"),
                        help="sparse-optimizer mode for the sparse rows")
    parser.add_argument("--quality-epochs", type=int, default=16,
                        help="epochs of the end-to-end NDCG comparison")
    parser.add_argument("--no-quality", action="store_true",
                        help="skip the end-to-end quality rows")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_train.json")


def _configure_serve(parser) -> None:
    parser.add_argument("--dataset", default="yelp2018-small",
                        choices=dataset_names())
    parser.add_argument("--model", default="mf", choices=model_names())
    parser.add_argument("--loss", default="bsl", choices=loss_names())
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--k", type=int, default=DEFAULT_TOP_K)
    parser.add_argument("--batch-sizes", default="1,16,256",
                        help="comma-separated request batch sizes")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--request-users", type=int, default=1024,
                        help="request stream length per timing pass")
    parser.add_argument("--shards", default="2,4",
                        help="comma-separated shard counts for the "
                             "sharded sweep ('' to skip)")
    parser.add_argument("--partition-by", default="both",
                        choices=("user", "item", "both"),
                        help="sharded-sweep partition axes")
    parser.add_argument("--no-quantized", action="store_true",
                        help="skip the int8 index rows")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_serve.json")


def _configure_legacy_serve_extras(parser) -> None:
    """The composite ``perf-serve`` flags layered onto the serve grid."""
    parser.add_argument("--ann", action="store_true",
                        help="also sweep the IVF recall/throughput "
                             "frontier into --ann-out")
    parser.add_argument("--ann-only", action="store_true",
                        help="run only the ANN frontier (implies --ann)")
    parser.add_argument("--ann-out", default="BENCH_ann.json")
    parser.add_argument("--ann-nlists", default="8,16,32",
                        help="comma-separated IVF list counts")
    parser.add_argument("--ann-nprobes", default="1,2,4",
                        help="comma-separated probe counts")
    parser.add_argument("--ann-loss", default="bpr", choices=loss_names(),
                        help="loss of the ANN suite's trained cell "
                             "(pairwise losses cluster best; see "
                             "docs/ann.md)")
    parser.add_argument("--ann-epochs", type=int, default=25)


def _configure_ann(parser) -> None:
    parser.add_argument("--dataset", default="yelp2018-small",
                        choices=dataset_names())
    parser.add_argument("--k", type=int, default=DEFAULT_TOP_K)
    parser.add_argument("--nlists", default="8,16,32",
                        help="comma-separated IVF list counts")
    parser.add_argument("--nprobes", default="1,2,4",
                        help="comma-separated probe counts")
    parser.add_argument("--loss", default="bpr", choices=loss_names(),
                        help="loss of the trained cell (pairwise losses "
                             "cluster best; see docs/ann.md)")
    parser.add_argument("--epochs", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_ann.json")


def _configure_obs(parser) -> None:
    parser.add_argument("--dataset", default="yelp2018-small",
                        choices=dataset_names())
    parser.add_argument("--model", default="mf", choices=model_names())
    parser.add_argument("--loss", default="bsl", choices=loss_names())
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--k", type=int, default=DEFAULT_TOP_K)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed passes per lane (best pass kept)")
    parser.add_argument("--request-users", type=int, default=1024)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_obs.json")


def _configure_refresh(parser) -> None:
    parser.add_argument("--dataset", default="yelp2018-small",
                        choices=dataset_names())
    parser.add_argument("--model", default="mf", choices=model_names())
    parser.add_argument("--loss", default="bsl", choices=loss_names())
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--k", type=int, default=DEFAULT_TOP_K)
    parser.add_argument("--nlist", type=int, default=16,
                        help="inverted lists of the maintained index")
    parser.add_argument("--nprobe", type=int, default=2)
    parser.add_argument("--churn", default="0.01,0.05,0.2",
                        help="comma-separated catalogue churn fractions")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of timing repeats per clock")
    parser.add_argument("--requests", type=int, default=256,
                        help="paced lookups around each swap")
    parser.add_argument("--qps", type=float, default=2000.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_refresh.json")


def _configure_faults(parser) -> None:
    parser.add_argument("--dataset", default="yelp2018-small",
                        choices=dataset_names())
    parser.add_argument("--model", default="mf", choices=model_names())
    parser.add_argument("--loss", default="bsl", choices=loss_names())
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--k", type=int, default=DEFAULT_TOP_K)
    parser.add_argument("--shards", type=int, default=4,
                        help="item shards (shard 1 is made faulty)")
    parser.add_argument("--requests", type=int, default=400,
                        help="sequential requests per (scenario, policy)")
    parser.add_argument("--slo-ms", type=float, default=15.0)
    parser.add_argument("--deadline-ms", type=float, default=12.0,
                        help="per-shard deadline budget across attempts")
    parser.add_argument("--hedge-ms", type=float, default=2.0)
    parser.add_argument("--retries", type=int, default=1)
    parser.add_argument("--latency-ms", type=float, default=25.0,
                        help="injected straggler sleep (slow_shard rows)")
    parser.add_argument("--rates", default="0.0,0.05,0.1,0.2",
                        help="comma-separated slow-shard fault rates")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_faults.json")


def _configure_scale(parser) -> None:
    parser.add_argument("--levels", default="scale-100k,scale-300k,scale-1m",
                        help="comma-separated scale preset names "
                             "(see `repro datasets`)")
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--steps", type=int, default=12,
                        help="timed sparse-grad steps per level")
    parser.add_argument("--warmup", type=int, default=2)
    parser.add_argument("--batch-size", type=int, default=1024)
    parser.add_argument("--negatives", type=int, default=8)
    parser.add_argument("--serve-batches", type=int, default=8)
    parser.add_argument("--serve-batch-size", type=int, default=256)
    parser.add_argument("--k", type=int, default=DEFAULT_TOP_K)
    parser.add_argument("--shards", type=int, default=4,
                        help="partitions of the exported snapshot")
    parser.add_argument("--work-dir", default=None,
                        help="keep shards/tables/snapshots here instead "
                             "of a removed temporary directory")
    parser.add_argument("--keep-work", action="store_true",
                        help="keep the temporary working directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_scale.json")


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------
def _run_fastpath(args) -> int:
    from repro.experiments.perf import (PerfConfig, run_perf_suite,
                                        summarize, write_report)
    config = PerfConfig(
        dataset=args.dataset,
        models=tuple(args.models.split(",")),
        losses=tuple(args.losses.split(",")),
        dim=args.dim, steps=args.steps, warmup=args.warmup,
        batch_size=args.batch_size, n_negatives=args.negatives,
        eval_repeats=args.eval_repeats,
        include_reference=not args.no_reference, seed=args.seed)
    payload = run_perf_suite(config)
    write_report(payload, args.out)
    print(summarize(payload))
    print(f"wrote {args.out}")
    return 0


def _run_train(args) -> int:
    from repro.experiments.perf import (TrainPerfConfig, run_train_suite,
                                        summarize_train, write_report)
    config = TrainPerfConfig(
        dataset=args.dataset, model=args.model,
        losses=tuple(args.losses.split(",")),
        catalogue_scales=tuple(int(s) for s in args.scales.split(",")),
        dim=args.dim, steps=args.steps, warmup=args.warmup,
        batch_size=args.batch_size, n_negatives=args.negatives,
        sparse_mode=args.sparse_mode,
        quality_epochs=0 if args.no_quality else args.quality_epochs,
        seed=args.seed)
    payload = run_train_suite(config)
    write_report(payload, args.out)
    print(summarize_train(payload))
    print(f"wrote {args.out}")
    return 0


def _serve_config(args):
    from repro.experiments.perf import ServePerfConfig
    shards = tuple(int(s) for s in args.shards.split(",")) \
        if args.shards else ()
    return ServePerfConfig(
        dataset=args.dataset, model=args.model, loss=args.loss,
        epochs=args.epochs, dim=args.dim, k=args.k,
        batch_sizes=tuple(int(b) for b in args.batch_sizes.split(",")),
        repeats=args.repeats, request_users=args.request_users,
        shards=shards, partition_by=args.partition_by,
        include_quantized=not args.no_quantized, seed=args.seed)


def _run_serve(args) -> int:
    from repro.experiments.perf import (run_serve_suite, summarize_serve,
                                        write_report)
    payload = run_serve_suite(_serve_config(args))
    write_report(payload, args.out)
    print(summarize_serve(payload))
    print(f"wrote {args.out}")
    return 0


def _run_ann(args) -> int:
    from repro.experiments.perf import (AnnPerfConfig, run_ann_suite,
                                        summarize_ann, write_report)
    config = AnnPerfConfig(
        dataset=args.dataset, k=args.k,
        nlists=tuple(int(n) for n in args.nlists.split(",")),
        nprobes=tuple(int(p) for p in args.nprobes.split(",")),
        loss=args.loss, epochs=args.epochs, seed=args.seed)
    payload = run_ann_suite(config)
    write_report(payload, args.out)
    print(summarize_ann(payload))
    print(f"wrote {args.out}")
    return 0


def run_legacy_perf_serve(args) -> int:
    """The composite legacy verb: serve grid plus optional ANN frontier."""
    from repro.experiments.perf import (AnnPerfConfig, run_ann_suite,
                                        run_serve_suite, summarize_ann,
                                        summarize_serve, write_report)
    if not args.ann_only:
        payload = run_serve_suite(_serve_config(args))
        write_report(payload, args.out)
        print(summarize_serve(payload))
        print(f"wrote {args.out}")
    if args.ann or args.ann_only:
        ann_config = AnnPerfConfig(
            dataset=args.dataset, k=args.k,
            nlists=tuple(int(n) for n in args.ann_nlists.split(",")),
            nprobes=tuple(int(p) for p in args.ann_nprobes.split(",")),
            loss=args.ann_loss, epochs=args.ann_epochs, seed=args.seed)
        ann_payload = run_ann_suite(ann_config)
        write_report(ann_payload, args.ann_out)
        print(summarize_ann(ann_payload))
        print(f"wrote {args.ann_out}")
    return 0


def _run_obs(args) -> int:
    from repro.experiments.perf import (ObsPerfConfig, run_obs_suite,
                                        summarize_obs, write_report)
    config = ObsPerfConfig(
        dataset=args.dataset, model=args.model, loss=args.loss,
        epochs=args.epochs, dim=args.dim, k=args.k,
        batch_size=args.batch_size, repeats=args.repeats,
        request_users=args.request_users, seed=args.seed)
    payload = run_obs_suite(config)
    write_report(payload, args.out)
    print(summarize_obs(payload))
    print(f"wrote {args.out}")
    return 0


def _run_refresh(args) -> int:
    from repro.experiments.perf import (RefreshPerfConfig, run_refresh_suite,
                                        summarize_refresh, write_report)
    config = RefreshPerfConfig(
        dataset=args.dataset, model=args.model, loss=args.loss,
        epochs=args.epochs, dim=args.dim, k=args.k, nlist=args.nlist,
        nprobe=args.nprobe,
        churn_fractions=tuple(float(f) for f in args.churn.split(",")),
        repeats=args.repeats, requests=args.requests, qps=args.qps,
        seed=args.seed)
    payload = run_refresh_suite(config)
    write_report(payload, args.out)
    print(summarize_refresh(payload))
    print(f"wrote {args.out}")
    return 0


def _run_faults(args) -> int:
    from repro.experiments.faults_perf import (FaultsPerfConfig,
                                               run_faults_suite,
                                               summarize_faults)
    from repro.experiments.perf import write_report
    config = FaultsPerfConfig(
        dataset=args.dataset, model=args.model, loss=args.loss,
        epochs=args.epochs, dim=args.dim, k=args.k, shards=args.shards,
        requests=args.requests, slo_ms=args.slo_ms,
        deadline_ms=args.deadline_ms, hedge_ms=args.hedge_ms,
        retries=args.retries, latency_ms=args.latency_ms,
        fault_rates=tuple(float(r) for r in args.rates.split(",")),
        seed=args.seed)
    payload = run_faults_suite(config)
    write_report(payload, args.out)
    print(summarize_faults(payload))
    print(f"wrote {args.out}")
    return 0


def _run_scale(args) -> int:
    from repro.experiments.perf import write_report
    from repro.experiments.scale_perf import (ScalePerfConfig,
                                              run_scale_suite,
                                              summarize_scale)
    config = ScalePerfConfig(
        levels=tuple(args.levels.split(",")),
        dim=args.dim, steps=args.steps, warmup=args.warmup,
        batch_size=args.batch_size, n_negatives=args.negatives,
        serve_batches=args.serve_batches,
        serve_batch_size=args.serve_batch_size, k=args.k,
        shards=args.shards, seed=args.seed, work_dir=args.work_dir,
        keep_work=args.keep_work)
    payload = run_scale_suite(config)
    write_report(payload, args.out)
    print(summarize_scale(payload))
    print(f"wrote {args.out}")
    return 0


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
SUITES = {suite.name: suite for suite in (
    BenchSuite(
        name="fastpath",
        help="time train/eval throughput per (model, loss) cell",
        schema="bsl-fastpath-bench/v1",
        output="BENCH_fastpath.json",
        required_kinds=frozenset({"train_step", "eval"}),
        row_fields={
            "train_step": {"model", "loss", "fused", "steps", "ms_per_step",
                           "steps_per_s"},
            "eval": {"model", "chunked", "users", "users_per_s"},
        },
        make_target="bench-fastpath",
        configure=_configure_fastpath,
        run=_run_fastpath),
    BenchSuite(
        name="train",
        help="sweep the dense-vs-sparse training-throughput frontier",
        schema="bsl-train-bench/v1",
        output="BENCH_train.json",
        required_kinds=frozenset({"train_throughput", "train_quality"}),
        row_fields={
            "train_throughput": {"model", "loss", "grad_mode", "num_items",
                                 "catalogue_scale", "batch_size",
                                 "n_negatives", "ms_per_step",
                                 "steps_per_s"},
            "train_quality": {"model", "loss", "grad_mode", "sparse_mode",
                              "epochs", "ndcg_at_20"},
        },
        make_target="bench-train",
        configure=_configure_train,
        run=_run_train),
    BenchSuite(
        name="serve",
        help="time snapshot serving throughput, unsharded and sharded",
        schema="bsl-serve-bench/v2",
        output="BENCH_serve.json",
        required_kinds=frozenset({"serve", "serve_sharded"}),
        row_fields={
            "serve": {"index", "cache", "batch_size", "k", "users_per_s",
                      "ms_per_batch", "cache_hit_rate"},
            "serve_sharded": {"index", "shards", "partition_by", "strategy",
                              "batch_size", "k", "users_per_s",
                              "merge_overhead_ms", "merge_fraction",
                              "per_shard_bytes"},
            "overlap": {"index", "k", "overlap_at_k", "table_bytes",
                        "exact_table_bytes"},
        },
        make_target="bench-serve",
        configure=_configure_serve,
        run=_run_serve),
    BenchSuite(
        name="ann",
        help="sweep the IVF recall/throughput frontier",
        schema="bsl-ann-bench/v1",
        output="BENCH_ann.json",
        required_kinds=frozenset({"ann", "ann_baseline"}),
        row_fields={
            "ann": {"index", "nlist", "nprobe", "recall", "users_per_s",
                    "k", "batch_size", "candidates_mean",
                    "speedup_vs_exact"},
            "ann_baseline": {"index", "users_per_s", "k", "batch_size"},
        },
        make_target="bench-ann",
        configure=_configure_ann,
        run=_run_ann),
    BenchSuite(
        name="refresh",
        help="sweep catalogue churn through the live-refresh path",
        schema="bsl-refresh-bench/v1",
        output="BENCH_refresh.json",
        required_kinds=frozenset({"refresh"}),
        row_fields={
            "refresh": {"churn_fraction", "rows_changed", "delta_apply_ms",
                        "ivf_update_ms", "ivf_rebuild_ms", "swap_pause_ms",
                        "requests_during_swap", "errors"},
        },
        make_target="bench-refresh",
        configure=_configure_refresh,
        run=_run_refresh),
    BenchSuite(
        name="obs",
        help="measure serving overhead of the telemetry layer "
             "(off / metrics / metrics+tracing lanes)",
        schema="bsl-obs-bench/v1",
        output="BENCH_obs.json",
        required_kinds=frozenset({"obs"}),
        row_fields={
            "obs": {"mode", "cache", "batch_size", "k", "users_per_s",
                    "ms_per_batch", "overhead_pct"},
        },
        make_target="bench-obs",
        configure=_configure_obs,
        run=_run_obs),
    BenchSuite(
        name="faults",
        help="availability and tail latency under injected shard "
             "faults, with and without hedging + circuit breakers",
        schema="bsl-faults-bench/v1",
        output="BENCH_faults.json",
        required_kinds=frozenset({"faults"}),
        row_fields={
            "faults": {"scenario", "policy", "fault_rate", "fault_kind",
                       "requests", "availability", "degraded_rate",
                       "error_rate", "p50_ms", "p99_ms", "retries",
                       "hedges", "hedge_wins", "shard_failures",
                       "breaker_open_skips", "k", "shards", "slo_ms",
                       "deadline_ms"},
        },
        make_target="bench-faults",
        configure=_configure_faults,
        run=_run_faults),
    BenchSuite(
        name="scale",
        help="out-of-core million-scale pipeline: step time and peak "
             "RSS vs catalogue size",
        schema="bsl-scale-bench/v1",
        output="BENCH_scale.json",
        required_kinds=frozenset({"scale"}),
        row_fields={
            "scale": {"level", "num_users", "num_items", "catalogue",
                      "num_train", "dim", "batch_size", "n_negatives",
                      "steps", "ms_per_step", "users_per_s",
                      "peak_rss_mb", "est_dense_bytes", "shard_bytes"},
        },
        make_target="bench-scale",
        configure=_configure_scale,
        run=_run_scale),
)}

#: legacy verb -> suite name, still parsed but steered to ``repro bench``
DEPRECATED_VERBS = {"perf": "fastpath", "perf-train": "train",
                    "perf-serve": "serve", "perf-refresh": "refresh"}

#: every top-level alias verb (``perf-scale`` is a supported shorthand,
#: not deprecated)
ALIAS_VERBS = {**DEPRECATED_VERBS, "perf-scale": "scale"}


def suite_names() -> list[str]:
    """Registered suite names, in registry order."""
    return list(SUITES)


def get_suite(name: str) -> BenchSuite:
    try:
        return SUITES[name]
    except KeyError:
        raise KeyError(f"unknown bench suite {name!r} "
                       f"(registered: {suite_names()})") from None


def expected_files() -> dict:
    """``filename -> (schema, required result kinds)`` for the validator."""
    return {suite.output: (suite.schema, set(suite.required_kinds))
            for suite in SUITES.values()}


def required_row_fields() -> dict:
    """``kind -> required columns`` merged across every suite."""
    fields = {}
    for suite in SUITES.values():
        for kind, columns in suite.row_fields.items():
            fields[kind] = set(columns)
    return fields


def add_bench_subparsers(sub) -> None:
    """Attach one ``repro bench <suite>`` subcommand per registry entry."""
    for suite in SUITES.values():
        parser = sub.add_parser(
            suite.name,
            help=f"{suite.help} -> {suite.output} "
                 f"(`make {suite.make_target}`)")
        suite.configure(parser)


def add_legacy_verbs(sub) -> None:
    """Attach the ``perf-*`` top-level aliases to the root subparsers."""
    for verb, suite_name in ALIAS_VERBS.items():
        suite = SUITES[suite_name]
        if verb in DEPRECATED_VERBS:
            help_text = (f"(deprecated alias of `repro bench {suite_name}`) "
                         f"{suite.help}")
        else:
            help_text = f"alias of `repro bench {suite_name}`: {suite.help}"
        parser = sub.add_parser(verb, help=help_text)
        suite.configure(parser)
        if verb == "perf-serve":
            _configure_legacy_serve_extras(parser)


def run_legacy(verb: str, args) -> int:
    """Dispatch a legacy ``perf-*`` verb through the registry."""
    suite_name = ALIAS_VERBS[verb]
    if verb in DEPRECATED_VERBS:
        print(f"note: `repro {verb}` is deprecated; "
              f"use `repro bench {suite_name}`", file=sys.stderr)
    if verb == "perf-serve":
        return run_legacy_perf_serve(args)
    return SUITES[suite_name].run(args)
