"""The workloads: one train -> evaluate -> publish -> serve pipeline.

Every workload runs the whole system once, so every end-to-end metric
exists on every workload; the workloads differ in which layers carry
the load (see ``README.md`` in this directory):

* ``train-lightgcn`` — LightGCN + BSL, dense gradients, in-memory data.
  Served unsharded through the default IVF index, with live delta
  refreshes.
* ``train-mf-sparse`` — MF + BSL, row-sparse gradients and lazy
  ``SparseAdam``, streamed from on-disk interaction shards.  Served
  through the 2-shard router, refreshed with re-exported snapshots.

The program only ever receives generated inputs: datasets, user draws,
arrival schedules and refresh payloads all derive from ``--seed``.
"""

from __future__ import annotations

import pathlib
import resource
import time
from dataclasses import dataclass

import numpy as np

from repro.ann import build_ann_index
from repro.ann.ivf import IVFFlatIndex
from repro.data.dataset import InteractionDataset
from repro.data.source import InteractionShardWriter, ShardedInteractionSource
from repro.data.synthetic import (ScaleConfig, SyntheticConfig,
                                  generate_dataset, generate_scale_shards)
from repro.eval.evaluator import Evaluator
from repro.losses.registry import get_loss
from repro.models.lightgcn import LightGCN
from repro.models.mf import MF
from repro.serve import (SNAPSHOT_SCHEMA, DeltaOps, EmbeddingSnapshot,
                         ExactTopKIndex, LiveState, RecommendationService,
                         ShardedRecommendationService,
                         SnapshotManifest, export_sharded_source_snapshot,
                         export_snapshot, load_sharded_snapshot, load_snapshot,
                         write_delta)
from repro.serve import delta as delta_module
from repro.serve.delta import apply_ops
from repro.serve.shard import ItemShardIndex
from repro.tensor.sparse import RowSparseGrad
from repro.tensor.tensor import Tensor
from repro.train.config import TrainConfig
from repro.train.trainer import Trainer

from spans import SpanRecorder

DIM = 64
BATCH = 1024
NEGATIVES = 64
K = 10
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: an evaluation pass runs after every this many training steps, outside
#: the step timer, so that evaluation is timed across the whole training
#: window rather than in one stretch a slow spell of the machine can fill
EVAL_EVERY = 10
#: users sampled for the final served-vs-exact comparison, compared in
#: chunks of CHECK_CHUNK so that the check's own score matrices stay
#: below the pipeline's peak resident set
CHECK_USERS = 512
CHECK_CHUNK = 64
#: rungs of the goodput ladder, as multiples of the workload's capacity
LADDER = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0)
#: the model is evaluated and served as it stood after this many
#: training steps, however many more the time window allows, so quality
#: and serving cost do not depend on training speed
PUBLISH_STEP = 40
#: a training window runs at least this many steps
MIN_TRAIN_STEPS = 5


@dataclass(frozen=True)
class Profile:
    name: str
    backbone: str            # "lightgcn" | "mf"
    grad_mode: str           # "dense" | "sparse"
    #: False: in-memory synthetic data, served unsharded through IVF
    #: with delta refreshes; True: on-disk scale shards, served through
    #: the exact 2-shard router with re-exported snapshots
    on_disk: bool
    num_users: int
    num_items: int
    capacity_qps: float      # reliable request rate, fixed
    train_share: float       # share of --seconds spent training
    cache_size: int          # result LRU entries; 0 disables the cache
    eval_users: int = 0      # held-out users (scale data only)


PROFILES = {p.name: p for p in (
    Profile("train-lightgcn", "lightgcn", "dense", False,
            4000, 6000, 2400.0, 0.5, 0),
    Profile("train-mf-sparse", "mf", "sparse", True,
            100_000, 20_000, 500.0, 0.4, 4096, eval_users=256),
)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def minor_faults() -> int:
    """Page faults of the process so far that needed no disk read."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    train_data: object            # InteractionDataset or sharded source
    eval_dataset: InteractionDataset
    eval_rows: np.ndarray | None  # user rows the eval dataset covers
    seen_csr: tuple               # (indptr, items) for reference snapshots


def make_inputs(p: Profile, seed: int, work: pathlib.Path) -> Inputs:
    if not p.on_disk:
        dataset = generate_dataset(SyntheticConfig(
            num_users=p.num_users, num_items=p.num_items, num_clusters=20,
            mean_interactions=24.0, seed=seed, name=p.name))
        return Inputs(dataset, dataset, None, None)
    raw = generate_scale_shards(ScaleConfig(
        num_users=p.num_users, num_items=p.num_items,
        num_clusters=min(32, p.num_items // 500), mean_interactions=10.0,
        seed=seed, name=p.name), work / "raw")
    indptr, items = raw.train_csr()
    degrees = np.diff(indptr)
    rng = np.random.default_rng([seed, 1])
    held_users = np.sort(rng.choice(np.flatnonzero(degrees >= 2),
                                    size=p.eval_users, replace=False))
    held_pos = indptr[held_users] + rng.integers(0, degrees[held_users])
    keep = np.ones(len(items), dtype=bool)
    keep[held_pos] = False
    users = np.repeat(np.arange(p.num_users, dtype=np.int64), degrees)
    test = np.column_stack([users[held_pos], items[held_pos]])
    writer = InteractionShardWriter(
        work / "train", name=p.name, num_users=p.num_users,
        num_items=p.num_items, num_train=int(keep.sum()))
    writer.append(users[keep], items[keep])
    source = ShardedInteractionSource(writer.close(test_pairs=test))
    # The evaluator gets only the held-out users (renumbered 0..n-1),
    # so a full-ranking pass costs eval_users x num_items, not the
    # whole user base.
    row_of = np.full(p.num_users, -1, dtype=np.int64)
    row_of[held_users] = np.arange(len(held_users))
    mine = keep & (row_of[users] >= 0)
    eval_dataset = InteractionDataset(
        len(held_users), p.num_items,
        np.column_stack([row_of[users[mine]], items[mine]]),
        np.column_stack([row_of[test[:, 0]], test[:, 1]]),
        name=f"{p.name}-heldout")
    return Inputs(source, eval_dataset, held_users, source.train_csr())


# ----------------------------------------------------------------------
# Train side
# ----------------------------------------------------------------------
@dataclass
class TrainSide:
    model: object
    trainer: Trainer
    evaluator: Evaluator
    stream: object


def build_train_side(p: Profile, inputs: Inputs, seed: int) -> TrainSide:
    data = inputs.train_data
    if p.backbone == "lightgcn":
        model = LightGCN(data, dim=DIM, num_layers=2, rng=seed)
    else:
        model = MF(data.num_users, data.num_items, DIM, rng=seed)
    trainer = Trainer(model, get_loss("bsl"), data, TrainConfig(
        epochs=1, batch_size=BATCH, n_negatives=NEGATIVES,
        grad_mode=p.grad_mode, seed=seed))
    evaluator = Evaluator(inputs.eval_dataset, ks=(20,), batch_users=128)

    def batches():
        while True:
            yield from trainer.sampler.epoch()
    return TrainSide(model, trainer, evaluator, batches())


def warm_up(side: TrainSide) -> None:
    """Two untimed steps: warm BLAS, the allocator and propagation caches."""
    for _ in range(2):
        side.trainer.train_step(next(side.stream))


def eval_model(p: Profile, side: TrainSide, inputs: Inputs):
    """The model the evaluator scores: the trained model itself, or an
    MF view of the held-out users' rows sharing the trained item table."""
    if inputs.eval_rows is None:
        return side.model
    side.trainer.optimizer.flush()
    users = np.asarray(side.model.user_embedding.weight.data)
    items = side.model.item_embedding.weight.data
    return MF(len(inputs.eval_rows), p.num_items, DIM,
              tables=(users[inputs.eval_rows], items))


@dataclass
class TrainResult:
    step_s: list
    #: durations of the evaluation passes run between steps
    eval_s: list
    pairs: int
    losses_finite: bool
    steps: int
    #: parameters after ``keep_at`` steps (None if not asked for)
    kept: dict | None = None


def run_training(side: TrainSide, budget_s: float,
                 recorder: SpanRecorder | None = None,
                 keep_at: int = 0, evaluate=None) -> TrainResult:
    """Train for ``budget_s`` seconds and at least ``MIN_TRAIN_STEPS``
    steps; with ``keep_at`` > 0 also copy the parameters after that step
    (and train at least that many steps).  ``evaluate()`` returns the
    duration of one pass and runs after every ``EVAL_EVERY`` steps."""
    step_s, pairs, finite, kept, eval_s = [], 0, True, None, []
    trainer = side.trainer
    deadline = time.perf_counter() + budget_s
    min_steps = max(MIN_TRAIN_STEPS, keep_at)
    while len(step_s) < min_steps or time.perf_counter() < deadline:
        if recorder is not None:
            batch = recorder.call("data.sampling.next", next, side.stream)
            t0 = time.perf_counter()
            loss = recorder.call("train.step", trainer.train_step, batch)
            recorder.count("nn.optim.touched_rows", touched_rows(trainer))
        else:
            batch = next(side.stream)
            t0 = time.perf_counter()
            loss = trainer.train_step(batch)
        step_s.append(time.perf_counter() - t0)
        pairs += len(batch)
        finite = finite and bool(np.isfinite(loss))
        if len(step_s) == keep_at:
            trainer.optimizer.flush()
            kept = side.model.state_dict()
        if evaluate is not None and len(step_s) % EVAL_EVERY == 0:
            eval_s.append(evaluate())
    trainer.optimizer.flush()
    return TrainResult(step_s, eval_s, pairs, finite, len(step_s), kept)


def eval_pass(p: Profile, side: TrainSide, inputs: Inputs):
    """One timed full-ranking pass: (seconds, ``EvalResult``)."""
    model = eval_model(p, side, inputs)
    # The pass pays full propagation, as a periodic evaluation right
    # after a training step does, and leaves nothing cached for the
    # next training step.
    invalidate = getattr(model, "invalidate_propagation_cache", None)
    if invalidate is not None:
        invalidate()
    t0 = time.perf_counter()
    result = side.evaluator.evaluate(model)
    took = time.perf_counter() - t0
    if invalidate is not None:
        invalidate()
    return took, result


# ----------------------------------------------------------------------
# Serve side
# ----------------------------------------------------------------------
def _tables(side: TrainSide):
    return (np.asarray(side.model.user_embedding.weight.data),
            np.asarray(side.model.item_embedding.weight.data))


def publish(p: Profile, side: TrainSide, inputs: Inputs,
            out: pathlib.Path):
    """Export the trained model and open the service over it (cold: the
    first requests build the index's lazy tables)."""
    if p.on_disk:
        users, items = _tables(side)
        export_sharded_source_snapshot(users, items, inputs.train_data, out,
                                       shards=2)
        snapshot = load_sharded_snapshot(out)
        service = ShardedRecommendationService(snapshot,
                                               cache_size=p.cache_size)
    else:
        export_snapshot(side.model, inputs.train_data, out / "snapshot")
        snapshot = load_snapshot(out / "snapshot")
        service = RecommendationService(
            snapshot, index=build_ann_index(snapshot, out / "ann"),
            cache_size=p.cache_size)
    return service


def reference_snapshot(p: Profile, users, items, seen_csr,
                       tag: str) -> EmbeddingSnapshot:
    """Unsharded in-memory snapshot of given tables (parity reference)."""
    manifest = SnapshotManifest(
        schema=SNAPSHOT_SCHEMA, version=f"reference-{tag}", model="mf",
        model_class="MF", dim=DIM, num_users=p.num_users,
        num_items=p.num_items, dataset=p.name, scoring="cosine",
        created_unix=0.0)
    return EmbeddingSnapshot(manifest, users, items, *seen_csr)


@dataclass
class Versions:
    """Refresh payloads prepared ahead of serving, one loader per refresh
    (loaded just before its refresh call, so only the version being
    swapped in is held open)."""

    p: Profile
    loaders: list
    versions: set
    #: version -> directory of the published sharded snapshot
    sharded: dict
    users: np.ndarray | None = None
    seen_csr: tuple | None = None

    def reference(self, version: str):
        """Exact unsharded index over one published sharded version, or
        None where the service itself is unsharded."""
        path = self.sharded.get(version)
        if path is None:
            return None
        items = np.empty((self.p.num_items, DIM))
        for shard in load_sharded_snapshot(path).item_shards:
            items[shard.ids] = shard.embeddings
        return ExactTopKIndex(reference_snapshot(
            self.p, self.users, items, self.seen_csr, version))


def make_versions(p: Profile, side: TrainSide, service, inputs: Inputs,
                  count: int, seed: int, out: pathlib.Path) -> Versions:
    """A seeded chain of item edits: ~1% of items move, a few items are
    inserted and deleted (deltas on the unsharded service; re-exported
    sharded snapshots, which carry upserts only, on the router)."""
    rng = np.random.default_rng([seed, 2])
    snapshot = service.snapshot
    versions = {snapshot.version}
    loaders = []
    if p.on_disk:
        users, items = _tables(side)
        sharded = {snapshot.version: snapshot.path}
        for r in range(1, count + 1):
            items = items.copy()
            moved = rng.choice(p.num_items, size=p.num_items // 100,
                               replace=False)
            items[moved] += 0.5 * rng.standard_normal((len(moved), DIM)) \
                * np.abs(items[moved]).mean()
            path = out / f"v{r}"
            export_sharded_source_snapshot(users, items, inputs.train_data,
                                           path, shards=2)
            version = load_sharded_snapshot(path).version
            loaders.append(lambda path=path: load_sharded_snapshot(path))
            versions.add(version)
            sharded[version] = path
        return Versions(p, loaders, versions, sharded, users,
                        inputs.seen_csr)
    state = LiveState.from_snapshot(snapshot)
    next_id = max(state.items) + 1
    for r in range(1, count + 1):
        ids = np.array(sorted(state.items), dtype=np.int64)
        picked = rng.choice(ids, size=len(ids) // 100 + 2, replace=False)
        deleted, moved = np.sort(picked[:2]), np.sort(picked[2:])
        rows = np.stack([state.items[int(i)] for i in moved])
        rows = rows + 0.5 * rng.standard_normal(rows.shape) \
            * np.abs(rows).mean()
        inserted = np.arange(next_id, next_id + 2, dtype=np.int64)
        next_id += 2
        upserts = np.concatenate([moved, inserted])
        new_rows = np.concatenate(
            [rows, rng.standard_normal((2, DIM)) * np.abs(rows).mean()])
        none = np.empty(0, dtype=np.int64)
        ops = DeltaOps(user_upsert_ids=none,
                       user_upsert_rows=np.empty((0, DIM)),
                       user_seen_indptr=np.zeros(1, dtype=np.int64),
                       user_seen_items=none,
                       item_upsert_ids=upserts, item_upsert_rows=new_rows,
                       user_delete_ids=none, item_delete_ids=deleted)
        delta = write_delta(state, ops, out / f"delta{r}")
        state = apply_ops(state.copy(), ops)
        loaders.append(lambda delta=delta: [delta])
        versions.add(delta.manifest.new_version)
    return Versions(p, loaders, versions, {})


def refresher(loaders, interval_s: float):
    """Second generator thread: each refresh ``interval_s`` after the
    previous one landed, timed from the call until the version serves."""
    def run(runtime):
        took = []
        for load in loaders:
            time.sleep(interval_s)
            payload = load()
            t0 = time.perf_counter()
            runtime.refresh(payload, timeout=60.0)
            took.append(1e3 * (time.perf_counter() - t0))
        return took
    return run


def check_responses(responses, versions: Versions) -> tuple[int, int]:
    """(checked, failed): versions must come from the published chain,
    and where an exact reference exists, items must equal it exactly."""
    checked = failed = 0
    by_version: dict = {}
    for rec in responses:
        checked += 1
        if rec.snapshot_version not in versions.versions:
            failed += 1
            continue
        by_version.setdefault(rec.snapshot_version, []).append(rec)
    for version, recs in by_version.items():
        reference = versions.reference(version)
        if reference is None:
            continue
        top = reference.topk([r.user_id for r in recs], k=K)
        for row, rec in enumerate(recs):
            if not np.array_equal(top.items[row], rec.items):
                failed += 1
    return checked, failed


def final_recall(p: Profile, service, versions: Versions,
                 seed: int) -> tuple[float, int, int]:
    """recall@10 of the served lists against exact top-10 on the version
    being served.  Exact stacks must match exactly (bit parity)."""
    rng = np.random.default_rng([seed, 3])
    users = np.sort(rng.choice(p.num_users, size=CHECK_USERS,
                               replace=False))
    reference = versions.reference(service.snapshot.version)
    if reference is None:
        reference = ExactTopKIndex(service.snapshot)
    served, exact = [], []
    for chunk in np.array_split(users, CHECK_USERS // CHECK_CHUNK):
        served.extend(service.recommend(chunk, k=K))
        exact.append(reference.topk(chunk, k=K).items)
    exact = np.concatenate(exact)
    overlap = [len(set(rec.items.tolist()) & set(exact[i].tolist()))
               for i, rec in enumerate(served)]
    mismatched = 0
    if p.on_disk:  # the router is exact
        mismatched = sum(not np.array_equal(rec.items, exact[i])
                         for i, rec in enumerate(served))
    return float(np.mean(overlap)) / K, len(users), mismatched


# ----------------------------------------------------------------------
# Traced entry points
# ----------------------------------------------------------------------
def install_train_spans(rec: SpanRecorder, side: TrainSide,
                        p: Profile) -> None:
    model, trainer = side.model, side.trainer
    if p.backbone == "lightgcn":  # MF's propagate is a table lookup
        rec.wrap(model, "propagate", "graph.propagate")
    rec.wrap(model, "batch_scores", "models.scores")
    rec.wrap(model, "sampled_batch_scores", "models.scores")
    rec.wrap(trainer.loss, "compute", "losses.bsl")
    rec.wrap(Tensor, "backward", "tensor.backward")
    rec.wrap(trainer.optimizer, "step", "nn.optim.step")
    rec.wrap(trainer.sampler.source, "pairs", "data.source.pairs",
             count=lambda a, kw, r: len(r))
    rec.wrap(side.evaluator, "evaluate", "eval.evaluate")


def touched_rows(trainer) -> int:
    """Parameter rows the last step updated (gradients survive step())."""
    total = 0
    for param in trainer.optimizer.params:
        grad = param.grad
        total += grad.nnz if isinstance(grad, RowSparseGrad) else (
            0 if grad is None else grad.shape[0])
    return total


def install_serve_spans(rec: SpanRecorder, p: Profile, service) -> None:
    """Wrap the serving layers.  Index methods are wrapped on the class,
    so the fresh index each refresh swaps in is traced as well."""
    rec.wrap(service, "recommend", "serve.service.recommend")
    rec.wrap(type(service.index), "topk", "serve.service.sweep",
             fanout=p.on_disk, count=lambda a, kw, r: len(r.user_ids))
    rec.wrap(ItemShardIndex, "partial_topk", "serve.shard.partial_topk")
    rec.wrap(delta_module, "apply_deltas", "serve.delta.apply")
    rec.wrap(IVFFlatIndex, "refreshed", "ann.refreshed")
