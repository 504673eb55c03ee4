"""The benchmark's workloads: set-up, one measured unit, and output checks.

Every workload starts from one synthetic dataset made from the workload
seed with the `clta gen` defaults, written to feature files plus a manifest
and loaded back through `io_files`, as `clta gen` followed by `clta train`
or `clta eval` would. Calls into the package go through module attributes
(`trainer.train`, not a local name) so that a traced run's spans see them.

- train-*: one unit is one `trainer.train` call of `epochs` epochs per model
  kind, each from the same initial parameters, with the CLI's per-epoch
  episodic probe on the val split. One timing sample is one epoch, probe
  included, summed over the kinds.
- eval-*: set-up also trains the train-clta model and reloads it through a
  checkpoint, as `clta eval` does. One unit is one `episodes.run_episodes`
  call; calls cycle through `eval_cycle` episode seeds, so `mean_acc`
  covers `eval_cycle * eval_episodes` distinct episodes, and every later
  call with the same seed must reproduce the first one bit for bit.
"""

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from clta import episodes, io_files, model as model_mod, synth, trainer


@dataclass(frozen=True)
class Sizes:
    synth: dict               # SynthConfig overrides of the `clta gen` defaults
    epochs: int               # epochs per train() call
    probe_episodes: int       # per-epoch val probe, as `clta train` runs it
    probe_retrain_epochs: int
    eval_episodes: dict       # eval workload -> episodes per run_episodes call
    eval_cycle: dict          # eval workload -> distinct episode seeds
    setup_reps: int


SIZES = {
    "full": Sizes(synth={}, epochs=4, probe_episodes=24, probe_retrain_epochs=40,
                  eval_episodes={"eval-softmax": 40, "eval-cosine": 10},
                  eval_cycle={"eval-softmax": 15, "eval-cosine": 20},
                  setup_reps=5),
    # for the smoke test only
    "tiny": Sizes(synth=dict(videos_per_class=7, t_min=6, t_max=12),
                  epochs=3, probe_episodes=4, probe_retrain_epochs=10,
                  eval_episodes={"eval-softmax": 4, "eval-cosine": 2},
                  eval_cycle={"eval-softmax": 2, "eval-cosine": 2},
                  setup_reps=2),
}


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple = ()        # train-*: (model kind, fusion), trained in turn
    head: str | None = None  # eval-*: episode head
    k_shot: int = 0


WORKLOADS = {w.name: w for w in (
    Workload("train-clta", kinds=(("clta", "average"),)),
    Workload("train-baselines", kinds=(("tsf", "average"), ("sldg", "soft_weight"),
                                       ("selfattn", "average"))),
    Workload("eval-softmax", head="softmax", k_shot=5),
    Workload("eval-cosine", head="cosine", k_shot=1),
)}

N_WAY = 5

# Inputs of the reference computation; see reference_seconds.
_REF_X = np.random.default_rng(0).standard_normal((30, 32))
_REF_W = np.random.default_rng(1).standard_normal((32, 6))
_REF_LOOPS = 1500
# setup_s is in seconds of a machine on which the reference takes this long
REF_NOMINAL_S = 0.02


def reference_seconds() -> float:
    """Wall seconds of a fixed computation, about 25 ms long.

    It mixes what the workloads do, small matrix products, a stable softmax
    and dict updates in a Python loop, and uses numpy alone, so no change to
    the package can move it. A small shared VM runs at speeds up to 1.8x
    apart from one second to the next; an op's seconds divided by the
    reference measured around it cancel that swing, and so do set-up seconds
    scaled by REF_NOMINAL_S over it.
    """
    t0 = time.perf_counter()
    acc: dict[int, float] = {}
    for i in range(_REF_LOOPS):
        logits = _REF_X @ _REF_W
        e = np.exp(logits - logits.max(axis=0))
        p = e / e.sum(axis=0)
        acc[i % 7] = acc.get(i % 7, 0.0) + float(p[0, 0])
    return time.perf_counter() - t0


def _fingerprint(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _loss_failures(what, records) -> list[str]:
    losses = [r.train_loss for r in records]
    if not losses or not all(math.isfinite(x) for x in losses):
        return [f"{what}: non-finite or missing epoch loss {losses}"]
    if not losses[-1] < losses[0]:
        return [f"{what}: last epoch loss {losses[-1]} not below first {losses[0]}"]
    return []


@dataclass
class Bench:
    workload: Workload
    sizes: Sizes
    seed: int
    calibrate: bool = True   # time the reference around every op
    samples: list = field(default_factory=list)   # seconds per operation
    ratios: list = field(default_factory=list)    # op seconds / reference seconds
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # messages, all checks
    _outputs: dict = field(default_factory=dict)  # unit key -> first output
    _fingerprint: str | None = None
    _last_ref: float | None = None

    # -- set-up ----------------------------------------------------------------

    def setup(self, workdir) -> float:
        """Make the inputs: the data files round trip, plus the frozen model.

        Returns the seconds of set-up less the seconds spent creating the
        feature files and manifest. Creating 900 small files costs 0.04 to
        0.6 s on ext4 depending on how many inodes were freed just before,
        which moved the median of ten runs by a third; the files are still
        written on every set-up and a traced run still times them.
        """
        t0 = time.perf_counter()
        ds = synth.generate(synth.SynthConfig(seed=self.seed, **self.sizes.synth))
        generate_s = time.perf_counter() - t0
        (workdir / "features").mkdir(parents=True)
        rows = []
        for seq in ds.sequences:
            rel = f"features/{seq.video_id}.fvf"
            io_files.write_feature_file(workdir / rel, seq.features)
            rows.append(dict(video_id=seq.video_id, label=seq.label,
                             split=ds.split_of[seq.video_id], path=rel))
        manifest = workdir / "manifest.csv"
        io_files.write_manifest(manifest, rows)
        t0 = time.perf_counter()
        self.generated = ds
        self.splits = {name: io_files.load_split(manifest, name) for name in synth.SPLITS}
        train_seqs = self.splits["train"]
        self.labels = sorted({s.label for s in train_seqs})
        lab2idx = {c: i for i, c in enumerate(self.labels)}
        self.pairs = [(s.features, lab2idx[s.label]) for s in train_seqs]
        if self.workload.head is None:
            return generate_s + time.perf_counter() - t0
        trained, self.setup_records, _, _ = self._train("clta", "average", calibrate=False)
        ckpt = workdir / "model.ckpt"
        meta = dict(model_config=trained.config_dict(), labels=self.labels,
                    bn_mean=trained.bn_mean.tolist(), bn_var=trained.bn_var.tolist())
        io_files.save_checkpoint(ckpt, trained.params, meta)
        params, meta = io_files.load_checkpoint(ckpt)
        frozen = model_mod.Model.from_config(meta["model_config"], params)
        frozen.bn_mean = np.asarray(meta["bn_mean"])
        frozen.bn_var = np.asarray(meta["bn_var"])
        self.trained, self.frozen = trained, frozen
        return generate_s + time.perf_counter() - t0

    def check_setup(self) -> None:
        """Untimed checks of the last set-up; every set-up must match the first."""
        fails = []
        gen = {s.video_id: s for s in self.generated.sequences}
        loaded = [(name, s) for name, seqs in self.splits.items() for s in seqs]
        if len(loaded) != len(gen):
            fails.append(f"loaded {len(loaded)} videos, generated {len(gen)}")
        for name, s in loaded:
            g = gen.get(s.video_id)
            if (g is None or self.generated.split_of[s.video_id] != name
                    or s.label != g.label
                    or not np.array_equal(s.features, g.features.astype(np.float32))):
                fails.append(f"feature file round trip changed {s.video_id!r}")
                break
        arrays = [s.features for _, s in loaded]
        if self.workload.head is not None:
            fails += _loss_failures("set-up training", self.setup_records)
            a, b = self.trained.params, self.frozen.params
            if a.keys() != b.keys() or not all(_same_bits(a[k], b[k]) for k in a):
                fails.append("checkpoint round trip changed the parameters")
            test = self.splits["test"]
            if not all(_same_bits(model_mod.descriptor(self.trained, s.features),
                                  model_mod.descriptor(self.frozen, s.features))
                       for s in test):
                fails.append("checkpoint round trip changed a descriptor")
            arrays += [b[k] for k in sorted(b)]
        fp = _fingerprint(arrays)
        if self._fingerprint is None:
            self._fingerprint = fp
        elif fp != self._fingerprint:
            fails.append("a repeated set-up produced different data or parameters")
        self.failures += fails

    # -- measured units --------------------------------------------------------

    def _reference(self):
        return reference_seconds() if self.calibrate else None

    def _train(self, kind, fusion, calibrate=True):
        """One `clta train`-style run: (model, records, epoch seconds,
        reference seconds before the first epoch and after each one)."""
        train_seqs, val_seqs = self.splits["train"], self.splits["val"]
        cfg = model_mod.ModelConfig(
            kind=kind, classifier="softmax", fusion=fusion, num_gaussians=6,
            beta=1e3, Z=max(s.T for s in train_seqs), feature_dim=train_seqs[0].d,
            hidden=64, num_classes=len(self.labels), projection_stage="post",
            dropout=0.0, batch_norm=False)
        model = model_mod.Model(cfg, np.random.default_rng(self.seed))
        tcfg = trainer.TrainConfig(lr0=2e-3, decay_every=50, batch_size=128,
                                   epochs=self.sizes.epochs, dropout_rate=0.0,
                                   seed=self.seed)
        probe = episodes.EpisodeSpec(
            n_way=min(N_WAY, len({s.label for s in val_seqs})), k_shot=1,
            num_episodes=self.sizes.probe_episodes,
            retrain_epochs=self.sizes.probe_retrain_epochs, seed=self.seed)
        reference = self._reference if calibrate else lambda: None
        refs = [reference()]
        starts, ends = [time.perf_counter()], []

        def val_metric(m):
            acc = episodes.run_episodes(m, val_seqs, probe).mean_acc
            ends.append(time.perf_counter())
            refs.append(reference())
            starts.append(time.perf_counter())
            return acc

        records = trainer.train(model, self.pairs, tcfg, val_metric=val_metric)
        return model, records, np.subtract(ends, starts[:len(ends)]), refs

    @property
    def ops_per_unit(self) -> int:
        return self.sizes.epochs if self.workload.head is None else 1

    @property
    def min_units(self) -> int:
        """Units a run makes however long they take: two repeats of each."""
        if self.workload.head is None:
            return 2
        return self.sizes.eval_cycle[self.workload.name] + 1

    def unit(self, i: int):
        """Run measured unit i: (key, output, op seconds, op seconds over
        the reference, failed checks)."""
        if self.workload.head is None:
            return self._train_unit()
        return self._eval_unit(i)

    def _train_unit(self):
        epochs = self.sizes.epochs
        secs, ratios = np.zeros(epochs), np.zeros(epochs)
        out, fails = [], []
        for kind, fusion in self.workload.kinds:
            _, records, durs, refs = self._train(kind, fusion)
            if len(records) != epochs or len(durs) != epochs:
                fails.append(f"{kind}: {len(records)} epochs logged, "
                             f"{len(durs)} probed, expected {epochs}")
                continue
            secs += durs
            if self.calibrate:
                ratios += durs / ((np.array(refs[:-1]) + refs[1:]) / 2)
            fails += _loss_failures(kind, records)
            out.append(tuple((r.train_loss, r.train_acc, r.val_acc) for r in records))
        return "train", tuple(out), list(secs), list(ratios), fails

    def _eval_unit(self, i):
        name = self.workload.name
        n = self.sizes.eval_episodes[name]
        spec = episodes.EpisodeSpec(n_way=N_WAY, k_shot=self.workload.k_shot,
                                    num_episodes=n, seed=i % self.sizes.eval_cycle[name],
                                    head=self.workload.head)
        # the reference after one call is the one before the next
        before = self._last_ref or self._reference()
        t0 = time.perf_counter()
        summary = episodes.run_episodes(self.frozen, self.splits["test"], spec)
        secs = time.perf_counter() - t0
        self._last_ref = self._reference()
        ratios = [secs / ((before + self._last_ref) / 2)] if self.calibrate else []
        fails = []
        if len(summary.results) != n:
            fails.append(f"episode seed {spec.seed}: {len(summary.results)} results, expected {n}")
        out = (summary.mean_acc, summary.ci95,
               tuple((r.accuracy, tuple(sorted(r.per_class.items())), r.episode_seed)
                     for r in summary.results))
        return spec.seed, out, [secs], ratios, fails

    def run_unit(self, i: int, record_samples: bool = True) -> float:
        """Run unit i with the output checks; returns its wall seconds."""
        t0 = time.perf_counter()
        try:
            key, out, secs, ratios, fails = self.unit(i)
        except Exception as exc:  # a failed operation is counted, not fatal
            key, out, secs, ratios = None, None, [], []
            fails = [f"unit {i} raised {exc!r}"]
        wall = time.perf_counter() - t0
        if key is not None:
            first = self._outputs.setdefault(key, out)
            if out != first:
                fails.append(f"unit {i} did not reproduce the first output for {key!r}")
        self.attempted += self.ops_per_unit
        if fails:
            self.failed += self.ops_per_unit
            self.failures += fails
        elif record_samples:
            self.samples += secs
            self.ratios += ratios
        return wall

    # -- results ---------------------------------------------------------------

    def outputs(self) -> dict:
        """The deterministic results: `final_train_loss` and `mean_acc`."""
        if self.workload.head is None:
            runs = self._outputs.get("train") or ()
            if not runs:
                return {"final_train_loss": None, "mean_acc": None}
            return {"final_train_loss": float(np.mean([r[-1][0] for r in runs])),
                    "mean_acc": float(np.mean([r[-1][2] for r in runs]))}
        accs = [self._outputs[k][0] for k in sorted(self._outputs)]
        return {"final_train_loss": self.setup_records[-1].train_loss,
                "mean_acc": float(np.mean(accs)) if accs else None}

    def check_outputs(self) -> None:
        """Checks on the whole run, made once its units are done."""
        if self.workload.head is None:
            return
        cycle = self.sizes.eval_cycle[self.workload.name]
        if len(self._outputs) != cycle:
            self.failures.append(f"{len(self._outputs)} of {cycle} episode seeds ran cleanly")
        acc = self.outputs()["mean_acc"]
        if acc is None or not acc > 1.0 / N_WAY:
            self.failures.append(f"mean_acc {acc} not above chance 1/{N_WAY}")
