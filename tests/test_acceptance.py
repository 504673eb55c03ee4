"""Acceptance suite: one check per criterion, each printing a pass/fail line.

The heavy checks (full trainings and episodic comparisons) share cached
models and datasets at module scope.
"""

import csv
import functools

import numpy as np
import pytest

from clta.attention import FrameSequence, attend_forward, fusion_weights, soft_argmax
from clta.classifiers import CosineHead, SoftmaxHead, head_forward
from clta.cli import cli_dispatch, gradcheck_batch
from clta.episodes import EpisodeSpec, run_episodes
from clta.model import Model, ModelConfig, loss_and_grads
from clta.numerics import finite_diff_check
from clta.synth import SynthConfig, generate
from clta.trainer import TrainConfig, train

from oracle_reference import (ref_attend, ref_cosine_logits, ref_fuse,
                              ref_softmax_logits)


def _report(num, desc, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"[PRIMARY] criterion {num} ({desc}): {verdict}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    assert ok, line


# -- shared heavy artifacts ------------------------------------------------------

_EVAL = dict(n_way=5, k_shot=5, num_episodes=600, seed=123)


@functools.lru_cache(maxsize=None)
def _dataset(mode):
    if mode == "instance_shifted":
        return generate(SynthConfig(seed=1))
    return generate(SynthConfig(seed=1, mode="fixed_position", noise_std=0.05))


@functools.lru_cache(maxsize=None)
def _trained_model(kind, mode):
    ds = _dataset(mode)
    train_seqs = ds.split("train")
    Z = max(s.T for s in train_seqs)
    labels = sorted({s.label for s in train_seqs})
    lab2idx = {c: i for i, c in enumerate(labels)}
    cfg = ModelConfig(kind=kind, classifier="softmax", fusion="average",
                      num_gaussians=6, beta=1e3, Z=Z,
                      feature_dim=train_seqs[0].d, hidden=64,
                      num_classes=len(labels), dropout=0.0)
    model = Model(cfg, np.random.default_rng(7))
    pairs = [(s.features, lab2idx[s.label]) for s in train_seqs]
    train(model, pairs, TrainConfig(lr0=2e-3, decay_every=50, epochs=60,
                                    batch_size=128, dropout_rate=0.0, seed=11))
    return model


@functools.lru_cache(maxsize=None)
def _accuracy(kind, mode):
    ds = _dataset(mode)
    summary = run_episodes(_trained_model(kind, mode), ds.split("test"),
                           EpisodeSpec(**_EVAL))
    return summary.mean_acc, summary.ci95


# -- criteria --------------------------------------------------------------------


def test_criterion_1_gradient_check():
    model, batch = gradcheck_batch(seed=0, beta=10.0)

    def loss_fn(params):
        model.params = params
        return loss_and_grads(model, batch)[:2]

    err = finite_diff_check(loss_fn, model.params, eps=1e-5)
    _report(1, "analytic gradients match finite differences", err < 1e-4,
            f"max rel err {err:.3e}")


def test_criterion_2_normalization_and_ranges():
    rng = np.random.default_rng(2024)
    worst_sum = 0.0
    ok = True
    for _ in range(1000):
        T = int(rng.integers(1, 13))
        d = int(rng.integers(2, 9))
        K = int(rng.integers(1, 5))
        Z = T + int(rng.integers(0, 5))
        F = rng.normal(0, 2, size=(T, d))
        Wm = rng.normal(0, 1, size=(K, d))
        Ws = rng.normal(0, 1, size=(K, d))
        beta = float(rng.uniform(1, 1000))
        cache = attend_forward(F, Wm, Ws, beta, Z, np.ones(T, dtype=bool))
        v = cache["e"] @ F   # the summaries, pooled as Model.forward_video pools them
        worst_sum = max(worst_sum, float(np.abs(cache["e"].sum(axis=1) - 1).max()))
        ok &= bool(np.all(cache["mu"] >= 1.0 / Z - 1e-12))
        ok &= bool(np.all(cache["mu"] <= T / Z + 1e-12))
        ok &= bool(np.all(cache["sigma"] > 0.0))
        ok &= bool(np.all(cache["sigma"] <= T / Z + 1e-12))
        lo, hi = F.min(axis=0), F.max(axis=0)
        ok &= bool(np.all(v >= lo[None, :] - 1e-12))
        ok &= bool(np.all(v <= hi[None, :] + 1e-12))
    ok &= worst_sum <= 1e-9
    _report(2, "weights normalize; mu/sigma/summaries stay in range", ok,
            f"worst row-sum dev {worst_sum:.2e} over 1000 inputs")


def test_criterion_3_soft_argmax_fidelity():
    rng = np.random.default_rng(3)
    gaps = {b: [] for b in (1e1, 1e2, 1e3)}
    worst = 0.0
    for _ in range(1000):
        T = int(rng.integers(2, 20))
        s = rng.normal(0, 1, size=T)
        s[int(np.argmax(s))] += 0.05  # enforce a top-1 margin >= 0.05
        hard = float(np.argmax(s) + 1)
        for b in gaps:
            gaps[b].append(abs(soft_argmax(s[:, None], b, np.ones(T, dtype=bool))[0][0] - hard))
        worst = max(worst, gaps[1e3][-1])
    means = {b: float(np.mean(v)) for b, v in gaps.items()}
    ok = worst <= 1e-6
    ok &= means[1e1] >= means[1e2] - 1e-12 and means[1e2] >= means[1e3] - 1e-12
    _report(3, "soft-argmax approaches hard argmax as beta grows", ok,
            f"beta=1e3 worst gap {worst:.2e}; mean gaps "
            f"{means[1e1]:.2e} >= {means[1e2]:.2e} >= {means[1e3]:.2e}")


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        T = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        K = int(rng.integers(1, 3))
        Z = T + int(rng.integers(0, 3))
        beta = float(rng.choice([10.0, 100.0]))
        F = rng.normal(0, 1, size=(T, d))
        Wm = rng.normal(0, 1, size=(K, d))
        Ws = rng.normal(0, 1, size=(K, d))
        cache = attend_forward(F, Wm, Ws, beta, Z, np.ones(T, dtype=bool))
        v = cache["e"] @ F   # the summaries, pooled as Model.forward_video pools them
        rmu, rsig, ra, re, rv = ref_attend(F.tolist(), Wm.tolist(), Ws.tolist(),
                                           beta, Z)
        worst = max(worst,
                    float(np.abs(cache["mu"] - rmu).max()),
                    float(np.abs(cache["sigma"] - rsig).max()),
                    float(np.abs(cache["a"] - ra).max()),
                    float(np.abs(cache["e"] - re).max()),
                    float(np.abs(v - rv).max()))
        # fusion, both modes, as the model runs it
        V_avg = fusion_weights(None, K) @ v
        worst = max(worst, float(np.abs(
            V_avg - ref_fuse(v.tolist(), "average")).max()))
        logits = rng.normal(size=K)
        V_soft = fusion_weights(logits, K) @ v
        worst = max(worst, float(np.abs(V_soft - ref_fuse(
            v.tolist(), "soft_weight", logits.tolist())).max()))
        # both classifier heads on the fused descriptor
        c = int(rng.integers(2, 4))
        W = rng.normal(size=(d, c))
        b = rng.normal(size=c)
        got = head_forward(V_avg[None], SoftmaxHead(W=W, bias=b))[0]
        ref = ref_softmax_logits(V_avg.tolist(), W.tolist(), b.tolist())
        worst = max(worst, float(np.abs(got - ref).max()))
        protos = rng.normal(size=(c, d))
        got = head_forward(V_avg[None] + 1.0,
                           CosineHead(W_proto=protos, temperature=np.array([7.0])))[0]
        ref = ref_cosine_logits((V_avg + 1.0).tolist(), protos.tolist(), 7.0)
        worst = max(worst, float(np.abs(got - ref).max()))
    _report(4, "pipeline matches an independent reference implementation",
            worst <= 1e-10, f"max abs deviation {worst:.2e} over 20 instances")


def test_criterion_5_harness_envelope():
    cfg = ModelConfig(kind="clta", classifier="softmax", num_gaussians=2,
                      beta=10.0, Z=12, feature_dim=8, hidden=16, num_classes=5,
                      dropout=0.0)
    model = Model(cfg, np.random.default_rng(55))
    rng = np.random.default_rng(56)

    # chance level: labels carry no information about the random features
    random_set = [FrameSequence(features=rng.normal(size=(int(rng.integers(4, 13)), 8)),
                                label=f"c{c}", video_id=f"c{c}_v{v}")
                  for c in range(10) for v in range(10)]
    spec = EpisodeSpec(n_way=5, k_shot=1, num_episodes=600, seed=77)
    chance = run_episodes(model, random_set, spec)
    ok_chance = abs(chance.mean_acc - 0.2) <= chance.ci95

    # ceiling: noise-free one-direction-per-class videos are fully separable
    sep_set = []
    for c in range(5):
        x = np.zeros(8)
        x[c] = 1.0
        for v in range(10):
            T = 4 + (v % 8)
            sep_set.append(FrameSequence(features=np.tile(x, (T, 1)),
                                         label=f"c{c}", video_id=f"c{c}_v{v}"))
    spec = EpisodeSpec(n_way=5, k_shot=1, num_episodes=600, seed=78, head="cosine")
    ceiling = run_episodes(model, sep_set, spec)
    ok_ceiling = 1.0 - ceiling.mean_acc <= ceiling.ci95

    _report(5, "episodic harness brackets chance and ceiling",
            ok_chance and ok_ceiling,
            f"random {chance.mean_acc:.3f}+-{chance.ci95:.3f} vs 0.20; "
            f"separable {ceiling.mean_acc:.3f}+-{ceiling.ci95:.3f} vs 1.00")


def test_criterion_6_trained_comparison():
    accs = {kind: _accuracy(kind, "instance_shifted")
            for kind in ("avg", "clta", "tsf", "sldg")}
    avg_m, _ = accs["avg"]
    clta_m, clta_c = accs["clta"]
    ok = 0.45 <= avg_m <= 0.65
    detail = [f"avg {avg_m:.3f}"]
    for kind in ("avg", "tsf", "sldg"):
        m, c = accs[kind]
        ok &= clta_m >= m + 0.05
        ok &= clta_m - clta_c > m + c  # non-overlapping 95% intervals
        detail.append(f"clta {clta_m:.3f} vs {kind} {m:.3f}")
    fixed = {kind: _accuracy(kind, "fixed_position")[0]
             for kind in ("clta", "tsf", "sldg")}
    for kind in ("tsf", "sldg"):
        ok &= abs(fixed["clta"] - fixed[kind]) <= 0.03
        detail.append(f"fixed clta {fixed['clta']:.3f} vs {kind} {fixed[kind]:.3f}")
    _report(6, "content attention beats shared filters on shifted windows", ok,
            "; ".join(detail))


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_ds")
    assert cli_dispatch(["gen", "--seed", "1", "--out", str(out)]) == 0
    return out


def _run_sweep(cli_dataset, tmp_path, sweep):
    out = tmp_path / f"{sweep}.csv"
    rc = cli_dispatch(["ablate", "--data", str(cli_dataset / "manifest.csv"),
                       "--out", str(out), "--sweep", sweep,
                       "--k-shot", "5", "--episodes", "300", "--seed", "3",
                       "--deterministic-output"])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))[1:]
    return {row[1]: float(row[5]) for row in rows}


def test_criterion_7_ablations(cli_dataset, tmp_path):
    beta = _run_sweep(cli_dataset, tmp_path, "beta")
    k = _run_sweep(cli_dataset, tmp_path, "k")
    ok = beta["1000.0"] >= beta["10.0"] + 0.01
    ok &= k["6"] >= max(k.values()) - 0.02
    _report(7, "sharp soft-argmax and the default head count hold up", ok,
            f"beta {beta}; k {k}")


def test_criterion_8_deterministic_outputs(tmp_path):
    def pipeline(root):
        ds = root / "ds"
        ckpt = root / "model.ckpt"
        assert cli_dispatch(["gen", "--out", str(ds), "--classes", "12",
                             "--videos-per-class", "6", "--dim", "24",
                             "--seed", "9"]) == 0
        assert cli_dispatch(["train", "--data", str(ds / "manifest.csv"),
                             "--out", str(ckpt), "--log", str(root / "log.csv"),
                             "--epochs", "2", "--seed", "9",
                             "--deterministic-output"]) == 0
        assert cli_dispatch(["eval", "--data", str(ds / "manifest.csv"),
                             "--checkpoint", str(ckpt), "--out", str(root / "eval.csv"),
                             "--n-way", "2", "--episodes", "20", "--seed", "9",
                             "--deterministic-output"]) == 0
        return ds, ckpt, root / "eval.csv", root / "log.csv"

    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    ds_a, ckpt_a, eval_a, log_a = pipeline(a)
    ds_b, ckpt_b, eval_b, log_b = pipeline(b)
    ok = (ds_a / "manifest.csv").read_bytes() == (ds_b / "manifest.csv").read_bytes()
    for f in sorted((ds_a / "features").iterdir()):
        ok &= f.read_bytes() == (ds_b / "features" / f.name).read_bytes()
    ok &= ckpt_a.read_bytes() == ckpt_b.read_bytes()
    ok &= eval_a.read_bytes() == eval_b.read_bytes()
    ok &= log_a.read_bytes() == log_b.read_bytes()
    _report(8, "same seed plus --deterministic-output is byte-identical", ok)
