"""One few-shot episode, step by step.

Shows exactly what the episodic harness does: freeze the trained model,
sample n classes the model has never seen, retrain only a small classifier
head on k labelled videos per class, then score one query per class.

    python3 demos/episode_walkthrough.py
"""

import dataclasses

import numpy as np

from clta.episodes import EpisodeSpec, run_episodes
from clta.model import Model, ModelConfig
from clta.synth import SynthConfig, generate
from clta.trainer import TrainConfig, train


def main():
    ds = generate(SynthConfig(seed=2, num_classes=12, videos_per_class=12))
    train_seqs = ds.split("train")
    Z = max(s.T for s in train_seqs)
    labels = sorted({s.label for s in train_seqs})
    lab2idx = {c: i for i, c in enumerate(labels)}

    print("step 1: train the attention model on the base classes")
    cfg = ModelConfig(kind="clta", num_gaussians=6, beta=1e3, Z=Z,
                      feature_dim=train_seqs[0].d, hidden=64,
                      num_classes=len(labels), dropout=0.0)
    model = Model(cfg, np.random.default_rng(7))
    records = train(model, [(s.features, lab2idx[s.label]) for s in train_seqs],
                    TrainConfig(lr0=2e-3, decay_every=50, epochs=30,
                                batch_size=128, dropout_rate=0.0, seed=11))
    print(f"  base training accuracy during the last of {len(records)} epochs: "
          f"{records[-1].train_acc:.3f}\n")

    novel = ds.split("test")
    novel_classes = sorted({s.label for s in novel})
    print(f"step 2: the test split holds classes the model never saw: "
          f"{novel_classes}\n")

    spec = EpisodeSpec(n_way=2, k_shot=3, seed=7)
    # as the harness draws episode i from SeedSequence([seed, i]): n classes,
    # then k support videos and one query from each
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    support, queries = [], []
    for c in rng.choice(novel_classes, size=spec.n_way, replace=False):
        members = [s for s in novel if s.label == c]
        *shots, query = rng.choice(len(members), size=spec.k_shot + 1, replace=False)
        support += [members[i] for i in shots]
        queries.append(members[query])
    print(f"step 3: sample an episode: {spec.n_way}-way {spec.k_shot}-shot")
    for s in support:
        print(f"  support: {s.video_id} (T = {s.T})")
    print()

    print("step 4: retrain only the classifier head on the support videos,")
    print("then classify the query videos")
    result = run_episodes(model, novel, dataclasses.replace(spec, num_episodes=1)).results[0]
    print("  (the attention parameters are frozen; a unit")
    print("   test checks they come back bit-identical)")
    for seq in queries:
        mark = "ok" if result.per_class[seq.label] else "WRONG"
        print(f"  query {seq.video_id} of {seq.label}: {mark}")
    print(f"\nepisode accuracy: {sum(result.per_class.values())}/{len(queries)}")
    print("The harness repeats this hundreds of times with per-episode seeds")
    print("and reports the mean accuracy with a 95% confidence interval.")


if __name__ == "__main__":
    main()
