"""Command-line surface: gen / train / eval / gradcheck / ablate / dump-attention.

Exit codes: 0 success, 1 usage error, 2 runtime error. A plain key=value
file passed with --config supplies defaults; explicit flags override it.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import io_files, synth
from .episodes import HEADS, EpisodeSpec, run_episodes
from .errors import CltaError, ConfigError, FormatError
from .model import CLASSIFIERS, MODEL_KINDS, Model, ModelConfig, _padded_chunks, loss_and_grads
from .numerics import finite_diff_check
from .trainer import TrainConfig, train


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        self.flags = {}  # dest -> its Action, to convert --config values
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = action
        return action

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _build_parser():
    """Returns (parser, {subcommand name: its parser})."""
    parser = _Parser(prog="clta", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, help, handler):
        p = commands[name] = sub.add_parser(name, help=help)
        # set_defaults registers no flag, so a --config key cannot set the handler
        p.set_defaults(handler=handler)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", type=str, default=None,
                       help="key=value file with defaults; flags override")
        p.add_argument("--deterministic-output", action="store_true",
                       help="suppress timestamp comment lines in result CSVs")
        return p

    p = command("gen", "generate a synthetic dataset", _cmd_gen)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--mode", choices=synth.MODES, default="instance_shifted")
    p.add_argument("--classes", type=int, default=30)
    p.add_argument("--videos-per-class", type=int, default=30)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--t-min", type=int, default=12)
    p.add_argument("--t-max", type=int, default=40)
    p.add_argument("--window-len", type=int, default=6)
    p.add_argument("--amp", type=float, default=0.3)
    p.add_argument("--cue", type=float, default=0.3,
                   help="class-independent in-window cue amplitude")
    p.add_argument("--noise", type=float, default=0.12)

    def train_flags(p):
        p.add_argument("--model", choices=MODEL_KINDS, default="clta")
        p.add_argument("--classifier", choices=CLASSIFIERS, default="softmax")
        p.add_argument("--fusion", choices=["average", "soft"], default="average")
        p.add_argument("--k-gaussians", type=int, default=6)
        p.add_argument("--beta", type=float, default=1e3)
        p.add_argument("--hidden", type=int, default=64)
        p.add_argument("--epochs", type=int, default=60)
        p.add_argument("--lr", type=float, default=2e-3)
        p.add_argument("--decay-every", type=int, default=50,
                       help="halve the learning rate every this many epochs")
        p.add_argument("--batch-size", type=int, default=128)
        p.add_argument("--dropout", type=float, default=0.0)

    p = command("train", "train an attention model on the base classes", _cmd_train)
    p.add_argument("--data", required=True, help="manifest CSV path")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--log", default=None,
                   help="training log CSV path; train_acc is the accuracy of each "
                        "epoch's own gradient pass, with dropout, not a pass without it "
                        "at the end of the epoch")
    train_flags(p)

    def eval_flags(p):
        p.add_argument("--n-way", type=int, default=5)
        p.add_argument("--k-shot", type=int, default=1)
        p.add_argument("--episodes", type=int, default=600)
        p.add_argument("--head", choices=HEADS, default="same")

    p = command("eval", "episodic n-way k-shot evaluation", _cmd_eval)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None, help="result CSV path (default stdout only)")
    eval_flags(p)

    p = command("gradcheck", "finite-difference check of the full model", _cmd_gradcheck)
    p.add_argument("--beta", type=float, default=10.0,
                   help="soft-argmax scale for the checked model")
    p.add_argument("--eps", type=float, default=1e-5)

    p = command("ablate", "sweep one factor and evaluate each setting", _cmd_ablate)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="sweep result CSV path")
    p.add_argument("--sweep", choices=tuple(_SWEEPS), required=True)
    train_flags(p)
    eval_flags(p)

    p = command("dump-attention", "per-video attention trace CSVs", _cmd_dump_attention)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--split", choices=synth.SPLITS, default="test")
    return parser, commands


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _config_defaults(path, flags) -> dict:
    """Read a --config key=value file into defaults for the flags given."""
    defaults = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        action = flags.get(key.replace("-", "_"))
        if action is None or action.dest in ("config", "help"):
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        # store_true flags take no value on the command line; here they do
        if isinstance(action.default, bool):
            if value.lower() not in _BOOLEANS:
                raise ConfigError(f"{path}:{lineno}: invalid boolean value {value!r} for key "
                                  f"{key!r} (use 1, true, yes, 0, false or no)")
            value = _BOOLEANS[value.lower()]
        elif action.type is not None:
            try:
                value = action.type(value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: invalid {action.type.__name__} "
                                  f"value {value!r} for key {key!r}") from None
        if action.choices is not None and value not in action.choices:
            raise ConfigError(f"{path}:{lineno}: invalid value {value!r} for key {key!r} "
                              f"(choose from {', '.join(map(str, action.choices))})")
        defaults[action.dest] = value
    return defaults


# -- subcommand bodies ----------------------------------------------------------


def _cmd_gen(args) -> int:
    cfg = synth.SynthConfig(
        num_classes=args.classes, videos_per_class=args.videos_per_class,
        d=args.dim, t_min=args.t_min, t_max=args.t_max,
        window_len=args.window_len, signal_amp=args.amp, cue_amp=args.cue,
        noise_std=args.noise, mode=args.mode, seed=args.seed)
    dataset = synth.generate(cfg)
    out = Path(args.out)
    rows, blobs = [], []
    for seq in dataset.sequences:   # every file is built and checked before any is written
        rel = f"features/{seq.video_id}.fvf"
        blobs.append(io_files._feature_bytes(out / rel, seq.features))
        rows.append(dict(video_id=seq.video_id, label=seq.label,
                         split=dataset.split_of[seq.video_id], path=rel))
    (out / "features").mkdir(parents=True, exist_ok=True)
    for row, blob in zip(rows, blobs):
        (out / row["path"]).write_bytes(blob)
    io_files.write_manifest(out / "manifest.csv", rows)
    for name in synth.SPLITS:
        seqs = dataset.split(name)
        print(f"{name}: {len({s.label for s in seqs})} classes, {len(seqs)} videos, "
              f"max T {max((s.T for s in seqs), default=0)}")
    print(f"Z = {max(s.T for s in dataset.split('train'))}")
    return 0


def _load_splits(manifest):
    rows = io_files.read_manifest(manifest)
    return tuple(io_files._read_split(manifest, rows, name) for name in synth.SPLITS)


def _train_model(args, train_seqs, val_seqs):
    if not train_seqs:
        raise ConfigError("training split is empty")
    Z = max(s.T for s in train_seqs)
    labels = sorted({s.label for s in train_seqs})
    lab2idx = {c: i for i, c in enumerate(labels)}
    mcfg = ModelConfig(
        kind=args.model, classifier=args.classifier,
        fusion="soft_weight" if args.fusion == "soft" else "average",
        num_gaussians=args.k_gaussians, beta=args.beta, Z=Z,
        feature_dim=train_seqs[0].d, hidden=args.hidden,
        num_classes=len(labels), dropout=args.dropout)
    model = Model(mcfg, np.random.default_rng(args.seed))
    tcfg = TrainConfig(lr0=args.lr, decay_every=args.decay_every,
                       batch_size=args.batch_size, epochs=args.epochs,
                       dropout_rate=args.dropout, seed=args.seed)
    pairs = [(s.features, lab2idx[s.label]) for s in train_seqs]
    # val classes are disjoint from the base classes, so epoch selection uses
    # a small episodic probe on the val split instead of plain accuracy; a
    # 1-shot episode needs two classes of two videos each, else there is none
    val_metric = None
    val_classes = sum(n >= 2 for n in Counter(s.label for s in val_seqs).values())
    if val_classes >= 2:
        probe = EpisodeSpec(n_way=min(5, val_classes), k_shot=1,
                            num_episodes=24, retrain_epochs=40, seed=args.seed)

        def val_metric(m):
            return run_episodes(m, val_seqs, probe).mean_acc

    log = train(model, pairs, tcfg, val_metric=val_metric)
    return model, labels, log


def _cmd_train(args) -> int:
    train_seqs, val_seqs, _ = _load_splits(args.data)
    model, labels, log = _train_model(args, train_seqs, val_seqs)
    final = log[-1] if log else None
    # train() keeps the parameters of the first epoch with the best val probe, else the last
    probed = [r for r in log if r.val_acc is not None]
    kept = max(probed, key=lambda r: r.val_acc) if probed else final
    meta = dict(model_config=model.config_dict(), labels=labels,
                kept_epoch=None if kept is None else kept.epoch)
    io_files.save_checkpoint(args.out, model.params, meta)
    if args.log:
        io_files.write_csv(
            args.log, ["epoch", "lr", "train_loss", "train_acc", "val_acc"],
            [[r.epoch, f"{r.lr:.10g}", f"{r.train_loss:.10g}", f"{r.train_acc:.6f}",
              "" if r.val_acc is None else f"{r.val_acc:.6f}"] for r in log],
            deterministic=args.deterministic_output)
    if final:
        print(f"final epoch {final.epoch}: loss {final.train_loss:.4f}, "
              f"train acc {final.train_acc:.3f}")
        print(f"kept epoch {kept.epoch}: " + ("the last, no val probe" if kept.val_acc is None
                                              else f"val acc {kept.val_acc:.3f}"))
    print(f"checkpoint written to {args.out}")
    return 0


def _load_model(checkpoint) -> Model:
    params, meta = io_files.load_checkpoint(checkpoint)
    if not isinstance(meta, dict) or "model_config" not in meta:
        raise FormatError(f"{checkpoint}: metadata has no model_config")
    return Model.from_config(meta["model_config"], params)


def _cmd_eval(args) -> int:
    model = _load_model(args.checkpoint)
    test_seqs = io_files.load_split(args.data, "test")
    spec = EpisodeSpec(n_way=args.n_way, k_shot=args.k_shot,
                       num_episodes=args.episodes, seed=args.seed, head=args.head)
    summary = run_episodes(model, test_seqs, spec)
    row = [model.cfg.kind, args.n_way, args.k_shot, args.episodes,
           f"{summary.mean_acc:.6f}", f"{summary.ci95:.6f}", args.seed]
    print(",".join(str(x) for x in row))
    if args.out:
        io_files.write_csv(args.out,
                           ["model", "n_way", "k_shot", "num_episodes",
                            "mean_acc", "ci95", "seed"],
                           [row], deterministic=args.deterministic_output)
    return 0


def gradcheck_batch(seed: int, beta: float):
    """Seeded small model + batch used by the gradcheck subcommand."""
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(kind="clta", classifier="softmax", fusion="soft_weight",
                      num_gaussians=2, beta=beta, Z=6, feature_dim=4, hidden=8,
                      num_classes=3, dropout=0.0)
    model = Model(cfg, rng)
    # classifier weights must be nonzero for gradients to reach the attention
    model.params["cls_W"] = rng.standard_normal(model.params["cls_W"].shape) * 0.5
    model.params["cls_b"] = rng.standard_normal(model.params["cls_b"].shape) * 0.1
    batch = [(rng.standard_normal((t, 4)), int(rng.integers(0, 3)))
             for t in (3, 4, 5)]
    return model, batch


def _cmd_gradcheck(args) -> int:
    model, batch = gradcheck_batch(args.seed, args.beta)

    def loss_fn(params):
        model.params = params
        return loss_and_grads(model, batch)[:2]

    err = finite_diff_check(loss_fn, model.params, eps=args.eps)
    print(f"max relative gradient error: {err:.3e}")
    return 0 if err < 1e-4 else 2


_SWEEPS = {
    "k": ("k_gaussians", [3, 6, 9]),
    "beta": ("beta", [1e1, 1e2, 1e3]),
    "fusion": ("fusion", ["average", "soft"]),
    "classifier": ("classifier", CLASSIFIERS),
}


def _cmd_ablate(args) -> int:
    train_seqs, val_seqs, test_seqs = _load_splits(args.data)
    attr, values = _SWEEPS[args.sweep]
    spec = EpisodeSpec(n_way=args.n_way, k_shot=args.k_shot,
                       num_episodes=args.episodes, seed=args.seed, head=args.head)
    rows = []
    for value in values:
        setattr(args, attr, value)
        model, _, _ = _train_model(args, train_seqs, val_seqs)
        summary = run_episodes(model, test_seqs, spec)
        rows.append([args.sweep, value, args.n_way, args.k_shot, args.episodes,
                     f"{summary.mean_acc:.6f}", f"{summary.ci95:.6f}", args.seed])
        print(f"{args.sweep}={value}: {summary.mean_acc:.4f} +- {summary.ci95:.4f}")
    io_files.write_csv(args.out,
                       ["sweep", "value", "n_way", "k_shot", "num_episodes",
                        "mean_acc", "ci95", "seed"],
                       rows, deterministic=args.deterministic_output)
    return 0


def _cmd_dump_attention(args) -> int:
    model = _load_model(args.checkpoint)
    seqs = io_files.load_split(args.data, args.split)
    bad = [s.video_id for s in seqs if Path(f"{s.video_id}.csv").name != f"{s.video_id}.csv"]
    if bad:
        raise FormatError(f"{args.data}: video_id {bad[0]!r} cannot name a trace file in --out")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for F, mask, video_ids in _padded_chunks([(s.features, s.video_id) for s in seqs]):
        acache = model.forward_video(F, mask)[1]["attn"]
        # every kind records weights e (B, K, T); avg has no raw weights a, mu or sigma
        e, a, mu, sigma = (acache.get(key) for key in ("e", "a", "mu", "sigma"))
        for b, (video_id, T) in enumerate(zip(video_ids, mask.sum(axis=1))):
            rows = [[k, t, f"{t / model.cfg.Z:.10g}",
                     1.0 if a is None else f"{a[b, k, t - 1]:.10g}", f"{e[b, k, t - 1]:.10g}",
                     "" if mu is None else f"{mu[b, k]:.10g}",
                     "" if sigma is None else f"{sigma[b, k]:.10g}"]
                    for k in range(e.shape[-2]) for t in range(1, T + 1)]
            io_files.write_csv(out / f"{video_id}.csv",
                               ["k", "t", "t_over_Z", "a", "e", "mu_k", "sigma_k"],
                               rows, deterministic=args.deterministic_output)
    print(f"wrote {len(seqs)} attention traces to {out}")
    return 0


def cli_dispatch(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    # a flag the --config file supplies is not required on the command line,
    # so the first parse, which finds the file, requires none
    required = [a for p in commands.values() for a in p.flags.values() if a.required]
    for action in required:
        action.required = False
    args = parser.parse_args(argv)
    try:
        command = commands[args.command]
        if args.config:
            # file values become the subcommand's defaults, so every flag on
            # the command line (--flag value or --flag=value) still wins
            command.set_defaults(**_config_defaults(args.config, command.flags))
        for action in required:
            action.required = command.get_default(action.dest) is None
        args = parser.parse_args(argv)
        if args.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {args.seed}")
        return args.handler(args)
    except (CltaError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
