"""End-to-end checks of the command-line surface on a small dataset."""

import csv
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from clta import cli, io_files, synth
from clta.cli import (_build_parser, _config_defaults, _load_model, cli_dispatch,
                      gradcheck_batch)
from clta.episodes import HEADS
from clta.model import CLASSIFIERS, MODEL_KINDS, Model, ModelConfig
from checkpoint_bytes import v2_bytes, v2_parts


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    rc = cli_dispatch(["gen", "--out", str(out), "--classes", "12",
                       "--videos-per-class", "6", "--dim", "24", "--seed", "0"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def checkpoint(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    ckpt = out / "model.ckpt"
    rc = cli_dispatch(["train", "--data", str(dataset_dir / "manifest.csv"),
                       "--out", str(ckpt), "--log", str(out / "log.csv"),
                       "--epochs", "2", "--seed", "0"])
    assert rc == 0
    return ckpt


def test_gen_writes_manifest_and_features(dataset_dir, capsys):
    manifest = dataset_dir / "manifest.csv"
    rows = io_files.read_manifest(manifest)
    assert len(rows) == 12 * 6
    splits = {r["split"] for r in rows}
    assert splits == {"train", "val", "test"}
    seq = io_files.read_feature_file(dataset_dir / rows[0]["path"])
    assert seq.d == 24


def test_gen_prints_summary(tmp_path, capsys):
    rc = cli_dispatch(["gen", "--out", str(tmp_path / "d2"), "--classes", "9",
                       "--videos-per-class", "4", "--dim", "24", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "train:" in out and "Z = " in out
    # an empty split still gets its line
    rc = cli_dispatch(["gen", "--out", str(tmp_path / "d3"), "--classes", "3",
                       "--videos-per-class", "2", "--seed", "0"])
    assert rc == 0
    assert capsys.readouterr().out == ("train: 2 classes, 4 videos, max T 40\n"
                                       "val: 0 classes, 0 videos, max T 0\n"
                                       "test: 1 classes, 2 videos, max T 20\n"
                                       "Z = 40\n")


@pytest.mark.parametrize("flag", ["--amp", "--noise"])
def test_gen_rejects_features_that_float32_cannot_hold(tmp_path, capsys, flag):
    # float64 synthesis can exceed float32's range; such a file could not be read back
    out = tmp_path / "d"
    rc = cli_dispatch(["gen", "--out", str(out), "--classes", "3", "--videos-per-class", "2",
                       "--dim", "4", flag, "1e39"])
    assert rc == 2
    assert "does not fit float32" in capsys.readouterr().err
    assert not (out / "manifest.csv").exists()
    assert not (out / "features").exists()


def test_gen_writes_nothing_unless_every_video_fits(tmp_path, capsys):
    # at this noise the first video fits float32 and a later one does not
    argv = ["--classes", "3", "--videos-per-class", "2", "--dim", "4", "--noise", "1.5e38"]

    def tree(root):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
                if p.is_file()}

    fresh = tmp_path / "fresh"
    assert cli_dispatch(["gen", "--out", str(fresh), *argv]) == 2
    assert "does not fit float32" in capsys.readouterr().err
    assert not (fresh / "features").exists() and not (fresh / "manifest.csv").exists()
    # a failed run leaves an earlier dataset byte for byte as it was
    earlier = tmp_path / "earlier"
    assert cli_dispatch(["gen", "--out", str(earlier), "--classes", "3",
                         "--videos-per-class", "2", "--dim", "4"]) == 0
    before = tree(earlier)
    assert Path("features/class000_v000.fvf") in before
    assert cli_dispatch(["gen", "--out", str(earlier), *argv]) == 2
    assert "does not fit float32" in capsys.readouterr().err
    assert tree(earlier) == before


def test_train_writes_checkpoint_and_log(checkpoint):
    params, meta = io_files.load_checkpoint(checkpoint)
    assert meta["model_config"]["kind"] == "clta"
    assert len(meta["labels"]) == 8  # base classes only
    model = Model.from_config(meta["model_config"], params)
    assert model.cfg.Z >= 12
    with open(checkpoint.parent / "log.csv") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    assert rows[0] == ["epoch", "lr", "train_loss", "train_acc", "val_acc"]
    assert len(rows) == 1 + 2
    assert rows[1][4] != ""  # episodic probe recorded as the val metric


def test_train_with_a_one_class_val_split_has_no_val_signal(tmp_path, capsys, caplog):
    # 6 classes give a val split of one class, on which no episode can be drawn;
    # 12 classes of one video give two val classes, neither with a query to spare
    for classes, per_class, val_line in (("6", "4", "val: 1 classes, 4 videos"),
                                         ("12", "1", "val: 2 classes, 2 videos")):
        out = tmp_path / f"{classes}x{per_class}"
        rc = cli_dispatch(["gen", "--out", str(out / "d"), "--classes", classes,
                           "--videos-per-class", per_class, "--seed", "0"])
        assert rc == 0
        assert val_line in capsys.readouterr().out
        caplog.clear()
        rc = cli_dispatch(["train", "--data", str(out / "d" / "manifest.csv"),
                           "--out", str(out / "m.ckpt"), "--log", str(out / "log.csv"),
                           "--epochs", "2"])
        assert rc == 0
        assert "no validation signal" in caplog.text
        with open(out / "log.csv") as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        assert [r[4] for r in rows[1:]] == ["", ""]


@pytest.mark.parametrize("flag, value, error", [
    ("--beta", "nan", "beta must be a number in [1e-300, 1e300], got nan"),
    ("--beta", "inf", "beta must be a number in [1e-300, 1e300], got inf"),
    ("--lr", "nan", "lr0 must be finite and > 0, got nan"),
    ("--lr", "inf", "lr0 must be finite and > 0, got inf"),
], ids=["beta-nan", "beta-inf", "lr-nan", "lr-inf"])
def test_train_rejects_a_non_finite_beta_or_lr_before_training(dataset_dir, tmp_path, capsys,
                                                               monkeypatch, flag, value, error):
    monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("training started"))
    ckpt = tmp_path / "m.ckpt"
    rc = cli_dispatch(["train", "--data", str(dataset_dir / "manifest.csv"),
                       "--out", str(ckpt), "--epochs", "1", flag, value])
    assert rc == 2
    assert f"error: {error}" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("beta, error", [
    ("1e308", "beta must be a number in [1e-300, 1e300], got 1e+308"),
    ("1e200", "gradient for parameter 'W_mean' is not finite or its square overflows"),
], ids=["init-divisor", "adam-second-moment"])
def test_train_with_a_huge_finite_beta_exits_2(dataset_dir, tmp_path, capsys, beta, error):
    # 1e308 lies outside beta's range, 1e200 overflows the squared W_mean gradient
    # in Adam; the suite turns the RuntimeWarning of that overflow into a failure
    ckpt = tmp_path / "m.ckpt"
    rc = cli_dispatch(["train", "--data", str(dataset_dir / "manifest.csv"),
                       "--out", str(ckpt), "--epochs", "2", "--beta", beta])
    assert rc == 2
    assert f"error: {error}" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("command", ["train", "gradcheck"])
def test_a_beta_whose_init_scale_overflows_exits_2(dataset_dir, tmp_path, capsys, command):
    # beta * sqrt(feature_dim) is finite, but the init's W_mean scale, its reciprocal,
    # is not; the suite turns the RuntimeWarning of that overflow into a failure
    ckpt = tmp_path / "m.ckpt"
    argv = {"train": ["--data", str(dataset_dir / "manifest.csv"),
                      "--out", str(ckpt), "--epochs", "1"],
            "gradcheck": []}[command]
    assert cli_dispatch([command, *argv, "--beta", "1e-320"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: beta must be a number in [1e-300, 1e300], got 1e-320\n"
    assert captured.out == ""
    assert not ckpt.exists()


@pytest.mark.parametrize("hidden", ["-1", "0"])
def test_train_rejects_a_hidden_size_below_one(dataset_dir, tmp_path, capsys, hidden):
    ckpt = tmp_path / "m.ckpt"
    rc = cli_dispatch(["train", "--data", str(dataset_dir / "manifest.csv"),
                       "--out", str(ckpt), "--epochs", "1", "--hidden", hidden])
    assert rc == 2
    assert f"error: hidden must be >= 1, got {hidden}" in capsys.readouterr().err
    assert not ckpt.exists()


def test_eval_runs_and_writes_csv(dataset_dir, checkpoint, tmp_path, capsys):
    out = tmp_path / "eval.csv"
    rc = cli_dispatch(["eval", "--data", str(dataset_dir / "manifest.csv"),
                       "--checkpoint", str(checkpoint), "--out", str(out),
                       "--n-way", "2", "--k-shot", "1", "--episodes", "10",
                       "--seed", "5", "--deterministic-output"])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    fields = line.split(",")
    assert fields[0] == "clta"
    assert 0.0 <= float(fields[4]) <= 1.0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "sweep" or rows[0][0] == "model"
    assert rows[1][0] == "clta"


def test_eval_missing_checkpoint_is_runtime_error(dataset_dir, tmp_path, capsys):
    missing = tmp_path / "nope.ckpt"
    rc = cli_dispatch(["eval", "--data", str(dataset_dir / "manifest.csv"),
                       "--checkpoint", str(missing)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in out + err


def test_gradcheck_exit_code_and_output(capsys):
    rc = cli_dispatch(["gradcheck"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max relative gradient error" in out


@pytest.mark.parametrize("eps", ["1", "nan"])
def test_gradcheck_eps_outside_its_window_exits_2(capsys, eps):
    assert cli_dispatch(["gradcheck", "--eps", eps]) == 2
    captured = capsys.readouterr()
    assert f"error: eps {float(eps)} outside [1e-6, 1e-4]" in captured.err
    assert captured.out == ""


def test_gradcheck_batch_is_seed_deterministic():
    m1, b1 = gradcheck_batch(3, 10.0)
    m2, b2 = gradcheck_batch(3, 10.0)
    for k in m1.params:
        assert np.array_equal(m1.params[k], m2.params[k])
    for (Fa, ya), (Fb, yb) in zip(b1, b2):
        assert np.array_equal(Fa, Fb) and ya == yb


def test_dump_attention_traces(dataset_dir, checkpoint, tmp_path):
    manifest = str(dataset_dir / "manifest.csv")
    seqs = io_files.load_split(manifest, "test")
    assert len(seqs) == 2 * 6
    for kind in MODEL_KINDS:
        ckpt = checkpoint if kind == "clta" else tmp_path / f"{kind}.ckpt"
        if kind != "clta":
            assert cli_dispatch(["train", "--data", manifest, "--out", str(ckpt),
                                 "--model", kind, "--epochs", "1", "--seed", "0"]) == 0
        out = tmp_path / f"traces-{kind}"
        rc = cli_dispatch(["dump-attention", "--data", manifest,
                           "--checkpoint", str(ckpt), "--out", str(out),
                           "--split", "test", "--deterministic-output"])
        assert rc == 0
        assert len(list(out.glob("*.csv"))) == len(seqs)
        model = _load_model(ckpt)
        for seq in seqs:
            with open(out / f"{seq.video_id}.csv") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["k", "t", "t_over_Z", "a", "e", "mu_k", "sigma_k"]
            body = rows[1:]
            K = len({r[0] for r in body})
            assert K == (1 if kind == "avg" else model.cfg.num_gaussians), kind
            assert [int(r[1]) for r in body] == list(range(1, seq.T + 1)) * K
            # normalized weights of each head sum to one
            for k in {r[0] for r in body}:
                total = sum(float(r[4]) for r in body if r[0] == k)
                assert abs(total - 1.0) < 1e-9
            # the video's rows of its padded chunk match the video run alone
            attn = model.forward_video(seq.features[None],
                                       np.ones((1, seq.T), dtype=bool))[1]["attn"]
            for r in body:
                k, t = int(r[0]), int(r[1])
                assert r[4] == f"{attn['e'][0, k, t - 1]:.10g}", kind
                for col, key in ((5, "mu"), (6, "sigma")):
                    assert r[col] == (f"{attn[key][0, k]:.10g}" if key in attn else ""), kind


def _manifest_renaming_a_test_video(dataset_dir, tmp_path, video_id):
    """(manifest m.csv in tmp_path whose first test video is renamed video_id,
    that row's line number)."""
    header, *rows = (dataset_dir / "manifest.csv").read_text().splitlines()
    lines, line = [header], None
    for row in rows:
        vid, label, split, path = row.split(",")
        if split == "test" and line is None:
            vid, line = video_id, len(lines) + 1
        lines.append(",".join([vid, label, split, str(dataset_dir / path)]))
    manifest = tmp_path / "m.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest, line


@pytest.mark.parametrize("video_id", ["../escaped_x", "abs_x", "sub/x"],
                         ids=["parent", "absolute", "subdirectory"])
def test_dump_attention_rejects_a_video_id_that_is_no_plain_file_name(
        dataset_dir, checkpoint, tmp_path, capsys, video_id):
    # an absolute id lies under tmp_path, so a trace written there stays in the test's folder
    video_id = str(tmp_path / video_id) if video_id == "abs_x" else video_id
    manifest, _ = _manifest_renaming_a_test_video(dataset_dir, tmp_path, video_id)
    out = tmp_path / "out" / "traces"
    rc = cli_dispatch(["dump-attention", "--data", str(manifest),
                       "--checkpoint", str(checkpoint), "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {manifest}: video_id {video_id!r} "
                            f"cannot name a trace file in --out\n")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv"]
    # eval names no file after a video, so the id is no error there
    assert cli_dispatch(["eval", "--data", str(manifest), "--checkpoint", str(checkpoint),
                         "--n-way", "2", "--episodes", "2"]) == 0


def test_dump_attention_rejects_a_video_id_holding_a_nul_byte(dataset_dir, checkpoint,
                                                              tmp_path, capsys):
    # a NUL byte passes the plain-file-name check but names no file; the
    # manifest reader rejects the row before --out is created
    manifest, line = _manifest_renaming_a_test_video(dataset_dir, tmp_path, "a\x00b")
    rc = cli_dispatch(["dump-attention", "--data", str(manifest),
                       "--checkpoint", str(checkpoint), "--out", str(tmp_path / "out")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {manifest}: line {line}: video_id 'a\\x00b' holds a "
                            f"NUL byte, which no file name can hold\n")
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv"]


def test_dump_attention_rejects_videos_longer_than_Z(dataset_dir, tmp_path, capsys):
    model = Model(ModelConfig(kind="tsf", Z=5, feature_dim=24, hidden=16, num_classes=8),
                  np.random.default_rng(0))
    ckpt = tmp_path / "short.ckpt"
    io_files.save_checkpoint(ckpt, model.params, dict(model_config=model.config_dict(),
                                                      labels=[f"c{i}" for i in range(8)]))
    capsys.readouterr()
    rc = cli_dispatch(["dump-attention", "--data", str(dataset_dir / "manifest.csv"),
                       "--checkpoint", str(ckpt), "--out", str(tmp_path / "traces"),
                       "--split", "test"])
    assert rc == 2
    assert "exceeds Z=5" in capsys.readouterr().err


def test_eval_names_a_video_longer_than_Z(dataset_dir, tmp_path, capsys):
    model = Model(ModelConfig(kind="tsf", Z=5, feature_dim=24, hidden=16, num_classes=8),
                  np.random.default_rng(0))
    ckpt = tmp_path / "short.ckpt"
    io_files.save_checkpoint(ckpt, model.params, dict(model_config=model.config_dict(),
                                                      labels=[f"c{i}" for i in range(8)]))
    first = next(s for s in io_files.load_split(dataset_dir / "manifest.csv", "test") if s.T > 5)
    capsys.readouterr()
    assert _eval_exit_code(dataset_dir, ckpt) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: video {first.video_id!r} longer than Z=5\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["eval", "dump-attention"])
@pytest.mark.parametrize("stage", ["post", "pre"])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_checkpoint_of_another_feature_dim_exits_2(dataset_dir, tmp_path, capsys, kind, stage,
                                                   command):
    # the data has 24-dim features; the model was made for 16. A checkpoint may
    # record either projection stage; one of the removed "pre" stage is refused
    # for that before its feature dim is read
    model = Model(ModelConfig(kind=kind, Z=40, feature_dim=16, hidden=16, num_classes=8),
                  np.random.default_rng(0))
    ckpt = tmp_path / "m.ckpt"
    config = dict(model.config_dict(), projection_stage=stage)
    io_files.save_checkpoint(ckpt, model.params, dict(model_config=config,
                                                      labels=[f"c{i}" for i in range(8)]))
    out = tmp_path / "out"
    episodes = ["--n-way", "2", "--episodes", "2"] if command == "eval" else []
    capsys.readouterr()
    rc = cli_dispatch([command, "--data", str(dataset_dir / "manifest.csv"),
                       "--checkpoint", str(ckpt), "--out", str(out), *episodes])
    assert rc == 2
    captured = capsys.readouterr()
    if stage == "post":
        assert "error: feature dim 24 does not match the model's feature_dim 16" in captured.err
    else:
        assert captured.err == ("error: projection stage is no longer supported "
                                "(projection_stage='pre')\n")
    assert captured.out == ""


def test_train_on_a_manifest_of_mixed_feature_dims_exits_2(dataset_dir, tmp_path, capsys):
    header, *rows = (dataset_dir / "manifest.csv").read_text().splitlines()
    mixed = [header]
    for i, row in enumerate(rows):
        vid, label, split, path = row.split(",")
        path = dataset_dir / path   # absolute, so the manifest can live elsewhere
        if split == "train" and i % 2:
            T = io_files.read_feature_file(path).T
            path = tmp_path / f"{vid}.fvf"
            io_files.write_feature_file(path, np.ones((T, 16), dtype=np.float32))
        mixed.append(f"{vid},{label},{split},{path}")
    manifest = tmp_path / "mixed.csv"
    manifest.write_text("\n".join(mixed + [""]))
    ckpt = tmp_path / "m.ckpt"
    rc = cli_dispatch(["train", "--data", str(manifest), "--out", str(ckpt), "--epochs", "1"])
    assert rc == 2
    assert "error: videos of feature dims [16, 24] cannot share a batch" in capsys.readouterr().err
    assert not ckpt.exists()


def _eval_exit_code(dataset_dir, ckpt):
    return cli_dispatch(["eval", "--data", str(dataset_dir / "manifest.csv"),
                         "--checkpoint", str(ckpt), "--n-way", "2", "--episodes", "2"])


def test_eval_and_ablate_reject_episode_counts_below_one(dataset_dir, checkpoint, tmp_path, capsys):
    # before, eval printed mean_acc nan after numpy warnings and exited 0
    rc = cli_dispatch(["eval", "--data", str(dataset_dir / "manifest.csv"),
                       "--checkpoint", str(checkpoint), "--n-way", "2", "--episodes", "0"])
    assert rc == 2
    assert "num_episodes" in capsys.readouterr().err
    rc = cli_dispatch(["ablate", "--data", str(dataset_dir / "manifest.csv"),
                       "--out", str(tmp_path / "sweep.csv"), "--sweep", "fusion",
                       "--epochs", "1", "--n-way", "2", "--episodes", "-2"])
    assert rc == 2
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--epochs", "2", "--log", "{out}/log.csv", "--out", "{out}/m.ckpt"],
    ["ablate", "--sweep", "fusion", "--epochs", "1", "--n-way", "2", "--episodes", "4",
     "--out", "{out}/sweep.csv"],
], ids=["train", "ablate"])
def test_one_manifest_read_per_command(dataset_dir, tmp_path, monkeypatch, capsys, argv):
    calls = []
    read_manifest = io_files.read_manifest
    monkeypatch.setattr(io_files, "read_manifest",
                        lambda path: calls.append(path) or read_manifest(path))

    def run(out):
        out.mkdir()
        args = [a.format(out=out) for a in argv]
        rc = cli_dispatch([*args, "--data", str(dataset_dir / "manifest.csv"), "--seed", "0",
                           "--deterministic-output"])
        assert rc == 0
        return capsys.readouterr().out.replace(str(out), ""), {
            f.name: f.read_bytes() for f in sorted(out.iterdir())}

    once = run(tmp_path / "once")
    assert len(calls) == 1
    # the same command with one load_split per split, as before
    monkeypatch.setattr(cli, "_load_splits", lambda manifest: tuple(
        io_files.load_split(manifest, name) for name in synth.SPLITS))
    per_split = run(tmp_path / "per-split")
    assert len(calls) == 1 + 3
    assert once == per_split


@pytest.fixture
def broken_checkpoint(checkpoint, tmp_path):
    """A copy of the trained checkpoint for breaking, its metadata, and a function
    that saves the trained parameters there again under the metadata it is given."""
    params, meta = io_files.load_checkpoint(checkpoint)
    ckpt = tmp_path / "m.ckpt"

    def rewrite(new_meta):
        io_files.save_checkpoint(ckpt, params, new_meta)

    rewrite(meta)
    return ckpt, meta, rewrite


def test_checkpoint_metadata_is_checked(dataset_dir, broken_checkpoint, capsys):
    ckpt, good, rewrite = broken_checkpoint
    for broken, named in (({}, "model_config"),
                          (dict(good, model_config=dict(good["model_config"], colour="red")),
                           "colour")):
        rewrite(broken)
        assert _eval_exit_code(dataset_dir, ckpt) == 2, named
        assert named in capsys.readouterr().err


def test_a_sidecar_with_batch_norm_stats_evaluates_as_without_them(dataset_dir,
                                                                    broken_checkpoint, capsys):
    # metadata written while the model had batch norm records it off, with the
    # untouched running stats; those keys are ignored
    ckpt, good, rewrite = broken_checkpoint
    assert good["model_config"]["batch_norm"] is False
    argv = ["eval", "--data", str(dataset_dir / "manifest.csv"), "--checkpoint", str(ckpt),
            "--n-way", "2", "--episodes", "10", "--seed", "5"]
    assert cli_dispatch(argv) == 0
    line = capsys.readouterr().out
    hidden = good["model_config"]["hidden"]
    rewrite(dict(good, bn_mean=[0.0] * hidden, bn_var=[1.0] * hidden))
    assert cli_dispatch(argv) == 0
    assert capsys.readouterr().out == line


def test_a_batch_norm_sidecar_exits_2(dataset_dir, broken_checkpoint, capsys):
    ckpt, good, rewrite = broken_checkpoint
    rewrite(dict(good, model_config=dict(good["model_config"], batch_norm=True)))
    assert _eval_exit_code(dataset_dir, ckpt) == 2
    assert "error: batch norm is no longer supported" in capsys.readouterr().err


def test_batch_norm_is_no_longer_a_flag_or_config_key(dataset_dir, tmp_path, capsys):
    train = ["train", "--data", str(dataset_dir / "manifest.csv"), "--out", str(tmp_path / "m")]
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=1\nbatch-norm=true\n")
    assert cli_dispatch([*train, "--config", str(cfg)]) == 2
    assert f"{cfg}:2: unknown key 'batch-norm'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli_dispatch([*train, "--batch-norm"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --batch-norm" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("command", ["eval", "dump-attention"])
def test_a_checkpoint_of_the_pre_projection_stage_exits_2(dataset_dir, broken_checkpoint,
                                                          tmp_path, capsys, command):
    # checkpoints record the projection stage; the model now attends over the
    # frames as given, so one that projected them first is refused
    ckpt, good, rewrite = broken_checkpoint
    assert good["model_config"]["projection_stage"] == "post"
    rewrite(dict(good, model_config=dict(good["model_config"], projection_stage="pre")))
    out = tmp_path / "out"
    episodes = ["--n-way", "2", "--episodes", "2"] if command == "eval" else []
    rc = cli_dispatch([command, "--data", str(dataset_dir / "manifest.csv"),
                       "--checkpoint", str(ckpt), "--out", str(out), *episodes])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: projection stage is no longer supported "
                            "(projection_stage='pre')\n")
    assert captured.out == ""
    assert not out.exists()


def test_projection_stage_is_no_longer_a_flag_or_config_key(dataset_dir, tmp_path, capsys):
    train = ["train", "--data", str(dataset_dir / "manifest.csv"), "--out", str(tmp_path / "m")]
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=1\nprojection-stage=post\n")
    assert cli_dispatch([*train, "--config", str(cfg)]) == 2
    assert f"{cfg}:2: unknown key 'projection-stage'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli_dispatch([*train, "--projection-stage", "post"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --projection-stage post" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("command", ["eval", "dump-attention"])
def test_checkpoint_with_non_finite_parameter_exits_2(dataset_dir, broken_checkpoint,
                                                      tmp_path, capsys, command):
    ckpt, _, _ = broken_checkpoint
    # save_checkpoint refuses a NaN, so write it by hand: the last block is proj_b
    # (blocks are in name order), and its last value sits before the 12-byte trailer
    assert sorted(io_files.load_checkpoint(ckpt)[0])[-1] == "proj_b"
    meta_json, blocks = v2_parts(ckpt.read_bytes())
    ckpt.write_bytes(v2_bytes(meta_json, blocks[:-8] + struct.pack("<d", np.nan)))
    out = tmp_path / "out"
    episodes = ["--n-way", "2", "--episodes", "2"] if command == "eval" else []
    rc = cli_dispatch([command, "--data", str(dataset_dir / "manifest.csv"),
                       "--checkpoint", str(ckpt), "--out", str(out), *episodes])
    assert rc == 2
    assert (f"error: {ckpt}: non-finite value in parameter 'proj_b' at byte "
            f"{ckpt.stat().st_size - 12 - 8}" in capsys.readouterr().err)
    assert not out.exists()


def test_a_version_1_checkpoint_exits_2(dataset_dir, broken_checkpoint, capsys):
    # version 1: the same blocks after a 5-byte header, and the metadata in a
    # sidecar beside the file; nothing writes it, and only version 2 loads
    ckpt, meta, _ = broken_checkpoint
    ckpt.write_bytes(b"CLTA\x01" + v2_parts(ckpt.read_bytes())[1])
    Path(f"{ckpt}.meta.json").write_text(json.dumps(meta))
    assert _eval_exit_code(dataset_dir, ckpt) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {ckpt}: unsupported version 1 at byte 4\n"
    assert out == ""


def _block_boundaries(raw):
    """Byte offsets of a checkpoint where a parameter block starts, from the end of
    its metadata to the start of the last block."""
    cuts, off = [], 9 + struct.unpack_from("<I", raw, 5)[0]
    while off < len(raw) - 12:
        cuts.append(off)
        (nlen,) = struct.unpack_from("<I", raw, off)
        rows, cols = struct.unpack_from("<II", raw, off + 4 + nlen)
        off += 4 + nlen + 8 + 8 * rows * max(cols, 1)
    assert off == len(raw) - 12
    return cuts


@pytest.mark.parametrize("flags", [["--model", "clta"], ["--model", "sldg"],
                                   ["--model", "tsf", "--classifier", "cosine",
                                    "--fusion", "soft"]], ids=["clta", "sldg", "tsf-cosine-soft"])
def test_a_checkpoint_cut_at_a_block_boundary_exits_2(dataset_dir, tmp_path, capsys, flags):
    # a file cut anywhere fails its trailer check. A whole file holding only the
    # blocks before the cut loads; the model names the first parameter it lacks,
    # and load_checkpoint itself rejects a file with no block. cli_dispatch turns
    # only CltaError and OSError into exit 2, so any other exception fails the test
    # with its traceback
    full = tmp_path / "full.ckpt"
    assert cli_dispatch(["train", "--data", str(dataset_dir / "manifest.csv"),
                         "--out", str(full), "--epochs", "1", *flags]) == 0
    raw = full.read_bytes()
    meta_json, _ = v2_parts(raw)
    header = 9 + len(meta_json)
    cuts = _block_boundaries(raw)
    assert cuts[0] == header
    assert len(cuts) == len(_load_model(full).params)   # the header alone, then each block
    cut = tmp_path / "cut.ckpt"
    capsys.readouterr()
    for end in cuts:
        for data, expected in (
                (raw[:end], f"error: {cut}: length or checksum mismatch at byte "
                            f"{max(end - 12, 5)}"),
                (v2_bytes(meta_json, raw[header:end]),
                 f"error: {cut}: no parameter block after the header at byte {header}"
                 if end == header else "error: checkpoint is missing parameter")):
            cut.write_bytes(data)
            assert _eval_exit_code(dataset_dir, cut) == 2, end
            out, err = capsys.readouterr()
            assert expected in err, end
            assert "Traceback" not in out + err, end


def test_checkpoint_sidecar_that_is_not_utf8_exits_2(dataset_dir, broken_checkpoint, capsys):
    ckpt, _, _ = broken_checkpoint
    _, blocks = v2_parts(ckpt.read_bytes())
    # header 5, metadata length 4, then the metadata's byte 16
    for meta_json, error in ((b'{"labels": ["caf\xe9"]}', "not UTF-8 at byte 25"),
                             (b'{"labels": [', "bad JSON")):
        ckpt.write_bytes(v2_bytes(meta_json, blocks))
        assert _eval_exit_code(dataset_dir, ckpt) == 2
        assert f"error: {ckpt}: {error}" in capsys.readouterr().err


def test_checkpoint_with_a_size_below_one_exits_2(dataset_dir, broken_checkpoint, capsys):
    ckpt, good, rewrite = broken_checkpoint
    # a non-integer size is the same kind of broken config
    for name, size, error in (("hidden", -1, "hidden must be >= 1, got -1"),
                              ("hidden", 1.5, "hidden must be an integer, got 1.5"),
                              ("num_gaussians", True,
                               "num_gaussians must be an integer, got True")):
        rewrite(dict(good, model_config=dict(good["model_config"], **{name: size})))
        assert _eval_exit_code(dataset_dir, ckpt) == 2
        assert f"error: {error}" in capsys.readouterr().err


def test_checkpoint_with_a_beta_whose_init_scale_overflows_exits_2(dataset_dir,
                                                                  broken_checkpoint, capsys):
    ckpt, good, rewrite = broken_checkpoint
    # 3e-309's init scale is finite, but its product with a normal draw may not be
    for beta in ("1e-320", "3e-309"):
        rewrite(dict(good, model_config=dict(good["model_config"], beta=float(beta))))
        assert f'"beta": {beta}'.encode() in ckpt.read_bytes()
        assert _eval_exit_code(dataset_dir, ckpt) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: beta must be a number in [1e-300, 1e300], got {beta}\n"
        assert captured.out == ""


@pytest.mark.parametrize("beta", [float("inf"), float("nan"), True],
                         ids=["Infinity", "NaN", "true"])
def test_checkpoint_with_a_non_finite_or_boolean_beta_exits_2(dataset_dir, broken_checkpoint,
                                                              capsys, beta):
    ckpt, good, rewrite = broken_checkpoint
    rewrite(dict(good, model_config=dict(good["model_config"], beta=beta)))
    assert _eval_exit_code(dataset_dir, ckpt) == 2
    captured = capsys.readouterr()
    assert f"error: beta must be a number in [1e-300, 1e300], got {beta!r}" in captured.err
    assert "Warning" not in captured.err and captured.out == ""


def test_ablate_fusion_sweep(dataset_dir, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = cli_dispatch(["ablate", "--data", str(dataset_dir / "manifest.csv"),
                       "--out", str(out), "--sweep", "fusion", "--epochs", "1",
                       "--n-way", "2", "--episodes", "4", "--seed", "0",
                       "--deterministic-output"])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "sweep"
    assert [r[1] for r in rows[1:]] == ["average", "soft"]


def test_config_file_defaults_and_flag_precedence(dataset_dir, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("# comment\nepochs=1\nhidden=16\n")
    ckpt = tmp_path / "m.ckpt"
    rc = cli_dispatch(["train", "--data", str(dataset_dir / "manifest.csv"),
                       "--out", str(ckpt), "--config", str(cfg),
                       "--hidden", "32", "--seed", "0"])
    assert rc == 0
    params, meta = io_files.load_checkpoint(ckpt)
    assert meta["model_config"]["hidden"] == 32  # explicit flag beats the file
    rc = cli_dispatch(["train", "--data", str(dataset_dir / "manifest.csv"),
                       "--out", str(ckpt), "--config", str(cfg),
                       "--hidden=32", "--seed", "0"])
    assert rc == 0
    params, meta = io_files.load_checkpoint(ckpt)
    assert meta["model_config"]["hidden"] == 32  # so does its --flag=value form
    cfg.write_text("epochs=1\nhidden=16\ndeterministic-output=true\n")
    log = tmp_path / "log.csv"
    rc = cli_dispatch(["train", "--data", str(dataset_dir / "manifest.csv"),
                       "--out", str(ckpt), "--log", str(log), "--config", str(cfg),
                       "--seed", "0"])
    assert rc == 0
    params, meta = io_files.load_checkpoint(ckpt)
    assert meta["model_config"]["hidden"] == 16  # the file fills what flags omit
    assert log.read_text().startswith("epoch,")  # the on/off flag too: no timestamp line


def test_config_file_supplies_required_flags(dataset_dir, tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"data={dataset_dir / 'manifest.csv'}\nout={tmp_path / 'unused.ckpt'}\n"
                   "epochs=1\n")
    rc = cli_dispatch(["train", "--config", str(cfg), "--out", str(ckpt), "--seed", "0"])
    assert rc == 0
    assert ckpt.exists() and not (tmp_path / "unused.ckpt").exists()  # the flag wins
    # a required flag that neither the file nor the line gives is still a usage error
    cfg.write_text("epochs=1\n")
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(["train", "--config", str(cfg), "--out", str(ckpt)])
    assert exc.value.code == 1
    assert "required: --data" in capsys.readouterr().err


def test_config_file_unknown_key(dataset_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate=1\n")
    rc = cli_dispatch(["gradcheck", "--config", str(cfg)])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


def test_config_file_bad_value_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# a comment\nseed=abc\n")
    rc = cli_dispatch(["gradcheck", "--config", str(cfg)])
    assert rc == 2
    assert f"{cfg}:2: invalid int value 'abc' for key 'seed'" in capsys.readouterr().err
    cfg.write_text("eps=small\n")
    assert cli_dispatch(["gradcheck", "--config", str(cfg)]) == 2
    assert f"{cfg}:1: invalid float value 'small'" in capsys.readouterr().err
    cfg.write_text("dim=8\nmode=sideways\n")
    rc = cli_dispatch(["gen", "--out", str(tmp_path / "ds"), "--config", str(cfg)])
    assert rc == 2
    assert f"{cfg}:2: invalid value 'sideways' for key 'mode'" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


def test_config_file_boolean_values(tmp_path, capsys):
    flags = _build_parser()[1]["train"].flags
    cfg = tmp_path / "flags.cfg"
    for value, expected in (("no", False), ("FALSE", False), ("0", False),
                            ("Yes", True), ("true", True), ("1", True)):
        cfg.write_text(f"deterministic-output={value}\n")
        assert _config_defaults(cfg, flags) == {"deterministic_output": expected}
    # a value that is neither is an error, not a silent False
    cfg.write_text("deterministic-output=on\n")
    rc = cli_dispatch(["train", "--data", "unused.csv", "--out", str(tmp_path / "m.ckpt"),
                       "--config", str(cfg)])
    assert rc == 2
    assert (f"{cfg}:1: invalid boolean value 'on' for key 'deterministic-output'"
            in capsys.readouterr().err)


def test_config_file_that_is_not_utf8_names_file_and_byte(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"seed=1\n# caf\xe9\n")
    assert cli_dispatch(["gradcheck", "--config", str(cfg)]) == 2
    assert f"{cfg}: not UTF-8 text at byte 12" in capsys.readouterr().err


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command", ["gen", "train", "eval", "gradcheck", "ablate",
                                     "dump-attention"])
def test_a_negative_seed_exits_2_and_writes_nothing(dataset_dir, checkpoint, tmp_path, capsys,
                                                     command, via):
    manifest, out = str(dataset_dir / "manifest.csv"), tmp_path / "out"
    argv = {"gen": ["--out", str(out)],
            "train": ["--data", manifest, "--out", str(out)],
            "eval": ["--data", manifest, "--checkpoint", str(checkpoint), "--out", str(out)],
            "gradcheck": [],
            "ablate": ["--data", manifest, "--out", str(out), "--sweep", "k"],
            "dump-attention": ["--data", manifest, "--checkpoint", str(checkpoint),
                               "--out", str(out)]}[command]
    if via == "flag":
        argv += ["--seed", "-1"]
    else:
        (tmp_path / "run.cfg").write_text("seed = -1\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert cli_dispatch([command, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be >= 0, got -1\n" and captured.out == ""
    assert not out.exists()


def test_enumerated_flags_take_their_choices_from_the_configs():
    _, commands = _build_parser()
    for command, dest, allowed in (("gen", "mode", synth.MODES),
                                   ("train", "model", MODEL_KINDS),
                                   ("train", "classifier", CLASSIFIERS),
                                   ("eval", "head", HEADS),
                                   ("ablate", "sweep", tuple(cli._SWEEPS)),
                                   ("dump-attention", "split", synth.SPLITS)):
        assert commands[command].flags[dest].choices == allowed, dest
    assert cli._SWEEPS["classifier"] == ("classifier", CLASSIFIERS)


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(["gen"])  # missing required --out
    assert exc.value.code == 1


def test_gen_rejects_bad_sizes_exit_2(tmp_path, capsys):
    # a bad size is a usage error with a message, not a numpy traceback
    for flag, value in (("--dim", "-3"), ("--dim", "1"), ("--dim", "2"), ("--noise", "-1"),
                        ("--videos-per-class", "0")):
        rc = cli_dispatch(["gen", "--out", str(tmp_path / "d"), flag, value])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("defect, message", [
    ("not UTF-8", "not UTF-8 at byte"),
    ("short row", "line 2: 3 fields, expected 4"),
    ("extra field", "line 2: 5 fields, expected 4"),
    ("empty label", "line 2: empty label"),
    ("directory path", "line 2: missing feature file"),
    ("csv error", "line 2: field larger than field limit"),
])
def test_bad_manifest_exits_2(dataset_dir, tmp_path, capsys, defect, message):
    header, first, *rest = (dataset_dir / "manifest.csv").read_text().splitlines()
    vid, label, split, path = first.split(",")
    path = dataset_dir / path   # absolute, so the manifest can live elsewhere
    first = {"not UTF-8": f"{vid},{label}\xe9,{split},{path}",   # latin-1 below
             "short row": f"{vid},{label},{split}",
             "extra field": f"{vid},{label},{split},{path},x",
             "empty label": f"{vid},,{split},{path}",
             "directory path": f"{vid},{label},{split},{path.parent}",
             "csv error": f"{vid},{label},{split},{'x' * 200_000}"}[defect]
    manifest = tmp_path / "bad.csv"
    manifest.write_bytes("\n".join([header, first, *rest, ""]).encode("latin-1"))
    ckpt = tmp_path / "m.ckpt"
    rc = cli_dispatch(["train", "--data", str(manifest), "--out", str(ckpt), "--epochs", "1"])
    assert rc == 2
    assert f"error: {manifest}: {message}" in capsys.readouterr().err
    assert not ckpt.exists()


def test_missing_data_file_exit_2(tmp_path, capsys):
    rc = cli_dispatch(["eval", "--data", str(tmp_path / "none.csv"),
                       "--checkpoint", str(tmp_path / "none.ckpt")])
    assert rc == 2
