"""End-to-end checks of the command-line surface on a small dataset."""

import csv
import json

import numpy as np
import pytest

from clta import io_files
from clta.cli import _load_model, cli_dispatch, gradcheck_batch
from clta.model import MODEL_KINDS, Model, ModelConfig


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
    rc = cli_dispatch(["eval", "--data", str(dataset_dir / "manifest.csv"),
                       "--checkpoint", str(tmp_path / "nope.ckpt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_gradcheck_exit_code_and_output(capsys):
    rc = cli_dispatch(["gradcheck"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max relative gradient error" in out


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
            attn = model.forward_video(seq.features)[1]["attn"]
            for r in body:
                k, t = int(r[0]), int(r[1])
                assert r[4] == f"{attn['e'][0, k, t - 1]:.10g}", kind
                for col, key in ((5, "mu"), (6, "sigma")):
                    assert r[col] == (f"{attn[key][0, k]:.10g}" if key in attn else ""), kind


def _eval_exit_code(dataset_dir, ckpt):
    return cli_dispatch(["eval", "--data", str(dataset_dir / "manifest.csv"),
                         "--checkpoint", str(ckpt), "--n-way", "2", "--episodes", "2"])


def test_checkpoint_metadata_is_checked(dataset_dir, tmp_path, capsys):
    cfg = ModelConfig(Z=40, feature_dim=24, hidden=16, num_classes=8, batch_norm=True)
    model = Model(cfg, np.random.default_rng(0))
    good = dict(model_config=model.config_dict(), labels=[f"c{i}" for i in range(8)],
                bn_mean=[0.5] * 16, bn_var=[2.0] * 16)
    ckpt = tmp_path / "m.ckpt"
    io_files.save_checkpoint(ckpt, model.params, good)
    assert _eval_exit_code(dataset_dir, ckpt) == 0
    assert np.array_equal(_load_model(ckpt).bn_var, np.full(16, 2.0))
    meta = ckpt.parent / (ckpt.name + ".meta.json")
    bad = [({}, "model_config"),
           (dict(good, model_config=dict(good["model_config"], colour="red")), "colour"),
           (dict(good, bn_mean=[0.5] * 15), "bn_mean"),
           ({k: v for k, v in good.items() if k != "bn_var"}, "bn_var")]
    for broken, named in bad:
        meta.write_text(json.dumps(broken))
        capsys.readouterr()
        assert _eval_exit_code(dataset_dir, ckpt) == 2, named
        assert named in capsys.readouterr().err


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
    cfg.write_text("epochs=1\nhidden=16\nbatch-norm=true\n")
    rc = cli_dispatch(["train", "--data", str(dataset_dir / "manifest.csv"),
                       "--out", str(ckpt), "--config", str(cfg), "--seed", "0"])
    assert rc == 0
    params, meta = io_files.load_checkpoint(ckpt)
    assert meta["model_config"]["hidden"] == 16  # the file fills what flags omit
    assert meta["model_config"]["batch_norm"] is True


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


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(["gen"])  # missing required --out
    assert exc.value.code == 1


def test_missing_data_file_exit_2(tmp_path, capsys):
    rc = cli_dispatch(["eval", "--data", str(tmp_path / "none.csv"),
                       "--checkpoint", str(tmp_path / "none.ckpt")])
    assert rc == 2
