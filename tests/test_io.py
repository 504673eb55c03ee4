"""Unit checks for feature files, manifests, checkpoints, and result CSVs."""

import struct

import numpy as np
import pytest

from clta import io_files
from clta.cli import cli_dispatch
from clta.errors import CltaError, FormatError
from clta.synth import SPLITS


def test_feature_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    F = rng.normal(size=(7, 5))
    path = tmp_path / "v.fvf"
    io_files.write_feature_file(path, F)
    seq = io_files.read_feature_file(path, video_id="v", label="c0")
    # payload is float32 on disk, and the loaded features keep it, value for value
    assert seq.features.dtype == np.float32
    assert seq.label == "c0" and seq.video_id == "v"
    assert np.array_equal(seq.features, F.astype(np.float32))
    assert path.stat().st_size == 12 + 4 * 7 * 5


def test_feature_file_default_video_id(tmp_path):
    path = tmp_path / "clip42.fvf"
    io_files.write_feature_file(path, np.ones((2, 2)))
    assert io_files.read_feature_file(path).video_id == "clip42"


def test_feature_file_rejects_non_2d():
    with pytest.raises(FormatError):
        io_files.write_feature_file("/dev/null", np.zeros(4))


def test_feature_file_error_offsets(tmp_path):
    path = tmp_path / "bad.fvf"
    path.write_bytes(b"FVF1\x03")
    with pytest.raises(FormatError, match="truncated header at byte 5"):
        io_files.read_feature_file(path)
    path.write_bytes(b"XXXX" + b"\x00" * 8)
    with pytest.raises(FormatError, match="bad magic"):
        io_files.read_feature_file(path)
    good = tmp_path / "good.fvf"
    io_files.write_feature_file(good, np.ones((3, 2)))
    path.write_bytes(good.read_bytes()[:-4])
    with pytest.raises(FormatError, match="payload truncated at byte 32"):
        io_files.read_feature_file(path)


def test_feature_file_truncated_at_every_byte(tmp_path):
    good = tmp_path / "good.fvf"
    io_files.write_feature_file(good, np.arange(6.0).reshape(3, 2))
    raw = good.read_bytes()
    cut = tmp_path / "cut.fvf"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(FormatError):
            io_files.read_feature_file(cut)


def test_feature_file_rejects_nonfinite(tmp_path):
    path = tmp_path / "nan.fvf"
    payload = np.array([[1.0, np.inf]], dtype="<f4").tobytes()
    path.write_bytes(b"FVF1" + struct.pack("<II", 1, 2) + payload)
    with pytest.raises(FormatError, match="non-finite value at byte 16"):
        io_files.read_feature_file(path)


def _write_features(tmp_path, rows):
    for r in rows:
        io_files.write_feature_file(tmp_path / r["path"], np.ones((3, 2)))


def test_manifest_roundtrip(tmp_path):
    rows = [
        dict(video_id="a0", label="c0", split="train", path="a0.fvf"),
        dict(video_id="b0", label="c1", split="val", path="b0.fvf"),
        dict(video_id="d0", label="c2", split="test", path="d0.fvf"),
    ]
    _write_features(tmp_path, rows)
    mpath = tmp_path / "manifest.csv"
    io_files.write_manifest(mpath, rows)
    assert io_files.read_manifest(mpath) == rows
    test_split = io_files.load_split(mpath, "test")
    assert [s.video_id for s in test_split] == ["d0"]
    assert test_split[0].label == "c2"


def test_a_loaded_video_holds_four_bytes_per_feature(tmp_path):
    # the loaded set is what grows with videos x frames x width: no widening
    # at load, and no array that still holds the file's bytes
    assert cli_dispatch(["gen", "--out", str(tmp_path), "--classes", "6",
                         "--videos-per-class", "2", "--dim", "8", "--seed", "0"]) == 0
    manifest = tmp_path / "manifest.csv"
    loaded = [s for split in SPLITS for s in io_files.load_split(manifest, split)]
    assert len(loaded) == 12
    for seq in loaded:
        F = seq.features
        assert F.dtype == np.float32 and F.dtype.isnative and F.flags.writeable
        assert F.base is None and F.nbytes == 4 * seq.T * seq.d


def test_manifest_validation_errors(tmp_path):
    mpath = tmp_path / "manifest.csv"
    # empty feature files: read_manifest checks that they exist, not what they hold
    for name in ("a.fvf", "b.fvf"):
        (tmp_path / name).touch()

    def write_and_read(rows):
        io_files.write_manifest(mpath, rows)
        return io_files.read_manifest(mpath)

    with pytest.raises(FormatError, match="duplicate video_id"):
        write_and_read([dict(video_id="a", label="c0", split="train", path="a.fvf"),
                        dict(video_id="a", label="c0", split="train", path="a.fvf")])
    with pytest.raises(FormatError, match="unknown split"):
        write_and_read([dict(video_id="a", label="c0", split="dev", path="a.fvf")])
    with pytest.raises(FormatError, match="labels shared between splits"):
        write_and_read([dict(video_id="a", label="c0", split="train", path="a.fvf"),
                        dict(video_id="b", label="c0", split="test", path="b.fvf")])
    with pytest.raises(FormatError, match="missing feature file"):
        write_and_read([dict(video_id="a", label="c0", split="train", path="z.fvf")])
    mpath.write_text("foo,bar\n1,2\n")
    with pytest.raises(FormatError, match="bad manifest header"):
        io_files.read_manifest(mpath)


def _manifest_with(tmp_path, *lines):
    """A manifest of the header and the given rows; a.fvf, b.fvf and the
    directory features/ exist."""
    (tmp_path / "features").mkdir()
    for name in ("a.fvf", "b.fvf"):
        io_files.write_feature_file(tmp_path / name, np.ones((3, 2)))
    mpath = tmp_path / "manifest.csv"
    mpath.write_bytes(b"video_id,label,split,path\n" + b"".join(l + b"\n" for l in lines))
    return mpath


@pytest.mark.parametrize("row, message", [
    (b"a,caf\xe9,train,a.fvf", "not UTF-8 at byte 46"),
    (b"a,c0,train", "line 3: 3 fields, expected 4"),
    (b"a,c0,train,a.fvf,extra", "line 3: 5 fields, expected 4"),
    (b",c0,train,a.fvf", "line 3: empty video_id"),
    (b"a,,train,a.fvf", "line 3: empty label"),
    (b"a,c0,train,", "line 3: empty path"),
    (b"a,c0,train,.", "line 3: missing feature file '.'"),
    (b"a,c0,train,features/", "line 3: missing feature file 'features/'"),
    (b"a,c0,train," + b"x" * 200_000, "line 3: field larger than field limit"),
    (b"a,c0,train," + b"x" * 300, "line 3: missing feature file 'xxx"),
    (b"a\x00b,c0,train,a.fvf", r"line 3: video_id 'a\\x00b' holds a NUL byte"),
], ids=["not-utf8", "short", "extra", "no-id", "no-label", "no-path", "dot", "dir", "csv-error",
        "name-too-long", "nul-id"])
def test_manifest_defects_name_the_line_or_byte(tmp_path, row, message):
    # line 2 is a good row and a blank line is skipped, so the bad row is line 3
    mpath = _manifest_with(tmp_path, b"b,c1,val,b.fvf", row, b"")
    with pytest.raises(FormatError, match=f"{mpath}: {message}"):
        io_files.read_manifest(mpath)


def test_manifest_row_naming_a_dangling_symlink_names_its_line(tmp_path):
    (tmp_path / "gone.fvf").symlink_to(tmp_path / "nowhere.fvf")
    mpath = _manifest_with(tmp_path, b"b,c1,val,b.fvf", b"", b"a,c0,train,gone.fvf")
    with pytest.raises(FormatError, match=f"{mpath}: line 4: missing feature file 'gone.fvf'"):
        io_files.read_manifest(mpath)


def test_manifest_row_with_an_absolute_path_loads(tmp_path):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    io_files.write_feature_file(elsewhere / "x.fvf", np.full((2, 3), 0.5))
    mpath = _manifest_with(tmp_path, b"b,c1,val,b.fvf",
                           b"x,c0,train," + str(elsewhere / "x.fvf").encode())
    [seq] = io_files.load_split(mpath, "train")
    assert seq.video_id == "x" and seq.label == "c0"
    assert np.array_equal(seq.features, np.full((2, 3), 0.5))


def _variants(raw):
    """Every truncation of raw, then every single-byte flip by 0x01 and 0x80."""
    yield from (raw[:n] for n in range(len(raw)))
    for i in range(len(raw)):
        for bit in (0x01, 0x80):
            yield raw[:i] + bytes([raw[i] ^ bit]) + raw[i + 1:]


@pytest.mark.parametrize("target", ["manifest.csv", "features/b1.fvf"])
def test_every_cut_or_flipped_manifest_or_feature_byte_loads_or_is_a_clta_error(tmp_path,
                                                                              target):
    rows = [dict(video_id=f"{c}{v}", label=f"class{c}", split=split, path=f"features/{c}{v}.fvf")
            for c, split in (("a", "train"), ("b", "val"), ("c", "test")) for v in range(2)]
    (tmp_path / "features").mkdir()
    for k, r in enumerate(rows):
        io_files.write_feature_file(tmp_path / r["path"], np.full((2, 2), k + 1.0))
    mpath = tmp_path / "manifest.csv"
    io_files.write_manifest(mpath, rows)
    path = tmp_path / target
    raw = path.read_bytes()
    outcomes = set()
    for variant in _variants(raw):
        path.write_bytes(variant)
        try:
            for split in ("train", "val", "test"):
                io_files.load_split(mpath, split)
            outcomes.add("loaded")
        except CltaError:
            outcomes.add("rejected")
    assert outcomes == {"loaded", "rejected"}


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    params = {"W": rng.normal(size=(4, 3)), "b": rng.normal(size=5),
              "single": np.array([2.5])}
    meta = {"model_config": {"kind": "clta"}, "labels": ["a", "b"]}
    path = tmp_path / "model.ckpt"
    io_files.save_checkpoint(path, params, meta)
    loaded, meta2 = io_files.load_checkpoint(path)
    assert meta2 == meta
    assert set(loaded) == set(params)
    for k in params:
        assert loaded[k].shape == np.asarray(params[k]).shape
        assert np.array_equal(loaded[k], params[k])  # float64 is exact


def test_checkpoint_errors(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE\x01")
    with pytest.raises(FormatError, match="bad checkpoint magic"):
        io_files.load_checkpoint(path)
    path.write_bytes(b"CLTA\x09")
    with pytest.raises(FormatError, match="unsupported version"):
        io_files.load_checkpoint(path)
    good = tmp_path / "good.ckpt"
    io_files.save_checkpoint(good, {"W": np.ones((2, 2))}, {})
    path.write_bytes(good.read_bytes()[:-8])
    (tmp_path / "bad.ckpt.meta.json").write_text("{}")
    with pytest.raises(FormatError, match="truncated payload"):
        io_files.load_checkpoint(path)
    path.write_bytes(b"CLTA\x01" + struct.pack("<I", 1) + b"\xff"
                     + struct.pack("<II", 1, 0) + bytes(8))
    with pytest.raises(FormatError, match="not UTF-8 at byte 9"):
        io_files.load_checkpoint(path)
    (tmp_path / "good.ckpt.meta.json").write_text("{not json")
    with pytest.raises(FormatError, match="bad JSON"):
        io_files.load_checkpoint(good)
    (tmp_path / "good.ckpt.meta.json").unlink()
    with pytest.raises(FormatError, match="missing checkpoint metadata"):
        io_files.load_checkpoint(good)
    with pytest.raises(FormatError, match="unsupported ndim"):
        io_files.save_checkpoint(tmp_path / "x.ckpt", {"W": np.ones((2, 2, 2))}, {})


def test_checkpoint_v1_bytes_load_bit_identically(tmp_path):
    values = np.array([[1.5, -0.0], [np.pi, 1e-300]])
    path = tmp_path / "v1.ckpt"
    path.write_bytes(b"CLTA\x01" + struct.pack("<I", 1) + b"W" + struct.pack("<II", 2, 2)
                     + values.astype("<f8").tobytes()
                     + struct.pack("<I", 1) + b"b" + struct.pack("<II", 1, 0)
                     + np.array([-2.25]).astype("<f8").tobytes())
    (tmp_path / "v1.ckpt.meta.json").write_bytes(b'{"labels": ["a"]}')
    params, meta = io_files.load_checkpoint(path)
    assert params["W"].tobytes() == values.tobytes()
    assert params["b"].tobytes() == np.array([-2.25]).tobytes()
    assert meta == {"labels": ["a"]}


def test_checkpoint_boundary_defects_name_the_block_or_byte(tmp_path):
    path = tmp_path / "m.ckpt"
    io_files.save_checkpoint(path, {"W": np.ones((2, 2)), "b": np.array([1.0, np.inf])}, {})
    # header 5, block W 4 + 1 + 8 + 32, block b 4 + 1 + 8, then b's second value
    with pytest.raises(FormatError, match=f"{path}: non-finite value in parameter 'b' at byte 71"):
        io_files.load_checkpoint(path)
    # a repeated block name: header 5, then the first w block 4 + 1 + 8 + 16
    block = struct.pack("<I", 1) + b"w" + struct.pack("<II", 2, 0)
    path.write_bytes(b"CLTA\x01" + block + np.array([1.0, 2.0]).astype("<f8").tobytes()
                     + block + np.array([7.0, 8.0]).astype("<f8").tobytes())
    with pytest.raises(FormatError, match=f"{path}: repeated parameter block 'w' at byte 34"):
        io_files.load_checkpoint(path)
    io_files.save_checkpoint(path, {"W": np.ones((2, 2))}, {})
    meta = tmp_path / "m.ckpt.meta.json"
    meta.write_bytes(b'{"x": "\xff"}')
    with pytest.raises(FormatError, match=f"{meta}: not UTF-8 at byte 7"):
        io_files.load_checkpoint(path)


def test_checkpoint_truncated_at_every_byte(tmp_path):
    good = tmp_path / "good.ckpt"
    params = {"W": np.ones((2, 3)), "bias": np.arange(3.0)}
    io_files.save_checkpoint(good, params, {})
    raw = good.read_bytes()
    # 5-byte file header, then blocks in name order: W, then bias
    after_W = 5 + 4 + len("W") + 8 + 8 * 6
    assert len(raw) == after_W + 4 + len("bias") + 8 + 8 * 3
    cut = tmp_path / "cut.ckpt"
    (tmp_path / "cut.ckpt.meta.json").write_text("{}")
    loaded_at = {}
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        try:
            loaded_at[n] = sorted(io_files.load_checkpoint(cut)[0])
        except FormatError:
            pass
    # only a cut between two blocks still loads, as the blocks before it:
    # the format has no block count to tell it from a complete file
    assert loaded_at == {5: [], after_W: ["W"]}


def test_write_csv_timestamp_control(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    io_files.write_csv(p1, ["x"], [[1]], deterministic=True)
    io_files.write_csv(p2, ["x"], [[1]], deterministic=False)
    assert p1.read_bytes() == b"x\r\n1\r\n"
    assert p2.read_text().startswith("# generated: ")
    # deterministic output is byte-identical across calls
    p3 = tmp_path / "c.csv"
    io_files.write_csv(p3, ["x"], [[1]], deterministic=True)
    assert p1.read_bytes() == p3.read_bytes()
