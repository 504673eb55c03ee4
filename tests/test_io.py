"""Unit checks for feature files, manifests, checkpoints, and result CSVs."""

import contextlib
import os
import re
import struct
import zlib

import numpy as np
import pytest

from clta import io_files
from clta.cli import cli_dispatch
from clta.errors import CltaError, ConfigError, FormatError
from clta.synth import SPLITS
from checkpoint_bytes import block, v2_bytes


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


def _open_fds():
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to count open descriptors")
    return len(os.listdir("/proc/self/fd"))


def test_no_feature_file_read_leaks_a_descriptor(tmp_path):
    # the reader holds a bare descriptor, which no ResourceWarning would report
    good = tmp_path / "good.fvf"
    io_files.write_feature_file(good, np.arange(6.0).reshape(3, 2))
    raw = good.read_bytes()
    cut = tmp_path / "cut.fvf"
    locked = tmp_path / "locked.fvf"
    locked.write_bytes(raw)
    locked.chmod(0)
    before = _open_fds()
    try:
        for n in range(len(raw) + 1):
            cut.write_bytes(raw[:n])
            with pytest.raises(FormatError) if n < len(raw) else contextlib.nullcontext():
                io_files.read_feature_file(cut)
        for path in (tmp_path / "missing.fvf", tmp_path, locked):
            try:
                io_files.read_feature_file(path)
            except OSError:
                pass  # root may read a file whose mode forbids it
        assert _open_fds() == before
    finally:
        locked.chmod(0o644)


def test_a_missing_or_directory_path_raises_the_open_error_naming_it(tmp_path):
    missing = tmp_path / "missing.fvf"
    with pytest.raises(FileNotFoundError, match=re.escape(str(missing))):
        io_files.read_feature_file(missing)
    for path in (tmp_path, str(tmp_path)):
        with pytest.raises(IsADirectoryError, match=re.escape(str(tmp_path))) as err:
            io_files.read_feature_file(path)
        assert err.value.filename == str(tmp_path)


def test_a_backbone_width_feature_file_round_trips_bit_identically(tmp_path):
    # 40 x 512 float32 features are 80 KiB, more than one 64 KiB buffer
    F = np.random.default_rng(3).standard_normal((40, 512)).astype(np.float32)
    path = tmp_path / "wide.fvf"
    io_files.write_feature_file(path, F)
    assert path.stat().st_size > 1 << 16
    seq = io_files.read_feature_file(path)
    assert seq.features.dtype == np.float32 and seq.features.base is None
    assert seq.features.tobytes() == F.tobytes()


def test_a_feature_file_length_error_names_the_true_length(tmp_path):
    good = tmp_path / "good.fvf"
    io_files.write_feature_file(good, np.ones((3, 2)))
    path = tmp_path / "bad.fvf"
    for extra in (1, 5, 100_000):
        path.write_bytes(good.read_bytes() + bytes(extra))
        with pytest.raises(FormatError,
                           match=rf"payload truncated at byte {36 + extra} \(expected 36\)"):
            io_files.read_feature_file(path)
    # a header declaring 16 GiB of features, with 8 bytes of them
    path.write_bytes(b"FVF1" + struct.pack("<II", 1 << 31, 2) + bytes(8))
    with pytest.raises(FormatError,
                       match=rf"payload truncated at byte 20 \(expected {12 + (1 << 34)}\)"):
        io_files.read_feature_file(path)


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


def test_load_split_of_an_unknown_split_is_a_config_error_naming_the_splits(tmp_path):
    mpath = _manifest_with(tmp_path, b"b,c1,val,b.fvf")
    with pytest.raises(ConfigError, match=re.escape(f"unknown split 'training', "
                                                    f"expected one of {SPLITS}")):
        io_files.load_split(mpath, "training")


def test_manifest_accepts_exactly_the_paths_that_isfile_accepts(tmp_path, monkeypatch):
    # read_manifest stats each path relative to the manifest's open folder; every
    # path below must pass or fail as os.path.isfile of the joined path would, on
    # its own line with the same message
    mpath = _manifest_with(tmp_path, b"b,c1,val,b.fvf")
    (tmp_path / "sub" / "a" / "b").mkdir(parents=True)
    for folder in ("sub/a/b", "locked", "readonly"):
        (tmp_path / folder).mkdir(exist_ok=True)
        (tmp_path / folder / "x.fvf").write_bytes(b"")
    (tmp_path / "link.fvf").symlink_to(tmp_path / "a.fvf")
    (tmp_path / "linkdir").symlink_to(tmp_path / "sub")
    (tmp_path / "dangling.fvf").symlink_to(tmp_path / "nowhere.fvf")
    paths = ["a.fvf", "link.fvf", "linkdir", "linkdir/a/b/x.fvf", "dangling.fvf", "features",
             "missing.fvf", "A.FVF", "./a.fvf", "sub/../a.fvf", "sub/a/b/x.fvf", "a.fvf/",
             str(tmp_path / "a.fvf"), str(tmp_path / "missing.fvf"), "a.fvf/x.fvf",
             "nodir/x.fvf", "locked/x.fvf", "readonly/x.fvf", "sub\x00/x.fvf", "a\x00.fvf"]
    # mode r-- lets a folder be listed but none of its names be stat-ed, mode
    # 000 allows neither; root may still do both
    (tmp_path / "locked").chmod(0)
    (tmp_path / "readonly").chmod(0o444)
    try:
        def read(rels, name=mpath):
            mpath.write_bytes(b"video_id,label,split,path\n" + "".join(
                f"v{k},c0,train,{rel}\n" for k, rel in enumerate(rels)).encode())
            try:
                return [r["path"] for r in io_files.read_manifest(name)]
            except FormatError as exc:
                return str(exc)

        accepted = [rel for rel in paths if os.path.isfile(os.path.join(tmp_path, rel))]
        for rel in paths:
            assert read(["b.fvf", rel]) == (["b.fvf", rel] if rel in accepted else
                                            f"{mpath}: line 3: missing feature file {rel!r}")
        assert read(accepted * 2) == accepted * 2
        monkeypatch.chdir(tmp_path)  # a manifest named relative to the working folder
        assert read(accepted, "manifest.csv") == accepted
        for rel in set(paths) - set(accepted):
            assert read(accepted + [rel]) == (f"{mpath}: line {2 + len(accepted)}: "
                                              f"missing feature file {rel!r}")
    finally:
        (tmp_path / "locked").chmod(0o755)
        (tmp_path / "readonly").chmod(0o755)
    assert {"a.fvf", "link.fvf", "linkdir/a/b/x.fvf", "./a.fvf", "sub/../a.fvf"} <= set(accepted)


def test_manifest_in_a_folder_that_can_be_searched_but_not_read_loads(tmp_path):
    # rows are stat-ed relative to the manifest's folder, opened for a search
    # alone; root may read the folder anyway
    io_files.write_feature_file(tmp_path / "a.fvf", np.ones((3, 2)))
    folder = tmp_path / "searchonly"
    folder.mkdir()
    (folder / "manifest.csv").write_text("video_id,label,split,path\na,c0,train,../a.fvf\n")
    folder.chmod(0o111)
    try:
        assert [r["path"] for r in io_files.read_manifest(folder / "manifest.csv")] == ["../a.fvf"]
    finally:
        folder.chmod(0o755)


def test_manifest_stats_each_row_once_through_the_manifest_folder(tmp_path, monkeypatch):
    (tmp_path / "features").mkdir()
    rows = [dict(video_id=f"v{k}", label="c0", split="train", path=f"features/v{k}.fvf")
            for k in range(200)]
    for r in rows:
        (tmp_path / r["path"]).write_bytes(b"")
    mpath = tmp_path / "manifest.csv"
    io_files.write_manifest(mpath, rows)
    calls = []
    for module, name in ((io_files.os, "scandir"), (io_files.os, "stat"),
                         (io_files.os.path, "isfile")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls.append((_name, str(args[0]), "dir_fd" in kwargs))
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert io_files.read_manifest(mpath) == rows
    # one stat per row, of the row's own path, and no listing
    assert calls == [("stat", r["path"], True) for r in rows]


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
              "single": np.array([2.5]), "edges": np.array([[-0.0, 1e-300], [np.pi, -2.25]])}
    # any JSON keys ride along, such as the benchmark's bn_mean and bn_var
    meta = {"model_config": {"kind": "clta"}, "labels": ["a", "b", "caf\xe9"],
            "bn_mean": [0.0, 1.5], "bn_var": [1.0, 2.0], "nested": {"z": None, "a": [True]}}
    path = tmp_path / "model.ckpt"
    io_files.save_checkpoint(path, params, meta)
    assert list(tmp_path.iterdir()) == [path]   # one file, no sidecar
    assert path.read_bytes()[:5] == b"CLTA\x02"
    loaded, meta2 = io_files.load_checkpoint(path)
    assert meta2 == meta
    assert set(loaded) == set(params)
    for k in params:
        assert loaded[k].shape == np.asarray(params[k]).shape
        assert loaded[k].tobytes() == params[k].tobytes()  # float64 is exact, -0.0 included


def test_a_failed_save_leaves_the_old_checkpoint_untouched(tmp_path):
    path = tmp_path / "m.ckpt"
    params = {"A": np.arange(4.0), "W": np.ones((2, 2))}
    io_files.save_checkpoint(path, params, {"labels": ["first"]})
    raw = path.read_bytes()
    # blocks go in name order, so "A" is built before "B" fails; a 2-d block with
    # no columns would have a 1-d block's header and no payload, and a non-finite
    # value would be refused by load_checkpoint, so neither could load
    for bad, error in ((np.ones((2, 2, 2)), "parameter 'B' has unsupported ndim 3"),
                       (np.zeros((3, 0)), r"parameter 'B' of shape \(3, 0\) has no columns"),
                       (np.array([1.0, np.nan]), "parameter 'B' has a non-finite value"),
                       (np.array([[0.0, -np.inf]]), "parameter 'B' has a non-finite value")):
        with pytest.raises(FormatError, match=error):
            io_files.save_checkpoint(path, {"A": np.zeros(3), "B": bad}, {"labels": ["second"]})
        assert path.read_bytes() == raw
    loaded, meta = io_files.load_checkpoint(path)
    assert meta == {"labels": ["first"]}
    assert {k: v.tobytes() for k, v in loaded.items()} == {k: v.tobytes()
                                                           for k, v in params.items()}


def test_checkpoint_errors(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE\x01")
    with pytest.raises(FormatError, match="bad checkpoint magic"):
        io_files.load_checkpoint(path)
    path.write_bytes(b"CLTA\x09")
    with pytest.raises(FormatError, match="unsupported version"):
        io_files.load_checkpoint(path)
    # a version 1 file, its blocks after a 5-byte header and its metadata in a
    # sidecar, is refused; the sidecar is never read, not even after a save over it
    sidecar = tmp_path / "bad.ckpt.meta.json"
    sidecar.write_text("{not json")
    path.write_bytes(b"CLTA\x01" + block("W", [1.0], 1))
    with pytest.raises(FormatError, match=f"{path}: unsupported version 1 at byte 4"):
        io_files.load_checkpoint(path)
    io_files.save_checkpoint(path, {"W": np.ones((2, 2))}, {"labels": ["new"]})
    assert io_files.load_checkpoint(path)[1] == {"labels": ["new"]}
    assert sidecar.read_text() == "{not json"
    # a cut file fails its trailer check, at the 12 bytes before the cut
    good = path.read_bytes()
    path.write_bytes(good[:-8])
    with pytest.raises(FormatError, match=f"{path}: length or checksum mismatch at byte "
                                          f"{len(good) - 20}"):
        io_files.load_checkpoint(path)
    # header 5, metadata length 4, metadata 2, then the block: name length 4, name 1
    path.write_bytes(v2_bytes(b"{}", block("W", [1.0, 2.0], 2)[:-8]))
    with pytest.raises(FormatError, match=f"{path}: truncated payload for 'W' at byte 24"):
        io_files.load_checkpoint(path)
    path.write_bytes(v2_bytes(b"{}", struct.pack("<I", 1) + b"\xff"
                              + struct.pack("<II", 1, 0) + bytes(8)))
    with pytest.raises(FormatError, match=f"{path}: parameter name is not UTF-8 at byte 15"):
        io_files.load_checkpoint(path)
    path.write_bytes(v2_bytes(b"{not json", block("W", [1.0], 1)))
    with pytest.raises(FormatError, match=f"{path}: bad JSON"):
        io_files.load_checkpoint(path)
    with pytest.raises(FormatError, match="unsupported ndim"):
        io_files.save_checkpoint(tmp_path / "x.ckpt", {"W": np.ones((2, 2, 2))}, {})


def test_checkpoint_boundary_defects_name_the_block_or_byte(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(v2_bytes(b"{}", block("W", [1.0] * 4, 2, 2) + block("b", [1.0, np.inf], 2)))
    # header 5, metadata 4 + len("{}"), block W 4 + 1 + 8 + 32, block b 4 + 1 + 8,
    # then b's second value
    with pytest.raises(FormatError, match=f"{path}: non-finite value in parameter 'b' at byte 77"):
        io_files.load_checkpoint(path)
    # a repeated block name: header 5 + 4 + 2, then the first w block 4 + 1 + 8 + 16
    path.write_bytes(v2_bytes(b"{}", block("w", [1.0, 2.0], 2) + block("w", [7.0, 8.0], 2)))
    with pytest.raises(FormatError, match=f"{path}: repeated parameter block 'w' at byte 40"):
        io_files.load_checkpoint(path)
    # metadata that is not UTF-8 in a file that passes its trailer check:
    # header 5, metadata length 4, then the metadata's byte 7
    ones = block("W", [1.0], 1)
    path.write_bytes(v2_bytes(b'{"x": "\xff"}', ones))
    with pytest.raises(FormatError, match=f"{path}: not UTF-8 at byte 16"):
        io_files.load_checkpoint(path)
    # a metadata length that runs into the trailer or past the file passes the
    # trailer check, and is named before the metadata is read
    for meta_len in (len("{}") + len(ones) + 1, 2**32 - 1):
        body = b"CLTA\x02" + struct.pack("<I", meta_len) + b"{}" + ones
        path.write_bytes(body + struct.pack("<QI", len(body) + 12, zlib.crc32(body)))
        with pytest.raises(FormatError, match=f"{path}: metadata length {meta_len} runs past "
                                              f"the trailer at byte 5"):
            io_files.load_checkpoint(path)


def test_checkpoint_truncated_at_every_byte(tmp_path):
    good = tmp_path / "good.ckpt"
    io_files.save_checkpoint(good, {"W": np.ones((2, 3)), "bias": np.arange(3.0)}, {})
    raw = good.read_bytes()
    # the header 5, the metadata's length 4 and the metadata, then blocks in name
    # order, W then bias, then the 12-byte trailer
    after_W = 5 + 4 + len("{}") + 4 + len("W") + 8 + 8 * 6
    assert len(raw) == after_W + 4 + len("bias") + 8 + 8 * 3 + 12
    cut = tmp_path / "cut.ckpt"
    loaded_at = []
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        try:
            io_files.load_checkpoint(cut)
            loaded_at.append(n)
        except FormatError:
            pass
    # the trailer rejects every cut, the one between the two blocks included
    assert loaded_at == []


def test_every_flipped_byte_of_a_checkpoint_is_a_format_error(tmp_path):
    path = tmp_path / "m.ckpt"
    io_files.save_checkpoint(path, {"W": np.ones((2, 3)), "bias": np.arange(3.0)},
                             {"labels": ["a", "b"]})
    raw = path.read_bytes()
    loaded = []
    for i in range(len(raw)):
        for bit in (0x01, 0x80, 0xff):
            path.write_bytes(raw[:i] + bytes([raw[i] ^ bit]) + raw[i + 1:])
            try:
                io_files.load_checkpoint(path)
                loaded.append((i, bit))
            except FormatError:
                pass
    assert loaded == []


def test_a_checkpoint_without_parameter_blocks_is_a_format_error(tmp_path):
    path = tmp_path / "empty.ckpt"
    with pytest.raises(FormatError, match=f"{path}: a checkpoint needs at least one"):
        io_files.save_checkpoint(path, {}, {})
    assert list(tmp_path.iterdir()) == []
    # header 5, metadata length 4, metadata 2
    path.write_bytes(v2_bytes(b"{}", b""))
    with pytest.raises(FormatError, match=f"{path}: no parameter block after the header at byte 11"):
        io_files.load_checkpoint(path)


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
