"""Binary feature files, manifest CSVs, and checkpoint persistence.

All binary formats are little-endian regardless of host order. Feature
payloads are float32 on disk and stay float32 when loaded, which halves a
loaded set's memory; the model widens each padded chunk to float64, exactly.
Checkpoints hold JSON metadata and float64 blocks, then their length and CRC32.
"""

import csv
import datetime
import io
import itertools
import json
import os
import stat
import struct
import zlib
from pathlib import Path

import numpy as np

from .attention import FrameSequence
from .errors import ConfigError, FormatError, NumericError
from .synth import SPLITS

FEATURE_MAGIC = b"FVF1"
CHECKPOINT_MAGIC = b"CLTA"
CHECKPOINT_VERSION = 2
MANIFEST_FIELDS = ["video_id", "label", "split", "path"]


# -- feature files -------------------------------------------------------------

def _feature_bytes(path, features: np.ndarray) -> bytes:
    """The bytes of path's feature file; FormatError unless 2-d and finite float32."""
    features = np.asarray(features)
    if features.ndim != 2:
        raise FormatError(f"features must be 2-d, got shape {features.shape}")
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(features, dtype="<f4")
    if not np.isfinite(payload).all():
        row, col = np.argwhere(~np.isfinite(payload))[0]
        raise FormatError(f"{path}: value {float(features[row, col])!r} at row {row}, "
                          f"column {col} does not fit float32")
    return FEATURE_MAGIC + struct.pack("<II", *features.shape) + payload.tobytes()


def write_feature_file(path, features: np.ndarray) -> None:
    """Raises FormatError, before opening path, unless features are 2-d and finite float32."""
    Path(path).write_bytes(_feature_bytes(path, features))


def read_feature_file(path, video_id: str = "", label: str | None = None) -> FrameSequence:
    """Checks header and length here; FrameSequence checks finiteness, once.
    The features are the file's float32 values in a native-order array of their own.
    A read shorter than asked for ends the file, as it does a regular file's."""
    fd = os.open(path, os.O_RDONLY)
    try:
        raw = os.read(fd, 12)
        if len(raw) < 12:
            raise FormatError(f"{path}: truncated header at byte {len(raw)} (need 12)")
        if raw[:4] != FEATURE_MAGIC:
            raise FormatError(f"{path}: bad magic {raw[:4]!r} at byte 0")
        T, d = struct.unpack("<II", raw[4:12])
        if T < 1 or d < 1:
            raise FormatError(f"{path}: invalid dimensions T={T}, d={d} at byte 4")
        # one read takes the payload the header sizes, at most 16 MiB at a time
        want = min(4 * T * d, 1 << 24) + 1
        payload = os.read(fd, want)
        if len(payload) == want:
            payload += b"".join(iter(lambda: os.read(fd, want), b""))
    except IsADirectoryError as exc:  # os.read names no path, unlike open
        exc.filename = os.fspath(path)
        raise
    finally:
        os.close(fd)
    if len(payload) != 4 * T * d:
        raise FormatError(f"{path}: payload truncated at byte {12 + len(payload)} "
                          f"(expected {12 + 4 * T * d})")
    data = np.frombuffer(payload, dtype="<f4").reshape(T, d).astype(np.float32)
    try:
        return FrameSequence(features=data, label=label, video_id=video_id or Path(path).stem)
    except NumericError:
        bad = int(np.flatnonzero(~np.isfinite(data))[0])
        raise FormatError(f"{path}: non-finite value at byte {12 + 4 * bad}") from None


# -- manifests -----------------------------------------------------------------

def write_manifest(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=MANIFEST_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def read_manifest(path) -> list[dict]:
    """Parse and validate a UTF-8 manifest. Each row has exactly the four
    MANIFEST_FIELDS, with a non-empty video_id, label and path, and no NUL
    byte in the video_id, which names trace files; blank lines are skipped.
    Paths are relative to the manifest and must name files (os.path.isfile): each
    is stat-ed relative to the manifest's open folder, walking only its own path,
    and read_feature_file checks its contents when its split loads."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 at byte {exc.start}") from None
    base = os.path.dirname(path)
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, seen = [], set()
    split_labels: dict[str, set] = {}

    def fail(message):
        raise FormatError(f"{path}: line {reader.line_num}: {message}") from None

    # O_PATH needs no read permission on the folder, only the search any stat needs
    folder = os.open(base or ".", getattr(os, "O_PATH", os.O_RDONLY) | os.O_DIRECTORY)

    def is_file(rel):  # os.path.isfile(os.path.join(base, rel))
        try:
            return stat.S_ISREG(os.stat(rel, dir_fd=folder).st_mode)
        except (OSError, ValueError):  # ValueError: a NUL byte
            return False

    try:
        header = next(reader, None)
        if header != MANIFEST_FIELDS:
            raise FormatError(f"{path}: bad manifest header {header}")
        for fields in reader:
            if not fields:
                continue
            if len(fields) != len(MANIFEST_FIELDS):
                fail(f"{len(fields)} fields, expected {len(MANIFEST_FIELDS)}")
            row = dict(zip(MANIFEST_FIELDS, fields))
            vid, label, split, rel = fields
            if not (vid and label and rel):
                fail(f"empty {next(k for k in ('video_id', 'label', 'path') if not row[k])}")
            if "\x00" in vid:
                fail(f"video_id {vid!r} holds a NUL byte, which no file name can hold")
            if vid in seen:
                fail(f"duplicate video_id {vid!r}")
            seen.add(vid)
            if split not in SPLITS:
                fail(f"unknown split {split!r} for {vid!r}")
            split_labels.setdefault(split, set()).add(label)
            if not is_file(rel):
                fail(f"missing feature file {rel!r}")
            rows.append(row)
    except csv.Error as exc:
        fail(exc)
    finally:
        os.close(folder)
    for a, b in itertools.combinations(sorted(split_labels), 2):
        if leaked := split_labels[a] & split_labels[b]:
            raise FormatError(f"{path}: labels shared between splits {a}/{b}: {sorted(leaked)}")
    return rows


def load_split(manifest_path, split: str) -> list[FrameSequence]:
    """A split outside SPLITS is a ConfigError; read_manifest checks the
    rows, read_feature_file each file's bytes."""
    if split not in SPLITS:
        raise ConfigError(f"unknown split {split!r}, expected one of {SPLITS}")
    return _read_split(manifest_path, read_manifest(manifest_path), split)


def _read_split(manifest_path, rows, split):
    base = os.path.dirname(Path(manifest_path))
    return [read_feature_file(os.path.join(base, r["path"]), r["video_id"], r["label"])
            for r in rows if r["split"] == split]


# -- checkpoints ---------------------------------------------------------------

def save_checkpoint(path, params: dict[str, np.ndarray], meta: dict) -> None:
    """One file, built whole before path is opened: the JSON metadata, named float64
    parameter blocks, at least one and all finite, as load_checkpoint requires, then
    a trailer of the file's length and CRC32."""
    if not params:
        raise FormatError(f"{path}: a checkpoint needs at least one parameter block")
    meta_json = json.dumps(meta, sort_keys=True).encode("utf-8")
    parts = [struct.pack("<4sBI", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(meta_json)), meta_json]
    for name in sorted(params):
        arr = np.asarray(params[name], dtype=np.float64)
        if arr.ndim not in (1, 2):
            raise FormatError(f"parameter {name!r} has unsupported ndim {arr.ndim}")
        if arr.ndim == 2 and arr.shape[1] == 0:  # cols 0 is how a 1-d block's header reads
            raise FormatError(f"parameter {name!r} of shape {arr.shape} has no columns")
        if not np.isfinite(arr).all():
            raise FormatError(f"parameter {name!r} has a non-finite value")
        rows, cols = arr.shape if arr.ndim == 2 else (arr.size, 0)
        nb = name.encode("utf-8")
        parts += [struct.pack(f"<I{len(nb)}sII", len(nb), nb, rows, cols),
                  np.ascontiguousarray(arr, dtype="<f8").tobytes()]
    body = b"".join(parts)
    Path(path).write_bytes(body + struct.pack("<QI", len(body) + 12, zlib.crc32(body)))


def load_checkpoint(path):
    """Returns (params, meta): finite, uniquely named blocks and UTF-8 JSON metadata, from a
    version 2 file whose trailer is checked before anything else is parsed."""
    raw = Path(path).read_bytes()
    if len(raw) < 5 or raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic at byte 0")
    if raw[4] != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported version {raw[4]} at byte 4")
    end = len(raw) - 12
    if end < 9 or struct.unpack_from("<QI", raw, end) != (len(raw), zlib.crc32(raw[:end])):
        raise FormatError(f"{path}: length or checksum mismatch at byte {max(end, 5)}")
    off = 9 + struct.unpack_from("<I", raw, 5)[0]
    if off > end:
        raise FormatError(f"{path}: metadata length {off - 9} runs past the trailer at byte 5")
    try:
        meta = json.loads(raw[9:off].decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 at byte {9 + exc.start}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: bad JSON: {exc}") from None
    params: dict[str, np.ndarray] = {}
    while off < end:
        # a block header is the name length, the name, then rows and cols
        if off + 4 > end:
            raise FormatError(f"{path}: truncated block header at byte {off}")
        (nlen,) = struct.unpack_from("<I", raw, off)
        if off + 4 + nlen + 8 > end:
            raise FormatError(f"{path}: truncated block header at byte {off}")
        try:
            name = raw[off + 4:off + 4 + nlen].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: parameter name is not UTF-8 at byte {off + 4}") from None
        if name in params:
            raise FormatError(f"{path}: repeated parameter block {name!r} at byte {off}")
        off += 4 + nlen
        rows, cols = struct.unpack_from("<II", raw, off)
        off += 8
        count = rows * max(cols, 1)
        nbytes = 8 * count
        if off + nbytes > end:
            raise FormatError(f"{path}: truncated payload for {name!r} at byte {off}")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=off).astype(np.float64)
        if not np.isfinite(arr).all():
            bad = off + 8 * int(np.flatnonzero(~np.isfinite(arr))[0])
            raise FormatError(f"{path}: non-finite value in parameter {name!r} at byte {bad}")
        params[name] = arr if cols == 0 else arr.reshape(rows, cols)
        off += nbytes
    if not params:
        raise FormatError(f"{path}: no parameter block after the header at byte {off}")
    return params, meta


# -- CSV output ----------------------------------------------------------------

def write_csv(path, header: list[str], rows: list[list], deterministic: bool = False) -> None:
    """Result CSV with an optional commented timestamp line."""
    with open(path, "w", newline="") as fh:
        if not deterministic:
            stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
            fh.write(f"# generated: {stamp}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
