"""Version 1 checkpoints, which load_checkpoint still reads but nothing writes.

A v1 file is the 5-byte header b"CLTA\\x01" followed by the parameter blocks,
and its metadata sits in a path + ".meta.json" sidecar. A v2 file holds the
same blocks, so a v1 copy of it is its blocks under the v1 header. This
module parses the v2 layout itself and shares no code with the package.
"""

import json
import struct
from pathlib import Path


def v1_copy(v2_path, v1_path) -> Path:
    """Writes the v2 checkpoint at v2_path as v1 bytes at v1_path, plus the
    sidecar the v1 writer made, and returns the sidecar's path."""
    raw = Path(v2_path).read_bytes()
    assert raw[:5] == b"CLTA\x02"
    (meta_len,) = struct.unpack_from("<I", raw, 5)
    Path(v1_path).write_bytes(b"CLTA\x01" + raw[9 + meta_len:-12])
    sidecar = Path(f"{v1_path}.meta.json")
    meta = json.loads(raw[9:9 + meta_len])
    sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True))
    return sidecar
