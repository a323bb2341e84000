"""Model checkpoint file format.

Layout: magic ``SPFG1\\n``, an 8-byte little-endian header length, a UTF-8
JSON header, then the raw tensor payload. The header carries the
architecture config, training metadata, and one entry per tensor with
name, shape, dtype and byte offset into the payload. Serialization is
canonical (sorted keys, fixed separators, tensors ordered by name) so the
same model always produces the same bytes.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

MAGIC = b"SPFG1\n"
_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray],
                    config: dict, meta: dict | None = None) -> None:
    entries = []
    payload = bytearray()
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])  # ascontiguousarray would make a 0-d array 1-d
        if arr.dtype == np.float64:
            code = "<f8"
        else:
            code = "<f4"
            arr = arr.astype("<f4", copy=False)
        arr = arr.astype(_DTYPES[code], copy=False)
        entries.append({"name": name, "shape": list(arr.shape), "dtype": code,
                        "offset": len(payload)})
        payload.extend(arr.tobytes())
    header = json.dumps({"config": config, "meta": meta or {}, "tensors": entries},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(bytes(payload))


def _corrupt(path, reason: str) -> ValueError:
    return ValueError(f"{path}: corrupt checkpoint: {reason}")


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict, dict]:
    """Returns (tensors, config, meta); shape validation is the caller's job
    since only the model class knows what the config implies. A file that is
    not laid out as ``save_checkpoint`` writes raises one ``ValueError``."""
    blob = Path(path).read_bytes()
    if blob[:len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    header_start = len(MAGIC) + 8
    if len(blob) < header_start:
        raise _corrupt(path, "file ends inside the header length")
    (header_len,) = struct.unpack_from("<Q", blob, len(MAGIC))
    payload_start = header_start + header_len
    if payload_start > len(blob):
        raise _corrupt(path, f"{header_len}-byte header runs past the end of the "
                             f"{len(blob)}-byte file")
    try:
        header = json.loads(blob[header_start:payload_start].decode("utf-8"))
        config, meta, entries = header["config"], header["meta"], header["tensors"]
    except (ValueError, KeyError, TypeError) as exc:
        raise _corrupt(path, f"unreadable header ({exc})") from None
    payload = blob[payload_start:]
    tensors: dict[str, np.ndarray] = {}
    for entry in entries:
        try:
            name, code, start = entry["name"], entry["dtype"], int(entry["offset"])
            shape = tuple(int(d) for d in entry["shape"])
        except (ValueError, KeyError, TypeError) as exc:
            raise _corrupt(path, f"malformed tensor entry ({exc})") from None
        if code not in _DTYPES:
            raise _corrupt(path, f"tensor {name!r} has unknown dtype code {code!r}")
        if start < 0 or any(d < 0 for d in shape):
            raise _corrupt(path, f"tensor {name!r} has a negative offset or dimension")
        dtype = _DTYPES[code]
        count = int(np.prod(shape)) if shape else 1
        end = start + count * dtype.itemsize
        if end > len(payload):
            raise _corrupt(path, f"tensor {name!r} needs payload bytes {start}..{end}, "
                                 f"but the payload has {len(payload)}")
        arr = np.frombuffer(payload, dtype=dtype, count=count, offset=start)
        tensors[name] = arr.reshape(shape).copy()
    return tensors, config, meta
