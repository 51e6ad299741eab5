"""Binary model checkpoints: config JSON blob plus named float32 tensors.

Layout, little-endian throughout: magic "SMCK", u32 version, u32 JSON blob
length, the JSON blob (model config, vocabulary tokens, encoder spec),
then every tensor in param_entries order as name (u32 length + UTF-8), u32
rank, u32 dims, and the float32 payload. Round-trips are bit-exact.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .model import ModelConfig, TransformerLM, param_entries
from .tokenization import Vocabulary

CHECKPOINT_MAGIC = b"SMCK"
CHECKPOINT_VERSION = 1


def save_checkpoint(
    path: str,
    model: TransformerLM,
    encoder_spec: dict | None = None,
    vocab: Vocabulary | None = None,
    extra: dict | None = None,
) -> None:
    meta = {
        "config": model.config.to_dict(),
        "encoder": encoder_spec,
        "vocab": list(vocab.tokens) if vocab is not None else None,
    }
    if extra:
        meta["extra"] = extra
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        f.write(blob)
        for name, shape, _ in param_entries(model.config):
            arr = np.ascontiguousarray(model.params[name], dtype="<f4")
            enc = name.encode("utf-8")
            f.write(struct.pack("<I", len(enc)))
            f.write(enc)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def _read_exact(f, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise ValueError(f"{f.name}: truncated checkpoint while reading {what}")
    return data


def load_checkpoint(path: str) -> tuple[TransformerLM, dict]:
    """Rebuild the model and return it with the metadata blob."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        version, blob_len = struct.unpack("<II", _read_exact(f, 8, "header"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        blob = _read_exact(f, blob_len, "metadata blob")
        try:
            meta = json.loads(blob.decode("utf-8"))
            config = ModelConfig(**meta["config"])
        except KeyError:
            raise ValueError(f"{path}: metadata holds no model config") from None
        except (TypeError, ValueError) as e:  # not JSON, not an object, or a bad field
            raise ValueError(f"{path}: bad metadata: {e}") from e
        # null is a clm checkpoint's: the model takes no injected embedding
        if not isinstance(meta.get("encoder", ()), (dict, type(None))):
            raise ValueError(f"{path}: bad metadata: encoder must be an object or null")
        tokens = meta.get("vocab")
        if tokens is not None and not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
            raise ValueError(f"{path}: bad metadata: vocab is not a list of strings")
        if tokens is not None and len(tokens) != config.vocab_size:
            raise ValueError(f"{path}: stored vocabulary has {len(tokens)} tokens, not {config.vocab_size}")
        params = {}
        for name, shape, _ in param_entries(config):
            (name_len,) = struct.unpack("<I", _read_exact(f, 4, "tensor name length"))
            stored = _read_exact(f, name_len, "tensor name").decode("utf-8")
            if stored != name:
                raise ValueError(f"{path}: tensor {stored!r} where {name!r} expected")
            (rank,) = struct.unpack("<I", _read_exact(f, 4, "tensor rank"))
            dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, "tensor dims"))
            if tuple(dims) != shape:
                raise ValueError(f"{path}: {name} has dims {dims}, expected {shape}")
            count = int(np.prod(dims)) if dims else 1
            raw = _read_exact(f, 4 * count, f"tensor {name} payload")
            params[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after final tensor")
    return TransformerLM(config, params), meta
