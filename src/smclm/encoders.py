"""Frozen sentence encoders producing unit-norm vectors, plus the embedding file format.

Every encoder maps a raw sentence to a deterministic float32 vector with unit
L2 norm; encoders hold no trainable state. The binary embedding file keys
vectors by sha256 of the normalized sentence.
"""

from __future__ import annotations

import hashlib
import math
import struct
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from .tokenization import normalize

EMBED_MAGIC = b"SMEM"
EMBED_VERSION = 1
# the dimension of the hashed token embedder, and of the CLI's evaluate and
# calibrate-beta encoders, when none is given
DEFAULT_DIM = 64
# (token, dim, seed) entries kept by the slot memo: the metrics and the hashed
# encoders hash the same few words again and again (80 evaluate records make
# 21,111 calls on 541 distinct keys), and the bound keeps the memo small
SLOT_MEMO_SIZE = 1 << 14


def sentence_key(sentence: str) -> bytes:
    """32-byte lookup key: sha256 of the normalized sentence, UTF-8."""
    return hashlib.sha256(normalize(sentence).encode("utf-8")).digest()


def unit(vec: np.ndarray) -> np.ndarray:
    """L2-normalize to float32; zero or non-finite vectors are rejected."""
    v = np.asarray(vec, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite embedding vector")
    n = math.sqrt(v.dot(v))  # what np.linalg.norm computes, without its wrapper
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return (v / n).astype(np.float32)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors, computed in float64.

    Clamped to [-1, 1]: rounding can push the quotient a few ulp outside
    (e.g. a hashed vector against itself), which downstream range checks
    would reject.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = math.sqrt(a.dot(a)), math.sqrt(b.dot(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine undefined for zero vectors")
    return min(1.0, max(-1.0, float(np.dot(a, b) / (na * nb))))


@lru_cache(maxsize=SLOT_MEMO_SIZE)
def _signed_slot(token: str, dim: int, seed: int) -> tuple[int, float]:
    """The slot in [0, dim) and the sign (+1 or -1) a token hashes to."""
    # blake2b keyed by the seed gives a stable 64-bit hash across runs/platforms
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=str(seed).encode("ascii"))
    h = int.from_bytes(digest.digest(), "little")
    return (h >> 1) % dim, 1.0 if h & 1 else -1.0


class HashedTokenEmbedder:
    """Per-token embedder used by the token-matching metric; callable."""

    def __init__(self, dim: int = DEFAULT_DIM, seed: int = 0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.seed = seed

    def __call__(self, token: str) -> np.ndarray:
        """Deterministic signed one-hot unit vector for a single token."""
        idx, sign = _signed_slot(token, self.dim, self.seed)
        v = np.zeros(self.dim, dtype=np.float32)
        v[idx] = sign
        return v


class HashedBagEncoder:
    """Bag-of-words encoder: sum of seeded signed hash positions, L2-normalized.

    Order-invariant by construction. A sentence that normalizes to nothing is
    embedded as the empty token so encode stays total and deterministic.
    """

    kind = "hashed-bag"

    def __init__(self, dim: int, seed: int = 0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.seed = seed

    def encode(self, sentence: str) -> np.ndarray:
        toks = normalize(sentence).split() or [""]
        acc = [0.0] * self.dim  # a list of floats: no NumPy scalar indexing per word
        for t in toks:
            idx, sign = _signed_slot(t, self.dim, self.seed)
            acc[idx] += sign
        if not any(acc):
            # signs cancelled exactly; fall back to the bag size position
            acc[len(toks) % self.dim] = 1.0
        return unit(acc)

    def missing(self, sentences: Iterable[str]) -> list[str]:
        """Every sentence has a vector, so none is missing; ``sentences`` is not read."""
        return []

    def spec(self) -> dict:
        return {"kind": self.kind, "dim": self.dim, "seed": self.seed}


class FileBackedEncoder:
    """Encoder backed by a precomputed embedding table keyed by sentence hash."""

    kind = "file-backed"

    def __init__(self, table: Mapping[bytes, np.ndarray], path: str | None = None):
        self._table = {k: unit(v) for k, v in table.items()}
        self.dim = _dim(self._table.values())
        self.path = path

    @classmethod
    def from_sentences(cls, pairs: Mapping[str, np.ndarray] | list[tuple[str, np.ndarray]]):
        return cls(_sentence_table(pairs))

    @classmethod
    def load(cls, path: str) -> "FileBackedEncoder":
        return cls(read_embedding_file(path)[0], path=path)

    def encode(self, sentence: str) -> np.ndarray:
        key = sentence_key(sentence)
        vec = self._table.get(key)
        if vec is None:
            raise KeyError(f"no embedding stored for sentence: {sentence!r}")
        return vec

    def missing(self, sentences: Iterable[str]) -> list[str]:
        """The distinct sentences, in first-seen order, whose key the table lacks."""
        return [s for s in dict.fromkeys(sentences) if sentence_key(s) not in self._table]

    def spec(self) -> dict:
        return {"kind": self.kind, "dim": self.dim, "path": self.path}


def _dim(vectors) -> int:
    """The one length of ``vectors``; none, or mixed lengths, are rejected."""
    dims = {len(v) for v in vectors}
    if len(dims) != 1:
        raise ValueError("inconsistent embedding dimensions" if dims else "empty embedding table")
    return dims.pop()


def _sentence_table(entries) -> dict[bytes, np.ndarray]:
    """The unit vector of each sentence, keyed by ``sentence_key``.

    Two sentences with one normalized form would share a key, and the later
    vector would silently replace the earlier, so they are rejected.
    """
    items = entries.items() if isinstance(entries, Mapping) else entries
    table, sentences = {}, {}
    for sentence, vec in items:
        key = sentence_key(sentence)
        if key in sentences:
            raise ValueError(f"sentences {sentences[key]!r} and {sentence!r} share one normalized form")
        sentences[key] = sentence
        table[key] = unit(vec)
    return table


def write_embedding_file(path: str, entries: Mapping[str, np.ndarray] | list[tuple[str, np.ndarray]]) -> int:
    """Write sentence embeddings in the binary table format; returns entry count.

    Layout, all little-endian: magic "SMEM", u32 version, u32 count, u32 dim,
    then per entry a 32-byte sha256 of the normalized sentence followed by
    dim float32 values. Vectors are unit-normalized before writing. No
    entries, mixed dimensions, or two sentences sharing a normalized form
    (and so a key) raise before the file is opened.
    """
    table = _sentence_table(entries)
    dim = _dim(table.values())
    with open(path, "wb") as f:
        f.write(EMBED_MAGIC)
        f.write(struct.pack("<III", EMBED_VERSION, len(table), dim))
        for key, v in table.items():
            f.write(key)
            f.write(v.astype("<f4").tobytes())
    return len(table)


def read_embedding_file(path: str) -> tuple[dict[bytes, np.ndarray], int]:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != EMBED_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {EMBED_MAGIC!r}")
        header = f.read(12)
        if len(header) != 12:
            raise ValueError(f"{path}: truncated embedding file")
        version, count, dim = struct.unpack("<III", header)
        if version != EMBED_VERSION:
            raise ValueError(f"{path}: unsupported embedding file version {version}")
        table = {}
        for _ in range(count):
            key = f.read(32)
            raw = f.read(4 * dim)
            if len(key) != 32 or len(raw) != 4 * dim:
                raise ValueError(f"{path}: truncated embedding file")
            table[key] = np.frombuffer(raw, dtype="<f4").astype(np.float32)
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after {count} entries")
    return table, dim


def check_covered(encoder, texts: Iterable[str]) -> None:
    """Raise, before any work, when ``encoder`` has no vector for some text."""
    missing = encoder.missing(texts)
    if missing:
        raise ValueError(f"the encoder has no vector for {len(missing)} sentence(s), first {missing[0]!r}")


def encoder_from_spec(spec: dict) -> object:
    """Rebuild an encoder from its checkpoint spec blob."""
    kind = spec.get("kind")
    if kind == "hashed-bag":
        return HashedBagEncoder(spec["dim"], spec.get("seed", 0))
    if kind == "file-backed":
        if not spec.get("path"):
            raise ValueError("file-backed encoder needs a path")
        return FileBackedEncoder.load(spec["path"])
    raise ValueError(f"unknown encoder kind: {kind!r}")
