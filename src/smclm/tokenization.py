"""Text normalization, vocabulary handling, and word-level tokenization."""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Iterable

BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
UNK_TOKEN = "<unk>"
PAD_TOKEN = "<pad>"

SPECIAL_TOKENS = (BOS_TOKEN, EOS_TOKEN, UNK_TOKEN, PAD_TOKEN)

BOS_ID = 0
EOS_ID = 1
UNK_ID = 2
PAD_ID = 3
_VOCAB_CHUNK = 64  # sentences per words() call in build_vocabulary


class _PunctuationTable(dict):
    """``str.translate`` table that deletes every code point whose Unicode
    category starts with "P" and keeps every other one.

    Filled lazily: a code point is looked up in ``unicodedata`` the first time
    it is translated, and its entry (``None`` or the code point itself) is
    stored, so no scan of all code points runs at import.
    """

    def __missing__(self, code_point: int) -> int | None:
        kept = None if unicodedata.category(chr(code_point)).startswith("P") else code_point
        self[code_point] = kept
        return kept


_PUNCTUATION = _PunctuationTable()


def normalize(text: str) -> str:
    """Lowercase, strip punctuation, and collapse whitespace.

    Characters whose Unicode category starts with "P" are deleted outright
    (so "What's" becomes "whats", not "what s"). Runs of whitespace collapse
    to single spaces and the result is stripped.
    """
    return " ".join(text.lower().translate(_PUNCTUATION).split())


def words(text: str) -> list[str]:
    """Normalized surface words of ``text``; the shared token unit for metrics."""
    return normalize(text).split()


@dataclass(frozen=True)
class Vocabulary:
    """Bidirectional token/id mapping with fixed special tokens at ids 0..3."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        if len(self.tokens) < 5:
            raise ValueError("vocabulary needs the 4 special tokens plus at least one word")
        if tuple(self.tokens[:4]) != SPECIAL_TOKENS:
            raise ValueError(f"first four tokens must be {SPECIAL_TOKENS}")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("duplicate token in vocabulary")
        # what tokenize maps: words only, so a text word spelled like a marker is <unk>
        object.__setattr__(self, "_word_ids", dict(zip(self.tokens[4:], range(4, len(self)))))

    def __len__(self) -> int:
        return len(self.tokens)

    def tokenize(self, text: str) -> list[int]:
        """Map text to token ids; unknown words, and words spelled like a
        marker token ("<eos>"), map to the <unk> id."""
        word_id = self._word_ids.get
        return [word_id(w, UNK_ID) for w in words(text)]

    def detokenize(self, ids: Iterable[int]) -> str:
        """Inverse of tokenize up to normalization; marker tokens are dropped."""
        out = []
        for i in ids:
            if i in (BOS_ID, EOS_ID, PAD_ID):
                continue
            if not 0 <= i < len(self.tokens):
                raise ValueError(f"token id {i} out of range for vocabulary of {len(self.tokens)}")
            out.append(self.tokens[i])
        return " ".join(out)


def build_vocabulary(corpus: Iterable[str], min_freq: int = 1) -> Vocabulary:
    """Count normalized words over ``corpus`` and keep those with freq >= min_freq.

    Ids are assigned by descending frequency, ties broken lexicographically,
    starting after the four special tokens. A corpus word spelled like a
    special token (normalize keeps "<" and ">") is not counted, and tokenize
    maps it to <unk>.
    Chunks of sentences are joined by newlines, which no word spans and which
    end lower()'s final-sigma context, so each counts as it would alone.
    """
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    counts = Counter()
    seen_any = False
    sentences = iter(corpus)
    while chunk := list(islice(sentences, _VOCAB_CHUNK)):
        seen_any = True
        counts.update(words("\n".join(chunk)))
    if not seen_any:
        raise ValueError("empty corpus")
    kept = sorted(t for t, c in counts.items() if c >= min_freq and t not in SPECIAL_TOKENS)
    kept.sort(key=counts.__getitem__, reverse=True)  # stable: equal counts stay lexicographic
    if not kept:
        raise ValueError(f"no token reaches min_freq={min_freq}")
    return Vocabulary(SPECIAL_TOKENS + tuple(kept))


def save_vocabulary(vocab: Vocabulary, path: str) -> None:
    """One token per line; the line number is the token id."""
    with open(path, "w", encoding="utf-8") as f:
        for t in vocab.tokens:
            f.write(t + "\n")


def load_vocabulary(path: str) -> Vocabulary:
    with open(path, encoding="utf-8") as f:
        tokens = [line.rstrip("\n") for line in f]
    while tokens and tokens[-1] == "":
        tokens.pop()
    if len(tokens) < 5:
        raise ValueError(f"vocabulary file {path} has {len(tokens)} tokens, need >= 5")
    return Vocabulary(tuple(tokens))
