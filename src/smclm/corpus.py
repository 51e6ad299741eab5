"""Corpus assembly and paraphrase-group dataset splits.

build_corpus draws one sentence per admitted document from nested
domain/source pools, rejecting short or non-English-looking documents and
64-bit-hash duplicates. Groups of mutual paraphrases are split whole, so no
sentence can straddle train/valid/test.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .jsonl import read_jsonl, write_jsonl

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1

# words whose trailing period does not end a sentence
ABBREVIATIONS = {
    "mr", "mrs", "ms", "dr", "prof", "rev", "gen", "sen", "rep", "st", "mt",
    "sr", "jr", "vs", "etc", "no", "vol", "fig", "dept", "inc", "ltd", "co",
    "corp", "approx", "est", "jan", "feb", "mar", "apr", "jun", "jul", "aug",
    "sep", "sept", "oct", "nov", "dec", "e.g", "i.e", "cf", "al",
}

_BOUNDARY = re.compile(r"([.?!]+)(\s+)(?=[A-Z\"'“‘])")
_ACCEPTABLE = set(string.ascii_letters + string.digits + string.punctuation + string.whitespace)


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & _U64
    return h


def split_sentences(text: str) -> list[str]:
    """Rule-based splitting on sentence punctuation before an uppercase/quote.

    A lone period after a stop-listed abbreviation is not a boundary, so
    "Dr. Smith arrived. He left." yields two sentences.
    """
    cuts = []
    for m in _BOUNDARY.finditer(text):
        if m.group(1) == ".":
            last = re.search(r"[\w.]+$", text[: m.start(1)])
            if last and last.group(0).lower() in ABBREVIATIONS:
                continue
        cuts.append(m.end(1))
    out = []
    prev = 0
    for cut in cuts:
        piece = text[prev:cut].strip()
        if piece:
            out.append(piece)
        prev = cut
    tail = text[prev:].strip()
    if tail:
        out.append(tail)
    return out


def default_lang_filter(text: str, threshold: float = 0.9) -> bool:
    """Accept text when >= threshold of its characters are ASCII
    letters/digits/punctuation/whitespace."""
    if not text:
        return True
    ok = sum(1 for ch in text if ch in _ACCEPTABLE)
    return ok / len(text) >= threshold


def build_corpus(
    sources: Sequence[tuple[str, Sequence[str]]],
    target_count: int,
    seed: int = 0,
    min_chars: int = 10,
    lang_filter: Callable[[str], bool] | None = None,
    splitter: Callable[[str], list[str]] = split_sentences,
) -> tuple[list[str], dict]:
    """Sample deduplicated sentences until target_count or exhaustion.

    Each loop picks a domain, a source within it, and an unconsumed document
    within that, all uniformly from the seeded generator; any rejection
    (short document, language filter, sentence-less document, duplicate
    sentence) consumes the document and re-enters the domain choice. The
    manifest carries per-domain admit/reject counts and a shortfall flag.
    """
    if target_count < 1:
        raise ValueError("target_count must be >= 1")
    if not sources:
        raise ValueError("no sources")
    accept = lang_filter or default_lang_filter
    domains: dict[str, list[list[str]]] = {}
    for domain, docs in sources:
        domains.setdefault(domain, []).append(list(docs))
    stats = {
        d: {"admitted": 0, "rejected": {"short": 0, "language": 0, "empty": 0, "duplicate": 0}}
        for d in domains
    }
    rng = np.random.default_rng(seed)
    seen: set[int] = set()
    admitted: list[str] = []
    names = [d for d in domains if domains[d]]
    while len(admitted) < target_count and names:
        domain = names[int(rng.integers(len(names)))]
        pools = domains[domain]
        pool = pools[int(rng.integers(len(pools)))]
        doc = pool.pop(int(rng.integers(len(pool))))
        if not pool:
            pools.remove(pool)
            if not pools:
                names.remove(domain)
        rejected = stats[domain]["rejected"]
        if len(doc) < min_chars:
            rejected["short"] += 1
            continue
        if not accept(doc):
            rejected["language"] += 1
            continue
        sentences = [s for s in splitter(doc) if s.strip()]
        if not sentences:
            rejected["empty"] += 1
            continue
        sentence = sentences[int(rng.integers(len(sentences)))].strip()
        h = fnv1a64(sentence.encode("utf-8"))
        if h in seen:
            rejected["duplicate"] += 1
            continue
        seen.add(h)
        admitted.append(sentence)
        stats[domain]["admitted"] += 1
    manifest = {
        "target": target_count,
        "admitted": len(admitted),
        "shortfall": len(admitted) < target_count,
        "seed": seed,
        "min_chars": min_chars,
        "domains": stats,
    }
    return admitted, manifest


@dataclass(frozen=True)
class ParaphraseGroup:
    """A set of mutually paraphrastic sentences sharing one group id."""

    id: str
    sentences: tuple[str, ...]

    def __post_init__(self):
        if not self.sentences:
            raise ValueError(f"group {self.id!r} has no sentences")


DEFAULT_SPLIT_NAMES = ("train", "valid", "test")
DEFAULT_RATIOS = (0.8, 0.05, 0.15)


def split_groups(
    groups: Sequence[ParaphraseGroup],
    ratios: Sequence[float] = DEFAULT_RATIOS,
    seed: int = 0,
    names: Sequence[str] = DEFAULT_SPLIT_NAMES,
) -> dict[str, list[ParaphraseGroup]]:
    """Partition whole groups by largest-remainder apportionment of ratios.

    Group order is shuffled from the seed, then contiguous slices of the
    shuffled order fill each split, so splits are disjoint and their union is
    the input. Sizes are exact when n * ratio is integral.
    """
    if len(ratios) != len(names) or len(ratios) < 2:
        raise ValueError("need matching names for >= 2 ratios")
    if any(r <= 0 for r in ratios):
        raise ValueError("ratios must be positive")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios sum to {sum(ratios)}, expected 1")
    if len(groups) < len(ratios):
        raise ValueError(f"{len(groups)} groups cannot fill {len(ratios)} splits")
    n = len(groups)
    exact = [n * r for r in ratios]
    sizes = [int(e) for e in exact]
    leftovers = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - sizes[i]), i))
    for i in leftovers[: n - sum(sizes)]:
        sizes[i] += 1
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    out: dict[str, list[ParaphraseGroup]] = {}
    at = 0
    for name, size in zip(names, sizes):
        out[name] = [groups[i] for i in order[at : at + size]]
        at += size
    return out


def make_supervised_pairs(group: ParaphraseGroup, seed: int = 0) -> list[tuple[str, str]]:
    """Pick one member as the source and pair it with every other.

    The pick is seeded from (seed, hash of the group id), so groups of the
    same size do not all pick the same position.
    """
    if len(group.sentences) < 2:
        raise ValueError(f"group {group.id!r} needs >= 2 sentences for pairs")
    rng = np.random.default_rng([seed, fnv1a64(group.id.encode("utf-8"))])
    src = int(rng.integers(len(group.sentences)))
    source = group.sentences[src]
    return [(source, s) for i, s in enumerate(group.sentences) if i != src]


def flatten_unsupervised(splits: Mapping[str, Sequence[ParaphraseGroup]]) -> dict[str, list[str]]:
    """Sentence lists per split, first-occurrence deduplicated, order-stable."""
    out = {}
    for name, groups in splits.items():
        seen = set()
        sentences = []
        for g in groups:
            for s in g.sentences:
                if s not in seen:
                    seen.add(s)
                    sentences.append(s)
        out[name] = sentences
    return out


def read_groups_jsonl(path: str) -> list[ParaphraseGroup]:
    return read_jsonl(path, lambda rec: ParaphraseGroup(str(rec["id"]), tuple(rec["sentences"])))


def write_groups_jsonl(groups: Sequence[ParaphraseGroup], path: str) -> None:
    write_jsonl(({"id": g.id, "sentences": list(g.sentences)} for g in groups), path)


def group_to_test_record(group: ParaphraseGroup, seed: int = 0) -> dict:
    """One evaluation record: the seeded source plus all other members as references."""
    pairs = make_supervised_pairs(group, seed)
    return {"source": pairs[0][0], "references": [ref for _, ref in pairs]}
