"""Corpus assembly and paraphrase-group dataset splits.

split_sentences finds the terminators with ``str.find`` and matches the
boundary pattern once per run of them. build_corpus draws one sentence per
admitted document from nested domain/source pools, rejecting short or
non-English-looking documents and repeated sentences. Groups of mutual
paraphrases are split whole, so no sentence can straddle train/valid/test.
"""

from __future__ import annotations

import itertools
import re
import string
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .jsonl import read_jsonl, string_list, write_jsonl

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1
_U32 = (1 << 32) - 1

# words whose trailing period does not end a sentence
ABBREVIATIONS = frozenset({
    "mr", "mrs", "ms", "dr", "prof", "rev", "gen", "sen", "rep", "st", "mt",
    "sr", "jr", "vs", "etc", "no", "vol", "fig", "dept", "inc", "ltd", "co",
    "corp", "approx", "est", "jan", "feb", "mar", "apr", "jun", "jul", "aug",
    "sep", "sept", "oct", "nov", "dec", "e.g", "i.e", "cf", "al",
})

_BOUNDARY = re.compile(r"([.?!]+)(\s+)(?=[A-Z\"'“‘])")
_LAST_RUN = re.compile(r"[\w.]+$")
# a run the window cuts keeps >= W - 1 chars ($ matches before a final newline): no abbreviation
_ABBREVIATION_WINDOW = max(map(len, ABBREVIATIONS)) + 2
_ACCEPTABLE_BYTES = (string.ascii_letters + string.digits + string.punctuation + string.whitespace).encode()


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & _U64
    return h


def split_sentences(text: str) -> list[str]:
    """Rule-based splitting on sentence punctuation before an uppercase/quote.

    A lone period after a stop-listed abbreviation is not a boundary, so
    "Dr. Smith arrived. He left." yields two sentences. The terminators are
    found with ``str.find`` and ``_BOUNDARY`` is matched once per run of them,
    at its first mark: whether a run ends a sentence depends only on what
    follows its last mark, so these are the matches ``_BOUNDARY.finditer``
    makes. Each period's word is searched for in a bounded window, so
    splitting is linear in len(text), punctuation runs included.
    """
    marks = []
    for terminator in ".?!":
        i = text.find(terminator)
        while i >= 0:
            marks.append(i)
            i = text.find(terminator, i + 1)
    marks.sort()
    cuts = []
    for i, before in zip(marks, [-2, *marks]):
        if i == before + 1:  # inside a run: the match at the run's first mark decided it
            continue
        m = _BOUNDARY.match(text, i)
        if m is None:
            continue
        if m.group(1) == ".":
            end = m.start(1)
            last = _LAST_RUN.search(text, max(0, end - _ABBREVIATION_WINDOW), end)
            if last and last.group(0).lower() in ABBREVIATIONS:
                continue
        cuts.append(m.end(1))
    out = []
    prev = 0
    for cut in cuts:
        # never empty: the piece ends with the punctuation run of its cut
        out.append(text[prev:cut].strip())
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
    # the encode drops non-ASCII characters; translate deletes the acceptable ones
    ascii_part = text.encode("ascii", "ignore")
    ok = len(ascii_part) - len(ascii_part.translate(None, _ACCEPTABLE_BYTES))
    return ok / len(text) >= threshold


def _uniform_below(rng: np.random.Generator) -> Callable[[int], int]:
    """``below(n)``: the integer ``int(rng.integers(n))`` would draw, for 1 <= n <= 2**32.

    ``Generator.integers`` draws a bound up to 2**32 by Lemire's multiply
    and reject on 32-bit outputs (numpy's ``buffered_bounded_lemire_uint32``),
    and PCG64 gives the low half of a 64-bit word, then keeps its high half
    for the next 32-bit output. ``below`` replays both steps on raw words
    read 256 at a time, so its draws depend only on the raw stream. It owns
    the generator: a draw made from ``rng`` directly would no longer match.
    """
    raw = rng.bit_generator.random_raw

    def halves() -> list[int]:
        words = raw(256)
        return np.column_stack((words & _U32, words >> 32)).ravel().tolist()

    next_u32 = itertools.chain.from_iterable(iter(halves, None)).__next__

    def below(n: int) -> int:
        if n == 1:  # integers(1) consumes nothing
            return 0
        m = next_u32() * n
        if m & _U32 < n:  # the threshold is below n, so most draws skip it
            threshold = ((1 << 32) - n) % n
            while m & _U32 < threshold:
                m = next_u32() * n
        return m >> 32

    return below


def build_corpus(
    sources: Sequence[tuple[str, Sequence[str]]],
    target_count: int,
    seed: int = 0,
    min_chars: int = 10,
    splitter: Callable[[str], list[str]] = split_sentences,
) -> tuple[list[str], dict]:
    """Sample deduplicated sentences until target_count or exhaustion.

    Each loop picks a domain, a source within it, and an unconsumed document
    within that, all uniformly from the seeded generator through
    ``_uniform_below``, which makes every draw; any rejection
    (short document, language filter, sentence-less document, an exact
    repeat of an admitted sentence) consumes the document and re-enters the
    domain choice. The manifest carries per-domain admit/reject counts and a
    shortfall flag.
    """
    if target_count < 1:
        raise ValueError("target_count must be >= 1")
    if not sources:
        raise ValueError("no sources")
    domains: dict[str, list[list[str]]] = {}
    for domain, docs in sources:
        # an empty pool could not be drawn from; its domain keeps a zero row
        pools = domains.setdefault(domain, [])
        if docs:
            pools.append(list(docs))
    stats = {
        d: {"admitted": 0, "rejected": {"short": 0, "language": 0, "empty": 0, "duplicate": 0}}
        for d in domains
    }
    below = _uniform_below(np.random.default_rng(seed))
    seen: set[str] = set()
    admitted: list[str] = []
    names = [d for d in domains if domains[d]]
    while len(admitted) < target_count and names:
        domain = names[below(len(names))]
        pools = domains[domain]
        pool = pools[below(len(pools))]
        doc = pool.pop(below(len(pool)))
        if not pool:
            pools.remove(pool)
            if not pools:
                names.remove(domain)
        rejected = stats[domain]["rejected"]
        if len(doc) < min_chars:
            rejected["short"] += 1
            continue
        if not default_lang_filter(doc):
            rejected["language"] += 1
            continue
        sentences = [s for s in splitter(doc) if s.strip()]
        if not sentences:
            rejected["empty"] += 1
            continue
        sentence = sentences[below(len(sentences))].strip()
        if sentence in seen:
            rejected["duplicate"] += 1
            continue
        seen.add(sentence)
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


SPLIT_NAMES = ("train", "valid", "test")
DEFAULT_RATIOS = (0.8, 0.05, 0.15)


def split_groups(
    groups: Sequence[ParaphraseGroup],
    ratios: Sequence[float] = DEFAULT_RATIOS,
    seed: int = 0,
) -> dict[str, list[ParaphraseGroup]]:
    """Partition whole groups into train/valid/test by largest-remainder apportionment.

    Group order is shuffled from the seed, then contiguous slices of the
    shuffled order fill each split, so splits are disjoint and their union is
    the input. Sizes are exact when n * ratio is integral. A sentence (exact
    string) in two groups raises ValueError, since it could land in two splits.
    """
    if len(ratios) != len(SPLIT_NAMES):
        raise ValueError(f"need 3 ratios ({','.join(SPLIT_NAMES)}), got {len(ratios)}")
    if not all(r > 0 for r in ratios):  # nan fails too
        raise ValueError("ratios must be positive")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios sum to {sum(ratios)}, expected 1")
    if len(groups) < len(ratios):
        raise ValueError(f"{len(groups)} groups cannot fill {len(ratios)} splits")
    owner: dict[str, str] = {}
    for g in groups:
        for s in g.sentences:
            if owner.setdefault(s, g.id) != g.id:
                raise ValueError(f"sentence {s!r} is in groups {owner[s]!r} and {g.id!r}")
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
    for name, size in zip(SPLIT_NAMES, sizes):
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
    return read_jsonl(path, lambda rec: ParaphraseGroup(
        str(rec["id"]), tuple(string_list(rec["sentences"], "sentences"))
    ))


def write_groups_jsonl(groups: Sequence[ParaphraseGroup], path: str) -> None:
    write_jsonl(({"id": g.id, "sentences": list(g.sentences)} for g in groups), path)


def group_to_test_record(group: ParaphraseGroup, seed: int = 0) -> dict:
    """One evaluation record: the seeded source plus all other members as references."""
    pairs = make_supervised_pairs(group, seed)
    return {"source": pairs[0][0], "references": [ref for _, ref in pairs]}
