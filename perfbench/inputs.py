"""Seeded synthetic inputs for the four benchmark workloads.

Every input is a pure function of (workload seed, stream, index), so the same
seed always yields the same inputs and the program under test only ever sees
the generated strings. The text imitates English on a synthetic lexicon of
V words with Zipfian frequencies: sentences are capitalized, carry commas,
quotes and end punctuation, and some lexicon words contain an apostrophe, so
``normalize`` has real work to do.
"""

from __future__ import annotations

import numpy as np

V = 2000
ZIPF_EXPONENT = 1.0

# stream ids: one independent generator per kind of input
_LEXICON, _VOCAB, _PARAPHRASE, _TRAIN, _VALID, _EVALUATE, _CORPUS = range(7)
WARMUP = 1 << 30  # index reserved for the warm-up item of each stream

_ONSETS = ("b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t",
           "v", "w", "z", "br", "ch", "dr", "gl", "kr", "pl", "sh", "st", "th", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "io", "ou")
_CODAS = ("", "", "", "n", "r", "s", "l", "m", "nd", "st", "ck")
# a few characters outside ASCII, for documents the language filter must reject
_FOREIGN = "абвгдежзиклмнопрстуфхцчшыэюяαβγδεζηθικλμνξπρστυφχψω"


def _rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def _syllable_parts(rng: np.random.Generator) -> tuple[str, str, str]:
    return (_ONSETS[int(rng.integers(len(_ONSETS)))], _VOWELS[int(rng.integers(len(_VOWELS)))],
            _CODAS[int(rng.integers(len(_CODAS)))])


def _word_shapes(size: int) -> list[tuple[tuple[int, ...], bool]]:
    """Per rank: the letter count of every syllable part, and whether the word
    carries an apostrophe. Drawn from a fixed generator, so word lengths by
    rank, and with them the cost of the text, are the same for every seed."""
    rng = np.random.default_rng(0x5EED)
    shapes, seen = [], set()
    while len(shapes) < size:
        parts = [p for _ in range(int(rng.integers(1, 4))) for p in _syllable_parts(rng)]
        word = "".join(parts)
        if word in seen:
            continue
        seen.add(word)
        shapes.append((tuple(len(p) for p in parts), len(parts) > 3 and rng.random() < 0.08))
    return shapes


class Lexicon:
    """V surface words, distinct after normalization, with Zipf weights by rank.

    The seed picks the letters; the shape of the word at each rank is fixed.
    """

    def __init__(self, seed: int, size: int = V):
        rng = _rng(seed, _LEXICON)
        by_length = [
            {n: [p for p in options if len(p) == n] for n in {len(p) for p in options}}
            for options in (_ONSETS, _VOWELS, _CODAS)
        ]
        words: list[str] = []
        seen: set[str] = set()
        for lengths, apostrophe in _word_shapes(size):
            while True:
                parts = []
                for k, n in enumerate(lengths):
                    options = by_length[k % 3][n]
                    parts.append(options[int(rng.integers(len(options)))])
                plain = "".join(parts)
                if plain not in seen:
                    break
            seen.add(plain)
            # an elided form such as "kal'ostra"; normalize deletes the apostrophe
            words.append(parts[0] + parts[1] + parts[2] + "'" + "".join(parts[3:]) if apostrophe else plain)
        self.words = words
        weights = 1.0 / np.arange(1, size + 1, dtype=np.float64) ** ZIPF_EXPONENT
        self.cdf = np.cumsum(weights / weights.sum())

    def draw(self, rng: np.random.Generator, count: int) -> list[str]:
        picks = np.searchsorted(self.cdf, rng.random(count), side="right")
        return [self.words[i] for i in np.minimum(picks, len(self.words) - 1).tolist()]


def render(rng: np.random.Generator, words: list[str]) -> str:
    """Surface a word list as an English-looking sentence."""
    last = len(words) - 1
    u = rng.random((len(words), 3)).tolist()  # per word: styling, comma, comma kind
    out = []
    for i, (w, (style, comma, kind)) in enumerate(zip(words, u)):
        if i == 0 or style < 0.05:
            w = w[:1].upper() + w[1:]  # sentence start or a proper noun
        elif style < 0.08:
            w = '"' + w + '"'
        if i < last and comma < 0.1:
            w += "," if kind < 0.8 else ";"
        out.append(w)
    return " ".join(out) + (".", ".", ".", "?", "!")[int(u[last][2] * 5)]


def sentence(lex: Lexicon, rng: np.random.Generator, low: int, high: int) -> str:
    """One sentence of low..high words (inclusive)."""
    return render(rng, lex.draw(rng, int(rng.integers(low, high + 1))))


def vocabulary_corpus(lex: Lexicon, seed: int, count: int = 2000) -> list[str]:
    """Sentences to build the vocabulary from, plus one line naming every lexicon
    word so the vocabulary has exactly V words and the workloads see no <unk>."""
    rng = _rng(seed, _VOCAB)
    return [sentence(lex, rng, 6, 20) for _ in range(count)] + [" ".join(lex.words)]


def paraphrase_sources(lex: Lexicon, seed: int, index: int, count: int) -> list[str]:
    rng = _rng(seed, _PARAPHRASE, index)
    return [sentence(lex, rng, 8, 16) for _ in range(count)]


def train_sentences(lex: Lexicon, seed: int, index: int, count: int) -> list[str]:
    """Mixed lengths (6-20 words), so a padded batch would carry real padding."""
    rng = _rng(seed, _TRAIN, index)
    return [sentence(lex, rng, 6, 20) for _ in range(count)]


def valid_sentences(lex: Lexicon, seed: int, index: int, count: int) -> list[str]:
    rng = _rng(seed, _VALID, index)
    return [sentence(lex, rng, 6, 20) for _ in range(count)]


def _edit(rng: np.random.Generator, lex: Lexicon, words: list[str]) -> list[str]:
    """1-3 seeded word edits: swap neighbours, drop, insert, duplicate."""
    out = list(words)
    for _ in range(int(rng.integers(1, 4))):
        op = int(rng.integers(4))
        i = int(rng.integers(len(out)))
        if op == 0 and len(out) > 1:
            j = i + 1 if i + 1 < len(out) else i - 1
            out[i], out[j] = out[j], out[i]
        elif op == 1 and len(out) > 3:
            del out[i]
        elif op == 2:
            out.insert(i, lex.draw(rng, 1)[0])
        else:
            out.insert(i, out[i])
    return out


def evaluate_records(
    lex: Lexicon, seed: int, index: int, count: int, candidates: int = 20, references: int = 4
) -> list[dict]:
    """Records whose candidates and references are word edits of the source.

    Editing the source keeps BLEU and ROUGE-L away from their zero-overlap
    early exits. Every second record leaves out "best", so evaluate_corpus
    runs its own SBERT-iBLEU selection on half of them.
    """
    rng = _rng(seed, _EVALUATE, index)
    records = []
    for r in range(count):
        base = lex.draw(rng, int(rng.integers(8, 17)))
        rec = {
            "source": render(rng, base),
            "references": [render(rng, _edit(rng, lex, base)) for _ in range(references)],
            "candidates": [render(rng, _edit(rng, lex, base)) for _ in range(candidates)],
        }
        if r % 2:
            rec["best"] = int(rng.integers(candidates))
        records.append(rec)
    return records


CORPUS_DOMAINS = ("news", "web", "forum")


def corpus_documents(lex: Lexicon, seed: int, index: int, count: int) -> list[tuple[str, list[str]]]:
    """``count`` documents as (domain, documents) sources: 3 domains, 2 sources each.

    Besides ordinary 1-4 sentence documents, the mix carries short documents,
    documents mostly outside ASCII, whitespace-only documents (no sentence)
    and copies of earlier one-sentence documents, so every reject branch of
    build_corpus fires in every round of realistic size.
    """
    rng = _rng(seed, _CORPUS, index)
    docs: list[str] = []
    singles: list[str] = []
    for _ in range(count):
        u = rng.random()
        if u < 0.03:
            docs.append(lex.draw(rng, 1)[0][:6].capitalize() + ".")  # under min_chars
        elif u < 0.06:
            n = int(rng.integers(4, 12))
            docs.append(" ".join(
                "".join(_FOREIGN[int(k)] for k in rng.integers(len(_FOREIGN), size=int(rng.integers(3, 9))))
                for _ in range(n)
            ) + ".")
        elif u < 0.08:
            docs.append(" " * int(rng.integers(10, 30)))
        elif u < 0.13 and singles:
            docs.append(singles[int(rng.integers(len(singles)))])
        else:
            n = int(rng.integers(1, 5))
            parts = []
            for _ in range(n):
                s = sentence(lex, rng, 5, 18)
                if rng.random() < 0.03:
                    s = "Dr. " + s  # an abbreviation that must not split
                parts.append(s)
            doc = " ".join(parts)
            if n == 1:
                singles.append(doc)
            docs.append(doc)
    pools = len(CORPUS_DOMAINS) * 2
    return [(CORPUS_DOMAINS[k // 2], docs[k::pools]) for k in range(pools)]


def corpus_warmup_document(lex: Lexicon, seed: int) -> list[tuple[str, list[str]]]:
    """A single ordinary document, so the warm-up admits a sentence."""
    rng = _rng(seed, _CORPUS, WARMUP)
    return [(CORPUS_DOMAINS[0], [sentence(lex, rng, 5, 18)])]
