"""Paraphrase evaluation metrics: lexical, semantic, and the combined iBLEU family.

Every score is returned on 0..100; only ibleu_combine works on [0, 1], and
the combined scores rescale into and out of it. Lexical metrics share the
normalize()/whitespace word unit from tokenization and never touch a model
vocabulary.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .encoders import HashedTokenEmbedder, check_covered, row_cosine, sentence_key, with_norm
from .jsonl import read_jsonl, string_list
from .model import POSITIVE, check_fields, one_of, ranged
from .tokenization import normalize

DEFAULT_BETA = 2.0
DEFAULT_MAX_N = 3
# words in the distinct texts of one evaluate_corpus block, about five records
# of 20 candidates and 4 references: larger blocks gained little and raised
# the peak memory (sweep in CHANGES.md)
WORD_BUDGET = 1600

TokenEmbedder = Callable[[str], np.ndarray]


class _WordTable(dict):
    """Each word's unit token-embedding row. ``fill`` embeds the words of its
    sentences that the table lacks, normalizes them in one stacked pass and
    gives each sentence its rows, so the sentences sharing a table (one block
    of records, a pair or a call) embed each distinct word once. A row keeps
    the bytes ``np.linalg.norm(axis=1)`` gives it."""

    def __init__(self, token_embedder: TokenEmbedder | None):
        super().__init__()
        self.embed = token_embedder or HashedTokenEmbedder()

    def fill(self, sentences: Sequence[_Sentence]) -> None:
        new = [w for w in dict.fromkeys(chain.from_iterable(s.words for s in sentences)) if w not in self]
        if new:
            e = np.array([self.embed(w) for w in new], dtype=np.float64)
            norms = np.sqrt(np.add.reduce(e * e, axis=1))
            if not norms.all():
                raise ValueError("token embedder produced a zero vector")
            self.update(zip(new, e / norms[:, None]))
        for s in sentences:
            s.unit_tokens = np.array([self[w] for w in s.words])


class _Sentence:
    """One sentence as the metrics read it: its words, split once; its
    encoder vector as a float64 row and the row's norm, from ``_encode``; and
    its unit token rows, from ``_WordTable.fill``. The sentences scored
    together are encoded in one call and share one word table."""

    def __init__(self, text: str):
        self.text = text
        self.words = normalize(text).split()
        self.row = self.norm = self.unit_tokens = None


def _encode(sentences: Sequence[_Sentence], encoder) -> None:
    """Give each sentence its vector row and norm, from one ``encode_many``
    call over the distinct texts."""
    texts = list(dict.fromkeys(s.text for s in sentences))
    rows = np.asarray(encoder.encode_many(texts), dtype=np.float64)
    normed = {t: with_norm(row) for t, row in zip(texts, rows)}
    for s in sentences:
        s.row, s.norm = normed[s.text]


def _bleu(c: int, matches: Sequence[int], r: int) -> float:
    """The one BLEU formula for a hypothesis of ``c`` words: ``matches[n - 1]``
    is its clip-limited order-n match count against its references, and ``r``
    their length closest to ``c`` (see ``_closest``)."""
    if c == 0:
        return 0.0
    log_sum = 0.0
    orders = range(1, min(len(matches), c) + 1)
    for n in orders:
        matched = matches[n - 1]
        if matched == 0:
            return 0.0
        log_sum += math.log(matched / (c - n + 1))
    geo = math.exp(log_sum / len(orders))
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return 100.0 * bp * geo


def _closest(ref_lengths: Iterable[int], c: int) -> int:
    """The reference length closest to ``c``, ties broken toward the shorter;
    the BLEU questions ask it once per distinct hypothesis length."""
    return min(ref_lengths, key=lambda L: (abs(L - c), L))


class _NgramTable:
    """The 1..max_n-gram counts of the sentences of one or more records, one
    entry per (sentence, gram): ``row`` is the sentence's index, ``gram`` the
    gram's id and ``count`` how often the gram occurs in that sentence.
    ``per_record`` gives how many sentences, in order, each record holds; by
    default they are all one record.

    Grams are told apart exactly: a word's id comes from its record's dict,
    which numbers the record's words in first-seen order after the previous
    record's ids, and an order-n gram's id is the dense rank of (its first
    n - 1 words' id, its last word's id), so no key outgrows int64 whatever
    max_n is, and no gram, and so no clip or top count, spans two records.
    Ids run order by order, so the entries sorted by (row, gram) fall into
    (row, order) runs. ``orders`` is the block's, but ``_bleu`` reads at most
    a hypothesis's own length of them, so a record scores as in a table of
    its own.
    """

    def __init__(self, sentences: Sequence[Sequence[str]], max_n: int,
                 per_record: Sequence[int] | None = None):
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        self.lengths = [len(w) for w in sentences]
        self.orders = min(max_n, max(self.lengths, default=0))
        words, first, distinct = [], 0, 0
        for size in per_record or [len(sentences)]:
            own = list(chain.from_iterable(sentences[first : first + size]))
            ids = dict(zip(dict.fromkeys(own), range(distinct, distinct + len(own))))
            words += map(ids.__getitem__, own)
            first, distinct = first + size, distinct + len(ids)
        word = np.array(words, np.int64)
        row = np.repeat(np.arange(len(sentences)), self.lengths)
        # words from each position to its sentence's end: no window crosses it
        left = np.repeat(np.cumsum(self.lengths), self.lengths) - np.arange(len(word))
        gram, rows, starts = [word], [row], [0]
        pos, prev, self.size = np.arange(len(word)), word, distinct
        for n in range(2, self.orders + 1):
            inside = left[pos] >= n
            pos = pos[inside]
            ids_n, prev = np.unique(prev[inside] * distinct + word[pos + n - 1], return_inverse=True)
            gram.append(prev + self.size)
            rows.append(row[pos])
            starts.append(self.size)
            self.size += len(ids_n)
        key = np.concatenate(rows) * self.size + np.concatenate(gram)
        key, self.count = np.unique(key, return_counts=True)
        self.row, self.gram = np.divmod(key, self.size)
        # where each (row, order) run starts, and the end: row m's first order
        firsts = np.add.outer(np.arange(len(sentences) + 1) * self.size, starts[: self.orders])
        self._bounds = np.searchsorted(key, firsts.ravel()[: len(sentences) * self.orders + 1])

    def _per_gram(self, ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
        """``ufunc`` over the entry ``values`` of each gram, from 0."""
        out = np.zeros(self.size, np.int64)
        ufunc.at(out, self.gram, values)
        return out

    def _matches(self, clip: np.ndarray) -> list[list[int]]:
        """Per row and order, the sum of ``clip`` (one value per entry)."""
        total = np.concatenate(([0], np.cumsum(clip)))[self._bounds]
        return np.diff(total).reshape(len(self.lengths), self.orders).tolist()

    def bleu(self, questions: Sequence[tuple[Sequence[int], Sequence[int]]]) -> list[list[float]]:
        """For each (hyps, refs) question, the BLEU of each hyps row against
        the refs rows: every gram is clipped at its largest count among the
        references. One clip pass answers them all, so each question's rows
        must come from a record that no other question reads."""
        if not all(refs for _, refs in questions):
            raise ValueError("empty reference list")
        is_ref = np.zeros(len(self.lengths), bool)
        is_ref[list(chain.from_iterable(refs for _, refs in questions))] = True
        top = self._per_gram(np.maximum, np.where(is_ref[self.row], self.count, 0))
        matches = self._matches(np.minimum(self.count, top[self.gram]))
        answers = []
        lengths = self.lengths
        for hyps, refs in questions:
            ref_lengths = [lengths[i] for i in refs]
            r = {c: _closest(ref_lengths, c) for c in {lengths[h] for h in hyps}}
            answers.append([_bleu(lengths[h], matches[h], r[lengths[h]]) for h in hyps])
        return answers

    def self_bleu(self, cand_sets: Sequence[Sequence[int]]) -> list[float]:
        """For each set of cands rows, the mean leave-one-out BLEU, one term
        per copy: a copy's clip count for a gram is the set's top count, or
        the second one where it holds the top itself (top == second when two
        copies hold it). One pass answers every set, so each set must come
        from a record that no other set reads."""
        if any(len(cands) < 2 for cands in cand_sets):
            raise ValueError("self_bleu needs at least 2 candidates")
        copies = np.bincount(list(chain.from_iterable(cand_sets)), minlength=len(self.lengths))[self.row]
        own = np.where(copies > 0, self.count, 0)
        top = self._per_gram(np.maximum, own)
        at_top = own == top[self.gram]
        second = self._per_gram(np.maximum, np.where(at_top, 0, own))
        second = np.where(self._per_gram(np.add, copies * at_top) > 1, top, second)
        matches = self._matches(np.where(self.count < top[self.gram], self.count, second[self.gram]))
        means = []
        for cands in cand_sets:
            # a closest reference length depends only on which lengths the other copies have
            lengths = [self.lengths[i] for i in cands]
            r = {c: _closest(set(lengths) - ({c} if lengths.count(c) == 1 else set()), c)
                 for c in set(lengths)}
            scores = {i: _bleu(self.lengths[i], matches[i], r[self.lengths[i]]) for i in set(cands)}
            means.append(float(np.mean([scores[i] for i in cands])))
        return means


def bleu(hypothesis: str, references: Sequence[str], max_n: int = DEFAULT_MAX_N) -> float:
    """Sentence-level BLEU with clipped n-gram precisions, no smoothing.

    Uses orders 1..min(max_n, len(hypothesis)) so a hypothesis shorter than
    max_n is scored over the orders it actually has; any zero precision among
    those orders gives 0. Brevity penalty uses the closest reference length
    (ties broken toward the shorter reference). Returns 0..100.
    """
    table = _NgramTable([_Sentence(t).words for t in (hypothesis, *references)], max_n)
    return table.bleu([([0], range(1, len(references) + 1))])[0][0]


def _pair_bleu(hyp: _Sentence, ref: _Sentence) -> float:
    return _NgramTable([hyp.words, ref.words], DEFAULT_MAX_N).bleu([([0], [1])])[0][0]


def ori_bleu(source: str, candidates: Sequence[str], max_n: int = DEFAULT_MAX_N) -> float:
    """Mean BLEU of each candidate against the source; high means copying."""
    if not candidates:
        raise ValueError("no candidates")
    table = _NgramTable([_Sentence(t).words for t in (source, *candidates)], max_n)
    return float(np.mean(table.bleu([(range(1, len(candidates) + 1), [0])])[0]))


def self_bleu(candidates: Sequence[str], max_n: int = DEFAULT_MAX_N) -> float:
    """Leave-one-out BLEU among candidates; high means low diversity."""
    table = _NgramTable([_Sentence(t).words for t in candidates], max_n)
    return table.self_bleu([range(len(candidates))])[0]


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    # bit-parallel LCS (Allison-Dix, as Hyyro writes it): after a prefix of a,
    # bit j of v is 0 where its LCS with b[: j + 1] exceeds that with b[:j]
    match: dict[str, int] = {}
    for j, y in enumerate(b):
        match[y] = match.get(y, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        u = v & match.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def _rouge_l(hypothesis: _Sentence, references: Sequence[_Sentence]) -> float:
    if not references:
        raise ValueError("empty reference list")
    hyp = hypothesis.words
    if not hyp:
        warnings.warn("rouge_l: hypothesis is empty after normalization")
        return 0.0
    best = 0.0
    for ref in references:
        r = ref.words
        if not r:
            continue
        lcs = _lcs_length(hyp, r)
        if lcs == 0:
            continue
        p = lcs / len(hyp)
        rec = lcs / len(r)
        best = max(best, 2.0 * p * rec / (p + rec))
    return 100.0 * best


def rouge_l(hypothesis: str, references: Sequence[str]) -> float:
    """LCS-based F1, maximized over references. Returns 0..100."""
    return _rouge_l(_Sentence(hypothesis), [_Sentence(r) for r in references])


def _token_match(a: _Sentence, b: _Sentence) -> float:
    if not a.words or not b.words:
        return 0.0
    # unit rows can still dot to 1 + a few ulp; keep scores in range
    sims = np.minimum(np.maximum(a.unit_tokens @ b.unit_tokens.T, -1.0), 1.0)
    p = max(0.0, float(np.add.reduce(np.maximum.reduce(sims, axis=1)) / len(a.words)))
    r = max(0.0, float(np.add.reduce(np.maximum.reduce(sims, axis=0)) / len(b.words)))
    if p + r == 0.0:
        return 0.0
    return 100.0 * 2.0 * p * r / (p + r)


def token_match_similarity(
    a: str, b: str, token_embedder: TokenEmbedder | None = None
) -> float:
    """Greedy token-matching F1 under a per-token embedder. Returns 0..100.

    Precision is the mean over a's tokens of the max cosine against b's
    tokens; recall is symmetric. Negative precision/recall is clamped to 0
    before the harmonic mean so the result stays in [0, 100].
    """
    pair = [_Sentence(a), _Sentence(b)]
    _WordTable(token_embedder).fill(pair)
    return _token_match(*pair)


def _sentence_cosine(a: _Sentence, b: _Sentence) -> float:
    return 100.0 * max(0.0, row_cosine(a.row, a.norm, b.row, b.norm))


def sentence_cosine_similarity(a: str, b: str, encoder) -> float:
    """Encoder cosine clamped at 0, scaled to 0..100."""
    pair = [_Sentence(a), _Sentence(b)]
    _encode(pair, encoder)
    return _sentence_cosine(*pair)


def ibleu_combine(semantic: float, b_bleu: float, beta: float) -> float:
    """Weighted-harmonic combination of semantic similarity and source novelty.

    Both inputs live on [0, 1]; the result is
    ((beta/semantic + 1/(1 - b_bleu)) / (beta + 1))^-1, with the limits
    semantic == 0 or b_bleu == 1 mapping to 0. Increasing in beta when
    semantic > 1 - b_bleu, decreasing when semantic < 1 - b_bleu.
    """
    POSITIVE.check("beta", beta)  # nan and inf combine to nan
    if not 0.0 <= semantic <= 1.0:
        raise ValueError(f"semantic similarity {semantic} outside [0, 1]")
    if not 0.0 <= b_bleu <= 1.0:
        raise ValueError(f"b_bleu {b_bleu} outside [0, 1]")
    if semantic == 0.0 or b_bleu == 1.0:
        return 0.0
    return (beta + 1.0) / (beta / semantic + 1.0 / (1.0 - b_bleu))


def _ibleu(semantic: float, source_bleu: float, beta: float) -> float:
    """ibleu_combine on the 0..100 scale of the semantic score and BLEU(best, source)."""
    return 100.0 * ibleu_combine(semantic / 100.0, source_bleu / 100.0, beta)


def bert_ibleu(
    source: str,
    best: str,
    beta: float = DEFAULT_BETA,
    token_embedder: TokenEmbedder | None = None,
) -> float:
    """Token-matching similarity combined with (1 - BLEU(best, source)). 0..100."""
    src, hyp = _Sentence(source), _Sentence(best)
    _WordTable(token_embedder).fill([src, hyp])
    return _ibleu(_token_match(src, hyp), _pair_bleu(hyp, src), beta)


def sbert_ibleu(source: str, best: str, encoder, beta: float = DEFAULT_BETA) -> float:
    """Sentence-cosine similarity combined with (1 - BLEU(best, source)). 0..100."""
    src, hyp = _Sentence(source), _Sentence(best)
    _encode([src, hyp], encoder)
    return _ibleu(_sentence_cosine(src, hyp), _pair_bleu(hyp, src), beta)


@dataclass(frozen=True)
class CalibrationResult:
    mean_token_sim: float
    mean_sentence_sim: float
    mean_bleu: float
    ratio_token: float
    ratio_sentence: float
    beta: int

    def to_dict(self) -> dict:
        return asdict(self)


def calibrate_beta_from_scores(
    token_scores: Sequence[float],
    sentence_scores: Sequence[float],
    bleu_scores: Sequence[float],
) -> CalibrationResult:
    """Pick beta from precomputed per-pair scores (0..100 scale).

    beta is the mean of the two semantic/bleu ratios rounded half-up to the
    nearest integer, floored at 1.
    """
    if not (len(token_scores) == len(sentence_scores) == len(bleu_scores)) or not token_scores:
        raise ValueError("score lists must be non-empty and equal-length")
    mean_token = float(np.mean(token_scores))
    mean_sentence = float(np.mean(sentence_scores))
    mean_bleu = float(np.mean(bleu_scores))
    if mean_bleu == 0.0:
        raise ValueError("mean bleu is 0; ratios undefined")
    ratio_token = mean_token / mean_bleu
    ratio_sentence = mean_sentence / mean_bleu
    beta = max(1, math.floor((ratio_token + ratio_sentence) / 2.0 + 0.5))
    return CalibrationResult(mean_token, mean_sentence, mean_bleu, ratio_token, ratio_sentence, beta)


def calibrate_beta(
    pairs: Sequence[tuple[str, str]],
    encoder,
    token_embedder: TokenEmbedder | None = None,
) -> CalibrationResult:
    """Measure (input, reference) pairs and choose beta from the score ratios."""
    if not pairs:
        raise ValueError("no calibration pairs")
    check_covered(encoder, chain.from_iterable(pairs))
    token_scores, sentence_scores, bleu_scores = [], [], []
    for inp, ref in pairs:
        # one encoder call and one word table for all three scores
        a, b = _Sentence(inp), _Sentence(ref)
        _WordTable(token_embedder).fill([a, b])
        _encode([a, b], encoder)
        token_scores.append(_token_match(a, b))
        sentence_scores.append(_sentence_cosine(a, b))
        bleu_scores.append(_pair_bleu(a, b))
    return calibrate_beta_from_scores(token_scores, sentence_scores, bleu_scores)


# column layout of the report table: (group label, metric names)
METRIC_GROUPS = (
    ("lexical diversity", ("oriBLEU", "selfBLEU")),
    ("lexical similarity", ("BLEU", "ROUGE-L")),
    ("fluency", ("fluency",)),
    ("semantic similarity", ("oriBERT", "oriSBERT", "BERT", "SBERT")),
    ("combined", ("BERT-iBLEU", "SBERT-iBLEU")),
)

METRIC_NAMES = tuple(name for _, names in METRIC_GROUPS for name in names)


@dataclass
class EvalConfig:
    """Knobs for evaluate_corpus; encoder (``encode_many`` and ``missing``) supplies
    the sentence-cosine side."""

    encoder: object = None
    token_embedder: TokenEmbedder | None = None
    beta: float = ranged(DEFAULT_BETA, POSITIVE)
    ref_reduce: str = ranged("mean", one_of(("mean", "max")))  # how BERT/SBERT aggregate refs
    strict: bool = True
    fluency: Mapping[str, float] | None = None  # sha256 hex of normalized sentence -> score

    def __post_init__(self):
        check_fields(self)


@dataclass
class MetricReport:
    rows: list[dict]
    means: dict[str, float | None]
    counts: dict[str, int]
    beta: float
    ref_reduce: str

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(
            {
                "means": self.means,
                "counts": self.counts,
                "beta": self.beta,
                "ref_reduce": self.ref_reduce,
                "rows": self.rows,
            },
            indent=indent,
        )

    def format_table(self) -> str:
        group_parts, header_parts, value_parts = [], [], []
        for group, names in METRIC_GROUPS:
            if group == "fluency" and self.means.get("fluency") is None:
                continue
            values = ["-" if self.means.get(n) is None else f"{self.means[n]:.2f}" for n in names]
            widths = [max(len(n), len(v)) for n, v in zip(names, values)]
            headers = "  ".join(n.rjust(w) for n, w in zip(names, widths))
            # a label wider than its columns widens the whole group
            width = max(len(group), len(headers))
            group_parts.append(group.center(width))
            header_parts.append(headers.rjust(width))
            value_parts.append("  ".join(v.rjust(w) for v, w in zip(values, widths)).rjust(width))
        skipped = self.counts["skipped"]
        return "\n".join([
            " | ".join(group_parts),
            " | ".join(header_parts),
            " | ".join(value_parts),
            f"records: {self.counts['evaluated']}" + (f", skipped: {skipped}" if skipped else ""),
        ])


def fluency_key(sentence: str) -> str:
    return sentence_key(sentence).hex()


def load_fluency_file(path: str) -> dict[str, float]:
    """Read external per-sentence fluency scores from JSONL."""
    return dict(read_jsonl(path, _fluency_entry))


def _fluency_entry(rec: dict) -> tuple[str, float]:
    key = rec["sentence_sha256"]
    # fluency_key's form: any other key could never match a sentence
    if not (isinstance(key, str) and len(key) == 64 and not key.strip("0123456789abcdef")):
        raise ValueError(f"sentence_sha256 must be 64 lowercase hex digits, got {key!r}")
    score = float(rec["fluency"])
    if not math.isfinite(score):
        raise ValueError(f"fluency must be a finite number, got {rec['fluency']!r}")
    return key, score


def _check_record(rec: dict) -> tuple[str, list[str], list[str], int | None]:
    if not isinstance(rec, dict):
        raise ValueError("record is not an object")
    source = rec.get("source")
    if not isinstance(source, str) or not source:
        raise ValueError("record needs a non-empty 'source' string")
    references = string_list(rec.get("references"), "references")
    if rec.get("candidates") is None:
        raise ValueError(f"no candidates for source: {source!r}")
    candidates = string_list(rec["candidates"], "candidates")
    best = rec.get("best")
    # bool is an int subclass; a JSON true is no index
    if best is not None and (
        isinstance(best, bool) or not (isinstance(best, int) and 0 <= best < len(candidates))
    ):
        raise ValueError(f"'best' index {best!r} out of range")
    return source, references, candidates, best


def _encoded_texts(source: str, references: list[str], candidates: list[str], best: int | None,
                   words: Callable[[str], list[str]] = lambda t: normalize(t).split()):
    """The texts that scoring a checked record encodes: the source, the
    references and the best candidate or, with no best, every candidate the
    selection scores (those with ``words``) and the first candidate, which is
    the best when no candidate scores above 0, even if it has no words."""
    yield source
    yield from references
    if best is not None:
        yield candidates[best]
    else:
        yield from [c for i, c in enumerate(candidates) if i == 0 or words(c)]


def _blocks(records: Iterable[tuple]) -> Iterator[list[tuple[tuple, list[_Sentence]]]]:
    """Each checked record with one sentence per distinct text, the source
    first, cut in order into blocks whose sentences hold at most WORD_BUDGET
    words; a record over the budget is a block alone."""
    block, words = [], 0
    for record in records:
        source, references, candidates, _ = record
        sentences = [_Sentence(t) for t in dict.fromkeys([source, *references, *candidates])]
        size = sum(len(s.words) for s in sentences)
        if block and words + size > WORD_BUDGET:
            yield block
            block, words = [], 0
        block.append((record, sentences))
        words += size
    if block:
        yield block


def _score_block(block: list[tuple[tuple, list[_Sentence]]], cfg: EvalConfig) -> list[dict]:
    """The rows of one block's records. The texts that ``_encoded_texts``
    names for the coverage check are encoded in one encoder call, the words
    of each source, best and reference are embedded in one word table, all
    the sentences share one n-gram table, and each kind of BLEU question
    (each candidate against the source, the best against the references, and
    selfBLEU) is answered for the whole block in one pass."""
    word_table = _WordTable(cfg.token_embedder)
    # rows_of holds each record's source row, reference rows and candidate rows
    sentences, rows_of, encoded = [], [], []
    for record, own in block:
        source, references, candidates, _ = record
        at = {s.text: len(sentences) + i for i, s in enumerate(own)}
        rows_of.append((at[source], [at[r] for r in references], [at[c] for c in candidates]))
        sentences += own
        # the words split once per sentence, so no text is normalized again
        encoded += [sentences[at[t]] for t in _encoded_texts(*record, lambda t: sentences[at[t]].words)]
    _encode(encoded, cfg.encoder)
    grams = _NgramTable([s.words for s in sentences], DEFAULT_MAX_N, [len(own) for _, own in block])
    # BLEU(candidate, source) once per candidate: oriBLEU, selection, combined
    src_bleus = grams.bleu([(cands, [src]) for src, _, cands in rows_of])
    bests = []
    for ((_, _, _, best_idx), _), (src, _, cands), src_bleu in zip(block, rows_of, src_bleus):
        if best_idx is None:
            scores = [
                0.0 if not sentences[c].words
                else _ibleu(_sentence_cosine(sentences[src], sentences[c]), b, cfg.beta)
                for c, b in zip(cands, src_bleu)
            ]
            best_idx = int(np.argmax(scores))
        bests.append(best_idx)
    word_table.fill([
        sentences[i] for (src, refs, cands), b in zip(rows_of, bests) for i in (src, cands[b], *refs)
    ])
    ref_bleus = grams.bleu([([cands[b]], refs) for (_, refs, cands), b in zip(rows_of, bests)])
    self_bleus = iter(grams.self_bleu([cands for _, _, cands in rows_of if len(cands) >= 2]))
    reduce_fn = np.mean if cfg.ref_reduce == "mean" else np.max
    rows = []
    for (src_row, ref_rows, cand_rows), best_idx, src_bleu, (ref_bleu,) in zip(
        rows_of, bests, src_bleus, ref_bleus
    ):
        src, best = sentences[src_row], sentences[cand_rows[best_idx]]
        refs = [sentences[i] for i in ref_rows]
        ori_bert, ori_sbert = _token_match(src, best), _sentence_cosine(src, best)
        rows.append({
            "source": src.text,
            "best": best_idx,
            "oriBLEU": float(np.mean(src_bleu)),
            "selfBLEU": next(self_bleus) if len(cand_rows) >= 2 else None,
            "BLEU": ref_bleu,
            "ROUGE-L": _rouge_l(best, refs),
            "oriBERT": ori_bert,
            "oriSBERT": ori_sbert,
            "BERT": float(reduce_fn([_token_match(best, r) for r in refs])),
            "SBERT": float(reduce_fn([_sentence_cosine(best, r) for r in refs])),
            "BERT-iBLEU": _ibleu(ori_bert, src_bleu[best_idx], cfg.beta),
            "SBERT-iBLEU": _ibleu(ori_sbert, src_bleu[best_idx], cfg.beta),
            "fluency": cfg.fluency.get(fluency_key(best.text)) if cfg.fluency else None,
        })
    return rows


def evaluate_corpus(records: Iterable[dict], cfg: EvalConfig) -> MetricReport:
    """Score generation records and aggregate the full metric table.

    Each record carries source, references, candidates, and optionally the
    selected candidate index; when 'best' is absent the candidate maximizing
    SBERT-iBLEU against the source is selected here by the pipeline's rule
    (a candidate that normalizes to nothing scores 0, ties go to the
    earliest). Records with a single candidate report selfBLEU as missing.
    Malformed records, records whose candidate set is missing
    ('candidates' absent or None), and records with a text the encoder has
    no vector for (``encoder.missing``), raise when cfg.strict, before any
    record is scored; otherwise they are skipped and counted.

    The checked records are scored in blocks of whole records (see
    ``_blocks``), each with one encoder call, one word table and one n-gram
    table; a record's row is the same as when it is scored alone.
    """
    if cfg.encoder is None:
        raise ValueError("EvalConfig.encoder is required")
    checked, skipped = [], 0
    for idx, rec in enumerate(records):
        try:
            record = _check_record(rec)
            check_covered(cfg.encoder, _encoded_texts(*record))
            checked.append(record)
        except ValueError as e:
            if cfg.strict:
                raise ValueError(f"record {idx}: {e}") from None
            skipped += 1
    rows = []
    for block in _blocks(checked):
        rows += _score_block(block, cfg)
    if not rows:
        raise ValueError("no evaluable records")
    means = {}
    for name in METRIC_NAMES:
        vals = [row[name] for row in rows if row[name] is not None]
        means[name] = float(np.mean(vals)) if vals else None
    counts = {
        "evaluated": len(rows),
        "skipped": skipped,
        "selfBLEU_missing": sum(1 for row in rows if row["selfBLEU"] is None),
        "fluency_missing": sum(1 for row in rows if row["fluency"] is None),
    }
    return MetricReport(rows=rows, means=means, counts=counts, beta=cfg.beta, ref_reduce=cfg.ref_reduce)
