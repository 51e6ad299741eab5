"""Paraphrase evaluation metrics: lexical, semantic, and the combined iBLEU family.

Everything is computed internally on [0, 1] and reported scaled by 100.
Lexical metrics share the normalize()/whitespace word unit from tokenization
and never touch a model vocabulary.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .encoders import HashedTokenEmbedder, cosine, sentence_key
from .jsonl import read_jsonl
from .tokenization import normalize, words

DEFAULT_BETA = 2.0
DEFAULT_MAX_N = 3


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypothesis: str, references: Sequence[str], max_n: int = DEFAULT_MAX_N) -> float:
    """Sentence-level BLEU with clipped n-gram precisions, no smoothing.

    Uses orders 1..min(max_n, len(hypothesis)) so a hypothesis shorter than
    max_n is scored over the orders it actually has; any zero precision among
    those orders gives 0. Brevity penalty uses the closest reference length
    (ties broken toward the shorter reference). Returns 0..100.
    """
    if not references:
        raise ValueError("empty reference list")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    hyp = words(hypothesis)
    refs = [words(r) for r in references]
    c = len(hyp)
    if c == 0:
        return 0.0
    log_sum = 0.0
    orders = range(1, min(max_n, c) + 1)
    for n in orders:
        hyp_counts = _ngram_counts(hyp, n)
        ref_counts = [_ngram_counts(r, n) for r in refs]
        clipped = sum(
            min(cnt, max(rc[gram] for rc in ref_counts)) for gram, cnt in hyp_counts.items()
        )
        total = c - n + 1
        if clipped == 0:
            return 0.0
        log_sum += math.log(clipped / total)
    geo = math.exp(log_sum / len(orders))
    r = min((len(r) for r in refs), key=lambda L: (abs(L - c), L))
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return 100.0 * bp * geo


def ori_bleu(source: str, candidates: Sequence[str], max_n: int = DEFAULT_MAX_N) -> float:
    """Mean BLEU of each candidate against the source; high means copying."""
    if not candidates:
        raise ValueError("no candidates")
    return float(np.mean([bleu(c, [source], max_n) for c in candidates]))


def self_bleu(candidates: Sequence[str], max_n: int = DEFAULT_MAX_N) -> float:
    """Leave-one-out BLEU among candidates; high means low diversity."""
    if len(candidates) < 2:
        raise ValueError("self_bleu needs at least 2 candidates")
    scores = []
    for i, cand in enumerate(candidates):
        others = [c for j, c in enumerate(candidates) if j != i]
        scores.append(bleu(cand, others, max_n))
    return float(np.mean(scores))


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    # standard O(len(a)*len(b)) DP, two rolling rows
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(hypothesis: str, references: Sequence[str]) -> float:
    """LCS-based F1, maximized over references. Returns 0..100."""
    if not references:
        raise ValueError("empty reference list")
    hyp = words(hypothesis)
    if not hyp:
        warnings.warn("rouge_l: hypothesis is empty after normalization")
        return 0.0
    best = 0.0
    for ref in references:
        r = words(ref)
        if not r:
            continue
        lcs = _lcs_length(hyp, r)
        if lcs == 0:
            continue
        p = lcs / len(hyp)
        rec = lcs / len(r)
        best = max(best, 2.0 * p * rec / (p + rec))
    return 100.0 * best


def token_match_similarity(
    a: str, b: str, token_embedder: Callable[[str], np.ndarray] | None = None
) -> float:
    """Greedy token-matching F1 under a per-token embedder. Returns 0..100.

    Precision is the mean over a's tokens of the max cosine against b's
    tokens; recall is symmetric. Negative precision/recall is clamped to 0
    before the harmonic mean so the result stays in [0, 100].
    """
    embed = token_embedder or HashedTokenEmbedder()
    ta, tb = words(a), words(b)
    if not ta or not tb:
        return 0.0
    ea = np.stack([np.asarray(embed(t), dtype=np.float64) for t in ta])
    eb = np.stack([np.asarray(embed(t), dtype=np.float64) for t in tb])
    na = np.linalg.norm(ea, axis=1, keepdims=True)
    nb = np.linalg.norm(eb, axis=1, keepdims=True)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise ValueError("token embedder produced a zero vector")
    # normalized rows can still dot to 1 + a few ulp; keep scores in range
    sims = np.clip((ea / na) @ (eb / nb).T, -1.0, 1.0)
    p = max(0.0, float(np.mean(np.max(sims, axis=1))))
    r = max(0.0, float(np.mean(np.max(sims, axis=0))))
    if p + r == 0.0:
        return 0.0
    return 100.0 * 2.0 * p * r / (p + r)


def sentence_cosine_similarity(a: str, b: str, encoder) -> float:
    """Encoder cosine clamped at 0, scaled to 0..100."""
    return 100.0 * max(0.0, cosine(encoder.encode(a), encoder.encode(b)))


def ibleu_combine(semantic: float, b_bleu: float, beta: float) -> float:
    """Weighted-harmonic combination of semantic similarity and source novelty.

    Both inputs live on [0, 1]; the result is
    ((beta/semantic + 1/(1 - b_bleu)) / (beta + 1))^-1, with the limits
    semantic == 0 or b_bleu == 1 mapping to 0. Increasing in beta when
    semantic > 1 - b_bleu, decreasing when semantic < 1 - b_bleu.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    if not 0.0 <= semantic <= 1.0:
        raise ValueError(f"semantic similarity {semantic} outside [0, 1]")
    if not 0.0 <= b_bleu <= 1.0:
        raise ValueError(f"b_bleu {b_bleu} outside [0, 1]")
    if semantic == 0.0 or b_bleu == 1.0:
        return 0.0
    return (beta + 1.0) / (beta / semantic + 1.0 / (1.0 - b_bleu))


def bert_ibleu(
    source: str,
    best: str,
    beta: float = DEFAULT_BETA,
    token_embedder: Callable[[str], np.ndarray] | None = None,
) -> float:
    """Token-matching similarity combined with (1 - BLEU(best, source)). 0..100."""
    semantic = token_match_similarity(source, best, token_embedder) / 100.0
    b = bleu(best, [source]) / 100.0
    return 100.0 * ibleu_combine(semantic, b, beta)


def sbert_ibleu(source: str, best: str, encoder, beta: float = DEFAULT_BETA) -> float:
    """Sentence-cosine similarity combined with (1 - BLEU(best, source)). 0..100."""
    semantic = sentence_cosine_similarity(source, best, encoder) / 100.0
    b = bleu(best, [source]) / 100.0
    return 100.0 * ibleu_combine(semantic, b, beta)


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
    token_embedder: Callable[[str], np.ndarray] | None = None,
) -> CalibrationResult:
    """Measure (input, reference) pairs and choose beta from the score ratios."""
    if not pairs:
        raise ValueError("no calibration pairs")
    token_scores = [token_match_similarity(inp, ref, token_embedder) for inp, ref in pairs]
    sentence_scores = [sentence_cosine_similarity(inp, ref, encoder) for inp, ref in pairs]
    bleu_scores = [bleu(inp, [ref]) for inp, ref in pairs]
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
    """Knobs for evaluate_corpus; encoder supplies the sentence-cosine side."""

    encoder: object = None
    token_embedder: Callable[[str], np.ndarray] | None = None
    beta: float = DEFAULT_BETA
    ref_reduce: str = "mean"  # or "max": how BERT/SBERT aggregate references
    strict: bool = True
    fluency: Mapping[str, float] | None = None  # sha256 hex of normalized sentence -> score

    def __post_init__(self):
        if self.ref_reduce not in ("mean", "max"):
            raise ValueError("ref_reduce must be 'mean' or 'max'")


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
        groups = [(g, names) for g, names in METRIC_GROUPS if g != "fluency" or self._has_fluency()]
        cells = []
        for _, names in groups:
            for name in names:
                v = self.means.get(name)
                cells.append((name, "-" if v is None else f"{v:.2f}"))
        widths = [max(len(n), len(v)) for n, v in cells]
        header_parts, value_parts, group_parts = [], [], []
        i = 0
        for g, names in groups:
            span = sum(widths[i + k] for k in range(len(names))) + 2 * (len(names) - 1)
            group_parts.append(g.center(span))
            for k in range(len(names)):
                header_parts.append(cells[i + k][0].rjust(widths[i + k]))
                value_parts.append(cells[i + k][1].rjust(widths[i + k]))
            i += len(names)
        lines = [
            " | ".join(group_parts),
            " | ".join("  ".join(header_parts[i:j]) for i, j in _group_slices(groups)),
            " | ".join("  ".join(value_parts[i:j]) for i, j in _group_slices(groups)),
            f"records: {self.counts['evaluated']}"
            + (f", skipped: {self.counts['skipped']}" if self.counts["skipped"] else ""),
        ]
        return "\n".join(lines)

    def _has_fluency(self) -> bool:
        return self.means.get("fluency") is not None


def _group_slices(groups) -> list[tuple[int, int]]:
    out, i = [], 0
    for _, names in groups:
        out.append((i, i + len(names)))
        i += len(names)
    return out


def fluency_key(sentence: str) -> str:
    return sentence_key(sentence).hex()


def load_fluency_file(path: str) -> dict[str, float]:
    """Read external per-sentence fluency scores from JSONL."""
    return dict(read_jsonl(path, lambda rec: (rec["sentence_sha256"], float(rec["fluency"]))))


def _check_record(rec: dict) -> tuple[str, list[str], list[str], int | None]:
    if not isinstance(rec, dict):
        raise ValueError("record is not an object")
    source = rec.get("source")
    references = rec.get("references")
    candidates = rec.get("candidates")
    if not isinstance(source, str) or not source:
        raise ValueError("record needs a non-empty 'source' string")
    if not isinstance(references, list) or not references or not all(isinstance(r, str) for r in references):
        raise ValueError("record needs a non-empty 'references' list of strings")
    if not isinstance(candidates, list) or not candidates or not all(isinstance(c, str) for c in candidates):
        raise ValueError("record needs a non-empty 'candidates' list of strings")
    best = rec.get("best")
    if best is not None and not (isinstance(best, int) and 0 <= best < len(candidates)):
        raise ValueError(f"'best' index {best!r} out of range")
    return source, references, candidates, best


def evaluate_corpus(records: Iterable[dict], cfg: EvalConfig) -> MetricReport:
    """Score generation records and aggregate the full metric table.

    Each record carries source, references, candidates, and optionally the
    selected candidate index; when 'best' is absent the candidate maximizing
    SBERT-iBLEU against the source is selected here. Records with a single
    candidate report selfBLEU as missing. Malformed records raise when
    cfg.strict, otherwise they are skipped and counted.
    """
    if cfg.encoder is None:
        raise ValueError("EvalConfig.encoder is required")
    reduce_fn = np.mean if cfg.ref_reduce == "mean" else np.max
    rows = []
    skipped = 0
    for idx, rec in enumerate(records):
        try:
            source, references, candidates, best_idx = _check_record(rec)
        except ValueError as e:
            if cfg.strict:
                raise ValueError(f"record {idx}: {e}") from None
            skipped += 1
            continue
        if best_idx is None:
            scores = [sbert_ibleu(source, c, cfg.encoder, cfg.beta) for c in candidates]
            best_idx = int(np.argmax(scores))
        best = candidates[best_idx]
        row = {
            "source": source,
            "best": best_idx,
            "oriBLEU": ori_bleu(source, candidates),
            "selfBLEU": self_bleu(candidates) if len(candidates) >= 2 else None,
            "BLEU": bleu(best, references),
            "ROUGE-L": rouge_l(best, references),
            "oriBERT": token_match_similarity(source, best, cfg.token_embedder),
            "oriSBERT": sentence_cosine_similarity(source, best, cfg.encoder),
            "BERT": float(
                reduce_fn([token_match_similarity(best, r, cfg.token_embedder) for r in references])
            ),
            "SBERT": float(
                reduce_fn([sentence_cosine_similarity(best, r, cfg.encoder) for r in references])
            ),
            "BERT-iBLEU": bert_ibleu(source, best, cfg.beta, cfg.token_embedder),
            "SBERT-iBLEU": sbert_ibleu(source, best, cfg.encoder, cfg.beta),
            "fluency": cfg.fluency.get(fluency_key(best)) if cfg.fluency else None,
        }
        rows.append(row)
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
