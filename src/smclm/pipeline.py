"""Paraphrase pipeline: encode, decode candidates, score, select."""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

from .decoding import BeamSearchConfig, diverse_beam_search
from .jsonl import read_jsonl, write_jsonl
from .metrics import DEFAULT_BETA, sbert_ibleu
from .tokenization import Vocabulary, normalize

logger = logging.getLogger(__name__)


@dataclass
class CandidateSet:
    """Candidates for one source with their selection scores."""

    source: str
    candidates: list[str]
    scores: list[float]
    best: int

    def best_candidate(self) -> str:
        return self.candidates[self.best]

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class PipelineConfig:
    beam: BeamSearchConfig = field(default_factory=BeamSearchConfig)
    beta: float = DEFAULT_BETA
    skip_errors: bool = False  # batch mode: skip-and-log instead of fail-fast


def paraphrase(model, vocab: Vocabulary, encoder, source: str, cfg: PipelineConfig) -> CandidateSet:
    """Generate candidates for one source and select the best.

    Selection maximizes SBERT-iBLEU against the source under the pipeline's
    encoder and beta; ties go to the earliest candidate, and a candidate equal
    to the source scores 0 through the combine limit. Candidates that
    detokenize to nothing score 0 without touching the encoder.
    """
    injection = encoder.encode(source)
    hypotheses = diverse_beam_search(model, injection, cfg.beam)
    if not hypotheses:
        raise RuntimeError(f"decoder produced no hypotheses for {source!r}")
    candidates = [vocab.detokenize(h.tokens) for h in hypotheses]
    scores = [
        0.0 if not normalize(c) else sbert_ibleu(source, c, encoder, cfg.beta) for c in candidates
    ]
    best = max(range(len(scores)), key=lambda i: (scores[i], -i))
    return CandidateSet(source=source, candidates=candidates, scores=scores, best=best)


def paraphrase_batch(
    model, vocab: Vocabulary, encoder, sources: list[str], cfg: PipelineConfig
) -> list[CandidateSet]:
    """paraphrase() over many sources, order-preserving.

    Failures raise unless cfg.skip_errors, in which case the failing source is
    logged and dropped.
    """
    results = []
    for idx, source in enumerate(sources):
        try:
            results.append(paraphrase(model, vocab, encoder, source, cfg))
        except Exception as e:  # noqa: BLE001 - per-source isolation in batch mode
            if not cfg.skip_errors:
                raise
            logger.warning("skipping source %d (%r): %s", idx, source, e)
    return results


def write_candidates_jsonl(sets: list[CandidateSet], path: str) -> None:
    write_jsonl((cs.to_dict() for cs in sets), path)


def read_candidates_jsonl(path: str) -> list[dict]:
    return read_jsonl(path)
