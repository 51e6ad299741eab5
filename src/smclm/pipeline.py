"""Paraphrase pipeline: encode, decode candidates, score, select."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from .decoding import BeamSearchConfig, diverse_beam_search
from .encoders import check_covered
from .jsonl import write_jsonl
from .metrics import DEFAULT_BETA, sbert_ibleu
from .model import POSITIVE, check_fields, ranged
from .tokenization import BOS_ID, PAD_ID, UNK_ID, Vocabulary, normalize

# ids a candidate never holds: detokenize drops <bos> and <pad>, and <unk>
# would read as the word "unk" in every metric
SPECIAL_IDS = frozenset({BOS_ID, PAD_ID, UNK_ID})


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
    """Decoding settings and the SBERT-iBLEU beta that selects the best candidate."""

    beam: BeamSearchConfig = field(default_factory=BeamSearchConfig)
    beta: float = ranged(DEFAULT_BETA, POSITIVE)

    def __post_init__(self):
        check_fields(self)


def paraphrase(model, vocab: Vocabulary, encoder, source: str, cfg: PipelineConfig) -> CandidateSet:
    """Generate candidates for one source and select the best.

    Selection maximizes SBERT-iBLEU against the source under the pipeline's
    encoder and beta; ties go to the earliest candidate, and a candidate equal
    to the source scores 0 through the combine limit. Candidates that
    detokenize to nothing score 0 without touching the encoder. The decoder
    never selects <bos>, <pad> or <unk>.
    """
    injection = encoder.encode(source)
    beam = replace(cfg.beam, banned_ids=cfg.beam.banned_ids | SPECIAL_IDS)
    hypotheses = diverse_beam_search(model, injection, beam)
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
    """paraphrase() over many sources, in order; the first failure raises.

    A source the encoder has no vector for raises before the first decode.
    """
    check_covered(encoder, sources)
    return [paraphrase(model, vocab, encoder, source, cfg) for source in sources]


def write_candidates_jsonl(sets: list[CandidateSet], path: str) -> None:
    write_jsonl((cs.to_dict() for cs in sets), path)
