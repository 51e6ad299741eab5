"""Sentence-embedding-conditioned causal LMs for paraphrase generation.

The toolkit trains a small autoregressive transformer whose position-0 input
is a frozen sentence embedding instead of the usual start marker, decodes
diverse candidates from it, and scores them with BLEU/ROUGE/embedding metrics
and the combined iBLEU family.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import (
    ParaphraseGroup,
    build_corpus,
    flatten_unsupervised,
    make_supervised_pairs,
    split_groups,
    split_sentences,
)
from .decoding import (
    BeamSearchConfig,
    Hypothesis,
    beam_search,
    diverse_beam_search,
    greedy_decode,
)
from .encoders import (
    FileBackedEncoder,
    HashedBagEncoder,
    HashedTokenEmbedder,
    cosine,
    read_embedding_file,
    write_embedding_file,
)
from .metrics import (
    CalibrationResult,
    EvalConfig,
    MetricReport,
    bert_ibleu,
    bleu,
    calibrate_beta,
    evaluate_corpus,
    ibleu_combine,
    ori_bleu,
    rouge_l,
    sbert_ibleu,
    self_bleu,
    sentence_cosine_similarity,
    token_match_similarity,
)
from .model import ModelConfig, TransformerLM
from .pipeline import CandidateSet, PipelineConfig, paraphrase, paraphrase_batch
from .tokenization import Vocabulary, build_vocabulary, load_vocabulary, normalize, save_vocabulary
from .training import AdamW, TrainConfig, TrainReport, evaluate_nll, lr_at_step, train

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "BeamSearchConfig",
    "CalibrationResult",
    "CandidateSet",
    "EvalConfig",
    "FileBackedEncoder",
    "HashedBagEncoder",
    "HashedTokenEmbedder",
    "Hypothesis",
    "MetricReport",
    "ModelConfig",
    "ParaphraseGroup",
    "PipelineConfig",
    "TrainConfig",
    "TrainReport",
    "TransformerLM",
    "Vocabulary",
    "beam_search",
    "bert_ibleu",
    "bleu",
    "build_corpus",
    "build_vocabulary",
    "calibrate_beta",
    "cosine",
    "diverse_beam_search",
    "evaluate_corpus",
    "evaluate_nll",
    "flatten_unsupervised",
    "greedy_decode",
    "ibleu_combine",
    "load_checkpoint",
    "load_vocabulary",
    "lr_at_step",
    "make_supervised_pairs",
    "normalize",
    "ori_bleu",
    "paraphrase",
    "paraphrase_batch",
    "read_embedding_file",
    "rouge_l",
    "save_checkpoint",
    "save_vocabulary",
    "sbert_ibleu",
    "self_bleu",
    "sentence_cosine_similarity",
    "split_groups",
    "split_sentences",
    "token_match_similarity",
    "train",
    "write_embedding_file",
]
