import numpy as np
import pytest

from oracles import Recompute
from smclm import pipeline
from smclm.decoding import BeamSearchConfig
from smclm.encoders import HashedBagEncoder
from smclm.jsonl import read_jsonl
from smclm.metrics import EvalConfig, evaluate_corpus, sbert_ibleu
from smclm.model import ModelConfig, TransformerLM
from smclm.pipeline import (
    CandidateSet,
    PipelineConfig,
    paraphrase,
    paraphrase_batch,
    write_candidates_jsonl,
)
from smclm.tokenization import BOS_ID, PAD_ID, UNK_ID, Vocabulary


class ScriptedModel:
    """Next-token logits looked up by prefix; unknown prefixes favor eos."""

    def __init__(self, table, vocab_size):
        self.table = {tuple(k): np.asarray(v, dtype=np.float64) for k, v in table.items()}
        self.vocab_size = vocab_size

    def forward(self, tokens, injection=None):
        row = self.table.get(tuple(tokens))
        if row is None:
            row = np.full(self.vocab_size, -10.0)
            row[1] = 0.0  # eos
        return np.tile(row, (max(len(tokens) + 1, 1), 1))


def make_vocab():
    # ids: 0..3 specials, then sorted content words
    return Vocabulary(
        ["<bos>", "<eos>", "<unk>", "<pad>", "cat", "dog", "sat", "slept", "the"]
    )


def scripted_setup():
    """A model that deterministically emits two distinct candidates.

    Group 0 follows "the cat sat"; the diversity penalty pushes group 1 onto
    "the cat slept". Vocabulary ids: cat=4 dog=5 sat=6 slept=7 the=8.
    """
    vocab = make_vocab()
    table = {
        (): [-9, -9, -9, -9, -9, -9, -9, -9, 0],
        (8,): [-9, -9, -9, -9, 0, -9, -9, -9, -9],
        (8, 4): [-9, -9, -9, -9, -9, -9, 0.0, -0.3, -9],
        (8, 4, 6): [-9, 0, -9, -9, -9, -9, -9, -9, -9],
        (8, 4, 7): [-9, 0, -9, -9, -9, -9, -9, -9, -9],
    }
    model = Recompute(ScriptedModel(table, len(vocab)))
    encoder = HashedBagEncoder(dim=16)
    beam = BeamSearchConfig(
        beam_count=2, group_count=2, diversity_strength=0.6, no_repeat_ngram=0, max_length=6
    )
    return model, vocab, encoder, PipelineConfig(beam=beam)


class TestParaphrase:
    def test_candidates_and_selection(self):
        model, vocab, encoder, cfg = scripted_setup()
        out = paraphrase(model, vocab, encoder, "the cat sat", cfg)
        assert out.candidates == ["the cat sat", "the cat slept"]
        # the verbatim copy scores 0, so the variant wins
        assert out.scores[0] == pytest.approx(0.0)
        assert out.scores[1] == pytest.approx(
            sbert_ibleu("the cat sat", "the cat slept", encoder, cfg.beta)
        )
        assert out.best == 1
        assert out.best_candidate() == "the cat slept"

    def test_tie_goes_to_earliest(self):
        model, vocab, encoder, cfg = scripted_setup()
        out = paraphrase(model, vocab, encoder, "the dog", cfg)
        # neither candidate matches the source; both copy each other's score
        # only if equal, otherwise max; either way best must be the argmax
        # with the lowest index among equals
        top = max(out.scores)
        assert out.best == out.scores.index(top)

    def test_empty_candidate_scores_zero(self):
        vocab = make_vocab()
        # the model emits eos immediately in every group: empty candidates
        model = Recompute(ScriptedModel({}, len(vocab)))
        encoder = HashedBagEncoder(dim=16)
        cfg = PipelineConfig(
            beam=BeamSearchConfig(beam_count=2, group_count=2, max_length=4)
        )
        out = paraphrase(model, vocab, encoder, "the cat sat", cfg)
        assert all(c == "" for c in out.candidates)
        assert out.scores == [0.0, 0.0]
        assert out.best == 0


class TestSpecialTokens:
    def test_no_special_id_in_any_hypothesis(self, monkeypatch):
        # the final layer norm outputs one vector v at every position, so the
        # tied head ranks <unk>, then <pad>, then <bos> far above every word
        vocab = make_vocab()
        model = TransformerLM(ModelConfig(vocab_size=len(vocab), embed_dim=16, layer_count=1,
                                          head_count=2, ff_dim=24, max_positions=12, seed=3))
        v = np.random.default_rng(5).normal(size=16).astype(np.float32)
        model.params["lnf_g"][:] = 0.0
        model.params["lnf_b"][:] = v
        for scale, special in zip((3, 2, 1), (UNK_ID, PAD_ID, BOS_ID)):
            model.params["tok_emb"][special] = scale * v
        decoded = []
        decode = pipeline.diverse_beam_search

        def keep(*args):
            decoded.append(decode(*args))
            return decoded[-1]

        monkeypatch.setattr(pipeline, "diverse_beam_search", keep)
        cfg = PipelineConfig(beam=BeamSearchConfig(beam_count=4, group_count=2, max_length=6))
        out = paraphrase(model, vocab, HashedBagEncoder(dim=16), "the cat sat", cfg)
        tokens = [w for h in decoded[0] for w in h.tokens]
        assert tokens and not {BOS_ID, PAD_ID, UNK_ID} & set(tokens)
        assert all("<unk>" not in c for c in out.candidates)
        assert cfg.beam.banned_ids == frozenset()  # the caller's config is not changed


@pytest.mark.parametrize("beta", [0.0, float("nan"), float("inf")])
def test_pipeline_config_rejects_a_beta_that_cannot_select(beta):
    # beta 0 used to fail only after the first source was decoded
    with pytest.raises(ValueError, match="beta must be finite and > 0"):
        PipelineConfig(beta=beta)


class TestSelectionMatchesEvaluate:
    def test_same_best_and_score_as_evaluate_corpus(self):
        # the pipeline and evaluate_corpus each hold a copy of the selection
        # rule; evaluating a record without "best" must pick what paraphrase did
        words = "the a cat dog sat ran on under mat rug big small red old".split()
        vocab = Vocabulary(["<bos>", "<eos>", "<unk>", "<pad>", *words])
        model = TransformerLM(
            ModelConfig(vocab_size=len(vocab), embed_dim=16, layer_count=1, head_count=2,
                        ff_dim=24, max_positions=10, seed=5)
        )
        encoder = HashedBagEncoder(dim=16)
        beam = BeamSearchConfig(beam_count=6, group_count=3, no_repeat_ngram=2, max_length=8)
        cfg = PipelineConfig(beam=beam, beta=3.0)
        sources = ["the cat sat on the mat", "a dog ran under the rug", "the big red cat",
                   "a small old dog sat", "the mat"]
        sets = paraphrase_batch(model, vocab, encoder, sources, cfg)
        records = [
            {"source": cs.source, "references": [cs.source], "candidates": cs.candidates}
            for cs in sets
        ]
        report = evaluate_corpus(records, EvalConfig(encoder=encoder, beta=cfg.beta))
        assert [row["best"] for row in report.rows] == [cs.best for cs in sets]
        assert [row["SBERT-iBLEU"] for row in report.rows] == [cs.scores[cs.best] for cs in sets]
        # the rule is exercised: the candidates of a source do not all tie
        assert all(len(set(cs.scores)) > 1 for cs in sets)


class TestParaphraseBatch:
    def test_order_preserved(self):
        model, vocab, encoder, cfg = scripted_setup()
        sources = ["the cat sat", "the dog", "the cat sat"]
        outs = paraphrase_batch(model, vocab, encoder, sources, cfg)
        assert [o.source for o in outs] == sources

    def test_fail_fast_by_default(self):
        model, vocab, encoder, cfg = scripted_setup()

        class Boom(HashedBagEncoder):
            def encode(self, sentence):
                if "dog" in sentence:
                    raise RuntimeError("boom")
                return super().encode(sentence)

        with pytest.raises(RuntimeError, match="boom"):
            paraphrase_batch(model, vocab, Boom(dim=16), ["the cat sat", "the dog"], cfg)


class TestCandidateFiles:
    def test_round_trip(self, tmp_path):
        sets = [
            CandidateSet("a b", ["b a", "a b c"], [55.0, 40.0], 0),
            CandidateSet("x", ["y"], [10.0], 0),
        ]
        path = tmp_path / "cands.jsonl"
        write_candidates_jsonl(sets, str(path))
        records = read_jsonl(str(path))
        assert records == [s.to_dict() for s in sets]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        path.write_text('{"source": "a", "candidates": ["b"], "scores": [1.0], "best": 0}\n\n')
        assert len(read_jsonl(str(path))) == 1

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        path.write_text('{"source": "a"}\nnot json\n')
        with pytest.raises(ValueError, match=r"cands\.jsonl:2"):
            read_jsonl(str(path))
