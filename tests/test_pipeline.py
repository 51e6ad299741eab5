import numpy as np
import pytest

from smclm.decoding import BeamSearchConfig
from smclm.encoders import HashedBagEncoder
from smclm.metrics import sbert_ibleu
from smclm.pipeline import (
    CandidateSet,
    PipelineConfig,
    paraphrase,
    paraphrase_batch,
    read_candidates_jsonl,
    write_candidates_jsonl,
)
from smclm.tokenization import Vocabulary


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
    model = ScriptedModel(table, len(vocab))
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
        model = ScriptedModel({}, len(vocab))
        encoder = HashedBagEncoder(dim=16)
        cfg = PipelineConfig(
            beam=BeamSearchConfig(beam_count=2, group_count=2, max_length=4)
        )
        out = paraphrase(model, vocab, encoder, "the cat sat", cfg)
        assert all(c == "" for c in out.candidates)
        assert out.scores == [0.0, 0.0]
        assert out.best == 0


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

    def test_skip_errors_drops_and_logs(self, caplog):
        model, vocab, encoder, cfg = scripted_setup()
        cfg.skip_errors = True

        class Boom(HashedBagEncoder):
            def encode(self, sentence):
                if "dog" in sentence:
                    raise RuntimeError("boom")
                return super().encode(sentence)

        with caplog.at_level("WARNING", logger="smclm.pipeline"):
            outs = paraphrase_batch(
                model, vocab, Boom(dim=16), ["the cat sat", "the dog", "the cat sat"], cfg
            )
        assert [o.source for o in outs] == ["the cat sat", "the cat sat"]
        assert any("skipping source 1" in r.getMessage() for r in caplog.records)


class TestCandidateFiles:
    def test_round_trip(self, tmp_path):
        sets = [
            CandidateSet("a b", ["b a", "a b c"], [55.0, 40.0], 0),
            CandidateSet("x", ["y"], [10.0], 0),
        ]
        path = tmp_path / "cands.jsonl"
        write_candidates_jsonl(sets, str(path))
        records = read_candidates_jsonl(str(path))
        assert records == [s.to_dict() for s in sets]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        path.write_text('{"source": "a", "candidates": ["b"], "scores": [1.0], "best": 0}\n\n')
        assert len(read_candidates_jsonl(str(path))) == 1

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        path.write_text('{"source": "a"}\nnot json\n')
        with pytest.raises(ValueError, match=r"cands\.jsonl:2"):
            read_candidates_jsonl(str(path))
