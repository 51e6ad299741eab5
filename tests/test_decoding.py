import math

import numpy as np
import pytest
from scipy.special import logsumexp

from smclm.decoding import (
    BeamSearchConfig,
    Hypothesis,
    banned_next_tokens,
    beam_search,
    diverse_beam_search,
    greedy_decode,
)
from smclm.model import ModelConfig, TransformerLM


class RowModel:
    """Context-independent next-token logits so scores can be hand-computed."""

    def __init__(self, row):
        self.row = np.asarray(row, dtype=np.float64)

    def forward(self, tokens, injection=None):
        rows = len(tokens) + (1 if injection is not None else 0)
        return np.tile(self.row, (max(rows, 1), 1))


def random_model(seed):
    cfg = ModelConfig(
        vocab_size=13,
        embed_dim=16,
        layer_count=1,
        head_count=2,
        ff_dim=24,
        max_positions=12,
        seed=seed,
    )
    return TransformerLM(cfg)


def next_lp(model, prefix, injection):
    if injection is None:
        logits = model.forward([0] + list(prefix))
    else:
        logits = model.forward(list(prefix), injection)
    z = logits[-1].astype(np.float64)
    return z - logsumexp(z)


def reference_dbs(model, injection, cfg: BeamSearchConfig):
    """Straight-line reimplementation of the documented selection rules."""
    per_group = cfg.beam_count // cfg.group_count
    groups = [[((), 0.0, 0.0)] for _ in range(cfg.group_count)]  # (tokens, lp, sel)
    done: list[list[tuple[tuple, float]]] = [[] for _ in range(cfg.group_count)]
    for _ in range(cfg.max_length):
        if not any(groups):
            break
        used: dict[int, int] = {}
        for g in range(cfg.group_count):
            if not groups[g]:
                continue
            cands = []
            for bi, (toks, lp_sum, sel) in enumerate(groups[g]):
                lp = next_lp(model, toks, injection)
                banned = banned_next_tokens(toks, cfg.no_repeat_ngram)
                for w in range(lp.shape[0]):
                    if w in banned:
                        continue
                    pen = cfg.diversity_strength * used.get(w, 0)
                    cands.append((sel + lp[w] - pen, w, len(toks), bi, lp[w]))
            cands.sort(key=lambda c: (-c[0], c[1], c[2], c[3]))
            survivors = []
            for score, w, _, bi, lpw in cands[:per_group]:
                toks, lp_sum, _ = groups[g][bi]
                grown = toks + (w,)
                used[w] = used.get(w, 0) + 1
                if w == cfg.eos_id:
                    done[g].append((grown, lp_sum + lpw))
                else:
                    survivors.append((grown, lp_sum + lpw, score))
            groups[g] = survivors
    out = []
    for g in range(cfg.group_count):
        pool = done[g] + [(toks, lp_sum) for toks, lp_sum, _ in groups[g]]
        ranked = sorted(
            enumerate(pool),
            key=lambda p: (
                -(p[1][1] / max(1, len(p[1][0])) ** cfg.length_alpha),
                len(p[1][0]),
                p[0],
            ),
        )
        out.extend((g, toks, lp_sum) for _, (toks, lp_sum) in ranked[:per_group])
    return out


class TestConfig:
    def test_defaults(self):
        cfg = BeamSearchConfig()
        assert (cfg.beam_count, cfg.group_count) == (5, 5)
        assert cfg.diversity_strength == 0.6
        assert cfg.no_repeat_ngram == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="divisible"):
            BeamSearchConfig(beam_count=5, group_count=2)
        with pytest.raises(ValueError):
            BeamSearchConfig(beam_count=0, group_count=1)
        with pytest.raises(ValueError):
            BeamSearchConfig(diversity_strength=-0.1)
        with pytest.raises(ValueError):
            BeamSearchConfig(max_length=0)


class TestBannedNextTokens:
    def test_bigram(self):
        assert banned_next_tokens((5, 6, 5), 2) == {6}
        assert banned_next_tokens((5, 6, 7, 5), 2) == {6}
        assert banned_next_tokens((5,), 2) == set()

    def test_unigram_bans_everything_seen(self):
        assert banned_next_tokens((3, 4), 1) == {3, 4}
        assert banned_next_tokens((), 1) == set()

    def test_trigram(self):
        assert banned_next_tokens((1, 2, 3, 1, 2), 3) == {3}
        assert banned_next_tokens((1, 2, 3, 4), 3) == set()

    def test_disabled(self):
        assert banned_next_tokens((1, 1, 1), 0) == set()


class TestGreedy:
    def test_repeats_argmax_until_cap(self):
        m = RowModel([1.0, 0.7, 0.0])
        assert greedy_decode(m, None, max_length=4, eos_id=2) == [0, 0, 0, 0]

    def test_stops_at_eos_and_drops_it(self):
        m = RowModel([0.5, 0.0, 1.0])
        assert greedy_decode(m, None, max_length=4, eos_id=2) == []

    def test_argmax_tie_takes_lowest_id(self):
        m = RowModel([0.0, 0.0, -1.0, -1.0])
        assert greedy_decode(m, None, max_length=2, eos_id=3) == [0, 0]

    def test_matches_width_one_beam_on_random_models(self):
        rng = np.random.default_rng(11)
        for seed in range(8):
            model = random_model(seed)
            inj = None
            if seed % 2:
                v = rng.normal(size=16)
                inj = (v / np.linalg.norm(v)).astype(np.float32)
            got = greedy_decode(model, inj, max_length=6)
            top = beam_search(model, inj, beam_count=1, max_length=6)[0]
            want = top.tokens
            if want and want[-1] == 1:
                want = want[:-1]
            assert tuple(got) == want, seed


class TestHandComputedDiverseBeam:
    def test_penalty_flips_second_group(self):
        # constant logits (1.0, 0.7, eos 0.0): the 0.3 gap between tokens 0
        # and 1 is smaller than strength 0.6, so after group 0 takes token 0
        # group 1 must prefer token 1, at both timesteps
        m = RowModel([1.0, 0.7, 0.0])
        cfg = BeamSearchConfig(
            beam_count=2,
            group_count=2,
            diversity_strength=0.6,
            no_repeat_ngram=0,
            max_length=2,
            eos_id=2,
        )
        hyps = diverse_beam_search(m, None, cfg)
        lse = math.log(math.exp(1.0) + math.exp(0.7) + 1.0)
        assert [h.tokens for h in hyps] == [(0, 0), (1, 1)]
        assert [h.group for h in hyps] == [0, 1]
        assert hyps[0].log_prob == pytest.approx(2 * (1.0 - lse), abs=1e-12)
        # log_prob carries no penalty, only the model log-probabilities
        assert hyps[1].log_prob == pytest.approx(2 * (0.7 - lse), abs=1e-12)

    def test_zero_strength_collapses_groups(self):
        m = RowModel([1.0, 0.7, 0.0])
        cfg = BeamSearchConfig(
            beam_count=2,
            group_count=2,
            diversity_strength=0.0,
            no_repeat_ngram=0,
            max_length=2,
            eos_id=2,
        )
        hyps = diverse_beam_search(m, None, cfg)
        assert [h.tokens for h in hyps] == [(0, 0), (0, 0)]

    def test_eos_selection_counts_toward_penalty(self):
        # eos is the argmax; group 0 finishes immediately and that choice
        # penalizes eos for group 1 (gap 0.5 < 0.6), which then emits a
        # token before finishing a step later
        m = RowModel([0.5, 0.0, 1.0])
        cfg = BeamSearchConfig(
            beam_count=2,
            group_count=2,
            diversity_strength=0.6,
            no_repeat_ngram=0,
            max_length=3,
            eos_id=2,
        )
        hyps = diverse_beam_search(m, None, cfg)
        lse = math.log(math.exp(0.5) + 1.0 + math.exp(1.0))
        assert [h.tokens for h in hyps] == [(2,), (0, 2)]
        assert all(h.finished for h in hyps)
        assert hyps[0].log_prob == pytest.approx(1.0 - lse, abs=1e-12)
        assert hyps[1].log_prob == pytest.approx(1.5 - 2 * lse, abs=1e-12)

    def test_unigram_constraint_forces_distinct_walk(self):
        m = RowModel([3.0, 2.0, 1.0, 0.0])
        hyps = beam_search(m, None, beam_count=1, max_length=8, no_repeat_ngram=1, eos_id=3)
        assert hyps[0].tokens == (0, 1, 2, 3)
        assert hyps[0].finished

    def test_all_equal_logits_tie_breaks(self):
        m = RowModel([0.0, 0.0, 0.0, 0.0])
        hyps = beam_search(m, None, beam_count=2, max_length=2, eos_id=3)
        # ties resolve to lower token ids, then earlier parent beams
        assert [h.tokens for h in hyps] == [(0, 0), (1, 0)]


class TestAgainstReference:
    CONFIGS = [
        dict(beam_count=4, group_count=1, diversity_strength=0.0, no_repeat_ngram=0),
        dict(beam_count=4, group_count=2, diversity_strength=0.6, no_repeat_ngram=0),
        dict(beam_count=4, group_count=4, diversity_strength=0.6, no_repeat_ngram=2),
        dict(beam_count=6, group_count=3, diversity_strength=1.5, no_repeat_ngram=2),
        dict(beam_count=5, group_count=5, diversity_strength=0.6, no_repeat_ngram=2),
        dict(beam_count=4, group_count=2, diversity_strength=0.6, no_repeat_ngram=2, length_alpha=0.6),
    ]

    def test_matches_independent_implementation(self):
        rng = np.random.default_rng(23)
        for seed in range(10):
            model = random_model(100 + seed)
            inj = None
            if seed % 2:
                v = rng.normal(size=16)
                inj = (v / np.linalg.norm(v)).astype(np.float32)
            for kw in self.CONFIGS:
                cfg = BeamSearchConfig(max_length=6, **kw)
                got = diverse_beam_search(model, inj, cfg)
                want = reference_dbs(model, inj, cfg)
                assert len(got) == len(want), (seed, kw)
                for h, (g, toks, lp_sum) in zip(got, want):
                    assert h.tokens == toks, (seed, kw)
                    assert h.group == g
                    assert h.log_prob == pytest.approx(lp_sum, abs=1e-9)

    def test_single_group_equals_standard_beam(self):
        for seed in range(6):
            model = random_model(200 + seed)
            for nr in (0, 2):
                cfg = BeamSearchConfig(
                    beam_count=4,
                    group_count=1,
                    diversity_strength=0.6,
                    no_repeat_ngram=nr,
                    max_length=6,
                )
                dbs = diverse_beam_search(model, None, cfg)
                std = beam_search(model, None, beam_count=4, max_length=6, no_repeat_ngram=nr)
                assert [h.tokens for h in dbs] == [h.tokens for h in std]
                assert [h.log_prob for h in dbs] == pytest.approx(
                    [h.log_prob for h in std], abs=1e-12
                )


class TestInvariants:
    def test_no_repeat_bigrams_anywhere(self):
        for seed in range(12):
            model = random_model(300 + seed)
            cfg = BeamSearchConfig(
                beam_count=4, group_count=2, diversity_strength=0.6, max_length=8
            )
            for h in diverse_beam_search(model, None, cfg):
                grams = [h.tokens[i : i + 2] for i in range(len(h.tokens) - 1)]
                assert len(grams) == len(set(grams)), (seed, h.tokens)

    def test_log_prob_is_pure_model_score(self):
        # recompute each hypothesis' log-probability token by token; heavy
        # diversity pressure must not contaminate it
        model = random_model(400)
        cfg = BeamSearchConfig(
            beam_count=4, group_count=4, diversity_strength=5.0, max_length=5
        )
        for h in diverse_beam_search(model, None, cfg):
            total = 0.0
            for t in range(len(h.tokens)):
                total += next_lp(model, h.tokens[:t], None)[h.tokens[t]]
            assert h.log_prob == pytest.approx(total, abs=1e-9)

    def test_every_result_is_finished(self):
        # only hypotheses force-finished at the cap may lack a terminal eos
        model = random_model(500)
        cfg = BeamSearchConfig(beam_count=4, group_count=2, max_length=4)
        for h in diverse_beam_search(model, None, cfg):
            assert h.finished
            assert len(h.tokens) <= cfg.max_length
            if len(h.tokens) < cfg.max_length:
                assert h.tokens[-1] == cfg.eos_id

    def test_deterministic_across_runs(self):
        model = random_model(600)
        cfg = BeamSearchConfig(beam_count=4, group_count=2, max_length=6)
        a = diverse_beam_search(model, None, cfg)
        b = diverse_beam_search(model, None, cfg)
        assert a == b

    def test_ranking_score_normalizes_by_length(self):
        h = Hypothesis(tokens=(4, 5, 6, 1), log_prob=-2.0)
        assert h.ranking_score(1.0) == pytest.approx(-0.5)
        assert h.ranking_score(0.0) == pytest.approx(-2.0)


class TestPositionWindow:
    @staticmethod
    def counted(model):
        calls = []
        forward = model.forward

        def wrapped(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        model.forward = wrapped
        return calls

    def test_overlong_max_length_fails_before_any_forward(self):
        model = random_model(700)  # max_positions=12
        calls = self.counted(model)
        cfg = BeamSearchConfig(beam_count=2, group_count=2, max_length=13)
        with pytest.raises(ValueError, match="max_positions=12"):
            diverse_beam_search(model, None, cfg)
        with pytest.raises(ValueError, match="max_positions=12"):
            beam_search(model, None, beam_count=2, max_length=13)
        with pytest.raises(ValueError, match="max_positions=12"):
            greedy_decode(model, None, max_length=13)
        assert calls == []

    def test_max_length_equal_to_window_decodes(self):
        # an eos id outside the vocabulary keeps every beam running to the cap
        model = random_model(700)
        cfg = BeamSearchConfig(
            beam_count=2, group_count=2, no_repeat_ngram=0, max_length=12, eos_id=99
        )
        assert [len(h.tokens) for h in diverse_beam_search(model, None, cfg)] == [12, 12]
