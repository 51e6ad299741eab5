import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp

from oracles import Recompute, banned_next_tokens_scan, select_full_vocabulary
from smclm import decoding
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


def random_model(seed, vocab_size=13):
    cfg = ModelConfig(
        vocab_size=vocab_size,
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


def reference_greedy(model, injection, max_length, eos_id, banned=()):
    """Argmax over the raw last logits row less the banned ids, ties to the
    lowest id, until eos."""
    out = []
    for _ in range(max_length):
        context = [0] + out if injection is None else out
        row = model.forward(context, injection)[-1].copy()
        row[list(banned)] = -np.inf
        nxt = int(np.flatnonzero(row == row.max())[0])
        if nxt == eos_id:
            break
        out.append(nxt)
    return out


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
                banned = banned_next_tokens(toks, cfg.no_repeat_ngram) | cfg.banned_ids
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
        assert cfg.banned_ids == frozenset()

    def test_banned_ids_are_a_frozenset(self):
        assert BeamSearchConfig(banned_ids=[3, 0, 3]).banned_ids == frozenset({0, 3})

    def test_validation(self):
        with pytest.raises(ValueError, match="divisible"):
            BeamSearchConfig(beam_count=5, group_count=2)
        with pytest.raises(ValueError):
            BeamSearchConfig(beam_count=0, group_count=1)
        with pytest.raises(ValueError):
            BeamSearchConfig(diversity_strength=-0.1)
        with pytest.raises(ValueError):
            BeamSearchConfig(max_length=0)
        # a negative id would mask the last vocabulary columns
        with pytest.raises(ValueError, match="banned_ids must be >= 0, got -1"):
            BeamSearchConfig(banned_ids={3, -1})

    def test_banned_id_outside_the_vocabulary_fails_before_selection(self, monkeypatch):
        selected = []
        monkeypatch.setattr(decoding, "_select", lambda *a: selected.append(a))
        m = Recompute(RowModel([3.0, 1.0, 0.5, 0.0]))
        cfg = BeamSearchConfig(beam_count=2, group_count=2, max_length=4, eos_id=3, banned_ids={1, 4})
        with pytest.raises(ValueError, match="banned_ids must be < vocab_size=4, got 4"):
            diverse_beam_search(m, None, cfg)
        assert selected == []
        monkeypatch.undo()  # the last in-range id decodes
        assert diverse_beam_search(m, None, replace(cfg, banned_ids={1, 3}))

    def test_eos_outside_the_vocabulary_fails_before_selection(self, monkeypatch):
        # an eos id past the vocabulary once ran every beam silently to max_length
        selected = []
        monkeypatch.setattr(decoding, "_select", lambda *a: selected.append(a))
        m = Recompute(RowModel([3.0, 1.0, 0.5, 0.0]))
        cfg = BeamSearchConfig(beam_count=2, group_count=2, max_length=4, eos_id=4)
        with pytest.raises(ValueError, match="eos_id must be < vocab_size=4, got 4"):
            diverse_beam_search(m, None, cfg)
        with pytest.raises(ValueError, match="eos_id must be < vocab_size=4, got 9"):
            greedy_decode(m, None, max_length=4, eos_id=9)
        assert selected == []
        monkeypatch.undo()  # "no eos" is a ban on an in-range eos
        hyps = diverse_beam_search(m, None, replace(cfg, eos_id=3, banned_ids={3}))
        assert [len(h.tokens) for h in hyps] == [4, 4]


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

    def test_matches_the_slice_scan(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            tokens = tuple(rng.integers(0, int(rng.integers(1, 6)), size=int(rng.integers(0, 14))).tolist())
            n = int(rng.integers(0, 6))
            assert banned_next_tokens(tokens, n) == banned_next_tokens_scan(tokens, n), (tokens, n)


class TestGreedy:
    def test_repeats_argmax_until_cap(self):
        m = Recompute(RowModel([1.0, 0.7, 0.0]))
        assert greedy_decode(m, None, max_length=4, eos_id=2) == [0, 0, 0, 0]

    def test_stops_at_eos_and_drops_it(self):
        m = Recompute(RowModel([0.5, 0.0, 1.0]))
        assert greedy_decode(m, None, max_length=4, eos_id=2) == []

    def test_argmax_tie_takes_lowest_id(self):
        m = Recompute(RowModel([0.0, 0.0, -1.0, -1.0]))
        assert greedy_decode(m, None, max_length=2, eos_id=3) == [0, 0]

    def test_matches_width_one_beam_on_random_models(self):
        # greedy is width-one beam search; the oracle is a plain argmax loop
        rng = np.random.default_rng(11)
        for seed in range(8):
            model = random_model(seed)
            inj = None
            if seed % 2:
                v = rng.normal(size=16)
                inj = (v / np.linalg.norm(v)).astype(np.float32)
            got = greedy_decode(model, inj, max_length=6, eos_id=1)
            assert got == reference_greedy(model, inj, 6, 1), seed
            # no eos: width-one beam search with the in-range eos banned
            cfg = BeamSearchConfig(beam_count=1, group_count=1, diversity_strength=0.0,
                                   no_repeat_ngram=0, max_length=6, eos_id=1, banned_ids={1})
            got = list(diverse_beam_search(model, inj, cfg)[0].tokens)
            assert got == reference_greedy(model, inj, 6, 1, banned={1}), seed


class TestHandComputedDiverseBeam:
    def test_penalty_flips_second_group(self):
        # constant logits (1.0, 0.7, eos 0.0): the 0.3 gap between tokens 0
        # and 1 is smaller than strength 0.6, so after group 0 takes token 0
        # group 1 must prefer token 1, at both timesteps
        m = Recompute(RowModel([1.0, 0.7, 0.0]))
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
        m = Recompute(RowModel([1.0, 0.7, 0.0]))
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
        m = Recompute(RowModel([0.5, 0.0, 1.0]))
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
        assert hyps[0].log_prob == pytest.approx(1.0 - lse, abs=1e-12)
        assert hyps[1].log_prob == pytest.approx(1.5 - 2 * lse, abs=1e-12)

    def test_unigram_constraint_forces_distinct_walk(self):
        m = Recompute(RowModel([3.0, 2.0, 1.0, 0.0]))
        hyps = beam_search(m, None, beam_count=1, max_length=8, no_repeat_ngram=1, eos_id=3)
        assert hyps[0].tokens == (0, 1, 2, 3)

    def test_every_extension_banned_ends_the_group(self):
        # after (0, 1) and (1, 0) the unigram rule bans both tokens, and eos
        # is a banned id, so nothing finishes
        m = Recompute(RowModel([1.0, 0.5, 0.0]))
        cfg = BeamSearchConfig(beam_count=2, group_count=1, diversity_strength=0.0,
                               no_repeat_ngram=1, max_length=4, eos_id=2, banned_ids={2})
        assert diverse_beam_search(m, None, cfg) == []

    def test_all_equal_logits_tie_breaks(self):
        m = Recompute(RowModel([0.0, 0.0, 0.0, 0.0]))
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
        dict(beam_count=20, group_count=20, diversity_strength=0.6, no_repeat_ngram=2),
        dict(beam_count=4, group_count=2, diversity_strength=0.6, no_repeat_ngram=2,
             banned_ids={0, 2, 3}),
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

    def test_banned_ids_are_never_selected(self):
        m = Recompute(RowModel([3.0, 1.0, 0.5, 0.0]))  # token 0 is the argmax
        cfg = BeamSearchConfig(beam_count=2, group_count=2, no_repeat_ngram=0, max_length=4,
                               eos_id=3, banned_ids={0})
        hyps = diverse_beam_search(m, None, cfg)
        assert hyps and all(0 not in h.tokens for h in hyps)

    def test_every_result_is_finished(self):
        # every result ended at eos or at the cap; only the cap may leave
        # a hypothesis without a terminal eos
        model = random_model(500)
        cfg = BeamSearchConfig(beam_count=4, group_count=2, max_length=4)
        for h in diverse_beam_search(model, None, cfg):
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


class TestCachedAgainstRecompute:
    # a 2-layer model drifts from the full forward by float32 rounding of the
    # masked softmax sums: at most 1.2e-6 over 32-token hypotheses
    ATOL = 1e-5

    @pytest.mark.parametrize("injected", [False, True])
    def test_readme_shape_at_the_window(self, injected):
        model = TransformerLM(ModelConfig(vocab_size=2000, max_positions=16, seed=3))
        inj = None
        if injected:
            v = np.random.default_rng(5).normal(size=64)
            inj = (v / np.linalg.norm(v)).astype(np.float32)
        cfg = BeamSearchConfig(
            beam_count=20, group_count=20, diversity_strength=0.6, no_repeat_ngram=2, max_length=16
        )
        got = diverse_beam_search(model, inj, cfg)
        want = diverse_beam_search(Recompute(model), inj, cfg)
        assert [(h.tokens, h.group) for h in got] == [(h.tokens, h.group) for h in want]
        assert max(len(h.tokens) for h in got) == 16
        assert [h.log_prob for h in got] == pytest.approx([h.log_prob for h in want], abs=self.ATOL)

    def test_greedy(self):
        model = TransformerLM(ModelConfig(vocab_size=2000, max_positions=16, seed=4))
        v = np.random.default_rng(6).normal(size=64)
        inj = (v / np.linalg.norm(v)).astype(np.float32)
        for injection in (None, inj):
            got = greedy_decode(model, injection, 16, eos_id=5)
            assert len(got) == 16
            assert got == greedy_decode(Recompute(model), injection, 16, eos_id=5)


class TestPositionWindow:
    @staticmethod
    def counted(model):
        calls = []
        for name in ("forward", "start", "step"):
            method = getattr(model, name)

            def wrapped(*args, _method=method, **kwargs):
                calls.append(1)
                return _method(*args, **kwargs)

            setattr(model, name, wrapped)
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
        # a banned eos keeps every beam running to the cap
        model = random_model(700)
        cfg = BeamSearchConfig(
            beam_count=2, group_count=2, no_repeat_ngram=0, max_length=12, eos_id=1,
            banned_ids={1},
        )
        assert [len(h.tokens) for h in diverse_beam_search(model, None, cfg)] == [12, 12]


def bits(x):
    return float(x).hex()


def assert_same_selection(got, want):
    """_select's (live, finished) against the oracle's (live, finished, picks),
    bit for bit."""
    (got_live, got_done), (want_live, want_done, _) = got, want
    assert [(h.tokens, bits(h.log_prob), bits(h.sel_score), h.row) for h in got_live] == [
        (h.tokens, bits(h.log_prob), bits(h.sel_score), h.row) for h in want_live
    ]
    assert [(h.tokens, bits(h.log_prob), h.group) for h in got_done] == [
        (h.tokens, bits(h.log_prob), h.group) for h in want_done
    ]


class TestShortlistAgainstFullVocabulary:
    """The shortlist walk against ``oracles.select_full_vocabulary``, the
    full-vocabulary selection it replaced, one group step at a time."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Run the oracle beside every group step of the decoder; returns, per
        checked step, how many of the timestep's shortlists were cut.

        The decoder masks its bans into the log-probs that ``start``/``step``
        return; the oracle gets a copy taken before the mask and applies the
        bans itself."""
        steps, unmasked = [], {}
        real = decoding._select
        for cls in (TransformerLM, Recompute):
            for name in ("start", "step"):
                def kept(self, *args, _call=getattr(cls, name)):
                    lp, cache = _call(self, *args)
                    unmasked["lp"] = (lp, lp.copy())
                    return lp, cache

                monkeypatch.setattr(cls, name, kept)

        def both(lp, lists, live, picked, cfg, width, group):
            returned, raw = unmasked["lp"]
            assert lp is returned
            chosen = [w for w, c in picked.items() for _ in range(c)]
            want = select_full_vocabulary(raw, live, chosen, cfg, width, group)
            before = dict(picked)
            got = real(lp, lists, live, picked, cfg, width, group)
            assert_same_selection(got, want)
            for w in want[2]:
                before[w] = before.get(w, 0) + 1
            assert picked == before
            steps.append(sum(len(cells) < lp.shape[1] for cells in lists))
            return got

        monkeypatch.setattr(decoding, "_select", both)
        return steps

    @staticmethod
    def direct(lp, live, cfg, width, k, picked=None):
        """_select on a copy of lp masked the way the decoder masks it, against
        the oracle on lp itself."""
        masked = lp.copy()
        for h in live:
            masked[h.row, list(banned_next_tokens(h.tokens, cfg.no_repeat_ngram) | cfg.banned_ids)] = -np.inf
        lists = decoding._shortlists(masked, k)
        picked = dict(picked or {})
        chosen = [w for w, c in picked.items() for _ in range(c)]
        want = select_full_vocabulary(lp, live, chosen, cfg, width, 0)
        got = decoding._select(masked, lists, live, picked, cfg, width, 0)
        assert_same_selection(got, want)
        return lists, got

    @pytest.mark.parametrize("vocab_size", [13, 64])
    def test_random_models_step_by_step(self, checked, vocab_size):
        rng = np.random.default_rng(29)
        for seed in range(6):
            model = random_model(800 + seed, vocab_size)
            inj = None
            if seed % 2:
                v = rng.normal(size=16)
                inj = (v / np.linalg.norm(v)).astype(np.float32)
            for kw in TestAgainstReference.CONFIGS:
                diverse_beam_search(model, inj, BeamSearchConfig(max_length=6, **kw))
        assert checked and sum(checked) > 0  # some shortlists were cut

    def test_hand_computed_cases_step_by_step(self, checked):
        m = Recompute(RowModel([1.0, 0.5, 0.0]))
        cfg = BeamSearchConfig(beam_count=2, group_count=1, diversity_strength=0.0,
                               no_repeat_ngram=1, max_length=4, eos_id=2, banned_ids={2})
        assert diverse_beam_search(m, None, cfg) == []
        m = Recompute(RowModel([0.0] * 6))
        beam_search(m, None, beam_count=2, max_length=3, eos_id=5)
        assert checked

    def test_more_than_k_ties_at_the_cut(self):
        lp = np.full((1, 40), -1.0)
        lp[0, 5:35] = 0.0  # 28 zeros tie at the cut of a three-cell shortlist
        lp[0, 7], lp[0, 20] = 2.0, 1.0
        cfg = BeamSearchConfig(beam_count=2, group_count=1, diversity_strength=5.0, no_repeat_ngram=0)
        live = [decoding._Beam((3,), -1.0, -1.5, 0)]
        lists, (new_live, _) = self.direct(lp, live, cfg, width=2, k=3, picked={7: 1, 20: 1})
        assert [w for _, w in lists[0]][:2] == [7, 20] and len(lists[0]) == 3
        # both penalized leaders lose to the lowest ids among the tied zeros,
        # whichever zero the argpartition kept
        assert [h.tokens[-1] for h in new_live] == [5, 6]
        # a walk past the list visits every other cell once, in log-prob order
        walked = list(decoding._walk(lp, lists, 0))
        assert sorted(w for _, w in walked) == list(range(40))
        assert [neg for neg, _ in walked] == sorted(neg for neg, _ in walked)

    def test_rounding_tie_outside_the_shortlist_wins_on_its_lower_id(self):
        # at sel_score 2**53 every sel_score + log-prob below rounds to 2**53,
        # so token 0, outside the three-cell shortlist, ties the kept cells
        # and wins on its id
        lp = np.full((1, 30), -0.3)
        lp[0, 10:13] = (-0.01, -0.02, -0.03)
        cfg = BeamSearchConfig(beam_count=1, group_count=1, no_repeat_ngram=0)
        live = [decoding._Beam((4,), -1.0, 2.0**53, 0)]
        lists, (new_live, _) = self.direct(lp, live, cfg, width=1, k=3)
        assert [w for _, w in lists[0]] == [10, 11, 12]
        assert new_live[0].tokens == (4, 0)

    def test_readme_shape_walks_stay_in_their_shortlists(self, monkeypatch):
        # at the README settings every walk stops inside its shortlist, so no
        # group step sorts a whole vocabulary row
        past, walk = [], decoding._walk

        def recorded(lp, lists, row):
            for i, cell in enumerate(walk(lp, lists, row)):
                if i >= len(lists[row]):
                    past.append(row)
                yield cell

        monkeypatch.setattr(decoding, "_walk", recorded)
        model = TransformerLM(ModelConfig(vocab_size=2000, max_positions=16, seed=3))
        cfg = BeamSearchConfig(
            beam_count=20, group_count=20, diversity_strength=0.6, no_repeat_ngram=2, max_length=16
        )
        assert diverse_beam_search(model, None, cfg)
        assert past == []

    def test_vocabulary_no_bigger_than_k(self):
        lp = np.log(np.array([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6]]))
        cfg = BeamSearchConfig(beam_count=3, group_count=1, diversity_strength=0.6, no_repeat_ngram=2)
        live = [decoding._Beam((1, 2, 1), -2.0, -2.0, 0), decoding._Beam((1, 2, 0), -2.5, -2.5, 1)]
        lists, _ = self.direct(lp, live, cfg, width=3, k=5, picked={0: 1})
        assert [len(cells) for cells in lists] == [3, 3]

    def test_every_extension_banned(self):
        lp = np.log(np.array([[0.75, 0.25]]))
        cfg = BeamSearchConfig(beam_count=2, group_count=1, no_repeat_ngram=1)
        live = [decoding._Beam((0, 1), -1.0, -1.0, 0)]
        _, got = self.direct(lp, live, cfg, width=2, k=1)
        assert got == ([], [])

    TOP_BANNED = np.log([0.02, 0.03, 0.05, 0.04, 0.04, 0.06, 0.2, 0.4, 0.05, 0.05])

    def test_banned_top_cells_in_a_cut_row(self):
        # token 7 holds the top log-prob and is a banned id; the bigram rule
        # bans the second best, 6, after (3, 6, 3). A cut at k = beam_count + 1
        # keeps 5 and two of the tied 2, 8 and 9, and tied 2 wins on its id
        lp = self.TOP_BANNED[None, :].copy()
        cfg = BeamSearchConfig(beam_count=2, group_count=1, no_repeat_ngram=2, banned_ids={7})
        live = [decoding._Beam((3, 6, 3), -1.0, -1.0, 0)]
        lists, (new_live, _) = self.direct(lp, live, cfg, width=2, k=cfg.beam_count + 1)
        assert len(lists[0]) == 3 and lists[0][0][1] == 5
        assert [h.tokens[-1] for h in new_live] == [5, 2]

    def test_banned_top_cell_step_by_step(self, checked):
        m = Recompute(RowModel(self.TOP_BANNED))
        cfg = BeamSearchConfig(beam_count=2, group_count=2, no_repeat_ngram=2, max_length=5,
                               eos_id=0, banned_ids={0, 7})
        hyps = diverse_beam_search(m, None, cfg)
        assert len(hyps) == 2 and all(7 not in h.tokens for h in hyps)
        assert checked and all(checked)  # every group step saw cut shortlists

    def test_minus_inf_cells_are_never_selected(self):
        lp = np.full((2, 8), -np.inf)
        lp[0, 3], lp[1, 6] = 0.0, -0.5
        cfg = BeamSearchConfig(beam_count=4, group_count=1, no_repeat_ngram=0)
        live = [decoding._Beam((1,), -1.0, -1.0, 0), decoding._Beam((2,), -1.0, -1.0, 1)]
        _, (new_live, _) = self.direct(lp, live, cfg, width=4, k=2)
        assert [h.tokens for h in new_live] == [(1, 3), (2, 6)]

    def test_shortlists_are_each_rows_sorted_best_cells(self):
        # rounded log-probs tie often; tied cells order by the lower token id
        rng = np.random.default_rng(19)
        lp = np.round(rng.normal(-3.0, 1.0, size=(6, 40)), 1)
        lp[0, :5] = -np.inf
        want = [sorted(zip((-row).tolist(), range(40))) for row in lp]
        assert decoding._shortlists(lp, 50) == want
        for k in (1, 7):
            got = decoding._shortlists(lp, k)
            # which cells tied at the cut are kept is argpartition's choice
            assert all(cells == sorted(cells) for cells in got)
            assert [[c[0] for c in cells] for cells in got] == [[c[0] for c in cells[:k]] for cells in want]

class TestTracedCallSite:
    def test_decoder_looks_up_banned_next_tokens_as_a_module_global(self, monkeypatch):
        # the benchmark's tracer wraps decoding.banned_next_tokens; a decoder
        # holding its own reference would bypass the wrapper
        calls = []

        def ban_zero(tokens, n):
            calls.append(tokens)
            return {0}

        monkeypatch.setattr(decoding, "banned_next_tokens", ban_zero)
        m = Recompute(RowModel([3.0, 1.0, 0.5, 0.0]))  # token 0 is the argmax
        cfg = BeamSearchConfig(beam_count=2, group_count=2, no_repeat_ngram=0, max_length=4, eos_id=3)
        hyps = diverse_beam_search(m, None, cfg)
        assert hyps and calls
        assert all(0 not in h.tokens for h in hyps)
