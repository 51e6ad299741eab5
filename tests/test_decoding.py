import math
import weakref
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from oracles import (
    Recompute,
    banned_next_tokens_scan,
    next_lp,
    reference_dbs,
    select_full_vocabulary,
)
from smclm import decoding
from smclm.decoding import BeamSearchConfig, Hypothesis, banned_next_tokens, diverse_beam_search
from smclm.model import ModelConfig, TransformerLM
from smclm.tokenization import EOS_ID


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


def greedy(model, injection, max_length, eos_id=EOS_ID):
    """Greedy decoding: a width-one beam, with its final eos dropped."""
    cfg = BeamSearchConfig(beam_count=1, group_count=1, diversity_strength=0.0,
                           no_repeat_ngram=0, max_length=max_length, eos_id=eos_id)
    tokens = diverse_beam_search(model, injection, cfg)[0].tokens
    return list(tokens[:-1] if tokens[-1:] == (eos_id,) else tokens)


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
            greedy(m, None, max_length=4, eos_id=9)
        assert selected == []
        monkeypatch.undo()  # "no eos" is a ban on an in-range eos
        hyps = diverse_beam_search(m, None, replace(cfg, eos_id=3, banned_ids={3}))
        assert [len(h.tokens) for h in hyps] == [4, 4]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_injection_fails_before_selection(self, monkeypatch, value):
        # a nan injection once decoded to Hypothesis((0, 0, 16), log_prob=nan)
        selected = []
        monkeypatch.setattr(decoding, "_select", lambda *a: selected.append(a))
        model = TransformerLM(ModelConfig(vocab_size=40, max_positions=8, seed=3))
        inj = np.full(model.config.embed_dim, value, np.float32)
        with pytest.raises(ValueError, match="injection has non-finite values"):
            diverse_beam_search(model, inj, BeamSearchConfig(beam_count=2, group_count=2, max_length=4))
        assert selected == []


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
        assert greedy(m, None, max_length=4, eos_id=2) == [0, 0, 0, 0]

    def test_stops_at_eos_and_drops_it(self):
        m = Recompute(RowModel([0.5, 0.0, 1.0]))
        assert greedy(m, None, max_length=4, eos_id=2) == []

    def test_argmax_tie_takes_lowest_id(self):
        m = Recompute(RowModel([0.0, 0.0, -1.0, -1.0]))
        assert greedy(m, None, max_length=2, eos_id=3) == [0, 0]

    def test_matches_width_one_beam_on_random_models(self):
        # greedy is width-one beam search; the oracle is a plain argmax loop
        rng = np.random.default_rng(11)
        for seed in range(8):
            model = random_model(seed)
            inj = None
            if seed % 2:
                v = rng.normal(size=16)
                inj = (v / np.linalg.norm(v)).astype(np.float32)
            got = greedy(model, inj, max_length=6, eos_id=1)
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
        cfg = BeamSearchConfig(beam_count=1, group_count=1, diversity_strength=0.0,
                               no_repeat_ngram=1, max_length=8, eos_id=3)
        hyps = diverse_beam_search(m, None, cfg)
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
        cfg = BeamSearchConfig(beam_count=2, group_count=1, diversity_strength=0.0,
                               no_repeat_ngram=0, max_length=2, eos_id=3)
        hyps = diverse_beam_search(m, None, cfg)
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
        # one group has no earlier group to penalize it: plain beam search,
        # checked against the reference with no penalty
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
                std = reference_dbs(model, None, replace(cfg, diversity_strength=0.0))
                assert [h.tokens for h in dbs] == [toks for _, toks, _ in std]
                assert [h.log_prob for h in dbs] == pytest.approx(
                    [lp_sum for _, _, lp_sum in std], abs=1e-12
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
            got = greedy(model, injection, 16, eos_id=5)
            assert len(got) == 16
            assert got == greedy(Recompute(model), injection, 16, eos_id=5)


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
            diverse_beam_search(model, None, replace(cfg, group_count=1, diversity_strength=0.0))
        with pytest.raises(ValueError, match="max_positions=12"):
            greedy(model, None, max_length=13)
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


class TestCellsAgainstFullVocabulary:
    """Selection over cells found on demand against
    ``oracles.select_full_vocabulary``, the full-vocabulary selection it
    replaced, one group step at a time."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Run the oracle beside every group step of the decoder; returns, per
        checked step, (rows whose cells were found only in part, cells found
        past the rows' first cells) over the timestep so far.

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

        def both(lp, found, live, picked, cfg, width, group):
            returned, raw = unmasked["lp"]
            assert lp is returned
            chosen = [w for w, c in picked.items() for _ in range(c)]
            want = select_full_vocabulary(raw, live, chosen, cfg, width, group)
            before = dict(picked)
            got = real(lp, found, live, picked, cfg, width, group)
            assert_same_selection(got, want)
            for w in want[2]:
                before[w] = before.get(w, 0) + 1
            assert picked == before
            steps.append((sum(len(cells) < lp.shape[1] for cells in found),
                          sum(len(cells) - 1 for cells in found)))
            return got

        monkeypatch.setattr(decoding, "_select", both)
        return steps

    @staticmethod
    def direct(lp, live, cfg, width, picked=None):
        """_select on a copy of lp masked the way the decoder masks it, against
        the oracle on lp itself; returns the cells found and the selection."""
        masked = lp.copy()
        for h in live:
            masked[h.row, list(banned_next_tokens(h.tokens, cfg.no_repeat_ngram) | cfg.banned_ids)] = -np.inf
        found = decoding._first_cells(masked)
        picked = dict(picked or {})
        chosen = [w for w, c in picked.items() for _ in range(c)]
        want = select_full_vocabulary(lp, live, chosen, cfg, width, 0)
        got = decoding._select(masked, found, live, picked, cfg, width, 0)
        assert_same_selection(got, want)
        return found, got

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
        assert checked
        assert sum(partial for partial, _ in checked) > 0  # some rows were found in part
        assert sum(deeper for _, deeper in checked) > 0  # some walks found cells past the first

    def test_hand_computed_cases_step_by_step(self, checked):
        m = Recompute(RowModel([1.0, 0.5, 0.0]))
        cfg = BeamSearchConfig(beam_count=2, group_count=1, diversity_strength=0.0,
                               no_repeat_ngram=1, max_length=4, eos_id=2, banned_ids={2})
        assert diverse_beam_search(m, None, cfg) == []
        m = Recompute(RowModel([0.0] * 6))
        cfg = BeamSearchConfig(beam_count=2, group_count=1, diversity_strength=0.0,
                               no_repeat_ngram=0, max_length=3, eos_id=5)
        diverse_beam_search(m, None, cfg)
        assert checked

    def test_more_ties_than_picks_at_the_stop(self):
        lp = np.full((1, 40), -1.0)
        lp[0, 5:35] = 0.0  # 28 zeros tie behind the two penalized leaders
        lp[0, 7], lp[0, 20] = 2.0, 1.0
        cfg = BeamSearchConfig(beam_count=2, group_count=1, diversity_strength=5.0, no_repeat_ngram=0)
        live = [decoding._Beam((3,), -1.0, -1.5, 0)]
        found, (new_live, _) = self.direct(lp, live, cfg, width=2, picked={7: 1, 20: 1})
        # both penalized leaders lose to the lowest ids among the tied zeros
        assert [h.tokens[-1] for h in new_live] == [5, 6]
        # every tied zero is found, by id, and the walk stops at the first
        # cell strictly below them
        tied = [w for w in range(5, 35) if w not in (7, 20)]
        assert [w for _, w in found[0]] == [7, 20] + tied + [0]
        # a walk over the whole row finds every other cell once, in
        # (-log-prob, id) order, and ends when only -inf is left
        masked = lp.copy()
        walked = list(decoding._cells(masked, decoding._first_cells(masked), 0))
        assert walked == sorted(zip((-lp[0]).tolist(), range(40)))
        assert np.all(masked == -np.inf)

    def test_rounding_tie_found_later_wins_on_its_lower_id(self):
        # at sel_score 2**53 every sel_score + log-prob below rounds to 2**53,
        # so token 0, found after the three best cells, ties them and wins on
        # its id; every cell ties, so the walk finds the whole row
        lp = np.full((1, 30), -0.3)
        lp[0, 10:13] = (-0.01, -0.02, -0.03)
        cfg = BeamSearchConfig(beam_count=1, group_count=1, no_repeat_ngram=0)
        live = [decoding._Beam((4,), -1.0, 2.0**53, 0)]
        found, (new_live, _) = self.direct(lp, live, cfg, width=1)
        assert [w for _, w in found[0]] == [10, 11, 12] + [w for w in range(30) if w not in (10, 11, 12)]
        assert new_live[0].tokens == (4, 0)

    README_SHAPE = BeamSearchConfig(
        beam_count=20, group_count=20, diversity_strength=0.6, no_repeat_ngram=2, max_length=16
    )

    def readme_shape_cells(self, monkeypatch):
        """Every timestep's found cells at the README shape, and the argmax
        calls made on the t=0 log-probs."""
        timesteps, first_cells = [], decoding._first_cells

        class CountedArgmax(np.ndarray):
            calls = 0

            def argmax(self, *args, **kwargs):
                CountedArgmax.calls += 1
                return super().argmax(*args, **kwargs)

        def recorded(lp):
            timesteps.append(first_cells(lp))
            return timesteps[-1]

        def counted_start(self, injection=None, _start=TransformerLM.start):
            lp, cache = _start(self, injection)
            return lp.view(CountedArgmax), cache

        monkeypatch.setattr(decoding, "_first_cells", recorded)
        monkeypatch.setattr(TransformerLM, "start", counted_start)
        model = TransformerLM(ModelConfig(vocab_size=2000, max_positions=16, seed=3))
        assert diverse_beam_search(model, None, self.README_SHAPE)
        return timesteps, CountedArgmax.calls

    def test_readme_shape_rows_find_at_most_beam_count_plus_one_cells(self, monkeypatch):
        timesteps, _ = self.readme_shape_cells(monkeypatch)
        assert len(timesteps) == self.README_SHAPE.max_length
        assert max(len(cells) for found in timesteps for cells in found) <= self.README_SHAPE.beam_count + 1

    def test_readme_shape_ranks_the_first_row_once(self, monkeypatch):
        # all 20 groups walk the one t=0 row; each argmax of it finds a new
        # cell, so no group ranks cells another group already found
        timesteps, calls = self.readme_shape_cells(monkeypatch)
        (cells,) = timesteps[0]
        assert len(cells) > self.README_SHAPE.group_count  # every group walked the row
        assert calls == len(cells)
        assert len({w for _, w in cells}) == len(cells)

    def test_vocabulary_no_bigger_than_the_cells_found(self):
        lp = np.log(np.array([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6]]))
        cfg = BeamSearchConfig(beam_count=3, group_count=1, diversity_strength=0.6, no_repeat_ngram=2)
        live = [decoding._Beam((1, 2, 1), -2.0, -2.0, 0), decoding._Beam((1, 2, 0), -2.5, -2.5, 1)]
        # the bigram rule bans token 2 after (1, 2, 1): row 0 runs out of
        # finite cells after two
        found, _ = self.direct(lp, live, cfg, width=3, picked={0: 1})
        assert [[w for _, w in cells] for cells in found] == [[0, 1], [2, 0]]
        found, _ = self.direct(lp, live, cfg, width=6, picked={0: 1})
        assert [[w for _, w in cells] for cells in found] == [[0, 1], [2, 0, 1]]

    def test_every_extension_banned(self):
        lp = np.log(np.array([[0.75, 0.25]]))
        cfg = BeamSearchConfig(beam_count=2, group_count=1, no_repeat_ngram=1)
        live = [decoding._Beam((0, 1), -1.0, -1.0, 0)]
        found, got = self.direct(lp, live, cfg, width=2)
        assert got == ([], [])
        assert found == [[(np.inf, 0)]]  # the walk stops at the -inf first cell

    TOP_BANNED = np.log([0.02, 0.03, 0.05, 0.04, 0.04, 0.06, 0.2, 0.4, 0.05, 0.05])

    def test_banned_top_cells(self):
        # token 7 holds the top log-prob and is a banned id; the bigram rule
        # bans the second best, 6, after (3, 6, 3). The first cell is 5; 2, 8
        # and 9 tie behind it, and tied 2 wins on its id
        lp = self.TOP_BANNED[None, :].copy()
        cfg = BeamSearchConfig(beam_count=2, group_count=1, no_repeat_ngram=2, banned_ids={7})
        live = [decoding._Beam((3, 6, 3), -1.0, -1.0, 0)]
        found, (new_live, _) = self.direct(lp, live, cfg, width=2)
        assert [w for _, w in found[0]] == [5, 2, 8, 9, 3]
        assert [h.tokens[-1] for h in new_live] == [5, 2]

    def test_banned_top_cell_step_by_step(self, checked):
        m = Recompute(RowModel(self.TOP_BANNED))
        cfg = BeamSearchConfig(beam_count=2, group_count=2, no_repeat_ngram=2, max_length=5,
                               eos_id=0, banned_ids={0, 7})
        hyps = diverse_beam_search(m, None, cfg)
        assert len(hyps) == 2 and all(7 not in h.tokens for h in hyps)
        assert checked and all(partial for partial, _ in checked)  # no step found a whole row

    def test_minus_inf_cells_are_never_selected(self):
        lp = np.full((2, 8), -np.inf)
        lp[0, 3], lp[1, 6] = 0.0, -0.5
        cfg = BeamSearchConfig(beam_count=4, group_count=1, no_repeat_ngram=0)
        live = [decoding._Beam((1,), -1.0, -1.0, 0), decoding._Beam((2,), -1.0, -1.0, 1)]
        found, (new_live, _) = self.direct(lp, live, cfg, width=4)
        assert [h.tokens for h in new_live] == [(1, 3), (2, 6)]
        assert found == [[(-0.0, 3)], [(0.5, 6)]]  # each walk ended with only -inf left

    def test_cells_are_each_rows_cells_in_order(self):
        # rounded log-probs tie often; tied cells order by the lower token id
        rng = np.random.default_rng(19)
        lp = np.round(rng.normal(-3.0, 1.0, size=(6, 40)), 1)
        lp[0, :5] = -np.inf
        want = [sorted((-x, w) for w, x in enumerate(row.tolist()) if x > -np.inf) for row in lp]
        for k in (1, 7, 50):
            masked = lp.copy()
            found = decoding._first_cells(masked)
            got = [list(islice(decoding._cells(masked, found, row), k)) for row in range(6)]
            assert got == [cells[:k] for cells in want]
        assert np.all(masked == -np.inf)  # the full walks leave only -inf

    def test_previous_log_probs_are_freed_before_each_step(self, monkeypatch):
        # a timestep's (rows, V) log-probs must be gone before the step
        # allocates the next ones
        refs, alive = [], []
        for name in ("start", "step"):
            def tracked(self, *args, _call=getattr(TransformerLM, name)):
                alive.extend(ref() is not None for ref in refs[-1:])
                lp, cache = _call(self, *args)
                refs.append(weakref.ref(lp))
                return lp, cache

            monkeypatch.setattr(TransformerLM, name, tracked)
        model = TransformerLM(ModelConfig(vocab_size=200, max_positions=16, seed=3))
        diverse_beam_search(model, None, BeamSearchConfig(beam_count=4, group_count=2, max_length=8))
        assert len(alive) == 7 and not any(alive)


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
