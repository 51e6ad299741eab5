import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import (
    counter_bleu,
    counter_ori_bleu,
    counter_self_bleu,
    oracle_bleu,
    oracle_lcs,
    oracle_rouge_l,
    self_bleu_loop,
    unit_tokens_per_occurrence,
)
from smclm import metrics
from smclm.encoders import FileBackedEncoder, HashedBagEncoder, HashedTokenEmbedder
from smclm.metrics import (
    EvalConfig,
    MetricReport,
    bert_ibleu,
    bleu,
    calibrate_beta,
    calibrate_beta_from_scores,
    evaluate_corpus,
    fluency_key,
    ibleu_combine,
    load_fluency_file,
    ori_bleu,
    rouge_l,
    sbert_ibleu,
    self_bleu,
    sentence_cosine_similarity,
    token_match_similarity,
)
from smclm.tokenization import normalize

WORDS = ["the", "cat", "sat", "on", "mat", "dog", "ran", "big", "red", "sun"]


def random_sentence(rng, lo=1, hi=12):
    return " ".join(rng.choice(WORDS) for _ in range(int(rng.integers(lo, hi + 1))))


class TestBleu:
    def test_identity_is_100_for_any_length(self):
        for s in ["cat", "the cat", "the cat sat", "the cat sat on the mat"]:
            assert bleu(s, [s]) == 100.0

    def test_short_sentence_zero_from_trigram_miss(self):
        assert bleu("the cat sat", ["the cat slept"]) == 0.0

    def test_empty_hypothesis_scores_zero(self):
        assert bleu("", ["the cat"]) == 0.0
        assert bleu("...", ["the cat"]) == 0.0

    def test_empty_reference_list_raises(self):
        with pytest.raises(ValueError):
            bleu("the cat", [])

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            hyp = random_sentence(rng)
            refs = [random_sentence(rng) for _ in range(int(rng.integers(1, 4)))]
            got = bleu(hyp, refs) / 100.0
            want = oracle_bleu(hyp.split(), [r.split() for r in refs])
            assert abs(got - want) < 1e-9

    def test_clipping_counts_limited_by_reference(self):
        # "the the the" against one "the": unigram precision 1/3
        assert bleu("the the the", ["the"], max_n=1) == pytest.approx(100.0 / 3.0)

    def test_brevity_penalty_tie_prefers_shorter(self):
        # c=2; refs of len 1 and 3 tie on |L-c|; shorter (1) wins -> bp=1
        got = bleu("the cat", ["the", "the cat sat"], max_n=1)
        assert got == pytest.approx(100.0)


class TestOriSelfBleu:
    def test_copies_give_exact_100(self):
        src = "the cat sat on the mat"
        cands = [src] * 5
        assert ori_bleu(src, cands) == 100.0
        assert self_bleu(cands) == 100.0

    def test_self_bleu_needs_two(self):
        with pytest.raises(ValueError):
            self_bleu(["just one"])

    def test_ori_bleu_mean(self):
        src = "the cat sat"
        cands = ["the cat sat", "dog ran big"]
        assert ori_bleu(src, cands) == pytest.approx(50.0)

    def test_self_bleu_uses_remaining_as_references(self):
        cands = ["the cat", "the cat", "dog ran"]
        per = [
            bleu("the cat", ["the cat", "dog ran"]),
            bleu("the cat", ["the cat", "dog ran"]),
            bleu("dog ran", ["the cat", "the cat"]),
        ]
        assert self_bleu(cands) == pytest.approx(sum(per) / 3)


    def test_top_two_counts_equal_the_leave_one_out_loop(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            k = int(rng.integers(2, 9))
            # a pool smaller than the set repeats candidates; "..." and "?!"
            # normalize to nothing; one-word candidates have one order only
            pool = [random_sentence(rng, 1, 8) for _ in range(int(rng.integers(1, k + 1)))]
            pool += ["...", "?!", str(rng.choice(WORDS))]
            cands = [pool[int(i)] for i in rng.integers(len(pool), size=k)]
            for max_n in (1, 2, 3, 4):
                assert self_bleu(cands, max_n) == self_bleu_loop(cands, max_n), (cands, max_n)

    @pytest.mark.parametrize("cands", [
        ["...", "!!"], ["the", "the"], ["the", "cat"], ["the the the", "the", "the the"],
        ["the cat", "the cat", "the cat"], ["the cat sat", "...", "the cat sat"],
    ])
    def test_top_two_counts_on_edge_sets(self, cands):
        assert self_bleu(cands) == self_bleu_loop(cands)


@pytest.mark.parametrize("call,message", [
    (lambda: ori_bleu("the cat", []), "no candidates"),
    (lambda: calibrate_beta([], HashedBagEncoder(dim=16)), "no calibration pairs"),
    (lambda: evaluate_corpus([{"source": "a b", "references": ["a b"], "candidates": ["b a"]}],
                             EvalConfig()), "EvalConfig.encoder is required"),
], ids=["ori_bleu", "calibrate_beta", "evaluate_corpus"])
def test_no_input_or_no_encoder_raises(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestNgramTableAgainstCounters:
    """The sparse n-gram table must give the Counter path's BLEU, oriBLEU and
    selfBLEU float for float."""

    @staticmethod
    def candidate_sets(rng, count, lo=1, hi=9):
        """(source, texts) pairs whose texts repeat, copy the source, hold
        one-word texts and texts that normalize to nothing."""
        for _ in range(count):
            source = random_sentence(rng, lo, hi)
            pool = [random_sentence(rng, lo, hi) for _ in range(int(rng.integers(1, 5)))]
            pool += [source, "...", "?!", str(rng.choice(WORDS))]
            yield source, [pool[int(i)] for i in rng.integers(len(pool), size=int(rng.integers(1, 9)))]

    def test_bleu_family_equals_counter_oracle(self):
        rng = np.random.default_rng(41)
        for source, texts in self.candidate_sets(rng, 300):
            hyp, refs = texts[0], texts[1:] or [source]
            for max_n in (1, 2, 3, 4):
                assert bleu(hyp, refs, max_n) == counter_bleu(hyp, refs, max_n), (hyp, refs, max_n)
                assert ori_bleu(source, texts, max_n) == counter_ori_bleu(source, texts, max_n)
                if len(texts) >= 2:
                    assert self_bleu(texts, max_n) == counter_self_bleu(texts, max_n), (texts, max_n)

    @pytest.mark.parametrize("max_n", range(1, 9))
    def test_long_sentences_every_order(self, max_n):
        # 40 words over 3 word types, and edits of one base, so high orders match
        rng = np.random.default_rng(43 + max_n)
        small = WORDS[:3]
        for _ in range(10):
            base = [str(w) for w in rng.choice(small, 40)]
            texts = []
            for _ in range(5):
                edited = list(base)
                for i in rng.integers(40, size=int(rng.integers(0, 6))):
                    edited[int(i)] = str(rng.choice(small))
                texts.append(" ".join(edited))
            texts.append(texts[1])
            source = " ".join(base)
            assert bleu(texts[0], texts[1:], max_n) == counter_bleu(texts[0], texts[1:], max_n)
            assert ori_bleu(source, texts, max_n) == counter_ori_bleu(source, texts, max_n)
            assert self_bleu(texts, max_n) == counter_self_bleu(texts, max_n)

    def test_any_max_n_is_accepted(self):
        # a gram's id never packs all its words into one integer
        texts = ["the cat sat on the mat " * 9 + "a dog", "the cat sat on the mat " * 10 + "a dog"]
        assert bleu(texts[0], texts[1:], 1000) == counter_bleu(texts[0], texts[1:], 1000) > 0.0
        assert self_bleu(texts, 1000) == counter_self_bleu(texts, 1000)

    def test_each_record_of_a_shared_table_equals_the_counter_oracle(self):
        # one table over many records, each question asked of all of them in
        # one pass; a record of one-word texts sits among longer ones
        rng = np.random.default_rng(59)
        for max_n in (1, 2, 3, 4):
            recs = list(self.candidate_sets(rng, 12)) + [("cat", ["cat", "the", "...", "cat"])]
            sentences, per_record, firsts = [], [], []
            for source, texts in recs:
                firsts.append(len(sentences))
                sentences += [normalize(t).split() for t in (source, *texts)]
                per_record.append(1 + len(texts))
            table = metrics._NgramTable(sentences, max_n, per_record)
            cands = [range(f + 1, f + 1 + len(texts)) for f, (_, texts) in zip(firsts, recs)]
            hyp_refs = table.bleu([([c[0]], c[1:] or [f]) for f, c in zip(firsts, cands)])
            ori = table.bleu([(c, [f]) for f, c in zip(firsts, cands)])
            sets = iter(table.self_bleu([c for c in cands if len(c) >= 2]))
            for (source, texts), (got_bleu,), got_ori in zip(recs, hyp_refs, ori):
                assert got_bleu == counter_bleu(texts[0], texts[1:] or [source], max_n), (texts, max_n)
                assert float(np.mean(got_ori)) == counter_ori_bleu(source, texts, max_n)
                if len(texts) >= 2:
                    assert next(sets) == counter_self_bleu(texts, max_n), (texts, max_n)

    def test_max_n_below_one_raises(self):
        with pytest.raises(ValueError, match="max_n must be >= 1"):
            bleu("the cat", ["the cat"], 0)

    def test_self_bleu_memory_on_a_large_candidate_set(self):
        # 1,000 shuffles of 30 distinct words: 87,000 (candidate, gram) entries
        # over about 18,000 distinct grams, where a dense candidates x grams
        # int64 count matrix would take about 150 MB
        rng = np.random.default_rng(47)
        words = [f"w{i}" for i in range(30)]
        cands = [" ".join(rng.permutation(words)) for _ in range(1000)]
        tracemalloc.start()
        try:
            self_bleu(cands)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestNgramTableWindows:
    """No window that crosses a sentence end gets a gram id."""

    def test_two_sentences_two_orders(self):
        # a, b, c, d and the bigrams ab, cd; "b c" crosses a sentence end
        assert metrics._NgramTable([["a", "b"], ["c", "d"]], 2).size == 6

    def test_three_sentences_three_orders(self):
        # 8 words, 5 bigrams, 3 trigrams
        assert metrics._NgramTable([["a", "b", "c"], ["d", "e", "f", "g"], ["h"]], 3).size == 16


class TestRougeL:
    def test_reference_value(self):
        assert rouge_l("a c d", ["a b c d"]) == pytest.approx(100 * 6 / 7)

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            hyp = random_sentence(rng)
            refs = [random_sentence(rng) for _ in range(int(rng.integers(1, 4)))]
            got = rouge_l(hyp, refs) / 100.0
            want = oracle_rouge_l(hyp.split(), [r.split() for r in refs])
            assert abs(got - want) < 1e-9

    def test_lcs_length_equals_the_full_table(self):
        # lengths past 64 words take the bit masks beyond one machine word
        rng = np.random.default_rng(37)
        for _ in range(500):
            vocab = WORDS[: int(rng.integers(1, len(WORDS) + 1))]
            a = [str(w) for w in rng.choice(vocab, int(rng.integers(0, 80)))]
            b = [str(w) for w in rng.choice(vocab, int(rng.integers(0, 80)))]
            assert metrics._lcs_length(a, b) == oracle_lcs(a, b), (a, b)

    def test_empty_hypothesis_warns_and_zero(self):
        with pytest.warns(UserWarning):
            assert rouge_l("!!!", ["the cat"]) == 0.0

    def test_empty_reference_list_raises(self):
        with pytest.raises(ValueError):
            rouge_l("the cat", [])


class TestTokenMatch:
    def test_identical_sentences_100(self):
        assert token_match_similarity("the cat sat", "the cat sat") == pytest.approx(100.0)

    def test_orthogonal_tokens_zero(self):
        table = {
            "aa": np.array([1.0, 0.0, 0.0, 0.0]),
            "bb": np.array([0.0, 1.0, 0.0, 0.0]),
            "cc": np.array([0.0, 0.0, 1.0, 0.0]),
            "dd": np.array([0.0, 0.0, 0.0, 1.0]),
        }
        assert token_match_similarity("aa bb", "cc dd", table.__getitem__) == 0.0

    def test_hand_set_two_by_two(self):
        # a1 matches b1 exactly; a2/b2 at cosine 0.6
        table = {
            "a1": np.array([1.0, 0.0]),
            "b1": np.array([1.0, 0.0]),
            "a2": np.array([0.6, 0.8]),
            "b2": np.array([1.0, 0.0]),
        }
        got = token_match_similarity("a1 a2", "b1 b2", table.__getitem__)
        p = (1.0 + 0.6) / 2  # a1->b1=1, a2->max(b)=max(0.6, 0.6)... recompute below
        # a1 vs b1=1.0, vs b2=1.0 -> max 1.0; a2 vs b1=0.6, vs b2=0.6 -> 0.6
        p = (1.0 + 0.6) / 2
        r = (1.0 + 1.0) / 2  # b1: max(1.0, 0.6)=1.0; b2: max(1.0, 0.6)=1.0
        want = 100 * 2 * p * r / (p + r)
        assert got == pytest.approx(want)

    def test_empty_side_zero(self):
        assert token_match_similarity("", "the cat") == 0.0


class GaussianEmbedder:
    """A float-valued, not one-hot, token embedder seeded by the word."""

    def __init__(self, dim: int, dtype=np.float64):
        self.dim, self.dtype = dim, dtype

    def __call__(self, word: str) -> np.ndarray:
        seed = int.from_bytes(word.encode("utf-8"), "little") % 2**32
        return (np.random.default_rng(seed).normal(size=self.dim) * 3.7).astype(self.dtype)


def gaussian_table(texts, dim: int = 20, seed: int = 67) -> FileBackedEncoder:
    """A file-backed encoder with a Gaussian, not hashed, vector for each
    normalized form of ``texts``."""
    rng = np.random.default_rng(seed)
    forms = {normalize(t): t for t in texts}
    return FileBackedEncoder.from_sentences({t: rng.normal(size=dim) * 2.3 for t in forms.values()})


class TestWordTable:
    """Token rows read from one word table must equal, byte for byte, the rows
    of one embedder call per word occurrence normalized by np.linalg.norm."""

    @pytest.mark.parametrize("embed", [
        None, HashedTokenEmbedder(8), GaussianEmbedder(3), GaussianEmbedder(64, np.float32),
        GaussianEmbedder(300), GaussianEmbedder(1000),
    ], ids=["hashed64", "hashed8", "gauss3", "gauss64f32", "gauss300", "gauss1000"])
    def test_rows_equal_the_per_occurrence_oracle(self, embed):
        # filled a sentence at a time, all in one stack, and in two stacks
        # where the second holds words the first embedded
        rng = np.random.default_rng(59)
        sentences = [metrics._Sentence(random_sentence(rng, 1, 20)) for _ in range(60)]
        for batches in ([[s] for s in sentences], [sentences], [sentences[:7], sentences[7:]]):
            table = metrics._WordTable(embed)
            for batch in batches:
                table.fill(batch)
            for sentence in sentences:
                want = unit_tokens_per_occurrence(sentence.words, embed or HashedTokenEmbedder())
                assert np.array_equal(sentence.unit_tokens, want)
            assert sorted(table) == sorted(WORDS)

    def test_each_word_is_embedded_once(self):
        calls = []

        def embed(word):
            calls.append(word)
            return GaussianEmbedder(8)(word)

        table = metrics._WordTable(embed)
        for text in ("the cat sat on the mat", "the mat sat", "a cat"):
            table.fill([metrics._Sentence(text)])
        assert sorted(calls) == ["a", "cat", "mat", "on", "sat", "the"]

    def test_zero_vector_raises(self):
        def embed(word):
            return np.zeros(4) if word == "cat" else np.ones(4)

        with pytest.raises(ValueError, match="zero vector"):
            token_match_similarity("the cat", "the dog", embed)
        with pytest.raises(ValueError, match="zero vector"):
            unit_tokens_per_occurrence(["the", "cat"], embed)


class TestSentenceCosine:
    def test_negative_cosine_clamped(self):
        enc = FileBackedEncoder.from_sentences({"a": [1.0, 0.0], "b": [-1.0, 0.0]})
        assert sentence_cosine_similarity("a", "b", enc) == 0.0

    def test_scale(self):
        enc = FileBackedEncoder.from_sentences({"a": [0.6, 0.8], "b": [0.8, 0.6]})
        assert sentence_cosine_similarity("a", "b", enc) == pytest.approx(96.0)

    def test_identical_sentences_stay_scorable(self):
        # self-similarity must survive ibleu_combine's [0, 1] range check
        enc = HashedBagEncoder(dim=32)
        s = "every bird really rises swiftly"
        assert sentence_cosine_similarity(s, s, enc) <= 100.0
        assert sbert_ibleu(s, s, enc) == 0.0
        assert bert_ibleu(s, s) == 0.0


class TestIbleuCombine:
    def test_reference_value(self):
        assert ibleu_combine(0.8, 0.5, 2.0) == pytest.approx(0.6667, abs=5e-5)

    def test_limits(self):
        assert ibleu_combine(0.0, 0.5, 2.0) == 0.0
        assert ibleu_combine(0.8, 1.0, 2.0) == 0.0
        assert ibleu_combine(1.0, 0.0, 3.0) == 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ibleu_combine(1.2, 0.5, 2.0)
        with pytest.raises(ValueError):
            ibleu_combine(0.5, -0.1, 2.0)
        with pytest.raises(ValueError):
            ibleu_combine(0.5, 0.5, 0.0)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_beta_must_be_finite_and_positive(self, beta):
        # nan and inf used to combine to nan
        with pytest.raises(ValueError, match="beta must be finite and > 0"):
            ibleu_combine(0.5, 0.2, beta)
        with pytest.raises(ValueError, match="beta must be finite and > 0"):
            EvalConfig(beta=beta)

    def test_monotone_increasing_when_semantic_dominates(self):
        vals = [ibleu_combine(0.9, 0.5, b) for b in (1, 2, 3, 4, 5)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_monotone_decreasing_when_novelty_dominates(self):
        vals = [ibleu_combine(0.5, 0.1, b) for b in (1, 2, 3, 4, 5)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_bounds_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            s = float(rng.uniform())
            b = float(rng.uniform())
            beta = float(rng.uniform(0.1, 8.0))
            v = ibleu_combine(s, b, beta)
            assert 0.0 <= v <= 1.0
            # a weighted harmonic mean stays between its two sides
            assert min(s, 1.0 - b) - 1e-12 <= v <= max(s, 1.0 - b) + 1e-12


class TestCompositeMetrics:
    def test_copy_scores_zero(self):
        enc = HashedBagEncoder(dim=32)
        src = "the cat sat on the mat"
        assert bert_ibleu(src, src, 2.0) == 0.0
        assert sbert_ibleu(src, src, enc, 2.0) == 0.0

    def test_paraphrase_beats_copy_and_junk(self):
        enc = HashedBagEncoder(dim=64)
        src = "the cat sat on the mat"
        para = "the cat sat on mat red"
        junk = "sun big ran dog"
        s_para = sbert_ibleu(src, para, enc, 2.0)
        assert s_para > sbert_ibleu(src, src, enc, 2.0)
        assert s_para > sbert_ibleu(src, junk, enc, 2.0)


class TestCalibrateBeta:
    def test_published_means_pick_two(self):
        n = 10
        res = calibrate_beta_from_scores([82.39] * n, [78.49] * n, [40.9] * n)
        assert res.ratio_token == pytest.approx(2.01, abs=0.005)
        assert res.ratio_sentence == pytest.approx(1.92, abs=0.005)
        assert res.beta == 2

    def test_identical_pairs_pick_one(self):
        pairs = [("the cat sat", "the cat sat")] * 3
        res = calibrate_beta(pairs, HashedBagEncoder(dim=32))
        assert res.ratio_token == pytest.approx(1.0)
        assert res.ratio_sentence == pytest.approx(1.0)
        assert res.beta == 1

    @pytest.mark.parametrize("token_dim", [None, 8, "gauss"])
    def test_equals_the_per_pair_string_functions(self, token_dim):
        rng = np.random.default_rng(23)
        pairs = [(random_sentence(rng), random_sentence(rng)) for _ in range(40)]
        pairs += [("the cat sat", "the cat sat"), ("...", "the cat"), ("the cat", "!?")]
        if token_dim == "gauss":
            enc, embed = gaussian_table([t for pair in pairs for t in pair]), GaussianEmbedder(24)
        else:
            enc = HashedBagEncoder(dim=16)
            embed = None if token_dim is None else HashedTokenEmbedder(token_dim)
        want = calibrate_beta_from_scores(
            [token_match_similarity(a, b, embed) for a, b in pairs],
            [sentence_cosine_similarity(a, b, enc) for a, b in pairs],
            [bleu(a, [b]) for a, b in pairs],
        )
        assert calibrate_beta(pairs, enc, embed) == want

    def test_a_gap_in_the_encoder_fails_before_any_score(self, monkeypatch):
        scored = []
        monkeypatch.setattr(metrics, "_pair_bleu", lambda a, b: scored.append(a) or 50.0)
        pairs = [("the cat sat", "a cat sat"), ("the dog ran", "a dog ran")]
        enc = HashedBagEncoder(dim=16)
        table = FileBackedEncoder.from_sentences({t: enc.encode(t) for t in ("the cat sat", "a cat sat",
                                                                             "the dog ran")})
        with pytest.raises(ValueError, match="no vector for 1 sentence\\(s\\), first 'a dog ran'"):
            calibrate_beta(pairs, table)
        assert scored == []

    def test_zero_bleu_mean_raises(self):
        with pytest.raises(ValueError):
            calibrate_beta_from_scores([50.0], [50.0], [0.0])

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            calibrate_beta_from_scores([1.0], [1.0, 2.0], [1.0])


def _records(sources_cands):
    return [
        {"source": s, "references": refs, "candidates": cands}
        for s, refs, cands in sources_cands
    ]


def string_row(rec: dict, cfg: EvalConfig) -> dict:
    """One evaluate_corpus row built from the public string functions."""
    source, references, candidates = rec["source"], rec["references"], rec["candidates"]
    enc, embed, beta = cfg.encoder, cfg.token_embedder, cfg.beta
    best_idx = rec.get("best")
    if best_idx is None:
        scores = [0.0 if not normalize(c) else sbert_ibleu(source, c, enc, beta) for c in candidates]
        best_idx = int(np.argmax(scores))
    best = candidates[best_idx]
    reduce_fn = np.mean if cfg.ref_reduce == "mean" else np.max
    return {
        "source": source,
        "best": best_idx,
        "oriBLEU": ori_bleu(source, candidates),
        "selfBLEU": self_bleu(candidates) if len(candidates) >= 2 else None,
        "BLEU": bleu(best, references),
        "ROUGE-L": rouge_l(best, references),
        "oriBERT": token_match_similarity(source, best, embed),
        "oriSBERT": sentence_cosine_similarity(source, best, enc),
        "BERT": float(reduce_fn([token_match_similarity(best, r, embed) for r in references])),
        "SBERT": float(reduce_fn([sentence_cosine_similarity(best, r, enc) for r in references])),
        "BERT-iBLEU": bert_ibleu(source, best, beta, embed),
        "SBERT-iBLEU": sbert_ibleu(source, best, enc, beta),
        "fluency": cfg.fluency.get(fluency_key(best)) if cfg.fluency else None,
    }


def counter_row(rec: dict, cfg: EvalConfig) -> dict:
    """string_row with the BLEU family, the selection and the combined scores
    from the Counter oracle."""
    source, references, candidates = rec["source"], rec["references"], rec["candidates"]

    def ibleu(semantic, source_bleu):
        return 100.0 * ibleu_combine(semantic / 100.0, source_bleu / 100.0, cfg.beta)

    src_bleu = [counter_bleu(c, [source]) for c in candidates]
    best_idx = rec.get("best")
    if best_idx is None:
        scores = [
            0.0 if not normalize(c) else ibleu(sentence_cosine_similarity(source, c, cfg.encoder), b)
            for c, b in zip(candidates, src_bleu)
        ]
        best_idx = int(np.argmax(scores))
    row = string_row({**rec, "best": best_idx}, cfg)
    row.update({
        "oriBLEU": counter_ori_bleu(source, candidates),
        "selfBLEU": counter_self_bleu(candidates) if len(candidates) >= 2 else None,
        "BLEU": counter_bleu(candidates[best_idx], references),
        "BERT-iBLEU": ibleu(row["oriBERT"], src_bleu[best_idx]),
        "SBERT-iBLEU": ibleu(row["oriSBERT"], src_bleu[best_idx]),
    })
    return row


class TestRecordsAgainstStrings:
    """evaluate_corpus scores each sentence once per record; its rows must
    equal, float for float, the rows the string functions give."""

    @staticmethod
    def records(rng, count=40):
        recs = []
        for _ in range(count):
            source = random_sentence(rng) if rng.uniform() > 0.05 else "..."
            pool = [random_sentence(rng, 1, 9) for _ in range(4)] + [source, "!?"]
            cands = [pool[int(i)] for i in rng.integers(len(pool), size=int(rng.integers(1, 7)))]
            refs = [pool[int(i)] for i in rng.integers(len(pool), size=int(rng.integers(1, 4)))]
            rec = {"source": source, "references": refs, "candidates": cands}
            if rng.uniform() < 0.5:
                rec["best"] = int(rng.integers(len(cands)))
            recs.append(rec)
        return recs

    @pytest.mark.parametrize("ref_reduce", ["mean", "max"])
    @pytest.mark.parametrize("token_dim", [None, 8])
    def test_rows_equal_string_rows(self, ref_reduce, token_dim):
        rng = np.random.default_rng(29)
        recs = self.records(rng)
        fluency = {fluency_key(c): float(i) for i, c in enumerate(WORDS)}
        cfg = EvalConfig(
            encoder=HashedBagEncoder(dim=16),
            token_embedder=None if token_dim is None else HashedTokenEmbedder(token_dim),
            ref_reduce=ref_reduce,
            fluency=fluency,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # rouge_l on a best that normalizes to nothing
            report = evaluate_corpus(recs, cfg)
            want = [string_row(rec, cfg) for rec in recs]
        assert any("best" in rec for rec in recs) and any("best" not in rec for rec in recs)
        assert report.rows == want

    @pytest.mark.parametrize("ref_reduce", ["mean", "max"])
    def test_rows_equal_string_rows_with_gaussian_vectors(self, ref_reduce):
        # sentence and token vectors whose entries are not +-1: the block's
        # stacked word rows and cached sentence rows and norms must still give
        # the per-pair bytes
        rng = np.random.default_rng(37)
        recs = self.records(rng, 80)
        texts = [t for rec in recs for t in (rec["source"], *rec["references"], *rec["candidates"])]
        cfg = EvalConfig(encoder=gaussian_table(texts), token_embedder=GaussianEmbedder(24),
                         ref_reduce=ref_reduce)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # rouge_l on a best that normalizes to nothing
            report = evaluate_corpus(recs, cfg)
            want = [string_row(rec, cfg) for rec in recs]
        assert any(0.0 < row["oriSBERT"] < 100.0 for row in report.rows)
        assert report.rows == want

    def test_rows_equal_counter_oracle_rows(self):
        # candidates and references repeat, copy the source or one another,
        # are one word long or normalize to nothing
        rng = np.random.default_rng(31)
        recs = []
        for source, texts in TestNgramTableAgainstCounters.candidate_sets(rng, 60):
            rec = {"source": source, "references": texts[-3:], "candidates": texts}
            if rng.uniform() < 0.5:
                rec["best"] = int(rng.integers(len(texts)))
            recs.append(rec)
        cfg = EvalConfig(encoder=HashedBagEncoder(dim=16))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # rouge_l on a best that normalizes to nothing
            report = evaluate_corpus(recs, cfg)
            want = [counter_row(rec, cfg) for rec in recs]
        assert report.rows == want


def count_tables(monkeypatch) -> list:
    """Patch metrics._NgramTable to log each table's per_record sizes."""
    tables = []

    class Counted(metrics._NgramTable):
        def __init__(self, sentences, max_n, per_record=None):
            tables.append(per_record)
            super().__init__(sentences, max_n, per_record)

    monkeypatch.setattr(metrics, "_NgramTable", Counted)
    return tables


class TestBlocks:
    """evaluate_corpus scores its records in blocks of about WORD_BUDGET
    words; a record's row must not depend on the records it shares a block
    with."""

    def test_rows_equal_each_record_scored_alone(self, monkeypatch):
        rng = np.random.default_rng(53)
        head = [
            # the second record's candidate is the first's reference, and shares
            # no word with its own references
            {"source": "red sun", "references": ["big dog ran far"], "candidates": ["red sun big"]},
            {"source": "cat sat", "references": ["mat on the"], "candidates": ["big dog ran far"]},
            # every text shorter than max_n
            {"source": "cat", "references": ["the cat", "cat"], "candidates": ["cat", "..."]},
            # texts that the first record holds too
            {"source": "red sun", "references": ["the red sun"],
             "candidates": ["red sun big", "a red sun", "red sun big"], "best": 2},
        ]
        big = {"source": "the big dog", "references": [random_sentence(rng, 60, 80) for _ in range(4)],
               "candidates": [random_sentence(rng, 60, 80) for _ in range(30)]}
        recs = head + TestRecordsAgainstStrings.records(rng, 200)
        recs.insert(60, big)
        cfg = EvalConfig(encoder=HashedBagEncoder(dim=16), token_embedder=HashedTokenEmbedder(8))
        tables = count_tables(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # rouge_l on a best that normalizes to nothing
            report = evaluate_corpus(recs, cfg)
            blocks = list(tables)
            alone = [evaluate_corpus([rec], cfg).rows[0] for rec in recs]
        assert report.rows == alone
        # the head shares the first block; a gram shared across records would
        # have scored the second record's candidate 100 against the first's
        # reference
        assert blocks[0][:4] == [3, 3, 3, 4] and report.rows[1]["BLEU"] == 0.0
        # blocks cut in order, each as full as the budget allows, and the
        # record over the budget a block alone
        words = [sum(len(normalize(t).split()) for t in dict.fromkeys([r["source"], *r["references"],
                                                                    *r["candidates"]])) for r in recs]
        assert words[60] > metrics.WORD_BUDGET and len(blocks) >= 4
        first = 0
        for block, after in zip(blocks, blocks[1:] + [None]):
            size = sum(words[first : first + len(block)])
            assert size <= metrics.WORD_BUDGET or len(block) == 1
            if after:
                assert size + words[first + len(block)] > metrics.WORD_BUDGET
            first += len(block)
        assert first == len(recs)


class TestEvaluateCorpus:
    def setup_method(self):
        self.enc = HashedBagEncoder(dim=64)
        self.cfg = EvalConfig(encoder=self.enc)

    def test_copy_input_exact_values(self):
        recs = _records(
            [
                ("the cat sat on the mat", ["a cat is on the mat"], ["the cat sat on the mat"] * 5),
                ("dog ran big", ["the dog ran"], ["dog ran big"] * 5),
            ]
        )
        report = evaluate_corpus(recs, self.cfg)
        assert report.means["oriBLEU"] == 100.0
        assert report.means["selfBLEU"] == 100.0
        assert report.means["BERT-iBLEU"] == 0.0
        assert report.means["SBERT-iBLEU"] == 0.0

    def test_copy_input_report_is_the_same_at_any_count_from_two(self):
        # evaluate --copy-input writes two copies: oriBLEU and selfBLEU of
        # identical copies are exactly 100 or 0, so more copies change nothing
        sources = [("the cat sat on the mat", ["a cat is on the mat"]), ("dog", ["the dog ran"]),
                   ("...", ["a cat"]), ("the the the cat", ["the cat", "a cat"])]

        def report(count):
            recs = _records([(s, refs, [s] * count) for s, refs in sources])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # rouge_l on "..." that normalizes to nothing
                return evaluate_corpus(recs, self.cfg).to_json()

        assert report(2) == report(5) == report(9)

    def test_best_selected_by_sbert_ibleu_when_absent(self):
        src = "the cat sat on the mat"
        cands = [src, "the cat sat on mat red"]
        report = evaluate_corpus(_records([(src, [src], cands)]), self.cfg)
        assert report.rows[0]["best"] == 1

    def test_empty_candidate_scores_zero_as_in_the_pipeline(self):
        # "..." normalizes to nothing; paraphrase() scores it 0 without the
        # encoder, so "the cat" must win here too
        recs = _records([("he cat", ["he cat"], ["the cat", "..."])])
        row = evaluate_corpus(recs, self.cfg).rows[0]
        assert row["best"] == 0
        assert row["SBERT-iBLEU"] == pytest.approx(sbert_ibleu("he cat", "the cat", self.enc))

    def test_one_ngram_table_per_block(self, monkeypatch):
        # every BLEU of a block's records (against the source for each
        # candidate, the best against the references, selfBLEU) reads one table
        tables = count_tables(monkeypatch)
        src = "the cat sat on the mat"
        cands = [src, "the cat sat on mat red", "a cat is on a mat", "...", "a cat is on a mat"]
        recs = _records([(src, ["a cat sat on the mat", src], cands), ("dog ran", ["a dog ran"], ["dog ran big"])])
        evaluate_corpus(recs, self.cfg)
        # one block of two records, with one row per distinct text of each
        assert tables == [[5, 3]]

    def test_one_encoder_call_per_block(self, monkeypatch):
        # each block's texts that _encoded_texts names, once each, in one
        # encode_many call; encode itself is never called
        tables = count_tables(monkeypatch)
        calls, singles = [], []
        encode_many = HashedBagEncoder.encode_many
        monkeypatch.setattr(HashedBagEncoder, "encode_many", lambda e, s: calls.append(s) or encode_many(e, s))
        monkeypatch.setattr(HashedBagEncoder, "encode", lambda e, s: singles.append(s))
        recs = TestRecordsAgainstStrings.records(np.random.default_rng(41), 120)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # rouge_l on a best that normalizes to nothing
            evaluate_corpus(recs, self.cfg)
        assert len(calls) == len(tables) >= 2 and singles == []
        first = 0
        for call, per_record in zip(calls, tables):
            block = recs[first : first + len(per_record)]
            named = [t for rec in block for t in metrics._encoded_texts(*metrics._check_record(rec))]
            assert call == list(dict.fromkeys(named))
            first += len(per_record)
        assert first == len(recs)

    @pytest.mark.filterwarnings("ignore:rouge_l")  # the best normalizes to nothing
    def test_a_first_candidate_without_words_is_covered_as_a_possible_best(self):
        # the candidate with words copies the source and scores 0, so the
        # first, which has no words, is the best and is encoded; a table
        # without it once raised a KeyError after the coverage check, in
        # lenient runs too
        recs = [{"source": "the cat", "references": ["a cat"], "candidates": ["...", "the cat"]},
                {"source": "a dog", "references": ["the dog"], "candidates": ["a dog ran"]}]
        assert evaluate_corpus(recs, self.cfg).rows[0]["best"] == 0
        enc = FileBackedEncoder.from_sentences(
            {t: self.enc.encode(t) for t in ("the cat", "a cat", "a dog", "the dog", "a dog ran")})
        with pytest.raises(ValueError, match="record 0: .* 1 sentence\\(s\\), first '...'"):
            evaluate_corpus(recs, EvalConfig(encoder=enc))
        report = evaluate_corpus(recs, EvalConfig(encoder=enc, strict=False))
        assert report.counts["skipped"] == 1 and [row["source"] for row in report.rows] == ["a dog"]

    def test_a_bad_last_record_fails_before_any_is_scored(self, monkeypatch):
        tables = count_tables(monkeypatch)
        recs = _records([(f"the {n} sat", [f"a {n} sat"], [f"the {n} sat down"])
                         for n in ("cat", "cow", "owl")])
        recs.append({"source": "dog ran", "references": ["a dog", "dog"], "candidates": ["x"], "best": 1})
        with pytest.raises(ValueError, match="record 3: 'best' index 1 out of range"):
            evaluate_corpus(recs, self.cfg)
        assert tables == []
        # not strict: the bad record is skipped and the rest scored, in order
        report = evaluate_corpus(recs[::-1], EvalConfig(encoder=self.enc, strict=False))
        assert report.counts["skipped"] == 1
        assert [row["source"] for row in report.rows] == [r["source"] for r in recs[2::-1]]
        assert tables == [[3, 3, 3]]

    def test_a_gap_in_the_encoder_fails_before_any_score(self, monkeypatch):
        tables = count_tables(monkeypatch)
        recs = _records([("the cat sat", ["a cat sat"], ["the cat sat down", "..."]),
                         ("the dog ran", ["a dog ran"], ["the dog ran off", "a dog sprinted"]),
                         ("the owl", ["an owl"], ["the owl flew"])])
        texts = {t for r in recs for t in (r["source"], *r["references"], *r["candidates"])}
        # no vector for "..." (no words, so never scored) or one candidate of record 1
        enc = FileBackedEncoder.from_sentences(
            {t: self.enc.encode(t) for t in texts - {"...", "a dog sprinted"}})
        with pytest.raises(ValueError, match="record 1: the encoder has no vector for 1 "
                                             "sentence\\(s\\), first 'a dog sprinted'"):
            evaluate_corpus(recs, EvalConfig(encoder=enc))
        assert tables == []
        report = evaluate_corpus(recs, EvalConfig(encoder=enc, strict=False))
        assert report.counts["skipped"] == 1 and tables == [[4, 3]]
        assert [row["source"] for row in report.rows] == ["the cat sat", "the owl"]
        # a given best encodes that candidate alone
        recs[1]["best"] = 0
        assert evaluate_corpus(recs, EvalConfig(encoder=enc)).counts["skipped"] == 0
        recs[1]["best"] = 1
        with pytest.raises(ValueError, match="record 1: .* 1 sentence"):
            evaluate_corpus(recs, EvalConfig(encoder=enc))

    def test_a_gap_counts_every_missing_text_of_the_record(self):
        rec = {"source": "the cat", "references": ["a cat", "cat"], "candidates": ["the cat ran", "..."]}
        enc = FileBackedEncoder.from_sentences({"a cat": self.enc.encode("a cat")})
        with pytest.raises(ValueError, match="record 0: .* 3 sentence\\(s\\), first 'the cat'"):
            evaluate_corpus([rec], EvalConfig(encoder=enc))
        # with no candidate that has words, the first is the best and is encoded
        rec["candidates"] = ["...", "!!"]
        enc = FileBackedEncoder.from_sentences({t: self.enc.encode(t) for t in ("the cat", "a cat", "cat")})
        with pytest.raises(ValueError, match="record 0: .* 1 sentence\\(s\\), first '...'"):
            evaluate_corpus([rec], EvalConfig(encoder=enc))

    def test_token_embedder_runs_once_per_distinct_word_per_block(self):
        calls = []

        def embed(word):
            calls.append(word)
            return HashedTokenEmbedder()(word)

        recs = [
            {"source": "the cat sat on the mat", "references": ["a cat sat on the mat", "the cat sat"],
             "candidates": ["the cat is on the mat", "a dog sat"], "best": 0},
            {"source": "the dog ran", "references": ["a dog ran far", "the dog ran"],
             "candidates": ["the big dog ran", "dog"], "best": 1},
        ]
        evaluate_corpus(recs, EvalConfig(encoder=self.enc, token_embedder=embed))
        # both records are one block: "the", "dog" and "ran" are embedded once
        want = {w for rec in recs for t in (rec["source"], rec["candidates"][rec["best"]], *rec["references"])
                for w in normalize(t).split()}
        assert sorted(calls) == sorted(want)

    def test_explicit_best_respected(self):
        src = "the cat sat on the mat"
        recs = _records([(src, [src], [src, "the cat sat on mat red"])])
        recs[0]["best"] = 0
        report = evaluate_corpus(recs, self.cfg)
        assert report.rows[0]["best"] == 0

    @pytest.mark.parametrize("best", [True, False])
    def test_boolean_best_is_not_an_index(self, best):
        src = "the cat sat on the mat"
        recs = _records([(src, [src], [src, "the cat sat on mat red"])])
        recs[0]["best"] = best
        with pytest.raises(ValueError, match=f"record 0: 'best' index {best!r} out of range"):
            evaluate_corpus(recs, self.cfg)
        good = _records([(src, [src], [src])])
        report = evaluate_corpus(recs + good, EvalConfig(encoder=self.enc, strict=False))
        assert report.counts == {"evaluated": 1, "skipped": 1, "selfBLEU_missing": 1,
                                 "fluency_missing": 1}

    def test_single_candidate_self_bleu_missing(self):
        report = evaluate_corpus(
            _records([("the cat", ["a cat"], ["the cat ran"])]), self.cfg
        )
        assert report.rows[0]["selfBLEU"] is None
        assert report.means["selfBLEU"] is None
        assert report.counts["selfBLEU_missing"] == 1

    def test_values_in_range(self):
        rng = np.random.default_rng(3)
        recs = []
        for _ in range(20):
            src = random_sentence(rng)
            refs = [random_sentence(rng) for _ in range(2)]
            cands = [random_sentence(rng) for _ in range(3)]
            recs.append({"source": src, "references": refs, "candidates": cands})
        report = evaluate_corpus(recs, self.cfg)
        for row in report.rows:
            for k, v in row.items():
                if k in ("source", "best") or v is None:
                    continue
                assert 0.0 <= v <= 100.0, (k, v)

    def test_strict_raises_on_malformed(self):
        with pytest.raises(ValueError, match="record 0"):
            evaluate_corpus([{"source": "x"}], self.cfg)

    def test_lenient_skips_and_counts(self):
        cfg = EvalConfig(encoder=self.enc, strict=False)
        good = _records([("the cat", ["a cat"], ["the cat ran", "a cat sat"])])
        report = evaluate_corpus([{"source": "x"}] + good, cfg)
        assert report.counts["skipped"] == 1
        assert report.counts["evaluated"] == 1

    def test_ref_reduce_max_vs_mean(self):
        src = "the cat sat"
        cands = ["the cat ran on mat", "big red sun dog ran"]
        refs = ["the cat ran on mat", "dog dog dog"]
        mean_rep = evaluate_corpus(_records([(src, refs, cands)]), EvalConfig(encoder=self.enc))
        max_rep = evaluate_corpus(
            _records([(src, refs, cands)]), EvalConfig(encoder=self.enc, ref_reduce="max")
        )
        assert max_rep.means["SBERT"] >= mean_rep.means["SBERT"]

    def test_fluency_join(self, tmp_path):
        best = "the cat ran"
        path = tmp_path / "flu.jsonl"
        path.write_text(
            json.dumps({"sentence_sha256": fluency_key(best), "fluency": 42.5}) + "\n",
            encoding="utf-8",
        )
        cfg = EvalConfig(encoder=self.enc, fluency=load_fluency_file(str(path)))
        recs = _records([("the cat", ["a cat"], [best, best + " big"])])
        recs[0]["best"] = 0
        report = evaluate_corpus(recs, cfg)
        assert report.rows[0]["fluency"] == 42.5
        assert report.means["fluency"] == 42.5

    @pytest.mark.parametrize("value", ['"nan"', "NaN", "Infinity", "-Infinity", '"-inf"'])
    def test_non_finite_fluency_is_a_bad_record(self, tmp_path, value):
        path = tmp_path / "flu.jsonl"
        path.write_text(
            f'{{"sentence_sha256": "{"a" * 64}", "fluency": 1.5}}\n'
            f'{{"sentence_sha256": "{"b" * 64}", "fluency": {value}}}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"flu\.jsonl:2: bad record: fluency must be a finite number"):
            load_fluency_file(str(path))

    @pytest.mark.parametrize("key", [
        '["ab"]', "12", '"ab"', f'"{"A" * 64}"', f'"{"g" * 64}"', f'"{"a" * 63}"',
    ], ids=["list", "int", "short", "upper", "non-hex", "63-digits"])
    def test_fluency_key_must_be_a_sha256_hex_digest(self, tmp_path, key):
        # a list key used to raise TypeError outside the path:line wrapper,
        # and an int key was stored where no sentence could match it
        path = tmp_path / "flu.jsonl"
        path.write_text(
            json.dumps({"sentence_sha256": fluency_key("the cat"), "fluency": 1.5}) + "\n"
            + f'{{"sentence_sha256": {key}, "fluency": 2.5}}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"flu\.jsonl:2: bad record: sentence_sha256 must be 64 lowercase hex"):
            load_fluency_file(str(path))

    def test_report_json_and_table(self):
        recs = _records([("the cat", ["a cat"], ["the cat ran", "a cat sat"])])
        report = evaluate_corpus(recs, self.cfg)
        blob = json.loads(report.to_json())
        assert set(blob) == {"means", "counts", "beta", "ref_reduce", "rows"}
        table = report.format_table()
        assert "oriBLEU" in table and "SBERT-iBLEU" in table
        assert "fluency" not in table  # no fluency column without scores
        assert str(report.counts["evaluated"]) in table

    def test_no_records_raises(self):
        with pytest.raises(ValueError):
            evaluate_corpus([], self.cfg)


class TestFormatTable:
    MEANS = {
        "oriBLEU": 12.5, "selfBLEU": None, "BLEU": 3.25, "ROUGE-L": 41.0, "fluency": None,
        "oriBERT": 99.5, "oriSBERT": 100.0, "BERT": 7.0, "SBERT": 55.75,
        "BERT-iBLEU": 0.0, "SBERT-iBLEU": 66.25,
    }

    @staticmethod
    def table(means, skipped):
        report = MetricReport(rows=[], means=means, counts={"evaluated": 7, "skipped": skipped},
                              beta=2.0, ref_reduce="mean")
        return report.format_table()

    def test_without_fluency_or_skipped(self):
        assert self.table(self.MEANS, 0) == "\n".join([
            "lexical diversity | lexical similarity |      semantic similarity       |         combined       ",
            "oriBLEU  selfBLEU |      BLEU  ROUGE-L | oriBERT  oriSBERT  BERT  SBERT | BERT-iBLEU  SBERT-iBLEU",
            "  12.50         - |      3.25    41.00 |   99.50    100.00  7.00  55.75 |       0.00        66.25",
            "records: 7",
        ])

    def test_with_fluency_and_skipped(self):
        means = {**self.MEANS, "BLEU": 100.0, "fluency": 1234.5}
        assert self.table(means, 3) == "\n".join([
            "lexical diversity | lexical similarity | fluency |      semantic similarity       |         combined       ",
            "oriBLEU  selfBLEU |      BLEU  ROUGE-L | fluency | oriBERT  oriSBERT  BERT  SBERT | BERT-iBLEU  SBERT-iBLEU",
            "  12.50         - |    100.00    41.00 | 1234.50 |   99.50    100.00  7.00  55.75 |       0.00        66.25",
            "records: 7, skipped: 3",
        ])

    @pytest.mark.parametrize("fluency", [None, 1234.5])
    @pytest.mark.parametrize("bleu", [3.25, 100.0, 12345.0])
    def test_group_separators_line_up(self, fluency, bleu):
        lines = self.table({**self.MEANS, "BLEU": bleu, "fluency": fluency}, 0).split("\n")[:3]
        bars = [[i for i, ch in enumerate(line) if ch == "|"] for line in lines]
        assert bars[0] == bars[1] == bars[2]
        assert len({len(line) for line in lines}) == 1


class TestBetaSweepRegimes:
    def test_sweep_through_sentence_metric(self):
        # cosine fixed by hand-set vectors; novelty regime from token overlap
        c = 0.35
        enc = FileBackedEncoder.from_sentences(
            {
                "aa bb cc dd ee ff": [1.0, 0.0],
                "uu vv ww xx yy zz": [c, math.sqrt(1 - c * c)],
                "aa bb cc dd ee gg": [0.95, math.sqrt(1 - 0.95**2)],
            }
        )
        src = "aa bb cc dd ee ff"
        # disjoint tokens: b_bleu=0, semantic=0.35 < 1 -> decreasing
        dec = [sbert_ibleu(src, "uu vv ww xx yy zz", enc, b) for b in (1, 2, 3, 4, 5)]
        assert all(x > y for x, y in zip(dec, dec[1:]))
        # heavy overlap: b_bleu large, semantic=0.95 > 1-b_bleu -> increasing
        b_overlap = bleu("aa bb cc dd ee gg", [src]) / 100
        assert 0.95 > 1 - b_overlap
        inc = [sbert_ibleu(src, "aa bb cc dd ee gg", enc, b) for b in (1, 2, 3, 4, 5)]
        assert all(x < y for x, y in zip(inc, inc[1:]))
