"""Acceptance suite: one test per release criterion, each with its stated
tolerance and runtime bound. The terminal summary prints one line per
criterion (see conftest)."""

import contextlib
import math
import time

import numpy as np
import pytest

from oracles import ClusterOracleEncoder, Recompute, oracle_bleu, oracle_rouge_l
from smclm.corpus import ParaphraseGroup, build_corpus, split_groups
from smclm.decoding import BeamSearchConfig, beam_search, diverse_beam_search
from smclm.encoders import FileBackedEncoder, HashedBagEncoder, HashedTokenEmbedder
from smclm.metrics import EvalConfig, bleu, calibrate_beta_from_scores, evaluate_corpus, rouge_l
from smclm.model import ModelConfig, TransformerLM
from smclm.pipeline import PipelineConfig, paraphrase
from smclm.tokenization import BOS_ID, EOS_ID, build_vocabulary, normalize
from smclm.training import TrainConfig, lr_at_step, train


@contextlib.contextmanager
def within(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"runtime {elapsed:.2f}s exceeds the {seconds}s bound"


SMALL_POOL = ["the", "cat", "sat", "on", "mat", "dog", "ran", "far"]
WIDE_POOL = [f"word{i}" for i in range(30)]


def test_c01_metric_oracle_equivalence():
    """BLEU-3 and ROUGE-L match brute-force oracles on 500 random pairs."""
    rng = np.random.default_rng(2024)
    with within(10):
        for i in range(500):
            pool = SMALL_POOL if i % 2 else WIDE_POOL
            hyp = [pool[int(k)] for k in rng.integers(len(pool), size=int(rng.integers(1, 26)))]
            refs = [
                [pool[int(k)] for k in rng.integers(len(pool), size=int(rng.integers(1, 26)))]
                for _ in range(int(rng.integers(1, 4)))
            ]
            got_bleu = bleu(" ".join(hyp), [" ".join(r) for r in refs]) / 100.0
            assert abs(got_bleu - oracle_bleu(hyp, refs)) < 1e-9, (i, hyp, refs)
            got_rouge = rouge_l(" ".join(hyp), [" ".join(r) for r in refs]) / 100.0
            assert abs(got_rouge - oracle_rouge_l(hyp, refs)) < 1e-9, (i, hyp, refs)


def test_c02_copy_input_row():
    """candidates := source forces oriBLEU=selfBLEU=100 and iBLEU columns 0."""
    rng = np.random.default_rng(7)
    with within(5):
        records = []
        for _ in range(25):
            words = [WIDE_POOL[int(k)] for k in rng.integers(30, size=int(rng.integers(5, 13)))]
            source = " ".join(words)
            refs = [
                " ".join(WIDE_POOL[int(k)] for k in rng.integers(30, size=8)) for _ in range(2)
            ]
            records.append(
                {"source": source, "references": refs, "candidates": [source] * 5, "best": 0}
            )
        cfg = EvalConfig(encoder=HashedBagEncoder(32), token_embedder=HashedTokenEmbedder(32))
        report = evaluate_corpus(records, cfg)
        assert report.means["oriBLEU"] == 100.0
        assert report.means["selfBLEU"] == 100.0
        assert report.means["BERT-iBLEU"] == 0.0
        assert report.means["SBERT-iBLEU"] == 0.0
        for row in report.rows:
            assert row["oriBLEU"] == 100.0 and row["selfBLEU"] == 100.0
            assert row["BERT-iBLEU"] == 0.0 and row["SBERT-iBLEU"] == 0.0


def test_c03_beta_calibration():
    """Scores averaging 82.39/78.49/40.9 give ratios ~2.01/1.92 and beta 2."""
    with within(1):
        token = [82.39 + d for d in (-1.5, 0.0, 1.5)]
        sentence = [78.49 + d for d in (-1.0, 0.0, 1.0)]
        b = [40.9 + d for d in (-2.0, 0.0, 2.0)]
        result = calibrate_beta_from_scores(token, sentence, b)
        assert abs(result.ratio_token - 2.01) <= 0.005
        assert abs(result.ratio_sentence - 1.92) <= 0.005
        assert result.beta == 2


def test_c04_beta_sweep_monotonicity():
    """Mean SBERT-iBLEU moves strictly with beta, direction set by the regime."""
    with within(1):
        # semantic above 1 - bBLEU: candidate overlaps the source heavily
        table = {}
        up_records = []
        for i, cos in enumerate((0.93, 0.95, 0.97)):
            source = f"alpha beta gamma delta epsilon zeta{i}"
            cand = f"alpha beta gamma delta epsilon eta{i}"
            table[source] = [1.0, 0.0]
            table[cand] = [cos, math.sqrt(1.0 - cos * cos)]
            up_records.append(
                {"source": source, "references": [cand], "candidates": [cand], "best": 0}
            )
            b = bleu(cand, [source]) / 100.0
            assert cos > 1.0 - b  # regime guard
        # semantic below 1 - bBLEU: lexically disjoint candidate
        down_records = []
        for i, cos in enumerate((0.30, 0.35, 0.40)):
            source = f"alpha beta gamma delta epsilon zeta{100 + i}"
            cand = f"omega psi chi phi upsilon tau{i}"
            table[source] = [1.0, 0.0]
            table[cand] = [cos, math.sqrt(1.0 - cos * cos)]
            down_records.append(
                {"source": source, "references": [cand], "candidates": [cand], "best": 0}
            )
            assert cos < 1.0 - bleu(cand, [source]) / 100.0
        encoder = FileBackedEncoder.from_sentences(table)
        embedder = HashedTokenEmbedder(16)

        def sweep(records):
            means = []
            for beta in (1.0, 2.0, 3.0, 4.0, 5.0):
                cfg = EvalConfig(encoder=encoder, token_embedder=embedder, beta=beta)
                means.append(evaluate_corpus(records, cfg).means["SBERT-iBLEU"])
            return means

        up = sweep(up_records)
        assert all(b > a + 1e-9 for a, b in zip(up, up[1:])), up
        down = sweep(down_records)
        assert all(b < a - 1e-9 for a, b in zip(down, down[1:])), down


GRAD_CLASSES = {
    "embeddings": ("tok_emb", "pos_emb"),
    "attention": (".wq", ".bq", ".wk", ".bk", ".wv", ".bv", ".wo", ".bo"),
    "feedforward": (".w1", ".b1", ".w2", ".b2"),
    "layer-norm": ("ln1_g", "ln1_b", "ln2_g", "ln2_b", "lnf_g", "lnf_b"),
}


def test_c05_gradient_correctness():
    """Analytic gradients match central differences on a 2-layer d=32 model."""
    with within(30):
        cfg = ModelConfig(
            vocab_size=17, embed_dim=32, layer_count=2, head_count=4,
            ff_dim=48, max_positions=12, seed=11,
        )
        model = TransformerLM(cfg).astype(np.float64)
        rng = np.random.default_rng(3)
        inj = rng.normal(size=32)
        inj /= np.linalg.norm(inj)
        body = [5, 9, 6, 4, 10, 12, EOS_ID]
        _, _, grads = model.nll_and_grads(body, inj)
        eps = 1e-3
        for cls, markers in GRAD_CLASSES.items():
            names = [
                n for n in model.params
                if any(n == m or n.endswith(m) for m in markers)
            ]
            fds, ans = [], []
            k = 0
            while len(fds) < 12:
                name = names[k % len(names)]
                k += 1
                flat = model.params[name].reshape(-1)
                idx = int(rng.integers(flat.size))
                keep = flat[idx]
                flat[idx] = keep + eps
                up = model.nll(body, inj)[0]
                flat[idx] = keep - eps
                down = model.nll(body, inj)[0]
                flat[idx] = keep
                fd = (up - down) / (2.0 * eps)
                an = grads[name].reshape(-1)[idx]
                # mixed per-scalar bound absorbs the oracle's own
                # O(eps^2) truncation noise on tiny gradients
                assert abs(fd - an) <= 1e-3 * max(abs(fd), abs(an)) + 2e-5, (cls, name, idx)
                fds.append(fd)
                ans.append(an)
            fds, ans = np.array(fds), np.array(ans)
            rel = np.linalg.norm(fds - ans) / max(np.linalg.norm(fds), 1e-9)
            assert rel < 1e-3, (cls, rel)


def test_c06_injection_identity():
    """Injecting the model's own BOS row reproduces plain forward bitwise."""
    with within(1):
        cfg = ModelConfig(
            vocab_size=17, embed_dim=32, layer_count=2, head_count=4,
            ff_dim=48, max_positions=12, seed=5,
        )
        model = TransformerLM(cfg)
        body = [5, 6, 7, 4, 9]
        plain = model.forward([BOS_ID] + body)
        injected = model.forward(body, model.bos_embedding())
        assert plain.tobytes() == injected.tobytes()


TOPICS = ["cat", "dog", "bird", "horse", "train", "river", "cloud", "stone",
          "apple", "house", "boat", "tree", "road", "clock", "book", "lamp",
          "chair", "door", "field", "storm"]
VERBS6 = ["moves", "turns", "rests", "falls", "rises", "waits"]
ADVS6 = ["quickly", "slowly", "gently", "loudly", "early", "late"]
JUNK_CLUSTER = len(TOPICS)


def _cluster_fn(norm: str) -> int:
    for word in norm.split():
        if word in TOPICS:
            return TOPICS.index(word)
    return JUNK_CLUSTER


def test_c07_conditioning_efficacy():
    """Cluster conditioning: held-out NLL prefers the right embedding and the
    pipeline's selected candidate stays in the source's cluster."""
    with within(300):
        train_sentences = []
        held_out = []
        for topic in TOPICS:
            for j in range(5):
                train_sentences.append(f"the {topic} {VERBS6[j]} {ADVS6[j]}")
            held_out.append(f"the {topic} {VERBS6[0]} {ADVS6[1]}")  # unseen pairing
        vocab = build_vocabulary(train_sentences)
        encoder = ClusterOracleEncoder(dim=32, cluster_fn=_cluster_fn)
        model = TransformerLM(
            ModelConfig(vocab_size=len(vocab), embed_dim=32, layer_count=2,
                        head_count=4, ff_dim=64, max_positions=8, seed=0)
        )
        cfg = TrainConfig(mode="smclm", learning_rate=3e-3, batch_size=10,
                          weight_decay=0.0, epochs=40, warmup_steps=10, seed=0)
        train(model, vocab, train_sentences, cfg, encoder=encoder)

        def one_hot(c):
            v = np.zeros(32, dtype=np.float32)
            v[c] = 1.0
            return v

        nll_wins = 0
        for c, sentence in enumerate(held_out):
            tokens = vocab.tokenize(sentence) + [EOS_ID]
            own = model.nll(tokens, one_hot(c))[0]
            other = model.nll(tokens, one_hot((c + 1) % len(TOPICS)))[0]
            if own < other:
                nll_wins += 1
        assert nll_wins >= 18, f"correct embedding won {nll_wins}/20 clusters"

        beam = BeamSearchConfig(beam_count=5, group_count=5, diversity_strength=0.6,
                                no_repeat_ngram=2, max_length=7)
        pipe = PipelineConfig(beam=beam, beta=2.0)
        in_cluster = 0
        for c, sentence in enumerate(held_out):
            out = paraphrase(model, vocab, encoder, sentence, pipe)
            if _cluster_fn(normalize(out.best_candidate())) == c:
                in_cluster += 1
        assert in_cluster >= 16, f"selected candidate in source cluster {in_cluster}/20"


def _tiny_model(seed):
    return TransformerLM(
        ModelConfig(vocab_size=13, embed_dim=16, layer_count=1, head_count=2,
                    ff_dim=24, max_positions=12, seed=seed)
    )


class _ConstModel:
    def __init__(self, row):
        self.row = np.asarray(row, dtype=np.float64)

    def forward(self, tokens, injection=None):
        return np.tile(self.row, (max(len(tokens) + 1, 1), 1))


def _bans(tokens, n):
    if n <= 0 or len(tokens) < n - 1:
        return set()
    tail = tokens[len(tokens) - n + 1:] if n > 1 else ()
    return {tokens[i + n - 1] for i in range(len(tokens) - n + 1) if tokens[i:i + n - 1] == tail}


def _walk_group(lp, eos, n, strength, prior_picks, max_len):
    """Brute-force the penalized tree for one width-1 group: every branch is
    scored at every level and only the dominant one survives."""
    toks, total, sel, picks = (), 0.0, 0.0, []
    for t in range(max_len):
        options = []
        for w in range(len(lp)):
            if w in _bans(toks, n):
                continue
            pen = strength * prior_picks[t].get(w, 0) if t < len(prior_picks) else 0.0
            options.append((-(sel + lp[w] - pen), w))
        score_neg, w = min(options)
        toks += (w,)
        total += lp[w]
        sel = -score_neg
        picks.append(w)
        if w == eos:
            break
    return toks, total, picks


def test_c08_diverse_beam_search():
    """(a) G=1 equals standard beam; (b) bigram constraint on 100 random
    models; (c) hand-set 3-token case equals the enumeration oracle."""
    with within(30):
        for seed in range(20):
            model = _tiny_model(seed)
            for nr in (0, 2):
                cfg = BeamSearchConfig(beam_count=4, group_count=1, diversity_strength=0.6,
                                       no_repeat_ngram=nr, max_length=6)
                dbs = diverse_beam_search(model, None, cfg)
                std = beam_search(model, None, beam_count=4, max_length=6, no_repeat_ngram=nr)
                assert [h.tokens for h in dbs] == [h.tokens for h in std], seed
                assert [h.log_prob for h in dbs] == pytest.approx(
                    [h.log_prob for h in std], abs=1e-12
                )

        for seed in range(100):
            model = _tiny_model(1000 + seed)
            cfg = BeamSearchConfig(beam_count=4, group_count=2, diversity_strength=0.6,
                                   no_repeat_ngram=2, max_length=8)
            for h in diverse_beam_search(model, None, cfg):
                grams = [h.tokens[i:i + 2] for i in range(len(h.tokens) - 1)]
                assert len(grams) == len(set(grams)), (seed, h.tokens)

        # 3-token vocabulary, constant logits (1.0, 0.55, eos 0.0),
        # B=2, G=2, strength 0.6, max_length 3, bigram constraint
        z = [1.0, 0.55, 0.0]
        model = Recompute(_ConstModel(z))
        cfg = BeamSearchConfig(beam_count=2, group_count=2, diversity_strength=0.6,
                               no_repeat_ngram=2, max_length=3, eos_id=2)
        got = diverse_beam_search(model, None, cfg)
        lse = math.log(sum(math.exp(v) for v in z))
        lp = [v - lse for v in z]
        g0_toks, g0_lp, g0_picks = _walk_group(lp, 2, 2, 0.6, [], 3)
        priors = [{w: 1} for w in g0_picks]
        g1_toks, g1_lp, _ = _walk_group(lp, 2, 2, 0.6, priors, 3)
        assert [h.tokens for h in got] == [g0_toks, g1_toks]
        assert got[0].log_prob == pytest.approx(g0_lp, abs=1e-12)
        assert got[1].log_prob == pytest.approx(g1_lp, abs=1e-12)
        # the oracle's walk, frozen by hand: the 0.45 top-two gap is under
        # the 0.6 penalty so group 1 shifts to token 1; at step 3 each
        # group's bigram ban forces the alternative token
        assert [h.tokens for h in got] == [(0, 0, 1), (1, 1, 0)]
        assert got[0].log_prob == pytest.approx(2.55 - 3 * lse, abs=1e-12)
        assert got[1].log_prob == pytest.approx(2.10 - 3 * lse, abs=1e-12)


def test_c09_corpus_tooling():
    """Deterministic corpus build and leak-free whole-group splits."""
    with within(10):
        docs = [
            (dom, [
                f"Sentence {i} in {dom} reads fine. A second {dom} line {i} follows. "
                f"Closing {dom} remark {i} ends it."
                for i in range(40)
            ])
            for dom in ("news", "web", "books")
        ]
        a_sent, a_manifest = build_corpus(docs, 60, seed=12)
        b_sent, b_manifest = build_corpus(docs, 60, seed=12)
        assert "\n".join(a_sent).encode() == "\n".join(b_sent).encode()
        assert a_manifest == b_manifest

        rng = np.random.default_rng(0)
        groups = []
        for i in range(1000):
            size = int(rng.integers(2, 6))
            groups.append(
                ParaphraseGroup(f"g{i}", tuple(f"group {i} member {j} text" for j in range(size)))
            )
        s1 = split_groups(groups, seed=3)
        s2 = split_groups(groups, seed=3)
        assert s1 == s2
        flat = {name: {s for g in part for s in g.sentences} for name, part in s1.items()}
        assert not (flat["train"] & flat["valid"])
        assert not (flat["train"] & flat["test"])
        assert not (flat["valid"] & flat["test"])
        assert sum(len(part) for part in s1.values()) == 1000

        counts = {k: len(v) for k, v in split_groups(groups[:100], seed=1).items()}
        assert counts == {"train": 80, "valid": 5, "test": 15}


def test_c10_training_loop_sanity():
    """A single sentence memorizes to < 0.1 nats/token in 200 steps; the
    warmup schedule hits lr/2 at its midpoint bit-exactly."""
    with within(120):
        sentence = "the quick brown fox jumps over the lazy dog"
        vocab = build_vocabulary([sentence])
        model = TransformerLM(
            ModelConfig(vocab_size=len(vocab), embed_dim=32, layer_count=2,
                        head_count=4, ff_dim=64, max_positions=16, seed=7)
        )
        cfg = TrainConfig(mode="smclm", learning_rate=5e-3, batch_size=1,
                          weight_decay=0.0, epochs=200, warmup_steps=10, seed=0)
        report = train(model, vocab, [sentence], cfg, encoder=HashedBagEncoder(32))
        assert report.steps == 200
        assert report.epoch_losses[-1] < 0.1, report.epoch_losses[-1]

        for lr in (5e-6, 1e-3, 0.3, 7e-4):
            sched = TrainConfig(learning_rate=lr, warmup_steps=2000)
            assert lr_at_step(1000, 10000, sched) == lr / 2
