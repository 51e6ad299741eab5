import json
import math
import weakref

import numpy as np
import pytest
from oracles import adamw_step_allocating

from smclm.encoders import HashedBagEncoder
from smclm.model import ROW_BUDGET, ModelConfig, TransformerLM
from smclm.tokenization import build_vocabulary
from smclm.training import AdamW, TrainConfig, build_examples, evaluate_nll, lr_at_step, train

SENTENCES = [
    "the cat sat on the mat",
    "a dog chased the cat",
    "the mat was warm",
    "cats and dogs ran fast",
    "the dog sat down",
    "warm mats please cats",
]


def small_setup(mode="smclm", seed=0, max_positions=16):
    vocab = build_vocabulary(SENTENCES, min_freq=1)
    cfg = ModelConfig(
        vocab_size=len(vocab),
        embed_dim=16,
        layer_count=1,
        head_count=2,
        ff_dim=24,
        max_positions=max_positions,
        seed=seed,
    )
    model = TransformerLM(cfg)
    encoder = HashedBagEncoder(dim=16) if mode == "smclm" else None
    return model, vocab, encoder


class TestSchedule:
    CFG = TrainConfig(learning_rate=1e-3, warmup_steps=100)

    def test_endpoints(self):
        assert lr_at_step(100, 1000, self.CFG) == pytest.approx(1e-3)
        assert lr_at_step(1000, 1000, self.CFG) == 0.0
        assert lr_at_step(1, 1000, self.CFG) == pytest.approx(1e-5)

    def test_midpoint_of_decay_is_half_peak(self):
        # 100 warmup + 900 decay; step 550 sits exactly halfway down
        assert abs(lr_at_step(550, 1000, self.CFG) - 5e-4) < 1e-12

    def test_warmup_midpoint_is_exactly_half(self):
        for lr in (0.1, 5e-6, 7e-4, 0.3):
            cfg = TrainConfig(learning_rate=lr, warmup_steps=2000)
            assert lr_at_step(1000, 10000, cfg) == lr / 2
            odd = TrainConfig(learning_rate=lr, warmup_steps=6)
            assert lr_at_step(3, 100, odd) == lr / 2

    def test_ramp_is_linear(self):
        for step in range(1, 101):
            assert lr_at_step(step, 1000, self.CFG) == pytest.approx(1e-3 * step / 100)

    def test_warmup_equal_total(self):
        assert lr_at_step(100, 100, self.CFG) == pytest.approx(1e-3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lr_at_step(0, 10, self.CFG)
        with pytest.raises(ValueError):
            lr_at_step(11, 10, self.CFG)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.mode == "smclm"
        assert cfg.learning_rate == 5e-6
        assert cfg.batch_size == 32
        assert cfg.weight_decay == 1e-2
        assert cfg.epochs == 8
        assert cfg.warmup_steps == 2000

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(mode="rnn")
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0)
        with pytest.raises(ValueError):
            TrainConfig(weight_decay=-1)

    def test_round_trip_dict(self):
        cfg = TrainConfig(epochs=3, seed=9)
        assert TrainConfig(**cfg.to_dict()) == cfg


class TestAdamW:
    def test_matches_scalar_reference(self):
        # independent float-scalar implementation of the same update
        cfg = TrainConfig(learning_rate=1e-2, weight_decay=0.1, warmup_steps=0)
        rng = np.random.default_rng(0)
        p0 = rng.normal(size=5)
        params = {"w": p0.copy()}
        opt = AdamW(params, cfg)

        ref = list(p0)
        m = [0.0] * 5
        v = [0.0] * 5
        for t in range(1, 6):
            g = rng.normal(size=5)
            opt.step(params, {"w": g.copy()}, lr=1e-2)
            for i in range(5):
                m[i] = cfg.beta1 * m[i] + (1 - cfg.beta1) * g[i]
                v[i] = cfg.beta2 * v[i] + (1 - cfg.beta2) * g[i] * g[i]
                mhat = m[i] / (1 - cfg.beta1**t)
                vhat = v[i] / (1 - cfg.beta2**t)
                ref[i] -= 1e-2 * mhat / (math.sqrt(vhat) + cfg.eps)
                ref[i] -= 1e-2 * cfg.weight_decay * ref[i]
        np.testing.assert_allclose(params["w"], ref, rtol=1e-12)

    def test_decay_applies_to_every_tensor(self):
        cfg = TrainConfig(learning_rate=1e-3, weight_decay=0.5)
        params = {"gain": np.ones(3), "bias": np.zeros(3)}
        opt = AdamW(params, cfg)
        opt.step(params, {"gain": np.zeros(3), "bias": np.zeros(3)}, lr=1e-3)
        # zero grads leave the Adam term at zero, so only decay acts
        np.testing.assert_allclose(params["gain"], 1.0 - 1e-3 * 0.5)
        np.testing.assert_allclose(params["bias"], 0.0)

    # 0.5: the decay's product then rounds often enough to tell float64
    # arithmetic from float32 on these tensors
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01, 0.5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_allocating_step(self, dtype, weight_decay):
        # model-shaped tensors; 8 steps of a 3-step warm-up, so rates ramp
        # up and decay to 0, every other one a numpy float64, which widens
        # float32 arithmetic; grads span several magnitudes and hold zeros
        cfg = TrainConfig(learning_rate=3e-2, weight_decay=weight_decay, warmup_steps=3)
        rng = np.random.default_rng(31)
        shapes = {"emb": (100, 32), "w": (32, 24), "b": (24,), "g": (32,)}
        params = {k: rng.normal(0.0, 0.02, size=s).astype(dtype) for k, s in shapes.items()}
        ref_params = {k: p.copy() for k, p in params.items()}
        opt, ref = AdamW(params, cfg), AdamW(ref_params, cfg)
        for step in range(1, 9):
            grads = {k: (rng.normal(size=s) * 10.0 ** rng.integers(-6, 2, size=s)).astype(dtype)
                     for k, s in shapes.items()}
            grads["emb"][rng.integers(0, 100, size=30)] = 0.0
            lr = lr_at_step(step, 8, cfg)
            lr = np.float64(lr) if step % 2 else lr
            opt.step(params, grads, lr)
            adamw_step_allocating(ref, ref_params, grads, lr)
            for got, want in ((params, ref_params), (opt.m, ref.m), (opt.v, ref.v)):
                for k in shapes:
                    assert got[k].dtype == want[k].dtype == dtype
                    assert got[k].tobytes() == want[k].tobytes(), (step, k)
        assert opt.t == ref.t == 8


class TestBuildExamples:
    def test_smclm_shape(self):
        model, vocab, encoder = small_setup()
        examples, skipped = build_examples(SENTENCES, vocab, "smclm", encoder, 16)
        assert skipped == 0
        tokens, injection = examples[0]
        assert tokens[-1] == 1  # eos
        assert tokens[0] != 0  # no bos in injected mode
        assert injection.shape == (16,)
        assert np.linalg.norm(injection) == pytest.approx(1.0, abs=1e-6)

    def test_clm_shape(self):
        _, vocab, _ = small_setup("clm")
        examples, _ = build_examples(SENTENCES, vocab, "clm", None, 16)
        tokens, injection = examples[0]
        assert tokens[0] == 0 and tokens[-1] == 1
        assert injection is None

    def test_long_sequences_skipped_and_counted(self):
        _, vocab, encoder = small_setup()
        corpus = SENTENCES + ["cat " * 30]
        with pytest.warns(UserWarning, match="skipped 1"):
            examples, skipped = build_examples(corpus, vocab, "smclm", encoder, 16)
        assert skipped == 1
        assert len(examples) == len(SENTENCES)

    @pytest.mark.parametrize("mode", ["clm", "smclm"])
    def test_window_boundary_is_the_same_in_both_modes(self, mode):
        # both modes read the start slot plus the body: max_positions - 1 words fit
        model, vocab, encoder = small_setup(mode, max_positions=8)
        examples, skipped = build_examples(["cat " * 7], vocab, mode, encoder, 8)
        assert (len(examples), skipped) == (1, 0)
        model.nll(*examples[0])  # the kept example fits the model's window
        with pytest.warns(UserWarning, match="skipped 1"):
            examples, skipped = build_examples(["cat " * 8], vocab, mode, encoder, 8)
        assert (examples, skipped) == ([], 1)

    def test_smclm_requires_encoder(self):
        _, vocab, _ = small_setup("clm")
        with pytest.raises(ValueError, match="encoder"):
            build_examples(SENTENCES, vocab, "smclm", None, 16)


class TestTrain:
    def run(self, mode="smclm", seed=0, **cfg_kw):
        model, vocab, encoder = small_setup(mode, seed)
        kw = dict(mode=mode, learning_rate=1e-3, batch_size=3, epochs=4, warmup_steps=2, seed=seed)
        kw.update(cfg_kw)
        report = train(model, vocab, SENTENCES, TrainConfig(**kw), encoder=encoder)
        return model, report

    def test_loss_decreases(self):
        for mode in ("smclm", "clm"):
            _, report = self.run(mode)
            assert report.epoch_losses[-1] < report.epoch_losses[0]
            assert report.steps == 4 * 2

    def test_same_seed_is_bitwise_reproducible(self):
        m1, r1 = self.run(seed=5)
        m2, r2 = self.run(seed=5)
        assert r1.epoch_losses == r2.epoch_losses
        for name in m1.params:
            assert m1.params[name].tobytes() == m2.params[name].tobytes()

    def test_different_seed_differs(self):
        m1, _ = self.run(seed=5)
        m2, _ = self.run(seed=6)
        assert any(m1.params[n].tobytes() != m2.params[n].tobytes() for n in m1.params)

    def test_warmup_exceeding_total_steps_rejected(self):
        with pytest.raises(ValueError, match="warmup"):
            self.run(warmup_steps=1000)

    def test_log_file(self, tmp_path):
        model, vocab, encoder = small_setup()
        log = tmp_path / "train.jsonl"
        cfg = TrainConfig(learning_rate=1e-3, batch_size=3, epochs=2, warmup_steps=2)
        report = train(model, vocab, SENTENCES, cfg, encoder=encoder, log_path=str(log))
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(rows) == report.steps
        assert rows[0]["step"] == 1
        assert rows[0]["lr"] == pytest.approx(lr_at_step(1, report.steps, cfg))
        assert all(set(r) == {"step", "lr", "loss"} for r in rows)

    def test_validation_losses(self):
        model, vocab, encoder = small_setup()
        cfg = TrainConfig(learning_rate=1e-3, batch_size=3, epochs=3, warmup_steps=2)
        report = train(
            model, vocab, SENTENCES, cfg, encoder=encoder, valid_corpus=SENTENCES[:2]
        )
        assert len(report.valid_losses) == 3
        assert all(math.isfinite(v) for v in report.valid_losses)

    def test_unusable_validation_corpus_fails_before_the_first_step(self, monkeypatch):
        model, vocab, encoder = small_setup()
        steps = []
        monkeypatch.setattr(AdamW, "step", lambda self, params, grads, lr: steps.append(lr))
        too_long = " ".join(["the"] * model.config.max_positions)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=2, epochs=1, warmup_steps=0)
        with pytest.warns(UserWarning, match="skipped 1 sequences"):
            with pytest.raises(ValueError, match="validation corpus has no sentences"):
                train(model, vocab, SENTENCES, cfg, encoder=encoder, valid_corpus=[too_long])
        assert steps == []

    def test_non_finite_loss_aborts(self, monkeypatch):
        model, vocab, encoder = small_setup()

        def bad(batch):
            return float("nan"), {k: np.zeros_like(v) for k, v in model.params.items()}

        monkeypatch.setattr(model, "batch_nll_and_grads", bad)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=3, epochs=1, warmup_steps=0)
        with pytest.raises(RuntimeError, match="non-finite loss .* at step 1"):
            train(model, vocab, SENTENCES, cfg, encoder=encoder)

    def test_a_step_drops_its_gradients_before_the_next_is_built(self, monkeypatch):
        model, vocab, encoder = small_setup()
        batch_nll_and_grads = model.batch_nll_and_grads
        previous, dead = [], []  # dead: whether every earlier dict was gone when a step began

        class Grads(dict):  # a dict takes no weak reference; a subclass does
            pass

        def tracked(batch):
            dead.append(all(ref() is None for ref in previous))
            loss, grads = batch_nll_and_grads(batch)
            grads = Grads(grads)
            previous.append(weakref.ref(grads))
            return loss, grads

        monkeypatch.setattr(model, "batch_nll_and_grads", tracked)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=3, epochs=2, warmup_steps=0)
        report = train(model, vocab, SENTENCES, cfg, encoder=encoder)
        assert report.steps == len(dead) == 4
        assert all(dead)

    def test_an_encoder_of_another_width_fails_before_any_encode(self, monkeypatch):
        # it once encoded the whole corpus, then failed on the injection shape
        model, vocab, _ = small_setup()
        encoded = []
        encode = HashedBagEncoder.encode
        monkeypatch.setattr(HashedBagEncoder, "encode", lambda e, s: encoded.append(s) or encode(e, s))
        cfg = TrainConfig(learning_rate=1e-3, batch_size=3, epochs=1, warmup_steps=0)
        with pytest.raises(ValueError, match=r"^encoder dim 32 must match embed_dim 16$"):
            train(model, vocab, SENTENCES, cfg, encoder=HashedBagEncoder(dim=32))
        assert encoded == []

    def test_empty_corpus(self):
        model, vocab, encoder = small_setup()
        cfg = TrainConfig(learning_rate=1e-3, warmup_steps=0)
        with pytest.raises(ValueError, match="no usable"):
            train(model, vocab, [], cfg, encoder=encoder)


class TestEvaluateNll:
    def test_does_not_mutate_params(self):
        model, vocab, encoder = small_setup()
        before = {k: v.copy() for k, v in model.params.items()}
        examples, _ = build_examples(SENTENCES, vocab, "smclm", encoder)
        evaluate_nll(model, examples)
        for name in before:
            assert model.params[name].tobytes() == before[name].tobytes()

    def test_is_mean_of_sentence_means(self):
        model, vocab, encoder = small_setup()
        got = evaluate_nll(model, build_examples(SENTENCES, vocab, "smclm", encoder)[0])
        singles = []
        for s in SENTENCES:
            tokens = vocab.tokenize(s) + [1]
            inj = np.asarray(encoder.encode(s), dtype=np.float32)
            singles.append(model.nll(tokens, inj)[0])
        assert got == pytest.approx(np.mean(singles))

    @pytest.mark.parametrize("mode", ["smclm", "clm"])
    def test_equals_mean_of_example_nll_over_micro_batches(self, mode, monkeypatch):
        model, vocab, encoder = small_setup(mode)
        # enough copies of the sentences to fill three row budgets
        per_copy = sum(len(tokens) for tokens, _ in build_examples(SENTENCES, vocab, mode, encoder)[0])
        copies = 3 * ROW_BUDGET // per_copy + 1
        examples, _ = build_examples(SENTENCES * copies, vocab, mode, encoder)
        singles = [model.nll(tokens, injection)[0] for tokens, injection in examples]
        passes = []
        micro_batch = TransformerLM._micro_batch
        monkeypatch.setattr(TransformerLM, "_micro_batch",
                            lambda self, *args: passes.append(1) or micro_batch(self, *args))
        assert evaluate_nll(model, examples) == pytest.approx(np.mean(singles), rel=1e-6)
        assert len(passes) >= 3

    def test_empty_raises(self):
        model, _, _ = small_setup()
        with pytest.raises(ValueError, match="no evaluable"):
            evaluate_nll(model, [])
