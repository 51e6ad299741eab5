import math
import tracemalloc

import numpy as np
import pytest
from oracles import batch_nll_and_grads_loop, gelu_prime_unshared, gelu_unshared

import smclm.model as model_module
from smclm.model import (
    HEAD_ROWS,
    ROW_BUDGET,
    ModelConfig,
    TransformerLM,
    _micro_batches,
    erf,
    erf_term,
    gelu,
    gelu_prime,
    init_params,
    log_softmax,
    param_entries,
)
from scipy.special import erf as scipy_erf

from smclm.tokenization import BOS_ID, EOS_ID

# float32 gradient tolerance of the batched loss against the per-example
# loop, relative to each tensor's max |grad|; batched rows and sums round
# differently, by at most about 1.1e-6 over 20 random B=32 batches
GRAD_RTOL = 1e-5


def tiny_config(**overrides) -> ModelConfig:
    kw = dict(
        vocab_size=13,
        embed_dim=16,
        layer_count=2,
        head_count=4,
        ff_dim=24,
        max_positions=12,
        seed=7,
    )
    kw.update(overrides)
    return ModelConfig(**kw)


def fd_grad(model, tokens, injection, name, index, eps=1e-3):
    flat = model.params[name].reshape(-1)
    keep = flat[index]
    flat[index] = keep + eps
    up = model.nll(tokens, injection)[0]
    flat[index] = keep - eps
    down = model.nll(tokens, injection)[0]
    flat[index] = keep
    return (up - down) / (2.0 * eps)


class TestConfigAndInit:
    def test_invalid_configs_raise(self):
        with pytest.raises(ValueError):
            tiny_config(vocab_size=4)
        with pytest.raises(ValueError):
            tiny_config(embed_dim=15)  # not divisible by heads
        with pytest.raises(ValueError):
            tiny_config(layer_count=0)

    def test_init_is_seed_deterministic(self):
        a = init_params(tiny_config())
        b = init_params(tiny_config())
        for name in a:
            assert a[name].tobytes() == b[name].tobytes()
        c = init_params(tiny_config(seed=8))
        assert any(a[n].tobytes() != c[n].tobytes() for n in a)

    def test_init_kinds(self):
        cfg = tiny_config()
        params = init_params(cfg)
        for name, shape, kind in param_entries(cfg):
            assert params[name].shape == shape
            assert params[name].dtype == np.float32
            if kind == "ln_gain":
                assert np.all(params[name] == 1.0)
            elif kind in ("bias", "ln_bias"):
                assert np.all(params[name] == 0.0)

    def test_param_validation(self):
        cfg = tiny_config()
        params = init_params(cfg)
        del params["lnf_g"]
        with pytest.raises(ValueError, match="missing"):
            TransformerLM(cfg, params)


class TestForward:
    def test_shapes_and_determinism(self):
        m = TransformerLM(tiny_config())
        out1 = m.forward([BOS_ID, 5, 6])
        out2 = m.forward([BOS_ID, 5, 6])
        assert out1.shape == (3, 13)
        assert out1.tobytes() == out2.tobytes()

    def test_injection_of_bos_row_matches_plain_forward_bitwise(self):
        m = TransformerLM(tiny_config())
        body = [5, 6, 7, 4]
        plain = m.forward([BOS_ID] + body)
        injected = m.forward(body, m.bos_embedding())
        assert plain.tobytes() == injected.tobytes()

    def test_injection_only_position(self):
        m = TransformerLM(tiny_config())
        inj = np.random.default_rng(0).normal(size=16).astype(np.float32)
        out = m.forward([], inj)
        assert out.shape == (1, 13)

    def test_dissimilar_injections_change_first_logits(self):
        m = TransformerLM(tiny_config())
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.normal(size=16)
            b = rng.normal(size=16)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            if float(a @ b) >= 0.5:
                continue
            la = m.forward([5], a.astype(np.float32))
            lb = m.forward([5], b.astype(np.float32))
            assert not np.array_equal(la[0], lb[0])

    def test_causality(self):
        # changing a later token must not affect earlier logits rows
        m = TransformerLM(tiny_config())
        a = m.forward([BOS_ID, 5, 6, 7])
        b = m.forward([BOS_ID, 5, 6, 8])
        np.testing.assert_array_equal(a[:3], b[:3])
        assert not np.array_equal(a[3], b[3])

    def test_input_validation(self):
        m = TransformerLM(tiny_config())
        with pytest.raises(ValueError):
            m.forward([])
        with pytest.raises(ValueError):
            m.forward([99])
        with pytest.raises(ValueError):
            m.forward(list(range(5)) * 4)  # longer than max_positions
        with pytest.raises(ValueError):
            m.forward([5], np.ones(3, dtype=np.float32))


def walk_start_step(m, injection, prefixes):
    """Decode ``prefixes`` (equal lengths) one token at a time through
    start/step; yield each prefix length with the (rows, vocab) log-probs."""
    lp, cache = m.start(injection)
    yield 0, np.repeat(lp, len(prefixes), axis=0)
    parents = [0] * len(prefixes)
    for t in range(len(prefixes[0])):
        lp, cache = m.step(cache, parents, [p[t] for p in prefixes])
        parents = list(range(len(prefixes)))
        yield t + 1, lp


def full_forward_lp(m, injection, prefix):
    context = list(prefix) if injection is not None else [BOS_ID] + list(prefix)
    return log_softmax(m.forward(context, injection)[-1:])


class TestStartStep:
    # float32 rounding of the masked softmax sums in layers before the last
    # moves a cached per-token log-prob by at most 3e-7 on this model
    TWO_LAYER_ATOL = 1e-6

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("injected", [False, True])
    def test_one_layer_is_bitwise_the_full_forward(self, rows, injected):
        # the decoding tests' one-layer shape; every prefix length up to the window
        m = TransformerLM(tiny_config(layer_count=1, head_count=2, seed=3))
        rng = np.random.default_rng(rows)
        inj = rng.normal(size=16).astype(np.float32) if injected else None
        prefixes = rng.integers(4, 13, size=(rows, m.config.max_positions - 1)).tolist()
        seen = 0
        for t, lp in walk_start_step(m, inj, prefixes):
            assert lp.shape == (rows, 13) and lp.dtype == np.float64
            for r, prefix in enumerate(prefixes):
                want = full_forward_lp(m, inj, prefix[:t])
                assert lp[r : r + 1].tobytes() == want.tobytes(), (t, r)
            seen += 1
        assert seen == m.config.max_positions

    @pytest.mark.parametrize("injected", [False, True])
    def test_two_layers_match_within_tolerance(self, injected):
        m = TransformerLM(ModelConfig(vocab_size=2000, max_positions=32, seed=1))
        rng = np.random.default_rng(2)
        inj = rng.normal(size=64).astype(np.float32) if injected else None
        prefixes = rng.integers(4, 2000, size=(3, 31)).tolist()
        for t, lp in walk_start_step(m, inj, prefixes):
            want = np.concatenate([full_forward_lp(m, inj, p[:t]) for p in prefixes])
            np.testing.assert_allclose(lp, want, rtol=0, atol=self.TWO_LAYER_ATOL)

    @pytest.mark.parametrize("injected", [False, True])
    def test_start_is_one_pass(self, injected, monkeypatch):
        m = TransformerLM(tiny_config())
        inj = np.random.default_rng(5).normal(size=16).astype(np.float32) if injected else None
        calls = []
        blocks = TransformerLM._blocks

        def counted(self, *args, **kwargs):
            calls.append(args[1])
            return blocks(self, *args, **kwargs)

        monkeypatch.setattr(TransformerLM, "_blocks", counted)
        lp, cache = m.start(inj)
        assert calls == [1]
        assert lp.tobytes() == full_forward_lp(m, inj, []).tobytes()
        assert [k.shape for k, _ in cache] == [(1, 4, 1, 4)] * 2

    def test_cache_rows_follow_parents(self):
        m = TransformerLM(tiny_config())
        inj = np.random.default_rng(4).normal(size=16).astype(np.float32)
        _, cache = m.start(inj)
        _, cache = m.step(cache, [0, 0], [5, 6])
        lp, _ = m.step(cache, [1, 1, 0], [7, 7, 8])
        assert lp[0].tobytes() == lp[1].tobytes()
        lp_alone, _ = m.step(cache, [1], [7])
        np.testing.assert_allclose(lp[:1], lp_alone, rtol=0, atol=self.TWO_LAYER_ATOL)
        for row, prefix in ((0, [6, 7]), (2, [5, 8])):
            np.testing.assert_allclose(lp[row : row + 1], full_forward_lp(m, inj, prefix),
                                       rtol=0, atol=self.TWO_LAYER_ATOL)

    def test_step_validation(self):
        m = TransformerLM(tiny_config(max_positions=3))
        _, cache = m.start(None)
        with pytest.raises(ValueError, match="out of range"):
            m.step(cache, [0], [99])
        with pytest.raises(ValueError, match="2 parents for 1 tokens"):
            m.step(cache, [0, 0], [5])
        _, cache = m.step(cache, [0, 0], [5, 6])
        # negative indices would silently pick rows from the end
        with pytest.raises(ValueError, match="parent index -1 out of range for 2 cache rows"):
            m.step(cache, [-1, -2], [5, 6])
        with pytest.raises(ValueError, match="parent index 5 out of range for 2 cache rows"):
            m.step(cache, [5], [5])
        _, cache = m.step(cache, [0], [6])
        with pytest.raises(ValueError, match="max_positions=3"):
            m.step(cache, [0], [7])


class TestLoss:
    def test_nll_matches_manual_logsumexp(self):
        m = TransformerLM(tiny_config())
        seq = [BOS_ID, 5, 6, EOS_ID]
        loss, lp = m.nll(seq)
        logits = m.forward(seq[:-1]).astype(np.float64)
        want = []
        for t, target in enumerate(seq[1:]):
            z = logits[t]
            want.append(z[target] - np.log(np.exp(z - z.max()).sum()) - z.max())
        np.testing.assert_allclose(lp, want, atol=1e-12)
        assert loss == pytest.approx(-np.mean(want))

    def test_loss_is_mean_of_token_nlls(self):
        m = TransformerLM(tiny_config())
        inj = np.random.default_rng(3).normal(size=16).astype(np.float32)
        body = [5, 6, 7, EOS_ID]
        loss, lp = m.nll(body, inj)
        assert lp.sum() == pytest.approx(-loss * len(body))

    def test_injected_loss_covers_every_body_token(self):
        m = TransformerLM(tiny_config())
        inj = np.zeros(16, dtype=np.float32)
        body = [5, 6, EOS_ID]
        _, lp = m.nll(body, inj)
        assert lp.shape == (3,)

    def test_target_validation(self):
        m = TransformerLM(tiny_config())
        with pytest.raises(ValueError):
            m.nll([BOS_ID])  # too short without injection
        with pytest.raises(ValueError):
            m.nll([], None)
        with pytest.raises(ValueError):
            m.nll([5, 99], None)
        inj = np.zeros(16, dtype=np.float32)
        with pytest.raises(ValueError, match="out of range"):
            m.nll([5, 99], inj)  # 99 is only a target, never an input
        with pytest.raises(ValueError, match="at least 1"):
            m.nll([], inj)

    @pytest.mark.parametrize("injected", [False, True])
    def test_nll_and_grads_returns_the_nll_bits(self, injected):
        m = TransformerLM(tiny_config())
        seq, inj = [BOS_ID, 5, 6, 7, EOS_ID], None
        if injected:
            seq, inj = seq[1:], np.random.default_rng(11).normal(size=16).astype(np.float32)
        loss, lp = m.nll(seq, inj)
        loss_g, lp_g, _ = m.nll_and_grads(seq, inj)
        assert loss == loss_g
        assert lp.dtype == lp_g.dtype == np.float64
        assert lp.tobytes() == lp_g.tobytes()

    def test_each_call_checks_ids_once(self, monkeypatch):
        m = TransformerLM(tiny_config())
        calls = []
        original = TransformerLM._ids

        def counting(self, tokens):
            calls.append(1)
            return original(self, tokens)

        monkeypatch.setattr(TransformerLM, "_ids", counting)
        inj = np.zeros(16, dtype=np.float32)
        for call in (
            lambda: m.forward([5, 6], inj),
            lambda: m.nll([5, 6, EOS_ID], inj),
            lambda: m.nll_and_grads([BOS_ID, 5, EOS_ID]),
        ):
            calls.clear()
            call()
            assert len(calls) == 1

    def test_batch_loss_is_mean_of_example_means(self):
        m = TransformerLM(tiny_config())
        inj = np.random.default_rng(5).normal(size=16).astype(np.float32)
        batch = [([5, 6, EOS_ID], inj), ([7, EOS_ID], inj), ([BOS_ID, 4, EOS_ID], None)]
        total, grads = m.batch_nll_and_grads(batch)
        singles = [m.nll(t, i)[0] for t, i in batch]
        assert total == pytest.approx(np.mean(singles), rel=1e-6)
        assert_matches_loop(m, batch, (total, grads))


def mixed_batch(rng, lengths):
    """Examples with the given input lengths, alternating injected bodies and
    <bos>-wrapped sequences."""
    batch = []
    for i, T in enumerate(lengths):
        body = [int(w) for w in rng.integers(4, 13, size=T - 1)] + [EOS_ID]
        if i % 2 == 0:
            batch.append((body, rng.normal(size=16).astype(np.float32)))
        else:
            batch.append(([BOS_ID] + body, None))
    return batch


def assert_matches_loop(m, batch, got):
    """Loss and every gradient tensor of ``got`` against the per-example loop."""
    loss, grads = got
    want_loss, want = batch_nll_and_grads_loop(m, batch)
    assert loss == pytest.approx(want_loss, rel=1e-6)
    overall = max(np.abs(g).max() for g in want.values())
    for name in want:
        # the key-bias gradient is zero analytically (softmax shift
        # invariance), so only its rounding noise is left to compare
        scale = overall if name.endswith(".bk") else np.abs(want[name]).max()
        assert np.abs(grads[name] - want[name]).max() <= GRAD_RTOL * scale, name


def assert_matches_single_examples(m, batch):
    """Each example's loss and log-probs from one batched ``_loss``, in input
    order, against the example alone through ``nll``."""
    losses, lps, _ = m._loss(batch, with_grads=False)
    assert len(losses) == len(lps) == len(batch)
    for (tokens, injection), loss, lp in zip(batch, losses, lps):
        want_loss, want_lp = m.nll(tokens, injection)
        assert loss == pytest.approx(want_loss, rel=1e-6)
        assert lp.shape == want_lp.shape
        np.testing.assert_allclose(lp, want_lp, rtol=0, atol=1e-6)


class TestBatchedLoss:
    LENGTHS = [11, 1, 5, 9, 2, 11, 7, 3, 10, 4, 6, 8, 1, 11]

    def test_matches_the_per_example_loop(self):
        m = TransformerLM(tiny_config())
        batch = mixed_batch(np.random.default_rng(23), self.LENGTHS)
        assert len(_micro_batches(self.LENGTHS)) > 1
        assert_matches_loop(m, batch, m.batch_nll_and_grads(batch))

    def test_padding_values_do_not_matter(self, monkeypatch):
        m = TransformerLM(tiny_config())
        batch = mixed_batch(np.random.default_rng(29), self.LENGTHS)
        loss, grads = m.batch_nll_and_grads(batch)
        rng = np.random.default_rng(31)
        zero_padded = model_module._pad

        def garbage_padded(rows, t):
            x = zero_padded(rows, t).reshape(len(rows), t, -1)
            for i, r in enumerate(rows):
                x[i, len(r):] = rng.normal(0.0, 3.0, size=x[i, len(r):].shape)
            return x.reshape(len(rows) * t, -1)

        monkeypatch.setattr(model_module, "_pad", garbage_padded)
        loss_g, grads_g = m.batch_nll_and_grads(batch)
        assert loss_g == loss
        for name in grads:
            assert grads_g[name].tobytes() == grads[name].tobytes(), name

    @pytest.mark.parametrize("count", [ROW_BUDGET // 8, ROW_BUDGET // 8 + 1])
    def test_rows_at_the_budget(self, count):
        # count examples padded to 8 input rows (the last one shorter, so the
        # sort moves it first) fill the budget exactly, or spill one example
        # into a second micro-batch
        lengths = [8] * (count - 1) + [3]
        assert len(_micro_batches(lengths)) == 1 + (count * 8 > ROW_BUDGET)
        m = TransformerLM(tiny_config())
        batch = mixed_batch(np.random.default_rng(37), lengths)
        assert_matches_loop(m, batch, m.batch_nll_and_grads(batch))

    def test_micro_batch_cuts(self):
        per = ROW_BUDGET // 8
        assert _micro_batches([8] * per) == [list(range(per))]
        assert _micro_batches([8] * (per + 1)) == [list(range(per)), [per]]
        # sorted by length, short examples run together wherever they stand
        assert _micro_batches([9, 2, 9, 2]) == [[1, 3, 0, 2]]
        assert _micro_batches([9] + [2] * (per - 1) + [9]) == [list(range(1, per)), [0, per]]
        # an example over the budget runs alone, after the ones that fit
        assert _micro_batches([2, ROW_BUDGET + 1, 2]) == [[0, 2], [1]]

    def test_equal_lengths_keep_their_order(self):
        assert _micro_batches([3, 5, 3, 5, 3]) == [[0, 2, 4, 1, 3]]
        m = TransformerLM(tiny_config())
        batch = mixed_batch(np.random.default_rng(41), [5, 7, 5, 7, 5, 5])
        assert_matches_single_examples(m, batch)

    @pytest.mark.parametrize("order", ["shuffled", "longest_first"])
    def test_results_come_back_in_input_order(self, order):
        lengths = list(range(1, 12))
        if order == "shuffled":
            np.random.default_rng(43).shuffle(lengths)
        else:
            lengths.reverse()
        m = TransformerLM(tiny_config())
        batch = mixed_batch(np.random.default_rng(47), lengths)
        assert_matches_single_examples(m, batch)

    def test_head_in_slices_matches_the_loop(self):
        # one micro-batch whose real rows span several head slices
        lengths = [8] * (ROW_BUDGET // 8 - 2) + [5, 7]
        assert len(_micro_batches(lengths)) == 1 and sum(lengths) > HEAD_ROWS
        m = TransformerLM(tiny_config())
        batch = mixed_batch(np.random.default_rng(53), lengths)
        assert_matches_loop(m, batch, m.batch_nll_and_grads(batch))

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError, match="empty batch"):
            TransformerLM(tiny_config()).batch_nll_and_grads([])


class TestGradients:
    # central differences at eps=1e-3 carry O(eps^2 * f''') truncation noise,
    # about 1e-5 absolute here, so tiny gradients need the additive term
    def check_tensor(self, m, tokens, injection, grads, name, rng, count=4):
        flat = m.params[name].reshape(-1)
        picks = rng.choice(flat.size, size=min(count, flat.size), replace=False)
        fds, ans = [], []
        for index in picks:
            fd = fd_grad(m, tokens, injection, name, int(index))
            an = grads[name].reshape(-1)[int(index)]
            assert abs(fd - an) <= 1e-3 * max(abs(fd), abs(an)) + 2e-5, (name, index, fd, an)
            fds.append(fd)
            ans.append(an)
        fds, ans = np.array(fds), np.array(ans)
        # key-bias gradients are identically zero (softmax shift invariance),
        # hence the absolute floor
        assert np.linalg.norm(fds - ans) <= 1e-3 * np.linalg.norm(fds) + 1e-9, name

    def test_every_tensor_against_central_differences(self):
        m = TransformerLM(tiny_config()).astype(np.float64)
        rng = np.random.default_rng(17)
        inj = rng.normal(size=16)
        inj /= np.linalg.norm(inj)
        # [EOS_ID] alone is the one-position input build_examples makes
        # from a sentence with no words
        for body in ([5, 9, 6, 4, 10, EOS_ID], [EOS_ID]):
            _, _, grads = m.nll_and_grads(body, inj)
            for name in m.params:
                self.check_tensor(m, body, inj, grads, name, rng)

    def test_gradients_without_injection(self):
        m = TransformerLM(tiny_config()).astype(np.float64)
        rng = np.random.default_rng(19)
        seq = [BOS_ID, 5, 9, 6, EOS_ID]
        _, _, grads = m.nll_and_grads(seq)
        for name in ("tok_emb", "l0.wq", "l1.w2", "lnf_g"):
            self.check_tensor(m, seq, None, grads, name, rng)

    def test_unused_positions_get_zero_grad(self):
        m = TransformerLM(tiny_config()).astype(np.float64)
        body = [5, 6, EOS_ID]
        _, _, grads = m.nll_and_grads(body, np.zeros(16))
        assert np.all(grads["pos_emb"][3:] == 0.0)

    def test_unused_tokens_get_zero_grad_except_head(self):
        # every vocab row appears in the tied head, so tok_emb grads are dense;
        # check instead that the injected position contributes no tok_emb row
        m = TransformerLM(tiny_config()).astype(np.float64)
        body = [5, EOS_ID]
        _, _, g1 = m.nll_and_grads(body, np.zeros(16))
        assert g1["tok_emb"].shape == (13, 16)


class TestDtype:
    def test_astype_round_trip(self):
        m = TransformerLM(tiny_config())
        m64 = m.astype(np.float64)
        assert m64.dtype == np.float64
        back = m64.astype(np.float32)
        for name in m.params:
            assert back.params[name].tobytes() == m.params[name].tobytes()

    def test_float32_default(self):
        m = TransformerLM(tiny_config())
        assert m.dtype == np.float32
        assert m.forward([5, 6]).dtype == np.float32


class TestGelu:
    def test_gelu_prime_matches_fd(self):
        u = np.linspace(-4, 4, 41)
        eps = 1e-6
        fd = (gelu(u + eps, erf_term(u + eps)) - gelu(u - eps, erf_term(u - eps))) / (2 * eps)
        np.testing.assert_allclose(gelu_prime(u, erf_term(u)), fd, atol=1e-8)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shared_erf_term_keeps_the_bytes(self, dtype):
        u = np.random.default_rng(41).normal(0.0, 3.0, size=4096).astype(dtype)
        s = erf_term(u)
        assert gelu(u, s).tobytes() == gelu_unshared(u).tobytes()
        assert gelu_prime(u, s).tobytes() == gelu_prime_unshared(u).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_erf_term_in_row_slices_keeps_the_bytes(self, dtype):
        u = np.random.default_rng(42).normal(0.0, 3.0, size=(3 * HEAD_ROWS + 5, 24)).astype(dtype)
        assert erf_term(u).tobytes() == (1.0 + erf(u / model_module.SQRT_2)).tobytes()

    def test_forward_logits_keep_the_bytes(self, monkeypatch):
        m = TransformerLM(tiny_config())
        inj = np.random.default_rng(43).normal(size=16).astype(np.float32)
        shared = m.forward([5, 6, 7, 8], inj)
        monkeypatch.setattr(model_module, "gelu", lambda u, s: gelu_unshared(u))
        assert shared.tobytes() == m.forward([5, 6, 7, 8], inj).tobytes()


class TestErf:
    """``model.erf`` against ``scipy.special.erf``, bit for bit; any NaN
    equals any NaN. ``tests/erf_exhaustive.py`` runs every float32."""

    # the cephes ranges meet at |x| = 1 and 8; exp(-x^2) underflows past
    # sqrt(MAXLOG), about 26.64
    EDGES = [0.0, 1.0, 8.0, 26.6, math.sqrt(7.09782712893383996843e2), 0.5, 2.0, 1e30,
             np.inf, np.nan]

    @staticmethod
    def mismatches(x: np.ndarray) -> list:
        with np.errstate(invalid="ignore"):  # signalling NaN patterns warn on the cast
            ours, ref = erf(x), scipy_erf(x)
        assert ours.dtype == ref.dtype == x.dtype and ours.shape == x.shape
        bits = np.uint32 if x.dtype == np.float32 else np.uint64
        same = (ours.view(bits) == ref.view(bits)) | (np.isnan(ours) & np.isnan(ref))
        return x[~same].tolist()

    @staticmethod
    def edges(dtype) -> np.ndarray:
        tiny = np.finfo(dtype).smallest_subnormal
        e = np.array(TestErf.EDGES + [tiny, 3 * tiny, np.finfo(dtype).tiny], dtype=dtype)
        e = np.concatenate([e, np.nextafter(e, dtype(np.inf)), np.nextafter(e, dtype(-np.inf))])
        return np.concatenate([e, -e])

    def test_float32_bit_pattern_sweep(self):
        # every 1021st pattern: a prime stride, so the low mantissa bits vary
        x = np.arange(0, 1 << 32, 1021, dtype=np.uint64).astype(np.uint32).view(np.float32)
        assert self.mismatches(x) == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edges(self, dtype):
        assert self.mismatches(self.edges(dtype)) == []

    def test_float64_sample(self):
        x = np.random.default_rng(47).normal(0.0, 3.0, size=200_000)
        assert self.mismatches(x) == []

    def test_keeps_the_shape(self):
        x = np.linspace(-3, 3, 12, dtype=np.float32).reshape(3, 4).T
        assert self.mismatches(x) == []
        assert erf(np.float64(0.5)).shape == () and erf(0.5) == scipy_erf(0.5)
        assert erf(np.zeros((2, 0))).shape == (2, 0)


class TestInPlace:
    """erf, erf_term, gelu and gelu_prime fill buffers of their own and
    never write into their inputs."""

    @pytest.mark.parametrize("values", [[-30.0, -1.5, -0.25, 0.0, np.nan, 0.75, 1.0, 2.5, np.inf],
                                        [-1.0, -0.25, -0.0, np.nan, 0.75, 1.0]])
    def test_read_only_float64_input(self, values):
        # with a tail and without: erf reads a float64 input through a view,
        # so a write would raise here
        x = np.array(values)
        x.setflags(write=False)
        before = x.tobytes()
        got = erf(x)
        assert got.tobytes() == scipy_erf(x).tobytes()
        assert x.tobytes() == before

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_keeps_its_inputs(self, dtype):
        u = np.random.default_rng(44).normal(0.0, 2.0, size=(HEAD_ROWS + 3, 8)).astype(dtype)
        s = erf_term(u)
        u_bytes, s_bytes = u.tobytes(), s.tobytes()
        gelu(u, s)
        gelu_prime(u, s)
        assert u.tobytes() == u_bytes and s.tobytes() == s_bytes

    def test_erf_term_peak_memory(self):
        # one HEAD_ROWS slice of GELU inputs at the benchmark model's width
        # and fresh-weight scale, so no element reaches erf's tail: widened
        # to float64 (128 KiB) it takes four float64 arrays in all (577 KiB
        # traced), where an array per operation peaked at 849 KiB
        import tracemalloc

        u = np.random.default_rng(45).normal(0.0, 0.16, size=(HEAD_ROWS, 256)).astype(np.float32)
        erf_term(u)  # warm any first-call allocation
        tracemalloc.start()
        try:
            erf_term(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 640 * 1024, peak
