"""Training loop: AdamW with linear warmup/decay, deterministic shuffling, JSONL logs."""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .encoders import check_covered
from .model import (
    NON_NEGATIVE, POSITIVE, UNIT_INTERVAL, TransformerLM, at_least, check_fields, one_of, ranged,
)
from .tokenization import BOS_ID, EOS_ID, Vocabulary

MODES = ("clm", "smclm")
MODE = one_of(MODES)


@dataclass(frozen=True)
class TrainConfig:
    """Published defaults; override per run."""

    mode: str = ranged("smclm", MODE)
    learning_rate: float = ranged(5e-6, POSITIVE)
    batch_size: int = ranged(32, at_least(1))
    weight_decay: float = ranged(1e-2, NON_NEGATIVE)
    epochs: int = ranged(8, at_least(1))
    warmup_steps: int = ranged(2000, at_least(0))
    beta1: float = ranged(0.9, UNIT_INTERVAL)
    beta2: float = ranged(0.999, UNIT_INTERVAL)
    eps: float = ranged(1e-8, POSITIVE)
    seed: int = ranged(0, at_least(0))

    def __post_init__(self):
        check_fields(self)

    def to_dict(self) -> dict:
        return asdict(self)


def lr_at_step(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Piecewise-linear rate through (0, 0), (warmup, lr), (total, 0).

    ``step`` is the 1-based update index; the ramp anchors at zero before the
    first update and the decay reaches exactly zero at the final one.
    """
    if not 1 <= step <= total_steps:
        raise ValueError(f"step {step} outside 1..{total_steps}")
    lr = cfg.learning_rate
    # ratio first: step/warmup is exact at the midpoint, so lr/2 comes
    # out bit-exact there (lr*step/warmup rounds twice and can miss by 1 ulp)
    if step <= cfg.warmup_steps:
        return lr * (step / cfg.warmup_steps)
    return lr * ((total_steps - step) / (total_steps - cfg.warmup_steps))


class AdamW:
    """Adam with weight decay kept out of the moments, over named tensors.

    Each step first applies the Adam update, then decays the already-updated
    weight: p -= lr * mhat / (sqrt(vhat) + eps); p -= lr * weight_decay * p.
    Decoupled AdamW (Loshchilov & Hutter, arXiv:1711.05101) decays the
    previous weight instead; the two differ by lr**2 * weight_decay times the
    Adam step. Decay applies uniformly to every tensor (no layer-norm/bias
    exemptions).
    """

    def __init__(self, params: dict[str, np.ndarray], cfg: TrainConfig):
        self.cfg = cfg
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float) -> None:
        cfg = self.cfg
        self.t += 1
        bc1 = 1.0 - cfg.beta1**self.t
        bc2 = 1.0 - cfg.beta2**self.t
        for name, p in params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            # two scratch arrays per tensor; each line is one operation of
            # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
            # p -= lr * mhat / (sqrt(vhat) + eps), in that order. The decay's
            # product takes a new array once the scratch is freed: with a
            # numpy float64 lr it is float64, which a scratch would round
            a, b = np.empty_like(p), np.empty_like(p)
            m *= cfg.beta1
            m += np.multiply(g, 1.0 - cfg.beta1, out=a)
            v *= cfg.beta2
            np.multiply(g, 1.0 - cfg.beta2, out=a)
            v += np.multiply(a, g, out=a)
            np.sqrt(np.divide(v, bc2, out=a), out=a)
            a += cfg.eps
            np.divide(m, bc1, out=b)
            b /= a
            p -= np.multiply(b, lr, out=b)
            del a, b
            if cfg.weight_decay:
                p -= (lr * cfg.weight_decay) * p


@dataclass
class TrainReport:
    steps: int
    epoch_losses: list[float]
    valid_losses: list[float]
    skipped: int
    wall_time: float

    def to_dict(self) -> dict:
        return asdict(self)


def build_examples(
    corpus: list[str], vocab: Vocabulary, mode: str, encoder=None, max_positions: int | None = None
) -> tuple[list[tuple[list[int], np.ndarray | None]], int]:
    """Tokenize sentences into (tokens, injection) training examples.

    smclm examples are (body + <eos>, frozen sentence embedding); clm examples
    are (<bos> + body + <eos>, None). Sequences needing more than
    max_positions input rows are skipped and counted.
    """
    MODE.check("mode", mode)
    if mode == "smclm" and encoder is None:
        raise ValueError("smclm mode needs a sentence encoder")
    examples = []
    skipped = 0
    for sentence in corpus:
        ids = vocab.tokenize(sentence)
        # both modes read len(ids) + 1 positions: the start slot (injection
        # or <bos>) plus the body; the final <eos> is only ever a target
        if max_positions is not None and len(ids) + 1 > max_positions:
            skipped += 1
            continue
        if mode == "smclm":
            injection = np.asarray(encoder.encode(sentence), dtype=np.float32)
            examples.append((ids + [EOS_ID], injection))
        else:
            examples.append(([BOS_ID] + ids + [EOS_ID], None))
    if skipped:
        warnings.warn(f"skipped {skipped} sequences longer than max_positions={max_positions}")
    return examples, skipped


def train(
    model: TransformerLM,
    vocab: Vocabulary,
    corpus: list[str],
    cfg: TrainConfig,
    encoder=None,
    valid_corpus: list[str] | None = None,
    log_path: str | None = None,
) -> TrainReport:
    """Run the optimization and return per-epoch losses.

    The batch loss is the mean over batch examples of each example's
    per-token mean NLL. Shuffling is drawn from cfg.seed only, so a run is
    reproducible bit for bit on one platform. A non-finite loss aborts with
    the offending step and batch index. A validation corpus with no
    sentence that fits max_positions raises before the first step, and in
    smclm mode an encoder not embed_dim wide, or a training or validation
    sentence it has no vector for, raises before any sentence is encoded.
    """
    start = time.monotonic()
    if cfg.mode == "smclm" and encoder is not None:
        check_covered(encoder, chain(corpus, valid_corpus or ()), model.config.embed_dim)
    examples, skipped = build_examples(
        corpus, vocab, cfg.mode, encoder, model.config.max_positions
    )
    if not examples:
        raise ValueError("no usable training examples")
    if valid_corpus is not None:
        valid_examples, _ = build_examples(
            valid_corpus, vocab, cfg.mode, encoder, model.config.max_positions
        )
        if not valid_examples:
            raise ValueError(
                f"validation corpus has no sentences that fit max_positions="
                f"{model.config.max_positions}"
            )
    batches_per_epoch = math.ceil(len(examples) / cfg.batch_size)
    total_steps = cfg.epochs * batches_per_epoch
    if cfg.warmup_steps > total_steps:
        raise ValueError(f"warmup_steps={cfg.warmup_steps} exceeds total steps {total_steps}")
    optimizer = AdamW(model.params, cfg)
    rng = np.random.default_rng(cfg.seed)
    step = 0
    epoch_losses: list[float] = []
    valid_losses: list[float] = []
    log_file = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(examples))
            batch_losses = []
            for b in range(batches_per_epoch):
                batch = [examples[i] for i in order[b * cfg.batch_size : (b + 1) * cfg.batch_size]]
                loss, grads = model.batch_nll_and_grads(batch)
                step += 1
                if not math.isfinite(loss):
                    raise RuntimeError(
                        f"non-finite loss {loss} at step {step} (epoch {epoch}, batch {b})"
                    )
                lr = lr_at_step(step, total_steps, cfg)
                optimizer.step(model.params, grads, lr)
                del grads  # else this step's gradients live on while the next step builds its own
                batch_losses.append(loss)
                if log_file:
                    log_file.write(json.dumps({"step": step, "lr": lr, "loss": loss}) + "\n")
            epoch_losses.append(float(np.mean(batch_losses)))
            if valid_corpus is not None:
                valid_losses.append(evaluate_nll(model, valid_examples))
    finally:
        if log_file:
            log_file.close()
    return TrainReport(
        steps=step,
        epoch_losses=epoch_losses,
        valid_losses=valid_losses,
        skipped=skipped,
        wall_time=time.monotonic() - start,
    )


def evaluate_nll(
    model: TransformerLM, examples: list[tuple[list[int], np.ndarray | None]]
) -> float:
    """Mean over build_examples examples of per-token mean NLL; no parameter updates."""
    if not examples:
        raise ValueError("no evaluable sentences")
    return float(np.mean(model._loss(examples, with_grads=False)[0]))
