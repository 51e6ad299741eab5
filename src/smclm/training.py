"""Training loop: AdamW with linear warmup/decay, deterministic shuffling, JSONL logs."""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .model import TransformerLM
from .tokenization import BOS_ID, EOS_ID, Vocabulary

MODES = ("clm", "smclm")


@dataclass(frozen=True)
class TrainConfig:
    """Published defaults; override per run."""

    mode: str = "smclm"
    learning_rate: float = 5e-6
    batch_size: int = 32
    weight_decay: float = 1e-2
    epochs: int = 8
    warmup_steps: int = 2000
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 1:
            raise ValueError("learning_rate, batch_size, epochs must be positive")
        if self.warmup_steps < 0 or self.weight_decay < 0:
            raise ValueError("warmup_steps and weight_decay must be >= 0")

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
    if total_steps == cfg.warmup_steps:
        return lr
    return lr * ((total_steps - step) / (total_steps - cfg.warmup_steps))


class AdamW:
    """Decoupled-weight-decay Adam over a dict of named tensors.

    Decay applies uniformly to every tensor (no layer-norm/bias exemptions).
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
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            mhat = m / bc1
            vhat = v / bc2
            p -= (lr * (mhat / (np.sqrt(vhat) + cfg.eps))).astype(p.dtype)
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
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "smclm" and encoder is None:
        raise ValueError("smclm mode needs a sentence encoder")
    examples = []
    skipped = 0
    for sentence in corpus:
        ids = vocab.tokenize(sentence)
        if mode == "smclm":
            tokens: list[int] = ids + [EOS_ID]
            rows = len(tokens)  # injection + len(tokens)-1 token inputs
        else:
            tokens = [BOS_ID] + ids + [EOS_ID]
            rows = len(tokens) - 1
        if max_positions is not None and rows > max_positions:
            skipped += 1
            continue
        injection = (
            np.asarray(encoder.encode(sentence), dtype=np.float32) if mode == "smclm" else None
        )
        examples.append((tokens, injection))
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
    the offending step and batch index.
    """
    start = time.monotonic()
    examples, skipped = build_examples(
        corpus, vocab, cfg.mode, encoder, model.config.max_positions
    )
    if not examples:
        raise ValueError("no usable training examples")
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
                batch_losses.append(loss)
                if log_file:
                    log_file.write(json.dumps({"step": step, "lr": lr, "loss": loss}) + "\n")
            epoch_losses.append(float(np.mean(batch_losses)))
            if valid_corpus is not None:
                valid_losses.append(evaluate_nll(model, vocab, valid_corpus, cfg.mode, encoder))
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
    model: TransformerLM, vocab: Vocabulary, corpus: list[str], mode: str, encoder=None
) -> float:
    """Mean over sentences of per-token mean NLL; no parameter updates."""
    examples, _ = build_examples(corpus, vocab, mode, encoder, model.config.max_positions)
    if not examples:
        raise ValueError("no evaluable sentences")
    losses = [model.nll(tokens, injection)[0] for tokens, injection in examples]
    return float(np.mean(losses))
