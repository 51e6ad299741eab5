"""Greedy, standard beam, and diversity-grouped beam decoding.

All decoders treat the model as a next-token distribution: given the injected
vector (or <bos> when decoding an unconditioned model) plus the tokens so far,
the last logits row scores the next token. No prefix caching; prefixes are
recomputed each step.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .tokenization import BOS_ID, EOS_ID


@dataclass(frozen=True)
class BeamSearchConfig:
    beam_count: int = 5
    group_count: int = 5
    diversity_strength: float = 0.6
    no_repeat_ngram: int = 2  # 0 disables the constraint
    max_length: int = 32
    length_alpha: float = 1.0
    eos_id: int = EOS_ID

    def __post_init__(self):
        if self.beam_count < 1 or self.group_count < 1:
            raise ValueError("beam_count and group_count must be >= 1")
        if self.beam_count % self.group_count != 0:
            raise ValueError("beam_count must be divisible by group_count")
        if self.diversity_strength < 0:
            raise ValueError("diversity_strength must be >= 0")
        if self.no_repeat_ngram < 0:
            raise ValueError("no_repeat_ngram must be >= 0")
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")


@dataclass(frozen=True)
class Hypothesis:
    """A finished or in-flight beam item.

    log_prob is the unpenalized cumulative model log-probability of tokens
    (diversity penalties never leak into it); tokens include the terminal
    eos when the hypothesis finished by eos.
    """

    tokens: tuple[int, ...]
    log_prob: float
    finished: bool = False
    group: int = 0

    def ranking_score(self, alpha: float) -> float:
        return self.log_prob / max(1, len(self.tokens)) ** alpha


def _next_logprobs(model, prefix: tuple[int, ...], injection) -> np.ndarray:
    """float64 log-softmax over the next token after prefix."""
    if injection is None:
        context = [BOS_ID] + list(prefix)
        logits = model.forward(context)
    else:
        logits = model.forward(list(prefix), injection)
    z = logits[-1].astype(np.float64)
    z = z - z.max()
    return z - np.log(np.exp(z).sum())


def _check_window(model, max_length: int) -> None:
    """Fail before decoding when max_length tokens cannot fit the position window.

    The last step reads max_length positions: the injected slot (or <bos>)
    plus max_length - 1 generated tokens. Models without a config are not
    checked.
    """
    config = getattr(model, "config", None)
    if config is not None and max_length > config.max_positions:
        raise ValueError(
            f"max_length={max_length} exceeds the model's max_positions={config.max_positions}"
        )


def banned_next_tokens(tokens: tuple[int, ...], n: int) -> set[int]:
    """Tokens whose selection would repeat an n-gram already in ``tokens``."""
    if n <= 0 or len(tokens) < n - 1:
        return set()
    prefix = tokens[len(tokens) - (n - 1) :] if n > 1 else ()
    banned = set()
    for i in range(len(tokens) - n + 1):
        if tokens[i : i + n - 1] == prefix:
            banned.add(tokens[i + n - 1])
    return banned


def greedy_decode(model, injection, max_length: int, eos_id: int = EOS_ID) -> list[int]:
    """Repeated argmax (ties to the lowest token id); stops at eos or max_length.

    Returns the generated tokens without the terminal eos, so a model whose
    first argmax is eos yields an empty sequence.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    _check_window(model, max_length)
    out: list[int] = []
    for _ in range(max_length):
        lp = _next_logprobs(model, tuple(out), injection)
        nxt = int(np.argmax(lp))
        if nxt == eos_id:
            break
        out.append(nxt)
    return out


@dataclass
class _Beam:
    tokens: tuple[int, ...]
    log_prob: float
    sel_score: float  # log_prob minus accumulated diversity penalties


def _expand(model, injection, live: list[_Beam], counts: Counter, strength: float, n: int):
    """Score every (beam, token) extension; candidates carry tie-break keys."""
    candidates = []
    for bi, h in enumerate(live):
        lp = _next_logprobs(model, h.tokens, injection)
        banned = banned_next_tokens(h.tokens, n)
        for w in range(lp.shape[0]):
            if w in banned:
                continue
            score = h.sel_score + lp[w] - strength * counts[w]
            candidates.append((score, w, len(h.tokens), bi, lp[w]))
    # higher score first; ties prefer lower token id, shorter hypothesis, earlier beam
    candidates.sort(key=lambda c: (-c[0], c[1], c[2], c[3]))
    return candidates


def _select(candidates, live, width: int, eos_id: int, group: int):
    """Take the top candidates, splitting finished (eos) from continuing beams."""
    new_live, finished, chosen = [], [], []
    for score, w, _, bi, lpw in candidates[:width]:
        parent = live[bi]
        tokens = parent.tokens + (w,)
        log_prob = parent.log_prob + lpw
        chosen.append(w)
        if w == eos_id:
            finished.append(Hypothesis(tokens, log_prob, finished=True, group=group))
        else:
            new_live.append(_Beam(tokens, log_prob, score))
    return new_live, finished, chosen


def _rank(pool: list[Hypothesis], alpha: float, width: int) -> list[Hypothesis]:
    ordered = sorted(
        enumerate(pool), key=lambda p: (-p[1].ranking_score(alpha), len(p[1].tokens), p[0])
    )
    return [h for _, h in ordered[:width]]


def beam_search(
    model,
    injection,
    beam_count: int,
    max_length: int,
    no_repeat_ngram: int = 0,
    length_alpha: float = 1.0,
    eos_id: int = EOS_ID,
) -> list[Hypothesis]:
    """Plain beam search: diverse beam search with one group and no penalty."""
    return diverse_beam_search(
        model,
        injection,
        BeamSearchConfig(
            beam_count=beam_count,
            group_count=1,
            diversity_strength=0.0,
            no_repeat_ngram=no_repeat_ngram,
            max_length=max_length,
            length_alpha=length_alpha,
            eos_id=eos_id,
        ),
    )


def diverse_beam_search(model, injection, cfg: BeamSearchConfig) -> list[Hypothesis]:
    """Grouped beam search with a Hamming diversity penalty between groups.

    Groups extend in order at every timestep; a token selected by earlier
    groups at the same timestep (eos included) costs later groups
    diversity_strength per prior selection. Penalties accumulate in each
    beam's selection score but never in Hypothesis.log_prob. Each group
    returns its beams-per-group best finished hypotheses by
    log_prob / length^alpha; groups concatenate in order. Degenerate
    vocabularies can leave a group with fewer finished hypotheses; whatever
    exists is returned.
    """
    _check_window(model, cfg.max_length)
    per_group = cfg.beam_count // cfg.group_count
    live: list[list[_Beam]] = [[_Beam((), 0.0, 0.0)] for _ in range(cfg.group_count)]
    pools: list[list[Hypothesis]] = [[] for _ in range(cfg.group_count)]
    for _ in range(cfg.max_length):
        if not any(live):
            break
        counts: Counter = Counter()
        for g in range(cfg.group_count):
            if not live[g]:
                continue
            candidates = _expand(
                model, injection, live[g], counts, cfg.diversity_strength, cfg.no_repeat_ngram
            )
            live[g], finished, chosen = _select(candidates, live[g], per_group, cfg.eos_id, g)
            pools[g].extend(finished)
            counts.update(chosen)
    result = []
    for g in range(cfg.group_count):
        pool = pools[g] + [
            Hypothesis(h.tokens, h.log_prob, finished=True, group=g) for h in live[g]
        ]
        result.extend(_rank(pool, cfg.length_alpha, per_group))
    return result
