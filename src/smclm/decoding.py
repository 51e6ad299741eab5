"""Diversity-grouped beam decoding, with plain beam and greedy as its cases.

``diverse_beam_search`` is the one decode loop: ``beam_search`` is one group
with no diversity penalty, and ``greedy_decode`` is width-one beam search.
The model is a next-token distribution behind ``TransformerLM``'s two
decoding calls: ``start(injection)`` scores the first token from the
injected vector (or <bos> when decoding an unconditioned model), and each
timestep runs one ``step(cache, parents, tokens)`` for every group's live
beams over a per-layer K/V cache whose rows follow the selected parents.
Diversity penalties only change selection, so the groups share the step.

Selection never scores the full vocabulary. Each timestep sets every live
beam's bans (the n-gram rule's plus ``banned_ids``) to -inf in its row of the
log-probs, which the decoder owns (``TransformerLM`` returns fresh arrays).
Penalties only lower known tokens' scores, so up to rounding a group of width
w picks from a row's best w + (distinct earlier picks) cells. One argpartition
keeps every row's best beam_count + 1. A group walks its beams' lists until
sel_score + log-prob is -inf or strictly below its width-th best; a walk past
a list's end goes on over the rest of the row, as a cell tied at the cut, or
one whose score rounds to a kept cell's, can still win on its lower id.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

import numpy as np

from .model import FINITE, NON_NEGATIVE, TYPE_RULES, at_least, check_fields, ranged
from .tokenization import EOS_ID


@dataclass(frozen=True)
class BeamSearchConfig:
    """eos_id and banned_ids must lie inside the model's vocabulary (checked at
    decode start); "no eos", every beam run to max_length, is banned_ids holding eos_id."""

    beam_count: int = ranged(5, at_least(1))
    group_count: int = ranged(5, at_least(1))
    diversity_strength: float = ranged(0.6, NON_NEGATIVE)  # nan would walk every full row
    no_repeat_ngram: int = ranged(2, at_least(0))  # 0 disables the constraint
    max_length: int = ranged(32, at_least(1))
    length_alpha: float = ranged(1.0, FINITE)
    eos_id: int = ranged(EOS_ID, at_least(0))  # a negative id would end no beam
    banned_ids: frozenset[int] = frozenset()  # ids no beam may select

    def __post_init__(self):
        check_fields(self)
        if self.beam_count % self.group_count != 0:
            raise ValueError("beam_count must be divisible by group_count")
        object.__setattr__(self, "banned_ids", frozenset(self.banned_ids))
        for i in self.banned_ids:
            TYPE_RULES["int"].check("banned_ids", i)
        # a negative id would mask the last vocabulary columns
        at_least(0).check("banned_ids", min(self.banned_ids, default=0))


@dataclass(frozen=True)
class Hypothesis:
    """A decoded sequence: ended by eos, or cut at max_length.

    log_prob is the unpenalized cumulative model log-probability of tokens
    (diversity penalties never leak into it); tokens end with eos exactly
    when the hypothesis ended at eos.
    """

    tokens: tuple[int, ...]
    log_prob: float
    group: int = 0

    def ranking_score(self, alpha: float) -> float:
        return self.log_prob / max(1, len(self.tokens)) ** alpha


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
    if n == 1:
        return set(tokens)
    # i ends each earlier (n - 1)-gram; only one ending in the last token
    # can equal the prefix, so the slice is built only for those
    prefix = tokens[len(tokens) - n + 1 :]
    last = tokens[-1]
    return {
        tokens[i + 1]
        for i in range(n - 2, len(tokens) - 1)
        if tokens[i] == last and tokens[i - n + 2 : i + 1] == prefix
    }


def greedy_decode(model, injection, max_length: int, eos_id: int = EOS_ID) -> list[int]:
    """Width-one beam search; ties to the lowest id; the terminal eos is dropped.

    A model whose first choice is eos yields an empty sequence.
    """
    tokens = beam_search(model, injection, 1, max_length, eos_id=eos_id)[0].tokens
    return list(tokens[:-1] if tokens and tokens[-1] == eos_id else tokens)


@dataclass
class _Beam:
    tokens: tuple[int, ...]
    log_prob: float
    sel_score: float  # log_prob minus accumulated diversity penalties
    # this beam's row in the timestep's log-probs; a new beam holds its
    # parent's row until the next model step
    row: int


def _shortlists(lp: np.ndarray, k: int) -> list[list[tuple[float, int]]]:
    """Each row's k best cells (all of them when V <= k) as sorted
    (-log-prob, token) pairs, from one argpartition over every row."""
    v = lp.shape[1]
    k = min(k, v)
    idx = np.argpartition(lp, v - k, axis=1)[:, v - k :]
    neg = -np.take_along_axis(lp, idx, axis=1)
    order = np.lexsort((idx, neg), axis=1)
    neg = np.take_along_axis(neg, order, axis=1).tolist()
    ids = np.take_along_axis(idx, order, axis=1).tolist()
    return [list(zip(row, w)) for row, w in zip(neg, ids)]


def _walk(lp: np.ndarray, lists, row: int):
    """A row's shortlist, then, only if a walk gets past it, the row's other
    cells in the same order. Every other cell's log-prob is at most the
    list's last, and those tied at the cut come here too."""
    cells = lists[row]
    yield from cells
    if len(cells) < lp.shape[1]:
        listed = {w for _, w in cells}
        full = _shortlists(lp[row : row + 1], lp.shape[1])[0]
        yield from (c for c in full if c[1] not in listed)


def _select(lp: np.ndarray, lists, live: list[_Beam], picked: dict[int, int],
            cfg: BeamSearchConfig, width: int, group: int):
    """Extend one group's live beams by one token and keep the best width.

    A (beam, token) cell scores sel_score + log-prob minus diversity_strength
    per earlier pick of the token this timestep (``picked``, which gains this
    group's picks); -inf cells, masked bans included, never win. Higher score
    wins, then the lower token id, then the earlier beam (one group's live
    beams share a length). Each beam walks its row (see ``_walk``) until
    sel_score + log-prob is -inf or strictly below the width-th best score:
    nothing later can win. Returns (continuing beams, hypotheses ended by eos).
    """
    best: list[tuple[float, int, int]] = []  # (-score, token, beam), best first
    for bi, h in enumerate(live):
        for neg_lp, w in _walk(lp, lists, h.row):
            base = h.sel_score - neg_lp  # = sel_score + log-prob, bit for bit
            if base == -np.inf or (len(best) == width and base < -best[-1][0]):
                break
            key = (-(base - cfg.diversity_strength * picked.get(w, 0)), w, bi)
            if len(best) < width or key < best[-1]:
                insort(best, key)
                del best[width:]
    new_live, finished = [], []
    for neg_score, w, bi in best:
        parent = live[bi]
        tokens = parent.tokens + (w,)
        log_prob = parent.log_prob + lp[parent.row, w]
        picked[w] = picked.get(w, 0) + 1
        if w == cfg.eos_id:
            finished.append(Hypothesis(tokens, log_prob, group=group))
        else:
            new_live.append(_Beam(tokens, log_prob, -neg_score, parent.row))
    return new_live, finished


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
    live: list[list[_Beam]] = [[_Beam((), 0.0, 0.0, 0)] for _ in range(cfg.group_count)]
    pools: list[list[Hypothesis]] = [[] for _ in range(cfg.group_count)]
    lp, cache = model.start(injection)  # one row, shared by every group's first beam
    for name, top in (("eos_id", cfg.eos_id), ("banned_ids", max(cfg.banned_ids, default=0))):
        if top >= lp.shape[1]:
            raise ValueError(f"{name} must be < vocab_size={lp.shape[1]}, got {top}")
    for t in range(cfg.max_length):
        bans = [(h.row, w) for beams in live for h in beams
                for w in banned_next_tokens(h.tokens, cfg.no_repeat_ngram) | cfg.banned_ids]
        lp[[row for row, _ in bans], [w for _, w in bans]] = -np.inf  # one per beam reads slower
        lists = _shortlists(lp, cfg.beam_count + 1)
        picked: dict[int, int] = {}  # picks per token by the groups done this timestep
        for g in range(cfg.group_count):
            if live[g]:
                live[g], done = _select(lp, lists, live[g], picked, cfg, per_group, g)
                pools[g].extend(done)
        beams = [h for group in live for h in group]
        if not beams or t == cfg.max_length - 1:
            break
        del lp  # free this timestep's (rows, V) array before the step builds the next
        lp, cache = model.step(cache, [h.row for h in beams], [h.tokens[-1] for h in beams])
        for row, h in enumerate(beams):
            h.row = row
    result = []
    for g in range(cfg.group_count):
        pool = pools[g] + [Hypothesis(h.tokens, h.log_prob, group=g) for h in live[g]]
        result.extend(_rank(pool, cfg.length_alpha, per_group))
    return result
