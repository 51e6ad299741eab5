"""Independent reference implementations the library is checked against,
and the test doubles that stand in for library parts.

The metric oracles are written deliberately plainly (position scans, full DP
tables, explicit bookkeeping) so they share no code or structure with the
package. ``normalize_per_char`` is normalize as a per-character category
scan, and ``self_bleu_loop`` is self-BLEU as a leave-one-out loop of string
``bleu`` calls; both are the bodies their table-driven and top-two-count
replacements must equal. ``counter_bleu``, ``counter_ori_bleu`` and
``counter_self_bleu`` are the BLEU family as it was computed from one
``Counter`` per sentence and order (self-BLEU clipping from ``top_two``
counts), the path the library's sparse n-gram table must equal float for
float. ``unit_tokens_per_occurrence`` is a sentence's unit token rows with
one embedder call per word occurrence, normalized together by
``np.linalg.norm``, the body the metrics' per-record word table must equal,
and ``bag_encode_accumulating`` is the hashed bag encoder summing its signed
slots in a NumPy array. ``batch_nll_and_grads_loop`` is the per-example
training loss the batched loss body replaced. ``select_full_vocabulary`` is
one group's beam selection over a full ``(b, V)`` score array, the body the
decoder's shortlist walks must equal, ``banned_next_tokens_scan`` is the
n-gram ban as a slice per prefix position, ``reference_dbs`` is diverse beam
search as a straight loop over every prefix's full ``forward`` (``next_lp``),
the decoder's independent reference at any group count, one included, and
``acceptable_count_per_char`` is the language filter's per-character count.
``split_sentences_full_prefix`` is the
sentence splitter searching the whole text before each period for its word, and
``build_vocabulary_per_sentence`` counts the vocabulary one ``words`` call per
sentence; they are the bodies the windowed splitter and the chunked count must
equal. ``build_corpus_generator_integers`` is build_corpus with every draw a
scalar ``Generator.integers`` call, the body its raw-stream draws must equal.
``gelu_unshared`` and ``gelu_prime_unshared``
are GELU and its derivative as written before they shared the erf term.
``adamw_step_allocating`` is the AdamW step with a new array per operation,
the body the optimizer's two-scratch-array step must equal byte for byte.
``Recompute`` is the reference decoder state: it gives any model
with a ``forward`` the ``start``/``step`` calls the decoder takes, by
re-running the forward over every prefix. ``ClusterOracleEncoder`` is a
synthetic one-hot sentence encoder for clustered test corpora.
"""

from __future__ import annotations

import math
import re
import string
import unicodedata
from collections import Counter
from typing import Callable, Mapping

import numpy as np
from scipy.special import erf, logsumexp

from smclm.corpus import _BOUNDARY, ABBREVIATIONS, default_lang_filter, split_sentences
from smclm.decoding import BeamSearchConfig, Hypothesis, _Beam, banned_next_tokens
from smclm.encoders import HashedBagEncoder, _signed_slot, unit
from smclm.metrics import bleu
from smclm.model import INV_SQRT_2PI, SQRT_2
from smclm.tokenization import BOS_ID, SPECIAL_TOKENS, Vocabulary, normalize, words


def oracle_bleu(hyp: list[str], refs: list[list[str]], max_n: int = 3) -> float:
    """Brute-force sentence BLEU on [0, 1]; orders longer than hyp are skipped."""
    if len(hyp) == 0:
        return 0.0
    precisions = []
    for n in range(1, max_n + 1):
        spans = [tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1)]
        if not spans:
            continue
        matched = 0
        for gram in sorted(set(spans)):
            in_hyp = sum(1 for s in spans if s == gram)
            best_ref = 0
            for ref in refs:
                count = 0
                for i in range(len(ref) - n + 1):
                    if tuple(ref[i : i + n]) == gram:
                        count += 1
                best_ref = max(best_ref, count)
            matched += min(in_hyp, best_ref)
        precisions.append(matched / len(spans))
    if any(p == 0.0 for p in precisions):
        return 0.0
    geo = math.exp(sum(math.log(p) for p in precisions) / len(precisions))
    c = len(hyp)
    r = sorted((len(ref) for ref in refs), key=lambda L: (abs(L - c), L))[0]
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * geo


def oracle_lcs(a: list[str], b: list[str]) -> int:
    """Full-table longest common subsequence."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def oracle_rouge_l(hyp: list[str], refs: list[list[str]]) -> float:
    """Max-over-references LCS F1 on [0, 1]."""
    if not hyp:
        return 0.0
    best = 0.0
    for ref in refs:
        if not ref:
            continue
        lcs = oracle_lcs(hyp, ref)
        if lcs == 0:
            continue
        precision = lcs / len(hyp)
        recall = lcs / len(ref)
        best = max(best, 2 * precision * recall / (precision + recall))
    return best


def normalize_per_char(text: str) -> str:
    """Lowercase, delete each character whose category starts with "P", and
    collapse whitespace, one unicodedata lookup per character."""
    lowered = text.lower()
    kept = [ch for ch in lowered if not unicodedata.category(ch).startswith("P")]
    return " ".join("".join(kept).split())


def acceptable_count_per_char(text: str) -> int:
    """How many characters of text are ASCII letters, digits, punctuation or
    whitespace, one set lookup per character."""
    acceptable = set(string.ascii_letters + string.digits + string.punctuation + string.whitespace)
    return sum(1 for ch in text if ch in acceptable)


def split_sentences_full_prefix(text: str) -> list[str]:
    """Sentences of text, each lone period's word found by searching a copy of
    the whole text before it."""
    cuts = []
    for m in _BOUNDARY.finditer(text):
        if m.group(1) == ".":
            last = re.search(r"[\w.]+$", text[: m.start(1)])
            if last and last.group(0).lower() in ABBREVIATIONS:
                continue
        cuts.append(m.end(1))
    out = []
    prev = 0
    for cut in cuts:
        piece = text[prev:cut].strip()
        if piece:
            out.append(piece)
        prev = cut
    tail = text[prev:].strip()
    if tail:
        out.append(tail)
    return out


def build_corpus_generator_integers(sources, target_count: int, seed: int = 0,
                                    min_chars: int = 10, splitter=split_sentences):
    """build_corpus drawing the domain, source, document and sentence with
    ``int(rng.integers(n))`` from ``np.random.default_rng(seed)``."""
    if target_count < 1:
        raise ValueError("target_count must be >= 1")
    if not sources:
        raise ValueError("no sources")
    domains: dict[str, list[list[str]]] = {}
    for domain, docs in sources:
        pools = domains.setdefault(domain, [])
        if docs:
            pools.append(list(docs))
    stats = {
        d: {"admitted": 0, "rejected": {"short": 0, "language": 0, "empty": 0, "duplicate": 0}}
        for d in domains
    }
    rng = np.random.default_rng(seed)
    seen: set[str] = set()
    admitted: list[str] = []
    names = [d for d in domains if domains[d]]
    while len(admitted) < target_count and names:
        domain = names[int(rng.integers(len(names)))]
        pools = domains[domain]
        pool = pools[int(rng.integers(len(pools)))]
        doc = pool.pop(int(rng.integers(len(pool))))
        if not pool:
            pools.remove(pool)
            if not pools:
                names.remove(domain)
        rejected = stats[domain]["rejected"]
        if len(doc) < min_chars:
            rejected["short"] += 1
            continue
        if not default_lang_filter(doc):
            rejected["language"] += 1
            continue
        sentences = [s for s in splitter(doc) if s.strip()]
        if not sentences:
            rejected["empty"] += 1
            continue
        sentence = sentences[int(rng.integers(len(sentences)))].strip()
        if sentence in seen:
            rejected["duplicate"] += 1
            continue
        seen.add(sentence)
        admitted.append(sentence)
        stats[domain]["admitted"] += 1
    manifest = {
        "target": target_count,
        "admitted": len(admitted),
        "shortfall": len(admitted) < target_count,
        "seed": seed,
        "min_chars": min_chars,
        "domains": stats,
    }
    return admitted, manifest


def build_vocabulary_per_sentence(corpus, min_freq: int = 1) -> Vocabulary:
    """The vocabulary of corpus, counted with one ``words`` call per sentence."""
    counts = Counter()
    seen_any = False
    for sentence in corpus:
        seen_any = True
        counts.update(words(sentence))
    if not seen_any:
        raise ValueError("empty corpus")
    kept = sorted(
        (t for t, c in counts.items() if c >= min_freq and t not in SPECIAL_TOKENS),
        key=lambda t: (-counts[t], t),
    )
    if not kept:
        raise ValueError(f"no token reaches min_freq={min_freq}")
    return Vocabulary(SPECIAL_TOKENS + tuple(kept))


def self_bleu_loop(candidates: list[str], max_n: int = 3) -> float:
    """Mean over candidates of string BLEU against all the other candidates."""
    scores = []
    for i, cand in enumerate(candidates):
        others = [c for j, c in enumerate(candidates) if j != i]
        scores.append(bleu(cand, others, max_n))
    return float(np.mean(scores))


def _counter_ngrams(words: list[str], n: int) -> Counter:
    return Counter(zip(*(words[i:] for i in range(n))))


def top_two(counts: list[Counter]) -> tuple[dict, dict]:
    """Per gram, the largest and the second-largest count over ``counts``
    (a gram found in one Counter only has no second entry)."""
    top1: dict = {}
    top2: dict = {}
    for c in counts:
        for gram, cnt in c.items():
            t = top1.get(gram, 0)
            if cnt > t:
                top1[gram] = cnt
                if t:
                    top2[gram] = t
            elif cnt > top2.get(gram, 0):
                top2[gram] = cnt
    return top1, top2


def _counter_bleu_body(hyp: list[str], max_n: int, ref_lengths: list[int],
                       clipped: Callable[[int, Counter], int]) -> float:
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    c = len(hyp)
    if c == 0:
        return 0.0
    log_sum = 0.0
    orders = range(1, min(max_n, c) + 1)
    for n in orders:
        matched = clipped(n, _counter_ngrams(hyp, n))
        if matched == 0:
            return 0.0
        log_sum += math.log(matched / (c - n + 1))
    geo = math.exp(log_sum / len(orders))
    r = min(ref_lengths, key=lambda L: (abs(L - c), L))
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return 100.0 * bp * geo


def counter_bleu(hypothesis: str, references: list[str], max_n: int = 3) -> float:
    """Sentence BLEU on 0..100, each gram clipped at its top count among the references."""
    hyp = normalize(hypothesis).split()
    refs = [normalize(r).split() for r in references]
    if not refs:
        raise ValueError("empty reference list")

    def clipped(n: int, counts: Counter) -> int:
        ref_max = top_two([_counter_ngrams(r, n) for r in refs])[0]
        return sum(min(cnt, ref_max.get(gram, 0)) for gram, cnt in counts.items())

    return _counter_bleu_body(hyp, max_n, [len(r) for r in refs], clipped)


def counter_ori_bleu(source: str, candidates: list[str], max_n: int = 3) -> float:
    """Mean counter_bleu of each candidate against the source."""
    return float(np.mean([counter_bleu(c, [source], max_n) for c in candidates]))


def counter_self_bleu(candidates: list[str], max_n: int = 3) -> float:
    """Leave-one-out BLEU: a candidate's clip count for a gram is the set's
    top count, or the second one where it holds the top itself."""
    cands = [normalize(c).split() for c in candidates]
    tops = {n: top_two([_counter_ngrams(c, n) for c in cands]) for n in range(1, max_n + 1)}

    def clipped(n: int, counts: Counter) -> int:
        top1, top2 = tops[n]
        return sum(cnt if cnt < top1[gram] else top2.get(gram, 0) for gram, cnt in counts.items())

    lengths = [len(c) for c in cands]
    return float(np.mean([
        _counter_bleu_body(cand, max_n, lengths[:i] + lengths[i + 1 :], clipped)
        for i, cand in enumerate(cands)
    ]))


def unit_tokens_per_occurrence(words: list[str], token_embedder) -> np.ndarray:
    """One embedder call per word occurrence, stacked, each row divided by its
    ``np.linalg.norm``; a zero row raises."""
    e = np.stack([np.asarray(token_embedder(t), dtype=np.float64) for t in words])
    norms = np.linalg.norm(e, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("token embedder produced a zero vector")
    return e / norms


def bag_encode_accumulating(encoder: HashedBagEncoder, sentence: str) -> np.ndarray:
    """The hashed bag of ``sentence``, its signed slots summed into a float64
    NumPy array; a bag whose signs cancel falls back to the bag-size slot."""
    toks = normalize(sentence).split() or [""]
    acc = np.zeros(encoder.dim, dtype=np.float64)
    for t in toks:
        idx, sign = _signed_slot(t, encoder.dim, encoder.seed)
        acc[idx] += sign
    if not acc.any():
        acc[len(toks) % encoder.dim] = 1.0
    return unit(acc)


def batch_nll_and_grads_loop(model, batch):
    """Mean loss and equally weighted mean gradients, one example at a time.

    Each example runs alone, as a batch of one (no padding, one
    micro-batch); its gradients are scaled by 1/B and summed.
    """
    total = 0.0
    grads = {name: np.zeros_like(arr) for name, arr in model.params.items()}
    inv = 1.0 / len(batch)
    for tokens, injection in batch:
        loss, g = model.batch_nll_and_grads([(tokens, injection)])
        total += loss
        for name in grads:
            grads[name] += g[name] * np.asarray(inv, dtype=model.dtype)
    return total * inv, grads


def gelu_unshared(u):
    return 0.5 * u * (1.0 + erf(u / SQRT_2))


def gelu_prime_unshared(u):
    return 0.5 * (1.0 + erf(u / SQRT_2)) + u * INV_SQRT_2PI * np.exp(-0.5 * u * u)


def adamw_step_allocating(opt, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                          lr: float) -> None:
    """One step of ``training.AdamW`` ``opt``, each operation allocating its result."""
    cfg = opt.cfg
    opt.t += 1
    bc1 = 1.0 - cfg.beta1**opt.t
    bc2 = 1.0 - cfg.beta2**opt.t
    for name, p in params.items():
        g = grads[name]
        m = opt.m[name]
        v = opt.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        mhat = m / bc1
        vhat = v / bc2
        p -= (lr * (mhat / (np.sqrt(vhat) + cfg.eps))).astype(p.dtype)
        if cfg.weight_decay:
            p -= (lr * cfg.weight_decay) * p


def banned_next_tokens_scan(tokens: tuple[int, ...], n: int) -> set[int]:
    """The token after every earlier copy of the last n - 1 tokens, found by
    comparing one slice per prefix position."""
    if n <= 0 or len(tokens) < n - 1:
        return set()
    prefix = tokens[len(tokens) - (n - 1) :] if n > 1 else ()
    banned = set()
    for i in range(len(tokens) - n + 1):
        if tokens[i : i + n - 1] == prefix:
            banned.add(tokens[i + n - 1])
    return banned


def select_full_vocabulary(lp: np.ndarray, live: list[_Beam], chosen: list[int],
                           cfg: BeamSearchConfig, width: int, group: int):
    """Extend one group's live beams by one token and keep the best width.

    ``lp`` holds the timestep's next-token log-probs for every live beam.
    Each (beam, token) cell scores sel_score + log-prob minus
    diversity_strength per pick of that token earlier in this timestep
    (``chosen``); tokens banned by the n-gram rule or ``cfg.banned_ids`` are
    skipped. Higher score wins, then the lower token id, then the earlier
    beam; only cells that tie or beat the width-th best score are sorted.
    Live beams of one group always share a length, so length never breaks a
    tie. Returns the
    continuing beams, the hypotheses finished by eos and the picked tokens.
    """
    lp = lp[[h.row for h in live]]
    sel = np.array([h.sel_score for h in live])
    score = sel[:, None] + lp - cfg.diversity_strength * np.bincount(chosen, minlength=lp.shape[1])
    for bi, h in enumerate(live):
        score[bi, list(banned_next_tokens(h.tokens, cfg.no_repeat_ngram) | cfg.banned_ids)] = -np.inf
    flat = score.ravel()
    k = min(width, np.count_nonzero(flat > -np.inf))
    if k == 0:
        return [], [], []
    cut = np.partition(flat, flat.size - k)[flat.size - k]
    cells = np.flatnonzero(flat >= cut)
    beam, token = np.divmod(cells, lp.shape[1])
    order = np.lexsort((beam, token, -flat[cells]))[:width]
    new_live, finished, picks = [], [], []
    for bi, w in zip(beam[order].tolist(), token[order].tolist()):
        parent = live[bi]
        tokens = parent.tokens + (w,)
        log_prob = parent.log_prob + lp[bi, w]
        picks.append(w)
        if w == cfg.eos_id:
            finished.append(Hypothesis(tokens, log_prob, group=group))
        else:
            new_live.append(_Beam(tokens, log_prob, score[bi, w], parent.row))
    return new_live, finished, picks


def next_lp(model, prefix, injection):
    """The float64 next-token log-probs after ``prefix``, from a full
    ``forward`` and scipy's logsumexp."""
    if injection is None:
        logits = model.forward([BOS_ID] + list(prefix))
    else:
        logits = model.forward(list(prefix), injection)
    z = logits[-1].astype(np.float64)
    return z - logsumexp(z)


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


class Recompute:
    """``start``/``step`` for a model seen through ``forward`` alone.

    The cache is each row's prefix; every step re-runs the forward over it
    and takes the float64 log-softmax of the last logits row.
    """

    def __init__(self, model):
        self.model = model
        self.injection = None

    def start(self, injection):
        self.injection = injection
        return self._next_logprobs([()]), [()]

    def step(self, cache, parents, tokens):
        prefixes = [cache[p] + (w,) for p, w in zip(parents, tokens)]
        return self._next_logprobs(prefixes), prefixes

    def _next_logprobs(self, prefixes) -> np.ndarray:
        rows = []
        for prefix in prefixes:
            if self.injection is None:
                logits = self.model.forward([BOS_ID] + list(prefix))
            else:
                logits = self.model.forward(list(prefix), self.injection)
            z = logits[-1].astype(np.float64)
            z = z - z.max()
            rows.append(z - np.log(np.exp(z).sum()))
        return np.stack(rows)


class ClusterOracleEncoder:
    """One-hot encoder for synthetic cluster corpora: sentence -> e_cluster.

    ``assignment`` maps normalized sentences to integer cluster ids, or
    ``cluster_fn`` computes the id from the normalized sentence. Unknown
    sentences go to ``default`` when given, otherwise raise.
    """

    def __init__(
        self,
        dim: int,
        assignment: Mapping[str, int] | None = None,
        default: int | None = None,
        cluster_fn: Callable[[str], int] | None = None,
    ):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if (assignment is None) == (cluster_fn is None):
            raise ValueError("provide exactly one of assignment or cluster_fn")
        self.dim = dim
        self.assignment = dict(assignment) if assignment is not None else None
        self.default = default
        self.cluster_fn = cluster_fn

    def cluster_id(self, sentence: str) -> int:
        norm = normalize(sentence)
        if self.cluster_fn is not None:
            return self.cluster_fn(norm)
        cid = self.assignment.get(norm, self.default)
        if cid is None:
            raise KeyError(f"no cluster assigned for sentence: {sentence!r}")
        return cid

    def missing(self, sentences) -> list[str]:
        """The distinct sentences, in first-seen order, with no cluster id."""
        if self.cluster_fn is not None or self.default is not None:
            return []
        return [s for s in dict.fromkeys(sentences) if normalize(s) not in self.assignment]

    def encode(self, sentence: str) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.float32)
        v[self.cluster_id(sentence) % self.dim] = 1.0
        return v

    def encode_many(self, sentences) -> np.ndarray:
        return np.array([self.encode(s) for s in sentences], dtype=np.float32).reshape(-1, self.dim)
