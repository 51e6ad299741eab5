"""Decoder-only causal transformer on numpy with a hand-written backward pass.

Position 0 of the input can be an arbitrary injected vector instead of a token
embedding; it is summed with the position embedding exactly like a token, so
injecting the model's own <bos> row reproduces the plain forward bit for bit.

Parameters are float32; loss and per-token log-probs accumulate in float64.
For gradient checking, ``astype(np.float64)`` casts the whole model so the
analytic and finite-difference sides share one precision.

The GELU's ``erf`` is a NumPy port of the cephes routine that
``scipy.special.erf`` runs, equal to it bit for bit in both precisions, so
the package needs numpy alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .tokenization import BOS_ID

LN_EPS = 1e-5
SQRT_2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# padded rows per loss micro-batch, cut after a stable sort by length so a
# pass holds little padding, and real rows per slice of the vocabulary head,
# which bounds the head's (rows, V) float64 buffer whatever the budget. 128
# rows ran the train benchmark fastest; 256 ran slower and used more memory
# (sweep in CHANGES.md)
ROW_BUDGET = 128
HEAD_ROWS = 64

# cephes ndtr.c, the erf that scipy.special.erf runs: x T(x²) / U(x²) for
# |x| <= 1, else 1 - exp(-x²) P(|x|) / Q(|x|); U and Q lead with an implied 1
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)


class Rule(NamedTuple):
    """A config value's type or bound: text names it in the error, and test
    is written so that nan fails it."""

    text: str
    test: Callable[[object], bool]

    def check(self, name: str, value) -> None:
        if not self.test(value):
            raise ValueError(f"{name} must be {self.text}, got {value!r}")


def at_least(n: int) -> Rule:
    return Rule(f">= {n}", lambda v: v >= n)


def one_of(options: tuple) -> Rule:
    return Rule(f"one of {options}", lambda v: v in options)


POSITIVE = Rule("finite and > 0", lambda v: math.isfinite(v) and v > 0)
NON_NEGATIVE = Rule("finite and >= 0", lambda v: math.isfinite(v) and v >= 0)
FINITE = Rule("finite", math.isfinite)
UNIT_INTERVAL = Rule("in [0, 1)", lambda v: 0 <= v < 1)

# keyed by the string annotations of ``from __future__ import annotations``;
# a bool is an Integral, so only a bool field takes one (true is batch size 1)
TYPE_RULES = {
    "int": Rule("int", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    "float": Rule("float", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)),
    "bool": Rule("bool", lambda v: isinstance(v, bool)),
}


def ranged(default, rule: Rule):
    """A dataclass field whose value check_fields holds to rule."""
    return field(default=default, metadata={"rule": rule})


def check_fields(config) -> None:
    """Hold each field to its type rule, then its range rule, naming the field
    and the value: a bad JSON config value would otherwise fail late or pass."""
    for f in fields(config):
        value = getattr(config, f.name)
        for rule in (TYPE_RULES.get(f.type), f.metadata.get("rule")):
            if rule is not None:
                rule.check(f.name, value)


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = ranged(MISSING, at_least(5))  # the 4 specials plus a word
    embed_dim: int = ranged(64, at_least(1))
    layer_count: int = ranged(2, at_least(1))
    head_count: int = ranged(4, at_least(1))
    ff_dim: int = ranged(256, at_least(1))
    max_positions: int = ranged(64, at_least(2))
    init_std: float = ranged(0.02, POSITIVE)
    seed: int = ranged(0, at_least(0))

    def __post_init__(self):
        check_fields(self)
        if self.embed_dim % self.head_count != 0:
            raise ValueError("embed_dim must be divisible by head_count")

    def to_dict(self) -> dict:
        return asdict(self)


def param_entries(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Fixed (name, shape, kind) order; also the init draw order and file order."""
    d, f = config.embed_dim, config.ff_dim
    entries = [
        ("tok_emb", (config.vocab_size, d), "weight"),
        ("pos_emb", (config.max_positions, d), "weight"),
    ]
    for i in range(config.layer_count):
        p = f"l{i}."
        entries += [
            (p + "ln1_g", (d,), "ln_gain"),
            (p + "ln1_b", (d,), "ln_bias"),
            (p + "wq", (d, d), "weight"),
            (p + "bq", (d,), "bias"),
            (p + "wk", (d, d), "weight"),
            (p + "bk", (d,), "bias"),
            (p + "wv", (d, d), "weight"),
            (p + "bv", (d,), "bias"),
            (p + "wo", (d, d), "weight"),
            (p + "bo", (d,), "bias"),
            (p + "ln2_g", (d,), "ln_gain"),
            (p + "ln2_b", (d,), "ln_bias"),
            (p + "w1", (d, f), "weight"),
            (p + "b1", (f,), "bias"),
            (p + "w2", (f, d), "weight"),
            (p + "b2", (d,), "bias"),
        ]
    entries += [("lnf_g", (d,), "ln_gain"), ("lnf_b", (d,), "ln_bias")]
    return entries


def init_params(config: ModelConfig) -> dict[str, np.ndarray]:
    """normal(0, init_std) weights, zero biases, unit layer-norm gains.

    Draws follow param_entries order from one generator seeded by config.seed,
    so a config fully determines the initialization.
    """
    rng = np.random.default_rng(config.seed)
    params = {}
    for name, shape, kind in param_entries(config):
        if kind == "weight":
            params[name] = rng.normal(0.0, config.init_std, size=shape).astype(np.float32)
        elif kind == "ln_gain":
            params[name] = np.ones(shape, dtype=np.float32)
        else:
            params[name] = np.zeros(shape, dtype=np.float32)
    return params


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """coef[0] x^N + ... + coef[N] by Horner's rule, step for step as cephes."""
    ans = coef[0] * x
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef) -> np.ndarray:
    """x^N + coef[0] x^(N-1) + ... + coef[N-1], the same way."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _libm_exp(t: np.ndarray) -> np.ndarray:
    """exp of a 1-d float64 array through the C library, as cephes calls it;
    numpy's vectorized exp differs from it by an ulp on some arguments."""
    return np.fromiter(map(math.exp, t.tolist()), np.float64, t.size)


def erf(x) -> np.ndarray:
    """The error function, equal to ``scipy.special.erf`` bit for bit.

    A port of cephes' erf. float32 input is computed in float64 and rounded
    once, like scipy's float32 loop; other real input gives float64. |x| > 1
    takes 1 - erfc(|x|) with its sign; from |x| = 8 on that is exactly 1,
    so those arguments, infinities included, are evaluated at 8.

    The input is never written: for float64 input ``a`` is a view of it.
    Without a tail the work is three float64 arrays, filled in place.
    """
    x = np.asarray(x)
    a = np.asarray(x, dtype=np.float64).ravel()
    # fmax/fmin skip NaN, which stays with the rational, which returns it
    has_tail = a.size > 0 and (np.fmax.reduce(a) > 1.0 or np.fmin.reduce(a) < -1.0)
    if has_tail:
        mag = np.abs(a)
        tail = mag > 1.0
        small = np.where(tail, 0.0, a)
    else:
        small = a
    z = small * small
    y = _polevl(z, _T)
    y *= small
    y /= _p1evl(z, _U)
    if has_tail:
        w = np.minimum(mag[tail], 8.0)
        e = _libm_exp(-w * w)
        y[tail] = np.copysign(1.0 - e * _polevl(w, _P) / _p1evl(w, _Q), a[tail])
    y = y.reshape(x.shape)
    return y.astype(np.float32) if x.dtype == np.float32 else y


def erf_term(u: np.ndarray) -> np.ndarray:
    """1 + erf(u / sqrt 2): the term gelu and gelu_prime share, computed once per layer.

    Runs over HEAD_ROWS rows at a time: erf holds three float64 arrays the
    size of its input (four for float32 input, which it first widens), and
    every value is elementwise, so slicing keeps the bytes.
    """
    if len(u) > HEAD_ROWS:
        return np.concatenate([erf_term(u[r : r + HEAD_ROWS]) for r in range(0, len(u), HEAD_ROWS)])
    s = erf(u / SQRT_2)
    s += 1.0
    return s


def gelu(u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """GELU of ``u`` given ``s = erf_term(u)``."""
    g = 0.5 * u
    g *= s
    return g


def gelu_prime(u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """d gelu / du given ``s = erf_term(u)``."""
    # 0.5 s + u / sqrt(2 pi) * exp(-u u / 2) in one buffer, one operation a
    # line in the expression's order, so the bytes are the expression's
    d = -0.5 * u
    d *= u
    np.exp(d, out=d)
    d *= u * INV_SQRT_2PI
    d += 0.5 * s
    return d


def _layer_norm(x, g, b):
    # the operations of x.mean and ((x - mu) ** 2).mean, without their
    # Python-level wrappers; one centred copy serves the variance and xhat
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + x.dtype.type(LN_EPS))
    xc *= inv_std
    return g * xc + b, xc, inv_std


def _layer_norm_backward(dy, xhat, inv_std, g):
    dg = (dy * xhat).sum(axis=0)
    db = dy.sum(axis=0)
    dxhat = dy * g
    # the means as _layer_norm takes them, without ndarray.mean's wrapper
    d = dy.shape[-1]
    dx = (
        dxhat
        - np.add.reduce(dxhat, axis=-1, keepdims=True) / d
        - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d)
    ) * inv_std
    return dx, dg, db


def _split_heads(a: np.ndarray, n: int, t: int, H: int) -> np.ndarray:
    """(n * t, H * dh) rows to (n * H, t, dh) per-head stacks."""
    return a.reshape(n, t, H, -1).transpose(0, 2, 1, 3).reshape(n * H, t, -1)


def _merge_heads(a: np.ndarray, n: int, t: int) -> np.ndarray:
    """(n * H, t, dh) per-head stacks back to (n * t, H * dh) rows."""
    H = len(a) // n
    return a.reshape(n, H, t, -1).transpose(0, 2, 1, 3).reshape(n * t, -1)


def _micro_batches(lengths: list[int]) -> list[list[int]]:
    """Example indices, stably sorted by length, cut into runs whose padded
    rows, count times the longest length, fit ROW_BUDGET; an example longer
    than the budget runs alone. Sorted runs pad each example to a length
    close to its own."""
    runs, run = [], []
    for i in sorted(range(len(lengths)), key=lengths.__getitem__):
        if run and (len(run) + 1) * lengths[i] > ROW_BUDGET:
            runs.append(run)
            run = []
        run.append(i)
    runs.append(run)
    return runs


def _pad(rows: list[np.ndarray], t: int) -> np.ndarray:
    """Stack each example's input rows, right-padded with zeros to t positions: (n * t, d)."""
    x = np.zeros((len(rows), t, rows[0].shape[1]), dtype=rows[0].dtype)
    for i, r in enumerate(rows):
        x[i, : len(r)] = r
    return x.reshape(len(rows) * t, -1)


class TransformerLM:
    """Causal LM over token ids with optional injected position-0 embedding."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray] | None = None):
        self.config = config
        if params is None:
            params = init_params(config)
        expected = {name: shape for name, shape, _ in param_entries(config)}
        if set(params) != set(expected):
            missing = set(expected) - set(params)
            extra = set(params) - set(expected)
            raise ValueError(f"parameter mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, arr in params.items():
            if tuple(arr.shape) != expected[name]:
                raise ValueError(f"{name}: shape {arr.shape}, expected {expected[name]}")
        self.params = params

    @property
    def dtype(self):
        return self.params["tok_emb"].dtype

    def astype(self, dtype) -> "TransformerLM":
        return TransformerLM(self.config, {k: v.astype(dtype) for k, v in self.params.items()})

    def _ids(self, tokens) -> list[int]:
        """``tokens`` as a list, every id range-checked once."""
        tokens = list(tokens)
        for t in tokens:
            if not 0 <= t < self.config.vocab_size:
                raise ValueError(f"token id {t} out of range")
        return tokens

    def _inputs(self, tokens: list[int], injection: np.ndarray | None) -> np.ndarray:
        """Input rows of a whole sequence: embeddings plus positions, shape (T, embed_dim)."""
        p = self.params
        cfg = self.config
        T = len(tokens) + (injection is not None)
        if T == 0:
            raise ValueError("empty input")
        self._check_window(T)
        rows = p["tok_emb"][np.asarray(tokens, dtype=np.intp)]
        if injection is not None:
            inj = np.asarray(injection, dtype=self.dtype)
            if inj.shape != (cfg.embed_dim,):
                raise ValueError(f"injection shape {inj.shape}, expected ({cfg.embed_dim},)")
            if not np.isfinite(inj).all():
                raise ValueError("injection has non-finite values")
            rows = np.concatenate([inj[None, :], rows], axis=0)
        return rows + p["pos_emb"][:T]

    def _check_window(self, T: int) -> None:
        if T > self.config.max_positions:
            raise ValueError(
                f"sequence of {T} positions exceeds max_positions={self.config.max_positions}"
            )

    def _blocks(self, x: np.ndarray, t: int, past=None, parents=None, head: bool = True):
        """The one transformer block loop: t new positions for each of n rows.

        ``x`` holds the input rows, row-major, shape (n * t, embed_dim).
        Without ``past`` they are n whole sequences, right-padded to t
        positions; the causal mask already hides a row's padded positions
        from its real ones. With ``past``, a per-layer (K, V) cache of shape
        (rows, head_count, s, head_dim), t is 1 and row i continues cache
        row ``parents[i]``.

        A lone row (n * t == 1) runs twice and the copy is dropped: numpy
        sends a one-row matmul to gemv, which rounds differently from the
        gemm rows of a longer pass. While decoding, a single query runs twice
        for the same reason.

        Returns the logits of every row (None without ``head``; the loss
        runs the head itself from ``acts["y"]``), the activations
        ``_backward`` reads, and the cache grown by t positions.
        """
        p = self.params
        cfg = self.config
        H = cfg.head_count
        dh = cfg.embed_dim // H
        scale = np.asarray(1.0 / math.sqrt(dh), dtype=self.dtype)
        n = keep = len(x) // t
        s = 0 if past is None else past[0][0].shape[2]
        if n * t == 1:
            x, n = np.concatenate([x, x]), 2
            if parents is not None:
                parents = [parents[0]] * 2
        if t > 1:
            causal = np.tri(t, dtype=bool)

        layers, grown = [], []
        for i in range(cfg.layer_count):
            pre = f"l{i}."
            a, xhat1, inv1 = _layer_norm(x, p[pre + "ln1_g"], p[pre + "ln1_b"])
            q = a @ p[pre + "wq"] + p[pre + "bq"]
            k = a @ p[pre + "wk"] + p[pre + "bk"]
            v = a @ p[pre + "wv"] + p[pre + "bv"]
            k4 = k.reshape(n, t, H, dh).transpose(0, 2, 1, 3)
            v4 = v.reshape(n, t, H, dh).transpose(0, 2, 1, 3)
            if past is not None:
                keys, values = past[i]
                k4 = np.concatenate([keys[parents], k4], axis=2)
                v4 = np.concatenate([values[parents], v4], axis=2)
            grown.append((k4, v4))
            qh = _split_heads(q, n, t, H)
            kh = k4.reshape(n * H, s + t, dh)
            vh = v4.reshape(n * H, s + t, dh)
            if past is not None:
                qh = np.repeat(qh, 2, axis=1)
            scores = (qh @ kh.transpose(0, 2, 1)) * scale
            if t > 1:
                scores = np.where(causal, scores, np.asarray(-np.inf, dtype=self.dtype))
            m = scores.max(axis=-1, keepdims=True)
            e = np.exp(scores - m)
            att = e / e.sum(axis=-1, keepdims=True)
            o = _merge_heads((att @ vh)[:, :t], n, t)
            x_mid = x + (o @ p[pre + "wo"] + p[pre + "bo"])
            fpost, xhat2, inv2 = _layer_norm(x_mid, p[pre + "ln2_g"], p[pre + "ln2_b"])
            u = fpost @ p[pre + "w1"] + p[pre + "b1"]
            erf_u = erf_term(u)
            g_act = gelu(u, erf_u).astype(self.dtype, copy=False)
            x = x_mid + (g_act @ p[pre + "w2"] + p[pre + "b2"])
            layers.append(
                dict(xhat1=xhat1, inv1=inv1, a=a, att=att, vh=vh, qh=qh, kh=kh, o=o,
                     xhat2=xhat2, inv2=inv2, fpost=fpost, u=u, erf_u=erf_u, g_act=g_act)
            )
        y, xhatf, invf = _layer_norm(x, p["lnf_g"], p["lnf_b"])
        acts = dict(layers=layers, y=y, xhatf=xhatf, invf=invf)
        logits = y @ p["tok_emb"].T if head else None
        if keep < n:
            grown = [(k[:keep], v[:keep]) for k, v in grown]
            if head:
                logits = logits[:t]
        return logits, acts, grown

    def forward(self, tokens, injection: np.ndarray | None = None) -> np.ndarray:
        """Logits for every input position, shape (T, vocab_size).

        With ``injection`` the input is the injected vector followed by the
        token embeddings; otherwise it is the token embeddings alone.
        """
        x = self._inputs(self._ids(tokens), injection)
        return self._blocks(x, len(x))[0]

    def start(self, injection: np.ndarray | None = None):
        """Decoding state after position 0: the injection, or <bos> without one.

        Returns the float64 next-token log-probs, shape (1, vocab_size), and
        the per-layer (K, V) cache that ``step`` extends, each of shape
        (1, head_count, 1, head_dim). One pass makes both, so the log-probs
        are bit for bit a one-position ``forward``'s.
        """
        x = self._inputs([] if injection is not None else [BOS_ID], injection)
        logits, _, cache = self._blocks(x, 1)
        return log_softmax(logits), cache

    def step(self, cache, parents, tokens):
        """Append one position to each live row of a decoding cache.

        Row i continues cache row ``parents[i]`` with ``tokens[i]``. Returns
        the float64 next-token log-probs, shape (len(tokens), vocab_size),
        and the grown cache. The logits row equals the last row of a full
        ``forward`` over the same prefix up to float32 rounding in the
        masked softmax of earlier layers (bit for bit with one layer).
        """
        tokens = self._ids(tokens)
        parents = list(parents)
        rows, _, s, _ = cache[0][0].shape
        if len(parents) != len(tokens):
            raise ValueError(f"{len(parents)} parents for {len(tokens)} tokens")
        for r in parents:
            if not 0 <= r < rows:
                raise ValueError(f"parent index {r} out of range for {rows} cache rows")
        self._check_window(s + 1)
        x = self.params["tok_emb"][np.asarray(tokens, dtype=np.intp)] + self.params["pos_emb"][s]
        logits, _, cache = self._blocks(x, 1, cache, parents)
        return log_softmax(logits), cache

    def _loss(self, examples, with_grads: bool):
        """The one next-token loss body behind nll, batch_nll_and_grads and
        training.evaluate_nll.

        ``examples`` are (tokens, injection) pairs, all checked before any
        pass runs. ``_micro_batches`` sorts them by input length and cuts
        them into micro-batches of at most ROW_BUDGET padded rows, each one
        ``_micro_batch`` pass. Returns, in input order, each example's
        per-token mean NLL and its float64 per-token log-probs and, with
        grads, the gradients of the mean over examples of those losses (None
        without), so examples weigh equally regardless of length.
        """
        if not examples:
            raise ValueError("empty batch")
        prepared = []
        for tokens, injection in examples:
            tokens = self._ids(tokens)
            targets = tokens if injection is not None else tokens[1:]
            if not targets:
                raise ValueError("need at least 1 target token (2 tokens without an injection)")
            prepared.append((self._inputs(tokens[:-1], injection), tokens[:-1], targets))
        grads = {name: np.zeros_like(arr) for name, arr in self.params.items()} if with_grads else None
        # the head's float64 and model-dtype buffers, shared by every slice
        # of every micro-batch: allocated per slice, the allocator handed
        # them back to the system and page-faulted them in again each time
        V = self.config.vocab_size
        head = np.empty((HEAD_ROWS, V)), np.empty((HEAD_ROWS, V), self.dtype)
        lps = [None] * len(prepared)
        for chunk in _micro_batches([len(x) for x, _, _ in prepared]):
            got = self._micro_batch([prepared[i] for i in chunk], 1.0 / len(examples), grads, head)
            for i, lp in zip(chunk, got):
                lps[i] = lp
        return [float(-lp.mean()) for lp in lps], lps, grads

    def _micro_batch(self, examples, weight: float, grads, head) -> list[np.ndarray]:
        """One right-padded forward over (input rows, input ids, targets)
        examples; returns each one's float64 per-token log-probs. With
        ``grads``, one backward adds each example's mean-NLL gradient, scaled
        by ``weight``, into them. The vocabulary head runs over HEAD_ROWS
        real rows at a time, in the ``head`` buffers.
        """
        inputs, ids, targets = zip(*examples)
        lengths = [len(x) for x in inputs]
        t = max(lengths)
        # flat (row * t + position) index of every real input row, and of the
        # rows that came from token embeddings rather than an injection
        real = np.concatenate([j * t + np.arange(T) for j, T in enumerate(lengths)])
        embedded = np.concatenate(
            [j * t + np.arange(T - len(w), T) for j, (T, w) in enumerate(zip(lengths, ids))]
        )
        _, acts, _ = self._blocks(_pad(inputs, t), t, head=False)
        y, emb = acts["y"], self.params["tok_emb"]
        target_ids = np.concatenate(targets)
        lp = np.empty(len(real))
        if grads is not None:
            dy = np.zeros_like(y)
            # d(weight * mean nll)/dlogits = weight * (softmax - onehot) / T_i
            row_weights = np.repeat([weight / T for T in lengths], lengths)[:, None]
        for c in range(0, len(real), HEAD_ROWS):
            rows, tid = real[c : c + HEAD_ROWS], target_ids[c : c + HEAD_ROWS]
            at = np.arange(len(rows))
            yr = y[rows]
            # the float64 buffer takes the shifted logits, then their exp,
            # which serves both the log-probs and the softmax
            e, z = head[0][: len(rows)], head[1][: len(rows)]
            np.matmul(yr, emb.T, out=z)  # the logits
            np.copyto(e, z)
            e -= e.max(axis=-1, keepdims=True)
            target_z = e[at, tid]
            np.exp(e, out=e)
            total = e.sum(axis=-1, keepdims=True)
            lp[c : c + len(rows)] = target_z - np.log(total[:, 0])
            if grads is not None:
                e /= total
                e[at, tid] -= 1.0
                e *= row_weights[c : c + HEAD_ROWS]
                np.copyto(z, e, casting="same_kind")  # now dlogits
                grads["tok_emb"] += z.T @ yr
                dy[rows] = z @ emb
        if grads is not None:
            token_ids = np.asarray([w for seq in ids for w in seq], dtype=np.intp)
            self._backward(dy, acts, t, embedded, token_ids, grads)
        return np.split(lp, np.cumsum(lengths)[:-1])

    def nll(self, tokens, injection: np.ndarray | None = None) -> tuple[float, np.ndarray]:
        """Mean per-token NLL in nats and the float64 per-token log-probs.

        Without injection, ``tokens`` is a full marker-wrapped sequence and
        targets are tokens[1:]. With injection, ``tokens`` is the body whose
        every element (including the trailing <eos>) is predicted, the first
        from the injected vector itself.
        """
        losses, lps, _ = self._loss([(tokens, injection)], with_grads=False)
        return losses[0], lps[0]

    def _backward(self, dy, acts, t, embedded, ids, grads) -> None:
        """Add the gradients of one padded ``_blocks`` pass below the
        vocabulary head into ``grads``.

        ``dy`` is the gradient at the final layer norm's output, every row;
        padded rows carry zero, so they add exactly zero. ``embedded``
        indexes the input rows taken from ``tok_emb``, whose token ids are
        ``ids``.
        """
        p = self.params
        cfg = self.config
        d = cfg.embed_dim
        H = cfg.head_count
        scale = np.asarray(1.0 / math.sqrt(d // H), dtype=self.dtype)
        n = len(acts["xhatf"]) // t

        dx, dgf, dbf = _layer_norm_backward(dy, acts["xhatf"], acts["invf"], p["lnf_g"])
        grads["lnf_g"] += dgf
        grads["lnf_b"] += dbf

        for i in reversed(range(cfg.layer_count)):
            pre = f"l{i}."
            c = acts["layers"][i]
            # x_out = x_mid + g_act @ w2 + b2
            dm = dx
            grads[pre + "w2"] += c["g_act"].T @ dm
            grads[pre + "b2"] += dm.sum(axis=0)
            dg_act = dm @ p[pre + "w2"].T
            du = dg_act * gelu_prime(c["u"], c["erf_u"]).astype(self.dtype, copy=False)
            grads[pre + "w1"] += c["fpost"].T @ du
            grads[pre + "b1"] += du.sum(axis=0)
            dfpost = du @ p[pre + "w1"].T
            dx_mid, dg2, db2 = _layer_norm_backward(dfpost, c["xhat2"], c["inv2"], p[pre + "ln2_g"])
            grads[pre + "ln2_g"] += dg2
            grads[pre + "ln2_b"] += db2
            dx_mid = dx_mid + dx
            # x_mid = x + o @ wo + bo
            dattn = dx_mid
            grads[pre + "wo"] += c["o"].T @ dattn
            grads[pre + "bo"] += dattn.sum(axis=0)
            do = _split_heads(dattn @ p[pre + "wo"].T, n, t, H)
            datt = do @ c["vh"].transpose(0, 2, 1)
            dvh = c["att"].transpose(0, 2, 1) @ do
            dscores = c["att"] * (datt - (datt * c["att"]).sum(axis=-1, keepdims=True))
            dq = _merge_heads((dscores @ c["kh"]) * scale, n, t)
            dk = _merge_heads((dscores.transpose(0, 2, 1) @ c["qh"]) * scale, n, t)
            dv = _merge_heads(dvh, n, t)
            a = c["a"]
            grads[pre + "wq"] += a.T @ dq
            grads[pre + "bq"] += dq.sum(axis=0)
            grads[pre + "wk"] += a.T @ dk
            grads[pre + "bk"] += dk.sum(axis=0)
            grads[pre + "wv"] += a.T @ dv
            grads[pre + "bv"] += dv.sum(axis=0)
            da = dq @ p[pre + "wq"].T + dk @ p[pre + "wk"].T + dv @ p[pre + "wv"].T
            dx_ln, dg1, db1 = _layer_norm_backward(da, c["xhat1"], c["inv1"], p[pre + "ln1_g"])
            grads[pre + "ln1_g"] += dg1
            grads[pre + "ln1_b"] += db1
            dx = dx_ln + dx_mid

        grads["pos_emb"][:t] += dx.reshape(n, t, d).sum(axis=0)
        np.add.at(grads["tok_emb"], ids, dx[embedded])

    def batch_nll_and_grads(self, batch: list[tuple[list[int], np.ndarray | None]]):
        """Mean loss over examples and equally weighted mean gradients.

        Each example's loss is its per-token mean; examples then weigh
        equally regardless of length.
        """
        losses, _, grads = self._loss(batch, with_grads=True)
        return sum(losses) / len(batch), grads


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """float64 log-softmax over the last axis."""
    z = logits.astype(np.float64)
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    z -= np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))
    return z
