"""Spans and counts around the calls into each layer, recorded from outside.

The tracer replaces a library function with a wrapper under the attribute its
caller looks up: ``pipeline.diverse_beam_search`` for the pipeline's call
into the decoder, ``decoding.banned_next_tokens`` for the decoder's own
helper, ``TransformerLM.forward`` on the class, and so on. Nothing in the
library changes; ``uninstall`` puts every original back.

A span is (name, start, end, parent span, workload item id). Spans and counts
stay in memory and are written out when the run ends. A span's self time is
its duration minus its children's; a layer's self time sums the self times
of its spans, so the layers' self times plus the time outside every span
(the benchmark's own glue) add up to the traced wall time.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# (metric, unit, better); the per_layer list of BENCHMARK.json mirrors this
PER_LAYER = (
    ("tokenization.normalize.calls", "count", "lower"),
    ("tokenization.normalize.ms", "ms", "lower"),
    ("tokenization.normalize.distinct_ratio", "ratio", "higher"),
    ("tokenization.build_vocabulary.ms", "ms", "lower"),
    ("tokenization.self_ms", "ms", "lower"),
    ("encoders.encode.calls", "count", "lower"),
    ("encoders.encode.ms", "ms", "lower"),
    ("encoders.encode.distinct_ratio", "ratio", "higher"),
    ("encoders.token_embed.calls", "count", "lower"),
    ("encoders.token_embed.ms", "ms", "lower"),
    ("encoders.self_ms", "ms", "lower"),
    ("model.forward.calls", "count", "lower"),
    ("model.forward.ms", "ms", "lower"),
    ("model.forward.positions", "count", "lower"),
    ("model.forward.gflops", "GFLOP/s", "higher"),
    ("model.batch_nll_and_grads.ms", "ms", "lower"),
    ("model.batch_nll_and_grads.gflops", "GFLOP/s", "higher"),
    ("model.nll.ms", "ms", "lower"),
    ("model.self_ms", "ms", "lower"),
    ("training.train.ms", "ms", "lower"),
    ("training.adamw_step.ms", "ms", "lower"),
    ("training.build_examples.ms", "ms", "lower"),
    ("training.evaluate_nll.ms", "ms", "lower"),
    ("training.self_ms", "ms", "lower"),
    ("decoding.diverse_beam_search.ms", "ms", "lower"),
    ("decoding.self_ms", "ms", "lower"),
    ("decoding.banned_next_tokens.calls", "count", "lower"),
    ("decoding.banned_next_tokens.ms", "ms", "lower"),
    ("decoding.tokens_selected", "count", "lower"),
    ("decoding.forward_calls_per_token", "ratio", "lower"),
    ("decoding.positions_per_token", "ratio", "lower"),
    ("decoding.finished_by_eos_ratio", "ratio", "higher"),
    ("decoding.special_token_ratio", "ratio", "lower"),
    ("pipeline.paraphrase.ms", "ms", "lower"),
    ("pipeline.select.ms", "ms", "lower"),
    ("pipeline.self_ms", "ms", "lower"),
    ("metrics.evaluate_corpus.ms", "ms", "lower"),
    ("metrics.self_ms", "ms", "lower"),
    ("metrics.bleu.calls", "count", "lower"),
    ("metrics.bleu.ms", "ms", "lower"),
    ("metrics.rouge_l.ms", "ms", "lower"),
    ("metrics.self_bleu.ms", "ms", "lower"),
    ("metrics.token_match_similarity.ms", "ms", "lower"),
    ("metrics.sentence_cosine_similarity.ms", "ms", "lower"),
    ("metrics.sbert_ibleu.calls", "count", "lower"),
    ("metrics.sbert_ibleu.ms", "ms", "lower"),
    ("corpus.build_corpus.ms", "ms", "lower"),
    ("corpus.self_ms", "ms", "lower"),
    ("corpus.fnv1a64.calls", "count", "lower"),
    ("corpus.fnv1a64.ms", "ms", "lower"),
    ("corpus.split_sentences.ms", "ms", "lower"),
    ("corpus.default_lang_filter.ms", "ms", "lower"),
    ("corpus.admit_ratio", "ratio", "higher"),
    ("checkpoint.save_ms", "ms", "lower"),
    ("checkpoint.load_ms", "ms", "lower"),
    ("checkpoint.self_ms", "ms", "lower"),
    ("trace.wall_ms", "ms", "lower"),
    ("trace.glue_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

LAYERS = ("tokenization", "encoders", "model", "training", "decoding", "pipeline",
          "metrics", "corpus", "checkpoint")


class Tracer:
    """In-memory span and count recorder; record only while ``active``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one list per span field keeps the per-call cost to a few appends
        self.span_name: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.span_parent: list[int] = []
        self.span_item: list[int] = []
        self._stack: list[int] = []
        self.item = -1
        self.active = False
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []
        self._default_patches: list[tuple[object, tuple]] = []
        self.missing: list[str] = []
        self.wall_ns = 0
        self._started = 0

    def start(self) -> None:
        self.active = True
        self._started = time.perf_counter_ns()

    def stop(self) -> None:
        self.wall_ns += time.perf_counter_ns() - self._started
        self.active = False

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def inside(self, name: str) -> bool:
        """True when a span named ``name`` is open."""
        nid = self._name_ids.get(name)
        return nid is not None and any(self.span_name[s] == nid for s in self._stack)

    def _wrapper(self, fn, name: str, hook):
        nid = self._name_id(name)
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_item.append(tracer.item)
            tracer.span_start.append(0)
            tracer.span_end.append(0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper; a missing attribute is
        recorded in ``missing`` so a renamed function shows as untraced."""
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self._wrapper(fn, name, hook))
        self._patches.append((owner, attr, fn))

    def wrap_default(self, func, original, name: str) -> None:
        """Trace ``original`` where ``func`` binds it as a parameter default."""
        defaults = func.__defaults__ or ()
        if not any(d is original for d in defaults):
            self.missing.append(f"{func.__name__} default {getattr(original, '__name__', original)}")
            return
        traced = self._wrapper(original, name, None)
        self._default_patches.append((func, defaults))
        func.__defaults__ = tuple(traced if d is original else d for d in defaults)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        for func, defaults in reversed(self._default_patches):
            func.__defaults__ = defaults
        self._patches.clear()
        self._default_patches.clear()

    # ---- summaries -------------------------------------------------------

    def span_totals(self) -> tuple[dict[str, int], dict[str, int], dict[str, int], int]:
        """Per span name: calls and busy ns; per layer: self ns; and the ns
        covered by root spans."""
        calls: Counter = Counter()
        busy: Counter = Counter()
        child_ns = [0] * len(self.span_name)
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        root_ns = 0
        for idx, (nid, parent, dur) in enumerate(zip(self.span_name, self.span_parent, durations)):
            calls[nid] += 1
            busy[nid] += dur
            if parent >= 0:
                child_ns[parent] += dur
            else:
                root_ns += dur
        layer_self: Counter = Counter()
        for nid, dur, child in zip(self.span_name, durations, child_ns):
            layer_self[self.names[nid].split(".", 1)[0]] += dur - child
        return (
            {self.names[k]: v for k, v in calls.items()},
            {self.names[k]: v for k, v in busy.items()},
            dict(layer_self),
            root_ns,
        )

    def dump(self, path: str, extra: dict) -> None:
        """Write every span and count as JSON; times in ns from the first span."""
        t0 = min(self.span_start, default=0)
        spans = [
            [self.names[n], s - t0, e - t0, p, i]
            for n, s, e, p, i in zip(self.span_name, self.span_start, self.span_end,
                                     self.span_parent, self.span_item)
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**extra, "span_fields": ["name", "start_ns", "end_ns", "parent", "item"],
                       "spans": spans, "counts": dict(self.counts), "untraced": self.missing}, f)


# ---- what each layer records -------------------------------------------------


def _forward_flops(config, rows: int) -> int:
    """Matmul flops of one forward over ``rows`` positions, from the shapes the
    model multiplies: QKV and output projections, full T x T attention scores
    and mix, the MLP, and the tied-embedding logits."""
    d, f, t = config.embed_dim, config.ff_dim, rows
    per_layer = 2 * t * d * d * 4 + 2 * t * t * d * 2 + 2 * t * d * f * 2
    return config.layer_count * per_layer + 2 * t * d * config.vocab_size


def _distinct_arg(pos: int, key: str):
    def hook(tracer, args, kwargs, result):
        tracer.distinct[key].add(args[pos])
    return hook


def _forward_hook(tracer, args, kwargs, result):
    rows = result.shape[0]
    tracer.counts["model.forward.positions"] += rows
    tracer.counts["model.forward.flops"] += _forward_flops(args[0].config, rows)
    if tracer.inside("decoding.diverse_beam_search"):
        tracer.counts["decoding.forward_calls"] += 1
        tracer.counts["decoding.positions"] += rows


def _batch_hook(tracer, args, kwargs, result):
    model, batch = args[0], (args[1] if len(args) > 1 else kwargs["batch"])
    flops = 0
    for tokens, injection in batch:
        rows = len(tokens) if injection is not None else len(tokens) - 1
        flops += 3 * _forward_flops(model.config, rows)  # backward multiplies twice per forward matmul
    tracer.counts["model.batch_nll_and_grads.flops"] += flops


def _decode_hook(tracer, args, kwargs, result):
    from smclm.tokenization import BOS_ID, PAD_ID, UNK_ID

    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    for h in result:
        tracer.counts["decoding.hypotheses"] += 1
        tracer.counts["decoding.tokens_selected"] += len(h.tokens)
        if h.tokens and h.tokens[-1] == cfg.eos_id:
            tracer.counts["decoding.finished_by_eos"] += 1
        tracer.counts["decoding.special_tokens"] += sum(t in (BOS_ID, PAD_ID, UNK_ID) for t in h.tokens)


def _corpus_hook(tracer, args, kwargs, result):
    _, manifest = result
    for d in manifest["domains"].values():
        tracer.counts["corpus.admitted"] += d["admitted"]
        tracer.counts["corpus.drawn"] += d["admitted"] + sum(d["rejected"].values())


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public functions under the names their callers use."""
    from smclm import checkpoint, corpus, decoding, encoders, metrics, model, pipeline, tokenization, training

    # normalize is imported by name into each module that calls it
    for mod in (tokenization, encoders, pipeline, metrics):
        tracer.wrap(mod, "normalize", "tokenization.normalize", _distinct_arg(0, "normalize"))
    tracer.wrap(tokenization, "build_vocabulary", "tokenization.build_vocabulary")

    tracer.wrap(encoders.HashedBagEncoder, "encode", "encoders.encode", _distinct_arg(1, "encode"))
    tracer.wrap(encoders.HashedTokenEmbedder, "__call__", "encoders.token_embed")

    tracer.wrap(model.TransformerLM, "forward", "model.forward", _forward_hook)
    tracer.wrap(model.TransformerLM, "batch_nll_and_grads", "model.batch_nll_and_grads", _batch_hook)
    tracer.wrap(model.TransformerLM, "nll", "model.nll")

    tracer.wrap(training, "train", "training.train")
    tracer.wrap(training.AdamW, "step", "training.adamw_step")
    tracer.wrap(training, "build_examples", "training.build_examples")
    tracer.wrap(training, "evaluate_nll", "training.evaluate_nll")

    tracer.wrap(pipeline, "diverse_beam_search", "decoding.diverse_beam_search", _decode_hook)
    tracer.wrap(decoding, "banned_next_tokens", "decoding.banned_next_tokens")

    tracer.wrap(pipeline, "paraphrase_batch", "pipeline.paraphrase_batch")
    tracer.wrap(pipeline, "paraphrase", "pipeline.paraphrase")
    tracer.wrap(pipeline, "sbert_ibleu", "pipeline.select")

    for fn in ("evaluate_corpus", "bleu", "rouge_l", "self_bleu", "token_match_similarity",
               "sentence_cosine_similarity", "sbert_ibleu"):
        tracer.wrap(metrics, fn, f"metrics.{fn}")

    tracer.wrap_default(corpus.build_corpus, corpus.split_sentences, "corpus.split_sentences")
    tracer.wrap(corpus, "build_corpus", "corpus.build_corpus", _corpus_hook)
    tracer.wrap(corpus, "fnv1a64", "corpus.fnv1a64")
    tracer.wrap(corpus, "default_lang_filter", "corpus.default_lang_filter")

    tracer.wrap(checkpoint, "save_checkpoint", "checkpoint.save")
    tracer.wrap(checkpoint, "load_checkpoint", "checkpoint.load")


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, dict]:
    """Every PER_LAYER metric from the recorded spans and counts."""
    calls, busy, layer_self, root_ns = tracer.span_totals()
    c = tracer.counts

    def ms(name):
        return busy.get(name, 0) / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "tokenization.normalize.calls": calls.get("tokenization.normalize", 0),
        "tokenization.normalize.ms": ms("tokenization.normalize"),
        "tokenization.normalize.distinct_ratio": ratio(len(tracer.distinct["normalize"]),
                                                       calls.get("tokenization.normalize", 0)),
        "tokenization.build_vocabulary.ms": ms("tokenization.build_vocabulary"),
        "encoders.encode.calls": calls.get("encoders.encode", 0),
        "encoders.encode.ms": ms("encoders.encode"),
        "encoders.encode.distinct_ratio": ratio(len(tracer.distinct["encode"]),
                                                calls.get("encoders.encode", 0)),
        "encoders.token_embed.calls": calls.get("encoders.token_embed", 0),
        "encoders.token_embed.ms": ms("encoders.token_embed"),
        "model.forward.calls": calls.get("model.forward", 0),
        "model.forward.ms": ms("model.forward"),
        "model.forward.positions": c["model.forward.positions"],
        "model.forward.gflops": ratio(c["model.forward.flops"], busy.get("model.forward", 0)),
        "model.batch_nll_and_grads.ms": ms("model.batch_nll_and_grads"),
        "model.batch_nll_and_grads.gflops": ratio(c["model.batch_nll_and_grads.flops"],
                                                  busy.get("model.batch_nll_and_grads", 0)),
        "model.nll.ms": ms("model.nll"),
        "training.train.ms": ms("training.train"),
        "training.adamw_step.ms": ms("training.adamw_step"),
        "training.build_examples.ms": ms("training.build_examples"),
        "training.evaluate_nll.ms": ms("training.evaluate_nll"),
        "decoding.diverse_beam_search.ms": ms("decoding.diverse_beam_search"),
        "decoding.banned_next_tokens.calls": calls.get("decoding.banned_next_tokens", 0),
        "decoding.banned_next_tokens.ms": ms("decoding.banned_next_tokens"),
        "decoding.tokens_selected": c["decoding.tokens_selected"],
        "decoding.forward_calls_per_token": ratio(c["decoding.forward_calls"], c["decoding.tokens_selected"]),
        "decoding.positions_per_token": ratio(c["decoding.positions"], c["decoding.tokens_selected"]),
        "decoding.finished_by_eos_ratio": ratio(c["decoding.finished_by_eos"], c["decoding.hypotheses"]),
        "decoding.special_token_ratio": ratio(c["decoding.special_tokens"], c["decoding.tokens_selected"]),
        "pipeline.paraphrase.ms": ms("pipeline.paraphrase"),
        "pipeline.select.ms": ms("pipeline.select"),
        "metrics.evaluate_corpus.ms": ms("metrics.evaluate_corpus"),
        "metrics.bleu.calls": calls.get("metrics.bleu", 0),
        "metrics.bleu.ms": ms("metrics.bleu"),
        "metrics.rouge_l.ms": ms("metrics.rouge_l"),
        "metrics.self_bleu.ms": ms("metrics.self_bleu"),
        "metrics.token_match_similarity.ms": ms("metrics.token_match_similarity"),
        "metrics.sentence_cosine_similarity.ms": ms("metrics.sentence_cosine_similarity"),
        "metrics.sbert_ibleu.calls": calls.get("metrics.sbert_ibleu", 0),
        "metrics.sbert_ibleu.ms": ms("metrics.sbert_ibleu"),
        "corpus.build_corpus.ms": ms("corpus.build_corpus"),
        "corpus.fnv1a64.calls": calls.get("corpus.fnv1a64", 0),
        "corpus.fnv1a64.ms": ms("corpus.fnv1a64"),
        "corpus.split_sentences.ms": ms("corpus.split_sentences"),
        "corpus.default_lang_filter.ms": ms("corpus.default_lang_filter"),
        "corpus.admit_ratio": ratio(c["corpus.admitted"], c["corpus.drawn"]),
        "checkpoint.save_ms": ms("checkpoint.save"),
        "checkpoint.load_ms": ms("checkpoint.load"),
        "trace.wall_ms": tracer.wall_ns / 1e6,
        "trace.glue_ms": (tracer.wall_ns - root_ns) / 1e6,
        "trace.overhead_ratio": overhead_ratio,
    }
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = layer_self.get(layer, 0) / 1e6
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
