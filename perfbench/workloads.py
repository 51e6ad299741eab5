"""The four workloads: program set-up, timed rounds, output checks and digests.

A workload runs in rounds. ``make_round`` builds a round's inputs from the
seed and the round index (benchmark work, never timed), ``run_round`` makes
the timed calls into the library, ``check`` returns what is wrong with the
outputs, and ``canonical`` gives the outputs in a form whose sha256 lets two
commits be compared bit for bit. Library functions are always looked up as
module attributes at call time (``pipeline.paraphrase_batch``), which is
where the tracer wraps them.

The checks hold for any correct program: they recompute what can be
recomputed cheaply and compare counts, and never compare against outputs
recorded from one commit.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from smclm import checkpoint, corpus, encoders, metrics, pipeline, tokenization, training
from smclm.decoding import BeamSearchConfig
from smclm.model import ModelConfig, TransformerLM

from . import inputs

ENCODER_DIM = 64
BETA = 2.0
# the README `smclm generate` settings
README_BEAM = BeamSearchConfig(
    beam_count=20, group_count=20, diversity_strength=0.6, no_repeat_ngram=2, max_length=32
)


def _finite(x) -> bool:
    return isinstance(x, float) and math.isfinite(x)


def params_digest(model: TransformerLM) -> str:
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode("utf-8"))
        h.update(model.params[name].tobytes())
    return h.hexdigest()


class Workload:
    """Base: subclasses set ``name`` and fill in the hooks below."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.lex = inputs.Lexicon(seed)

    def setup(self) -> None:
        """The program's set-up calls; timed, and repeated to take a median."""

    def close(self) -> None:
        """Undo anything the workload changed in the library's modules."""

    def make_warmup(self):
        raise NotImplementedError

    def make_round(self, index: int):
        raise NotImplementedError

    def run_round(self, inp):
        raise NotImplementedError

    def items(self, inp) -> int:
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def canonical(self, inp, out):
        raise NotImplementedError


def check_candidate_set(cs, hyps, source: str, vocab, encoder, beta: float,
                        beam: BeamSearchConfig) -> list[str]:
    """B candidates, each the detokenized hypothesis; scores equal recomputed
    SBERT-iBLEU; best is the first argmax; no hypothesis repeats an n-gram or
    runs past max_length.

    The n-gram rule is checked on the hypothesis tokens: detokenize drops
    <bos> and <pad>, so the candidate's words can show a repeat the decoder
    never made.
    """
    errors = []
    if cs.source != source:
        errors.append(f"source {cs.source!r} != {source!r}")
    if not (len(cs.candidates) == len(cs.scores) == len(hyps) == beam.beam_count):
        errors.append(f"{len(cs.candidates)} candidates, {len(cs.scores)} scores, "
                      f"{len(hyps)} hypotheses, want {beam.beam_count}")
        return errors
    n = beam.no_repeat_ngram
    for i, (cand, score, h) in enumerate(zip(cs.candidates, cs.scores, hyps)):
        if cand != vocab.detokenize(h.tokens):
            errors.append(f"candidate {i} {cand!r} is not its hypothesis {h.tokens}")
        want = 0.0 if not tokenization.normalize(cand) else metrics.sbert_ibleu(source, cand, encoder, beta)
        if score != want:
            errors.append(f"candidate {i}: score {score!r}, recomputed {want!r}")
        if len(h.tokens) > beam.max_length:
            errors.append(f"candidate {i}: {len(h.tokens)} tokens > max_length {beam.max_length}")
        if n:
            grams = [h.tokens[k : k + n] for k in range(len(h.tokens) - n + 1)]
            if len(set(grams)) != len(grams):
                errors.append(f"candidate {i}: repeated {n}-gram in {h.tokens}")
    top = max(cs.scores)
    if cs.best != cs.scores.index(top):
        errors.append(f"best {cs.best} is not the first argmax {cs.scores.index(top)}")
    return errors


class Paraphrase(Workload):
    """pipeline.paraphrase_batch at the README generate settings; one source per round.

    The hypotheses behind the candidates are kept by a pass-through wrapper on
    ``pipeline.diverse_beam_search`` (one extra call per source), because the
    n-gram rule can only be checked on tokens. ``close`` removes it.
    """

    name = "paraphrase"

    def __init__(self, seed: int, workdir: str, beam: BeamSearchConfig = README_BEAM,
                 vocab_sentences: int = 2000):
        super().__init__(seed, workdir)
        self.beam = beam
        self.vocab_corpus = inputs.vocabulary_corpus(self.lex, seed, vocab_sentences)
        self.decoded: list = []
        self._decode = pipeline.diverse_beam_search

        def keep_hypotheses(*args, **kwargs):
            hyps = self._decode(*args, **kwargs)
            self.decoded.append(hyps)
            return hyps

        pipeline.diverse_beam_search = keep_hypotheses

    def close(self) -> None:
        pipeline.diverse_beam_search = self._decode

    def setup(self) -> None:
        vocab = tokenization.build_vocabulary(self.vocab_corpus)
        model = TransformerLM(ModelConfig(vocab_size=len(vocab), seed=self.seed))
        path = os.path.join(self.workdir, "paraphrase.ckpt")
        checkpoint.save_checkpoint(path, model, encoder_spec=encoders.HashedBagEncoder(ENCODER_DIM).spec())
        self.model, meta = checkpoint.load_checkpoint(path)
        self.encoder = encoders.encoder_from_spec(meta["encoder"])
        self.vocab = vocab
        self.cfg = pipeline.PipelineConfig(beam=self.beam, beta=BETA)

    def make_warmup(self):
        return inputs.paraphrase_sources(self.lex, self.seed, inputs.WARMUP, 1)

    def make_round(self, index: int):
        return inputs.paraphrase_sources(self.lex, self.seed, index, 1)

    def run_round(self, sources):
        self.decoded = []
        sets = pipeline.paraphrase_batch(self.model, self.vocab, self.encoder, sources, self.cfg)
        return sets, self.decoded

    def items(self, sources) -> int:
        return len(sources)

    def check(self, sources, out) -> list[str]:
        sets, decoded = out
        if not (len(sets) == len(decoded) == len(sources)):
            return [f"{len(sets)} candidate sets and {len(decoded)} decodes for {len(sources)} sources"]
        errors = []
        for src, cs, hyps in zip(sources, sets, decoded):
            errors += check_candidate_set(cs, hyps, src, self.vocab, self.encoder, BETA, self.beam)
        return errors

    def canonical(self, sources, out):
        return [cs.to_dict() for cs in out[0]]


def check_train_report(report, expected_steps: int, epochs: int, with_valid: bool) -> list[str]:
    errors = []
    if report.steps != expected_steps:
        errors.append(f"{report.steps} steps, expected {expected_steps}")
    if report.skipped:
        errors.append(f"{report.skipped} sentences skipped")
    if len(report.epoch_losses) != epochs:
        errors.append(f"{len(report.epoch_losses)} epoch losses for {epochs} epochs")
    if len(report.valid_losses) != (epochs if with_valid else 0):
        errors.append(f"{len(report.valid_losses)} validation losses for {epochs} epochs")
    for kind, losses in (("epoch", report.epoch_losses), ("validation", report.valid_losses)):
        for i, loss in enumerate(losses):
            if not _finite(loss):
                errors.append(f"{kind} loss {i} is {loss!r}")
    return errors


class Train(Workload):
    """training.train in smclm mode, B=32, with a validation corpus.

    Each round trains the same model for two epochs over fresh sentences;
    warm-up covers the first epoch, so train() accepts it.
    """

    name = "train"
    EPOCHS = 2

    def __init__(self, seed: int, workdir: str, sentences: int = 96, valid: int = 16,
                 vocab_sentences: int = 2000, model_kw: dict | None = None):
        super().__init__(seed, workdir)
        self.sentences = sentences
        self.valid = valid
        self.model_kw = model_kw or {}
        self.vocab_corpus = inputs.vocabulary_corpus(self.lex, seed, vocab_sentences)
        self.batch = training.TrainConfig().batch_size

    def setup(self) -> None:
        self.vocab = tokenization.build_vocabulary(self.vocab_corpus)
        self.model = TransformerLM(ModelConfig(vocab_size=len(self.vocab), seed=self.seed, **self.model_kw))
        self.encoder = encoders.HashedBagEncoder(self.model.config.embed_dim)

    def _round(self, index: int, sentences: int, valid: int, epochs: int):
        steps_per_epoch = math.ceil(sentences / self.batch)
        cfg = training.TrainConfig(mode="smclm", epochs=epochs, warmup_steps=steps_per_epoch)
        return (
            inputs.train_sentences(self.lex, self.seed, index, sentences),
            inputs.valid_sentences(self.lex, self.seed, index, valid),
            cfg,
        )

    def make_warmup(self):
        return self._round(inputs.WARMUP, self.batch, 4, 1)  # one optimizer step

    def make_round(self, index: int):
        return self._round(index, self.sentences, self.valid, self.EPOCHS)

    def run_round(self, inp):
        sentences, valid, cfg = inp
        return training.train(self.model, self.vocab, sentences, cfg, encoder=self.encoder,
                              valid_corpus=valid)

    def items(self, inp) -> int:
        sentences, _, cfg = inp
        return cfg.epochs * math.ceil(len(sentences) / cfg.batch_size)

    def check(self, inp, report) -> list[str]:
        return check_train_report(report, self.items(inp), inp[2].epochs, with_valid=True)

    def canonical(self, inp, report):
        d = report.to_dict()
        del d["wall_time"]
        d["params_sha256"] = params_digest(self.model)
        return d


def check_metric_report(records: list[dict], report) -> list[str]:
    """Every mean in [0, 100]; counts and rows match the records."""
    errors = []
    n = len(records)
    want = {"evaluated": n, "skipped": 0, "selfBLEU_missing": 0, "fluency_missing": n}
    for key, value in want.items():
        if report.counts.get(key) != value:
            errors.append(f"counts[{key!r}] = {report.counts.get(key)!r}, expected {value}")
    for name in metrics.METRIC_NAMES:
        mean = report.means.get(name)
        if name == "fluency":
            if mean is not None:
                errors.append(f"fluency mean {mean!r} without fluency scores")
        elif not (_finite(mean) and 0.0 <= mean <= 100.0):
            errors.append(f"mean {name} = {mean!r} outside [0, 100]")
    if len(report.rows) != n:
        errors.append(f"{len(report.rows)} rows for {n} records")
        return errors
    for i, (rec, row) in enumerate(zip(records, report.rows)):
        if row["source"] != rec["source"]:
            errors.append(f"row {i}: source out of order")
        best = row["best"]
        if not (isinstance(best, int) and 0 <= best < len(rec["candidates"])):
            errors.append(f"row {i}: best {best!r} out of range")
        elif "best" in rec and best != rec["best"]:
            errors.append(f"row {i}: best {best} != given {rec['best']}")
    return errors


class Evaluate(Workload):
    """metrics.evaluate_corpus; 20 records of 20 candidates and 4 references per round."""

    name = "evaluate"

    def __init__(self, seed: int, workdir: str, records: int = 20):
        super().__init__(seed, workdir)
        self.records = records

    def setup(self) -> None:
        self.cfg = metrics.EvalConfig(
            encoder=encoders.HashedBagEncoder(ENCODER_DIM),
            token_embedder=encoders.HashedTokenEmbedder(ENCODER_DIM),
            beta=BETA,
        )

    def make_warmup(self):
        return inputs.evaluate_records(self.lex, self.seed, inputs.WARMUP, 1)

    def make_round(self, index: int):
        return inputs.evaluate_records(self.lex, self.seed, index, self.records)

    def run_round(self, records):
        return metrics.evaluate_corpus(records, self.cfg)

    def items(self, records) -> int:
        return len(records)

    def check(self, records, report) -> list[str]:
        return check_metric_report(records, report)

    def canonical(self, records, report):
        return json.loads(report.to_json(indent=None))


def check_corpus_output(documents: int, sentences: list[str], manifest: dict, vocab) -> list[str]:
    """Manifest counts add up to the documents drawn; admitted sentences are unique."""
    errors = []
    drawn = sum(d["admitted"] + sum(d["rejected"].values()) for d in manifest["domains"].values())
    if drawn != documents:
        errors.append(f"manifest accounts for {drawn} documents, {documents} were drawn")
    if manifest["admitted"] != len(sentences):
        errors.append(f"manifest admits {manifest['admitted']}, {len(sentences)} sentences returned")
    if len(set(sentences)) != len(sentences):
        errors.append(f"{len(sentences) - len(set(sentences))} duplicate admitted sentences")
    if sentences and vocab is None:
        errors.append("no vocabulary built")
    return errors


class Corpus(Workload):
    """corpus.build_corpus over 3 domains until every document is drawn, then
    build_vocabulary on the admitted sentences."""

    name = "corpus"

    def __init__(self, seed: int, workdir: str, documents: int = 2000):
        super().__init__(seed, workdir)
        self.documents = documents

    def make_warmup(self):
        return inputs.corpus_warmup_document(self.lex, self.seed), self.seed * 1_000_003

    def make_round(self, index: int):
        sources = inputs.corpus_documents(self.lex, self.seed, index, self.documents)
        return sources, self.seed * 1_000_003 + index + 1

    def run_round(self, inp):
        sources, corpus_seed = inp
        # a target above the document count draws every document
        sentences, manifest = corpus.build_corpus(sources, self.items(inp), seed=corpus_seed)
        vocab = tokenization.build_vocabulary(sentences) if sentences else None
        return sentences, manifest, vocab

    def items(self, inp) -> int:
        return sum(len(docs) for _, docs in inp[0])

    def check(self, inp, out) -> list[str]:
        sentences, manifest, vocab = out
        return check_corpus_output(self.items(inp), sentences, manifest, vocab)

    def canonical(self, inp, out):
        sentences, manifest, vocab = out
        return {"sentences": sentences, "manifest": manifest,
                "vocab": list(vocab.tokens) if vocab else None}


WORKLOADS = {w.name: w for w in (Paraphrase, Train, Evaluate, Corpus)}
