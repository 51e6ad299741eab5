"""Tests of the benchmark itself: seeded inputs, output checks, tracer, contract."""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import inputs, trace, workloads
from smclm import corpus, pipeline, tokenization
from smclm.decoding import BeamSearchConfig, Hypothesis

ROOT = Path(__file__).resolve().parents[1]
TINY_MODEL = {"embed_dim": 16, "layer_count": 1, "head_count": 2, "ff_dim": 32}


def _make(name: str, seed: int, tmp_path):
    """A workload at test size."""
    if name == "paraphrase":
        beam = BeamSearchConfig(beam_count=4, group_count=2, max_length=6)
        return workloads.Paraphrase(seed, str(tmp_path), beam=beam, vocab_sentences=20)
    if name == "train":
        return workloads.Train(seed, str(tmp_path), sentences=40, valid=4, vocab_sentences=20,
                               model_kw=TINY_MODEL)
    if name == "evaluate":
        return workloads.Evaluate(seed, str(tmp_path), records=4)
    return workloads.Corpus(seed, str(tmp_path), documents=600)


@pytest.fixture
def make(tmp_path):
    made = []

    def factory(name, seed=0):
        w = _make(name, seed, tmp_path)
        made.append(w)
        return w

    yield factory
    for w in reversed(made):
        w.close()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(make, name):
    a, b, c = make(name, 7), make(name, 7), make(name, 8)
    for index in (0, 3):
        assert a.make_round(index) == b.make_round(index)
        assert a.make_round(index) != c.make_round(index)
    assert a.make_round(0) != a.make_round(1)
    assert a.make_warmup() == b.make_warmup()


def test_lexicon_has_v_distinct_normalized_words():
    lex = inputs.Lexicon(3)
    assert len({tokenization.normalize(w) for w in lex.words}) == inputs.V
    assert any("'" in w for w in lex.words)


def test_corpus_round_fires_every_reject_branch(make):
    w = make("corpus")
    inp = w.make_round(0)
    _, manifest, _ = w.run_round(inp)
    for reason in ("short", "language", "empty", "duplicate"):
        assert sum(d["rejected"][reason] for d in manifest["domains"].values()) > 0, reason


def test_paraphrase_check_passes_and_catches_corruption(make):
    w = make("paraphrase")
    w.setup()
    sources = w.make_round(0)
    sets, decoded = w.run_round(sources)
    assert w.check(sources, (sets, decoded)) == []
    cs, hyps = sets[0], decoded[0]

    wrong_best = dataclasses.replace(cs, best=(cs.best + 1) % len(cs.candidates))
    assert w.check(sources, ([wrong_best], decoded))

    scores = list(cs.scores)
    scores[2] += 1e-9
    assert w.check(sources, ([dataclasses.replace(cs, scores=scores)], decoded))

    repeated = list(hyps)
    repeated[0] = Hypothesis((7, 8, 7, 8), hyps[0].log_prob)
    candidates = list(cs.candidates)
    candidates[0] = w.vocab.detokenize((7, 8, 7, 8))
    corrupt = dataclasses.replace(cs, candidates=candidates)
    assert any("repeated 2-gram" in e for e in w.check(sources, ([corrupt], [repeated])))

    assert w.check(sources, ([cs], []))


def test_paraphrase_close_restores_the_decoder(tmp_path):
    original = pipeline.diverse_beam_search
    w = _make("paraphrase", 0, tmp_path)
    assert pipeline.diverse_beam_search is not original
    w.close()
    assert pipeline.diverse_beam_search is original


def test_train_check_passes_and_catches_corruption(make):
    w = make("train")
    w.setup()
    inp = w.make_round(0)
    report = w.run_round(inp)
    assert w.check(inp, report) == []
    for field, value in (("epoch_losses", [math.nan, 1.0]), ("valid_losses", [1.0, math.inf]),
                         ("steps", report.steps + 1), ("epoch_losses", [1.0])):
        assert w.check(inp, dataclasses.replace(report, **{field: value})), field


def test_evaluate_check_passes_and_catches_corruption(make):
    w = make("evaluate")
    w.setup()
    records = w.make_round(0)
    assert any("best" not in r for r in records) and any("best" in r for r in records)
    report = w.run_round(records)
    assert w.check(records, report) == []

    means = dict(report.means, BLEU=100.5)
    assert w.check(records, dataclasses.replace(report, means=means))
    counts = dict(report.counts, evaluated=len(records) - 1)
    assert w.check(records, dataclasses.replace(report, counts=counts))
    given = next(i for i, r in enumerate(records) if "best" in r)
    rows = [dict(r) for r in report.rows]
    rows[given]["best"] = (rows[given]["best"] + 1) % len(records[given]["candidates"])
    assert w.check(records, dataclasses.replace(report, rows=rows))


def test_corpus_check_passes_and_catches_corruption(make):
    w = make("corpus")
    inp = w.make_round(0)
    sentences, manifest, vocab = w.run_round(inp)
    assert w.check(inp, (sentences, manifest, vocab)) == []
    assert w.check(inp, (sentences + sentences[:1], manifest, vocab))
    short = json.loads(json.dumps(manifest))
    short["domains"]["news"]["rejected"]["short"] -= 1
    assert w.check(inp, (sentences, short, vocab))


def test_tracer_accounts_for_wall_time_and_restores_the_library(make):
    originals = (tokenization.normalize, corpus.build_corpus, corpus.build_corpus.__defaults__)
    w = make("corpus")
    tracer = trace.Tracer()
    trace.instrument(tracer)
    try:
        assert tracer.missing == []
        tracer.start()
        w.run_round(w.make_round(0))
        tracer.stop()
    finally:
        tracer.uninstall()
    assert (tokenization.normalize, corpus.build_corpus, corpus.build_corpus.__defaults__) == originals

    calls, busy, layer_self, root_ns = tracer.span_totals()
    assert calls["corpus.split_sentences"] > 0 and calls["tokenization.normalize"] > 0
    assert sum(layer_self.values()) == root_ns <= tracer.wall_ns
    m = trace.layer_metrics(tracer, 1.0)
    assert 0.0 < m["corpus.admit_ratio"]["value"] < 1.0
    self_ms = sum(m[f"{layer}.self_ms"]["value"] for layer in trace.LAYERS)
    assert self_ms + m["trace.glue_ms"]["value"] == pytest.approx(m["trace.wall_ms"]["value"])


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(trace.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "items_per_s", "peak_rss_mb"}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_runner_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
