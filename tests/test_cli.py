import argparse
import json
import os
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from smclm.checkpoint import load_checkpoint
from smclm.cli import atomic_path, build_parser, main
from smclm.decoding import BeamSearchConfig
from smclm.encoders import HashedBagEncoder
from smclm.metrics import EvalConfig, fluency_key
from smclm.model import ModelConfig
from smclm.pipeline import PipelineConfig
from smclm.training import TrainConfig

NOUNS = ["cat", "dog", "bird", "horse", "train", "river", "cloud", "stone",
         "apple", "house", "boat", "tree", "road", "clock", "book", "lamp",
         "chair", "door", "field", "storm"]
VERBS = ["moves", "turns", "rests", "falls", "rises", "waits", "runs", "sings",
         "jumps", "sits", "spins", "rolls", "glows", "drifts", "stands", "leans",
         "shakes", "slides", "floats", "sways"]


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def run_json(capsys, *argv):
    """Run a subcommand that must succeed; its stdout is one JSON line."""
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    assert out.count("\n") == 1 and out.endswith("\n"), out
    return json.loads(out)


TINY_TOKENS = ("<bos>", "<eos>", "<unk>", "<pad>", "cat", "sat", "mat")


def write_tiny_checkpoint(tmp_path, encoder_spec=HashedBagEncoder(dim=8).spec(),
                          tokens=TINY_TOKENS, vocab_size=7):
    """An untrained 8-dim, 8-position model, stored with encoder_spec and the
    vocabulary of tokens, and a one-line input; returns the checkpoint and
    input paths."""
    from smclm.checkpoint import save_checkpoint
    from smclm.model import ModelConfig, TransformerLM
    from smclm.tokenization import Vocabulary

    model = TransformerLM(
        ModelConfig(vocab_size=vocab_size, embed_dim=8, layer_count=1, head_count=2,
                    ff_dim=12, max_positions=8, seed=0)
    )
    save_checkpoint(
        f"{tmp_path}/m.smck", model,
        encoder_spec=encoder_spec,
        vocab=Vocabulary(tokens) if tokens else None,
    )
    src = tmp_path / "in.txt"
    src.write_text("cat sat mat\n")
    return f"{tmp_path}/m.smck", str(src)


def write_groups(path, count=20):
    with open(path, "w", encoding="utf-8") as f:
        for i in range(count):
            noun, verb = NOUNS[i % len(NOUNS)], VERBS[i % len(VERBS)]
            # members share trigrams so pairwise BLEU-3 is nonzero
            sentences = [
                f"the {noun} {verb} very quickly today",
                f"the {noun} {verb} very quickly now",
                f"so the {noun} {verb} very slowly",
            ]
            f.write(json.dumps({"id": f"g{i}", "sentences": sentences}) + "\n")


def write_documents(path, domain, count=25):
    with open(path, "w", encoding="utf-8") as f:
        for i in range(count):
            f.write(
                f"Document {i} about {domain} reads fine. "
                f"It hides a second {domain} line {i}. Closing remark {i} ends it.\n"
            )


class TestWalkthrough:
    def test_full_pipeline(self, tmp_path, capsys):
        root = str(tmp_path)

        # corpus sampling, twice for byte determinism
        write_documents(os.path.join(root, "news.txt"), "news")
        write_documents(os.path.join(root, "web.txt"), "web")
        corpus_args = (
            "build-corpus",
            "--source", f"news={root}/news.txt",
            "--source", f"web={root}/web.txt",
            "--target", "30",
            "--seed", "4",
            "--manifest", f"{root}/manifest.json",
        )
        summary = run_json(capsys, *corpus_args, "--out", f"{root}/corpus_a.txt")
        assert summary["admitted"] == 30
        assert summary["shortfall"] is False
        run_json(capsys, *corpus_args, "--out", f"{root}/corpus_b.txt")
        with open(f"{root}/corpus_a.txt", "rb") as a, open(f"{root}/corpus_b.txt", "rb") as b:
            assert a.read() == b.read()
        assert json.load(open(f"{root}/manifest.json"))["admitted"] == 30

        # group splits with flattened corpora and test records
        write_groups(f"{root}/groups.jsonl")
        summary = run_json(
            capsys,
            "split-dataset",
            "--groups", f"{root}/groups.jsonl",
            "--out-dir", f"{root}/splits",
            "--emit-corpora",
            "--emit-pairs",
        )
        assert summary["splits"]["train"]["groups"] == 16
        assert summary["splits"]["valid"]["groups"] == 1
        assert summary["splits"]["test"]["groups"] == 3
        assert summary["test_records"]["records"] == 3

        # vocabulary over the training sentences
        summary = run_json(
            capsys,
            "build-vocab",
            "--corpus", f"{root}/splits/train.txt",
            "--out", f"{root}/vocab.txt",
        )
        assert summary["size"] > 4

        # conditioned training, config file + flag override
        with open(f"{root}/config.json", "w") as f:
            json.dump({"model": {"ff_dim": 24}, "train": {"epochs": 1}}, f)
        summary = run_json(
            capsys,
            "train",
            "--mode", "smclm",
            "--corpus", f"{root}/splits/train.txt",
            "--valid", f"{root}/splits/valid.txt",
            "--vocab", f"{root}/vocab.txt",
            "--out", f"{root}/model.smck",
            "--config", f"{root}/config.json",
            "--encoder", "hashed-bag",
            "--embed-dim", "16",
            "--layers", "1",
            "--heads", "2",
            "--max-positions", "24",
            "--learning-rate", "1e-3",
            "--batch-size", "4",
            "--epochs", "2",
            "--warmup-steps", "2",
            "--seed", "0",
            "--log", f"{root}/train_log.jsonl",
        )
        assert len(summary["epoch_losses"]) == 2  # flag overrides the config file
        assert len(summary["valid_losses"]) == 2
        assert summary["mode"] == "smclm"
        with open(f"{root}/train_log.jsonl") as f:
            assert len(f.readlines()) == summary["steps"]
        model, meta = load_checkpoint(f"{root}/model.smck")
        assert model.config.ff_dim == 24  # config-file value survives
        assert meta["extra"]["train"]["epochs"] == 2
        assert meta["encoder"]["kind"] == "hashed-bag"

        # paraphrase generation; encoder comes from checkpoint metadata
        records = [json.loads(line) for line in open(f"{root}/splits/test_records.jsonl")]
        with open(f"{root}/input.txt", "w") as f:
            for r in records:
                f.write(r["source"] + "\n")
        summary = run_json(
            capsys,
            "generate",
            "--checkpoint", f"{root}/model.smck",
            "--input", f"{root}/input.txt",
            "--out", f"{root}/cands.jsonl",
            "--beams", "4",
            "--groups", "2",
            "--max-length", "12",
        )
        assert summary["sources"] == 3
        assert summary["written"] == 3
        cands = [json.loads(line) for line in open(f"{root}/cands.jsonl")]
        assert [c["source"] for c in cands] == [r["source"] for r in records]
        for c in cands:
            assert 0 <= c["best"] < len(c["candidates"])
            assert len(c["scores"]) == len(c["candidates"])

        # copy-input control: perfect lexical overlap, zero combined score
        flu_path = f"{root}/fluency.jsonl"
        with open(flu_path, "w") as f:
            for r in records:
                key = fluency_key(r["source"])
                f.write(json.dumps({"sentence_sha256": key, "fluency": 0.75}) + "\n")
        summary = run_json(
            capsys,
            "evaluate",
            "--records", f"{root}/splits/test_records.jsonl",
            "--copy-input",
            "--encoder", "hashed-bag",
            "--encoder-dim", "32",
            "--fluency", flu_path,
        )
        assert summary["means"]["oriBLEU"] == pytest.approx(100.0)
        assert summary["means"]["selfBLEU"] == pytest.approx(100.0)
        assert summary["means"]["BERT-iBLEU"] == pytest.approx(0.0)
        assert summary["means"]["SBERT-iBLEU"] == pytest.approx(0.0)
        assert summary["means"]["fluency"] == pytest.approx(0.75)
        assert summary["counts"]["evaluated"] == 3
        assert summary["counts"]["fluency_missing"] == 0

        # real candidates, report file and table output
        rc, out, err = run(
            capsys,
            "evaluate",
            "--records", f"{root}/splits/test_records.jsonl",
            "--candidates", f"{root}/cands.jsonl",
            "--encoder", "hashed-bag",
            "--encoder-dim", "32",
            "--report", f"{root}/report.json",
            "--table",
        )
        assert rc == 0, err
        summary = json.loads(out)
        assert summary["counts"]["evaluated"] == 3
        report = json.load(open(f"{root}/report.json"))
        assert len(report["rows"]) == 3
        assert "lexical diversity" in err  # table goes to stderr

        # beta calibration on the same source/references records
        summary = run_json(
            capsys,
            "calibrate-beta",
            "--pairs", f"{root}/splits/test_records.jsonl",
            "--encoder", "hashed-bag",
            "--encoder-dim", "32",
        )
        assert summary["beta"] >= 1
        assert summary["pairs"] == 6

        # no temp files left behind anywhere
        leftovers = [
            os.path.join(dirpath, name)
            for dirpath, _, names in os.walk(root)
            for name in names
            if ".tmp." in name
        ]
        assert leftovers == []


class TestTrainConfigFile:
    def test_config_mode_applies_without_the_flag(self, tmp_path, capsys):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(["<bos>", "<eos>", "<unk>", "<pad>", "word"]) + "\n")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("word word word\n")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "model": {"embed_dim": 8, "layer_count": 1, "head_count": 2, "ff_dim": 12,
                      "max_positions": 8},
            "train": {"mode": "clm", "epochs": 1, "warmup_steps": 1},
        }))
        out = tmp_path / "m.smck"
        base = ["train", "--corpus", str(corpus), "--vocab", str(vocab), "--out", str(out),
                "--config", str(config)]
        summary = run_json(capsys, *base)
        assert summary["mode"] == "clm"
        _, meta = load_checkpoint(str(out))
        assert meta["encoder"] is None
        assert meta["extra"]["train"]["mode"] == "clm"
        # the flag still wins over the file
        rc, _, err = run(capsys, *base, "--mode", "smclm")
        assert rc == 1
        assert "no embedding source" in json.loads(err)["error"]


class TestTrainShowDefaults:
    def test_prints_hyperparameters(self, capsys):
        summary = run_json(capsys, "train", "--show-defaults")
        assert summary["train"]["learning_rate"] == 5e-6
        assert summary["train"]["batch_size"] == 32
        assert summary["train"]["epochs"] == 8
        assert summary["train"]["warmup_steps"] == 2000
        assert summary["model"]["embed_dim"] == 64


def record_dims(monkeypatch) -> list:
    """Record the dim of each encoder the CLI builds, then the dim of each
    word table's token embedder; the CLI passes none, so the library's
    default embedder is built."""
    import smclm.cli as cli
    from smclm import metrics

    dims = []
    build = cli.encoder_from_spec

    def recording(spec):
        dims.append(("encoder", spec["dim"]))
        return build(spec)

    class RecordingTable(metrics._WordTable):
        def __init__(self, token_embedder):
            super().__init__(token_embedder)
            dims.append(("token", token_embedder, self.embed.dim))

    monkeypatch.setattr(cli, "encoder_from_spec", recording)
    monkeypatch.setattr(metrics, "_WordTable", RecordingTable)
    return dims


class TestEncoderDefaults:
    def test_calibrate_beta_uses_the_library_default_dim(self, tmp_path, capsys, monkeypatch):
        from smclm.encoders import DEFAULT_DIM, HashedTokenEmbedder

        dims = record_dims(monkeypatch)
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text('{"input": "the cat sat on the mat", "reference": "the cat sat on a mat"}\n')
        run_json(capsys, "calibrate-beta", "--pairs", str(pairs), "--encoder", "hashed-bag")
        assert dims == [("encoder", DEFAULT_DIM), ("token", None, DEFAULT_DIM)]
        assert HashedTokenEmbedder().dim == DEFAULT_DIM == 64


class TestEmbeddingsFlag:
    """train, evaluate and calibrate-beta read a file-backed table that
    covers every text they encode, and score as the encoder it was made by."""

    def test_train_evaluate_and_calibrate_beta(self, tmp_path, capsys):
        from smclm.encoders import HashedBagEncoder, write_embedding_file

        records = [
            {"source": f"the {n} {v} very quickly",
             "references": [f"a {n} {v} quickly", f"the {n} {v} now"]}
            for n, v in zip(NOUNS[:4], VERBS[:4])
        ]
        cands = [{"source": r["source"], "candidates": [*r["references"], f"so {r['source']}"]}
                 for r in records]
        texts = {t for r in records for t in (r["source"], *r["references"])}
        texts |= {t for c in cands for t in c["candidates"]}
        enc = HashedBagEncoder(dim=16)
        table = str(tmp_path / "table.smem")
        write_embedding_file(table, {t: enc.encode(t) for t in sorted(texts)})
        recs_path, cands_path = tmp_path / "records.jsonl", tmp_path / "cands.jsonl"
        recs_path.write_text("".join(json.dumps(r) + "\n" for r in records))
        cands_path.write_text("".join(json.dumps(c) + "\n" for c in cands))
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("".join(t + "\n" for t in sorted(texts)))
        vocab, ckpt = str(tmp_path / "vocab.txt"), str(tmp_path / "m.smck")
        run_json(capsys, "build-vocab", "--corpus", str(corpus), "--out", vocab)

        summary = run_json(
            capsys, "train", "--corpus", str(corpus), "--vocab", vocab, "--out", ckpt,
            "--embeddings", table, "--embed-dim", "16", "--layers", "1", "--heads", "2",
            "--ff-dim", "16", "--max-positions", "16", "--batch-size", "8", "--epochs", "1",
            "--warmup-steps", "0", "--learning-rate", "1e-3",
        )
        assert summary["steps"] == 2 and summary["skipped"] == 0
        spec = load_checkpoint(ckpt)[1]["encoder"]
        assert spec == {"kind": "file-backed", "dim": 16, "path": table}

        hashed = ["--encoder", "hashed-bag", "--encoder-dim", "16"]
        evaluate = ["evaluate", "--records", str(recs_path), "--candidates", str(cands_path)]
        from_table = run_json(capsys, *evaluate, "--embeddings", table)
        assert from_table["counts"]["evaluated"] == 4
        assert from_table["means"] == pytest.approx(run_json(capsys, *evaluate, *hashed)["means"])

        calibrate = ["calibrate-beta", "--pairs", str(recs_path)]
        from_table = run_json(capsys, *calibrate, "--embeddings", table)
        assert from_table["pairs"] == 8
        assert from_table == pytest.approx(run_json(capsys, *calibrate, *hashed))


    def test_a_table_gap_fails_before_any_score(self, tmp_path, capsys, monkeypatch):
        from smclm import metrics
        from smclm.encoders import write_embedding_file

        records = [{"source": f"the {n} {v}", "references": [f"a {n} {v}"],
                    "candidates": [f"the {n} {v} now", f"so the {n} {v}"]}
                   for n, v in zip(NOUNS[:4], VERBS[:4])]
        texts = {t for r in records for t in (r["source"], *r["references"], *r["candidates"])}
        gap = records[-1]["candidates"][1]
        enc = HashedBagEncoder(dim=16)
        table = str(tmp_path / "table.smem")
        write_embedding_file(table, {t: enc.encode(t) for t in sorted(texts - {gap})})
        recs_path, cands_path = tmp_path / "records.jsonl", tmp_path / "cands.jsonl"
        recs_path.write_text("".join(json.dumps({k: r[k] for k in ("source", "references")}) + "\n"
                                     for r in records))
        cands_path.write_text("".join(json.dumps({k: r[k] for k in ("source", "candidates")}) + "\n"
                                      for r in records))
        scored = []
        monkeypatch.setattr(metrics, "_pair_bleu", lambda a, b: scored.append(a) or 0.0)
        monkeypatch.setattr(metrics, "_NgramTable", lambda *a: scored.append(a))

        evaluate = ["evaluate", "--records", str(recs_path), "--candidates", str(cands_path),
                    "--embeddings", table]
        rc, out, err = run(capsys, *evaluate)
        assert (rc, out) == (1, "")
        assert f"record 3: the encoder has no vector for 1 sentence(s), first {gap!r}" in json.loads(err)["error"]
        pairs = [{"input": r["source"], "reference": c} for r in records for c in r["candidates"]]
        pairs_path = tmp_path / "pairs.jsonl"
        pairs_path.write_text("".join(json.dumps(p) + "\n" for p in pairs))
        rc, out, err = run(capsys, "calibrate-beta", "--pairs", str(pairs_path), "--embeddings", table)
        assert (rc, out) == (1, "")
        assert f"first {gap!r}" in json.loads(err)["error"]
        assert scored == []
        monkeypatch.undo()
        summary = run_json(capsys, *evaluate, "--no-strict")
        assert summary["counts"]["evaluated"] == 3 and summary["counts"]["skipped"] == 1


def table_spec(tmp_path, dim):
    """The spec of a dim-wide file-backed table covering the tiny input."""
    from smclm.encoders import FileBackedEncoder, write_embedding_file

    path = f"{tmp_path}/table{dim}.smem"
    write_embedding_file(path, {"cat sat mat": HashedBagEncoder(dim).encode("cat sat mat")})
    return FileBackedEncoder.load(path).spec()


class TestSelfContainedCheckpoint:
    """generate takes its vocabulary and encoder from the checkpoint; only
    --embeddings may point a file-backed checkpoint at another table."""

    def test_generate_needs_no_vocabulary_file_or_working_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        with open("corpus.txt", "w") as f:
            f.writelines(f"the {n} {v} today\n" for n, v in zip(NOUNS, VERBS))
        run_json(capsys, "build-vocab", "--corpus", "corpus.txt", "--out", "vocab.txt")
        run_json(
            capsys, "train", "--corpus", "corpus.txt", "--vocab", "vocab.txt", "--out", "m.smck",
            "--encoder", "hashed-bag", "--embed-dim", "8", "--layers", "1", "--heads", "2",
            "--ff-dim", "12", "--max-positions", "10", "--epochs", "1", "--warmup-steps", "0",
            "--learning-rate", "1e-2",
        )
        beams = ["--beams", "4", "--groups", "2"]
        run_json(capsys, "generate", "--checkpoint", "m.smck", "--input", "corpus.txt",
                 "--out", "here.jsonl", *beams)
        os.remove("vocab.txt")
        os.mkdir("elsewhere")
        monkeypatch.chdir("elsewhere")
        run_json(capsys, "generate", "--checkpoint", "../m.smck", "--input", "../corpus.txt",
                 "--out", "there.jsonl", *beams)
        there = (tmp_path / "elsewhere/there.jsonl").read_bytes()
        assert there == (tmp_path / "here.jsonl").read_bytes()

    def test_a_relative_embeddings_path_loads_from_another_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        from smclm.encoders import encoder_from_spec, write_embedding_file

        monkeypatch.chdir(tmp_path)
        texts = [f"the {n} {v} today" for n, v in zip(NOUNS, VERBS)]
        with open("corpus.txt", "w") as f:
            f.writelines(t + "\n" for t in texts)
        write_embedding_file("table.smem", {t: HashedBagEncoder(8).encode(t) for t in texts})
        run_json(capsys, "build-vocab", "--corpus", "corpus.txt", "--out", "vocab.txt")
        run_json(
            capsys, "train", "--corpus", "corpus.txt", "--vocab", "vocab.txt", "--out", "fb.smck",
            "--embeddings", "table.smem", "--embed-dim", "8", "--layers", "1", "--heads", "2",
            "--ff-dim", "12", "--max-positions", "10", "--epochs", "1", "--warmup-steps", "0",
        )
        os.mkdir("elsewhere")
        monkeypatch.chdir("elsewhere")
        spec = load_checkpoint("../fb.smck")[1]["encoder"]
        encoder = encoder_from_spec(spec)
        assert spec["path"] == str(tmp_path / "table.smem")
        assert encoder.encode(texts[0]) == pytest.approx(HashedBagEncoder(8).encode(texts[0]))

    @pytest.mark.parametrize("case,message", [
        ("clm checkpoint", "is a clm checkpoint; generate needs an smclm one"),
        ("no encoder entry", "m.smck: bad metadata: encoder must be an object or null"),
        ("no stored vocabulary", "stores no vocabulary"),
        ("--embeddings on hashed-bag",
         "--embeddings needs a file-backed checkpoint, not hashed-bag"),
        ("table of another dim", "encoder dim 16 must match embed_dim 8"),
        ("--embeddings of another dim", "encoder dim 16 must match embed_dim 8"),
    ])
    def test_generate_refuses_before_decoding(self, tmp_path, capsys, monkeypatch, case, message):
        from smclm import pipeline

        calls = []
        monkeypatch.setattr(pipeline, "diverse_beam_search", lambda *a: calls.append(a) or [])
        kw, flags = {}, []
        if case == "clm checkpoint":
            kw["encoder_spec"] = None
        elif case == "no stored vocabulary":
            kw["tokens"] = None
        elif case == "--embeddings on hashed-bag":
            flags = ["--embeddings", table_spec(tmp_path, 8)["path"]]
        elif case == "table of another dim":
            kw["encoder_spec"] = table_spec(tmp_path, 16)
        else:
            kw["encoder_spec"] = table_spec(tmp_path, 8)
            flags = ["--embeddings", table_spec(tmp_path, 16)["path"]]
        ckpt, src = write_tiny_checkpoint(tmp_path, **kw)
        if case == "no encoder entry":
            raw = Path(ckpt).read_bytes()
            Path(ckpt).write_bytes(raw.replace(b'"encoder"', b'"encodex"', 1))
        rc, out, err = run(
            capsys, "generate", "--checkpoint", ckpt, "--input", src,
            "--out", f"{tmp_path}/out.jsonl", *flags,
        )
        assert rc == 1 and out == ""
        assert message in json.loads(err)["error"]
        assert calls == []
        assert not (tmp_path / "out.jsonl").exists()

    def test_embeddings_relocates_a_file_backed_table(self, tmp_path, capsys, monkeypatch):
        import smclm.cli as cli_mod

        seen = []
        monkeypatch.setattr(cli_mod, "paraphrase_batch", lambda *a: seen.append(a[2]) or [])
        ckpt, src = write_tiny_checkpoint(tmp_path, table_spec(tmp_path, 8))
        moved = tmp_path / "moved.smem"
        os.replace(tmp_path / "table8.smem", moved)
        run_json(capsys, "generate", "--checkpoint", ckpt, "--input", src,
                 "--out", f"{tmp_path}/out.jsonl", "--embeddings", str(moved))
        assert [e.spec() for e in seen] == [{"kind": "file-backed", "dim": 8, "path": str(moved)}]

    @pytest.mark.parametrize("flag", [
        ["--vocab", "vocab.txt"], ["--encoder", "hashed-bag"],
        ["--encoder-dim", "8"], ["--encoder-seed", "7"],
    ])
    def test_removed_generate_flags_are_usage_errors(self, tmp_path, capsys, flag):
        ckpt, src = write_tiny_checkpoint(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--checkpoint", ckpt, "--input", src,
                  "--out", f"{tmp_path}/out.jsonl", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()


class TestSizeFlags:
    """--encoder-dim takes a positive integer; any other value exits 2
    naming the flag, before a file is read."""

    @staticmethod
    def inputs(command, path):
        if command == "evaluate":
            return ["--records", str(path), "--copy-input"]
        return ["--pairs", str(path)]

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    @pytest.mark.parametrize("command,flag", [
        ("evaluate", "--encoder-dim"), ("calibrate-beta", "--encoder-dim"),
    ])
    def test_a_bad_size_exits_2_naming_the_flag(self, tmp_path, capsys, command, flag, value):
        missing = tmp_path / "missing.jsonl"  # never opened: argparse exits first
        with pytest.raises(SystemExit) as exc:
            main([command, *self.inputs(command, missing), "--encoder", "hashed-bag", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a positive integer, got {value!r}" in err

    @pytest.mark.parametrize("command", ["evaluate", "calibrate-beta"])
    def test_given_sizes_reach_the_library(self, tmp_path, capsys, monkeypatch, command):
        dims = record_dims(monkeypatch)
        path = tmp_path / "in.jsonl"
        path.write_text('{"source": "the cat sat on the mat", "references": ["the cat sat"]}\n')
        run_json(capsys, command, *self.inputs(command, path),
                 "--encoder", "hashed-bag", "--encoder-dim", "1")
        assert dims == [("encoder", 1), ("token", None, 64)]


# each subcommand's option strings: a new or removed knob is a reviewed edit here
FLAG_INVENTORY = {
    "build-corpus": "--source --target --seed --min-chars --out --manifest",
    "split-dataset": "--groups --ratios --seed --out-dir --emit-corpora --emit-pairs",
    "build-vocab": "--corpus --min-freq --out",
    "train": "--mode --corpus --valid --vocab --out --config --log --learning-rate --lr "
             "--batch-size --weight-decay --epochs --warmup-steps --seed --embed-dim --layers "
             "--heads --ff-dim --max-positions --init-std --model-seed --show-defaults "
             "--embeddings --encoder",
    "generate": "--checkpoint --input --out --beams --groups --diversity --no-repeat "
                "--max-length --alpha --beta --embeddings",
    "evaluate": "--records --candidates --copy-input --beta --ref-reduce --fluency --report "
                "--table --strict --no-strict --embeddings --encoder --encoder-dim",
    "calibrate-beta": "--pairs --embeddings --encoder --encoder-dim",
}


def test_flag_inventory():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: [a.option_strings for a in p._actions if "--help" not in a.option_strings]
        for name, p in sub.choices.items()
    }
    assert {name: " ".join(sum(f, [])) for name, f in flags.items()} == FLAG_INVENTORY
    assert [len(f) for f in flags.values()] == [6, 6, 3, 23, 11, 12, 4]  # 65 flags


def encoder_command(tmp_path, command) -> list[str]:
    """command with valid input for every file it reads, and no encoder flag."""
    words = ["<bos>", "<eos>", "<unk>", "<pad>", "cat", "sat", "mat"]
    (tmp_path / "vocab.txt").write_text("\n".join(words) + "\n")
    (tmp_path / "corpus.txt").write_text("cat sat mat\n")
    (tmp_path / "in.jsonl").write_text('{"source": "cat sat mat", "references": ["cat sat mat"]}\n')
    if command == "train":
        return ["train", "--corpus", f"{tmp_path}/corpus.txt", "--vocab", f"{tmp_path}/vocab.txt",
                "--out", f"{tmp_path}/m.smck", "--embed-dim", "8", "--layers", "1", "--heads",
                "2", "--ff-dim", "12", "--max-positions", "8", "--warmup-steps", "0"]
    if command == "evaluate":
        return ["evaluate", "--records", f"{tmp_path}/in.jsonl", "--copy-input"]
    return ["calibrate-beta", "--pairs", f"{tmp_path}/in.jsonl"]


class TestEncoderFlags:
    """Every encoder flag a subcommand takes changes its run: the rest are
    usage errors, and a flag that would be ignored exits 1."""

    @pytest.mark.parametrize("command,flag", [
        ("train", ["--encoder-dim", "8"]), ("train", ["--encoder-seed", "0"]),
        ("evaluate", ["--encoder-seed", "0"]), ("evaluate", ["--token-dim", "64"]),
        ("calibrate-beta", ["--encoder-seed", "0"]), ("calibrate-beta", ["--token-dim", "64"]),
    ])
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([*encoder_command(tmp_path, command), "--encoder", "hashed-bag", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "m.smck").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate", "calibrate-beta"])
    def test_embeddings_and_encoder_are_exclusive(self, tmp_path, capsys, command):
        # --embeddings once won silently over --encoder
        table = table_spec(tmp_path, 8)["path"]
        with pytest.raises(SystemExit) as exc:
            main([*encoder_command(tmp_path, command), "--embeddings", table,
                  "--encoder", "hashed-bag"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --encoder: not allowed with argument --embeddings" in err

    @pytest.mark.parametrize("command", ["evaluate", "calibrate-beta"])
    def test_encoder_dim_with_embeddings_exits_1(self, tmp_path, capsys, command):
        # --encoder-dim was once ignored next to --embeddings
        table = table_spec(tmp_path, 8)["path"]
        rc, out, err = run(capsys, *encoder_command(tmp_path, command),
                           "--embeddings", table, "--encoder-dim", "8")
        assert (rc, out) == (1, "")
        assert json.loads(err)["error"] == (
            "--encoder-dim sizes --encoder hashed-bag; with --embeddings the table sets the dim"
        )

    @pytest.mark.parametrize("flag", [["--encoder", "hashed-bag"], ["--embeddings", "missing.bin"]])
    def test_clm_train_refuses_an_encoder_flag(self, tmp_path, capsys, flag):
        # both flags were once ignored at --mode clm, which exited 0; neither
        # the vocabulary nor the corpus exists, so the check comes before both
        argv = encoder_command(tmp_path, "train")
        os.remove(tmp_path / "vocab.txt")
        os.remove(tmp_path / "corpus.txt")
        rc, out, err = run(capsys, *argv, "--mode", "clm", *flag)
        assert (rc, out) == (1, "")
        assert json.loads(err)["error"] == (
            "--mode clm injects no sentence embedding; drop --encoder and --embeddings"
        )

    @pytest.mark.parametrize("gap", ["corpus", "valid"])
    def test_a_train_table_gap_fails_before_any_sentence_is_encoded(
        self, tmp_path, capsys, monkeypatch, gap
    ):
        # a gap once raised a bare KeyError after the earlier sentences were encoded
        from smclm.encoders import FileBackedEncoder, write_embedding_file

        texts = [f"the {n} {v} today" for n, v in zip(NOUNS, VERBS)]
        corpus, valid = tmp_path / "corpus.txt", tmp_path / "valid.txt"
        corpus.write_text("".join(t + "\n" for t in texts[:-1]))
        valid.write_text(texts[-1] + "\n")
        missing = texts[-2] if gap == "corpus" else texts[-1]
        table = str(tmp_path / "table.smem")
        write_embedding_file(table, {t: HashedBagEncoder(8).encode(t) for t in texts if t != missing})
        run_json(capsys, "build-vocab", "--corpus", str(corpus), "--out", f"{tmp_path}/vocab.txt")
        encoded = []
        encode_many = FileBackedEncoder.encode_many  # encode calls it too
        monkeypatch.setattr(FileBackedEncoder, "encode_many", lambda e, s: encoded.append(s) or encode_many(e, s))
        rc, out, err = run(
            capsys, "train", "--corpus", str(corpus), "--valid", str(valid),
            "--vocab", f"{tmp_path}/vocab.txt", "--out", f"{tmp_path}/m.smck",
            "--embeddings", table, "--embed-dim", "8", "--layers", "1", "--heads", "2",
            "--ff-dim", "12", "--max-positions", "10", "--epochs", "1", "--warmup-steps", "0",
        )
        assert (rc, out) == (1, "")
        assert json.loads(err)["error"] == (
            f"the encoder has no vector for 1 sentence(s), first {missing!r}"
        )
        assert encoded == []
        assert not (tmp_path / "m.smck").exists()

    def test_a_generate_table_gap_fails_before_the_first_decode(
        self, tmp_path, capsys, monkeypatch
    ):
        # the first source was once decoded before the second's gap raised
        from smclm import pipeline

        calls = []
        monkeypatch.setattr(pipeline, "diverse_beam_search", lambda *a: calls.append(a) or [])
        ckpt, src = write_tiny_checkpoint(tmp_path, table_spec(tmp_path, 8))
        with open(src, "a") as f:
            f.write("mat sat cat\n")
        rc, out, err = run(capsys, "generate", "--checkpoint", ckpt, "--input", src,
                           "--out", f"{tmp_path}/out.jsonl")
        assert (rc, out) == (1, "")
        assert json.loads(err)["error"] == (
            "record 1: the encoder has no vector for 1 sentence(s), first 'mat sat cat'"
        )
        assert calls == []
        assert not (tmp_path / "out.jsonl").exists()


class TestErrorPaths:
    def test_unknown_command_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["no-such-command"])

    def test_bad_source_format(self, tmp_path, capsys):
        rc, _, err = run(
            capsys,
            "build-corpus",
            "--source", "missing-equals",
            "--target", "5",
            "--out", f"{tmp_path}/x.txt",
        )
        assert rc == 1
        assert "DOMAIN=PATH" in json.loads(err)["error"]

    def test_train_missing_required(self, capsys):
        rc, _, err = run(capsys, "train")
        assert rc == 1
        assert "--corpus is required" in json.loads(err)["error"]

    def test_evaluate_needs_a_candidate_source(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text('{"source": "a", "references": ["b"]}\n')
        rc, _, err = run(capsys, "evaluate", "--records", str(records))
        assert rc == 1
        assert "--candidates" in json.loads(err)["error"]

    def test_strict_evaluate_rejects_missing_source(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text('{"source": "a b c", "references": ["a c"]}\n')
        cands = tmp_path / "cands.jsonl"
        cands.write_text('{"source": "other", "candidates": ["x"], "best": 0}\n')
        rc, _, err = run(
            capsys,
            "evaluate",
            "--records", str(records),
            "--candidates", str(cands),
            "--encoder", "hashed-bag",
        )
        assert rc == 1
        assert "no candidates" in json.loads(err)["error"]

    def test_evaluate_rejects_duplicate_candidate_source(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text('{"source": "a b c", "references": ["a c"]}\n')
        cands = tmp_path / "cands.jsonl"
        cands.write_text(
            '{"source": "a b c", "candidates": ["a c b"], "best": 0}\n'
            '{"source": "a b c", "candidates": ["c b a"], "best": 0}\n'
        )
        rc, _, err = run(
            capsys,
            "evaluate",
            "--records", str(records),
            "--candidates", str(cands),
            "--encoder", "hashed-bag",
        )
        assert rc == 1
        error = json.loads(err)["error"]
        assert "duplicate source" in error and "'a b c'" in error

    @pytest.mark.parametrize("copy_input", [False, True])
    def test_evaluate_rejects_duplicate_record_source(self, tmp_path, capsys, copy_input):
        records = tmp_path / "records.jsonl"
        records.write_text('{"source": "a b c", "references": ["a c"]}\n' * 2)
        cands = tmp_path / "cands.jsonl"
        cands.write_text('{"source": "a b c", "candidates": ["a c b"], "best": 0}\n')
        mode = ["--copy-input"] if copy_input else ["--candidates", str(cands)]
        rc, _, err = run(
            capsys, "evaluate", "--records", str(records), *mode, "--encoder", "hashed-bag"
        )
        assert rc == 1
        error = json.loads(err)["error"]
        assert "duplicate source" in error and str(records) in error and "'a b c'" in error

    def test_generate_rejects_duplicate_input_line(self, tmp_path, capsys):
        # the checkpoint does not exist: the input is checked before it is loaded
        src = tmp_path / "in.txt"
        src.write_text("cat sat mat\ncat mat\ncat sat mat\n")
        out = tmp_path / "out.jsonl"
        rc, _, err = run(
            capsys, "generate", "--checkpoint", f"{tmp_path}/missing.smck",
            "--input", str(src), "--out", str(out),
        )
        assert rc == 1
        error = json.loads(err)["error"]
        assert "duplicate source" in error and str(src) in error and "'cat sat mat'" in error
        assert not out.exists()

    @pytest.mark.parametrize(
        "record",
        [
            '{"id": "b", "sentences": "the cat"}',
            '{"id": "b", "sentences": ["e f", 7]}',
            '{"id": "b", "sentences": ["a b", "g h"]}',
        ],
    )
    def test_split_dataset_bad_groups_write_nothing(self, tmp_path, capsys, record):
        # a non-list or non-string sentence, or a sentence shared with group "a"
        groups = tmp_path / "groups.jsonl"
        groups.write_text(
            '{"id": "a", "sentences": ["a b", "c d"]}\n'
            '{"id": "c", "sentences": ["i j", "k l"]}\n' + record + "\n"
        )
        out_dir = tmp_path / "splits"
        rc, _, err = run(
            capsys, "split-dataset", "--groups", str(groups), "--out-dir", str(out_dir),
            "--ratios", "0.4,0.3,0.3", "--emit-corpora", "--emit-pairs",
        )
        assert rc == 1
        assert "sentence" in json.loads(err)["error"]
        assert not out_dir.exists()

    def test_stdout_is_one_json_line(self, tmp_path, capsys):
        # a nested summary, which an indented dump spreads over many lines
        groups = tmp_path / "groups.jsonl"
        write_groups(groups, count=10)
        summary = run_json(
            capsys, "split-dataset", "--groups", str(groups), "--out-dir", str(tmp_path / "s"),
        )
        assert summary["splits"]["train"]["groups"] == 8

    @pytest.mark.parametrize("ratios", ["0.5,0.5", "0.4,0.3,0.2,0.1"])
    def test_split_dataset_ratio_count_is_three(self, tmp_path, capsys, ratios):
        groups = tmp_path / "groups.jsonl"
        groups.write_text('{"id": "a", "sentences": ["a b"]}\n{"id": "c", "sentences": ["i j"]}\n')
        out_dir = tmp_path / "splits"
        rc, _, err = run(
            capsys, "split-dataset", "--groups", str(groups), "--out-dir", str(out_dir),
            "--ratios", ratios,
        )
        assert rc == 1
        want = f"need 3 ratios (train,valid,test), got {len(ratios.split(','))}"
        assert json.loads(err)["error"] == want
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "record",
        [
            '{"source": "a b c", "references": "the cat"}',
            '{"source": "a b c", "references": []}',
            '{"source": "a b c", "references": ["a c", 3]}',
            '{"source": 5, "references": ["a c"]}',
            '{"input": "a b c", "reference": ["a c"]}',
        ],
    )
    def test_calibrate_beta_rejects_bad_pair_record(self, tmp_path, capsys, record):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text('{"input": "a b c", "reference": "a c"}\n' + record + "\n")
        rc, _, err = run(capsys, "calibrate-beta", "--pairs", str(pairs), "--encoder", "hashed-bag")
        assert rc == 1
        assert "pairs.jsonl:2: bad record" in json.loads(err)["error"]

    def test_lenient_evaluate_skips_missing_source(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text(
            '{"source": "a b c", "references": ["a c"]}\n'
            '{"source": "d e", "references": ["d"]}\n'
        )
        cands = tmp_path / "cands.jsonl"
        cands.write_text('{"source": "a b c", "candidates": ["a c b"], "best": 0}\n')
        summary = run_json(
            capsys,
            "evaluate",
            "--records", str(records),
            "--candidates", str(cands),
            "--encoder", "hashed-bag",
            "--no-strict",
        )
        assert summary["counts"]["evaluated"] == 1
        assert summary["counts"]["skipped"] == 1

    @pytest.mark.parametrize("copy_input", [False, True])
    def test_lenient_evaluate_skips_records_without_a_string_source(
        self, tmp_path, capsys, copy_input
    ):
        records = tmp_path / "records.jsonl"
        records.write_text(
            '{"source": "a b c", "references": ["a c"]}\n'
            '["not", "an", "object"]\n'
            '{"source": ["a", "b"], "references": ["d"]}\n'
        )
        cands = tmp_path / "cands.jsonl"
        cands.write_text('{"source": "a b c", "candidates": ["a c b"], "best": 0}\n')
        source = ["--copy-input"] if copy_input else ["--candidates", str(cands)]
        summary = run_json(
            capsys,
            "evaluate",
            "--records", str(records),
            *source,
            "--encoder", "hashed-bag",
            "--no-strict",
        )
        assert summary["counts"]["evaluated"] == 1
        assert summary["counts"]["skipped"] == 2

    def test_generate_vocab_size_mismatch(self, tmp_path, capsys, monkeypatch):
        from smclm import pipeline

        calls = []
        monkeypatch.setattr(pipeline, "diverse_beam_search", lambda *a: calls.append(a) or [])
        ckpt, src = write_tiny_checkpoint(tmp_path, vocab_size=8)
        rc, out, err = run(
            capsys, "generate", "--checkpoint", ckpt, "--input", src,
            "--out", f"{tmp_path}/out.jsonl",
        )
        assert rc == 1 and out == ""
        assert "stored vocabulary has 7 tokens, not 8" in json.loads(err)["error"]
        assert calls == []
        assert not (tmp_path / "out.jsonl").exists()

    def test_generate_clamps_max_length_to_position_window(self, tmp_path, capsys):
        ckpt, src = write_tiny_checkpoint(tmp_path)
        # default --max-length 32 would need 32 positions; the window has 8
        rc, out, _ = run(
            capsys,
            "generate",
            "--checkpoint", ckpt,
            "--input", src,
            "--out", f"{tmp_path}/out.jsonl",
            "--beams", "2",
            "--groups", "2",
        )
        assert rc == 0
        assert json.loads(out)["written"] == 1
        record = json.loads((tmp_path / "out.jsonl").read_text().splitlines()[0])
        assert all(len(c.split()) <= 8 for c in record["candidates"])

    def test_generate_clamp_is_the_whole_window(self, tmp_path, capsys, monkeypatch):
        # the decoders fit max_length == max_positions: the last token is never fed back
        import smclm.cli as cli_mod

        seen = []

        def capture(model, vocab, encoder, sources, cfg):
            seen.append(cfg.beam)
            return []

        monkeypatch.setattr(cli_mod, "paraphrase_batch", capture)
        ckpt, src = write_tiny_checkpoint(tmp_path)
        rc, _, _ = run(
            capsys, "generate", "--checkpoint", ckpt, "--input", src,
            "--out", f"{tmp_path}/out.jsonl",
        )
        assert rc == 0
        assert [b.max_length for b in seen] == [8]

    def test_runtime_error_exits_two(self, tmp_path, capsys, monkeypatch):
        import smclm.cli as cli_mod

        def explode(*a, **k):
            raise RuntimeError("non-finite loss 'nan' at step 3")

        monkeypatch.setattr(cli_mod, "train", explode)
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(["<bos>", "<eos>", "<unk>", "<pad>", "word"]) + "\n")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("word word word\n")
        rc, _, err = run(
            capsys,
            "train",
            "--corpus", str(corpus),
            "--vocab", str(vocab),
            "--out", f"{tmp_path}/m.smck",
            "--encoder", "hashed-bag",
            "--embed-dim", "8",
            "--layers", "1",
            "--heads", "2",
            "--ff-dim", "12",
            "--max-positions", "8",
        )
        assert rc == 2
        assert "non-finite" in json.loads(err)["error"]

    def test_encoder_dim_mismatch_at_train(self, tmp_path, capsys):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(["<bos>", "<eos>", "<unk>", "<pad>", "word"]) + "\n")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("word word word\n")
        rc, _, err = run(
            capsys,
            "train",
            "--corpus", str(corpus),
            "--vocab", str(vocab),
            "--out", f"{tmp_path}/m.smck",
            "--embeddings", table_spec(tmp_path, 32)["path"],
            "--embed-dim", "8",
            "--layers", "1",
            "--heads", "2",
            "--ff-dim", "12",
            "--max-positions", "8",
        )
        assert rc == 1
        assert "encoder dim 32 must match embed_dim 8" in json.loads(err)["error"]

    def test_encoder_dim_mismatch_at_generate_fails_before_decoding(
        self, tmp_path, capsys, monkeypatch
    ):
        from smclm import pipeline

        calls = []
        monkeypatch.setattr(pipeline, "diverse_beam_search", lambda *a: calls.append(a) or [])
        # an 8-dim model whose checkpoint names a 16-dim encoder
        ckpt, src = write_tiny_checkpoint(tmp_path, HashedBagEncoder(dim=16).spec())
        rc, out, err = run(
            capsys, "generate", "--checkpoint", ckpt, "--input", src,
            "--out", f"{tmp_path}/out.jsonl",
        )
        assert rc == 1 and out == ""
        assert "encoder dim 16 must match embed_dim 8" in json.loads(err)["error"]
        assert calls == []
        assert not (tmp_path / "out.jsonl").exists()

    def test_generate_non_finite_beta_fails_before_decoding(self, tmp_path, capsys, monkeypatch):
        from smclm import pipeline

        calls = []
        monkeypatch.setattr(pipeline, "diverse_beam_search", lambda *a: calls.append(a) or [])
        ckpt, src = write_tiny_checkpoint(tmp_path)
        rc, out, err = run(
            capsys, "generate", "--checkpoint", ckpt, "--input", src,
            "--out", f"{tmp_path}/out.jsonl", "--beta", "nan",
        )
        assert rc == 1 and out == ""
        assert "beta must be finite and > 0, got nan" in json.loads(err)["error"]
        assert calls == []
        assert not (tmp_path / "out.jsonl").exists()

    def test_generate_nan_diversity_fails_before_decoding(self, tmp_path, capsys, monkeypatch):
        # nan diversity once decoded every selection by a full-row walk, and exited 0
        from smclm import pipeline

        calls = []
        monkeypatch.setattr(pipeline, "diverse_beam_search", lambda *a: calls.append(a) or [])
        ckpt, src = write_tiny_checkpoint(tmp_path)
        rc, out, err = run(
            capsys, "generate", "--checkpoint", ckpt, "--input", src,
            "--out", f"{tmp_path}/out.jsonl", "--diversity", "nan",
        )
        assert rc == 1 and out == ""
        assert "diversity_strength must be finite and >= 0, got nan" in json.loads(err)["error"]
        assert calls == []
        assert not (tmp_path / "out.jsonl").exists()

    def test_evaluate_takes_one_candidate_source(self, tmp_path, capsys):
        # --copy-input once silently ignored the --candidates file
        records = tmp_path / "records.jsonl"
        records.write_text('{"source": "a b c", "references": ["a c"]}\n')
        cands = tmp_path / "cands.jsonl"
        cands.write_text('{"source": "a b c", "candidates": ["a c b"], "best": 0}\n')
        rc, out, err = run(
            capsys, "evaluate", "--records", str(records), "--candidates", str(cands),
            "--copy-input", "--encoder", "hashed-bag",
        )
        assert rc == 1 and out == ""
        assert json.loads(err)["error"] == "pass --candidates FILE or --copy-input, not both"

    def test_evaluate_infinite_beta_prints_nothing(self, tmp_path, capsys):
        # nan or inf used to print "SBERT-iBLEU": NaN, which is not JSON
        records = tmp_path / "records.jsonl"
        records.write_text('{"source": "a b c", "references": ["a c"]}\n')
        rc, out, err = run(
            capsys, "evaluate", "--records", str(records), "--copy-input",
            "--encoder", "hashed-bag", "--beta", "inf",
        )
        assert rc == 1 and out == ""
        assert "beta must be finite and > 0, got inf" in json.loads(err)["error"]

    def test_empty_validation_file_fails_before_training(self, tmp_path, capsys):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(["<bos>", "<eos>", "<unk>", "<pad>", "word"]) + "\n")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("word word word\n")
        empty = tmp_path / "valid.txt"
        empty.write_text("")
        out = tmp_path / "m.smck"
        rc, _, err = run(
            capsys,
            "train",
            "--corpus", str(corpus),
            "--vocab", str(vocab),
            "--valid", str(empty),
            "--out", str(out),
            "--encoder", "hashed-bag",
            "--embed-dim", "8",
            "--layers", "1",
            "--heads", "2",
            "--ff-dim", "12",
            "--max-positions", "8",
            "--epochs", "1",
            "--warmup-steps", "1",
        )
        assert rc == 1
        assert "has no sentences" in json.loads(err)["error"]
        assert not out.exists()


class TestTrainConfigTypes:
    @pytest.mark.parametrize("section,field,value", [
        ("train", "epochs", 1.5),
        ("train", "batch_size", True),
        ("train", "learning_rate", "1e-3"),
        ("model", "embed_dim", 8.0),
    ])
    def test_a_wrong_type_fails_before_the_corpus_is_read(
        self, tmp_path, capsys, monkeypatch, section, field, value
    ):
        # epochs 1.5 once failed inside train() naming no field, and batch_size
        # true trained at batch size 1
        from smclm import training

        calls = []
        monkeypatch.setattr(training, "build_examples", lambda *a, **k: calls.append(a))
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(["<bos>", "<eos>", "<unk>", "<pad>", "word"]) + "\n")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("word word word\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({section: {field: value}}))
        rc, out, err = run(
            capsys, "train", "--corpus", str(corpus), "--vocab", str(vocab),
            "--out", f"{tmp_path}/m.smck", "--config", str(config), "--encoder", "hashed-bag",
        )
        assert rc == 1 and out == ""
        assert json.loads(err)["error"].startswith(f"{field} must be ")
        assert calls == []
        assert not (tmp_path / "m.smck").exists()


CONFIG_FIELDS = {f.name for config in (ModelConfig, TrainConfig, BeamSearchConfig, EvalConfig,
                                        PipelineConfig) for f in fields(config)}


@pytest.mark.parametrize("command,argv,field,value", [
    ("train", ["--lr", "nan"], "learning_rate", "nan"),
    ("train", ["--epochs", "0"], "epochs", "0"),
    ("train", ["--embed-dim", "0"], "embed_dim", "0"),
    ("train", ["--config", "config.json"], "beta1", "1.0"),
    ("train", ["--seed", "-1"], "seed", "-1"),
    ("train", ["--model-seed", "-1"], "seed", "-1"),
    ("generate", ["--beams", "0"], "beam_count", "0"),
])
def test_a_range_error_names_one_field_and_its_value(
    tmp_path, capsys, monkeypatch, command, argv, field, value
):
    # --lr nan once named three fields and no value; a seed of -1 was read
    # only after every corpus sentence had been encoded. The train corpus is
    # missing, so each train case fails before it is read
    monkeypatch.chdir(tmp_path)
    if command == "train":
        Path("vocab.txt").write_text("\n".join(TINY_TOKENS) + "\n")
        Path("config.json").write_text(json.dumps({"train": {"beta1": 1.0}}))
        args = ["--corpus", "missing.txt", "--vocab", "vocab.txt", "--out", "m.smck",
                "--encoder", "hashed-bag"]
    else:
        ckpt, src = write_tiny_checkpoint(tmp_path)
        args = ["--checkpoint", ckpt, "--input", src, "--out", "cands.jsonl"]
    rc, out, err = run(capsys, command, *args, *argv)
    assert rc == 1 and out == ""
    error = json.loads(err)["error"]
    assert error.startswith(f"{field} must be ") and error.endswith(f", got {value}")
    assert set(re.findall(r"\w+", error)) & CONFIG_FIELDS == {field}


def command_args(tmp_path, command) -> list[str]:
    """Valid arguments for command, each output a file in tmp_path."""
    words = ["<bos>", "<eos>", "<unk>", "<pad>", "word"]
    if command == "build-corpus":
        write_documents(tmp_path / "news.txt", "news")
        return ["--source", f"news={tmp_path}/news.txt", "--target", "5",
                "--out", f"{tmp_path}/corpus.txt", "--manifest", f"{tmp_path}/manifest.json"]
    if command == "build-vocab":
        (tmp_path / "corpus.txt").write_text("word word word\n")
        return ["--corpus", f"{tmp_path}/corpus.txt", "--out", f"{tmp_path}/vocab.txt"]
    if command == "train":
        (tmp_path / "vocab.txt").write_text("\n".join(words) + "\n")
        (tmp_path / "corpus.txt").write_text("word word word\n")
        return ["--corpus", f"{tmp_path}/corpus.txt", "--vocab", f"{tmp_path}/vocab.txt",
                "--out", f"{tmp_path}/m.smck", "--log", f"{tmp_path}/log.jsonl",
                "--encoder", "hashed-bag", "--embed-dim", "8", "--layers", "1", "--heads", "2",
                "--ff-dim", "12", "--max-positions", "8", "--warmup-steps", "0"]
    if command == "generate":
        ckpt, src = write_tiny_checkpoint(tmp_path)
        return ["--checkpoint", ckpt, "--input", src, "--out", f"{tmp_path}/cands.jsonl"]
    assert command == "evaluate"
    (tmp_path / "records.jsonl").write_text('{"source": "a b c", "references": ["a c"]}\n')
    return ["--records", f"{tmp_path}/records.jsonl", "--copy-input", "--encoder", "hashed-bag",
            "--report", f"{tmp_path}/report.json"]


class TestMissingOutputDirectory:
    """Each output file's directory is checked before the first unit of work;
    a missing one once failed after all of it, naming a temp file."""

    @pytest.mark.parametrize("command,flag,work", [
        ("build-corpus", "--out", "smclm.corpus.build_corpus"),
        ("build-corpus", "--manifest", "smclm.corpus.build_corpus"),
        ("build-vocab", "--out", "smclm.cli.build_vocabulary"),
        ("train", "--out", "smclm.training.build_examples"),
        ("train", "--log", "smclm.training.build_examples"),
        ("generate", "--out", "smclm.pipeline.diverse_beam_search"),
        ("evaluate", "--report", "smclm.metrics.evaluate_corpus"),
    ])
    def test_fails_before_any_work(self, tmp_path, capsys, monkeypatch, command, flag, work):
        calls = []
        monkeypatch.setattr(work, lambda *a, **k: calls.append(a))
        argv = command_args(tmp_path, command)
        missing = f"{tmp_path}/nodir/{os.path.basename(argv[argv.index(flag) + 1])}"
        argv[argv.index(flag) + 1] = missing
        rc, out, err = run(capsys, command, *argv)
        assert rc == 1 and out == ""
        assert json.loads(err)["error"] == f"the directory of {flag} {missing} does not exist"
        assert calls == []

    @pytest.mark.parametrize("command", ["build-corpus", "build-vocab", "train", "generate",
                                         "evaluate"])
    def test_the_same_arguments_run(self, tmp_path, capsys, command):
        run_json(capsys, command, *command_args(tmp_path, command))


class TestReadmeCommands:
    def test_every_walkthrough_command_parses(self):
        """The README's smclm commands, continuation lines joined and comments
        dropped, parse as they stand, so a removed flag cannot stay documented."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        commands = [
            words[1:]
            for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
            for line in block.replace("\\\n", " ").splitlines()
            if (words := shlex.split(line, comments=True))[:1] == ["smclm"]
        ]
        assert len(commands) == 9
        parser = build_parser()
        for words in commands:
            try:
                parser.parse_args(words)
            except SystemExit:
                pytest.fail(f"README command does not parse: smclm {shlex.join(words)}")


class TestAtomicPath:
    def test_failure_leaves_no_file(self, tmp_path):
        target = tmp_path / "out.bin"
        with pytest.raises(RuntimeError):
            with atomic_path(str(target)) as tmp:
                with open(tmp, "wb") as f:
                    f.write(b"partial")
                raise RuntimeError("mid-write failure")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_success_replaces(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        with atomic_path(str(target)) as tmp:
            with open(tmp, "wb") as f:
                f.write(b"new")
        assert target.read_bytes() == b"new"


class TestBadInput:
    """One table of bad inputs, each defect on the last record of its file
    (or, for a flag, in the flag): every row exits 1 with empty stdout and a
    message naming path:line, the record index, the config file or the
    flag's field, before the command's first unit of work."""

    WORK = {"train": "smclm.cli.load_vocabulary", "generate": "smclm.pipeline.diverse_beam_search",
            "evaluate": "smclm.metrics._WordTable", "calibrate-beta": "smclm.metrics._WordTable"}
    # each file's first and, unless a row replaces it, last record
    GOOD = {
        "records.jsonl": ['{"source": "a b c", "references": ["a c"]}',
                          '{"source": "b c d", "references": ["b d"]}'],
        "cands.jsonl": ['{"source": "a b c", "candidates": ["a c b", "c b a"], "best": 0}',
                        '{"source": "b c d", "candidates": ["b d c", "d c b"], "best": 1}'],
        "fluency.jsonl": [json.dumps({"sentence_sha256": fluency_key(t), "fluency": 0.5})
                          for t in ("a c b", "d c b")],
        "pairs.jsonl": ['{"input": "the cat sat on the mat", "reference": "the cat sat on a mat"}',
                        '{"input": "the dog sat on the mat", "reference": "the dog sat on a mat"}'],
        "in.txt": ["cat sat mat", "mat sat cat"],
    }
    TABLE_TEXTS = ["a b c", "a c", "a c b", "c b a", "b c d", "b d", "b d c", "d c b",
                   "the cat sat on the mat", "the cat sat on a mat", "the dog sat on the mat",
                   "the dog sat on a mat", "cat sat mat"]
    CONFIG = {"model": {"embed_dim": 8, "layer_count": 1, "head_count": 2, "ff_dim": 12,
                        "max_positions": 8}, "train": {"epochs": 1, "warmup_steps": 0}}

    def argv(self, tmp_path, command, row_file=None, last=None) -> list[str]:
        """command over good files in tmp_path, with last in place of
        row_file's last record, or given as the value of flag row_file."""
        from smclm.encoders import FileBackedEncoder, write_embedding_file

        for name, (first, good_last) in self.GOOD.items():
            (tmp_path / name).write_text(f"{first}\n{last if name == row_file else good_last}\n")
        enc = HashedBagEncoder(dim=8)
        write_embedding_file(f"{tmp_path}/table.smem", {t: enc.encode(t) for t in self.TABLE_TEXTS})
        (tmp_path / "cfg.json").write_text(last if row_file == "cfg.json" else json.dumps(self.CONFIG))
        flag = [row_file, last] if row_file and row_file.startswith("--") else []
        table = ["--embeddings", f"{tmp_path}/table.smem"]
        if command == "train":
            (tmp_path / "vocab.txt").write_text("\n".join(TINY_TOKENS) + "\n")
            return ["train", "--corpus", f"{tmp_path}/in.txt", "--vocab", f"{tmp_path}/vocab.txt",
                    "--out", f"{tmp_path}/m.smck", "--config", f"{tmp_path}/cfg.json",
                    "--encoder", "hashed-bag", *flag]
        if command == "generate":
            # in.txt's rows read the table; the good run needs hashed-bag,
            # since no table holds the candidates that selection encodes
            (tmp_path / "ckpt").mkdir()
            spec = (FileBackedEncoder.load(table[1]).spec() if row_file == "in.txt"
                    else HashedBagEncoder(dim=8).spec())
            ckpt, _ = write_tiny_checkpoint(tmp_path / "ckpt", spec)
            return ["generate", "--checkpoint", ckpt, "--input", f"{tmp_path}/in.txt",
                    "--out", f"{tmp_path}/out.jsonl", *flag]
        if command == "evaluate":
            return ["evaluate", "--records", f"{tmp_path}/records.jsonl",
                    "--candidates", f"{tmp_path}/cands.jsonl",
                    "--fluency", f"{tmp_path}/fluency.jsonl", *table, *flag]
        return ["calibrate-beta", "--pairs", f"{tmp_path}/pairs.jsonl", *table, *flag]

    @pytest.mark.parametrize("command", ["train", "generate", "evaluate", "calibrate-beta"])
    def test_the_good_files_run(self, tmp_path, capsys, monkeypatch, command):
        # and reach the work that the bad rows never start
        import importlib

        module, name = self.WORK[command].rsplit(".", 1)
        real, calls = getattr(importlib.import_module(module), name), []
        monkeypatch.setattr(self.WORK[command], lambda *a, **k: calls.append(a) or real(*a, **k))
        run_json(capsys, *self.argv(tmp_path, command))
        assert calls

    @pytest.mark.parametrize("command,row_file,last,message", [
        # bad JSON, a wrong type, a missing key
        ("evaluate", "records.jsonl", '{"source": "b c d"', "{dir}/records.jsonl:2: bad JSON"),
        ("evaluate", "records.jsonl", '{"source": "b c d", "references": "b d"}',
         "record 1: references must be a non-empty list of strings"),
        ("evaluate", "records.jsonl", '{"source": "b c d"}',
         "record 1: references must be a non-empty list of strings"),
        ("evaluate", "cands.jsonl", '{"source": "b c d", "candidates": [3], "best": 0}',
         "record 1: candidates must be a non-empty list of strings"),
        ("calibrate-beta", "pairs.jsonl", '{"input": "the dog", "reference": 5',
         "{dir}/pairs.jsonl:2: bad JSON"),
        ("calibrate-beta", "pairs.jsonl", '{"input": "the dog", "reference": 5}',
         "{dir}/pairs.jsonl:2: bad record"),
        ("calibrate-beta", "pairs.jsonl", '{"input": "the dog"}', "{dir}/pairs.jsonl:2: bad record"),
        # a duplicate source, an out-of-range best
        ("evaluate", "records.jsonl", '{"source": "a b c", "references": ["b d"]}',
         "duplicate source in {dir}/records.jsonl: record 1 repeats 'a b c'"),
        ("evaluate", "cands.jsonl", '{"source": "a b c", "candidates": ["b d c"], "best": 0}',
         "duplicate source in {dir}/cands.jsonl: record 1 repeats 'a b c'"),
        ("generate", "in.txt", "cat sat mat",
         "duplicate source in {dir}/in.txt: record 1 repeats 'cat sat mat'"),
        ("evaluate", "cands.jsonl", '{"source": "b c d", "candidates": ["b d c"], "best": 1}',
         "record 1: 'best' index 1 out of range"),
        # a bad fluency key or value, a non-finite beta
        ("evaluate", "fluency.jsonl", '{"sentence_sha256": "D C B", "fluency": 0.5}',
         "{dir}/fluency.jsonl:2: bad record: sentence_sha256 must be 64 lowercase hex digits"),
        ("evaluate", "fluency.jsonl", json.dumps({"sentence_sha256": "0" * 64, "fluency": "NaN"}),
         "{dir}/fluency.jsonl:2: bad record: fluency must be a finite number"),
        ("evaluate", "--beta", "nan", "beta must be finite and > 0, got nan"),
        ("generate", "--beta", "inf", "beta must be finite and > 0, got inf"),
        # a sentence missing from the --embeddings table (or generate's
        # file-backed checkpoint)
        ("evaluate", "records.jsonl", '{"source": "b c d", "references": ["b d", "e f"]}',
         "record 1: the encoder has no vector for 1 sentence(s), first 'e f'"),
        ("generate", "in.txt", "e f",
         "record 1: the encoder has no vector for 1 sentence(s), first 'e f'"),
        ("calibrate-beta", "pairs.jsonl", '{"input": "the dog sat on the mat", "reference": "e f"}',
         "{dir}/pairs.jsonl:2: bad record: the encoder has no vector for 1 sentence(s), first 'e f'"),
        # train --config: no object, misspelled sections, a section that is
        # no object, vocab_size, an unknown key, bad JSON
        ("train", "cfg.json", "[1]", "{dir}/cfg.json: config must be a JSON object"),
        ("train", "cfg.json", '{"trian": {"epochs": 1}, "modle": {"embed_dim": 8}}',
         "{dir}/cfg.json: unknown section 'trian', not model or train"),
        ("train", "cfg.json", '{"model": [1]}',
         "{dir}/cfg.json: section 'model' must be a JSON object, got [1]"),
        ("train", "cfg.json", '{"train": "x"}',
         "{dir}/cfg.json: section 'train' must be a JSON object, got 'x'"),
        ("train", "cfg.json", '{"model": {"vocab_size": 9}}',
         "{dir}/cfg.json: model.vocab_size comes from --vocab"),
        ("train", "cfg.json", '{"model": {"nonsense": 1}}',
         "{dir}/cfg.json: model.nonsense is not a config field"),
        ("train", "cfg.json", '{"model": {"embed_dim": 8}', "{dir}/cfg.json: bad JSON"),
    ])
    def test_fails_before_any_work(self, tmp_path, capsys, monkeypatch, command, row_file, last,
                                   message):
        argv = self.argv(tmp_path, command, row_file, last)
        calls = []
        monkeypatch.setattr(self.WORK[command], lambda *a, **k: calls.append(a))
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert message.format(dir=tmp_path) in json.loads(err)["error"]
        assert calls == []


CONFIG_OF = {"model": ModelConfig, "train": TrainConfig, "beam": BeamSearchConfig,
             "pipeline": PipelineConfig, "eval": EvalConfig}


def config_actions(command: str) -> list[argparse.Action]:
    """The command's flags that set a config field: dest "<section>.<field>"."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [a for a in sub.choices[command]._actions if "." in a.dest]


def test_every_config_dest_names_a_field():
    dests = [a.dest for command in ("train", "generate", "evaluate")
             for a in config_actions(command)]
    assert len(dests) == 24
    for dest in dests:
        section, name = dest.split(".")
        assert name in {f.name for f in fields(CONFIG_OF[section])}, dest
    assert [a.dest for c in ("build-corpus", "split-dataset", "build-vocab", "calibrate-beta")
            for a in config_actions(c)] == []


# every config flag of a command at a value other than its field's default
CONFIG_SWEEP = {
    "train": ["--mode", "clm", "--lr", "0.001", "--batch-size", "3", "--weight-decay", "0.5",
              "--epochs", "2", "--warmup-steps", "7", "--seed", "5", "--embed-dim", "8",
              "--layers", "1", "--heads", "2", "--ff-dim", "12", "--max-positions", "9",
              "--init-std", "0.1", "--model-seed", "4"],
    "generate": ["--beams", "4", "--groups", "2", "--diversity", "0.3", "--no-repeat", "3",
                 "--max-length", "7", "--alpha", "0.5", "--beta", "3"],
    "evaluate": ["--beta", "3", "--ref-reduce", "max", "--no-strict"],
}


@pytest.mark.parametrize("command,work", [
    ("train", "smclm.cli.train"),
    ("generate", "smclm.cli.paraphrase_batch"),
    ("evaluate", "smclm.metrics.evaluate_corpus"),
])
def test_every_config_flag_reaches_its_config(tmp_path, capsys, monkeypatch, command, work):
    # --init-std, --weight-decay, --alpha and --ref-reduce were followed by no test
    built = {}
    for section, config in CONFIG_OF.items():
        def spy(self, _section=section, _post_init=config.__post_init__):
            built[_section] = self
            _post_init(self)

        monkeypatch.setattr(config, "__post_init__", spy)

    class Stop(Exception):
        pass

    def stop(*a, **k):
        raise Stop

    monkeypatch.setattr(work, stop)
    if command == "train":
        (tmp_path / "vocab.txt").write_text("\n".join(TINY_TOKENS) + "\n")
        (tmp_path / "corpus.txt").write_text("cat sat mat\n")
        inputs = ["--corpus", f"{tmp_path}/corpus.txt", "--vocab", f"{tmp_path}/vocab.txt",
                  "--out", f"{tmp_path}/m.smck"]
    elif command == "generate":
        ckpt, src = write_tiny_checkpoint(tmp_path)
        inputs = ["--checkpoint", ckpt, "--input", src, "--out", f"{tmp_path}/out.jsonl"]
    else:
        (tmp_path / "records.jsonl").write_text('{"source": "a b c", "references": ["a c"]}\n')
        inputs = ["--records", f"{tmp_path}/records.jsonl", "--copy-input",
                  "--encoder", "hashed-bag"]
    argv = [command, *inputs, *CONFIG_SWEEP[command]]
    rc, out, err = run(capsys, *argv)
    assert (rc, out, json.loads(err)["type"]) == (1, "", "Stop")
    swept = [word for word in CONFIG_SWEEP[command] if word.startswith("--")]
    assert sorted(o for a in config_actions(command) for o in a.option_strings
                  if o in swept) == sorted(swept)
    args = build_parser().parse_args(argv)
    for action in config_actions(command):
        section, name = action.dest.split(".")
        value = getattr(args, action.dest)
        default = {f.name: f.default for f in fields(CONFIG_OF[section])}[name]
        assert value is not None and value != default, action.option_strings
        assert getattr(built[section], name) == value, action.option_strings
