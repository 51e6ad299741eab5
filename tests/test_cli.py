import json
import os

import pytest

from smclm.checkpoint import load_checkpoint
from smclm.cli import atomic_path, main
from smclm.metrics import fluency_key

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
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


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


class TestTrainShowDefaults:
    def test_prints_hyperparameters(self, capsys):
        summary = run_json(capsys, "train", "--show-defaults")
        assert summary["train"]["learning_rate"] == 5e-6
        assert summary["train"]["batch_size"] == 32
        assert summary["train"]["epochs"] == 8
        assert summary["train"]["warmup_steps"] == 2000
        assert summary["model"]["embed_dim"] == 64


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

    def test_generate_vocab_size_mismatch(self, tmp_path, capsys):
        from smclm.encoders import HashedBagEncoder
        from smclm.checkpoint import save_checkpoint
        from smclm.model import ModelConfig, TransformerLM

        model = TransformerLM(
            ModelConfig(vocab_size=8, embed_dim=8, layer_count=1, head_count=2,
                        ff_dim=12, max_positions=8, seed=0)
        )
        save_checkpoint(
            f"{tmp_path}/m.smck", model,
            encoder_spec=HashedBagEncoder(dim=8).spec(), vocab_path=None,
        )
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(["<bos>", "<eos>", "<unk>", "<pad>", "word"]) + "\n")
        src = tmp_path / "in.txt"
        src.write_text("word word\n")
        rc, _, err = run(
            capsys,
            "generate",
            "--checkpoint", f"{tmp_path}/m.smck",
            "--vocab", str(vocab),
            "--input", str(src),
            "--out", f"{tmp_path}/out.jsonl",
        )
        assert rc == 1
        assert "does not match" in json.loads(err)["error"]

    def test_generate_clamps_max_length_to_position_window(self, tmp_path, capsys):
        from smclm.encoders import HashedBagEncoder
        from smclm.checkpoint import save_checkpoint
        from smclm.model import ModelConfig, TransformerLM

        model = TransformerLM(
            ModelConfig(vocab_size=7, embed_dim=8, layer_count=1, head_count=2,
                        ff_dim=12, max_positions=8, seed=0)
        )
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(["<bos>", "<eos>", "<unk>", "<pad>", "cat", "sat", "mat"]) + "\n")
        save_checkpoint(
            f"{tmp_path}/m.smck", model,
            encoder_spec=HashedBagEncoder(dim=8).spec(), vocab_path=str(vocab),
        )
        src = tmp_path / "in.txt"
        src.write_text("cat sat mat\n")
        # default --max-length 32 would need 33 positions; the window has 8
        rc, out, _ = run(
            capsys,
            "generate",
            "--checkpoint", f"{tmp_path}/m.smck",
            "--input", str(src),
            "--out", f"{tmp_path}/out.jsonl",
            "--beams", "2",
            "--groups", "2",
        )
        assert rc == 0
        assert json.loads(out)["written"] == 1
        record = json.loads((tmp_path / "out.jsonl").read_text().splitlines()[0])
        assert all(len(c.split()) <= 7 for c in record["candidates"])

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
            "--encoder", "hashed-bag",
            "--encoder-dim", "32",
            "--embed-dim", "8",
            "--layers", "1",
            "--heads", "2",
            "--ff-dim", "12",
            "--max-positions", "8",
        )
        assert rc == 1
        assert "must match embed_dim" in json.loads(err)["error"]

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
