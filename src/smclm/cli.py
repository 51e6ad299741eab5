"""Command-line entry points; thin wrappers over the package functions.

Every command prints a one-object JSON summary to stdout on success. Errors
print a one-line JSON object to stderr and exit 1; a non-finite training loss
exits 2. File outputs are written to a temp file and renamed into place.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import checkpoint as ckpt
from . import corpus as corpus_mod
from . import metrics as metrics_mod
from .decoding import BeamSearchConfig
from .encoders import FileBackedEncoder, HashedBagEncoder, HashedTokenEmbedder, encoder_from_spec
from .jsonl import read_jsonl, write_jsonl
from .model import ModelConfig, TransformerLM
from .pipeline import PipelineConfig, paraphrase_batch, write_candidates_jsonl
from .tokenization import build_vocabulary, load_vocabulary, save_vocabulary
from .training import TrainConfig, evaluate_nll, train


@contextlib.contextmanager
def atomic_path(path: str):
    """Yield a temp path in the target directory; rename over path on success."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f if line.strip()]


def _write_lines(lines: list[str], path: str) -> None:
    with atomic_path(path) as tmp:
        with open(tmp, "w", encoding="utf-8") as f:
            for line in lines:
                f.write(line + "\n")


def _resolve_encoder(args, dim: int, meta_spec: dict | None = None):
    """Encoder precedence: --embeddings file, then --encoder kind, then the
    spec stored in a checkpoint."""
    if getattr(args, "embeddings", None):
        return FileBackedEncoder.load(args.embeddings)
    kind = getattr(args, "encoder", None)
    if kind == "hashed-bag":
        return HashedBagEncoder(getattr(args, "encoder_dim", None) or dim, args.encoder_seed)
    if meta_spec:
        return encoder_from_spec(meta_spec)
    raise ValueError("no embedding source: pass --embeddings FILE or --encoder hashed-bag")


def cmd_build_corpus(args) -> dict:
    sources = []
    for item in args.source:
        domain, sep, path = item.partition("=")
        if not sep or not domain or not path:
            raise ValueError(f"--source must look like DOMAIN=PATH, got {item!r}")
        sources.append((domain, _read_lines(path)))
    sentences, manifest = corpus_mod.build_corpus(
        sources, args.target, seed=args.seed, min_chars=args.min_chars
    )
    _write_lines(sentences, args.out)
    if args.manifest:
        with atomic_path(args.manifest) as tmp:
            with open(tmp, "w", encoding="utf-8") as f:
                json.dump(manifest, f, indent=2)
    return {
        "out": args.out,
        "admitted": manifest["admitted"],
        "target": manifest["target"],
        "shortfall": manifest["shortfall"],
        "manifest": args.manifest,
    }


def cmd_split_dataset(args) -> dict:
    groups = corpus_mod.read_groups_jsonl(args.groups)
    ratios = tuple(float(x) for x in args.ratios.split(","))
    splits = corpus_mod.split_groups(groups, ratios, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    summary = {"groups": len(groups), "splits": {}}
    for name, split in splits.items():
        path = os.path.join(args.out_dir, f"{name}.jsonl")
        with atomic_path(path) as tmp:
            corpus_mod.write_groups_jsonl(split, tmp)
        summary["splits"][name] = {"groups": len(split), "path": path}
    if args.emit_corpora:
        flat = corpus_mod.flatten_unsupervised(splits)
        for name, sentences in flat.items():
            path = os.path.join(args.out_dir, f"{name}.txt")
            _write_lines(sentences, path)
            summary["splits"][name]["sentences"] = len(sentences)
            summary["splits"][name]["corpus"] = path
    if args.emit_pairs:
        records = [
            corpus_mod.group_to_test_record(g, seed=args.seed)
            for g in splits["test"]
            if len(g.sentences) >= 2
        ]
        path = os.path.join(args.out_dir, "test_records.jsonl")
        with atomic_path(path) as tmp:
            write_jsonl(records, tmp)
        summary["test_records"] = {"path": path, "records": len(records)}
    return summary


def cmd_build_vocab(args) -> dict:
    vocab = build_vocabulary(_read_lines(args.corpus), min_freq=args.min_freq)
    with atomic_path(args.out) as tmp:
        save_vocabulary(vocab, tmp)
    return {"out": args.out, "size": len(vocab)}


MODEL_FLAGS = ("embed_dim", "layer_count", "head_count", "ff_dim", "max_positions", "init_std")
TRAIN_FLAGS = (
    "learning_rate", "batch_size", "weight_decay", "epochs", "warmup_steps", "seed",
)


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return cfg


def cmd_train(args) -> dict:
    if args.show_defaults:
        return {"model": ModelConfig(vocab_size=5).to_dict(), "train": TrainConfig().to_dict()}
    file_cfg = _load_config_file(args.config)
    model_kw = dict(file_cfg.get("model", {}))
    train_kw = dict(file_cfg.get("train", {}))
    for flag in MODEL_FLAGS:
        value = getattr(args, flag)
        if value is not None:
            model_kw[flag] = value
    for flag in TRAIN_FLAGS:
        value = getattr(args, flag)
        if value is not None:
            train_kw[flag] = value
    train_kw["mode"] = args.mode
    if args.model_seed is not None:
        model_kw["seed"] = args.model_seed
    train_cfg = TrainConfig(**train_kw)
    vocab = load_vocabulary(args.vocab)
    corpus = _read_lines(args.corpus)
    valid = _read_lines(args.valid) if args.valid else None
    if valid is not None and not valid:
        # fail before training, not at the end of epoch 1
        raise ValueError(f"validation file {args.valid} has no sentences")
    model_cfg = ModelConfig(vocab_size=len(vocab), **model_kw)
    encoder = None
    if args.mode == "smclm":
        encoder = _resolve_encoder(args, model_cfg.embed_dim)
        if encoder.dim != model_cfg.embed_dim:
            raise ValueError(
                f"encoder dim {encoder.dim} must match embed_dim {model_cfg.embed_dim}"
            )
    model = TransformerLM(model_cfg)
    report = train(model, vocab, corpus, train_cfg, encoder=encoder,
                   valid_corpus=valid, log_path=args.log)
    with atomic_path(args.out) as tmp:
        ckpt.save_checkpoint(
            tmp,
            model,
            encoder_spec=encoder.spec() if encoder is not None else None,
            vocab_path=args.vocab,
            extra={"train": train_cfg.to_dict()},
        )
    return {"checkpoint": args.out, "mode": args.mode, **report.to_dict()}


def cmd_generate(args) -> dict:
    model, meta = ckpt.load_checkpoint(args.checkpoint)
    vocab_path = args.vocab or meta.get("vocab_path")
    if not vocab_path:
        raise ValueError("checkpoint stores no vocabulary path; pass --vocab")
    vocab = load_vocabulary(vocab_path)
    if len(vocab) != model.config.vocab_size:
        raise ValueError(
            f"vocabulary size {len(vocab)} does not match checkpoint {model.config.vocab_size}"
        )
    encoder = _resolve_encoder(args, model.config.embed_dim, meta.get("encoder"))
    sources = _read_lines(args.input)
    beam = BeamSearchConfig(
        beam_count=args.beams,
        group_count=args.groups,
        diversity_strength=args.diversity,
        no_repeat_ngram=args.no_repeat,
        # a length-L hypothesis plus the injected slot occupies L+1 positions
        max_length=min(args.max_length, model.config.max_positions - 1),
        length_alpha=args.alpha,
    )
    cfg = PipelineConfig(beam=beam, beta=args.beta, skip_errors=args.skip_errors)
    results = paraphrase_batch(model, vocab, encoder, sources, cfg)
    with atomic_path(args.out) as tmp:
        write_candidates_jsonl(results, tmp)
    return {"out": args.out, "sources": len(sources), "written": len(results)}


def cmd_evaluate(args) -> dict:
    records = read_jsonl(args.records)
    if args.copy_input:
        joined = [
            {**r, "candidates": [r.get("source")] * args.copies, "best": 0} for r in records
        ]
    else:
        by_source: dict[str, dict] = {}
        for c in read_jsonl(args.candidates):
            source = c.get("source")
            if source in by_source:
                raise ValueError(f"duplicate source in {args.candidates}: {source!r}")
            by_source[source] = c
        joined = []
        for r in records:
            cand = by_source.get(r.get("source"))
            if cand is None:
                if args.strict:
                    raise ValueError(f"no candidates for source: {r.get('source')!r}")
                continue
            joined.append({**r, "candidates": cand.get("candidates"), "best": cand.get("best")})
    encoder = _resolve_encoder(args, args.encoder_dim or 64)
    cfg = metrics_mod.EvalConfig(
        encoder=encoder,
        token_embedder=HashedTokenEmbedder(args.token_dim),
        beta=args.beta,
        ref_reduce=args.ref_reduce,
        strict=args.strict,
        fluency=metrics_mod.load_fluency_file(args.fluency) if args.fluency else None,
    )
    report = metrics_mod.evaluate_corpus(joined, cfg)
    if args.report:
        with atomic_path(args.report) as tmp:
            with open(tmp, "w", encoding="utf-8") as f:
                f.write(report.to_json() + "\n")
    if args.table:
        print(report.format_table(), file=sys.stderr)
    return {"means": report.means, "counts": report.counts, "beta": report.beta,
            "report": args.report}


def cmd_calibrate_beta(args) -> dict:
    pairs = []
    for rec in read_jsonl(args.pairs):
        if "input" in rec and "reference" in rec:
            pairs.append((rec["input"], rec["reference"]))
        elif "source" in rec and "references" in rec:
            pairs.extend((rec["source"], ref) for ref in rec["references"])
        else:
            raise ValueError("pair records need input/reference or source/references")
    encoder = _resolve_encoder(args, args.encoder_dim or 64)
    result = metrics_mod.calibrate_beta(pairs, encoder, HashedTokenEmbedder(args.token_dim))
    return {**result.to_dict(), "pairs": len(pairs)}


def _add_encoder_flags(p: argparse.ArgumentParser, with_token_dim: bool = False):
    p.add_argument("--embeddings", help="binary embedding table for the file-backed encoder")
    p.add_argument("--encoder", choices=["hashed-bag"], help="built-in encoder kind")
    p.add_argument("--encoder-dim", type=int, dest="encoder_dim", help="encoder output dim")
    p.add_argument("--encoder-seed", type=int, dest="encoder_seed", default=0)
    if with_token_dim:
        p.add_argument("--token-dim", type=int, dest="token_dim", default=64,
                       help="dim of the hashed per-token embedder")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smclm")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-corpus", help="sample a deduplicated sentence corpus")
    p.add_argument("--source", action="append", required=True, metavar="DOMAIN=PATH",
                   help="document file (one document per line); repeatable")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-chars", type=int, dest="min_chars", default=10)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")
    p.set_defaults(fn=cmd_build_corpus)

    p = sub.add_parser("split-dataset", help="split paraphrase groups into train/valid/test")
    p.add_argument("--groups", required=True, help="JSONL of {id, sentences}")
    p.add_argument("--ratios", default="0.8,0.05,0.15")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--emit-corpora", action="store_true", dest="emit_corpora",
                   help="also write flattened per-split sentence files")
    p.add_argument("--emit-pairs", action="store_true", dest="emit_pairs",
                   help="also write test-split source/references records")
    p.set_defaults(fn=cmd_split_dataset)

    p = sub.add_parser("build-vocab", help="frequency-ordered vocabulary from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--min-freq", type=int, dest="min_freq", default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_vocab)

    p = sub.add_parser("train", help="train a conditioned or plain causal LM")
    p.add_argument("--mode", choices=["smclm", "clm"], default="smclm")
    p.add_argument("--corpus", help="training sentences, one per line")
    p.add_argument("--valid", help="validation sentences, one per line")
    p.add_argument("--vocab", help="vocabulary file")
    p.add_argument("--out", help="checkpoint path")
    p.add_argument("--config", help="JSON file with model/train sections")
    p.add_argument("--log", help="JSONL per-step training log")
    p.add_argument("--learning-rate", "--lr", type=float, dest="learning_rate")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--epochs", type=int)
    p.add_argument("--warmup-steps", type=int, dest="warmup_steps")
    p.add_argument("--seed", type=int)
    p.add_argument("--embed-dim", type=int, dest="embed_dim")
    p.add_argument("--layers", type=int, dest="layer_count")
    p.add_argument("--heads", type=int, dest="head_count")
    p.add_argument("--ff-dim", type=int, dest="ff_dim")
    p.add_argument("--max-positions", type=int, dest="max_positions")
    p.add_argument("--init-std", type=float, dest="init_std")
    p.add_argument("--model-seed", type=int, dest="model_seed")
    p.add_argument("--show-defaults", action="store_true", dest="show_defaults",
                   help="print the default hyperparameters and exit")
    _add_encoder_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("generate", help="paraphrase sources with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", help="override the vocabulary path stored in the checkpoint")
    p.add_argument("--input", required=True, help="source sentences, one per line")
    p.add_argument("--out", required=True, help="candidates JSONL")
    p.add_argument("--beams", type=int, default=5)
    p.add_argument("--groups", type=int, default=5)
    p.add_argument("--diversity", type=float, default=0.6)
    p.add_argument("--no-repeat", type=int, dest="no_repeat", default=2)
    p.add_argument("--max-length", type=int, dest="max_length", default=32,
                   help="token budget per candidate; clamped to the model's position window")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--skip-errors", action="store_true", dest="skip_errors")
    _add_encoder_flags(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("evaluate", help="score candidates against references")
    p.add_argument("--records", required=True, help="JSONL of {source, references}")
    p.add_argument("--candidates", help="JSONL of {source, candidates, best}")
    p.add_argument("--copy-input", action="store_true", dest="copy_input",
                   help="score the source copied as every candidate")
    p.add_argument("--copies", type=int, default=5, help="candidate count in copy-input mode")
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--ref-reduce", choices=["mean", "max"], dest="ref_reduce", default="mean")
    p.add_argument("--fluency", help="JSONL of {sentence_sha256, fluency}")
    p.add_argument("--report", help="write the full per-record report JSON here")
    p.add_argument("--table", action="store_true", help="also print the text table to stderr")
    p.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True)
    _add_encoder_flags(p, with_token_dim=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("calibrate-beta", help="choose beta from (input, reference) pairs")
    p.add_argument("--pairs", required=True,
                   help="JSONL of {input, reference} or {source, references}")
    _add_encoder_flags(p, with_token_dim=True)
    p.set_defaults(fn=cmd_calibrate_beta)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "train" and not args.show_defaults:
            for required in ("corpus", "vocab", "out"):
                if getattr(args, required) is None:
                    raise ValueError(f"--{required} is required")
        if args.command == "evaluate" and not args.copy_input and not args.candidates:
            raise ValueError("pass --candidates FILE or --copy-input")
        summary = args.fn(args)
    except SystemExit:
        raise
    except RuntimeError as e:
        # training aborts (non-finite loss) use a distinct exit code
        print(json.dumps({"error": str(e), "type": type(e).__name__}), file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - single CLI error funnel
        print(json.dumps({"error": str(e), "type": type(e).__name__}), file=sys.stderr)
        return 1
    _emit(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
