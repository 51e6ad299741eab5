"""Command-line entry points; thin wrappers over the package functions.

Every command prints a one-object JSON summary to stdout on success. Errors
print a one-line JSON object to stderr and exit 1; a non-finite training loss
exits 2. File outputs are written to a temp file and renamed into place,
except train's --log, which is written record by record as training runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections import defaultdict
from dataclasses import fields, replace

from . import checkpoint as ckpt
from . import corpus as corpus_mod
from . import metrics as metrics_mod
from .decoding import BeamSearchConfig
from .encoders import DEFAULT_DIM, check_covered, encoder_from_spec
from .jsonl import read_jsonl, string_list, write_jsonl
from .model import ModelConfig, TransformerLM
from .pipeline import PipelineConfig, paraphrase_batch, write_candidates_jsonl
from .tokenization import Vocabulary, build_vocabulary, load_vocabulary, save_vocabulary
from .training import TrainConfig, train


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


def _check_output_dirs(args) -> None:
    """Fail before any work when an output file's directory is missing."""
    for flag in ("out", "log", "manifest", "report"):
        path = getattr(args, flag, None)
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"the directory of --{flag} {path} does not exist")


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f if line.strip()]


def _write_lines(lines: list[str], path: str) -> None:
    with atomic_path(path) as tmp:
        with open(tmp, "w", encoding="utf-8") as f:
            for line in lines:
                f.write(line + "\n")


def _flag_spec(args, dim: int) -> dict:
    """The encoder spec that --embeddings FILE or --encoder KIND names; KIND
    is dim wide unless --encoder-dim (evaluate and calibrate-beta only) says
    otherwise. FILE is stored absolute, so a checkpoint's spec loads from any
    directory."""
    encoder_dim = getattr(args, "encoder_dim", None)
    if args.embeddings:
        if encoder_dim:
            raise ValueError("--encoder-dim sizes --encoder hashed-bag; with --embeddings "
                             "the table sets the dim")
        return {"kind": "file-backed", "path": os.path.abspath(args.embeddings)}
    if args.encoder:
        return {"kind": args.encoder, "dim": encoder_dim or dim, "seed": 0}
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
    ratios = tuple(float(x) for x in args.ratios.split(","))
    groups = corpus_mod.read_groups_jsonl(args.groups)
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


def _config_flags(args, base: dict | None = None) -> defaultdict[str, dict]:
    """base's sections (train's --config) with the flags laid over them: a flag
    given a value whose dest is "<section>.<field>" sets that field."""
    sections = defaultdict(dict, {name: dict(keys) for name, keys in (base or {}).items()})
    for dest, value in vars(args).items():
        section, dot, name = dest.partition(".")
        if dot and value is not None:
            sections[section][name] = value
    return sections


def _config_defaults() -> dict[str, dict]:
    """The keys train --config may set, by section, at their defaults (--vocab sets vocab_size)."""
    model = {f.name: f.default for f in fields(ModelConfig) if f.name != "vocab_size"}
    return {"model": model, "train": TrainConfig().to_dict()}


def _read_config(path: str | None) -> dict:
    """train --config: an object whose sections and keys _config_defaults lists."""
    if not path:
        return {}
    with open(path, encoding="utf-8") as f:
        try:
            cfg = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: bad JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    known = _config_defaults()
    for section, keys in cfg.items():
        if section not in known:
            raise ValueError(f"{path}: unknown section {section!r}, not model or train")
        if not isinstance(keys, dict):
            raise ValueError(f"{path}: section {section!r} must be a JSON object, got {keys!r}")
        for key in keys:
            if key not in known[section]:
                why = "comes from --vocab" if key == "vocab_size" else "is not a config field"
                raise ValueError(f"{path}: {section}.{key} {why}")
    return cfg


def cmd_train(args) -> dict:
    if args.show_defaults:
        return _config_defaults()
    for required in ("corpus", "vocab", "out"):
        if getattr(args, required) is None:
            raise ValueError(f"--{required} is required")
    kw = _config_flags(args, _read_config(args.config))
    train_cfg = TrainConfig(**kw["train"])
    if train_cfg.mode == "clm" and (args.embeddings or args.encoder):
        raise ValueError("--mode clm injects no sentence embedding; drop --encoder and --embeddings")
    vocab = load_vocabulary(args.vocab)
    model_cfg = ModelConfig(vocab_size=len(vocab), **kw["model"])
    encoder = (encoder_from_spec(_flag_spec(args, model_cfg.embed_dim))
               if train_cfg.mode == "smclm" else None)
    corpus = _read_lines(args.corpus)
    valid = _read_lines(args.valid) if args.valid else None
    model = TransformerLM(model_cfg)
    report = train(model, vocab, corpus, train_cfg, encoder=encoder,
                   valid_corpus=valid, log_path=args.log)
    with atomic_path(args.out) as tmp:
        ckpt.save_checkpoint(
            tmp,
            model,
            encoder_spec=encoder.spec() if encoder is not None else None,
            vocab=vocab,
            extra={"train": train_cfg.to_dict()},
        )
    return {"checkpoint": args.out, "mode": train_cfg.mode, **report.to_dict()}


def cmd_generate(args) -> dict:
    sources = _read_lines(args.input)
    _by_source([{"source": s} for s in sources], args.input)
    model, meta = ckpt.load_checkpoint(args.checkpoint)
    spec, tokens = meta["encoder"], meta.get("vocab")
    if spec is None:
        raise ValueError(f"{args.checkpoint} is a clm checkpoint; generate needs an smclm one")
    if tokens is None:
        raise ValueError(f"{args.checkpoint} stores no vocabulary")
    if args.embeddings:
        if spec["kind"] != "file-backed":
            raise ValueError(f"--embeddings needs a file-backed checkpoint, not {spec['kind']}")
        spec = {**spec, "path": args.embeddings}
    vocab = Vocabulary(tuple(tokens))
    encoder = encoder_from_spec(spec)
    kw = _config_flags(args)
    beam = BeamSearchConfig(**kw["beam"])
    beam = replace(beam, max_length=min(beam.max_length, model.config.max_positions))
    cfg = PipelineConfig(beam=beam, **kw["pipeline"])
    results = paraphrase_batch(model, vocab, encoder, sources, cfg)
    with atomic_path(args.out) as tmp:
        write_candidates_jsonl(results, tmp)
    return {"out": args.out, "sources": len(sources), "written": len(results)}


def _source(item) -> str | None:
    """item's 'source' when item is an object with a string source, else None."""
    source = item.get("source") if isinstance(item, dict) else None
    return source if isinstance(source, str) else None


def _by_source(items: list, path: str) -> dict[str, dict]:
    """Index items by their 'source' string, rejecting a repeated source.

    A repeated source would be scored twice. Items without a string source
    are left to evaluate_corpus, which treats them as malformed.
    """
    index: dict[str, dict] = {}
    for i, item in enumerate(items):
        source = _source(item)
        if source is None:
            continue
        if source in index:
            raise ValueError(f"duplicate source in {path}: record {i} repeats {source!r}")
        index[source] = item
    return index


def cmd_evaluate(args) -> dict:
    if args.copy_input and args.candidates:
        raise ValueError("pass --candidates FILE or --copy-input, not both")
    if not args.copy_input and not args.candidates:
        raise ValueError("pass --candidates FILE or --copy-input")
    records = read_jsonl(args.records)
    _by_source(records, args.records)
    by_source = {} if args.copy_input else _by_source(read_jsonl(args.candidates), args.candidates)
    # every record goes to evaluate_corpus, which rejects or skips (by
    # cfg.strict) a malformed one and one whose candidates stay None
    joined = []
    for r in records:
        if not isinstance(r, dict):
            joined.append(r)
        elif args.copy_input:
            # two copies, the fewest that define selfBLEU: identical copies
            # score oriBLEU and selfBLEU at exactly 100 or 0, at any count
            joined.append({**r, "candidates": [r.get("source")] * 2, "best": 0})
        else:
            cand = by_source.get(_source(r), {})
            joined.append({**r, "candidates": cand.get("candidates"), "best": cand.get("best")})
    encoder = encoder_from_spec(_flag_spec(args, DEFAULT_DIM))
    fluency = metrics_mod.load_fluency_file(args.fluency) if args.fluency else None
    cfg = metrics_mod.EvalConfig(encoder=encoder, fluency=fluency, **_config_flags(args)["eval"])
    report = metrics_mod.evaluate_corpus(joined, cfg)
    if args.report:
        with atomic_path(args.report) as tmp:
            with open(tmp, "w", encoding="utf-8") as f:
                f.write(report.to_json() + "\n")
    if args.table:
        print(report.format_table(), file=sys.stderr)
    return {"means": report.means, "counts": report.counts, "beta": report.beta,
            "report": args.report}


def _calibration_pairs(rec: dict, encoder) -> list[tuple[str, str]]:
    """One --pairs record's (input, reference) pairs; a table gap raised here names path:line."""
    if "input" in rec and "reference" in rec:
        source, refs = rec["input"], [rec["reference"]]
    elif "source" in rec and "references" in rec:
        source, refs = rec["source"], string_list(rec["references"], "references")
    else:
        raise ValueError("pair records need input/reference or source/references")
    if not isinstance(source, str) or not all(isinstance(r, str) for r in refs):
        raise ValueError(f"input and reference must be strings, got {rec!r}")
    check_covered(encoder, [source, *refs])
    return [(source, ref) for ref in refs]


def cmd_calibrate_beta(args) -> dict:
    encoder = encoder_from_spec(_flag_spec(args, DEFAULT_DIM))
    pairs = [p for rec in read_jsonl(args.pairs, lambda r: _calibration_pairs(r, encoder)) for p in rec]
    result = metrics_mod.calibrate_beta(pairs, encoder)
    return {**result.to_dict(), "pairs": len(pairs)}


def _positive_int(text: str) -> int:
    """argparse type of the size flags: a bad value exits 2 naming the flag."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_encoder_flags(p: argparse.ArgumentParser, with_dim: bool = False):
    source = p.add_mutually_exclusive_group()
    source.add_argument("--embeddings", help="binary embedding table for the file-backed encoder")
    source.add_argument("--encoder", choices=["hashed-bag"], help="built-in encoder kind")
    if with_dim:
        p.add_argument("--encoder-dim", type=_positive_int, dest="encoder_dim",
                       help=f"--encoder output dim (default {DEFAULT_DIM})")


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
    p.add_argument("--ratios", default=",".join(map(str, corpus_mod.DEFAULT_RATIOS)))
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
    p.add_argument("--mode", choices=["smclm", "clm"], dest="train.mode",
                   help="default: the config file's train.mode, else smclm")
    p.add_argument("--corpus", help="training sentences, one per line")
    p.add_argument("--valid", help="validation sentences, one per line")
    p.add_argument("--vocab", help="vocabulary file")
    p.add_argument("--out", help="checkpoint path")
    p.add_argument("--config", help="JSON file with model/train sections")
    p.add_argument("--log", help="JSONL per-step training log")
    p.add_argument("--learning-rate", "--lr", type=float, dest="train.learning_rate")
    p.add_argument("--batch-size", type=int, dest="train.batch_size")
    p.add_argument("--weight-decay", type=float, dest="train.weight_decay")
    p.add_argument("--epochs", type=int, dest="train.epochs")
    p.add_argument("--warmup-steps", type=int, dest="train.warmup_steps")
    p.add_argument("--seed", type=int, dest="train.seed")
    p.add_argument("--embed-dim", type=int, dest="model.embed_dim")
    p.add_argument("--layers", type=int, dest="model.layer_count")
    p.add_argument("--heads", type=int, dest="model.head_count")
    p.add_argument("--ff-dim", type=int, dest="model.ff_dim")
    p.add_argument("--max-positions", type=int, dest="model.max_positions")
    p.add_argument("--init-std", type=float, dest="model.init_std")
    p.add_argument("--model-seed", type=int, dest="model.seed")
    p.add_argument("--show-defaults", action="store_true", dest="show_defaults",
                   help="print the default hyperparameters and exit")
    _add_encoder_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("generate", help="paraphrase sources with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="source sentences, one per line")
    p.add_argument("--out", required=True, help="candidates JSONL")
    p.add_argument("--beams", type=int, dest="beam.beam_count")
    p.add_argument("--groups", type=int, dest="beam.group_count")
    p.add_argument("--diversity", type=float, dest="beam.diversity_strength")
    p.add_argument("--no-repeat", type=int, dest="beam.no_repeat_ngram")
    p.add_argument("--max-length", type=int, dest="beam.max_length",
                   help="token budget per candidate, <eos> included; clamped to the "
                        "model's max_positions")
    p.add_argument("--alpha", type=float, dest="beam.length_alpha")
    p.add_argument("--beta", type=float, dest="pipeline.beta")
    p.add_argument("--embeddings", help="another path for a file-backed checkpoint's table")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("evaluate", help="score candidates against references")
    p.add_argument("--records", required=True, help="JSONL of {source, references}")
    p.add_argument("--candidates", help="JSONL of {source, candidates, best}")
    p.add_argument("--copy-input", action="store_true", dest="copy_input",
                   help="score two copies of the source as the candidates")
    p.add_argument("--beta", type=float, dest="eval.beta")
    p.add_argument("--ref-reduce", choices=["mean", "max"], dest="eval.ref_reduce")
    p.add_argument("--fluency", help="JSONL of {sentence_sha256, fluency}")
    p.add_argument("--report", help="write the full per-record report JSON here")
    p.add_argument("--table", action="store_true", help="also print the text table to stderr")
    p.add_argument("--strict", action=argparse.BooleanOptionalAction, dest="eval.strict")
    _add_encoder_flags(p, with_dim=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("calibrate-beta", help="choose beta from (input, reference) pairs")
    p.add_argument("--pairs", required=True,
                   help="JSONL of {input, reference} or {source, references}")
    _add_encoder_flags(p, with_dim=True)
    p.set_defaults(fn=cmd_calibrate_beta)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_dirs(args)
        summary = args.fn(args)
    except Exception as e:  # noqa: BLE001 - single CLI error funnel
        print(json.dumps({"error": str(e), "type": type(e).__name__}), file=sys.stderr)
        # training aborts (non-finite loss) use a distinct exit code
        return 2 if isinstance(e, RuntimeError) else 1
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
