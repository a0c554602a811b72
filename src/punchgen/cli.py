"""Command-line entry point.

Subcommands cover the whole pipeline: corpus build, knowledge annotate,
kgraph dump, train pretrain, train finetune, generate, evaluate, and
selftest. Structured JSON-lines events go to stderr; human-readable
summaries go to stdout. Exit codes: 0 success, 1 usage error, 2 runtime
error. All randomness in a subcommand flows from its --seed.

Every artifact-producing command writes a `<artifact>.meta.json` sidecar
carrying the resolved configuration and seed, so outputs are traceable
without breaking the line-oriented file formats.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import resource
import sys
import time
from pathlib import Path

CONFIG_ENV = "PUNCHGEN_CONFIG"
M_ARENA_MAX = -8  # glibc mallopt parameter


def _one_malloc_arena() -> None:
    """Have every thread allocate from glibc's main arena.

    By default each thread gets an arena of its own, and memory freed in one
    arena is not reused by another. Training's worker thread allocates the
    gradients while the calling thread frees activations, so with two arenas
    a paper-preset `train pretrain` (4 steps) peaked at 1,644 MB RSS against
    1,459 MB with one, as much as one thread used.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):  # not glibc
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_ARENA_MAX, 1)


def _one_blas_thread() -> None:
    """Have numpy's bundled OpenBLAS run every product on the calling thread.

    Its default is one thread per core, so the program's own two threads
    (the caller and autograd's worker) would put four BLAS threads on a
    2-core machine; and at the paper preset two BLAS threads gave other
    training losses than one. A numpy built on another BLAS is left as it is.
    """
    try:
        from numpy._core import _multiarray_umath

        set_threads = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):  # another numpy or BLAS
        return
    set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
    set_threads(1)


def log_event(**fields) -> None:
    print(json.dumps(fields), file=sys.stderr)


def _train_logger():
    """A training log_fn that prints each event; a train event gains tokens_per_s, its
    tokens over the time since the previous event."""
    last = time.perf_counter()

    def log(event: dict) -> None:
        nonlocal last
        now = time.perf_counter()
        if event["split"] == "train":
            event = {**event, "tokens_per_s": event["tokens"] / (now - last)}
        last = now
        log_event(**event)

    return log


def say(message: str) -> None:
    print(message)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_meta(artifact: Path, command: str, config, seed: int | None = None) -> None:
    meta = {"command": command, "config": config.to_dict() if config else None}
    if seed is not None:
        meta["seed"] = seed
    Path(str(artifact) + ".meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=1), encoding="utf-8")


def _load_run_config(args) -> "config.RunConfig":
    from . import config

    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    if path:
        try:
            cfg = config.RunConfig.load(path)
        except (TypeError, ValueError) as exc:  # an unknown field or a value its dataclass rejects
            raise UsageError(f"config {path}: {exc}") from None
    else:
        cfg = config.preset(getattr(args, "preset", None) or "desk")
    names = ("max_steps", "batch_size", "learning_rate", "eval_every", "seed")
    overrides = {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}
    try:
        cfg.train = dataclasses.replace(cfg.train, **overrides)  # reruns TrainConfig's checks
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    # a flag wins over the config, so the config (and the sidecar) records what runs
    for name in ("dedup_threshold", "max_per_entity", "beam", "max_decode_len"):
        if getattr(args, name, None) is not None:
            setattr(cfg, name, getattr(args, name))
    return cfg


# ------------------------------------------------------------------ subcommands


def cmd_corpus_build(args) -> int:
    from .corpus import build_corpus, write_jsonl

    cfg = _load_run_config(args)
    if not 0.0 < cfg.dedup_threshold <= 1.0:
        raise UsageError(f"dedup threshold must be in (0, 1], got {cfg.dedup_threshold}")
    split = build_corpus(args.input, dedup_threshold=cfg.dedup_threshold, seed=args.seed)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, records in (("train", split.train), ("valid", split.valid), ("test", split.test)):
        path = out / f"{name}.jsonl"
        write_jsonl(records, path)
        _write_meta(path, "corpus build", cfg, seed=args.seed)
        log_event(event="corpus.split", split=name, records=len(records))
    say(f"corpus: {len(split.train)}/{len(split.valid)}/{len(split.test)} "
        f"train/valid/test records -> {out}")
    return 0


def cmd_knowledge_annotate(args) -> int:
    from . import knowledge
    from .corpus import read_jsonl, write_jsonl

    cfg = _load_run_config(args)
    if cfg.max_per_entity < 1:
        raise UsageError(f"--max-per-entity must be at least 1, got {cfg.max_per_entity}")
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    records = read_jsonl(args.input)
    if args.fixtures:
        provider = knowledge.FixtureProvider(args.fixtures)
        linker, store = provider, provider
    elif args.live:
        if not (args.linker_url and args.sparql_url):
            raise UsageError("--live needs --linker-url and --sparql-url")
        linker = knowledge.HttpLinker(args.linker_url, cache_path=args.cache)
        store = knowledge.SparqlTripleStore(args.sparql_url, cache_path=args.cache)
    else:
        raise UsageError("choose --fixtures PATH or --live")
    annotated, usage = _measured(lambda: knowledge.annotate_dataset(
        records, linker, store, max_per_entity=cfg.max_per_entity, in_flight=args.workers))
    out = Path(args.output or args.input + ".annotated")
    write_jsonl(annotated, out)
    _write_meta(out, "knowledge annotate", cfg)
    covered = sum(1 for r in annotated if r.triples)
    log_event(event="knowledge.annotated", records=len(annotated), with_triples=covered, **usage)
    say(f"annotated {len(annotated)} records ({covered} with triples) -> {out}")
    return 0


def cmd_kgraph_dump(args) -> int:
    from .corpus import read_jsonl
    from .kgraph import build_graph, to_dot

    records = read_jsonl(args.input)
    if not 0 <= args.record < len(records):
        raise UsageError(f"--record must be in [0, {len(records) - 1}]")
    rec = records[args.record]
    if not rec.triples:
        raise RuntimeError(f"record {args.record} has no triples; nothing to dump")
    dot = to_dot(build_graph(rec.triples))
    if args.output:
        Path(args.output).write_text(dot, encoding="utf-8")
        say(f"wrote {args.output}")
    else:
        sys.stdout.write(dot)
    return 0


def _load_splits(data_dir: str):
    from .corpus import DatasetSplit, read_jsonl

    data = Path(data_dir)
    return DatasetSplit(
        train=read_jsonl(data / "train.jsonl"),
        valid=read_jsonl(data / "valid.jsonl"),
        test=read_jsonl(data / "test.jsonl") if (data / "test.jsonl").exists() else [],
    )


def _measured(phase):
    """Run phase(); return its result and the usage fields of its event: the wall, user and
    system seconds and the minor page faults it took, over every thread of the process."""
    before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    result = phase()
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    return result, {"wall_s": wall, "user_s": after.ru_utime - before.ru_utime,
                    "sys_s": after.ru_stime - before.ru_stime,
                    "minflt": after.ru_minflt - before.ru_minflt}


def _save_trained(stage: str, result, usage: dict, out: Path, cfg) -> None:
    """Write `<stage>.best` and its sidecar, emit train.done with `usage` (its minflt also as
    minor_faults) and print the summary."""
    from .model import save_checkpoint

    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / f"{stage}.best"
    save_checkpoint(ckpt, result.model, step=result.steps_run)
    _write_meta(ckpt, f"train {stage}", cfg, seed=cfg.train.seed)
    # ru_maxrss is in KiB on Linux
    log_event(event="train.done", stage=stage, steps_run=result.steps_run,
              best_val_loss=result.best_val_loss,
              peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              minor_faults=usage["minflt"], **usage)
    say(f"{stage}: best valid loss {result.best_val_loss:.4f} "
        f"after {result.steps_run} steps -> {ckpt}")


def cmd_train_pretrain(args) -> int:
    from . import training
    from .tokenizer import Tokenizer, train_tokenizer

    cfg = _load_run_config(args)
    split = _load_splits(args.data)
    if not split.train:
        raise RuntimeError(f"{Path(args.data) / 'train.jsonl'} has no records to train on")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tok_path = Path(args.tokenizer) if args.tokenizer else out / "tokenizer.bpe"
    if tok_path.exists():
        tokenizer = Tokenizer.load(tok_path)
    else:
        texts = [r.full_text() for r in split.train]
        texts += [" ".join(t) for r in split.train for t in r.triples]
        tokenizer = train_tokenizer(texts, vocab_size=cfg.model.vocab_size)
        tokenizer.save(tok_path)
        log_event(event="tokenizer.trained", vocab_size=tokenizer.vocab_size, path=str(tok_path))
    result, usage = _measured(lambda: training.pretrain(split, cfg.model, cfg.train, tokenizer,
                                                        log_fn=_train_logger()))
    _save_trained("pretrain", result, usage, out, cfg)
    return 0


def cmd_train_finetune(args) -> int:
    from . import training
    from .model import load_checkpoint

    cfg = _load_run_config(args)
    split = _load_splits(args.data)
    model = load_checkpoint(args.init)[0]
    if model.fused:
        raise RuntimeError(f"{args.init} is already a fused checkpoint")
    cfg.model = model.cfg  # the checkpoint fixes the architecture; the sidecar records it
    fused = training.transplant(model, seed=cfg.train.seed)
    del model  # the plain weights are copied; fine-tune holds only the fused model
    result, usage = _measured(lambda: training.finetune(fused, split, cfg.train, log_fn=_train_logger()))
    _save_trained("finetune", result, usage, Path(args.out), cfg)
    return 0


def cmd_generate(args) -> int:
    from .decoding import decode_threads, generate_file
    from .model import load_checkpoint

    cfg = _load_run_config(args)
    if cfg.beam < 1:
        raise UsageError(f"--beam must be at least 1, got {cfg.beam}")
    model = load_checkpoint(args.ckpt)[0]
    cfg.model = model.cfg
    # the last beam step decodes a prefix of --max-len tokens, BOS included
    if not 1 <= cfg.max_decode_len <= model.cfg.max_len:
        raise UsageError(f"--max-len must be in [1, {model.cfg.max_len}] for {args.ckpt}, "
                         f"got {cfg.max_decode_len}")
    out = Path(args.output)
    n, usage = _measured(lambda: generate_file(
        args.input, model, out, beam=cfg.beam, max_len=cfg.max_decode_len,
        length_normalize=not args.raw_score, refs_path=args.refs_output))
    _write_meta(out, "generate", cfg)
    log_event(event="generate.done", records=n, beam=cfg.beam, seconds=usage["wall_s"],
              records_per_s=n / usage["wall_s"], decode_threads=decode_threads(model, n), **usage)
    say(f"generated {n} punchlines -> {out}")
    return 0


def cmd_evaluate(args) -> int:
    from .evaluation import evaluate_corpus

    report, usage = _measured(lambda: evaluate_corpus(args.hyps, args.refs))
    payload = json.dumps(report.to_dict(), sort_keys=True, indent=1)
    if args.output:
        Path(args.output).write_text(payload + "\n", encoding="utf-8")
    if args.json:
        say(payload)
    else:
        say(report.table())
    log_event(event="evaluate.done", **{k: v for k, v in report.to_dict().items()
                                        if k != "n_lines"}, n_lines=report.n_lines,
              seconds=usage["wall_s"], lines_per_s=report.n_lines / usage["wall_s"], **usage)
    return 0


def cmd_selftest(args) -> int:
    from . import selftest

    results = selftest.run_all(entries_per_tensor=args.entries)
    failures = 0
    for r in results:
        say(f"{'PASS' if r.passed else 'FAIL':4} {r.name:32} {r.seconds:6.2f}s  {r.detail}")
        log_event(event="selftest.check", name=r.name, passed=r.passed,
                  seconds=round(r.seconds, 3), detail=r.detail)
        failures += not r.passed
    if failures:
        raise RuntimeError(f"{failures} selftest check(s) failed")
    say(f"all {len(results)} checks passed")
    return 0


# ---------------------------------------------------------------------- parser


def build_parser() -> _Parser:
    parser = _Parser(prog="punchgen",
                     description="knowledge-enhanced punchline generation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    corpus = sub.add_parser("corpus", help="corpus pipeline").add_subparsers(
        dest="subcommand", required=True)
    build = corpus.add_parser("build", help="filter, segment, de-duplicate, split")
    build.add_argument("--input", action="append", required=True,
                       help="raw jokes: text (one per line) or CSV with a Joke column; repeatable")
    build.add_argument("--output-dir", required=True)
    build.add_argument("--dedup-threshold", type=float, default=None)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--config")
    build.set_defaults(fn=cmd_corpus_build)

    know = sub.add_parser("knowledge", help="knowledge acquisition").add_subparsers(
        dest="subcommand", required=True)
    annotate = know.add_parser("annotate", help="attach triples to records")
    annotate.add_argument("--input", required=True)
    annotate.add_argument("--output")
    annotate.add_argument("--fixtures", help="offline fixture JSON")
    annotate.add_argument("--live", action="store_true")
    annotate.add_argument("--linker-url")
    annotate.add_argument("--sparql-url")
    annotate.add_argument("--cache", help="on-disk response cache path")
    annotate.add_argument("--max-per-entity", type=int)
    annotate.add_argument("--workers", type=int, default=4)
    annotate.add_argument("--config")
    annotate.set_defaults(fn=cmd_knowledge_annotate)

    kg = sub.add_parser("kgraph", help="knowledge graph tools").add_subparsers(
        dest="subcommand", required=True)
    dump = kg.add_parser("dump", help="emit one record's graph as DOT")
    dump.add_argument("--input", required=True)
    dump.add_argument("--record", type=int, required=True)
    dump.add_argument("--output")
    dump.set_defaults(fn=cmd_kgraph_dump)

    train = sub.add_parser("train", help="two-step training").add_subparsers(
        dest="subcommand", required=True)
    for stage in ("pretrain", "finetune"):
        p = train.add_parser(stage)
        p.add_argument("--data", required=True, help="directory with train/valid[/test].jsonl")
        p.add_argument("--out", required=True, help="checkpoint output directory")
        p.add_argument("--config", help=f"YAML run config (or ${CONFIG_ENV})")
        p.add_argument("--preset", choices=["desk", "paper"])
        p.add_argument("--seed", type=int)
        p.add_argument("--max-steps", type=int, dest="max_steps")
        p.add_argument("--batch-size", type=int, dest="batch_size")
        p.add_argument("--learning-rate", type=float, dest="learning_rate")
        p.add_argument("--eval-every", type=int, dest="eval_every")
        if stage == "pretrain":
            p.add_argument("--tokenizer", help="existing tokenizer file (default: train one)")
            p.set_defaults(fn=cmd_train_pretrain)
        else:
            p.add_argument("--init", required=True, help="pretrained checkpoint to transplant")
            p.set_defaults(fn=cmd_train_finetune)

    gen = sub.add_parser("generate", help="beam-search punchlines for a dataset")
    gen.add_argument("--ckpt", required=True)
    gen.add_argument("--input", required=True)
    gen.add_argument("--output", default="hyps.txt")
    gen.add_argument("--refs-output", help="also write reference punchlines here")
    gen.add_argument("--beam", type=int)
    gen.add_argument("--max-len", type=int, dest="max_decode_len")
    gen.add_argument("--raw-score", action="store_true",
                     help="rank final hypotheses by raw log-probability")
    gen.add_argument("--config")
    gen.add_argument("--preset", choices=["desk", "paper"])
    gen.set_defaults(fn=cmd_generate)

    ev = sub.add_parser("evaluate", help="ROUGE-1/2/L scoring")
    ev.add_argument("--hyps", required=True)
    ev.add_argument("--refs", required=True)
    group = ev.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true")
    group.add_argument("--table", action="store_true")
    ev.add_argument("--output", help="also write the JSON report here")
    ev.set_defaults(fn=cmd_evaluate)

    st = sub.add_parser("selftest", help="gradient and oracle property suites")
    st.add_argument("--entries", type=int, default=2,
                    help="finite-difference entries per tensor for the full-model check")
    st.set_defaults(fn=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    _one_malloc_arena()
    _one_blas_thread()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("run 'punchgen --help' for usage", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - single CLI boundary
        log_event(event="error", type=type(exc).__name__, message=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
