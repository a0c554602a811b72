"""Workloads, timed phases, output checks and end-to-end metrics.

A run sets up once (imports, stub endpoint, tokenizers, generation model),
then runs whole rounds of the eight pipeline phases, each through the
public function the matching `punchgen` subcommand calls:

    corpus        corpus.build_corpus                       (corpus build)
    annotate_cold knowledge.annotate_dataset, empty cache   (knowledge annotate --live --cache)
    annotate_warm the same records, fresh clients, same cache
    tokenizer     tokenizer.train_tokenizer on the corpus's train texts
    rouge         evaluation.evaluate_lines                 (evaluate)
    pretrain      training.pretrain                         (train pretrain)
    finetune      training.finetune on the transplanted model (train finetune)
    generate      decoding.generate_file, beam 5            (generate)

Every output is checked after its phase, outside the timed region.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import inputs
import reference
import speed

HERE = Path(__file__).resolve().parent
DEDUP_THRESHOLD = 0.93
MAX_PER_ENTITY = 10
BEAM = 5
MODEL_SEED = 0            # the model phases' inputs do not depend on --seed; see README
SETUP_REPEATS = 3
# Text inputs, the same in both workloads.
JOKE_LINES = 600          # raw lines into build_corpus
JOKE_VOCAB = 3000         # Zipf vocabulary of the raw jokes
ANNOTATED = 70            # leading train records annotated per pass
TOKENIZER_VOCAB = 420     # vocab_size of the timed tokenizer phase
ROUGE_PAIRS = 5000
GEN_RECORDS = 2           # leading test records generated
# Phases whose rate is reported as timed, not at nominal speed. The corpus
# phase is dominated by memory traffic (the dense de-duplication fallback
# copies every kept row for every joke), which the speed probe does not
# follow: over five seeds its rate spread 0.05-0.08 as timed and 0.11-0.13
# at nominal speed. See README, "Timing".
TIMED_PLAINLY = ("corpus",)
TEXT_PHASES = ("corpus", "annotate_cold", "annotate_warm", "tokenizer", "rouge")
PHASES = TEXT_PHASES + ("pretrain", "finetune", "generate")


@dataclass(frozen=True)
class Workload:
    preset: str
    records: int             # synthetic annotated records, split 7:2:1
    pretrain_steps: int
    finetune_steps: int
    learning_rate: float
    text_reps: int           # repetitions of each text phase per round
    gen_max_len: int
    reference_sample: int    # generated records re-decoded by the reference search


WORKLOADS = {
    "desk": Workload("desk", records=200, pretrain_steps=6, finetune_steps=3, learning_rate=1e-3,
                     text_reps=1, gen_max_len=32, reference_sample=2),
    "paper": Workload("paper", records=24, pretrain_steps=2, finetune_steps=1, learning_rate=3e-5,
                      text_reps=5, gen_max_len=16, reference_sample=1),
}


class CheckFailed(Exception):
    """A program output differs from what the benchmark expects."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ------------------------------------------------------------------ stub


class Stub:
    """The loopback endpoint process (perfbench/stub.py)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "stub.py")],
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError("stub endpoint did not start")
        self.base = f"http://127.0.0.1:{int(line)}"

    def stats(self) -> dict:
        import requests

        return requests.get(self.base + "/stats", timeout=10).json()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------- inputs


@dataclass
class Inputs:
    jokes: inputs.JokeFile
    jokes_path: Path
    hyps: list[str]
    refs: list[str]
    records: list[dict]
    gen_path: Path


def make_inputs(w: Workload, seed: int, run_dir: Path) -> Inputs:
    jokes = inputs.make_jokes(seed, JOKE_LINES, JOKE_VOCAB)
    worst = inputs.max_offdup_cosine(jokes.survivors)
    if worst > 0.88:
        raise RuntimeError(f"seed {seed}: two distinct jokes reach cosine {worst:.3f}")
    jokes_path = run_dir / "jokes.txt"
    jokes.write(jokes_path)
    hyps, refs = inputs.make_rouge_pairs(seed, ROUGE_PAIRS)
    return Inputs(jokes, jokes_path, hyps, refs, inputs.make_records(MODEL_SEED, w.records),
                  run_dir / "generate.jsonl")


def split_records(rows: list[dict], seed: int):
    from punchgen.corpus import JokeRecord, split_dataset

    return split_dataset([JokeRecord.from_json(r) for r in rows], seed=seed)


def tokenizer_texts(records) -> list[str]:
    """The texts `punchgen train pretrain` trains its tokenizer on."""
    texts = [r.full_text() for r in records]
    return texts + [" ".join(t) for r in records for t in r.triples]


# ----------------------------------------------------------------- set-up


class Setup:
    """Program work before the first timed phase, repeated SETUP_REPEATS times.

    Each repeat starts the stub endpoint, trains the tokenizer on the
    training records and builds the fused generation model from seeded
    init_params. The imports are timed once, by the caller. Times are
    at nominal speed, like the phase rates (see speed.py).
    """

    def __init__(self, w: Workload, data: Inputs, import_s: float):
        from punchgen import config
        from punchgen.corpus import write_jsonl

        self.cfg = config.preset(w.preset)
        self.split = split_records(data.records, MODEL_SEED)
        self.gen_test = self.split.test[:GEN_RECORDS]
        write_jsonl(self.gen_test, data.gen_path)
        self.stub = None
        times = []
        try:
            for _ in range(SETUP_REPEATS):
                self.model = None           # release the previous repeat's model first
                _, wall, slowdown = speed.measure(self._setup_once)
                times.append(wall / slowdown)
        except BaseException:
            self.close()
            raise
        self.setup_s = import_s + statistics.median(times)

    def _setup_once(self) -> None:
        import numpy as np

        from punchgen.model import Model, init_params
        from punchgen.tokenizer import train_tokenizer

        if self.stub is not None:
            self.stub.close()
        self.stub = Stub()
        self.tokenizer = train_tokenizer(tokenizer_texts(self.split.train), self.cfg.model.vocab_size)
        params = init_params(np.random.default_rng(MODEL_SEED), self.cfg.model,
                             self.tokenizer.vocab_size, fused=True)
        self.model = Model(params, self.cfg.model, self.tokenizer, fused=True)

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()


# -------------------------------------------------------------- references


class Expected:
    """Reference results, computed once per run outside the timed phases."""

    def __init__(self, w: Workload, data: Inputs, setup: Setup):
        keep = reference.keep_first(data.jokes.passing, DEDUP_THRESHOLD)
        dedup = [t for t, k in zip(data.jokes.passing, keep) if k]
        check(dedup == data.jokes.survivors, "scipy keep-first reference disagrees with the constructed survivors")
        self.survivors = sorted(data.jokes.survivors)
        self.rouge = reference.rouge(data.hyps, data.refs)
        self.generated: dict[int, str] | None = None
        self.training: dict | None = None       # the first round's losses; see run_round
        self.w = w
        self.setup = setup

    def generated_sample(self) -> dict[int, str]:
        if self.generated is None:
            model = self.setup.model
            self.generated = {
                i: reference.model_beam_search(model, rec.setup, rec.triples, BEAM, self.w.gen_max_len)
                for i, rec in enumerate(self.setup.gen_test[: self.w.reference_sample])}
        return self.generated


# ------------------------------------------------------------------ rounds


def example_tokens(split, tokenizer, mcfg) -> float:
    """Mean non-pad target tokens per training example."""
    from punchgen.training import prepare_examples

    examples = prepare_examples(split.train, tokenizer, mcfg)
    pad = tokenizer.pad_id
    return sum(int((ex.tgt[1:] != pad).sum()) for ex in examples) / len(examples)


def run_round(w: Workload, seed: int, data: Inputs, setup: Setup, expected: Expected,
              run_dir: Path, tracer=None, probe: bool = True) -> dict:
    """One pass over every phase, the text phases w.text_reps times each (once in a traced run).

    Returns the rate of every repetition of every phase at nominal speed
    ("rates") and as timed ("raw_rates"), the phases' wall times ("walls")
    and the round's wall time with checks. Without `probe` the phases are
    timed plainly and "rates" equals "raw_rates".
    """
    from punchgen import corpus, decoding, evaluation, knowledge, tokenizer, training
    from punchgen.config import TrainConfig

    rates: dict[str, list[float]] = defaultdict(list)
    raw_rates: dict[str, list[float]] = defaultdict(list)
    walls: dict[str, list[float]] = defaultdict(list)
    round_start = time.perf_counter()

    def phase(name, metric, fn, work):
        """Time fn as phase `name`; record work(result) / wall at nominal speed as one value of `metric`."""
        call = fn if tracer is None else lambda: tracer.run_phase(name, fn)
        if probe and name not in TIMED_PLAINLY:
            result, wall, slowdown = speed.measure(call)
        else:
            start = time.perf_counter()
            result = call()
            wall, slowdown = time.perf_counter() - start, 1.0
        walls[name].append(wall)
        raw_rates[metric].append(work(result) / wall)
        rates[metric].append(work(result) / wall * slowdown)
        return result

    for _ in range(w.text_reps if probe else 1):
        # corpus build
        split = phase("corpus", "corpus_build_jokes_per_s",
                      lambda: corpus.build_corpus([data.jokes_path], dedup_threshold=DEDUP_THRESHOLD,
                                                  seed=seed),
                      lambda _: len(data.jokes.lines))
        got = split.train + split.valid + split.test
        check(sorted(r.full_text() for r in got) == expected.survivors,
              "corpus survivors differ from the constructed set")
        n = len(got)
        check((len(split.train), len(split.valid)) == (round(0.7 * n), round(0.2 * n)),
              "split sizes do not follow 7:2:1 rounding")

        # knowledge annotation: cold from an empty cache, then warm with fresh clients
        records = split.train[:ANNOTATED]
        cache = run_dir / "knowledge-cache.json"
        cache.unlink(missing_ok=True)

        def annotate():
            linker = knowledge.HttpLinker(setup.stub.base + "/link", cache_path=cache)
            store = knowledge.SparqlTripleStore(setup.stub.base + "/sparql", cache_path=cache)
            return knowledge.annotate_dataset(records, linker, store,
                                              max_per_entity=MAX_PER_ENTITY, in_flight=1)

        for name in ("cold", "warm"):
            before = setup.stub.stats() if tracer else None
            annotated = phase(f"annotate_{name}", f"annotate_{name}_records_per_s", annotate, len)
            if tracer:
                after = setup.stub.stats()
                tracer.note(f"stub.requests.{name}", after["requests"] - before["requests"])
                tracer.note(f"stub.busy_s.{name}", after["busy_s"] - before["busy_s"])
            if name == "cold":
                cold = annotated
                check(len(annotated) == len(records), "annotation changed the record count")
                for rec, ann in zip(records, annotated):
                    check(ann.setup == rec.setup and ann.punchline == rec.punchline,
                          "annotation changed a record's text")
                    check(list(ann.triples) == reference.expected_triples(rec.setup, MAX_PER_ENTITY),
                          f"triples differ from the stub's answers for {rec.setup[:40]!r}")
            else:
                check([r.to_json() for r in annotated] == [r.to_json() for r in cold],
                      "warm annotation differs from cold")

        # tokenizer training on the corpus's train texts
        texts = [r.full_text() for r in split.train]
        tok = phase("tokenizer", "tokenizer_merges_per_s",
                    lambda: tokenizer.train_tokenizer(texts, vocab_size=TOKENIZER_VOCAB),
                    lambda t: len(t.merges))
        for t in texts:
            check(tok.decode(tok.encode(t)) == " ".join(t.split()), f"tokenizer round trip broke {t[:40]!r}")

        # ROUGE
        report = phase("rouge", "rouge_lines_per_s",
                       lambda: evaluation.evaluate_lines(data.hyps, data.refs), lambda r: r.n_lines)
        check(reference.max_abs_diff(report.to_dict(), expected.rouge) <= 1e-12,
              "ROUGE report differs from the Counter/LCS reference")

    # pretrain -> transplant -> finetune
    cfg = setup.cfg
    tokens = example_tokens(setup.split, setup.tokenizer, cfg.model)
    pcfg = TrainConfig(max_steps=w.pretrain_steps, eval_every=w.pretrain_steps,
                       learning_rate=w.learning_rate, seed=MODEL_SEED)
    pre = phase("pretrain", "pretrain_tokens_per_s",
                lambda: training.pretrain(setup.split, cfg.model, pcfg, setup.tokenizer),
                lambda _: w.pretrain_steps * pcfg.batch_size * tokens)
    check(all(math.isfinite(e["loss"]) for e in pre.history), "non-finite pretrain loss")

    fused = training.transplant(pre.model, seed=MODEL_SEED)
    if expected.training is None:
        valid = training.prepare_examples(setup.split.valid, setup.tokenizer, cfg.model)
        for ex in valid:
            plain, _ = pre.model.sequence_loss(ex.src, ex.tgt, ex.triples)
            forced, _ = fused.sequence_loss(ex.src, ex.tgt, ex.triples, force_lambda_one=True)
            check(float(plain.data) == float(forced.data),
                  "transplanted model with lambda forced to 1 does not reproduce the pretrained loss")
        expected.training = {"pretrain": pre.history, "transplanted_loss": training.eval_loss(fused, valid)}
    else:
        # The first round checked the transplant; training is seeded, so later rounds must repeat it.
        check(pre.history == expected.training["pretrain"], "pretrain did not repeat the first round's losses")
    transplanted_loss = expected.training["transplanted_loss"]
    del pre

    fcfg = TrainConfig(max_steps=w.finetune_steps, eval_every=w.finetune_steps,
                       learning_rate=w.learning_rate, seed=MODEL_SEED)
    fine = phase("finetune", "finetune_tokens_per_s", lambda: training.finetune(fused, setup.split, fcfg),
                 lambda _: w.finetune_steps * fcfg.batch_size * tokens)
    rates["finetune_valid_loss"].append(fine.best_val_loss)
    check(all(math.isfinite(e["loss"]) for e in fine.history), "non-finite finetune loss")
    check(fine.best_val_loss < transplanted_loss,
          f"finetune did not lower the valid loss ({transplanted_loss:.4f} -> {fine.best_val_loss:.4f})")
    check(expected.training.setdefault("finetune", fine.history) == fine.history,
          "finetune did not repeat the first round's losses")
    del fine, fused

    # generation with the untrained fused model
    out_path = run_dir / "hyps.txt"
    n_gen = phase("generate", "generate_records_per_s",
                  lambda: decoding.generate_file(data.gen_path, setup.model, out_path,
                                                 beam=BEAM, max_len=w.gen_max_len),
                  lambda n: n)
    lines = out_path.read_bytes().split(b"\n")
    check(n_gen == len(setup.gen_test) and lines[-1] == b"" and len(lines) - 1 == n_gen,
          "generate_file did not write one line per record")
    for i, text in expected.generated_sample().items():
        check(lines[i].decode("utf-8") == text, f"generated record {i} differs from the reference beam search")

    return {"rates": dict(rates), "raw_rates": dict(raw_rates), "walls": dict(walls), "merges": len(tok.merges),
            "round_s": time.perf_counter() - round_start}


# -------------------------------------------------------------------- run


END_TO_END = ("corpus_build_jokes_per_s", "annotate_cold_records_per_s", "annotate_warm_records_per_s",
              "tokenizer_merges_per_s", "rouge_lines_per_s", "pretrain_tokens_per_s",
              "finetune_tokens_per_s", "finetune_valid_loss", "generate_records_per_s")
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "corpus_build_jokes_per_s": "jokes/s",
         "annotate_cold_records_per_s": "records/s", "annotate_warm_records_per_s": "records/s",
         "tokenizer_merges_per_s": "merges/s", "rouge_lines_per_s": "lines/s",
         "pretrain_tokens_per_s": "tokens/s", "finetune_tokens_per_s": "tokens/s",
         "finetune_valid_loss": "nats/token", "generate_records_per_s": "records/s"}


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    import_s /= speed.slowdown()
    w = WORKLOADS[workload]
    run_dir = HERE / "runs" / f"{workload}-s{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    data = make_inputs(w, seed, run_dir)
    setup = Setup(w, data, import_s)
    attempted = 0
    correct = True
    rounds: list[dict] = []
    tracer = None
    try:
        expected = Expected(w, data, setup)
        start = time.perf_counter()
        while True:
            attempted += len(TEXT_PHASES) * (1 if trace else w.text_reps) + len(PHASES) - len(TEXT_PHASES)
            try:
                rounds.append(run_round(w, seed, data, setup, expected, run_dir, tracer, probe=not trace))
            except CheckFailed as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                correct = False
                break
            if trace:
                if tracer is not None:
                    break
                import tracing

                tracer = tracing.Tracer()
                tracer.install()
            elif time.perf_counter() - start + rounds[-1]["round_s"] > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        setup.close()
        for name in ("jokes.txt", "generate.jsonl", "hyps.txt", "knowledge-cache.json"):
            (run_dir / name).unlink(missing_ok=True)

    for r in rounds:
        print(json.dumps({k: r[k] for k in ("round_s", "walls", "raw_rates", "rates")}), file=sys.stderr)
    if trace:
        metrics = tracer.per_layer(rounds, w) if correct else {}
        if correct:
            tracer.write(run_dir / "trace.jsonl")
    if not any(run_dir.iterdir()):
        run_dir.rmdir()
    if not trace:
        metrics = {"setup_s": setup.setup_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        for name in END_TO_END if rounds else ():
            metrics[name] = statistics.median(v for r in rounds for v in r["rates"][name])
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    return {"correct": correct and bool(rounds), "attempted": attempted, "failed": 0,
            "metrics": metrics}
