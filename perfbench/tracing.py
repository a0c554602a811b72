"""Per-layer tracing for the pipeline benchmark (loaded only with --trace 1).

`Tracer.install` wraps public punchgen functions from the outside. A name
that a module imported from another module is patched where it is looked
up. Every call becomes a span (name, start, end, parent, phase, detail) kept in
memory; a layer's self time is its spans' duration minus the part covered
by their child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

TRAIN_PHASES = ("pretrain", "finetune")


def tape_nodes(loss) -> int:
    """Recorded operations reachable from a loss tensor."""
    seen, stack, n = set(), [loss], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        n += node._backward is not None
        stack.extend(node._parents)
    return n


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.phase_name = ""
        self.muted = False
        self.notes: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- recording

    def _record(self, name, fn, leaf=False, detail=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.muted:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(idx)
            tracer.muted = leaf
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.muted = False
                tracer.stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.phase_name,
                                     detail(*args) if detail else None)
            if after is not None:
                after(result)
            return result

        return wrapper

    def run_phase(self, name: str, fn):
        """Run one pipeline phase as a top-level span; nested spans carry its name."""
        self.phase_name = name
        try:
            return self._record(f"phase.{name}", fn)()
        finally:
            self.phase_name = ""

    def note(self, key: str, value: float) -> None:
        self.notes[key] += value

    def _patch(self, owner, attr: str, name: str, **options) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._record(name, original, **options))

    def install(self) -> None:
        from punchgen import autograd, corpus, decoding, evaluation, kernels, knowledge, model, training

        def count_tape(result):
            self.note(f"tape_nodes.{self.phase_name}", tape_nodes(result[0]))

        def decoded(hyp):
            self.note("decoded_tokens", len(hyp.tokens) - 1)

        for owner, attr, name, options in (
            (corpus, "filter_joke", "corpus.filter_joke", {}),
            (corpus, "segment_punchline", "corpus.segment_punchline", {}),
            (kernels, "dedup_scan", "kernels.dedup_scan", {}),
            (knowledge.HttpLinker, "link", "knowledge.link", {}),
            (knowledge.SparqlTripleStore, "fetch", "knowledge.fetch", {}),
            (knowledge._ResponseCache, "put", "knowledge.cache_put", {}),
            (evaluation, "rouge_n", "evaluation.rouge_n", {}),
            (kernels, "lcs_length", "kernels.lcs", {}),
            (model.Model, "encode_setup", "model.encode_setup", {}),
            (model.Model, "encode_triples", "model.encode_triples", {}),
            (model.Model, "decode_states", "model.decode_states", {}),
            (model.Model, "decode_step", "model.decode_step",
             {"detail": lambda self, prefix, *a: len(prefix)}),
            (model, "init_node_features", "kgraph.node_init", {}),
            (model, "encode_knowledge", "graph_encoder.gat", {}),
            (autograd.Tensor, "backward", "autograd.backward", {}),
            (training.Adam, "step", "training.adam", {}),
            (training, "eval_loss", "training.eval", {"leaf": True}),
            (training, "batch_loss", "training.batch_loss", {"after": count_tape}),
            (decoding, "decode_record", "decoding.decode_record", {}),
            (decoding, "beam_search", "decoding.beam_search", {"after": decoded}),
        ):
            self._patch(owner, attr, name, **options)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- reporting

    def table(self) -> dict[tuple[str, str], dict[str, float]]:
        """Per (phase, span name): calls, inclusive and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, str], dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, phase, _) in enumerate(self.spans):
            row = out[(phase, name)]
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def per_layer(self, rounds: list[dict], w) -> dict[str, dict]:
        """The per-layer metrics of the traced round (rounds[-1]) and the tracing overhead.

        A traced round calls every phase once.
        """
        table = self.table()

        def total(field, name, phases):
            return sum(table[(p, name)][field] for p in phases if (p, name) in table)

        m: dict[str, tuple[float, str]] = {}
        m["corpus.filter_segment_s"] = (total("self_s", "corpus.filter_joke", ["corpus"])
                                        + total("self_s", "corpus.segment_punchline", ["corpus"]), "s")
        m["kernels.dedup_scan_s"] = (total("self_s", "kernels.dedup_scan", ["corpus"]), "s")
        for p in ("cold", "warm"):
            phase = [f"annotate_{p}"]
            m[f"knowledge.link_s.{p}"] = (total("self_s", "knowledge.link", phase), "s")
            m[f"knowledge.fetch_s.{p}"] = (total("self_s", "knowledge.fetch", phase), "s")
            m[f"knowledge.cache_put_s.{p}"] = (total("self_s", "knowledge.cache_put", phase), "s")
            m[f"knowledge.stub_s.{p}"] = (self.notes[f"stub.busy_s.{p}"], "s")
            m[f"knowledge.{p}_requests"] = (self.notes[f"stub.requests.{p}"], "count")
        m["tokenizer.merges"] = (rounds[-1]["merges"], "count")
        m["kernels.lcs_s"] = (total("self_s", "kernels.lcs", ["rouge"]), "s")
        m["kernels.lcs_calls"] = (total("calls", "kernels.lcs", ["rouge"]), "count")
        m["evaluation.rouge_n_s"] = (total("self_s", "evaluation.rouge_n", ["rouge"]), "s")
        for name in ("model.encode_setup", "model.decode_states", "autograd.backward", "training.adam",
                     "training.eval", "kgraph.node_init", "graph_encoder.gat"):
            m[f"{name}_s"] = (total("self_s", name, TRAIN_PHASES), "s")
        m["autograd.tape_nodes_pretrain"] = (self.notes["tape_nodes.pretrain"] / w.pretrain_steps, "count")
        m["autograd.tape_nodes_finetune"] = (self.notes["tape_nodes.finetune"] / w.finetune_steps, "count")
        gen = ["generate"]
        records = table[("generate", "decoding.decode_record")]["calls"]
        m["decoding.decode_step_calls"] = (total("calls", "model.decode_step", gen) / records, "count")
        m["decoding.decoded_tokens_mean"] = (self.notes["decoded_tokens"] / records, "tokens")
        m["decoding.record_encode_s"] = (total("incl_s", "model.encode_setup", gen)
                                         + total("incl_s", "model.encode_triples", gen), "s")
        m["decoding.search_self_s"] = (total("self_s", "decoding.beam_search", gen), "s")
        steps = [(s[5], s[2] - s[1]) for s in self.spans
                 if s[0] == "model.decode_step" and s[4] == "generate"]
        last = max(n for n, _ in steps)
        m["model.decode_step_ms.first8"] = (1e3 * statistics.median(d for n, d in steps if n <= 8), "ms")
        m["model.decode_step_ms.last8"] = (1e3 * statistics.median(d for n, d in steps if n > last - 8), "ms")
        for p, name in sorted(table):
            if name == f"phase.{p}":
                m[f"phase.{p}.self_s"] = (total("self_s", name, [p]), "s")
        traced, untraced = (sum(map(sum, r["walls"].values())) for r in (rounds[-1], rounds[0]))
        m["trace.overhead_pct"] = (100 * (traced / untraced - 1), "%")
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    def write(self, path) -> None:
        """Span list as JSON lines, after one line with the per-(phase, name) table."""
        with open(path, "w", encoding="utf-8") as fh:
            rows = [{"phase": p, "name": n, **v} for (p, n), v in sorted(self.table().items())]
            fh.write(json.dumps({"table": rows}) + "\n")
            for name, start, end, parent, phase, attr in self.spans:
                fh.write(json.dumps([name, start, end, parent, phase, attr]) + "\n")
