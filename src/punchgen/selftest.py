"""Self-contained correctness checks: gradients vs finite differences,
structural oracles, attention normalization, beam-search sanity.

Each check returns a CheckResult; `run_all` drives them and the CLI
prints one line per check. The acceptance test suite asserts on the
same results, so the CLI `selftest` subcommand and pytest agree by
construction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .config import ModelConfig
from .corpus import JokeRecord, deduplicate
from .decoding import beam_search, model_step_fn
from .graph_encoder import encode_knowledge, gat_attention, in_neighbor_mask, init_gat_params
from .kgraph import build_graph
from .model import Model, init_params, knowledge_gate, multi_head_attention
from .tokenizer import train_tokenizer
from .training import Adam, prepare_examples

GRAD_TOL = 1e-4
GRAD_FLOOR = 1e-6  # below this, FD at float64 cannot certify 1e-4 relative


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _timed(fn):
    def wrapper(*args, **kwargs) -> CheckResult:
        start = time.perf_counter()
        name, passed, detail = fn(*args, **kwargs)
        return CheckResult(name, bool(passed), str(detail), time.perf_counter() - start)

    return wrapper


H_LADDER = (1e-4, 3e-4, 1e-5, 1e-3)


def compare_gradients(loss_fn, params: dict[str, ag.Tensor],
                      entries_per_tensor: int | None) -> tuple[float, int]:
    """Backprop loss_fn once, then central-difference selected entries.

    The step size adapts per entry (truncation error dominates at large
    h, roundoff at small h; the best agreement over the ladder is the
    honest FD estimate). Returns (worst relative error among certifiable
    entries, n checked). Entries whose analytic gradient is below
    GRAD_FLOOR are checked for absolute agreement instead.
    """
    for p in params.values():
        p.zero_grad()
    loss_fn().backward()
    grads = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
             for k, p in params.items()}

    def value():
        with ag.no_grad():
            return float(loss_fn().data)

    def fd_at(flat, i, h):
        orig = flat[i]
        flat[i] = orig + h
        fp = value()
        flat[i] = orig - h
        fm = value()
        flat[i] = orig
        return (fp - fm) / (2 * h)

    worst = 0.0
    checked = 0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        gflat = grads[name].reshape(-1)
        if entries_per_tensor is None:
            idx = range(flat.size)
        else:
            idx = np.argsort(-np.abs(gflat))[:entries_per_tensor]
        for i in idx:
            an = gflat[i]
            checked += 1
            best = math.inf
            for h in H_LADDER:
                fd = fd_at(flat, i, h)
                if abs(an) < GRAD_FLOOR:
                    err = 0.0 if abs(fd - an) <= 1e-8 else 1.0
                else:
                    err = abs(fd - an) / max(abs(fd), abs(an))
                best = min(best, err)
                if best < GRAD_TOL:
                    break
            worst = max(worst, best)
    return worst, checked


def _fixture_texts() -> list[str]:
    return [
        "the dog chewed the remote control last night",
        "now he decides what we watch on television",
        "the scarecrow was outstanding in his field",
        "the astronaut needed some space after launch",
        "the coffee claims that it got mugged downtown",
        "dog instance of animal coffee served in mug",
    ]


def desk_model(seed: int = 0, fused: bool = True) -> Model:
    cfg = ModelConfig(d_model=64, n_blocks=2, n_heads=4, d_ff=256, vocab_size=2000,
                      dropout=0.0)
    tok = train_tokenizer(_fixture_texts(), vocab_size=500)
    rng = np.random.default_rng(seed)
    return Model(init_params(rng, cfg, tok.vocab_size, fused=fused), cfg, tok, fused=fused)


# ------------------------------------------------------------- gradient suite


@_timed
def check_gat_gradients():
    rng = np.random.default_rng(0)
    cfg = ModelConfig(d_model=8, n_blocks=1, n_heads=2, d_ff=16, vocab_size=64,
                      gat_layers=2, dropout=0.0)
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (2, 0)]
    mask = in_neighbor_mask(6, edges)
    feats = ag.Tensor(rng.normal(size=(6, 8)), requires_grad=True)
    params = init_gat_params(rng, cfg)
    weight = rng.normal(size=(6, 8))

    def loss_fn():
        return (encode_knowledge(feats, mask, params, cfg) * ag.Tensor(weight)).sum()

    worst, n = compare_gradients(loss_fn, {**params, "H0": feats}, entries_per_tensor=None)
    return ("gat-gradients", worst < GRAD_TOL, f"max rel err {worst:.2e} over {n} entries")


@_timed
def check_fusion_gate_gradients():
    rng = np.random.default_rng(1)
    d, heads = 8, 2
    cfg = ModelConfig(d_model=d, n_blocks=1, n_heads=heads, d_ff=16, vocab_size=64,
                      dropout=0.0)
    params = {}
    for w in ("wq", "wk", "wv", "wo"):
        params[f"f.{w}"] = ag.parameter(rng, (d, d))
        if w != "wk":
            params[f"f.b{w[1]}"] = ag.Tensor(rng.normal(size=d) * 0.1, requires_grad=True)
    params["wg"] = ag.parameter(rng, (d, d))
    s_data = rng.normal(size=(4, d))
    h_data = rng.normal(size=(5, d))
    s_in = ag.Tensor(s_data, requires_grad=True)
    h_in = ag.Tensor(h_data, requires_grad=True)
    weight = rng.normal(size=(4, d))

    def loss_fn():
        attended = multi_head_attention(s_in, h_in, params, "f", cfg.n_heads, np.ones((1, 4), dtype=bool))
        gated = knowledge_gate(s_in, attended, params["wg"])
        return (gated * ag.Tensor(weight)).sum()

    worst, n = compare_gradients(loss_fn, {**params, "S": s_in, "H": h_in},
                                 entries_per_tensor=None)
    return ("fusion-gate-gradients", worst < GRAD_TOL, f"max rel err {worst:.2e} over {n} entries")


@_timed
def check_full_model_gradients(entries_per_tensor: int = 2):
    model = desk_model(seed=2, fused=True)
    tok = model.tokenizer
    src = np.asarray(tok.encode("the dog chewed the remote control"))
    tgt = np.asarray([tok.bos_id] + tok.encode("what we watch on television") + [tok.eos_id])
    triples = [("dog", "instance of", "animal"), ("coffee", "served in", "mug")]

    def loss_fn():
        loss, _ = model.sequence_loss(src, tgt, triples)
        return loss

    worst, n = compare_gradients(loss_fn, model.params, entries_per_tensor=entries_per_tensor)
    return ("full-model-gradients", worst < GRAD_TOL, f"max rel err {worst:.2e} over {n} entries")


# --------------------------------------------------------- structural oracles


@_timed
def check_collapse_equivalence(n_prefixes: int = 100):
    from .training import train_loop, transplant

    plain = desk_model(seed=3, fused=False)
    tok = plain.tokenizer
    records = [JokeRecord("the dog chewed the remote,", "what we watch.")
               for _ in range(4)]
    ex = prepare_examples(records, tok, plain.cfg)
    from .config import TrainConfig

    rng = np.random.default_rng(4)
    tcfg = TrainConfig(batch_size=4, max_steps=10, eval_every=10, seed=4)
    train_loop(plain, ex, ex, tcfg, rng)

    fused = transplant(plain, seed=5)
    worst = 0.0
    rng = np.random.default_rng(6)
    for _ in range(n_prefixes):
        src = rng.integers(4, tok.vocab_size, size=int(rng.integers(2, 10)))
        prefix = np.concatenate([[tok.bos_id], rng.integers(4, tok.vocab_size,
                                                            size=int(rng.integers(1, 8)))])
        with ag.no_grad():  # no knowledge: every gate is lam = 1
            d_f = fused.decode_step(prefix, fused.encode_setup(src), None)
            d_p = plain.decode_step(prefix, plain.encode_setup(src), None)
        worst = max(worst, float(np.abs(d_f - d_p).max()))
    return ("collapse-equivalence", worst <= 1e-6,
            f"max abs distribution diff {worst:.2e} over {n_prefixes} prefixes")


def _oracle_graph(triples):
    entities = []
    for s, _, o in triples:
        for e in (s.strip(), o.strip()):
            if e not in entities:
                entities.append(e)
    nodes = [("entity", e) for e in entities]
    edges = []
    for s, r, o in triples:
        r = r.strip()
        nodes.append(("relation", r))
        nodes.append(("reverse", "<r>" + r))
        edges.extend([(s.strip(), r), (r, o.strip()), (o.strip(), "<r>" + r), ("<r>" + r, s.strip())])
    return nodes, edges


@_timed
def check_graph_builder(n_sets: int = 1000):
    rng = np.random.default_rng(7)
    ents = [f"e{i}" for i in range(8)]
    rels = [f"r{i}" for i in range(5)]
    bad = 0
    for _ in range(n_sets):
        triples = [
            (ents[rng.integers(8)], rels[rng.integers(5)], ents[rng.integers(8)])
            for _ in range(int(rng.integers(1, 21)))
        ]
        g = build_graph(triples)
        nodes_o, edges_o = _oracle_graph(triples)
        uniq = len({e for t in triples for e in (t[0], t[2])})
        ok = (
            sorted((n.kind, n.label) for n in g.nodes) == sorted(nodes_o)
            and sorted((g.nodes[s].label, g.nodes[d].label) for s, d in g.edges) == sorted(edges_o)
            and g.n_nodes == uniq + 2 * len(triples)
            and len(g.edges) == 4 * len(triples)
        )
        bad += not ok
    return ("graph-builder-oracle", bad == 0, f"{n_sets - bad}/{n_sets} random triple sets match")


@_timed
def check_attention_normalization():
    model = desk_model(seed=8, fused=True)
    tok = model.tokenizer
    rng = np.random.default_rng(9)
    worst = 0.0
    rows = 0
    for _ in range(5):
        src = rng.integers(4, tok.vocab_size, size=int(rng.integers(3, 9)))
        prefix = np.concatenate([[tok.bos_id], rng.integers(4, tok.vocab_size, size=5)])
        trace: list = []
        with ag.no_grad():
            memory = model.encode_setup(src, trace=trace)
            knowledge = model.encode_triples([("dog", "instance of", "animal")])
            model.decode_states(prefix, memory, knowledge, trace=trace)
        kinds = {tag for tag, _ in trace}
        assert {"enc-self", "dec-self", "dec-cross", "fusion"} <= kinds
        for _, alpha in trace:
            worst = max(worst, float(np.abs(alpha.sum(axis=1) - 1.0).max()))
            rows += alpha.shape[0]
        # graph attention rows
        graph = build_graph([("dog", "instance of", "animal"), ("dog", "chases", "cat")])
        feats = ag.Tensor(rng.normal(size=(graph.n_nodes, model.cfg.d_model)))
        mask = in_neighbor_mask(graph.n_nodes, graph.edges)
        layer = {w: model.params[f"gat.0.{w}"] for w in ("wq", "wk", "wv")}
        with ag.no_grad():
            alpha = gat_attention(feats, layer, mask, model.cfg.n_heads).data
        worst = max(worst, float(np.abs(alpha.sum(axis=-1) - 1.0).max()))
        rows += alpha.shape[0] * alpha.shape[1]
    return ("attention-normalization", worst <= 1e-6,
            f"max |row sum - 1| = {worst:.2e} over {rows} rows")


# ------------------------------------------------------------- beam and misc


TOY_EOS = 0
_TOY_TABLE = {
    (): np.array([0.002, 0.598, 0.400]),
    (1,): np.array([0.340, 0.330, 0.330]),
    (2,): np.array([0.990, 0.005, 0.005]),
}
_TOY_DEFAULT = np.array([0.980, 0.010, 0.010])


def _toy_step(prefixes, parents=None):
    return np.log([_TOY_TABLE.get(tuple(p[1:]), _TOY_DEFAULT) for p in np.asarray(prefixes).tolist()])


@_timed
def check_beam_greedy(n_contexts: int = 50):
    cfg = ModelConfig(d_model=8, n_blocks=1, n_heads=2, d_ff=16, vocab_size=64,
                      dropout=0.0)
    tok = train_tokenizer(_fixture_texts(), vocab_size=280)
    rng = np.random.default_rng(10)
    model = Model(init_params(rng, cfg, tok.vocab_size, fused=False), cfg, tok, fused=False)
    mismatches = 0
    for _ in range(n_contexts):
        src = rng.integers(4, tok.vocab_size, size=int(rng.integers(2, 8)))
        with ag.no_grad():
            memory = model.encode_setup(src)
        step = model_step_fn(model, memory, None)
        best = beam_search(step, tok.bos_id, tok.eos_id, beam=1, max_len=6)
        greedy = [tok.bos_id]
        for _ in range(6):
            nxt = int(np.argmax(step(np.array([greedy]), None if len(greedy) == 1 else [0])[0]))
            greedy.append(nxt)
            if nxt == tok.eos_id:
                break
        mismatches += best.tokens != greedy
    return ("beam1-equals-greedy", mismatches == 0,
            f"{n_contexts - mismatches}/{n_contexts} contexts agree")


@_timed
def check_beam_trap():
    import itertools

    best = beam_search(_toy_step, 9, TOY_EOS, beam=2, max_len=3)
    greedy = beam_search(_toy_step, 9, TOY_EOS, beam=1, max_len=3)

    def seq_logprob(seq):
        total = 0.0
        for i, t in enumerate(seq):
            total += _toy_step([[9, *seq[:i]]])[0][t]
        return total

    seqs = []
    for length in range(1, 4):
        for body in itertools.product([1, 2], repeat=length - 1):
            seqs.append(tuple(body) + (TOY_EOS,))
    seqs.extend(itertools.product([1, 2], repeat=3))
    optimum = max(seqs, key=seq_logprob)
    ok = tuple(best.tokens[1:]) == optimum and tuple(greedy.tokens[1:]) != optimum
    return ("beam2-escapes-greedy-trap", ok,
            f"beam2 -> {best.tokens[1:]}, greedy -> {greedy.tokens[1:]}, optimum {list(optimum)}")


@_timed
def check_adam_trace():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    grads = [0.5, -0.3, 0.2]
    theta, m, v = 1.0, 0.0, 0.0
    p = ag.Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam(lr, b1, b2, eps, clip_norm=None)
    worst = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
        p.grad = np.array([g])
        opt.step({"p": p})
        worst = max(worst, abs(float(p.data[0]) - theta))
    return ("adam-hand-trace", worst < 1e-10, f"max abs deviation {worst:.2e}")


@_timed
def check_dedup_oracle(n_jokes: int = 100):
    rng = np.random.default_rng(11)
    words = ["dog", "cat", "bar", "man", "walks", "says", "funny", "beer", "why", "road"]
    jokes = []
    for _ in range(n_jokes):
        k = int(rng.integers(3, 9))
        toks = [words[i] for i in rng.integers(0, len(words), size=k)]
        jokes.append(JokeRecord(" ".join(toks[:-1]) + ",", toks[-1] + "."))

    def oracle(records, threshold):
        kept = []
        for rec in records:
            counts: dict[str, int] = {}
            for w in rec.full_text().lower().split():
                w = "".join(c for c in w if c.isalnum())
                if w:
                    counts[w] = counts.get(w, 0) + 1
            dup = False
            for _, other in kept:
                common = set(counts) & set(other)
                dot = sum(counts[t] * other[t] for t in common)
                denom = math.sqrt(sum(x * x for x in counts.values())
                                  * sum(x * x for x in other.values()))
                if denom > 0 and dot / denom > threshold:
                    dup = True
                    break
            if not dup:
                kept.append((rec, counts))
        return [r for r, _ in kept]

    got = deduplicate(jokes, threshold=0.93)
    want = oracle(jokes, 0.93)
    same = [j.full_text() for j in got] == [j.full_text() for j in want]

    # boundary: threshold equal to the pair's exact cosine keeps both
    a = JokeRecord("aa aa aa,", "bb bb bb bb.")
    b = JokeRecord("aa aa aa aa,", "bb bb bb.")
    from .corpus import bow_cosine, bow_vector

    c = bow_cosine(bow_vector(a.full_text()), bow_vector(b.full_text()))
    both_kept = deduplicate([a, b], threshold=c) == [a, b]
    one_kept = deduplicate([a, b], threshold=float(np.nextafter(c, 0.0))) == [a]
    ok = same and both_kept and one_kept
    return ("dedup-oracle", ok,
            f"oracle match={same}, boundary-equal kept both={both_kept}, just-below dropped={one_kept}")


def run_all(entries_per_tensor: int = 2) -> list[CheckResult]:
    return [
        check_gat_gradients(),
        check_fusion_gate_gradients(),
        check_full_model_gradients(entries_per_tensor),
        check_collapse_equivalence(),
        check_graph_builder(),
        check_attention_normalization(),
        check_beam_greedy(),
        check_beam_trap(),
        check_adam_trace(),
        check_dedup_oracle(),
    ]
