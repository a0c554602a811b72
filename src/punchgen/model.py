"""Sequence-to-sequence punchline model with gated knowledge fusion.

The set-up encoder is a standard post-norm transformer stack. Decoder
blocks have four sub-layers: masked self-attention, cross-attention to
the set-up memory, knowledge fusion, feed-forward. The fusion sub-layer
attends from the decoder states S to the encoded graph nodes H and
mixes the result A through a per-dimension sigmoid gate:

    A = MultiHead(S, H, H)
    lam = sigmoid(S @ W_g)
    fused = lam * S + (1 - lam) * A

With lam forced to 1 (or when a record carries no knowledge) the fused
block reduces exactly to a plain transformer block, which is what makes
the two-stage pretrain-then-transplant scheme exact.

Every call runs packed (cf. ByteTransformer, Zhai et al. 2023,
arXiv:2210.03052): a (B, t) mask `real` marks the real positions, every
layer but attention runs on their (n_real, d) rows, so padding costs
nothing there, and attention lays the rows out padded, (B, heads, t, s),
with an additive bias hiding padded keys. A training batch (Model.loss_sum)
and a decoding step use the same layers; a call without a mask is one
all-real row, or one per prefix.

Parameters are a flat name -> Tensor dict. Knowledge-side names
(kinit.*, gat.*, dec.*.fuse.*, dec.*.gate.*) form the knowledge_only
partition; everything else is pretrainable and transplantable from a
plain pretrained checkpoint.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import numpy as np

from . import autograd as ag
from .config import ModelConfig
from .graph_encoder import (MASK_OFF, encode_knowledge, in_neighbor_mask, init_gat_params,
                            merge_heads, split_heads)
from .kgraph import KnowledgeGraph, build_graph, init_node_features, init_node_params
from .tokenizer import Tokenizer

CHECKPOINT_VERSION = 3


class LengthError(ValueError):
    """Input longer than the configured maximum."""


@dataclasses.dataclass
class Example:
    src: np.ndarray
    tgt: np.ndarray
    triples: tuple = ()


def is_knowledge_only(name: str) -> bool:
    return name.startswith(("kinit.", "gat.")) or ".fuse." in name or ".gate." in name


def partition_names(params: dict) -> dict[str, list[str]]:
    names = sorted(params)
    return {
        "pretrainable": [n for n in names if not is_knowledge_only(n)],
        "knowledge_only": [n for n in names if is_knowledge_only(n)],
    }


# ------------------------------------------------------------------ parameters


def _attn_params(rng, prefix: str, d: int) -> dict[str, ag.Tensor]:
    """Q, K, V and output projections; K has no bias, as q . b_k adds one constant to a logit row."""
    out = {}
    for w in ("wq", "wk", "wv", "wo"):
        out[f"{prefix}.{w}"] = ag.parameter(rng, (d, d))
        if w != "wk":
            out[f"{prefix}.b{w[1]}"] = ag.Tensor(np.zeros(d), requires_grad=True)
    return out


def _ln_params(prefix: str, d: int) -> dict[str, ag.Tensor]:
    return {
        f"{prefix}.g": ag.Tensor(np.ones(d), requires_grad=True),
        f"{prefix}.b": ag.Tensor(np.zeros(d), requires_grad=True),
    }


def _ff_params(rng, prefix: str, d: int, d_ff: int) -> dict[str, ag.Tensor]:
    return {
        f"{prefix}.w1": ag.parameter(rng, (d, d_ff)),
        f"{prefix}.b1": ag.Tensor(np.zeros(d_ff), requires_grad=True),
        f"{prefix}.w2": ag.parameter(rng, (d_ff, d)),
        f"{prefix}.b2": ag.Tensor(np.zeros(d), requires_grad=True),
    }


def init_params(rng: np.random.Generator, cfg: ModelConfig, vocab_size: int,
                fused: bool) -> dict[str, ag.Tensor]:
    """All learnable tensors; `fused` adds the knowledge-side partition."""
    d, d_ff = cfg.d_model, cfg.d_ff
    params: dict[str, ag.Tensor] = {
        "emb": ag.parameter(rng, (vocab_size, d)),
    }
    for n in range(cfg.n_blocks):
        params.update(_attn_params(rng, f"enc.{n}.attn", d))
        params.update(_ln_params(f"enc.{n}.ln1", d))
        params.update(_ff_params(rng, f"enc.{n}.ff", d, d_ff))
        params.update(_ln_params(f"enc.{n}.ln2", d))
    for n in range(cfg.n_blocks):
        params.update(_attn_params(rng, f"dec.{n}.self", d))
        params.update(_ln_params(f"dec.{n}.ln1", d))
        params.update(_attn_params(rng, f"dec.{n}.cross", d))
        params.update(_ln_params(f"dec.{n}.ln2", d))
        if fused:
            params.update(_attn_params(rng, f"dec.{n}.fuse", d))
            params[f"dec.{n}.gate.wg"] = ag.parameter(rng, (d, d))
        params.update(_ff_params(rng, f"dec.{n}.ff", d, d_ff))
        params.update(_ln_params(f"dec.{n}.ln3", d))
    params["out.w"] = ag.parameter(rng, (vocab_size, d))
    if fused:
        params.update(init_node_params(rng, vocab_size, cfg))
        params.update(init_gat_params(rng, cfg))
    return params


def sinusoidal_positions(length: int, d: int) -> np.ndarray:
    pos = np.arange(length)[:, None]
    dim = np.arange(d)[None, :]
    angle = pos / np.power(10000.0, (2 * (dim // 2)) / d)
    enc = np.empty((length, d))
    enc[:, 0::2] = np.sin(angle[:, 0::2])
    enc[:, 1::2] = np.cos(angle[:, 1::2])
    return enc


# ------------------------------------------------------------------- sub-layers


def _dropout(t: ag.Tensor, p: float, rng: np.random.Generator | None, real: np.ndarray) -> ag.Tensor:
    """Inverted dropout of the packed rows t of the mask `real`; the mask is drawn padded, then packed."""
    if rng is None or p <= 0.0:
        return t
    mask = (rng.random(real.shape + t.shape[-1:]) >= p) / (1.0 - p)
    return t * ag.Tensor(mask[real])


def _pad(rows, fill: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Int rows filled at the end to one (B, s) array, the (B, 1, 1, s) bias that hides the fill,
    and the (B, s) mask of the real entries."""
    lengths = np.array([len(r) for r in rows])
    real = np.arange(lengths.max()) < lengths[:, None]
    out = np.full(real.shape, fill, dtype=np.intp)
    out[real] = np.concatenate(rows)
    return out, np.where(real, 0.0, MASK_OFF)[:, None, None, :], real


class DecoderCache:
    """Decoder keys and values kept across `Model.decode_states` calls on one memory and knowledge.

    `past` maps each self-attention to its (K, V) over the positions decoded so far, each
    (rows, heads, t, d_head). `fixed` maps each cross-attention and fusion to the (K, V) of
    the set-up or knowledge, projected on first use.
    """

    def __init__(self):
        self.past: dict[str, tuple] = {}
        self.fixed: dict[str, tuple] = {}

    @property
    def length(self) -> int:
        """Positions decoded so far."""
        return next(iter(self.past.values()))[0].shape[-2] if self.past else 0

    def select(self, rows) -> None:
        """Keep the past of `rows`, in their order; a row may repeat or drop out."""
        self.past = {name: (k[rows], v[rows]) for name, (k, v) in self.past.items()}

    def keys_values(self, name: str, project) -> tuple:
        """(K, V) of decoder attention `name`, given `project()`, the keys and values of its new input.

        A self-attention's grow by the new positions; a cross-attention's or fusion's are projected once.
        """
        if not name.endswith(".self"):
            if name not in self.fixed:
                self.fixed[name] = project()
            return self.fixed[name]
        k, v = project()
        if name in self.past:
            k, v = (ag.concat([old, new], axis=-2) for old, new in zip(self.past[name], (k, v)))
        self.past[name] = k, v
        return k, v


def multi_head_attention(q_in: ag.Tensor, kv_in: ag.Tensor, p: dict, prefix: str,
                         n_heads: int, real: np.ndarray, bias: np.ndarray | None = None,
                         trace: list | None = None, trace_tag: str = "",
                         cache: DecoderCache | None = None,
                         kv_real: np.ndarray | None = None) -> ag.Tensor:
    """Multi-head attention of the packed (n, d) rows q_in of the (B, t) mask `real` over kv_in.

    With the (B, s) mask `kv_real`, kv_in is packed rows too; without it, kv_in is already
    laid out, (s, d) or (B, s, d). The projections run on the packed rows, and only the
    logits and their weighted sums are padded. `bias` adds to the (B, heads, t, s) logits;
    MASK_OFF hides a key. With a `cache`, the keys and values come from
    `DecoderCache.keys_values`. The output is packed like q_in.
    """
    d = q_in.shape[-1]
    q = split_heads(ag.scatter_rows(q_in @ p[f"{prefix}.wq"] + p[f"{prefix}.bq"], real), n_heads)

    def heads(x):
        return split_heads(x if kv_real is None else ag.scatter_rows(x, kv_real), n_heads)

    def project():
        return heads(kv_in @ p[f"{prefix}.wk"]), heads(kv_in @ p[f"{prefix}.wv"] + p[f"{prefix}.bv"])

    k, v = project() if cache is None else cache.keys_values(prefix, project)
    logits = (q @ ag.swapaxes(k, -1, -2)) * (1.0 / np.sqrt(d // n_heads))
    if bias is not None:
        logits = logits + ag.Tensor(bias)
    alpha = ag.softmax(logits, axis=-1)
    if trace is not None:
        trace.extend((trace_tag, a) for a in alpha.data.reshape(-1, *alpha.shape[-2:]))
    return merge_heads(alpha @ v)[real] @ p[f"{prefix}.wo"] + p[f"{prefix}.bo"]


def feed_forward(x: ag.Tensor, p: dict, prefix: str) -> ag.Tensor:
    return ag.relu(x @ p[f"{prefix}.w1"] + p[f"{prefix}.b1"]) @ p[f"{prefix}.w2"] + p[f"{prefix}.b2"]


def knowledge_gate(s_states: ag.Tensor, knowledge: ag.Tensor, wg: ag.Tensor,
                   mix: np.ndarray | None = None) -> ag.Tensor:
    """Per-dimension highway mix: sigmoid(S W_g) * S + (1 - .) * knowledge.

    lam is 1 exactly where the 0/1 `mix`, broadcast over S, is 0.
    """
    lam = ag.sigmoid(s_states @ wg)
    if mix is not None:
        lam = lam * mix + (1.0 - mix)
    return lam * s_states + (1.0 - lam) * knowledge


# ----------------------------------------------------------------------- model


class Model:
    """Bundles parameters, config and tokenizer; fused or plain architecture."""

    def __init__(self, params: dict[str, ag.Tensor], cfg: ModelConfig,
                 tokenizer: Tokenizer, fused: bool):
        self.params = params
        self.cfg = cfg
        self.tokenizer = tokenizer
        self.fused = fused
        # every row is the same elementwise formula, so a slice equals a shorter table bit for bit
        self.positions = sinusoidal_positions(cfg.max_len, cfg.d_model)

    # -------------------------------------------------------------- embeddings

    def _embed(self, ids: np.ndarray, offset: int, real: np.ndarray) -> ag.Tensor:
        """The packed rows of the (B, t) mask `real` of ids (B, t) at positions offset, offset + 1, ...:
        scaled embeddings plus sinusoids."""
        positions = self.positions[offset + np.nonzero(real)[-1]]
        return self.params["emb"][ids[real]] * np.sqrt(self.cfg.d_model) + ag.Tensor(positions)

    # ----------------------------------------------------------------- encoder

    def encode_setup(self, ids, dropout_rng=None, trace: list | None = None,
                     bias: np.ndarray | None = None, real: np.ndarray | None = None) -> ag.Tensor:
        """Encoder states of set-ups (B, s): the packed (n_real, d) rows of the (B, s) mask `real`.

        `bias` (B, 1, 1, s) hides padded keys. Without a mask every position is real, and
        a set-up (s,) is one row, so its states are (s, d).
        """
        ids = np.atleast_2d(np.asarray(ids, dtype=np.intp))
        if ids.shape[-1] == 0:
            raise ValueError("set-up encodes to no tokens")
        if ids.shape[-1] > self.cfg.max_len:
            raise LengthError(f"set-up has {ids.shape[-1]} tokens, max is {self.cfg.max_len}")
        p, cfg = self.params, self.cfg
        real = np.ones(ids.shape, dtype=bool) if real is None else real
        x = self._embed(ids, 0, real)
        for n in range(cfg.n_blocks):
            attn = multi_head_attention(x, x, p, f"enc.{n}.attn", cfg.n_heads, real, bias=bias,
                                        trace=trace, trace_tag="enc-self", kv_real=real)
            x = ag.layer_norm(x + _dropout(attn, cfg.dropout, dropout_rng, real),
                              p[f"enc.{n}.ln1.g"], p[f"enc.{n}.ln1.b"])
            ff = feed_forward(x, p, f"enc.{n}.ff")
            x = ag.layer_norm(x + _dropout(ff, cfg.dropout, dropout_rng, real),
                              p[f"enc.{n}.ln2.g"], p[f"enc.{n}.ln2.b"])
        return x

    # --------------------------------------------------------------- knowledge

    def encode_triples(self, triples) -> ag.Tensor | None:
        """Graph-encode a record's triples (N, d); None when there are none."""
        nodes = self._encode_graphs([triples])[0]
        return None if nodes is None else nodes[0]

    def _encode_graphs(self, triple_sets) -> tuple:
        """The records' graphs, padded: (B, N, d) node states, their (B, 1, 1, N) key bias and the
        (B, 1, 1) 0/1 has-graph mix; all None when no record has triples.

        One BiLSTM pass encodes every label of the batch. A record without
        triples is a zero-node graph, and a pad node attends only to itself.
        """
        graphs = [build_graph(list(t)) if t else KnowledgeGraph([], []) for t in triple_sets]
        sizes = [g.n_nodes for g in graphs]
        if not any(sizes):
            return None, None, None
        labels = [node.label for g in graphs for node in g.nodes]
        feats = init_node_features(labels, self.params, self.tokenizer, self.cfg)
        rows, bias, _ = _pad(np.split(np.arange(len(labels)), np.cumsum(sizes)[:-1]), 0)
        mask = np.stack([in_neighbor_mask(rows.shape[1], g.edges) for g in graphs])
        nodes = encode_knowledge(feats[rows], mask, self.params, self.cfg)
        return nodes, bias, (np.array(sizes) > 0)[:, None, None].astype(np.float64)

    # ----------------------------------------------------------------- decoder

    def decode_states(self, prefix_ids, memory: ag.Tensor, knowledge: ag.Tensor | None,
                      dropout_rng=None, trace: list | None = None, memory_bias=None,
                      knowledge_bias=None, mix=None, cache: DecoderCache | None = None,
                      real: np.ndarray | None = None, memory_real: np.ndarray | None = None) -> ag.Tensor:
        """Final decoder states of BOS-initiated prefixes (B, t): the packed (n_real, d) rows of
        the (B, t) mask `real`, computed as in `encode_setup`; biases hide padded keys.

        Without `real` every position is real, and a prefix (t,) is one row. `memory` is the
        packed rows of the mask `memory_real`; without it, the (s, d) states of one set-up.

        Fusion runs if and only if `knowledge` is given. Without it every gate is
        lam = 1 exactly and passes S through, so passing None is how a caller
        forces lambda to one.

        With a `cache`, prefix_ids are the positions after the cached ones, whose
        rows they extend, and the cache gains them; the call attends to the
        cached keys and values instead of recomputing them.
        """
        ids = np.atleast_2d(np.asarray(prefix_ids, dtype=np.intp))
        past = 0 if cache is None else cache.length
        if past + ids.shape[-1] > self.cfg.max_len:
            raise LengthError(f"prefix has {past + ids.shape[-1]} tokens, max is {self.cfg.max_len}")
        p, cfg = self.params, self.cfg
        causal = np.triu(np.full((ids.shape[-1], past + ids.shape[-1]), MASK_OFF), k=past + 1)
        real = np.ones(ids.shape, dtype=bool) if real is None else real
        if mix is not None:
            mix = np.broadcast_to(mix, real.shape + mix.shape[-1:])[real]
        y = self._embed(ids, past, real)
        for n in range(cfg.n_blocks):
            attn = multi_head_attention(y, y, p, f"dec.{n}.self", cfg.n_heads, real, bias=causal,
                                        trace=trace, trace_tag="dec-self", cache=cache, kv_real=real)
            y = ag.layer_norm(y + _dropout(attn, cfg.dropout, dropout_rng, real),
                              p[f"dec.{n}.ln1.g"], p[f"dec.{n}.ln1.b"])
            cross = multi_head_attention(y, memory, p, f"dec.{n}.cross", cfg.n_heads, real,
                                         bias=memory_bias, trace=trace, trace_tag="dec-cross",
                                         cache=cache, kv_real=memory_real)
            s_states = ag.layer_norm(y + _dropout(cross, cfg.dropout, dropout_rng, real),
                                     p[f"dec.{n}.ln2.g"], p[f"dec.{n}.ln2.b"])
            y = s_states
            if knowledge is not None:
                fused_attn = multi_head_attention(s_states, knowledge, p, f"dec.{n}.fuse", cfg.n_heads,
                                                  real, bias=knowledge_bias, trace=trace,
                                                  trace_tag="fusion", cache=cache)
                y = knowledge_gate(s_states, fused_attn, p[f"dec.{n}.gate.wg"], mix)
            ff = feed_forward(y, p, f"dec.{n}.ff")
            y = ag.layer_norm(y + _dropout(ff, cfg.dropout, dropout_rng, real),
                              p[f"dec.{n}.ln3.g"], p[f"dec.{n}.ln3.b"])
        return y

    def logits(self, states: ag.Tensor) -> ag.Tensor:
        return states @ ag.swapaxes(self.params["out.w"], 0, 1)

    def decode_step(self, prefix_ids, memory: ag.Tensor, knowledge: ag.Tensor | None,
                    cache: DecoderCache | None = None) -> np.ndarray:
        """Next-token distribution (sums to 1) after a prefix (t,), or one row per prefix of (k, t).

        With a `cache`, prefix_ids are the positions after the cached ones, as in `decode_states`;
        only a prefix from the first position begins with BOS.
        """
        ids = np.asarray(prefix_ids, dtype=np.intp)
        if not (cache and cache.length) and (not ids.shape[-1] or np.any(ids[..., 0] != self.tokenizer.bos_id)):
            raise ValueError("prefix must begin with BOS")
        t = ids.shape[-1]
        states = self.decode_states(ids, memory, knowledge, cache=cache)
        return ag.softmax(self.logits(states[t - 1::t]), axis=-1).data.reshape(ids.shape[:-1] + (-1,))

    # -------------------------------------------------------------------- loss

    def loss_sum(self, batch: list[Example], dropout_rng=None) -> tuple[ag.Tensor, int]:
        """Teacher-forced summed cross-entropy and token count of a batch, in one packed forward.

        Each tgt runs BOS ... EOS. Pads trail and no layer computes them: every layer but the
        attention logits runs on the packed rows of the real set-up tokens and of the decoder
        positions whose target is within its tgt; attention masks padded set-up and node keys.
        The loss skips PAD targets, and an example without triples keeps lam = 1 exactly, as
        when alone.
        """
        pad = self.tokenizer.pad_id
        src, memory_bias, src_real = _pad([ex.src for ex in batch], pad)
        tgt, _, tgt_real = _pad([ex.tgt for ex in batch], pad)
        memory = self.encode_setup(src, dropout_rng=dropout_rng, bias=memory_bias, real=src_real)
        knowledge, knowledge_bias, mix = (self._encode_graphs([ex.triples for ex in batch]) if self.fused
                                          else (None,) * 3)
        real = tgt_real[:, 1:]
        states = self.decode_states(tgt[:, :-1], memory, knowledge,
                                    dropout_rng=dropout_rng, memory_bias=memory_bias,
                                    knowledge_bias=knowledge_bias, mix=mix, real=real, memory_real=src_real)
        targets = tgt[:, 1:][real]
        rows = targets != pad
        loss = ag.cross_entropy_sum(self.logits(states[rows]), targets[rows])
        return loss, int(rows.sum())

    def sequence_loss(self, src_ids, tgt_ids, triples=(), dropout_rng=None,
                      force_lambda_one: bool = False) -> tuple[ag.Tensor, int]:
        """loss_sum of the one example (src_ids, tgt_ids, triples).

        `force_lambda_one` drops the triples, so every gate is lam = 1 exactly.
        """
        triples = () if force_lambda_one else tuple(triples)
        return self.loss_sum([Example(src_ids, tgt_ids, triples)], dropout_rng=dropout_rng)


# ------------------------------------------------------------------ checkpoints


def save_checkpoint(path: str | Path, model: Model, step: int = 0, opt_state: dict | None = None,
                    rng_state: dict | None = None) -> None:
    """Single-file checkpoint: JSON manifest + named float64 tensors (npz), Adam moments included.

    The file is streamed to a temporary file beside `path`, then renamed over it, so a failed
    or interrupted save leaves the previous checkpoint in place.
    """
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "fused": model.fused,
        "config": dataclasses.asdict(model.cfg),
        "partition": partition_names(model.params),
        "step": step,
        "rng_state": rng_state,
        "tokenizer": model.tokenizer.dumps(),
        "adam_t": opt_state["t"] if opt_state else 0,
    }
    arrays = {f"param.{k}": v.data for k, v in model.params.items()}
    if opt_state:
        arrays.update({f"adam_m.{k}": v for k, v in opt_state["m"].items()})
        arrays.update({f"adam_v.{k}": v for k, v in opt_state["v"].items()})
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            np.savez(fh, manifest=np.array(json.dumps(manifest)), **arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> tuple[Model, dict | None, int, dict | None]:
    """Returns (model, opt_state|None, step, rng_state|None); other format versions are refused."""
    with np.load(path, allow_pickle=False) as data:
        manifest = json.loads(str(data["manifest"]))
        if manifest.get("format_version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version")
        params = {}
        opt_m, opt_v = {}, {}
        for key in data.files:
            if key.startswith("param."):
                params[key[len("param."):]] = ag.Tensor(data[key], requires_grad=True)
            elif key.startswith("adam_m."):
                opt_m[key[len("adam_m."):]] = data[key]
            elif key.startswith("adam_v."):
                opt_v[key[len("adam_v."):]] = data[key]
    model = Model(params, ModelConfig(**manifest["config"]), Tokenizer.loads(manifest["tokenizer"]),
                  fused=manifest["fused"])
    opt_state = {"m": opt_m, "v": opt_v, "t": manifest["adam_t"]} if opt_m else None
    return model, opt_state, manifest["step"], manifest["rng_state"]
