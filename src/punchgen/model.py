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

Parameters are a flat name -> Tensor dict. Knowledge-side names
(kinit.*, gat.*, dec.*.fuse.*, dec.*.gate.*) form the knowledge_only
partition; everything else is pretrainable and transplantable from a
plain pretrained checkpoint.
"""

from __future__ import annotations

import dataclasses
import io
import json
from pathlib import Path

import numpy as np

from . import autograd as ag
from .config import ModelConfig
from .graph_encoder import encode_knowledge, init_gat_params, merge_heads, split_heads
from .kgraph import build_graph, init_node_features, init_node_params
from .tokenizer import Tokenizer

MASK_OFF = -1e30
CHECKPOINT_VERSION = 2


class LengthError(Exception):
    """Input longer than the configured maximum."""


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
    out = {}
    for w in ("wq", "wk", "wv", "wo"):
        out[f"{prefix}.{w}"] = ag.parameter(rng, (d, d), name=f"{prefix}.{w}")
        out[f"{prefix}.b{w[1]}"] = ag.Tensor(np.zeros(d), requires_grad=True, name=f"{prefix}.b{w[1]}")
    return out


def _ln_params(prefix: str, d: int) -> dict[str, ag.Tensor]:
    return {
        f"{prefix}.g": ag.Tensor(np.ones(d), requires_grad=True, name=f"{prefix}.g"),
        f"{prefix}.b": ag.Tensor(np.zeros(d), requires_grad=True, name=f"{prefix}.b"),
    }


def _ff_params(rng, prefix: str, d: int, d_ff: int) -> dict[str, ag.Tensor]:
    return {
        f"{prefix}.w1": ag.parameter(rng, (d, d_ff), name=f"{prefix}.w1"),
        f"{prefix}.b1": ag.Tensor(np.zeros(d_ff), requires_grad=True, name=f"{prefix}.b1"),
        f"{prefix}.w2": ag.parameter(rng, (d_ff, d), name=f"{prefix}.w2"),
        f"{prefix}.b2": ag.Tensor(np.zeros(d), requires_grad=True, name=f"{prefix}.b2"),
    }


def init_params(rng: np.random.Generator, cfg: ModelConfig, vocab_size: int,
                fused: bool) -> dict[str, ag.Tensor]:
    """All learnable tensors; `fused` adds the knowledge-side partition."""
    d, d_ff = cfg.d_model, cfg.d_ff
    params: dict[str, ag.Tensor] = {
        "emb": ag.parameter(rng, (vocab_size, d), name="emb"),
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
            params[f"dec.{n}.gate.wg"] = ag.parameter(rng, (d, d), name=f"dec.{n}.gate.wg")
        params.update(_ff_params(rng, f"dec.{n}.ff", d, d_ff))
        params.update(_ln_params(f"dec.{n}.ln3", d))
    params["out.w"] = ag.parameter(rng, (vocab_size, d), name="out.w")
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


def _dropout(t: ag.Tensor, p: float, rng: np.random.Generator | None) -> ag.Tensor:
    if rng is None or p <= 0.0:
        return t
    mask = (rng.random(t.shape) >= p) / (1.0 - p)
    return t * ag.Tensor(mask)


def multi_head_attention(q_in: ag.Tensor, kv_in: ag.Tensor, p: dict, prefix: str,
                         n_heads: int, causal: bool = False,
                         trace: list | None = None, trace_tag: str = "") -> ag.Tensor:
    """Multi-head attention of q_in (..., t, d) over kv_in (..., s, d); batch axes broadcast."""
    t, d = q_in.shape[-2:]
    s = kv_in.shape[-2]
    q = split_heads(q_in @ p[f"{prefix}.wq"] + p[f"{prefix}.bq"], n_heads)
    k = split_heads(kv_in @ p[f"{prefix}.wk"] + p[f"{prefix}.bk"], n_heads)
    v = split_heads(kv_in @ p[f"{prefix}.wv"] + p[f"{prefix}.bv"], n_heads)
    logits = (q @ ag.swapaxes(k, -1, -2)) * (1.0 / np.sqrt(d // n_heads))
    if causal:
        logits = logits + ag.Tensor(np.triu(np.full((t, s), MASK_OFF), k=1))
    alpha = ag.softmax(logits, axis=-1)
    if trace is not None:
        trace.extend((trace_tag, a) for a in alpha.data.reshape(-1, t, s))
    return merge_heads(alpha @ v) @ p[f"{prefix}.wo"] + p[f"{prefix}.bo"]


def feed_forward(x: ag.Tensor, p: dict, prefix: str) -> ag.Tensor:
    return ag.relu(x @ p[f"{prefix}.w1"] + p[f"{prefix}.b1"]) @ p[f"{prefix}.w2"] + p[f"{prefix}.b2"]


def knowledge_gate(s_states: ag.Tensor, knowledge: ag.Tensor, wg: ag.Tensor) -> ag.Tensor:
    """Per-dimension highway mix: sigmoid(S W_g) * S + (1 - .) * knowledge."""
    lam = ag.sigmoid(s_states @ wg)
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

    # -------------------------------------------------------------- embeddings

    def _embed(self, ids: np.ndarray) -> ag.Tensor:
        emb = ag.embedding(self.params["emb"], ids) * np.sqrt(self.cfg.d_model)
        return emb + ag.Tensor(sinusoidal_positions(ids.shape[-1], self.cfg.d_model))

    # ----------------------------------------------------------------- encoder

    def encode_setup(self, ids, dropout_rng=None, trace: list | None = None) -> ag.Tensor:
        ids = np.asarray(ids, dtype=np.intp)
        if len(ids) > self.cfg.max_len:
            raise LengthError(f"set-up has {len(ids)} tokens, max is {self.cfg.max_len}")
        p, cfg = self.params, self.cfg
        x = self._embed(ids)
        for n in range(cfg.n_blocks):
            attn = multi_head_attention(x, x, p, f"enc.{n}.attn", cfg.n_heads,
                                        trace=trace, trace_tag="enc-self")
            x = ag.layer_norm(x + _dropout(attn, cfg.dropout, dropout_rng),
                              p[f"enc.{n}.ln1.g"], p[f"enc.{n}.ln1.b"])
            ff = feed_forward(x, p, f"enc.{n}.ff")
            x = ag.layer_norm(x + _dropout(ff, cfg.dropout, dropout_rng),
                              p[f"enc.{n}.ln2.g"], p[f"enc.{n}.ln2.b"])
        return x

    # --------------------------------------------------------------- knowledge

    def encode_triples(self, triples) -> ag.Tensor | None:
        """Graph-encode a record's triples; None when there are none."""
        if not triples:
            return None
        graph = build_graph(list(triples))
        graph.features = init_node_features(graph, self.params, self.tokenizer, self.cfg)
        return encode_knowledge(graph, self.params, self.cfg)

    # ----------------------------------------------------------------- decoder

    def decode_states(self, prefix_ids, memory: ag.Tensor, knowledge: ag.Tensor | None,
                      force_lambda_one: bool = False, dropout_rng=None,
                      trace: list | None = None) -> ag.Tensor:
        """Final decoder states (..., t, d) for BOS-initiated prefixes (..., t)."""
        ids = np.asarray(prefix_ids, dtype=np.intp)
        if ids.shape[-1] > self.cfg.max_len:
            raise LengthError(f"prefix has {ids.shape[-1]} tokens, max is {self.cfg.max_len}")
        p, cfg = self.params, self.cfg
        use_fusion = self.fused and knowledge is not None and not force_lambda_one
        y = self._embed(ids)
        for n in range(cfg.n_blocks):
            attn = multi_head_attention(y, y, p, f"dec.{n}.self", cfg.n_heads, causal=True,
                                        trace=trace, trace_tag="dec-self")
            y = ag.layer_norm(y + _dropout(attn, cfg.dropout, dropout_rng),
                              p[f"dec.{n}.ln1.g"], p[f"dec.{n}.ln1.b"])
            cross = multi_head_attention(y, memory, p, f"dec.{n}.cross", cfg.n_heads,
                                         trace=trace, trace_tag="dec-cross")
            s_states = ag.layer_norm(y + _dropout(cross, cfg.dropout, dropout_rng),
                                     p[f"dec.{n}.ln2.g"], p[f"dec.{n}.ln2.b"])
            if use_fusion:
                fused_attn = multi_head_attention(s_states, knowledge, p, f"dec.{n}.fuse",
                                                  cfg.n_heads, trace=trace, trace_tag="fusion")
                y = knowledge_gate(s_states, fused_attn, p[f"dec.{n}.gate.wg"])
            else:
                # lam == 1 exactly: the gate passes S through untouched
                y = s_states
            ff = feed_forward(y, p, f"dec.{n}.ff")
            y = ag.layer_norm(y + _dropout(ff, cfg.dropout, dropout_rng),
                              p[f"dec.{n}.ln3.g"], p[f"dec.{n}.ln3.b"])
        return y

    def logits(self, states: ag.Tensor) -> ag.Tensor:
        return states @ ag.transpose(self.params["out.w"])

    def decode_step(self, prefix_ids, memory: ag.Tensor, knowledge: ag.Tensor | None,
                    force_lambda_one: bool = False) -> np.ndarray:
        """Next-token distribution (sums to 1) after a prefix (t,), or one row per prefix of (k, t)."""
        ids = np.asarray(prefix_ids, dtype=np.intp)
        if ids.shape[-1] == 0 or np.any(ids[..., 0] != self.tokenizer.bos_id):
            raise ValueError("prefix must begin with BOS")
        states = self.decode_states(ids, memory, knowledge, force_lambda_one=force_lambda_one)
        # a (1, d) row per prefix gives each product the 1-D call's shape, so rows match it bit for bit
        dist = ag.softmax(self.logits(states[..., -1:, :]), axis=-1)
        return dist.data[..., 0, :]

    # -------------------------------------------------------------------- loss

    def sequence_loss(self, src_ids, tgt_ids, triples=(), dropout_rng=None,
                      force_lambda_one: bool = False) -> tuple[ag.Tensor, int]:
        """Teacher-forced summed cross-entropy and the token count.

        tgt_ids must start with BOS and end with EOS; PAD targets are
        masked out of the loss.
        """
        memory = self.encode_setup(src_ids, dropout_rng=dropout_rng)
        knowledge = self.encode_triples(triples) if self.fused else None
        dec_in = np.asarray(tgt_ids[:-1], dtype=np.intp)
        targets = np.asarray(tgt_ids[1:], dtype=np.intp)
        states = self.decode_states(dec_in, memory, knowledge,
                                    dropout_rng=dropout_rng,
                                    force_lambda_one=force_lambda_one)
        rows = np.nonzero(targets != self.tokenizer.pad_id)[0]
        logits = self.logits(states)
        loss = ag.cross_entropy_sum(ag.take_slice(logits, rows), targets[rows])
        return loss, len(rows)


# ------------------------------------------------------------------ checkpoints


def save_params(path: str | Path, params: dict[str, ag.Tensor], cfg: ModelConfig,
                tokenizer: Tokenizer, fused: bool, step: int = 0,
                opt_state: dict | None = None, rng_state: dict | None = None) -> None:
    """Single-file checkpoint: JSON manifest + named float64 tensors (npz)."""
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "fused": fused,
        "config": dataclasses.asdict(cfg),
        "partition": partition_names(params),
        "step": step,
        "rng_state": rng_state,
        "tokenizer": tokenizer.dumps(),
        "adam_t": opt_state["t"] if opt_state else 0,
    }
    arrays = {f"param.{k}": v.data for k, v in params.items()}
    if opt_state:
        arrays.update({f"adam_m.{k}": v for k, v in opt_state["m"].items()})
        arrays.update({f"adam_v.{k}": v for k, v in opt_state["v"].items()})
    buf = io.BytesIO()
    np.savez(buf, manifest=np.array(json.dumps(manifest)), **arrays)
    Path(path).write_bytes(buf.getvalue())


def load_params(path: str | Path):
    """Returns (params, cfg, tokenizer, manifest, opt_state|None)."""
    with np.load(path, allow_pickle=False) as data:
        manifest = json.loads(str(data["manifest"]))
        if manifest.get("format_version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version")
        params = {}
        opt_m, opt_v = {}, {}
        for key in data.files:
            if key.startswith("param."):
                name = key[len("param."):]
                params[name] = ag.Tensor(data[key], requires_grad=True, name=name)
            elif key.startswith("adam_m."):
                opt_m[key[len("adam_m."):]] = data[key]
            elif key.startswith("adam_v."):
                opt_v[key[len("adam_v."):]] = data[key]
    cfg = ModelConfig(**manifest["config"])
    tokenizer = Tokenizer.loads(manifest["tokenizer"])
    opt_state = {"m": opt_m, "v": opt_v, "t": manifest.get("adam_t", 0)} if opt_m else None
    return params, cfg, tokenizer, manifest, opt_state


def load_model(path: str | Path) -> Model:
    params, cfg, tokenizer, manifest, _ = load_params(path)
    return Model(params, cfg, tokenizer, fused=manifest["fused"])
