"""Graph attention over knowledge-graph node features.

A node attends to its in-neighbors plus itself. Per head m, the
connection score of node i toward neighbor j is softmax over
(W_K h_j)^T (W_Q h_i); the new feature is the concatenation over heads
of the activated, attention-weighted sum of value-projected neighbors.
No residuals, no output projection: heads concatenate straight back to
the model width.

Each layer stores its weights stacked over heads as gat.{l}.{wq,wk,wv},
each (d_model, n_heads * d_head); head m owns columns
m*d_head:(m+1)*d_head, and all heads run as one batched product.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .config import ModelConfig

MASK_OFF = -1e30
GAT_WEIGHTS = ("wq", "wk", "wv")
LEAKY_SLOPE = 0.2  # of the LeakyReLU on each head's output


def init_gat_params(rng: np.random.Generator, cfg: ModelConfig) -> dict[str, ag.Tensor]:
    """Xavier blocks of (d_model, d_head) drawn in (layer, head, weight) order, then stacked."""
    d, dh, heads = cfg.d_model, cfg.d_head, cfg.n_heads
    bound = ag.xavier_bound(d, dh)
    params = {}
    for layer in range(cfg.gat_layers):
        blocks = rng.uniform(-bound, bound, size=(heads, len(GAT_WEIGHTS), d, dh))
        for i, w in enumerate(GAT_WEIGHTS):
            stacked = blocks[:, i].transpose(1, 0, 2).reshape(d, heads * dh)
            params[f"gat.{layer}.{w}"] = ag.Tensor(stacked, requires_grad=True)
    return params


def split_heads(x: ag.Tensor, n_heads: int) -> ag.Tensor:
    """(..., n, n_heads * d_head) -> (..., n_heads, n, d_head)."""
    return ag.swapaxes(ag.reshape(x, (*x.shape[:-1], n_heads, -1)), -3, -2)


def merge_heads(x: ag.Tensor) -> ag.Tensor:
    """(..., n_heads, n, d_head) -> (..., n, n_heads * d_head), heads side by side."""
    return ag.reshape(ag.swapaxes(x, -3, -2), (*x.shape[:-3], x.shape[-2], -1))


def in_neighbor_mask(n_nodes: int, edges: list[tuple[int, int]]) -> np.ndarray:
    """mask[i, j] is True when j is an in-neighbor of i or j == i."""
    mask = np.eye(n_nodes, dtype=bool)
    for src, dst in edges:
        mask[dst, src] = True
    return mask


def gat_attention(h: ag.Tensor, layer: dict, mask: np.ndarray, n_heads: int) -> ag.Tensor:
    """Attention (..., n_heads, n, n) under a (..., n, n) mask; row i of a head is a distribution on N(i)."""
    q = split_heads(h @ layer["wq"], n_heads)
    k = split_heads(h @ layer["wk"], n_heads)
    logits = q @ ag.swapaxes(k, -1, -2) + ag.Tensor(np.where(mask, 0.0, MASK_OFF)[..., None, :, :])
    return ag.softmax(logits, axis=-1)


def gat_layer(h: ag.Tensor, layer: dict, mask: np.ndarray, n_heads: int) -> ag.Tensor:
    """One multi-head update; heads concatenate back to width d."""
    alpha = gat_attention(h, layer, mask, n_heads)
    return merge_heads(ag.leaky_relu(alpha @ split_heads(h @ layer["wv"], n_heads), LEAKY_SLOPE))


def _layers(params: dict, cfg: ModelConfig) -> list[dict]:
    return [{w: params[f"gat.{layer}.{w}"] for w in GAT_WEIGHTS} for layer in range(cfg.gat_layers)]


def encode_knowledge(h: ag.Tensor, mask: np.ndarray, params: dict, cfg: ModelConfig) -> ag.Tensor:
    """Apply the configured attention layers to node features h (..., n, d) under an in_neighbor_mask."""
    for layer in _layers(params, cfg):
        h = gat_layer(h, layer, mask, cfg.n_heads)
    return h
