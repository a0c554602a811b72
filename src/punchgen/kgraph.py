"""Knowledge graphs from triple sets.

Each triple (s, r, o) contributes an s -> r -> o chain plus a reverse
relation node r' with o -> r' -> s, so object information can flow back
into the subject. Co-referential entities (same trimmed label) fold
into one node; relation nodes are never folded. Reverse-relation labels
carry the literal "<r>" marker prefix.

Initial node features come from a bidirectional LSTM over the label's
subword tokens: the two last hidden states are concatenated and
projected to the model width. The encoder's parameters train jointly
with the rest of the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .config import ModelConfig
from .tokenizer import REV, Tokenizer

ENTITY = "entity"
RELATION = "relation"
REVERSE = "reverse"

_DOT_COLORS = {ENTITY: "red", RELATION: "blue", REVERSE: "green"}


@dataclass(frozen=True)
class Node:
    id: int
    kind: str
    label: str


@dataclass
class KnowledgeGraph:
    nodes: list[Node]
    edges: list[tuple[int, int]]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def build_graph(triples: list[tuple[str, str, str]]) -> KnowledgeGraph:
    """Fold entities, add relation + reverse-relation nodes, wire 4 edges per triple.

    Node ids follow first appearance in the order s, r, r', o per triple.
    """
    if not triples:
        raise ValueError("cannot build a graph from an empty triple set")
    nodes: list[Node] = []
    edges: list[tuple[int, int]] = []
    entity_ids: dict[str, int] = {}

    def entity(label: str) -> int:
        label = label.strip()
        if label not in entity_ids:
            entity_ids[label] = len(nodes)
            nodes.append(Node(len(nodes), ENTITY, label))
        return entity_ids[label]

    def fresh(kind: str, label: str) -> int:
        nodes.append(Node(len(nodes), kind, label))
        return len(nodes) - 1

    for s, r, o in triples:
        s_id = entity(s)
        r_id = fresh(RELATION, r.strip())
        rev_id = fresh(REVERSE, REV + r.strip())
        o_id = entity(o)
        edges.extend([(s_id, r_id), (r_id, o_id), (o_id, rev_id), (rev_id, s_id)])
    return KnowledgeGraph(nodes=nodes, edges=edges)


def init_node_params(rng: np.random.Generator, vocab_size: int, cfg: ModelConfig) -> dict[str, ag.Tensor]:
    """Parameters of the recurrent node-feature initializer."""
    h, d = cfg.d_rnn, cfg.d_model
    params = {"kinit.emb": ag.parameter(rng, (vocab_size, d), name="kinit.emb")}
    for side in ("fw", "bw"):
        params[f"kinit.{side}.w_ih"] = ag.parameter(rng, (d, 4 * h), name=f"kinit.{side}.w_ih")
        params[f"kinit.{side}.w_hh"] = ag.parameter(rng, (h, 4 * h), name=f"kinit.{side}.w_hh")
        params[f"kinit.{side}.b"] = ag.Tensor(np.zeros(4 * h), requires_grad=True, name=f"kinit.{side}.b")
    params["kinit.proj"] = ag.parameter(rng, (2 * h, d), name="kinit.proj")
    return params


def _lstm_last_states(xw: ag.Tensor, lengths: np.ndarray, w_hh: ag.Tensor, b: ag.Tensor,
                      h_dim: int) -> ag.Tensor:
    """Last hidden state (L, h_dim) of each row of an LSTM over input projections xw (L, T, 4h).

    Rows are sorted longest first, so the rows still running at step t
    form a prefix of the batch; a row's state is collected as it finishes.
    """
    h = c = ag.Tensor(np.zeros((lengths.size, h_dim)))
    finished = []
    for t in range(int(lengths[0])):
        n = int(np.count_nonzero(lengths > t))
        if n < h.shape[0]:
            finished.append(h[n:])
            h, c = h[:n], c[:n]
        pre = xw[:n, t] + h @ w_hh + b
        i = ag.sigmoid(pre[:, 0 * h_dim:1 * h_dim])
        f = ag.sigmoid(pre[:, 1 * h_dim:2 * h_dim])
        g = ag.tanh(pre[:, 2 * h_dim:3 * h_dim])
        o = ag.sigmoid(pre[:, 3 * h_dim:4 * h_dim])
        c = f * c + i * g
        h = o * ag.tanh(c)
    finished.append(h)
    return ag.concat(finished[::-1], axis=0)


def init_node_features(labels: list[str], params: dict, tokenizer: Tokenizer,
                       cfg: ModelConfig) -> ag.Tensor:
    """Initial feature rows (len(labels), d_model) of node labels; identical labels share one encoding.

    The distinct labels (of one graph or a batch of graphs) run through
    each LSTM direction as one batch, sorted longest first with padded
    token ids; the backward direction reads each label reversed within
    its own length.
    """
    ids = {label: tokenizer.encode(label) for label in dict.fromkeys(labels)}
    order = sorted(ids, key=lambda label: -len(ids[label]))
    lengths = np.array([len(ids[label]) for label in order])
    if lengths[-1] == 0:
        raise ValueError(f"label {order[-1]!r} produced no tokens")
    steps = np.arange(lengths[0])
    running = steps < lengths[:, None]
    fw = np.zeros(running.shape, dtype=np.intp)
    fw[running] = np.concatenate([ids[label] for label in order])
    bw = np.take_along_axis(fw, np.where(running, lengths[:, None] - 1 - steps, 0), axis=1)
    last = [
        _lstm_last_states(params["kinit.emb"][tokens] @ params[f"kinit.{side}.w_ih"],
                          lengths, params[f"kinit.{side}.w_hh"], params[f"kinit.{side}.b"], cfg.d_rnn)
        for side, tokens in (("fw", fw), ("bw", bw))
    ]
    row = {label: r for r, label in enumerate(order)}
    return (ag.concat(last, axis=1) @ params["kinit.proj"])[np.array([row[label] for label in labels])]


def to_dot(graph: KnowledgeGraph) -> str:
    """Graphviz text with entity/relation/reverse nodes colored red/blue/green."""
    lines = ["digraph knowledge {"]
    for node in graph.nodes:
        label = node.label.replace('"', '\\"')
        lines.append(
            f'  n{node.id} [label="{label}", color={_DOT_COLORS[node.kind]}, '
            f'shape={"box" if node.kind == ENTITY else "ellipse"}];'
        )
    for src, dst in graph.edges:
        lines.append(f"  n{src} -> n{dst};")
    lines.append("}")
    return "\n".join(lines) + "\n"
