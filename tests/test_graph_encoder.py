from dataclasses import dataclass

import numpy as np

from punchgen import autograd as ag
from punchgen.config import ModelConfig
from punchgen.graph_encoder import (
    GAT_WEIGHTS,
    LEAKY_SLOPE,
    encode_knowledge,
    gat_attention,
    gat_layer,
    in_neighbor_mask,
    init_gat_params,
)

CFG = ModelConfig(d_model=4, n_blocks=1, n_heads=2, d_ff=8, vocab_size=64,
                  gat_layers=2, dropout=0.0)


@dataclass
class Graph:
    """Initial node features and the edges they attend along."""
    n_nodes: int
    edges: list
    features: ag.Tensor


def make_graph(n_nodes, edges, rng=None, features=None):
    if features is None:
        features = (rng or np.random.default_rng(0)).normal(size=(n_nodes, CFG.d_model))
    return Graph(n_nodes, list(edges), ag.Tensor(features, requires_grad=True))


def encode(g, params, cfg):
    return encode_knowledge(g.features, in_neighbor_mask(g.n_nodes, g.edges), params, cfg)


def random_layer(rng, cfg=CFG):
    """Stacked weights: head m owns columns m*d_head:(m+1)*d_head."""
    return {w: ag.Tensor(rng.normal(size=(cfg.d_model, cfg.n_heads * cfg.d_head)), requires_grad=True)
            for w in GAT_WEIGHTS}


def head_weights(layer, cfg=CFG):
    """Per-head (d_model, d_head) column blocks of a stacked layer."""
    return [{w: t.data[:, m * cfg.d_head:(m + 1) * cfg.d_head] for w, t in layer.items()}
            for m in range(cfg.n_heads)]


def dense_softmax_oracle(h, layer, mask):
    """Reference attention: explicit -inf masking and per-row softmax, head by head."""
    n = h.shape[0]
    out = []
    for head in head_weights(layer):
        q = h @ head["wq"]
        k = h @ head["wk"]
        logits = np.full((n, n), -np.inf)
        for i in range(n):
            for j in range(n):
                if mask[i, j]:
                    logits[i, j] = np.dot(k[j], q[i])
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        out.append(e / e.sum(axis=1, keepdims=True))
    return out


def layer_oracle(h, layer, mask):
    """Straight-line reference for one attention layer."""
    alphas = dense_softmax_oracle(h, layer, mask)
    heads = []
    for head, alpha in zip(head_weights(layer), alphas):
        v = h @ head["wv"]
        pre = alpha @ v
        heads.append(np.where(pre > 0, pre, LEAKY_SLOPE * pre))
    return np.concatenate(heads, axis=1)


class TestAttention:
    def test_isolated_node_attends_to_itself(self):
        g = make_graph(1, [])
        mask = in_neighbor_mask(1, [])
        layer = random_layer(np.random.default_rng(1))
        alphas = gat_attention(g.features, layer, mask, CFG.n_heads)
        assert alphas.shape == (CFG.n_heads, 1, 1)
        np.testing.assert_allclose(alphas.data, 1.0)

    def test_zero_params_give_uniform(self):
        g = make_graph(3, [(1, 0), (2, 0)])
        mask = in_neighbor_mask(3, [(1, 0), (2, 0)])
        layer = {w: ag.Tensor(np.zeros((CFG.d_model, CFG.d_model))) for w in GAT_WEIGHTS}
        for alpha in gat_attention(g.features, layer, mask, CFG.n_heads).data:
            np.testing.assert_allclose(alpha[0], [1 / 3, 1 / 3, 1 / 3])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]
        g = make_graph(5, edges, rng)
        mask = in_neighbor_mask(5, edges)
        layer = random_layer(rng)
        alphas = gat_attention(g.features, layer, mask, CFG.n_heads)
        want = dense_softmax_oracle(g.features.data, layer, mask)
        assert alphas.shape == (CFG.n_heads, 5, 5)
        for got, expect in zip(alphas.data, want):
            np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_rows_normalize(self):
        rng = np.random.default_rng(3)
        edges = [(0, 1), (2, 1), (1, 0)]
        g = make_graph(3, edges, rng)
        mask = in_neighbor_mask(3, edges)
        alphas = gat_attention(g.features, random_layer(rng), mask, CFG.n_heads)
        np.testing.assert_allclose(alphas.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_non_neighbors_get_zero_weight(self):
        rng = np.random.default_rng(4)
        edges = [(0, 1)]
        g = make_graph(3, edges, rng)
        mask = in_neighbor_mask(3, edges)
        for alpha in gat_attention(g.features, random_layer(rng), mask, CFG.n_heads).data:
            assert alpha[1, 2] == 0.0
            assert alpha[2, 0] == 0.0


class TestLayer:
    def test_isolated_node_identity_passthrough(self):
        rng = np.random.default_rng(5)
        g = make_graph(1, [], rng)
        layer = {"wq": ag.Tensor(np.zeros((CFG.d_model, CFG.d_model))),
                 "wk": ag.Tensor(np.zeros((CFG.d_model, CFG.d_model))),
                 "wv": ag.Tensor(np.eye(CFG.d_model))}
        out = gat_layer(g.features, layer, in_neighbor_mask(1, []), CFG.n_heads)
        np.testing.assert_allclose(out.data, ag.leaky_relu(g.features, LEAKY_SLOPE).data)

    def test_equal_features_stay_equal(self):
        rng = np.random.default_rng(6)
        feats = np.tile(rng.normal(size=(1, CFG.d_model)), (4, 1))
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        g = make_graph(4, edges, features=feats)
        out = gat_layer(g.features, random_layer(rng), in_neighbor_mask(4, edges), CFG.n_heads)
        for row in out.data[1:]:
            np.testing.assert_allclose(row, out.data[0], atol=1e-12)

    def test_matches_layer_oracle(self):
        rng = np.random.default_rng(7)
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
        g = make_graph(6, edges, rng)
        mask = in_neighbor_mask(6, edges)
        layer = random_layer(rng)
        out = gat_layer(g.features, layer, mask, CFG.n_heads)
        np.testing.assert_allclose(out.data, layer_oracle(g.features.data, layer, mask),
                                   atol=1e-6)


class TestEncodeKnowledge:
    def _graph_and_params(self, seed=8, gat_layers=2):
        rng = np.random.default_rng(seed)
        cfg = ModelConfig(d_model=4, n_blocks=1, n_heads=2, d_ff=8, vocab_size=64,
                          gat_layers=gat_layers, dropout=0.0)
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 2), (5, 4)]
        g = make_graph(6, edges, rng)
        params = init_gat_params(rng, cfg)
        return g, params, cfg

    def test_init_stacks_head_blocks_in_draw_order(self):
        # one (d_model, d_head) Xavier block per (layer, head, weight), in that order
        cfg = ModelConfig(d_model=8, n_blocks=1, n_heads=4, d_ff=8, vocab_size=64, gat_layers=2)
        params = init_gat_params(np.random.default_rng(3), cfg)
        rng = np.random.default_rng(3)
        dh = cfg.d_head
        for l in range(cfg.gat_layers):
            for m in range(cfg.n_heads):
                for w in ("wq", "wk", "wv"):
                    block = ag.xavier_uniform(rng, (cfg.d_model, dh))
                    np.testing.assert_array_equal(params[f"gat.{l}.{w}"].data[:, m * dh:(m + 1) * dh],
                                                  block)

    def test_zero_layers_is_identity(self):
        g, params, _ = self._graph_and_params()
        cfg0 = ModelConfig(d_model=4, n_blocks=1, n_heads=2, d_ff=8, vocab_size=64,
                           gat_layers=0, dropout=0.0)
        out = encode(g, {}, cfg0)
        np.testing.assert_array_equal(out.data, g.features.data)

    def test_two_layers_compose(self):
        g, params, cfg = self._graph_and_params()
        mask = in_neighbor_mask(g.n_nodes, g.edges)
        assert sorted(params) == [f"gat.{l}.{w}" for l in range(2) for w in sorted(GAT_WEIGHTS)]
        assert params["gat.0.wq"].shape == (cfg.d_model, cfg.n_heads * cfg.d_head)
        layers = [{w: params[f"gat.{l}.{w}"] for w in GAT_WEIGHTS} for l in range(2)]
        h1 = layer_oracle(g.features.data, layers[0], mask)
        h2 = layer_oracle(h1, layers[1], mask)
        out = encode(g, params, cfg)
        np.testing.assert_allclose(out.data, h2, atol=1e-6)

    def test_gradients_match_finite_differences(self):
        g, params, cfg = self._graph_and_params(seed=9)
        w = np.random.default_rng(10).normal(size=(6, 4))

        def loss_value():
            with ag.no_grad():
                return float((encode(g, params, cfg).data * w).sum())

        (encode(g, params, cfg) * ag.Tensor(w)).sum().backward()
        h = 1e-6
        for name, p in list(params.items()) + [("H0", g.features)]:
            flat = p.data.reshape(-1)
            idx = np.random.default_rng(11).choice(flat.size, size=min(6, flat.size), replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                fp = loss_value()
                flat[i] = orig - h
                fm = loss_value()
                flat[i] = orig
                fd = (fp - fm) / (2 * h)
                an = p.grad.reshape(-1)[i]
                denom = max(abs(fd), abs(an), 1e-8)
                assert abs(fd - an) / denom < 1e-4, f"{name}[{i}]: fd={fd} analytic={an}"

    def test_locality_within_l_hops(self):
        g, params, cfg = self._graph_and_params(seed=12)
        base = encode(g, params, cfg).data.copy()
        # node 5 reaches node 4 in one hop, node 2 in two; nothing else
        bumped = g.features.data.copy()
        bumped[5] += 1.0
        g2 = Graph(g.n_nodes, g.edges, ag.Tensor(bumped))
        out = encode(g2, params, cfg).data
        changed = {i for i in range(6) if not np.array_equal(out[i], base[i])}
        assert changed <= {5, 4, 2}
        assert 5 in changed and 4 in changed

    def test_permutation_equivariance(self):
        g, params, cfg = self._graph_and_params(seed=13)
        out = encode(g, params, cfg).data
        perm = np.random.default_rng(14).permutation(6)
        inv = np.argsort(perm)
        pedges = [(int(inv[s]), int(inv[d])) for s, d in g.edges]
        pg = Graph(6, pedges, ag.Tensor(g.features.data[perm]))
        pout = encode(pg, params, cfg).data
        np.testing.assert_allclose(pout, out[perm], atol=1e-12)

    def test_padded_batch_rows_match_single_graphs(self):
        rng = np.random.default_rng(15)
        cfg = ModelConfig(d_model=4, n_blocks=1, n_heads=2, d_ff=8, vocab_size=64,
                          gat_layers=2, dropout=0.0)
        params = init_gat_params(rng, cfg)
        graphs = [make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 2), (5, 4)], rng),
                  make_graph(3, [(0, 1), (2, 1)], rng), make_graph(1, [], rng)]
        n = max(g.n_nodes for g in graphs)
        h = np.zeros((len(graphs), n, cfg.d_model))
        for b, g in enumerate(graphs):
            h[b, :g.n_nodes] = g.features.data
        # a pad row sees only itself
        mask = np.stack([in_neighbor_mask(n, g.edges) for g in graphs])
        out = encode_knowledge(ag.Tensor(h), mask, params, cfg).data
        for b, g in enumerate(graphs):
            np.testing.assert_allclose(out[b, :g.n_nodes], encode(g, params, cfg).data,
                                       rtol=0, atol=1e-12)
