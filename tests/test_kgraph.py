import numpy as np
import pytest

from punchgen.config import ModelConfig
from punchgen.kgraph import (
    ENTITY,
    RELATION,
    REVERSE,
    build_graph,
    init_node_features,
    init_node_params,
    to_dot,
)
from punchgen.tokenizer import train_tokenizer

CFG = ModelConfig(d_model=4, n_blocks=1, n_heads=2, d_ff=8, vocab_size=300, dropout=0.0)


@pytest.fixture(scope="module")
def tok():
    return train_tokenizer(
        ["alpha alpha alpha alpha", "president of the united states",
         "held position drug instance of", "beta gamma delta"], vocab_size=300)


class TestBuildGraph:
    def test_single_triple(self):
        g = build_graph([("A", "r1", "B")])
        assert [(n.kind, n.label) for n in g.nodes] == [
            (ENTITY, "A"), (RELATION, "r1"), (REVERSE, "<r>r1"), (ENTITY, "B")]
        assert g.edges == [(0, 1), (1, 3), (3, 2), (2, 0)]

    def test_shared_subject_folds(self):
        g = build_graph([("A", "r1", "B"), ("A", "r2", "C")])
        assert g.n_nodes == 7
        assert len(g.edges) == 8
        assert sum(1 for n in g.nodes if n.label == "A") == 1

    def test_duplicate_relation_not_folded(self):
        g = build_graph([("A", "r", "B"), ("C", "r", "D")])
        assert sum(1 for n in g.nodes if n.kind == RELATION and n.label == "r") == 2

    def test_node_edge_count_formula(self):
        triples = [("A", "r1", "B"), ("B", "r2", "C"), ("A", "r3", "C")]
        g = build_graph(triples)
        uniq_entities = len({"A", "B", "C"})
        assert g.n_nodes == uniq_entities + 2 * len(triples)
        assert len(g.edges) == 4 * len(triples)

    def test_self_referential_triple(self):
        g = build_graph([("A", "likes", "A")])
        assert g.n_nodes == 1 + 2
        assert len(g.edges) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_graph([])

    def test_relation_degree_property(self):
        rng = np.random.default_rng(0)
        triples = _random_triples(rng, 12)
        g = build_graph(triples)
        indeg = {n.id: 0 for n in g.nodes}
        outdeg = {n.id: 0 for n in g.nodes}
        for s, d in g.edges:
            outdeg[s] += 1
            indeg[d] += 1
        for n in g.nodes:
            if n.kind in (RELATION, REVERSE):
                assert indeg[n.id] == 1 and outdeg[n.id] == 1

    def test_matches_independent_builder(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            triples = _random_triples(rng, int(rng.integers(1, 12)))
            g = build_graph(triples)
            nodes_o, edges_o = oracle_builder(triples)
            got_nodes = [(n.kind, n.label) for n in g.nodes]
            assert sorted(got_nodes) == sorted(nodes_o)
            assert len(g.edges) == len(edges_o)
            # adjacency as label-level multiset must match
            got_adj = sorted((g.nodes[s].label, g.nodes[d].label) for s, d in g.edges)
            assert got_adj == sorted(edges_o)

    def test_permutation_isomorphism(self):
        rng = np.random.default_rng(7)
        triples = _random_triples(rng, 8)
        g1 = build_graph(triples)
        perm = rng.permutation(len(triples))
        g2 = build_graph([triples[i] for i in perm])
        assert canonical_form(g1) == canonical_form(g2)

    def test_entity_connected_sets_are_weakly_connected(self):
        # chained triples share entities, so the built graph is one component
        triples = [("A", "r1", "B"), ("B", "r2", "C"), ("C", "r3", "D")]
        g = build_graph(triples)
        assert weakly_connected(g)

    def test_disjoint_triples_allowed(self):
        g = build_graph([("A", "r", "B"), ("X", "q", "Y")])
        assert not weakly_connected(g)


def _random_triples(rng, n):
    ents = ["Alice", "Bob", "Carol", "Dave", "Eve"]
    rels = ["knows", "likes", "works with"]
    return [
        (ents[rng.integers(len(ents))], rels[rng.integers(len(rels))], ents[rng.integers(len(ents))])
        for _ in range(n)
    ]


def oracle_builder(triples):
    """Brute-force reference: dict of entity labels, explicit per-triple nodes."""
    entities = []
    for s, r, o in triples:
        for e in (s.strip(), o.strip()):
            if e not in entities:
                entities.append(e)
    nodes = [(ENTITY, e) for e in entities]
    edges = []
    for s, r, o in triples:
        r = r.strip()
        nodes.append((RELATION, r))
        nodes.append((REVERSE, "<r>" + r))
        edges.append((s.strip(), r))
        edges.append((r, o.strip()))
        edges.append((o.strip(), "<r>" + r))
        edges.append(("<r>" + r, s.strip()))
    return nodes, edges


def canonical_form(g):
    def sig(node):
        ins = sorted((g.nodes[s].kind, g.nodes[s].label) for s, d in g.edges if d == node.id)
        outs = sorted((g.nodes[d].kind, g.nodes[d].label) for s, d in g.edges if s == node.id)
        return (node.kind, node.label, tuple(ins), tuple(outs))

    return sorted(sig(n) for n in g.nodes)


def weakly_connected(g):
    adj = {n.id: set() for n in g.nodes}
    for s, d in g.edges:
        adj[s].add(d)
        adj[d].add(s)
    seen = {0}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == g.n_nodes


def lstm_trace_numpy(x, w_ih, w_hh, b, h_dim):
    """Element-wise reference LSTM, independent of the autograd version."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    h = np.zeros(h_dim)
    c = np.zeros(h_dim)
    for t in range(x.shape[0]):
        pre = x[t] @ w_ih + h @ w_hh + b
        i = sig(pre[:h_dim])
        f = sig(pre[h_dim:2 * h_dim])
        g = np.tanh(pre[2 * h_dim:3 * h_dim])
        o = sig(pre[3 * h_dim:])
        c = f * c + i * g
        h = o * np.tanh(c)
    return h


def node_labels(graph):
    return [node.label for node in graph.nodes]


class TestNodeFeatures:
    def test_identical_labels_share_feature(self, tok):
        rng = np.random.default_rng(0)
        params = init_node_params(rng, tok.vocab_size, CFG)
        g = build_graph([("drug", "instance", "drug beta")])
        g2 = build_graph([("alpha", "drug", "beta")])  # relation label == entity label
        f1 = init_node_features(node_labels(g), params, tok, CFG)
        f2 = init_node_features(node_labels(g2), params, tok, CFG)
        drug_row_1 = f1.data[0]
        drug_row_2 = f2.data[1]
        np.testing.assert_array_equal(drug_row_1, drug_row_2)

    def _expected_rows(self, labels, params, tok):
        """Per-label reference: forward and backward unrolled traces, concatenated."""
        rows = []
        for label in labels:
            x = params["kinit.emb"].data[tok.encode(label)]
            fwd = lstm_trace_numpy(x, params["kinit.fw.w_ih"].data,
                                   params["kinit.fw.w_hh"].data, params["kinit.fw.b"].data, CFG.d_rnn)
            bwd = lstm_trace_numpy(x[::-1], params["kinit.bw.w_ih"].data,
                                   params["kinit.bw.w_hh"].data, params["kinit.bw.b"].data, CFG.d_rnn)
            rows.append(np.concatenate([fwd, bwd]))
        return np.array(rows)

    def test_single_token_label(self, tok):
        rng = np.random.default_rng(1)
        params = init_node_params(rng, tok.vocab_size, CFG)
        assert len(tok.encode("alpha")) == 1
        feat = init_node_features(["alpha"], params, tok, CFG)
        expect = self._expected_rows(["alpha"], params, tok) @ params["kinit.proj"].data
        np.testing.assert_allclose(feat.data, expect, atol=1e-12)

    def test_multiword_label_matches_unrolled_trace(self, tok):
        rng = np.random.default_rng(2)
        params = init_node_params(rng, tok.vocab_size, CFG)
        label = "president of the united states"
        assert len(tok.encode(label)) >= 2
        feat = init_node_features([label], params, tok, CFG)
        assert np.all(np.isfinite(feat.data)) and feat.shape == (1, CFG.d_model)
        expect = self._expected_rows([label], params, tok) @ params["kinit.proj"].data
        np.testing.assert_allclose(feat.data, expect, atol=1e-12)

    def test_mixed_lengths_match_trace_in_both_directions(self, tok):
        rng = np.random.default_rng(4)
        params = init_node_params(rng, tok.vocab_size, CFG)
        # identity projection: each row is [forward last state, backward last state]
        params["kinit.proj"].data = np.eye(2 * CFG.d_rnn)
        labels = ["of alpha", "alpha", "president of the united states", "alpha of", "drug", "a"]
        lengths = [len(tok.encode(label)) for label in labels]
        assert {1, 2} <= set(lengths) and max(lengths) >= 5
        # repeated labels share a row; nodes come back in graph order
        feat = init_node_features(labels + ["alpha", "of alpha"], params, tok, CFG)
        expect = self._expected_rows(labels + ["alpha", "of alpha"], params, tok)
        assert feat.shape == expect.shape
        np.testing.assert_allclose(feat.data[:, :CFG.d_rnn], expect[:, :CFG.d_rnn], atol=1e-12)
        np.testing.assert_allclose(feat.data[:, CFG.d_rnn:], expect[:, CFG.d_rnn:], atol=1e-12)
        np.testing.assert_array_equal(feat.data[6], feat.data[1])
        np.testing.assert_array_equal(feat.data[7], feat.data[0])

    def test_label_without_tokens_rejected(self, tok):
        params = init_node_params(np.random.default_rng(6), tok.vocab_size, CFG)
        with pytest.raises(ValueError, match="produced no tokens"):
            init_node_features(["alpha", ""], params, tok, CFG)

    def test_reverse_label_uses_marker_token(self, tok):
        ids = tok.encode("<r>instance of")
        assert ids[0] == tok.rev_id

    def test_features_differentiable(self, tok):
        rng = np.random.default_rng(3)
        params = init_node_params(rng, tok.vocab_size, CFG)
        g = build_graph([("alpha", "beta", "gamma")])
        feats = init_node_features(node_labels(g), params, tok, CFG)
        feats.sum().backward()
        assert params["kinit.emb"].grad is not None
        assert params["kinit.fw.w_hh"].grad is not None
        assert params["kinit.proj"].grad is not None


class TestDotExport:
    def test_colors_and_edges(self):
        g = build_graph([("Donald Trump", "position held", "President of the United States")])
        dot = to_dot(g)
        assert "color=red" in dot and "color=blue" in dot and "color=green" in dot
        assert dot.count("->") == 4
        assert '<r>position held' in dot
