import dataclasses
import json

import numpy as np
import pytest

from punchgen import autograd as ag
from punchgen.config import ModelConfig, preset
from punchgen.model import (
    MASK_OFF,
    Example,
    LengthError,
    Model,
    _pad,
    init_params,
    is_knowledge_only,
    knowledge_gate,
    load_checkpoint,
    multi_head_attention,
    partition_names,
    save_checkpoint,
    sinusoidal_positions,
)
from punchgen.tokenizer import train_tokenizer

from perfbench.tracing import tape_nodes

TINY = ModelConfig(d_model=8, n_blocks=2, n_heads=2, d_ff=16, vocab_size=400,
                   max_len=32, dropout=0.0)

TEXTS = [
    "the cat sat on the mat",
    "a dog walked into a bar",
    "why did the chicken cross the road",
]


@pytest.fixture(scope="module")
def tok():
    return train_tokenizer(TEXTS, vocab_size=350)


@pytest.fixture(scope="module")
def plain(tok):
    rng = np.random.default_rng(0)
    return Model(init_params(rng, TINY, tok.vocab_size, fused=False), TINY, tok, fused=False)


@pytest.fixture(scope="module")
def fused(tok):
    rng = np.random.default_rng(1)
    return Model(init_params(rng, TINY, tok.vocab_size, fused=True), TINY, tok, fused=True)


TRIPLES = [("cat", "sits on", "mat"), ("dog", "walks into", "bar")]


# --------------------------------------------------------------- oracle pieces


def np_layer_norm(x, g, b, eps=1e-5):
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def np_mha(q_in, kv_in, p, prefix, n_heads, bias=None):
    """Per-position loop reference attention; `bias` (t, s) is added to each head's logits."""
    d = q_in.shape[1]
    dh = d // n_heads
    q = q_in @ p[f"{prefix}.wq"].data + p[f"{prefix}.bq"].data
    k = kv_in @ p[f"{prefix}.wk"].data
    v = kv_in @ p[f"{prefix}.wv"].data + p[f"{prefix}.bv"].data
    t, s = q_in.shape[0], kv_in.shape[0]
    ctx = np.zeros((t, d))
    for m in range(n_heads):
        sl = slice(m * dh, (m + 1) * dh)
        for i in range(t):
            logits = np.array([
                np.dot(q[i, sl], k[j, sl]) / np.sqrt(dh) for j in range(s)
            ])
            if bias is not None:
                logits = logits + bias[i]
            e = np.exp(logits - logits.max())
            alpha = e / e.sum()
            ctx[i, sl] = sum(alpha[j] * v[j, sl] for j in range(s))
    return ctx @ p[f"{prefix}.wo"].data + p[f"{prefix}.bo"].data


def np_encoder(ids, p, cfg):
    x = p["emb"].data[ids] * np.sqrt(cfg.d_model) + sinusoidal_positions(len(ids), cfg.d_model)
    for n in range(cfg.n_blocks):
        x = np_layer_norm(x + np_mha(x, x, p, f"enc.{n}.attn", cfg.n_heads),
                          p[f"enc.{n}.ln1.g"].data, p[f"enc.{n}.ln1.b"].data)
        ff = np.maximum(x @ p[f"enc.{n}.ff.w1"].data + p[f"enc.{n}.ff.b1"].data, 0)
        ff = ff @ p[f"enc.{n}.ff.w2"].data + p[f"enc.{n}.ff.b2"].data
        x = np_layer_norm(x + ff, p[f"enc.{n}.ln2.g"].data, p[f"enc.{n}.ln2.b"].data)
    return x


class TestPositions:
    @pytest.mark.parametrize("name", ["desk", "paper"])
    def test_table_prefix_is_the_shorter_table_bit_for_bit(self, name):
        cfg = preset(name).model
        table = sinusoidal_positions(cfg.max_len, cfg.d_model)
        for length in range(1, cfg.max_len + 1):
            assert sinusoidal_positions(length, cfg.d_model).tobytes() == table[:length].tobytes()

    def test_embed_slices_the_model_table(self, plain, tok):
        ids = np.asarray(tok.encode("the cat sat on the mat"))
        for offset in (0, 3, TINY.max_len - len(ids)):
            want = (plain.params["emb"].data[ids] * np.sqrt(TINY.d_model)
                    + sinusoidal_positions(offset + len(ids), TINY.d_model)[offset:])
            got = plain._embed(ids[None], offset, np.ones((1, len(ids)), dtype=bool))
            assert got.data.tobytes() == want.tobytes()


class TestEncoder:
    def test_shapes_and_finite(self, plain, tok):
        out = plain.encode_setup(tok.encode("the cat sat"))
        assert out.shape[1] == TINY.d_model
        assert np.all(np.isfinite(out.data))

    def test_single_token(self, plain, tok):
        out = plain.encode_setup(tok.encode("cat")[:1])
        assert out.shape == (1, TINY.d_model)

    def test_deterministic(self, plain, tok):
        ids = tok.encode("the cat sat on the mat")
        a = plain.encode_setup(ids).data
        b = plain.encode_setup(ids).data
        np.testing.assert_array_equal(a, b)

    def test_matches_loop_oracle(self, plain, tok):
        ids = np.asarray(tok.encode("the dog sat"))
        got = plain.encode_setup(ids).data
        want = np_encoder(ids, plain.params, TINY)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_length_error(self, plain):
        with pytest.raises(LengthError):
            plain.encode_setup(np.zeros(TINY.max_len + 1, dtype=int))


class TestFusionAttention:
    def test_singleton_node_dominates(self, fused):
        rng = np.random.default_rng(2)
        s = ag.Tensor(rng.normal(size=(5, TINY.d_model)))
        h = ag.Tensor(rng.normal(size=(1, TINY.d_model)))
        out = multi_head_attention(s, h, fused.params, "dec.0.fuse", TINY.n_heads,
                                   np.ones((1, 5), dtype=bool))
        p = fused.params
        expect = (h.data @ p["dec.0.fuse.wv"].data + p["dec.0.fuse.bv"].data) \
            @ p["dec.0.fuse.wo"].data + p["dec.0.fuse.bo"].data
        for row in out.data:
            np.testing.assert_allclose(row, expect[0], atol=1e-12)

    def test_rows_sum_to_one(self, fused):
        rng = np.random.default_rng(3)
        s = ag.Tensor(rng.normal(size=(4, TINY.d_model)))
        h = ag.Tensor(rng.normal(size=(6, TINY.d_model)))
        trace = []
        multi_head_attention(s, h, fused.params, "dec.1.fuse", TINY.n_heads, np.ones((1, 4), dtype=bool),
                             trace=trace)
        assert len(trace) == TINY.n_heads
        for _, alpha in trace:
            np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-6)

    def test_matches_loop_oracle(self, fused):
        rng = np.random.default_rng(4)
        s = ag.Tensor(rng.normal(size=(3, TINY.d_model)))
        h = ag.Tensor(rng.normal(size=(5, TINY.d_model)))
        got = multi_head_attention(s, h, fused.params, "dec.0.fuse", TINY.n_heads,
                                   np.ones((1, 3), dtype=bool)).data
        want = np_mha(s.data, h.data, fused.params, "dec.0.fuse", TINY.n_heads)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_bias_matches_loop_oracle(self, fused):
        rng = np.random.default_rng(12)
        s = ag.Tensor(rng.normal(size=(8, TINY.d_model)))  # packed rows of two rows of 4
        real = np.ones((2, 4), dtype=bool)
        bias = np.triu(np.full((4, 4), MASK_OFF), k=1)
        bias[:, 3] = MASK_OFF  # a padded key
        got = multi_head_attention(s, s, fused.params, "dec.0.self", TINY.n_heads, real,
                                   bias=bias, kv_real=real).data
        for b in range(2):
            rows = s.data[4 * b: 4 * b + 4]
            want = np_mha(rows, rows, fused.params, "dec.0.self", TINY.n_heads, bias=bias)
            np.testing.assert_allclose(got[4 * b: 4 * b + 4], want, atol=1e-10)


class TestKnowledgeGate:
    def test_zero_gate_averages(self):
        rng = np.random.default_rng(5)
        s = ag.Tensor(rng.normal(size=(4, 8)))
        a = ag.Tensor(rng.normal(size=(4, 8)))
        out = knowledge_gate(s, a, ag.Tensor(np.zeros((8, 8))))
        np.testing.assert_allclose(out.data, (s.data + a.data) / 2, atol=1e-12)

    def test_equal_inputs_pass_through(self):
        rng = np.random.default_rng(6)
        s = ag.Tensor(rng.normal(size=(4, 8)))
        wg = ag.Tensor(rng.normal(size=(8, 8)))
        out = knowledge_gate(s, s, wg)
        np.testing.assert_allclose(out.data, s.data, atol=1e-12)

    def test_saturated_gate_returns_states(self):
        s = ag.Tensor(np.ones((3, 8)))
        a = ag.Tensor(np.full((3, 8), -7.0))
        out = knowledge_gate(s, a, ag.Tensor(50.0 * np.eye(8)))
        assert np.abs(out.data - s.data).max() < 1e-3

    def test_lambda_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(7)
        s = ag.Tensor(rng.normal(size=(6, 8)))
        wg = ag.Tensor(rng.normal(size=(8, 8)))
        lam = ag.sigmoid(s @ wg).data
        assert np.all(lam > 0) and np.all(lam < 1)


class TestDecode:
    def test_distribution_contract(self, fused, tok):
        memory = fused.encode_setup(tok.encode("the cat sat"))
        knowledge = fused.encode_triples(TRIPLES)
        prefix = [tok.bos_id] + tok.encode("the")
        dist = fused.decode_step(prefix, memory, knowledge)
        assert dist.shape == (tok.vocab_size,)
        assert abs(dist.sum() - 1.0) < 1e-6
        assert np.all(dist >= 0)

    def test_prefix_must_start_with_bos(self, fused, tok):
        memory = fused.encode_setup(tok.encode("the cat"))
        with pytest.raises(ValueError):
            fused.decode_step(tok.encode("the"), memory, None)
        with pytest.raises(ValueError):  # every row of a batch is checked
            fused.decode_step([[tok.bos_id, 5], [6, 5]], memory, None)

    @pytest.mark.parametrize("fused_model", [False, True])
    def test_batched_prefixes_match_one_prefix_calls(self, plain, fused, tok, fused_model):
        # not bit for bit: BLAS may round a row differently when a product has more rows
        model = fused if fused_model else plain
        memory = model.encode_setup(tok.encode("the cat sat"))
        knowledge = model.encode_triples(TRIPLES) if fused_model else None
        rng = np.random.default_rng(11)
        for t in (1, 2, 6):
            prefixes = np.column_stack([np.full(4, tok.bos_id),
                                        rng.integers(4, tok.vocab_size, size=(4, t - 1))])
            batched = model.decode_step(prefixes, memory, knowledge)
            assert batched.shape == (4, tok.vocab_size)
            for prefix, dist in zip(prefixes, batched):
                np.testing.assert_allclose(dist, model.decode_step(prefix, memory, knowledge),
                                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("fused_model", [False, True])
    def test_batched_rows_do_not_leak(self, plain, fused, tok, fused_model):
        """In a batched call of fixed shape, changing one prefix leaves every other row bit for bit."""
        model = fused if fused_model else plain
        memory = model.encode_setup(tok.encode("the cat sat"))
        knowledge = model.encode_triples(TRIPLES) if fused_model else None
        rng = np.random.default_rng(12)
        for t in (2, 3, 6):
            prefixes = np.column_stack([np.full(4, tok.bos_id),
                                        rng.integers(4, tok.vocab_size, size=(4, t - 1))])
            base = model.decode_step(prefixes, memory, knowledge)
            for row in range(4):
                altered = prefixes.copy()
                altered[row, -1] = 4 + (altered[row, -1] - 3) % (tok.vocab_size - 4)
                out = model.decode_step(altered, memory, knowledge)
                others = np.arange(4) != row
                np.testing.assert_array_equal(out[others], base[others])
                assert not np.array_equal(out[row], base[row])

    def test_causality(self, fused, tok):
        memory = fused.encode_setup(tok.encode("the cat sat"))
        knowledge = fused.encode_triples(TRIPLES)
        prefix = [tok.bos_id] + tok.encode("the dog walked")
        base = fused.decode_states(prefix, memory, knowledge).data
        altered = list(prefix)
        altered[-1] = tok.encode("bar")[0]
        out = fused.decode_states(altered, memory, knowledge).data
        np.testing.assert_array_equal(base[:-1], out[:-1])
        assert not np.array_equal(base[-1], out[-1])

    def test_empty_triples_fall_back_to_plain_path(self, fused, tok):
        memory = fused.encode_setup(tok.encode("the cat sat"))
        prefix = [tok.bos_id] + tok.encode("the")
        d1 = fused.decode_step(prefix, memory, None)
        d2 = fused.decode_step(prefix, memory, fused.encode_triples([]))
        np.testing.assert_array_equal(d1, d2)


class TestCollapse:
    def test_lambda_one_equals_plain_transformer(self, plain, tok):
        """Copying the pretrainable partition and forcing lam=1 must be exact."""
        rng = np.random.default_rng(8)
        fused_params = init_params(rng, TINY, tok.vocab_size, fused=True)
        for name, tensor in fused_params.items():
            if not is_knowledge_only(name):
                tensor.data = plain.params[name].data.copy()
        fmodel = Model(fused_params, TINY, tok, fused=True)
        for seed in range(5):
            r = np.random.default_rng(seed)
            src = r.integers(4, tok.vocab_size, size=5)
            prefix = np.concatenate([[tok.bos_id], r.integers(4, tok.vocab_size, size=4)])
            mem_f = fmodel.encode_setup(src)
            mem_p = plain.encode_setup(src)
            d_f = fmodel.decode_step(prefix, mem_f, None)
            d_p = plain.decode_step(prefix, mem_p, None)
            np.testing.assert_array_equal(d_f, d_p)

    def test_knowledge_changes_output_when_gate_open(self, fused, tok):
        src = tok.encode("the cat sat")
        memory = fused.encode_setup(src)
        prefix = [tok.bos_id] + tok.encode("the")
        d1 = fused.decode_step(prefix, memory, fused.encode_triples(TRIPLES))
        d2 = fused.decode_step(prefix, memory, fused.encode_triples([("bar", "serves", "dog")]))
        assert not np.array_equal(d1, d2)


class TestGradients:
    def test_full_model_loss_gradients(self, fused, tok):
        src = np.asarray(tok.encode("the cat sat on the mat"))
        tgt = np.asarray([tok.bos_id] + tok.encode("a dog walked") + [tok.eos_id])

        def loss_value():
            with ag.no_grad():
                loss, _ = fused.sequence_loss(src, tgt, TRIPLES)
                return float(loss.data)

        for p in fused.params.values():
            p.zero_grad()
        loss, _ = fused.sequence_loss(src, tgt, TRIPLES)
        loss.backward()
        rng = np.random.default_rng(9)
        checked = 0
        for name in ["dec.0.gate.wg", "dec.1.fuse.wq", "dec.0.fuse.wo", "out.w",
                     "gat.0.wk", "kinit.fw.w_ih", "kinit.emb", "emb",
                     "enc.0.attn.wq", "dec.1.ff.w1"]:
            p = fused.params[name]
            flat = p.data.reshape(-1)
            grad_flat = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
            # pick entries with non-negligible analytic gradient where possible
            order = np.argsort(-np.abs(grad_flat))
            idx = order[:3]
            # loss is a summed CE ~ O(10..100): roundoff noise in the central
            # difference is ~eps*|loss|/h, so h below 1e-3 just adds noise
            h = 1e-3
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                fp = loss_value()
                flat[i] = orig - h
                fm = loss_value()
                flat[i] = orig
                fd = (fp - fm) / (2 * h)
                an = grad_flat[i]
                if abs(an) < 1e-6:
                    # below FD resolution at 1e-4 relative; require absolute agreement
                    assert abs(fd - an) < 1e-9, f"{name}[{i}]: fd={fd} an={an}"
                else:
                    denom = max(abs(fd), abs(an))
                    assert abs(fd - an) / denom < 1e-4, f"{name}[{i}]: fd={fd} an={an}"
                checked += 1
        assert checked == 30

    def test_gradient_flows_into_gate(self, fused, tok):
        src = np.asarray(tok.encode("the cat sat"))
        tgt = np.asarray([tok.bos_id] + tok.encode("dog") + [tok.eos_id])
        for p in fused.params.values():
            p.zero_grad()
        loss, _ = fused.sequence_loss(src, tgt, TRIPLES)
        loss.backward()
        g = fused.params["dec.0.gate.wg"].grad
        assert g is not None and np.abs(g).sum() > 0

    def test_tape_size_does_not_grow_with_heads(self, tok):
        # heads are a batch axis: the same ops run whatever their number
        src = np.asarray(tok.encode("the cat sat"))
        tgt = np.asarray([tok.bos_id] + tok.encode("on the mat") + [tok.eos_id])
        counts = []
        for heads in (2, 4):
            cfg = ModelConfig(d_model=8, n_blocks=2, n_heads=heads, d_ff=16, vocab_size=400,
                              max_len=32, dropout=0.0)
            model = Model(init_params(np.random.default_rng(0), cfg, tok.vocab_size, fused=True),
                          cfg, tok, fused=True)
            loss, _ = model.sequence_loss(src, tgt, TRIPLES)
            counts.append(tape_nodes(loss))
        assert counts[0] == counts[1]


class TestPartition:
    def test_partition_names(self, fused):
        part = partition_names(fused.params)
        ko = set(part["knowledge_only"])
        assert "dec.0.gate.wg" in ko and "dec.1.fuse.wq" in ko
        assert "kinit.emb" in ko and "gat.0.wv" in ko and "gat.1.wq" in ko
        assert "emb" not in ko and "out.w" not in ko and "dec.0.cross.wq" not in ko
        assert set(part["pretrainable"]) | ko == set(fused.params)

    def test_plain_params_are_exactly_pretrainable(self, plain, fused):
        plain_names = set(plain.params)
        part = partition_names(fused.params)
        assert plain_names == set(part["pretrainable"])


class TestCheckpoint:
    def test_round_trip(self, fused, tok, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, fused, step=17)
        model, opt, step, rng_state = load_checkpoint(path)
        assert step == 17 and model.fused is True
        assert opt is None and rng_state is None
        assert model.cfg == TINY
        assert model.tokenizer.vocab == tok.vocab
        assert set(model.params) == set(fused.params)
        for name in model.params:
            np.testing.assert_array_equal(model.params[name].data, fused.params[name].data)
        with np.load(path) as data:
            assert json.loads(str(data["manifest"]))["partition"] == partition_names(fused.params)

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_version_refused(self, fused, tmp_path, monkeypatch, version):
        import punchgen.model as model_module

        path = tmp_path / "model.ckpt"
        monkeypatch.setattr(model_module, "CHECKPOINT_VERSION", version)
        save_checkpoint(path, fused)
        monkeypatch.undo()
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            load_checkpoint(path)

    def test_failed_save_keeps_the_previous_checkpoint(self, fused, tmp_path, monkeypatch):
        """A save whose disk fills after 4 KiB leaves the old file loadable and no temporary
        file behind."""
        from pathlib import Path

        path = tmp_path / "model.ckpt"
        save_checkpoint(path, fused, step=1)
        before = path.read_bytes()
        real_open = Path.open

        class FullDisk:
            def __init__(self, fh):
                self.fh, self.room = fh, 4096

            def write(self, data):
                data = memoryview(data).cast("B")
                if len(data) > self.room:
                    self.fh.write(data[: self.room])
                    raise OSError(28, "No space left on device")
                self.room -= len(data)
                return self.fh.write(data)

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(Path, "open", lambda self, mode="r", *a, **kw: (
            FullDisk(real_open(self, mode, *a, **kw)) if "w" in mode else real_open(self, mode, *a, **kw)))
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(path, fused, step=2)
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
        assert path.read_bytes() == before
        assert load_checkpoint(path)[2] == 1
        save_checkpoint(path, fused, step=2)  # a save after the failure replaces the file
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
        assert load_checkpoint(path)[2] == 2

    def test_load_model_runs(self, fused, tok, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, fused)
        m = load_checkpoint(path)[0]
        src = tok.encode("the cat sat")
        d1 = m.decode_step([tok.bos_id], m.encode_setup(src), None)
        d2 = fused.decode_step([tok.bos_id], fused.encode_setup(src), None)
        np.testing.assert_array_equal(d1, d2)


class TestBatchedLoss:
    def _examples(self, tok):
        rows = [("the cat sat on the mat", "a dog walked", TRIPLES),
                ("why", "the chicken crossed the road", ()),
                ("a dog walked into a bar", "cat", [("dog", "walks into", "bar")]),
                ("the road", "why did the cat", ())]
        return [Example(np.asarray(tok.encode(src)),
                        np.asarray([tok.bos_id] + tok.encode(tgt) + [tok.eos_id]), tuple(triples))
                for src, tgt, triples in rows]

    @pytest.mark.parametrize("fused_model", [False, True])
    def test_batch_equals_sum_of_single_examples(self, plain, fused, tok, fused_model):
        model = fused if fused_model else plain
        batch = self._examples(tok)
        singles, tokens = {}, 0
        total = 0.0
        for ex in batch:
            for p in model.params.values():
                p.zero_grad()
            loss, n = model.sequence_loss(ex.src, ex.tgt, ex.triples)
            loss.backward()
            total += float(loss.data)
            tokens += n
            for name, p in model.params.items():
                if p.grad is not None:
                    singles[name] = singles.get(name, 0.0) + p.grad
        for p in model.params.values():
            p.zero_grad()
        loss, n = model.loss_sum(batch)
        loss.backward()
        assert n == tokens
        assert abs(float(loss.data) - total) <= 1e-12 * abs(total)
        for name, p in model.params.items():
            np.testing.assert_allclose(p.grad if p.grad is not None else 0.0, singles.get(name, 0.0),
                                       rtol=0, atol=1e-12, err_msg=name)

    @staticmethod
    def _padded_loss_sum(model, batch, dropout_rng):
        """loss_sum as one padded forward: every layer runs every position, pads included.

        An all-True mask is the padded layout, so the states are the flat rows of every position.
        """
        pad = model.tokenizer.pad_id
        src, memory_bias, _ = _pad([ex.src for ex in batch], pad)
        tgt, _, _ = _pad([ex.tgt for ex in batch], pad)
        memory = model.encode_setup(src, dropout_rng=dropout_rng, bias=memory_bias)
        knowledge, knowledge_bias, mix = model._encode_graphs([ex.triples for ex in batch])
        states = model.decode_states(tgt[:, :-1], memory, knowledge, dropout_rng=dropout_rng,
                                     memory_bias=memory_bias, knowledge_bias=knowledge_bias, mix=mix,
                                     memory_real=np.ones(src.shape, dtype=bool))
        targets = tgt[:, 1:].ravel()
        rows = np.flatnonzero(targets != pad)
        return ag.cross_entropy_sum(model.logits(states[rows]), targets[rows]), len(rows)

    @pytest.mark.parametrize("with_triples", [True, False])
    def test_packed_rows_match_padded_forward(self, fused, tok, with_triples):
        """The packed loss and every gradient equal the padded composition's, at dropout 0.1."""
        model = Model(fused.params, dataclasses.replace(TINY, dropout=0.1), tok, fused=True)
        batch = [ex if with_triples else Example(ex.src, ex.tgt) for ex in self._examples(tok)]
        results = []
        for forward in (model.loss_sum, lambda b, dropout_rng: self._padded_loss_sum(model, b, dropout_rng)):
            for p in model.params.values():
                p.zero_grad()
            rng = np.random.default_rng(3)
            loss, n = forward(batch, dropout_rng=rng)
            loss.backward()
            grads = {name: p.grad for name, p in model.params.items()}
            results.append((float(loss.data), n, grads, rng.bit_generator.state))
        (packed, n_packed, g_packed, rng_packed), (padded, n_padded, g_padded, rng_padded) = results
        assert n_packed == n_padded
        assert abs(packed - padded) <= 1e-12 * abs(padded)
        assert rng_packed == rng_padded
        for name in model.params:
            if g_padded[name] is None:
                assert g_packed[name] is None, name
            else:
                np.testing.assert_allclose(g_packed[name], g_padded[name], rtol=0, atol=1e-12, err_msg=name)

    def test_every_parameter_gets_a_gradient(self, fused, tok):
        """No dead parameters: each gradient norm is above 1e-12 of the largest (dropout is 0)."""
        for p in fused.params.values():
            p.zero_grad()
        loss, _ = fused.loss_sum(self._examples(tok))  # records with and without triples
        loss.backward()
        norms = {name: float(np.linalg.norm(p.grad)) if p.grad is not None else 0.0
                 for name, p in fused.params.items()}
        largest = max(norms.values())
        assert [name for name, n in norms.items() if n <= 1e-12 * largest] == []

    def test_tape_size_does_not_grow_with_batch(self, fused, tok):
        ex = self._examples(tok)[0]
        one, _ = fused.loss_sum([ex])
        many, _ = fused.loss_sum([ex] * 16)
        assert tape_nodes(one) == tape_nodes(many)

    def test_padded_graph_rows_match_single_graphs(self, fused):
        sets = [TRIPLES, (), [("bar", "serves", "dog")], [("cat", "sits on", "mat")]]
        nodes, bias, mix = fused._encode_graphs(sets)
        assert mix.ravel().tolist() == [1.0, 0.0, 1.0, 1.0]
        for b, triples in enumerate(sets):
            real = bias[b, 0, 0] == 0.0
            if not triples:
                assert not real.any()
                continue
            np.testing.assert_allclose(nodes.data[b][real], fused.encode_triples(triples).data,
                                       rtol=0, atol=1e-12)
