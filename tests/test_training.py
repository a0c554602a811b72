import math
import sys
import threading
import time

import numpy as np
import pytest

from punchgen import autograd as ag
from punchgen import model as model_module
from punchgen import training
from punchgen.config import ModelConfig, TrainConfig, preset
from punchgen.corpus import DatasetSplit, JokeRecord
from punchgen.model import (Model, init_params, is_knowledge_only, load_checkpoint, save_checkpoint,
                            uses_worker)
from punchgen.tokenizer import train_tokenizer
from punchgen.training import (
    EVAL_BATCH,
    Adam,
    ConfigMismatch,
    DivergenceError,
    eval_loss,
    finetune,
    prepare_examples,
    pretrain,
    train_loop,
    train_step,
    transplant,
)
from suite_support import bounded, on_worker

from perfbench.tracing import tape_nodes

TINY = ModelConfig(d_model=8, n_blocks=1, n_heads=2, d_ff=16, vocab_size=300,
                   max_len=32, dropout=0.0)

RECORDS = [
    JokeRecord("the cat sat,", "on the mat."),
    JokeRecord("the dog ran,", "to the bar."),
    JokeRecord("a man walked,", "into a pole."),
    JokeRecord("why so serious,", "no reason at all."),
]
TRIPLED = [
    JokeRecord(r.setup, r.punchline, [("cat", "sits", "mat")] if i % 2 == 0 else [])
    for i, r in enumerate(RECORDS)
]


def small_split(records=None):
    records = records or RECORDS
    return DatasetSplit(train=records, valid=records[:2], test=records[:1])


@pytest.fixture(scope="module")
def tok():
    return train_tokenizer([r.full_text() for r in RECORDS], vocab_size=300)


HELD_OUT = DatasetSplit(train=RECORDS[:2], valid=RECORDS[2:], test=[])


def improving_steps(history: list[dict]) -> list[int]:
    """The steps whose evaluation beat every earlier one, by train_loop's rule."""
    best, steps = math.inf, []
    for e in history:
        if e["split"] == "valid" and e["loss"] < best - 1e-12:
            best = e["loss"]
            steps.append(e["step"])
    return steps


def train_capturing(tok, split, tcfg, monkeypatch):
    """train_loop on a fresh plain model; returns the result, a copy of the weights at
    each evaluation, and how many snapshots the loop took."""
    rng = np.random.default_rng(tcfg.seed)
    model = Model(init_params(rng, TINY, tok.vocab_size, fused=False), TINY, tok, False)
    at_eval = {}

    def log(event):
        if event["split"] == "valid":
            at_eval[event["step"]] = {k: p.data.copy() for k, p in model.params.items()}

    snapshots = []
    take = training._snapshot
    monkeypatch.setattr(training, "_snapshot", lambda params: snapshots.append(1) or take(params))
    result = train_loop(model, prepare_examples(split.train, tok, TINY),
                        prepare_examples(split.valid, tok, TINY), tcfg, rng, log_fn=log)
    return result, at_eval, len(snapshots)


class TestAdam:
    def test_three_step_hand_trace(self):
        """Single scalar parameter against the textbook update formulas."""
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        theta = 1.0
        grads = [0.5, -0.3, 0.2]
        m = v = 0.0
        expected = []
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            theta = theta - lr * mhat / (math.sqrt(vhat) + eps)
            expected.append(theta)

        p = ag.Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam(lr, b1, b2, eps, clip_norm=None)
        for g, want in zip(grads, expected):
            p.grad = np.array([g])
            opt.step({"p": p})
            assert abs(float(p.data[0]) - want) < 1e-10

    def test_zero_lr_never_moves(self):
        rng = np.random.default_rng(0)
        p = ag.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        before = p.data.copy()
        opt = Adam(0.0)
        for _ in range(5):
            p.grad = rng.normal(size=(3, 3))
            opt.step({"p": p})
        np.testing.assert_array_equal(p.data, before)

    def test_clipping_triggers_and_scales(self):
        p = ag.Tensor(np.zeros(4), requires_grad=True)
        opt = Adam(0.1, clip_norm=1.0)
        p.grad = np.full(4, 10.0)  # norm 20 -> scaled by 1/20
        assert opt.step({"p": p}) == 20.0
        np.testing.assert_allclose(opt.m["p"], 0.1 * np.full(4, 0.5), atol=1e-12)

    def test_missing_grad_is_zero(self):
        p = ag.Tensor(np.ones(2), requires_grad=True)
        opt = Adam(0.1)
        opt.step({"p": p})
        np.testing.assert_array_equal(p.data, np.ones(2))

    def test_blocked_step_equals_per_tensor_step(self, monkeypatch):
        """Bit-equal to whole-tensor numpy Adam over several chunks, with clipping, a missing
        gradient and a parameter whose data is not C-contiguous; on one thread, and split across
        two ("none", "small" and "strided" on the worker)."""
        for floor in (math.inf, 0):
            monkeypatch.setattr(ag, "LEAF_FLOOR", floor)
            self.check_blocked_step()

    @pytest.mark.parametrize("largest, worker_calls", [(ag.LEAF_FLOOR - 1, []), (ag.LEAF_FLOOR, ["norms", "update"])],
                             ids=["below-the-floor", "at-the-floor"])
    def test_step_splits_when_a_tensor_reaches_the_leaf_floor(self, monkeypatch, largest, worker_calls):
        """A step hands its second run to autograd's worker, two jobs (the squared norms, then
        the update), exactly when some tensor has LEAF_FLOOR elements: when the backward
        handed that tensor's gradient to the worker."""
        submits, calls = TestForwardBeside.counting_submits(monkeypatch), []
        squared_norms, update_run = training._squared_norms, Adam._update_run

        def recording(what, fn):
            def run(*args):
                if threading.current_thread().name.startswith("autograd"):
                    calls.append(what)
                return fn(*args)
            return run

        monkeypatch.setattr(training, "_squared_norms", recording("norms", squared_norms))
        monkeypatch.setattr(Adam, "_update_run", recording("update", update_run))
        params = {k: ag.Tensor(np.ones(n), requires_grad=True) for k, n in (("a", 1000), ("big", largest), ("b", 10))}
        for p in params.values():
            p.grad = np.ones(p.data.size)
        Adam(1e-3).step(params)
        assert len(submits) == len(worker_calls) and calls == worker_calls

    @staticmethod
    def check_blocked_step():
        lr, b1, b2, eps, clip = 0.01, 0.9, 0.999, 1e-8, 1.0
        rng = np.random.default_rng(2)
        shapes = {"big": (300, 250), "odd": (Adam.CHUNK + 7,), "none": (40, 3), "small": (5,)}
        data = {k: rng.normal(size=s) for k, s in shapes.items()}
        data["strided"] = rng.normal(size=(180, 400)).T  # Fortran order: 72,000 elements
        params = {k: ag.Tensor(d.copy(order="K"), requires_grad=True) for k, d in data.items()}
        assert not params["strided"].data.flags.c_contiguous
        ref = {k: d.copy() for k, d in data.items()}
        m = {k: np.zeros_like(d) for k, d in ref.items()}
        v = {k: np.zeros_like(d) for k, d in ref.items()}
        opt = Adam(lr, b1, b2, eps, clip_norm=clip)
        for t in range(1, 4):
            grads = {k: rng.normal(size=d.shape) for k, d in ref.items() if k != "none"}
            for k, p in params.items():
                p.grad = None if k == "none" else grads[k].copy()
            norm = opt.step(params)
            full = {k: grads.get(k, np.zeros_like(d)) for k, d in ref.items()}
            total = math.sqrt(sum(float((g * g).sum()) for g in full.values()))
            assert norm == total > clip
            for k, d in ref.items():
                g = full[k] * (clip / total)
                m[k] *= b1
                m[k] += (1.0 - b1) * g
                v[k] *= b2
                v[k] += (1.0 - b2) * g * g
                d -= lr * (m[k] / (1.0 - b1 ** t)) / (np.sqrt(v[k] / (1.0 - b2 ** t)) + eps)
            for k, p in params.items():
                np.testing.assert_array_equal(p.data, ref[k], err_msg=k)
                np.testing.assert_array_equal(opt.m[k], m[k], err_msg=k)
                if k != "none":
                    np.testing.assert_array_equal(p.grad, grads[k], err_msg=f"{k} grad written")
        assert params["none"].grad is None

    def test_moments_are_allocated_once(self):
        p = ag.Tensor(np.ones(3), requires_grad=True)
        opt = Adam(0.1)
        p.grad = np.ones(3)
        opt.step({"p": p})
        m, v = opt.m["p"], opt.v["p"]
        opt.step({"p": p})
        assert opt.m["p"] is m and opt.v["p"] is v

    def test_state_round_trip(self):
        rng = np.random.default_rng(1)
        p1 = ag.Tensor(np.ones(3), requires_grad=True)
        p2 = ag.Tensor(np.ones(3), requires_grad=True)
        opt1 = Adam(0.05)
        g = rng.normal(size=3)
        p1.grad = g.copy()
        opt1.step({"p": p1})
        opt2 = Adam(0.05, state=opt1.state())
        p2.data = p1.data.copy()
        ga = rng.normal(size=3)
        p1.grad = ga.copy()
        p2.grad = ga.copy()
        opt1.step({"p": p1})
        opt2.step({"p": p2})
        np.testing.assert_array_equal(p1.data, p2.data)


class TestTwoThreads:
    """Leaf gradients on autograd's worker thread and the split Adam step are bit-identical to the
    serial ones: a floor of 0 sends every leaf and step there, a floor of infinity none."""

    @staticmethod
    def fused_desk_run(floor, monkeypatch):
        monkeypatch.setattr(ag, "LEAF_FLOOR", floor)
        cfg = preset("desk").model
        tok = train_tokenizer([r.full_text() for r in TRIPLED] + [" ".join(t) for r in TRIPLED for t in r.triples],
                              vocab_size=300)
        rng = np.random.default_rng(3)
        model = Model(init_params(rng, cfg, tok.vocab_size, fused=True), cfg, tok, fused=True)
        batch = prepare_examples(TRIPLED, tok, cfg)
        loss, _ = training.batch_loss(model, batch, dropout_rng=rng)
        loss.backward()
        grads = {k: p.grad.copy() for k, p in model.params.items()}
        opt = Adam(1e-3, clip_norm=1e-3)
        norms = [opt.step(model.params)]
        for _ in range(2):
            norms.append(train_step(model, batch, opt, rng)[2])
        assert min(norms) > 1e-3  # every step was clipped
        return grads, {k: p.data for k, p in model.params.items()}, opt.m, opt.v

    def test_gradients_weights_and_moments_are_bit_identical(self, monkeypatch):
        serial = self.fused_desk_run(math.inf, monkeypatch)
        threaded = self.fused_desk_run(0, monkeypatch)
        for what, want, got in zip(("grad", "weights", "m", "v"), serial, threaded):
            assert list(got) == list(want)
            for k in want:
                np.testing.assert_array_equal(got[k], want[k], err_msg=f"{what} {k}")


@pytest.fixture(scope="module")
def desk_tok():
    return train_tokenizer([r.full_text() for r in TRIPLED] + [" ".join(t) for r in TRIPLED for t in r.triples],
                           vocab_size=300)


def desk(tok, fused: bool) -> Model:
    """A desk-preset model (dropout 0.1) from a fixed seed."""
    cfg = preset("desk").model
    return Model(init_params(np.random.default_rng(3), cfg, tok.vocab_size, fused=fused), cfg, tok, fused=fused)


class TestForwardBeside:
    """Model.loss_sum at autograd.LEAF_FLOOR 0, where the graph encoder runs on autograd's worker
    beside the set-up encoder and every block's cross-attention and fusion keys and values
    follow it there, against the default floor, where the desk model runs on one thread."""

    @staticmethod
    def forward_backward(model, batch):
        """Loss, tokens, tape nodes and every gradient of one loss_sum at dropout 0.1, then
        eval_loss of the batch."""
        loss, tokens = model.loss_sum(batch, dropout_rng=np.random.default_rng(4))
        nodes = tape_nodes(loss)
        loss.backward()
        grads = {k: p.grad for k, p in model.params.items()}
        for p in model.params.values():
            p.zero_grad()
        return float(loss.data), tokens, nodes, grads, eval_loss(model, batch)

    @pytest.mark.parametrize("fused, records", [(True, TRIPLED), (True, RECORDS), (False, TRIPLED)],
                             ids=["fused-mixed", "fused-no-triples", "plain"])
    def test_loss_gradients_and_eval_are_bit_identical(self, desk_tok, monkeypatch, fused, records):
        model = desk(desk_tok, fused)
        batch = prepare_examples(records, desk_tok, model.cfg)
        assert not uses_worker(model.cfg)
        serial = self.forward_backward(model, batch)
        monkeypatch.setattr(ag, "LEAF_FLOOR", 0)
        assert uses_worker(model.cfg)
        handed = self.forward_backward(model, batch)
        assert handed[:3] == serial[:3] and handed[4] == serial[4]
        assert list(handed[3]) == list(serial[3])
        for k, want in serial[3].items():
            np.testing.assert_array_equal(handed[3][k], want, err_msg=k)

    @staticmethod
    def counting_submits(monkeypatch) -> list:
        """The thread names of every job submitted to autograd's worker from now on."""
        submit, calls = ag._WORKER.submit, []

        def counting(fn, *args, **kwargs):
            calls.append(threading.current_thread().name)
            return submit(fn, *args, **kwargs)

        monkeypatch.setattr(ag._WORKER, "submit", counting)
        return calls

    def test_desk_training_submits_nothing_at_the_default_floor(self, desk_tok, monkeypatch):
        model = desk(desk_tok, True)
        batch = prepare_examples(TRIPLED, desk_tok, model.cfg)
        calls = self.counting_submits(monkeypatch)
        train_step(model, batch, Adam(1e-3), np.random.default_rng(4))
        eval_loss(model, batch)
        assert calls == []
        monkeypatch.setattr(ag, "LEAF_FLOOR", 0)  # the counter's control
        model.loss_sum(batch)
        assert len(calls) == 1 + 2 * model.cfg.n_blocks  # the graphs, then each block's cross and fusion

    def test_forward_on_the_worker_runs_inline(self, desk_tok, monkeypatch):
        model = desk(desk_tok, True)
        batch = prepare_examples(TRIPLED, desk_tok, model.cfg)
        want = float(model.loss_sum(batch)[0].data)
        monkeypatch.setattr(ag, "LEAF_FLOOR", 0)
        calls = self.counting_submits(monkeypatch)
        got = bounded(lambda: on_worker(lambda: float(model.loss_sum(batch)[0].data)))
        assert got == want
        assert len(calls) == 1  # on_worker's job; the forward in it submitted nothing

    def test_graph_error_surfaces_and_leaves_the_worker_idle(self, desk_tok, monkeypatch):
        model = desk(desk_tok, True)
        batch = prepare_examples(TRIPLED, desk_tok, model.cfg)
        monkeypatch.setattr(ag, "LEAF_FLOOR", 0)
        threads = []

        def failing(*args):
            threads.append(threading.current_thread().name)
            time.sleep(0.05)
            raise RuntimeError("graph failed")

        monkeypatch.setattr(model_module, "encode_knowledge", failing)
        with pytest.raises(RuntimeError, match="graph failed"):
            model.loss_sum(batch)
        assert len(threads) == 1 and threads[0].startswith("autograd")
        assert ag._WORKER._work_queue.empty()
        start = time.perf_counter()
        assert bounded(lambda: on_worker(lambda: 1), seconds=5) == 1
        assert time.perf_counter() - start < 1.0

    def test_caller_error_waits_for_the_graph_job(self, desk_tok, monkeypatch):
        model = desk(desk_tok, True)
        batch = prepare_examples(TRIPLED, desk_tok, model.cfg)
        monkeypatch.setattr(ag, "LEAF_FLOOR", 0)
        encode, done = model_module.encode_knowledge, []

        def slow(*args):
            time.sleep(0.05)
            out = encode(*args)
            done.append(1)
            return out

        def failing(*args, **kwargs):
            raise KeyError("set-up failed")

        monkeypatch.setattr(model_module, "encode_knowledge", slow)
        monkeypatch.setattr(Model, "encode_setup", failing)
        with pytest.raises(KeyError, match="set-up failed"):
            model.loss_sum(batch)
        assert done == [1]

    def test_no_tape_on_the_worker_under_no_grad(self, desk_tok, monkeypatch):
        model = desk(desk_tok, True)
        batch = prepare_examples(TRIPLED, desk_tok, model.cfg)
        monkeypatch.setattr(ag, "LEAF_FLOOR", 0)
        make, made = ag._make, []

        def recording(data, parents, backward):
            out = make(data, parents, backward)
            if threading.current_thread().name.startswith("autograd"):
                made.append(out._backward is not None)
            return out

        monkeypatch.setattr(ag, "_make", recording)
        eval_loss(model, batch)
        assert made and not any(made)
        made.clear()
        model.loss_sum(batch)  # the control: with grad on, the worker's tensors record a tape
        assert made and all(made)

    def test_concurrent_training_gets_the_serial_bytes(self, desk_tok, monkeypatch):
        """Two threads train their own fused desk model at floor 0 with a short switch interval,
        sharing the one worker; each gets the losses, weights and valid loss of a serial run."""
        batch = prepare_examples(TRIPLED, desk_tok, preset("desk").model)

        def run():
            model, rng = desk(desk_tok, True), np.random.default_rng(4)
            opt = Adam(1e-3)
            losses = [train_step(model, batch, opt, rng)[0] for _ in range(3)]
            return losses, {k: p.data.copy() for k, p in model.params.items()}, eval_loss(model, batch)

        want = run()
        monkeypatch.setattr(ag, "LEAF_FLOOR", 0)
        results = []

        def repeat():
            for _ in range(2):
                results.append(run())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=repeat) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 4
        for losses, weights, val in results:
            assert losses == want[0] and val == want[2]
            for k, w in want[1].items():
                np.testing.assert_array_equal(weights[k], w, err_msg=k)


class TestPrepareExamples:
    def test_shapes_and_ids(self, tok):
        ex = prepare_examples(RECORDS, tok, TINY)
        assert len(ex) == len(RECORDS)
        for e in ex:
            assert e.tgt[0] == tok.bos_id and e.tgt[-1] == tok.eos_id

    def test_pad_masked_in_loss(self, tok):
        rng = np.random.default_rng(2)
        model = Model(init_params(rng, TINY, tok.vocab_size, fused=False), TINY, tok, False)
        src = np.asarray(tok.encode("the cat sat"))
        tgt = np.asarray([tok.bos_id] + tok.encode("on the mat") + [tok.eos_id])
        loss_a, n_a = model.sequence_loss(src, tgt)
        padded = np.concatenate([tgt, [tok.pad_id, tok.pad_id]])
        loss_b, n_b = model.sequence_loss(src, padded)
        assert n_a == n_b
        # the pad positions contribute nothing to the loss
        assert abs(float(loss_a.data) - float(loss_b.data)) < 1e-9


class TestTrainLoop:
    def test_batch_loss_invariant_to_example_order(self, tok):
        from punchgen.training import batch_loss

        rng = np.random.default_rng(9)
        model = Model(init_params(rng, TINY, tok.vocab_size, fused=False), TINY, tok, False)
        ex = prepare_examples(RECORDS, tok, TINY)
        loss_a, n_a = batch_loss(model, ex)
        loss_b, n_b = batch_loss(model, ex[::-1])
        assert n_a == n_b
        assert abs(float(loss_a.data) - float(loss_b.data)) < 1e-12

    def test_eval_loss_is_the_per_example_token_mean(self, tok):
        rng = np.random.default_rng(10)
        plain = Model(init_params(rng, TINY, tok.vocab_size, fused=False), TINY, tok, False)
        fused = transplant(plain, seed=1)
        ex = prepare_examples(TRIPLED * 10, tok, TINY)
        assert len(ex) == 40 > 2 * EVAL_BATCH
        total, tokens = 0.0, 0
        for e in ex:
            loss, n = fused.sequence_loss(e.src, e.tgt, e.triples)
            total += float(loss.data)
            tokens += n
        assert abs(eval_loss(fused, ex) - total / tokens) <= 1e-12

    def test_no_training_example_rejected(self, tok):
        rng = np.random.default_rng(4)
        model = Model(init_params(rng, TINY, tok.vocab_size, fused=False), TINY, tok, False)
        with pytest.raises(ValueError, match="no training example"):
            train_loop(model, [], prepare_examples(RECORDS, tok, TINY), TrainConfig(), rng)

    def test_loss_decreases_on_tiny_corpus(self, tok):
        split = small_split()
        tcfg = TrainConfig(batch_size=4, max_steps=40, eval_every=40, seed=3)
        result = pretrain(split, TINY, tcfg, tok)
        first = result.history[0]["loss"]
        assert result.best_val_loss < first

    def test_same_seed_same_curve(self, tok):
        split = small_split()
        tcfg = TrainConfig(batch_size=2, max_steps=10, eval_every=5, seed=7)
        a = pretrain(split, TINY, tcfg, tok)
        b = pretrain(split, TINY, tcfg, tok)
        assert [e["loss"] for e in a.history] == [e["loss"] for e in b.history]

    def test_train_events_log_grad_norm_and_clipping(self, tok):
        events = []
        tcfg = TrainConfig(batch_size=2, max_steps=3, eval_every=3, seed=7, clip_norm=1e-6)
        pretrain(small_split(), TINY, tcfg, tok, log_fn=events.append)
        train = [e for e in events if e["split"] == "train"]
        assert len(train) == 3
        assert all(e["grad_norm"] > 1e-6 and e["clipped"] is True for e in train)
        # each step's non-PAD target tokens; a batch of 2 examples holds 2 to 2 * max_len - 2
        assert all(isinstance(e["tokens"], int) and 2 <= e["tokens"] <= 2 * TINY.max_len - 2 for e in train)

    def test_divergence_raises(self, tok):
        rng = np.random.default_rng(4)
        model = Model(init_params(rng, TINY, tok.vocab_size, fused=False), TINY, tok, False)
        model.params["emb"].data[:] = np.inf
        ex = prepare_examples(RECORDS, tok, TINY)
        # the inf embeddings make NaNs on purpose; only the DivergenceError is under test
        with pytest.raises(DivergenceError), np.errstate(all="ignore"):
            train_step(model, ex[:2], Adam(0.001), rng)

    def test_early_stopping_restores_best(self, tok, monkeypatch):
        # on a held-out valid split at this rate the valid loss falls, then rises
        tcfg = TrainConfig(batch_size=2, max_steps=60, eval_every=5, patience=2, seed=5, learning_rate=0.01)
        result, at_eval, snapshots = train_capturing(tok, HELD_OUT, tcfg, monkeypatch)
        assert result.steps_run == 30
        improving = improving_steps(result.history)
        assert improving == [5, 10, 15, 20] and snapshots == 4
        best = improving[-1]
        for name, p in result.model.params.items():
            assert np.array_equal(p.data, at_eval[best][name]), name
        val = eval_loss(result.model, prepare_examples(HELD_OUT.valid, tok, TINY))
        assert val == result.best_val_loss

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_valid_loss_raises(self, tok, monkeypatch, value):
        monkeypatch.setattr(training, "eval_loss", lambda model, examples: value)
        tcfg = TrainConfig(batch_size=2, max_steps=10, eval_every=5, seed=5)
        with pytest.raises(DivergenceError, match=f"valid loss is {value} at step 5"):
            pretrain(small_split(), TINY, tcfg, tok)


class TestOneCopyOfTheWeights:
    """train_loop keeps a best-weights snapshot only while training goes on, and no gradient
    outlives its step."""

    def test_no_snapshot_when_only_the_last_step_evaluates(self, tok, monkeypatch):
        tcfg = TrainConfig(batch_size=2, max_steps=10, eval_every=10, seed=5)
        result, _, snapshots = train_capturing(tok, small_split(), tcfg, monkeypatch)
        assert result.steps_run == 10 and snapshots == 0

    @pytest.mark.parametrize("learning_rate,improving", [
        (0.01, list(range(5, 61, 5))),
        (0.1, [5, 10, 15, 25, 35, 40, 45, 50, 55]),
    ], ids=["every-evaluation-improves", "last-evaluation-does-not"])
    def test_snapshots_follow_improving_evaluations(self, tok, monkeypatch, learning_rate, improving):
        """The early-stopped case is test_early_stopping_restores_best; these runs go the distance."""
        tcfg = TrainConfig(batch_size=2, max_steps=60, eval_every=5, patience=2, seed=5,
                           learning_rate=learning_rate)
        result, at_eval, snapshots = train_capturing(tok, small_split(), tcfg, monkeypatch)
        assert result.steps_run == 60
        assert improving_steps(result.history) == improving
        assert snapshots == sum(step < tcfg.max_steps for step in improving)
        for name, p in result.model.params.items():
            assert np.array_equal(p.data, at_eval[improving[-1]][name]), name

    def test_gradients_freed_after_step_and_loop(self, tok):
        rng = np.random.default_rng(4)
        model = Model(init_params(rng, TINY, tok.vocab_size, fused=False), TINY, tok, False)
        ex = prepare_examples(RECORDS, tok, TINY)
        train_step(model, ex[:2], Adam(0.001), rng)
        assert all(p.grad is None for p in model.params.values())
        tcfg = TrainConfig(batch_size=2, max_steps=4, eval_every=2, seed=4)
        result = train_loop(model, ex, ex, tcfg, rng)
        assert all(p.grad is None for p in result.model.params.values())


class TestTransplant:
    def _pretrained(self, tok, seed=6):
        rng = np.random.default_rng(seed)
        return Model(init_params(rng, TINY, tok.vocab_size, fused=False), TINY, tok, False)

    def test_copied_tensors_identical(self, tok):
        plain = self._pretrained(tok)
        fused = transplant(plain, seed=0)
        for name, p in plain.params.items():
            np.testing.assert_array_equal(fused.params[name].data, p.data)

    def test_lambda_one_forward_equality(self, tok):
        plain = self._pretrained(tok)
        fused = transplant(plain, seed=0)
        src = tok.encode("the cat sat")
        prefix = [tok.bos_id] + tok.encode("on")
        d_f = fused.decode_step(prefix, fused.encode_setup(src), None)
        d_p = plain.decode_step(prefix, plain.encode_setup(src), None)
        np.testing.assert_array_equal(d_f, d_p)

    def test_knowledge_side_varies_with_seed(self, tok):
        plain = self._pretrained(tok)
        f1 = transplant(plain, seed=1)
        f2 = transplant(plain, seed=2)
        for name in f1.params:
            if is_knowledge_only(name) and f1.params[name].data.size and \
                    np.abs(f1.params[name].data).sum() > 0:
                assert not np.array_equal(f1.params[name].data, f2.params[name].data)
            elif not is_knowledge_only(name):
                np.testing.assert_array_equal(f1.params[name].data, f2.params[name].data)

    def test_fused_source_rejected(self, tok):
        plain = self._pretrained(tok)
        fused = transplant(plain, seed=0)
        with pytest.raises(ConfigMismatch):
            transplant(fused)

    def test_incompatible_config_rejected(self, tok):
        plain = self._pretrained(tok)
        del plain.params["enc.0.attn.wq"]
        with pytest.raises(ConfigMismatch):
            transplant(plain)

    @pytest.mark.parametrize("name", ["enc.0.attn.wq", "enc.0.ln1.g"], ids=["drawn", "constant"])
    def test_differently_shaped_tensor_rejected(self, tok, name):
        plain = self._pretrained(tok)
        plain.params[name] = ag.Tensor(np.zeros(plain.params[name].shape[:-1] + (3,)))
        with pytest.raises(ConfigMismatch, match=name):
            transplant(plain)

    @pytest.mark.parametrize("floor", [None, 0], ids=["default-floor", "floor-0"])
    def test_tensors_are_those_of_a_whole_fused_draw(self, tok, monkeypatch, floor):
        """transplant draws only the knowledge-only tensors and jumps past the others' draws:
        each tensor is a copy of the plain model's or the one a whole fused init_params from the
        seed gives, as when transplant drew every tensor and dropped the pretrainable ones."""
        if floor is not None:
            monkeypatch.setattr(ag, "LEAF_FLOOR", floor)
        plain = self._pretrained(tok)
        fused = transplant(plain, seed=3)
        whole = init_params(np.random.default_rng(3), TINY, tok.vocab_size, fused=True)
        assert list(fused.params) == list(whole)
        for name, tensor in fused.params.items():
            want = whole[name] if is_knowledge_only(name) else plain.params[name]
            assert tensor.data is not want.data
            assert tensor.data.dtype == want.data.dtype and tensor.data.flags.c_contiguous, name
            assert tensor.data.tobytes() == want.data.tobytes(), name


class TestFinetune:
    def test_gate_receives_gradient_and_moves(self, tok):
        plain = TestTransplant()._pretrained(tok)
        fused = transplant(plain, seed=0)
        before = fused.params["dec.0.gate.wg"].data.copy()
        split = small_split(TRIPLED)
        tcfg = TrainConfig(batch_size=4, max_steps=3, eval_every=3, seed=8)
        finetune(fused, split, tcfg)
        assert not np.array_equal(fused.params["dec.0.gate.wg"].data, before)

    def test_all_transplanted_params_move_too(self, tok):
        plain = TestTransplant()._pretrained(tok)
        fused = transplant(plain, seed=0)
        before = fused.params["enc.0.attn.wq"].data.copy()
        tcfg = TrainConfig(batch_size=4, max_steps=3, eval_every=3, seed=8)
        finetune(fused, small_split(TRIPLED), tcfg)
        assert not np.array_equal(fused.params["enc.0.attn.wq"].data, before)

    def test_plain_model_rejected(self, tok):
        plain = TestTransplant()._pretrained(tok)
        with pytest.raises(ConfigMismatch):
            finetune(plain, small_split(), TrainConfig())


class TestCheckpointResume:
    def test_bit_level_resume(self, tok, tmp_path):
        split = small_split()
        ex = prepare_examples(split.train, tok, TINY)

        def fresh():
            rng = np.random.default_rng(11)
            params = init_params(rng, TINY, tok.vocab_size, fused=False)
            return Model(params, TINY, tok, False), rng

        # uninterrupted: 3 steps
        model_a, rng_a = fresh()
        opt_a = Adam(0.001)
        for _ in range(3):
            idx = rng_a.integers(0, len(ex), size=2)
            train_step(model_a, [ex[i] for i in idx], opt_a, rng_a)

        # interrupted: 2 steps, save, load, 1 step
        model_b, rng_b = fresh()
        opt_b = Adam(0.001)
        for _ in range(2):
            idx = rng_b.integers(0, len(ex), size=2)
            train_step(model_b, [ex[i] for i in idx], opt_b, rng_b)
        path = tmp_path / "resume.ckpt"
        save_checkpoint(path, model_b, step=2, opt_state=opt_b.state(), rng_state=rng_b.bit_generator.state)

        model_c, opt_state, step, rng_state = load_checkpoint(path)
        assert step == 2
        rng_c = np.random.default_rng(0)
        rng_c.bit_generator.state = rng_state
        opt_c = Adam(0.001, state=opt_state)
        idx = rng_c.integers(0, len(ex), size=2)
        train_step(model_c, [ex[i] for i in idx], opt_c, rng_c)

        for name in model_a.params:
            np.testing.assert_array_equal(model_a.params[name].data, model_c.params[name].data)
