"""Finite-difference checks for every autodiff primitive."""

import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from punchgen import autograd as ag
from suite_support import bounded, on_worker, subprocess_env


def numeric_grad(f, x, h=1e-6):
    """Central finite differences of scalar f w.r.t. ndarray x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + h
        fp = f()
        x[i] = orig - h
        fm = f()
        x[i] = orig
        g[i] = (fp - fm) / (2 * h)
        it.iternext()
    return g


def check_unary(op, shape=(3, 4), positive=False, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape)
    if positive:
        data = np.abs(data) + 0.5
    x = ag.Tensor(data, requires_grad=True)
    out = op(x, **kwargs)
    w = rng.normal(size=out.shape)
    (out * ag.Tensor(w)).sum().backward()

    def f():
        with ag.no_grad():
            return float((op(ag.Tensor(data), **kwargs).data * w).sum())

    np.testing.assert_allclose(x.grad, numeric_grad(f, data), rtol=1e-5, atol=1e-7)


class TestUnaryOps:
    def test_tanh(self):
        check_unary(ag.tanh)

    def test_sigmoid(self):
        check_unary(ag.sigmoid)

    def test_sigmoid_matches_split_formula(self):
        """Bit for bit the formula that splits on the sign: 1/(1+exp(-x)) for x >= 0, else e^x/(1+e^x)."""
        x = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, np.nan, 3.5, -3.5, 1e-300, -1e-300])
        want = np.empty_like(x)
        pos = x >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        want[~pos] = ex / (1.0 + ex)
        np.testing.assert_array_equal(ag.sigmoid(ag.Tensor(x)).data, want)

    def test_relu(self):
        check_unary(ag.relu, seed=3)

    def test_leaky_relu(self):
        check_unary(ag.leaky_relu, slope=0.2, seed=3)

    def test_softmax(self):
        check_unary(lambda t: ag.softmax(t, axis=-1))
        check_unary(lambda t: ag.softmax(t, axis=0))

    def test_reshape(self):
        check_unary(lambda t: ag.reshape(t, (4, 3)))

    def test_swapaxes(self):
        check_unary(lambda t: ag.swapaxes(t, 0, 1))
        check_unary(lambda t: ag.swapaxes(t, -1, -3), shape=(2, 3, 4))

    def test_sum_axis(self):
        check_unary(lambda t: ag.tsum(t, axis=1))
        check_unary(lambda t: ag.tsum(t, axis=0, keepdims=True))


class TestBinaryOps:
    @pytest.mark.parametrize("sa,sb", [((3, 4), (3, 4)), ((3, 4), (4,)), ((3, 1), (1, 4)), ((3, 4), ())])
    def test_add_broadcast(self, sa, sb):
        rng = np.random.default_rng(1)
        da, db = rng.normal(size=sa), rng.normal(size=sb)
        a, b = ag.Tensor(da, requires_grad=True), ag.Tensor(db, requires_grad=True)
        out = a + b
        w = rng.normal(size=out.shape)
        (out * ag.Tensor(w)).sum().backward()

        def f():
            with ag.no_grad():
                return float(((da + db) * w).sum())

        np.testing.assert_allclose(a.grad, numeric_grad(f, da), rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(b.grad, numeric_grad(f, db), rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("sa,sb", [((3, 4), (3, 4)), ((3, 4), (4,)), ((3, 4), ())])
    def test_mul_broadcast(self, sa, sb):
        rng = np.random.default_rng(2)
        da, db = rng.normal(size=sa), rng.normal(size=sb)
        a, b = ag.Tensor(da, requires_grad=True), ag.Tensor(db, requires_grad=True)
        (a * b).sum().backward()

        def f():
            with ag.no_grad():
                return float((da * db).sum())

        np.testing.assert_allclose(a.grad, numeric_grad(f, da), rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(b.grad, numeric_grad(f, db), rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("sa,sb", [((3, 4), (4, 5)), ((3, 4), (4,)), ((4,), (4, 5)), ((4,), (4,)),
                                       ((2, 3, 4), (2, 4, 5)), ((2, 3, 4), (4, 5)), ((3, 4), (2, 4, 5)),
                                       ((2, 3, 4), (4,)), ((2, 3, 4, 5), (5, 6))])
    def test_matmul(self, sa, sb):
        rng = np.random.default_rng(3)
        da, db = rng.normal(size=sa), rng.normal(size=sb)
        a, b = ag.Tensor(da, requires_grad=True), ag.Tensor(db, requires_grad=True)
        out = a @ b
        np.testing.assert_allclose(out.data, np.matmul(da, db), rtol=0, atol=1e-12)
        w = rng.normal(size=out.shape)
        (out * ag.Tensor(w)).sum().backward()

        def f():
            with ag.no_grad():
                return float(((da @ db) * w).sum())

        np.testing.assert_allclose(a.grad, numeric_grad(f, da), rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(b.grad, numeric_grad(f, db), rtol=1e-5, atol=1e-7)


    def test_matmul_strided_left_operand(self):
        """A 2-D weight times a left operand that swapaxes left non-contiguous."""
        rng = np.random.default_rng(4)
        da, db = rng.normal(size=(4, 3, 5)), rng.normal(size=(5, 6))
        a, b = ag.Tensor(da, requires_grad=True), ag.Tensor(db, requires_grad=True)
        left = ag.swapaxes(a, 0, 1)
        assert not left.data.flags.c_contiguous
        out = left @ b
        np.testing.assert_allclose(out.data, np.matmul(np.swapaxes(da, 0, 1), db), rtol=0, atol=1e-12)
        w = rng.normal(size=out.shape)
        (out * ag.Tensor(w)).sum().backward()

        def f():
            return float((np.matmul(np.swapaxes(da, 0, 1), db) * w).sum())

        np.testing.assert_allclose(a.grad, numeric_grad(f, da), rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(b.grad, numeric_grad(f, db), rtol=1e-5, atol=1e-7)


    def test_matmul_t_is_matmul_by_the_swapped_operand_bit_for_bit(self):
        """matmul_t(a, b) gives the value and gradients of a @ swapaxes(b, 0, 1), one node fewer."""
        rng = np.random.default_rng(4)
        da, db, w = rng.normal(size=(5, 7)), rng.normal(size=(11, 7)), rng.normal(size=(5, 11))
        got = []
        for product in (lambda a, b: ag.matmul_t(a, b), lambda a, b: a @ ag.swapaxes(b, 0, 1)):
            a, b = ag.Tensor(da, requires_grad=True), ag.Tensor(db, requires_grad=True)
            out = product(a, b)
            (out * ag.Tensor(w)).sum().backward()
            assert b.grad.flags.c_contiguous
            got.append((out.data, a.grad, b.grad))
        for mine, want in zip(*got):
            np.testing.assert_array_equal(mine, want)

        def f():
            return float(((da @ db.T) * w).sum())

        np.testing.assert_allclose(got[0][2], numeric_grad(f, db), rtol=1e-5, atol=1e-7)


class TestStructuredOps:
    def test_concat(self):
        rng = np.random.default_rng(5)
        da, db = rng.normal(size=(2, 3)), rng.normal(size=(2, 5))
        a, b = ag.Tensor(da, requires_grad=True), ag.Tensor(db, requires_grad=True)
        out = ag.concat([a, b], axis=1)
        assert out.shape == (2, 8)
        w = rng.normal(size=(2, 8))
        (out * ag.Tensor(w)).sum().backward()
        np.testing.assert_allclose(a.grad, w[:, :3])
        np.testing.assert_allclose(b.grad, w[:, 3:])

    def test_slice(self):
        rng = np.random.default_rng(6)
        da = rng.normal(size=(4, 6))
        a = ag.Tensor(da, requires_grad=True)
        a[1:3, ::2].sum().backward()
        expect = np.zeros_like(da)
        expect[1:3, ::2] = 1.0
        np.testing.assert_allclose(a.grad, expect)

    def test_embedding_scatter(self):
        rng = np.random.default_rng(7)
        table = ag.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        ids = np.array([0, 2, 2, 4])
        out = table[ids]  # a repeated id scatter-adds its rows
        w = rng.normal(size=(4, 3))
        (out * ag.Tensor(w)).sum().backward()
        expect = np.zeros((5, 3))
        np.add.at(expect, ids, w)
        np.testing.assert_allclose(table.grad, expect)
        # a basic index cannot repeat an element; its gradient is assigned
        xw = ag.Tensor(rng.normal(size=(4, 5, 6)), requires_grad=True)
        w = rng.normal(size=(2, 6))
        (xw[:2, 3] * ag.Tensor(w)).sum().backward()
        expect = np.zeros((4, 5, 6))
        expect[:2, 3] = w
        np.testing.assert_array_equal(xw.grad, expect)

    REAL = np.array([[True, True, True, False], [True, True, False, False]])  # 5 real rows

    def test_scatter_rows(self):
        check_unary(ag.scatter_rows, shape=(5, 3), real=self.REAL)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(5, 3))
        out = ag.scatter_rows(ag.Tensor(x), self.REAL).data
        assert out.shape == (2, 4, 3)
        np.testing.assert_array_equal(out[self.REAL], x)
        assert not out[~self.REAL].any()

    def test_mask_slice(self):
        check_unary(lambda x, real: x[real], shape=(2, 4, 3), real=self.REAL)

    def test_mask_slice_gradient_equals_scatter_add(self):
        """A mask's assigned gradient is the scatter-add of its row indices, bit for bit."""
        rng = np.random.default_rng(11)
        a = ag.Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        w = rng.normal(size=(5, 3))
        (a[self.REAL] * ag.Tensor(w)).sum().backward()
        expect = np.zeros((2, 4, 3))
        np.add.at(expect, np.nonzero(self.REAL), w)
        np.testing.assert_array_equal(a.grad, expect)

    def test_cross_entropy_matches_log_softmax(self):
        rng = np.random.default_rng(8)
        dl = rng.normal(size=(6, 9))
        targets = rng.integers(0, 9, size=6)
        logits = ag.Tensor(dl, requires_grad=True)
        loss = ag.cross_entropy_sum(logits, targets)
        manual = -np.log(np.exp(dl - dl.max(1, keepdims=True)).T / np.exp(dl - dl.max(1, keepdims=True)).sum(1)).T[np.arange(6), targets].sum()
        np.testing.assert_allclose(float(loss.data), manual, rtol=1e-10)
        loss.backward()

        def f():
            with ag.no_grad():
                return float(ag.cross_entropy_sum(ag.Tensor(dl), targets).data)

        np.testing.assert_allclose(logits.grad, numeric_grad(f, dl), rtol=1e-5, atol=1e-8)

    def test_layer_norm(self):
        rng = np.random.default_rng(9)
        dx = rng.normal(size=(4, 6))
        dg = rng.normal(size=6)
        db = rng.normal(size=6)
        x = ag.Tensor(dx, requires_grad=True)
        g = ag.Tensor(dg, requires_grad=True)
        b = ag.Tensor(db, requires_grad=True)
        out = ag.layer_norm(x, g, b)
        w = rng.normal(size=(4, 6))
        (out * ag.Tensor(w)).sum().backward()

        def f():
            with ag.no_grad():
                return float((ag.layer_norm(ag.Tensor(dx), ag.Tensor(dg), ag.Tensor(db)).data * w).sum())

        np.testing.assert_allclose(x.grad, numeric_grad(f, dx), rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(g.grad, numeric_grad(f, dg), rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(b.grad, numeric_grad(f, db), rtol=1e-5, atol=1e-8)


class TestTapeMechanics:
    def test_grad_accumulates_on_reuse(self):
        x = ag.Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_diamond_graph(self):
        x = ag.Tensor(np.array([1.5]), requires_grad=True)
        a = x * 2.0
        b = ag.tanh(x)
        (a * b).sum().backward()
        # d/dx (2x * tanh x) = 2 tanh x + 2x (1 - tanh^2 x)
        np.testing.assert_allclose(x.grad, 2 * np.tanh(1.5) + 3.0 * (1 - np.tanh(1.5) ** 2))

    @pytest.mark.parametrize("s_first", [True, False])
    def test_shared_gradient_array_is_not_written_through(self, s_first):
        # add hands one gradient array to both parents; accumulating into it in place
        # would leak a's later gradient into b's
        a = ag.Tensor(np.ones(3), requires_grad=True)
        b = ag.Tensor(np.ones(3), requires_grad=True)
        s = a + b
        out = s * 2.0 + a * 3.0 if s_first else a * 3.0 + s * 2.0
        out.sum().backward()
        np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(a.grad, [5.0, 5.0, 5.0])

    def test_no_grad_blocks_tape(self):
        x = ag.Tensor(np.ones(3), requires_grad=True)
        with ag.no_grad():
            y = (x * 2.0).sum()
        assert not y.requires_grad
        assert y._backward is None

    def test_backward_requires_scalar(self):
        x = ag.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 1.0).backward()

    def test_zero_grad(self):
        x = ag.Tensor(np.ones(2), requires_grad=True)
        (x * 2.0).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_backward_frees_spent_interior_nodes(self):
        rng = np.random.default_rng(12)
        dx, dw = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        x = ag.Tensor(dx, requires_grad=True)
        w = ag.Tensor(dw, requires_grad=True)
        h = ag.tanh(x @ w)
        sq = h * h
        interior = [h, sq, sq.sum()]
        loss = interior[-1] + (x * 2.0).sum()
        interior.append(loss)
        loss.backward()
        for node in interior:
            assert node.grad is None and node._parents == () and node._backward is None
        # leaf gradients are what the unfreed tape gives
        th = np.tanh(dx @ dw)
        gpre = 2 * th * (1 - th * th)
        np.testing.assert_allclose(x.grad, gpre @ dw.T + 2.0, rtol=1e-12)
        np.testing.assert_allclose(w.grad, dx.T @ gpre, rtol=1e-12)


class TestThreads:
    def test_no_grad_is_per_thread(self):
        """Overlapping no_grad blocks on two threads: A enters, B enters, A leaves, B leaves."""
        x = ag.Tensor(np.ones(2), requires_grad=True)
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def thread_a():
            with ag.no_grad():
                a_in.set()
                b_in.wait(10)
                seen["a_inside"] = (x * 2.0).requires_grad
            a_out.set()
            seen["a_after"] = (x * 2.0).requires_grad

        def thread_b():
            a_in.wait(10)
            seen["b_before"] = (x * 2.0).requires_grad  # A's block must not stop B's tape
            with ag.no_grad():
                b_in.set()
                a_out.wait(10)
                seen["b_inside"] = (x * 2.0).requires_grad
            seen["b_after"] = (x * 2.0).requires_grad

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
        assert not any(t.is_alive() for t in threads)
        assert seen == {"a_inside": False, "b_before": True, "b_inside": False,
                        "a_after": True, "b_after": True}
        assert (x * 2.0).requires_grad

    @staticmethod
    def leaf_grads():
        """Gradients of two weights, a bias, a layer norm and an embedding after one backward."""
        rng = np.random.default_rng(5)
        emb = ag.Tensor(rng.normal(size=(7, 6)), requires_grad=True)
        w1, w2 = (ag.Tensor(rng.normal(size=(6, 6)), requires_grad=True) for _ in range(2))
        b = ag.Tensor(rng.normal(size=6), requires_grad=True)
        g, beta = ag.Tensor(np.ones(6), requires_grad=True), ag.Tensor(np.zeros(6), requires_grad=True)
        h = emb[np.array([[1, 4, 4], [0, 6, 1]])]
        h = ag.layer_norm(ag.tanh(h @ w1 + b) @ w2 + h, g, beta)
        ((h @ w1) * h).sum().backward()  # w1 twice: two contributions in tape order
        return {"emb": emb.grad, "w1": w1.grad, "w2": w2.grad, "b": b.grad, "g": g.grad, "beta": beta.grad}

    def test_worker_backward_is_bit_identical(self, monkeypatch):
        serial = self.leaf_grads()
        monkeypatch.setattr(ag, "LEAF_FLOOR", 0)
        threaded = self.leaf_grads()
        for k, want in serial.items():
            np.testing.assert_array_equal(threaded[k], want, err_msg=k)

    def test_concurrent_backwards_share_the_worker(self, monkeypatch):
        """Four threads (more than the cores) run backwards at once through the one worker, with
        a short switch interval; each gets the serial gradients every time."""
        serial = self.leaf_grads()
        monkeypatch.setattr(ag, "LEAF_FLOOR", 0)
        mismatches = []

        def run():
            for _ in range(20):
                got = self.leaf_grads()
                mismatches.extend(k for k, want in serial.items() if not np.array_equal(got[k], want))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    def test_worker_error_raises_after_every_job(self, monkeypatch):
        """The first worker job fails late; backward raises only once every queued job has run,
        and the next backward is correct."""
        accumulate = ag.Tensor._accumulate
        leaf_calls, worker_calls = [], []

        def counting(self, grad, on_worker=False):
            if self._backward is None:
                leaf_calls.append(1)
            return accumulate(self, grad, on_worker)

        def flaky(self, grad, on_worker=False):
            if on_worker:
                assert threading.current_thread() is not threading.main_thread()
                worker_calls.append(1)
                if len(worker_calls) == 1:
                    time.sleep(0.05)
                    raise RuntimeError("worker failed")
            return accumulate(self, grad, on_worker)

        serial = self.leaf_grads()
        monkeypatch.setattr(ag.Tensor, "_accumulate", counting)
        self.leaf_grads()
        monkeypatch.setattr(ag.Tensor, "_accumulate", flaky)
        monkeypatch.setattr(ag, "LEAF_FLOOR", 0)
        with pytest.raises(RuntimeError, match="worker failed"):
            self.leaf_grads()
        # every leaf accumulation went to the worker, and all had run when backward raised
        assert len(worker_calls) == len(leaf_calls) == 7
        assert ag._WORKER._work_queue.empty()
        again = self.leaf_grads()
        for k, want in serial.items():
            np.testing.assert_array_equal(again[k], want, err_msg=k)

    def test_beside_runs_jobs_in_order_and_waits_for_all(self):
        """Jobs run on the worker in submission order; the block's own error wins, and it
        surfaces only once every job has finished."""
        ran = []

        def job(k):
            time.sleep(0.02)
            ran.append((k, threading.current_thread().name))
            if k == 0:
                raise RuntimeError("job failed")
            return k

        with pytest.raises(KeyError):
            with ag.beside() as submit:
                for k in range(3):
                    submit(lambda k=k: job(k))
                raise KeyError("caller failed")
        assert [k for k, _ in ran] == [0, 1, 2]
        assert all(name.startswith("autograd") for _, name in ran)
        with ag.beside() as submit:
            first, second = submit(lambda: job(0)), submit(lambda: job(1))
            assert second() == 1
            with pytest.raises(RuntimeError, match="job failed"):
                first()

    def test_beside_off_runs_each_job_when_asked(self):
        ran = []
        with ag.beside(False) as submit:
            got = submit(lambda: ran.append(threading.current_thread().name) or 5)
            assert ran == []
            assert got() == 5
        assert ran == [threading.current_thread().name]

    def test_beside_lends_the_caller_context(self):
        def grad_mode():
            return threading.current_thread().name, ag.Tensor(np.ones(2), requires_grad=True).requires_grad

        worker, on = on_worker(grad_mode)
        assert worker.startswith("autograd") and on
        with ag.no_grad():
            assert on_worker(grad_mode) == (worker, False)
            assert not grad_mode()[1]
        assert grad_mode()[1]

    def test_halve_cuts_into_two_runs_of_about_equal_sum(self):
        assert ag.halve([]) == 0
        assert ag.halve([5]) == 1  # the worker's run is empty
        assert ag.halve([1, 1, 1, 1]) == 2
        assert ag.halve([3, 1, 1, 1]) == 1
        assert ag.halve([1, 1, 1, 3]) == 3

    def test_a_deadlocked_worker_fails_the_run_instead_of_hanging_it(self):
        """A worker job that waits for a job queued behind it never returns. The child's wait
        for it times out, and the child must exit with that error rather than hang on the
        worker thread at interpreter exit."""
        child = textwrap.dedent("""
            import threading
            from punchgen import autograd as ag

            queued, behind = threading.Event(), []
            stuck = ag._WORKER.submit(lambda: queued.wait() and behind[0].result())
            behind.append(ag._WORKER.submit(lambda: 1))
            queued.set()
            stuck.result(timeout=1)
        """)
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              env=subprocess_env(), timeout=60)
        assert proc.returncode == 1
        assert "TimeoutError" in proc.stderr.splitlines()[-1]

    def test_the_worker_never_waits_for_itself(self, monkeypatch):
        """beside and a backward reached from a worker job run inline there."""
        def names():
            return threading.current_thread().name

        nested = bounded(lambda: on_worker(lambda: (on_worker(names), names())))
        worker = nested[0]
        assert nested == (worker, worker) and worker.startswith("autograd") and names() != worker
        serial = self.leaf_grads()
        monkeypatch.setattr(ag, "LEAF_FLOOR", 0)
        there = bounded(lambda: on_worker(self.leaf_grads))
        for k, want in serial.items():
            np.testing.assert_array_equal(there[k], want, err_msg=k)
