"""Two-step training: pretrain a plain transformer, transplant, fine-tune.

The pretrain stage trains (set-up -> punchline) with teacher forcing and
no knowledge side at all. Transplanting copies every pretrainable tensor
into a freshly initialized fused model (fusion attention, gates and the
whole knowledge side start from scratch). Fine-tuning then updates every
parameter. Optimization is Adam at a constant learning rate with global
gradient-norm clipping; early stopping watches validation loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .config import ModelConfig, TrainConfig
from .corpus import DatasetSplit, JokeRecord
from .model import Example, Model, init_params
from .tokenizer import Tokenizer

EVAL_BATCH = 16  # examples per validation forward; a large valid split never becomes one forward


class DivergenceError(Exception):
    """Training loss became non-finite."""


class ConfigMismatch(Exception):
    """Pretrained checkpoint is incompatible with the fused model config."""


@dataclass
class TrainResult:
    model: Model
    best_val_loss: float
    history: list[dict] = field(default_factory=list)
    steps_run: int = 0


def prepare_examples(records: list[JokeRecord], tokenizer: Tokenizer,
                     cfg: ModelConfig) -> list[Example]:
    """Tokenize records once; sequences are truncated to the model maximum."""
    out = []
    for rec in records:
        src = tokenizer.encode(rec.setup)[: cfg.max_len]
        tgt = [tokenizer.bos_id] + tokenizer.encode(rec.punchline) + [tokenizer.eos_id]
        tgt = tgt[: cfg.max_len]
        if not src or len(tgt) < 2:
            continue
        out.append(Example(np.asarray(src), np.asarray(tgt), tuple(rec.triples)))
    return out


class Adam:
    """Adam with bias correction and optional global-norm gradient clipping.

    A step updates each tensor in slices of CHUNK elements through three
    scratch buffers, so the temporaries of its per-element formulas stay in
    cache; the formulas and their order are the textbook ones, element by
    element, so the result does not depend on the slicing. The tensors are cut
    into the two runs of `autograd.halve`, and when some tensor has at least
    `autograd.LEAF_FLOOR` elements (so that the backward handed its gradient to
    the worker) the second run steps on autograd's worker thread, with its own
    scratch buffers. The squared gradient norms are summed in tensor order
    either way, so the clipping and every update are the serial ones.
    """

    CHUNK = 1 << 15  # elements per slice: three float64 scratch slices are 768 KiB

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, clip_norm: float | None = 1.0,
                 state: dict | None = None):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.clip_norm = clip_norm
        if state:
            self.m = {k: v.copy() for k, v in state["m"].items()}
            self.v = {k: v.copy() for k, v in state["v"].items()}
            self.t = state["t"]
        else:
            self.m, self.v = {}, {}
            self.t = 0
        self._scratch = []  # one (3, CHUNK) set per thread that has stepped

    def state(self) -> dict:
        return {"m": {k: v.copy() for k, v in self.m.items()},
                "v": {k: v.copy() for k, v in self.v.items()}, "t": self.t}

    def step(self, params: dict[str, ag.Tensor]) -> float:
        """Apply one update from the accumulated .grad fields, which it leaves as they are.

        Returns the global gradient norm before clipping; clipping was
        active when it exceeds clip_norm. Parameters without a gradient
        are treated as zero-gradient.
        """
        for name, p in params.items():
            if name not in self.m:
                self.m[name], self.v[name] = np.zeros(p.data.shape), np.zeros(p.data.shape)
        items = list(params.items())
        sizes = [p.data.size for _, p in items]
        cut = ag.halve(sizes)
        split = any(n >= ag.LEAF_FLOOR for n in sizes)
        while len(self._scratch) < 1 + split:
            self._scratch.append(np.empty((3, self.CHUNK)))
        with ag.beside(split) as submit:
            theirs = submit(lambda: _squared_norms(items[cut:]))
            total = math.sqrt(sum(_squared_norms(items[:cut]) + theirs()))
        scale = self.clip_norm / total if self.clip_norm is not None and total > self.clip_norm else None
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        with ag.beside(split) as submit:  # unsplit, this thread runs both in turn on scratch set 0
            theirs = submit(lambda: self._update_run(items[cut:], self._scratch[split], scale, bc1, bc2))
            self._update_run(items[:cut], self._scratch[0], scale, bc1, bc2)
            theirs()
        return total

    def _update_run(self, items, scratch, scale, bc1, bc2) -> None:
        for name, p in items:
            m = self.m[name].reshape(-1)
            v = self.v[name].reshape(-1)
            g = np.zeros(p.data.size) if p.grad is None else p.grad.reshape(-1)
            data = p.data if p.data.flags.c_contiguous else np.ascontiguousarray(p.data)
            flat = data.reshape(-1)
            for lo in range(0, flat.size, self.CHUNK):
                hi = min(lo + self.CHUNK, flat.size)
                self._update(flat[lo:hi], m[lo:hi], v[lo:hi], g[lo:hi], scratch, scale, bc1, bc2)
            if data is not p.data:
                p.data[...] = data

    def _update(self, data, m, v, g, scratch, scale, bc1, bc2) -> None:
        """data -= lr * (m / bc1) / (sqrt(v / bc2) + eps) after the moment updates, in place."""
        a, b, c = (buf[:data.size] for buf in scratch)
        if scale is not None:
            g = np.multiply(g, scale, out=a)
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=b)
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=b)
        v += np.multiply(b, g, out=b)
        np.divide(m, bc1, out=c)
        c *= self.lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        data -= np.divide(c, b, out=c)


def _squared_norms(items) -> list[float]:
    """Each present gradient's squared norm, in order."""
    return [float((p.grad * p.grad).sum()) for _, p in items if p.grad is not None]


def batch_loss(model: Model, batch: list[Example], dropout_rng=None) -> tuple[ag.Tensor, int]:
    """Token-weighted mean cross-entropy over a batch (one packed forward)."""
    total, tokens = model.loss_sum(batch, dropout_rng=dropout_rng)
    return total * (1.0 / tokens), tokens


def eval_loss(model: Model, examples: list[Example]) -> float:
    """Per-token validation loss, deterministic (no dropout, no tape), in chunks of EVAL_BATCH."""
    with ag.no_grad():
        sums = [model.loss_sum(examples[i:i + EVAL_BATCH]) for i in range(0, len(examples), EVAL_BATCH)]
    return sum(float(loss.data) for loss, _ in sums) / max(sum(n for _, n in sums), 1)


def _clear_grads(model: Model) -> None:
    for p in model.params.values():
        p.zero_grad()


def train_step(model: Model, batch: list[Example], opt: Adam, rng) -> tuple[float, int, float]:
    """One optimizer step; returns (per-token loss, non-PAD target tokens, pre-clip gradient norm).

    Gradients live only inside the step: every .grad is None before the
    forward and again once Adam has used it.
    """
    _clear_grads(model)
    loss, tokens = batch_loss(model, batch, dropout_rng=rng)
    value = float(loss.data)
    if not math.isfinite(value):
        raise DivergenceError(f"loss is {value}")
    loss.backward()
    grad_norm = opt.step(model.params)
    _clear_grads(model)
    return value, tokens, grad_norm


def _snapshot(params: dict[str, ag.Tensor]) -> dict[str, np.ndarray]:
    return {k: v.data.copy() for k, v in params.items()}


def _restore(params: dict[str, ag.Tensor], snap: dict[str, np.ndarray]) -> None:
    """Swap the snapshot's arrays in; the snapshot must not be used afterwards."""
    for k, v in params.items():
        v.data = snap[k]


def train_loop(model: Model, train_ex: list[Example], valid_ex: list[Example],
               tcfg: TrainConfig, rng: np.random.Generator,
               log_fn=None) -> TrainResult:
    """Step loop with periodic validation and early stopping (best weights win).

    The model is the only full copy of the weights until an evaluation
    improves before the last step: only then is the best snapshotted
    (best_snap None means the live weights are the best evaluated so far),
    and early stopping swaps that snapshot back in. A non-finite valid
    loss raises DivergenceError.
    """
    if not train_ex:
        raise ValueError("no training example is left after tokenization")
    opt = Adam(tcfg.learning_rate, tcfg.beta1, tcfg.beta2, tcfg.eps, clip_norm=tcfg.clip_norm)
    log = log_fn or (lambda event: None)
    best_val = math.inf
    best_snap = None
    stale = 0
    history = []
    step = 0
    for step in range(1, tcfg.max_steps + 1):
        idx = rng.integers(0, len(train_ex), size=tcfg.batch_size)
        loss, tokens, grad_norm = train_step(model, [train_ex[i] for i in idx], opt, rng)
        event = {"step": step, "split": "train", "loss": loss, "ppl": math.exp(min(loss, 50)),
                 "tokens": tokens, "grad_norm": grad_norm}
        if grad_norm > tcfg.clip_norm:
            event["clipped"] = True
        history.append(event)
        log(event)
        if step % tcfg.eval_every == 0 or step == tcfg.max_steps:
            val = eval_loss(model, valid_ex) if valid_ex else loss
            vevent = {"step": step, "split": "valid", "loss": val, "ppl": math.exp(min(val, 50))}
            history.append(vevent)
            log(vevent)
            if not math.isfinite(val):
                raise DivergenceError(f"valid loss is {val} at step {step}")
            if val < best_val - 1e-12:
                best_val = val
                best_snap = None  # drop the old snapshot before taking the next
                if step < tcfg.max_steps:
                    best_snap = _snapshot(model.params)
                stale = 0
            else:
                stale += 1
                if stale >= tcfg.patience:
                    break
    if best_snap is not None:
        _restore(model.params, best_snap)
    return TrainResult(model=model, best_val_loss=best_val, history=history, steps_run=step)


# ------------------------------------------------------------------ two stages


def pretrain(split: DatasetSplit, mcfg: ModelConfig, tcfg: TrainConfig,
             tokenizer: Tokenizer, log_fn=None) -> TrainResult:
    """Stage one: plain transformer on (set-up -> punchline), no knowledge."""
    rng = np.random.default_rng(tcfg.seed)
    params = init_params(rng, mcfg, tokenizer.vocab_size, fused=False)
    model = Model(params, mcfg, tokenizer, fused=False)
    train_ex = prepare_examples(split.train, tokenizer, mcfg)
    valid_ex = prepare_examples(split.valid, tokenizer, mcfg)
    return train_loop(model, train_ex, valid_ex, tcfg, rng, log_fn=log_fn)


def transplant(pretrained: Model, seed: int = 0) -> Model:
    """Copy the pretrainable partition into a freshly initialized fused model.

    Only the knowledge-only tensors are drawn; the generator jumps past the pretrainable
    ones' draws, so each tensor is the one a full draw from `seed` would give.
    """
    if pretrained.fused:
        raise ConfigMismatch("transplant source must be a plain (non-fused) model")
    cfg = pretrained.cfg
    try:
        params = init_params(np.random.default_rng(seed), cfg, pretrained.tokenizer.vocab_size,
                             fused=True, pretrained=pretrained.params)
    except (KeyError, ValueError) as exc:
        raise ConfigMismatch(f"pretrained checkpoint lacks compatible tensor {exc}") from exc
    return Model(params, cfg, pretrained.tokenizer, fused=True)


def finetune(model: Model, split: DatasetSplit, tcfg: TrainConfig,
             log_fn=None) -> TrainResult:
    """Stage two: every parameter (transplanted and fresh) receives gradients."""
    if not model.fused:
        raise ConfigMismatch("finetune expects the fused model")
    rng = np.random.default_rng(tcfg.seed)
    train_ex = prepare_examples(split.train, model.tokenizer, model.cfg)
    valid_ex = prepare_examples(split.valid, model.tokenizer, model.cfg)
    return train_loop(model, train_ex, valid_ex, tcfg, rng, log_fn=log_fn)
