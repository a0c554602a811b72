"""Model/training configuration with named presets and YAML round-trip.

The "paper" preset is the full-scale configuration (512-d, 4 blocks,
8 heads, 2048 feed-forward, 25k vocabulary, batch 16, lr 0.001, beam 5).
The "desk" preset is a laptop-sized variant used by the test and
acceptance suites.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class ModelConfig:
    d_model: int = 512
    n_blocks: int = 4
    n_heads: int = 8
    d_ff: int = 2048
    gat_layers: int = 2
    vocab_size: int = 25000
    max_len: int = 128
    dropout: float = 0.1

    def __post_init__(self):
        if min(self.d_model, self.n_blocks, self.n_heads, self.d_ff,
               self.vocab_size, self.max_len) <= 0:
            raise ValueError("all model dimensions must be positive")
        if self.d_model % self.n_heads:
            raise ValueError("n_heads must divide d_model")
        if self.d_model % 2:
            raise ValueError("d_model must be even (bidirectional node encoder)")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def d_rnn(self) -> int:
        # forward/backward halves concatenate back to d_model
        return self.d_model // 2


@dataclass
class TrainConfig:
    batch_size: int = 16
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 1.0
    max_steps: int = 2000
    eval_every: int = 50
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        for name in ("max_steps", "eval_every", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        for name in ("clip_norm", "eps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    beam: int = 5
    max_decode_len: int = 64
    dedup_threshold: float = 0.93
    max_per_entity: int = 10

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError(f"a run config is a mapping of fields, not a {type(data).__name__}")
        model = ModelConfig(**data.get("model", {}))
        train = TrainConfig(**data.get("train", {}))
        extra = {k: v for k, v in data.items() if k not in ("model", "train")}
        return cls(model=model, train=train, **extra)

    # yaml is imported on the first save or load, not with the module: only --config runs use
    # it, and it costs every other command about 15 ms to load
    def save(self, path: str | Path) -> None:
        import yaml

        Path(path).write_text(yaml.safe_dump(self.to_dict(), sort_keys=True), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        import yaml

        return cls.from_dict(yaml.safe_load(Path(path).read_text(encoding="utf-8")) or {})


def preset(name: str) -> RunConfig:
    if name == "paper":
        return RunConfig(model=ModelConfig())
    if name == "desk":
        return RunConfig(model=ModelConfig(
            d_model=64, n_blocks=2, n_heads=4, d_ff=256, vocab_size=2000))
    raise ValueError(f"unknown preset {name!r} (expected 'paper' or 'desk')")
