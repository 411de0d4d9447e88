"""Training settings of both model kinds, free of numpy so that the CLI
can read a config of any kind without loading the model code.

``crf.TrainConfig`` is this ``TrainConfig``, and ``neural.FitConfig`` this
``FitConfig``; ``features.DEFAULT_WINDOW`` is this ``DEFAULT_WINDOW``, and
``embeddings.OOV_POLICIES`` and ``DEFAULT_OOV_POLICY`` are these.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

DEFAULT_WINDOW = 2  # tokens on each side that the CRF's features read
EMBEDDING_DIM = 50  # of an ``embedding = random`` table
OOV_POLICIES = ("zeros", "random_seeded", "mean_vector")
DEFAULT_OOV_POLICY = "random_seeded"


def require_finite(config) -> None:
    """Reject a settings dataclass with a nan or infinite field."""
    for setting in dataclasses.fields(config):
        value = getattr(config, setting.name)
        if not math.isfinite(value):
            raise ValueError(f"{setting.name} must be finite, got {value}")


@dataclass
class TrainConfig:
    l2_coefficient: float = 1.0
    l1_coefficient: float = 0.0
    max_iterations: int = 100
    convergence_tol: float = 1e-5
    lbfgs_memory: int = 6
    window: int = DEFAULT_WINDOW

    def __post_init__(self):
        require_finite(self)
        if min(self.l2_coefficient, self.l1_coefficient) < 0:
            raise ValueError("regularization coefficients must be >= 0")
        if self.max_iterations < 0 or self.lbfgs_memory < 1:
            raise ValueError("invalid iteration/memory settings")
        if self.window < 0:
            raise ValueError(f"window must be >= 0, got {self.window}")


@dataclass
class FitConfig:
    learning_rate: float = 0.001
    max_epochs: int = 50
    patience: int = 4
    batch_size: int = 32
    hidden_dim: int = 100
    seed: int = 0
    gradient_clip_norm: float = 5.0

    def __post_init__(self):
        require_finite(self)
        if self.learning_rate < 0 or self.max_epochs < 0:
            raise ValueError("learning_rate and max_epochs must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if min(self.patience, self.batch_size, self.hidden_dim) < 1:
            raise ValueError("patience, batch_size, hidden_dim must be >= 1")
        if self.gradient_clip_norm <= 0:
            raise ValueError("gradient_clip_norm must be positive")
