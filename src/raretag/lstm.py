"""One LSTM direction in float64 numpy, forward and reverse mode, over
``chain``'s packed layout. ``W [4H, D]``, ``U [4H, H]`` and ``b [4H]`` hold
the input (i), forget (f), output (o) and candidate (g) gates as row
blocks; the forget-gate bias starts at 1.0. ``X @ W.T`` runs once, outside
the recurrence, which makes one ``[batch_sizes[t], H] @ U.T`` per position
(Appleyard, Kočiský & Blunsom 2016). A right-to-left direction is the same
call on ``chain.reversed_rows``-permuted inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chain
from .rng import Pcg64

GATES = ("i", "f", "o", "g")


@dataclass
class LstmCell:
    input_dim: int
    hidden_dim: int
    W: np.ndarray  # [4*hidden, input], gate row blocks i, f, o, g
    U: np.ndarray  # [4*hidden, hidden]
    b: np.ndarray  # [4*hidden]

    def __post_init__(self):
        rows = 4 * self.hidden_dim
        for name, shape in (("W", (rows, self.input_dim)),
                            ("U", (rows, self.hidden_dim)), ("b", (rows,))):
            value = getattr(self, name)
            if value.shape != shape:
                raise ValueError(f"{name} shape {value.shape} != {shape}")
            if not np.isfinite(value).all():
                raise ValueError(f"LSTM weights {name} must be finite")

    @classmethod
    def create(cls, input_dim: int, hidden_dim: int,
               rng: Pcg64) -> "LstmCell":
        """A cell with W and U drawn uniform(-0.1, 0.1) from ``rng`` (any
        object with numpy's ``uniform(low, high, size)``), b zero but for
        the forget gate's 1.0."""
        scale = 0.1
        W = rng.uniform(-scale, scale, (4 * hidden_dim, input_dim))
        U = rng.uniform(-scale, scale, (4 * hidden_dim, hidden_dim))
        b = np.zeros(4 * hidden_dim)
        b[hidden_dim : 2 * hidden_dim] = 1.0
        return cls(input_dim, hidden_dim, W, U, b)

    def parameters(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "U": self.U, "b": self.b}


def run_sequence(
    cell: LstmCell, inputs: np.ndarray, batch_sizes=None
) -> tuple[np.ndarray, tuple]:
    """Hidden states [N, hidden] of packed input rows [N, input_dim] and
    the cache that ``backprop_sequence`` takes. ``batch_sizes=None`` is one
    sentence, run left to right."""
    if inputs.ndim != 2 or inputs.shape[1] != cell.input_dim:
        raise ValueError(f"inputs of shape {inputs.shape} for a cell "
                         f"({cell.input_dim} -> {cell.hidden_dim})")
    sizes = chain.packed_sizes(batch_sizes, inputs.shape[0]).tolist()
    H = cell.hidden_dim
    acts = inputs @ cell.W.T + cell.b  # pre-activations, then activations
    cs = np.empty((inputs.shape[0], H))
    hs = np.empty_like(cs)
    h = c = np.zeros((max(sizes, default=0), H))  # the state before position 0
    start = 0
    for n in sizes:
        a = acts[start : start + n]
        a += h[:n] @ cell.U.T
        # sigmoid(z) = (1 + tanh(z / 2)) / 2 on i, f, o; one tanh for all
        a[:, : 3 * H] *= 0.5
        np.tanh(a, out=a)
        a[:, : 3 * H] += 1.0
        a[:, : 3 * H] *= 0.5
        c = a[:, :H] * a[:, 3 * H :] + a[:, H : 2 * H] * c[:n]
        h = a[:, 2 * H : 3 * H] * np.tanh(c)
        cs[start : start + n] = c
        hs[start : start + n] = h
        start += n
    return hs, (inputs, sizes, acts, cs, hs)


def backprop_sequence(
    cell: LstmCell, cache: tuple, dh_seq: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Reverse-mode pass; ``dh_seq[r]`` is dLoss/dh of packed row r from
    above. Returns the gradients of ``cell.parameters()`` and dLoss/dinputs
    [N, input_dim]."""
    inputs, sizes, acts, cs, hs = cache
    H = cell.hidden_dim
    pred, succ = chain.links(np.array(sizes))
    c_prev = np.zeros_like(cs)
    c_prev[succ] = cs[pred]
    i, f, o, g = (acts[:, k * H : (k + 1) * H] for k in range(4))
    tanh_c = np.tanh(cs)
    dc_dh = o * (1.0 - tanh_c * tanh_c)
    # dA = coef * dc for the i, f and g blocks, coef * dh for the o block
    coef = np.hstack([g * i * (1.0 - i), c_prev * f * (1.0 - f),
                      tanh_c * o * (1.0 - o), i * (1.0 - g * g)])
    dA = np.empty_like(acts)
    end = len(inputs)
    dh_carry = dc_carry = np.zeros((0, H))  # from the successors
    for n in reversed(sizes):
        rows = slice(end - n, end)
        dh = dh_seq[rows].copy()
        dh[: len(dh_carry)] += dh_carry
        dc = dh * dc_dh[rows]
        dc[: len(dc_carry)] += dc_carry
        da = dA[rows]
        np.multiply(coef[rows].reshape(n, 4, H), dc[:, None, :],
                    out=da.reshape(n, 4, H))
        np.multiply(dh, coef[rows, 2 * H : 3 * H], out=da[:, 2 * H : 3 * H])
        dh_carry, dc_carry = da @ cell.U, dc * f[rows]
        end -= n
    grads = {"W": dA.T @ inputs, "U": dA[succ].T @ hs[pred], "b": dA.sum(axis=0)}
    return grads, dA @ cell.W
