"""Limited-memory BFGS with strong Wolfe line search.

Minimizes ``f(x) + l1 * ||x||_1`` where the caller supplies the smooth
part and its gradient. The inverse-Hessian action is the standard
two-loop recursion over the last ``memory`` curvature pairs. With a
nonzero l1 coefficient the update switches to the orthant-wise variant:
the search direction comes from the pseudo-gradient, is projected onto
the descent orthant, and line-search iterates are clipped to the orthant
of the current point.

Every inner product here, and the CRF's L2 term, is ``np.einsum("i,i->",
a, b)``: BLAS's ``np.dot`` sums a long vector in per-thread chunks, so the
BLAS thread count would pick the rounding and the fitted model's bytes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]


class LineSearchError(FloatingPointError):
    """Line search failed to make progress; carries iteration diagnostics."""


@dataclass
class OptimizeResult:
    x: np.ndarray
    fun: float
    iterations: int
    converged: bool
    message: str
    trace: list[float] = field(default_factory=list)  # objective per iteration
    evaluations: int = 0  # calls of the objective, line searches included


def _two_loop(grad, history):
    """-H grad from the curvature triples ``(s, y, 1/s.y)``, oldest first."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * np.einsum("i,i->", s, q)
        alphas.append(a)
        q -= a * y
    if history:
        s, y, _ = history[-1]
        q *= np.einsum("i,i->", s, y) / np.einsum("i,i->", y, y)
    for (s, y, rho), a in zip(history, reversed(alphas)):
        b = rho * np.einsum("i,i->", y, q)
        q += (a - b) * s
    return -q


def _wolfe_search(fun, x, f0, g0, direction, init_step, c1=1e-4, c2=0.9,
                  max_evals=30):
    """Strong Wolfe search; returns (x_new, f, g)."""
    dphi0 = float(np.einsum("i,i->", g0, direction))
    if dphi0 >= 0:
        raise LineSearchError(
            f"search direction is not a descent direction (g.d={dphi0:.3e})"
        )

    def phi(a):
        f, g = fun(x + a * direction)
        return f, g, float(np.einsum("i,i->", g, direction))

    def zoom(lo, f_lo, g_lo, hi):
        for _ in range(max_evals):
            a = 0.5 * (lo + hi)
            f, g, d = phi(a)
            if f > f0 + c1 * a * dphi0 or f >= f_lo:
                hi = a
            else:
                if abs(d) <= -c2 * dphi0:
                    return a, f, g
                if d * (hi - lo) >= 0:
                    hi = lo
                lo, f_lo, g_lo = a, f, g
            if abs(hi - lo) < 1e-16:
                break
        # interval collapsed; accept lo if it at least decreases f
        if f_lo < f0 and lo > 0:
            return lo, f_lo, g_lo
        raise LineSearchError("zoom failed to satisfy Wolfe conditions")

    a_prev, f_prev, g_prev = 0.0, f0, g0
    a = init_step
    for i in range(max_evals):
        f, g, d = phi(a)
        if f > f0 + c1 * a * dphi0 or (i > 0 and f >= f_prev):
            a, f, g = zoom(a_prev, f_prev, g_prev, a)
            break
        if abs(d) <= -c2 * dphi0:
            break
        if d >= 0:
            a, f, g = zoom(a, f, g, a_prev)
            break
        a_prev, f_prev, g_prev = a, f, g
        a = 2.0 * a
    else:
        raise LineSearchError(f"no Wolfe step within {max_evals} expansions")
    return x + a * direction, f, g


def _pseudo_gradient(x, grad, l1):
    plus, minus = grad + l1, grad - l1
    at_zero = x == 0
    return np.select([x > 0, x < 0, at_zero & (plus < 0), at_zero & (minus > 0)],
                     [plus, minus, plus, minus], 0.0)


def _owlqn_step(fun, x, f_total, direction, pg, l1, max_evals=40):
    """Backtracking Armijo step with orthant projection."""
    orthant = np.where(x != 0, np.sign(x), -np.sign(pg))
    step = 1.0
    for _ in range(max_evals):
        x_new = x + step * direction
        x_new[np.sign(x_new) != orthant] = 0.0
        f_smooth, g_new = fun(x_new)
        f_new = f_smooth + l1 * np.abs(x_new).sum()
        if f_new <= f_total + 1e-4 * float(np.einsum("i,i->", pg, x_new - x)):
            return x_new, f_new, g_new
        step *= 0.5
    raise LineSearchError(f"orthant-wise backtracking failed after {max_evals} halvings")


def minimize(
    fun: Objective,
    x0: np.ndarray,
    memory: int = 6,
    max_iterations: int = 100,
    tol: float = 1e-5,
    l1: float = 0.0,
    callback: Callable[[int, float], None] | None = None,
) -> OptimizeResult:
    """Minimize fun(x)[0] + l1*||x||_1.

    `fun` returns (value, gradient) of the smooth part. Convergence is a
    relative objective change below `tol`; the objective never increases
    across accepted iterations. ``trace`` holds the objective at the start
    and after each of the ``iterations`` accepted steps.
    """
    evaluations = 0

    def counted(x):
        nonlocal evaluations
        evaluations += 1
        return objective(x)

    objective, fun = fun, counted
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fun(x)
    # f is the total objective. The Wolfe search, which needs the smooth
    # one, runs only at l1 = 0, where the two are the same float.
    f = f + l1 * np.abs(x).sum()
    trace = [f]
    history: deque = deque(maxlen=memory)  # (s, y, 1 / s.y) triples

    converged = False
    message = "max_iterations reached"
    for it in range(1, max_iterations + 1):
        pg = _pseudo_gradient(x, g, l1) if l1 > 0 else g
        if np.max(np.abs(pg)) < 1e-10:
            converged, message = True, "gradient below threshold"
            break
        direction = _two_loop(pg, history)
        if l1 > 0:
            direction[direction * -pg <= 0] = 0.0
            if not np.any(direction):
                converged, message = True, "no descent orthant direction"
                break
        try:
            if l1 > 0:
                x_new, f_new, g_new = _owlqn_step(fun, x, f, direction, pg, l1)
            else:
                init_step = min(1.0, 1.0 / np.sum(np.abs(g))) if it == 1 else 1.0
                x_new, f_new, g_new = _wolfe_search(fun, x, f, g, direction,
                                                    init_step)
        except LineSearchError as err:
            raise LineSearchError(
                f"iteration {it}: {err} (f={f:.6g}, |g|max={np.max(np.abs(g)):.3e})"
            ) from err

        s = x_new - x
        y = g_new - g
        sy = float(np.einsum("i,i->", s, y))
        if sy > 1e-10:
            history.append((s, y, 1.0 / sy))

        rel_change = abs(f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        trace.append(f)
        if callback is not None:
            callback(it, f)
        if rel_change < tol:
            converged, message = True, "relative objective change below tol"
            break

    return OptimizeResult(x, f, len(trace) - 1, converged, message, trace,
                          evaluations)
