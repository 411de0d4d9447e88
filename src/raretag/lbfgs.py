"""Limited-memory BFGS with strong Wolfe line search.

Minimizes ``f(x) + l1 * ||x||_1`` where the caller supplies the smooth
part and its gradient. The inverse-Hessian action is the standard
two-loop recursion over the last ``memory`` curvature pairs. With a
nonzero l1 coefficient the update switches to the orthant-wise variant:
the search direction comes from the pseudo-gradient, is projected onto
the descent orthant, and line-search iterates are clipped to the orthant
of the current point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]


class LineSearchError(RuntimeError):
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


def _two_loop(grad, s_list, y_list, rho_list):
    q = grad.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * np.dot(s, q)
        alphas.append(a)
        q -= a * y
    if s_list:
        s, y = s_list[-1], y_list[-1]
        q *= np.dot(s, y) / np.dot(y, y)
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * np.dot(y, q)
        q += (a - b) * s
    return -q


def _wolfe_search(fun, x, f0, g0, direction, init_step, c1=1e-4, c2=0.9,
                  max_evals=30):
    """Strong Wolfe search; returns (step, f, g, x_new)."""
    dphi0 = float(np.dot(g0, direction))
    if dphi0 >= 0:
        raise LineSearchError(
            f"search direction is not a descent direction (g.d={dphi0:.3e})"
        )

    def phi(a):
        f, g = fun(x + a * direction)
        return f, g, float(np.dot(g, direction))

    def zoom(lo, f_lo, hi, f_hi):
        for _ in range(max_evals):
            a = 0.5 * (lo + hi)
            f, g, d = phi(a)
            if f > f0 + c1 * a * dphi0 or f >= f_lo:
                hi, f_hi = a, f
            else:
                if abs(d) <= -c2 * dphi0:
                    return a, f, g
                if d * (hi - lo) >= 0:
                    hi, f_hi = lo, f_lo
                lo, f_lo = a, f
            if abs(hi - lo) < 1e-16:
                break
        # interval collapsed; accept lo if it at least decreases f
        f, g, _ = phi(lo)
        if f < f0 and lo > 0:
            return lo, f, g
        raise LineSearchError("zoom failed to satisfy Wolfe conditions")

    a_prev, f_prev = 0.0, f0
    a = init_step
    for i in range(max_evals):
        f, g, d = phi(a)
        if f > f0 + c1 * a * dphi0 or (i > 0 and f >= f_prev):
            a, f, g = zoom(a_prev, f_prev, a, f)
            break
        if abs(d) <= -c2 * dphi0:
            break
        if d >= 0:
            a, f, g = zoom(a, f, a_prev, f_prev)
            break
        a_prev, f_prev = a, f
        a = 2.0 * a
    else:
        raise LineSearchError(f"no Wolfe step within {max_evals} expansions")
    return a, f, g, x + a * direction


def _pseudo_gradient(x, grad, l1):
    pg = np.where(x > 0, grad + l1, np.where(x < 0, grad - l1, 0.0))
    at_zero = x == 0
    plus = grad + l1
    minus = grad - l1
    pg = np.where(at_zero & (plus < 0), plus, pg)
    pg = np.where(at_zero & (minus > 0), minus, pg)
    return pg


def _owlqn_step(fun, x, f_total, grad, direction, pg, l1, max_evals=40):
    """Backtracking Armijo step with orthant projection."""
    orthant = np.where(x != 0, np.sign(x), -np.sign(pg))
    step = 1.0
    for _ in range(max_evals):
        x_new = x + step * direction
        x_new[np.sign(x_new) != orthant] = 0.0
        f_smooth, g_new = fun(x_new)
        f_new = f_smooth + l1 * np.abs(x_new).sum()
        if f_new <= f_total + 1e-4 * float(np.dot(pg, x_new - x)):
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
    f_total = f + l1 * np.abs(x).sum()
    trace = [f_total]
    s_hist: deque = deque(maxlen=memory)
    y_hist: deque = deque(maxlen=memory)
    rho_hist: deque = deque(maxlen=memory)

    converged = False
    message = "max_iterations reached"
    for it in range(1, max_iterations + 1):
        if l1 > 0:
            pg = _pseudo_gradient(x, g, l1)
        else:
            pg = g
        if np.max(np.abs(pg)) < 1e-10:
            converged, message = True, "gradient below threshold"
            break
        direction = _two_loop(pg, list(s_hist), list(y_hist), list(rho_hist))
        if l1 > 0:
            direction[direction * -pg <= 0] = 0.0
            if not np.any(direction):
                converged, message = True, "no descent orthant direction"
                break
            x_new, f_new_total, g_new = _owlqn_step(
                fun, x, f_total, g, direction, pg, l1
            )
        else:
            init_step = min(1.0, 1.0 / np.sum(np.abs(g))) if it == 1 else 1.0
            try:
                _, f_new, g_new, x_new = _wolfe_search(
                    fun, x, f, g, direction, init_step
                )
            except LineSearchError as err:
                raise LineSearchError(
                    f"iteration {it}: {err} (f={f:.6g}, |g|max={np.max(np.abs(g)):.3e})"
                ) from err
            f_new_total = f_new

        s = x_new - x
        y = g_new - g
        sy = float(np.dot(s, y))
        if sy > 1e-10:
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / sy)

        rel_change = abs(f_total - f_new_total) / max(
            abs(f_total), abs(f_new_total), 1.0
        )
        x, g = x_new, g_new
        f = f_new_total - l1 * np.abs(x).sum()
        f_total = f_new_total
        trace.append(f_total)
        if callback is not None:
            callback(it, f_total)
        if rel_change < tol:
            converged, message = True, "relative objective change below tol"
            break

    return OptimizeResult(x, f_total, len(trace) - 1, converged, message, trace,
                          evaluations)
