import numpy as np
import pytest

from raretag.lbfgs import LineSearchError, minimize


def quadratic(center, scales):
    def fun(x):
        d = x - center
        return float(0.5 * np.sum(scales * d * d)), scales * d
    return fun


def rosenbrock(x):
    a, b = 1.0, 100.0
    f = (a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2
    g = np.array([
        -2 * (a - x[0]) - 4 * b * x[0] * (x[1] - x[0] ** 2),
        2 * b * (x[1] - x[0] ** 2),
    ])
    return float(f), g


class TestSmooth:
    def test_quadratic_converges_to_center(self):
        center = np.array([3.0, -2.0, 0.5])
        result = minimize(quadratic(center, np.array([1.0, 10.0, 0.1])),
                          np.zeros(3), tol=1e-12)
        assert result.converged
        assert np.max(np.abs(result.x - center)) < 1e-5

    def test_rosenbrock(self):
        result = minimize(rosenbrock, np.array([-1.2, 1.0]),
                          max_iterations=200, tol=1e-14)
        assert np.max(np.abs(result.x - 1.0)) < 1e-4

    def test_objective_non_increasing(self):
        result = minimize(rosenbrock, np.array([-1.2, 1.0]), max_iterations=60,
                          tol=1e-14)
        trace = result.trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_zero_iterations_returns_start(self):
        x0 = np.array([1.0, 2.0])
        result = minimize(quadratic(np.zeros(2), np.ones(2)), x0,
                          max_iterations=0)
        assert np.array_equal(result.x, x0)
        assert result.iterations == 0

    def test_zero_iterations_trace_includes_l1(self):
        result = minimize(quadratic(np.zeros(2), np.ones(2)),
                          np.array([1.0, -2.0]), max_iterations=0, l1=0.5)
        assert result.fun == 4.0
        assert result.trace == [result.fun]
        assert result.evaluations == 1

    def test_already_optimal(self):
        center = np.array([1.0, 1.0])
        result = minimize(quadratic(center, np.ones(2)), center.copy())
        assert result.converged
        assert result.iterations <= 1

    @pytest.mark.parametrize("start,l1", [
        ([-1.2, 1.0], 0.0), ([1.0, 1.0], 0.0), ([-1.2, 1.0], 0.5)])
    def test_trace_and_evaluation_counts(self, start, l1):
        calls = []

        def counted(x):
            calls.append(x)
            return rosenbrock(x)

        result = minimize(counted, np.array(start), max_iterations=30, l1=l1)
        assert result.evaluations == len(calls)
        assert len(result.trace) == result.iterations + 1
        assert result.evaluations >= result.iterations

    def test_ascent_direction_raises(self):
        def bad(x):
            return float(-np.sum(x * x)), -2 * x  # maximization masquerading

        with pytest.raises(LineSearchError):
            minimize(bad, np.array([1.0, 1.0]))


class TestOrthantWise:
    def test_l1_drives_weights_to_zero(self):
        center = np.array([0.4, -0.3, 2.0])
        result = minimize(quadratic(center, np.ones(3)), np.zeros(3),
                          l1=0.5, max_iterations=100, tol=1e-12)
        # soft-threshold solution: sign(c) * max(|c| - l1, 0)
        expected = np.sign(center) * np.maximum(np.abs(center) - 0.5, 0.0)
        assert np.max(np.abs(result.x - expected)) < 1e-4
        assert result.x[0] == 0.0
        assert result.x[1] == 0.0

    def test_l1_objective_non_increasing(self):
        center = np.arange(1.0, 6.0)
        result = minimize(quadratic(center, np.ones(5)), np.zeros(5), l1=1.0,
                          max_iterations=50)
        trace = result.trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_stronger_l1_means_sparser(self):
        center = np.array([0.8, -0.6, 1.5, 0.2])
        fun = quadratic(center, np.ones(4))
        weak = minimize(fun, np.zeros(4), l1=0.1, max_iterations=100, tol=1e-12)
        strong = minimize(fun, np.zeros(4), l1=1.0, max_iterations=100, tol=1e-12)
        assert np.sum(strong.x == 0) >= np.sum(weak.x == 0)
        assert np.abs(strong.x).sum() < np.abs(weak.x).sum()


def test_collapsed_zoom_returns_its_stored_point():
    """Slope -1 below x = 1 and +1000 above: the first step lands on the
    kink, no point meets the curvature condition, and the zoom bracket
    shrinks toward x = 1, which it accepts without evaluating it again."""
    evaluated = []

    def kinked(x):
        evaluated.append(float(x[0]))
        if x[0] < 1.0:
            return float(-x[0]), np.array([-1.0])
        return float(-1.0 + 1000.0 * (x[0] - 1.0)), np.array([1000.0])

    result = minimize(kinked, np.zeros(1), max_iterations=1)
    assert result.x.tolist() == [1.0]
    assert result.fun == -1.0
    assert result.evaluations == len(evaluated) == 32
    assert len(set(evaluated)) == len(evaluated)


@pytest.mark.parametrize("l1,search", [(0.0, "zoom"), (0.5, "orthant-wise")])
def test_failed_line_search_reports_its_diagnostics(l1, search):
    def uphill(x):  # the gradient claims that f falls along +x
        return float(np.sum(x)), -np.ones_like(x)

    with pytest.raises(LineSearchError) as err:
        minimize(uphill, np.zeros(3), l1=l1)
    message = str(err.value)
    assert message.startswith(f"iteration 1: {search}")
    assert "f=" in message and "|g|max=" in message
