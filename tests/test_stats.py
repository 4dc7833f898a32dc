import numpy as np
import pytest

from adasde.stats import fit_loglog_slope


class TestFitLoglogSlope:
    def test_recovers_exact_power(self):
        x = np.array([0.1, 0.2, 0.4, 0.8])
        assert fit_loglog_slope(x, 3.0 * x**2) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("power", [-1.0, 0.5, 3.0])
    def test_recovers_any_exact_power_on_uneven_x(self, power):
        x = np.array([0.05, 0.1, 0.3, 0.7, 2.0])
        assert fit_loglog_slope(x, 0.4 * x**power) == pytest.approx(power, abs=1e-12)

    def test_units_of_x_and_y_leave_the_slope(self):
        x = np.array([0.1, 0.2, 0.4, 0.8])
        y = np.array([0.3, 0.5, 1.7, 2.2])
        slope = fit_loglog_slope(x, y)
        assert fit_loglog_slope(10.0 * x, y) == pytest.approx(slope, abs=1e-12)
        assert fit_loglog_slope(x, 1e3 * y) == pytest.approx(slope, abs=1e-12)

    def test_is_the_least_squares_slope_of_the_logs(self):
        x = np.array([0.1, 0.2, 0.4, 0.8, 1.6])
        y = np.array([0.3, 0.5, 1.7, 2.2, 9.0])
        lx, ly = np.log(x), np.log(y)
        lx_c = lx - lx.mean()
        assert fit_loglog_slope(x, y) == pytest.approx(lx_c @ (ly - ly.mean()) / (lx_c @ lx_c), rel=1e-12)

    def test_a_vector_gives_a_float_and_a_block_an_array(self):
        x = np.array([0.25, 0.5, 1.0])
        assert type(fit_loglog_slope(x, x**2)) is float
        slopes = fit_loglog_slope(x, np.stack([x**2, x**-1], axis=1))
        assert isinstance(slopes, np.ndarray) and slopes.shape == (2,)
        np.testing.assert_allclose(slopes, [2.0, -1.0], atol=1e-12)

    def test_columns_fit_bitwise_as_alone(self):
        x = np.array([0.25, 0.5, 1.0])
        y = np.random.default_rng(0).uniform(0.1, 2.0, size=(3, 8))
        slopes = fit_loglog_slope(x, y)
        assert slopes.tolist() == [fit_loglog_slope(x, y[:, b]) for b in range(8)]

    @pytest.mark.parametrize("x, y", [
        ([0.1, np.nan, 0.4], [1.0, 2.0, 3.0]),
        ([0.1, 0.2, 0.4], [1.0, np.inf, 3.0]),
        ([0.1, 0.2, np.inf], [1.0, 2.0, 3.0]),
        ([0.1, 0.2, 0.4], [[1.0, 2.0], [np.nan, 3.0], [4.0, 5.0]]),
    ], ids=["nan-x", "inf-y", "inf-x", "nan-in-a-column"])
    def test_rejects_non_finite_values(self, x, y):
        with pytest.raises(ValueError, match="finite"):
            fit_loglog_slope(x, y)

    def test_rejects_equal_x(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_loglog_slope([0.3, 0.3, 0.3], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("x, y", [([0.1, -0.2], [1.0, 2.0]), ([0.1, 0.2], [1.0, 0.0]), ([0.1], [1.0])])
    def test_rejects_non_positive_or_single_point(self, x, y):
        with pytest.raises(ValueError):
            fit_loglog_slope(x, y)
