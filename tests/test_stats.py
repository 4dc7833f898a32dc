import numpy as np
import pytest

from adasde.stats import (
    Moments,
    fit_loglog_slope,
    jackknife_moments,
    jackknife_se,
    select_third_triples,
)


def samples(n=25, d=3, seed=0):
    return np.random.default_rng(seed).standard_normal((n, d)) + np.array([0.5, -1.0, 2.0])[:d]


class TestJackknifeSe:
    def test_matches_brute_force_delete_one(self):
        x = samples()
        n = x.shape[0]
        leave_one_out = np.stack([np.delete(x, i, axis=0).mean(axis=0) for i in range(n)])
        spread = leave_one_out - leave_one_out.mean(axis=0)
        brute = np.sqrt((n - 1) / n * np.sum(spread**2, axis=0))
        np.testing.assert_allclose(jackknife_se(x), brute, rtol=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            jackknife_se(np.ones((1, 2)))


class TestJackknifeMoments:
    TRIPLES = [(0, 0, 1), (0, 1, 2)]

    def test_centred_second_is_the_sample_covariance(self):
        x = samples()
        mom = jackknife_moments(x, self.TRIPLES, centered=True)
        np.testing.assert_allclose(mom.second, np.cov(x, rowvar=False), rtol=1e-12)
        np.testing.assert_allclose(mom.first, x.mean(axis=0), rtol=1e-12)

    def test_raw_second_is_the_mean_outer_product(self):
        x = samples()
        mom = jackknife_moments(x, self.TRIPLES, centered=False)
        np.testing.assert_allclose(mom.second, x.T @ x / x.shape[0], rtol=1e-12)

    def test_third_moments_are_raw_means(self):
        x = samples()
        mom = jackknife_moments(x, self.TRIPLES, centered=True)
        np.testing.assert_allclose(mom.third_diag, np.mean(x**3, axis=0), rtol=1e-12)
        expected = [np.mean(x[:, i] * x[:, j] * x[:, k]) for i, j, k in self.TRIPLES]
        np.testing.assert_allclose(mom.triple_values, expected, rtol=1e-12)
        assert mom.triples == tuple(self.TRIPLES)

    @pytest.mark.parametrize("centered", [True, False])
    def test_second_is_exactly_symmetric(self, centered):
        mom = jackknife_moments(samples(n=40, d=3, seed=4), self.TRIPLES, centered=centered)
        np.testing.assert_array_equal(mom.second, mom.second.T)

    def test_returns_moments(self):
        mom = jackknife_moments(samples(), self.TRIPLES, centered=True)
        assert isinstance(mom, Moments) and mom.dim == 3


class TestMoments:
    def _moments(self, second):
        d = 2
        return Moments(
            first=np.zeros(d), first_se=np.zeros(d), second=second, second_se=np.zeros_like(second),
            third_diag=np.zeros(d), third_diag_se=np.zeros(d), triples=(),
            triple_values=np.zeros(0), triple_se=np.zeros(0),
        )

    def test_rejects_asymmetric_second(self):
        with pytest.raises(ValueError, match="symmetric"):
            self._moments(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            self._moments(np.eye(3))

    @pytest.mark.parametrize("name, bad", [
        ("first_se", np.zeros(1)),
        ("second_se", np.zeros((2, 3))),
        ("third_diag", np.zeros(3)),
        ("third_diag_se", np.zeros((2, 1))),
        ("triple_values", np.zeros(3)),
        ("triple_se", np.zeros(0)),
    ])
    def test_rejects_field_sized_for_another_estimate(self, name, bad):
        # one triple at dim 2: every field's size follows from dim and len(triples)
        good = dict(
            first=np.zeros(2), first_se=np.zeros(2), second=np.eye(2), second_se=np.zeros((2, 2)),
            third_diag=np.zeros(2), third_diag_se=np.zeros(2), triples=((0, 0, 1),),
            triple_values=np.zeros(1), triple_se=np.zeros(1),
        )
        Moments(**good)
        with pytest.raises(ValueError, match=f"{name} has shape"):
            Moments(**{**good, name: bad})


class TestSelectThirdTriples:
    @pytest.mark.parametrize("dim", [1, 2, 4, 9])
    def test_off_diagonal_and_ordered(self, dim):
        for i, j, k in select_third_triples(dim):
            assert not (i == j == k)
            assert 0 <= i <= j <= k < dim

    def test_deterministic(self):
        assert select_third_triples(9) == select_third_triples(9)

    @pytest.mark.parametrize("count", [1, 7, 20])
    def test_count_respected(self, count):
        triples = select_third_triples(9, count=count)
        assert len(triples) == count and len(set(triples)) == count

    def test_all_triples_when_count_exceeds_them(self):
        # d = 3 has C(5, 3) = 10 ordered triples, 3 of them diagonal
        triples = select_third_triples(3, count=100)
        assert len(triples) == 7
        assert set(triples) == {
            (i, j, k) for i in range(3) for j in range(i, 3) for k in range(j, 3) if not i == j == k
        }


class TestFitLoglogSlope:
    def test_recovers_exact_power(self):
        x = np.array([0.1, 0.2, 0.4, 0.8])
        assert fit_loglog_slope(x, 3.0 * x**2) == pytest.approx(2.0, abs=1e-12)

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
