import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adasde.optimizers import HyperParams
from adasde.scaling import (
    hyperparams_from_constants,
    make_plan,
    scale_sqrt,
    sde_constants,
)


class TestScaleRmsprop:
    def test_frozen_example(self):
        hp = HyperParams(eta=1e-3, beta=0.999, epsilon=1e-8)
        out = scale_sqrt(hp, 4.0, "rmsprop")
        assert out.eta == pytest.approx(2e-3)
        assert out.beta == pytest.approx(0.996)
        assert out.epsilon == pytest.approx(5e-9)

    def test_identity_at_kappa_one(self):
        hp = HyperParams(eta=1e-3, beta=0.999, epsilon=1e-8)
        assert scale_sqrt(hp, 1.0, "rmsprop") == hp

    def test_decay_range_violation(self):
        hp = HyperParams(eta=1e-3, beta=0.999)
        with pytest.raises(ValueError, match=r"\[0,1\)"):
            scale_sqrt(hp, 2000.0, "rmsprop")

    def test_boundary_kappa_exactly_one_over_gap(self):
        hp = HyperParams(eta=1e-3, beta=0.999)
        with pytest.raises(ValueError):
            scale_sqrt(hp, 1000.0, "rmsprop")  # kappa * (1 - beta) = 1 exactly


class TestScaleAdam:
    def test_frozen_example(self):
        hp = HyperParams(eta=1e-3, beta1=0.999, beta2=0.999, epsilon=1e-8)
        out = scale_sqrt(hp, 16.0, "adam")
        assert out.eta == pytest.approx(4e-3)
        assert out.beta1 == pytest.approx(0.984)
        assert out.beta2 == pytest.approx(0.984)
        assert out.epsilon == pytest.approx(2.5e-9)

    @given(
        st.floats(min_value=1.0, max_value=8.0),
        st.floats(min_value=1.0, max_value=8.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_composition(self, a, b):
        hp = HyperParams(eta=1e-3, beta1=0.999, beta2=0.998, epsilon=1e-8)
        lhs = scale_sqrt(scale_sqrt(hp, a, "adam"), b, "adam")
        rhs = scale_sqrt(hp, a * b, "adam")
        assert lhs.eta == pytest.approx(rhs.eta, rel=1e-12)
        assert lhs.beta1 == pytest.approx(rhs.beta1, abs=1e-15)
        assert lhs.beta2 == pytest.approx(rhs.beta2, abs=1e-15)
        assert lhs.epsilon == pytest.approx(rhs.epsilon, rel=1e-12)

    def test_identity_at_kappa_one(self):
        hp = HyperParams(eta=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8)
        assert scale_sqrt(hp, 1.0, "adam") == hp


class TestLinearVariants:
    def test_eta_only(self):
        hp = HyperParams(eta=1e-3, beta1=0.999, beta2=0.999, epsilon=1e-8)
        out = make_plan("linear-adam", hp, 4.0).scaled
        assert out.eta == pytest.approx(4e-3)
        assert (out.beta1, out.beta2, out.epsilon) == (0.999, 0.999, 1e-8)

    def test_identity_at_kappa_one(self):
        hp = HyperParams(eta=1e-3, beta1=0.999, beta2=0.999)
        assert make_plan("linear-adam", hp, 1.0).scaled == hp


class TestPlan:
    def test_eager_validation(self):
        hp = HyperParams(eta=1e-3, beta=0.999)
        with pytest.raises(ValueError):
            make_plan("sqrt-rmsprop", hp, 2000.0)

    def test_step_map(self):
        hp = HyperParams(eta=1e-3, beta=0.999)
        plan = make_plan("sqrt-rmsprop", hp, 4.0)
        assert plan.map_step(100) == 25
        assert plan.map_step(101) == 25
        assert make_plan("sqrt-rmsprop", hp, 1.0).map_step(7) == 7

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            make_plan("cubic", HyperParams(eta=1e-3), 2.0)


class TestExactBits:
    """float.hex of every field the map returns, in HyperParams order.

    The map's arithmetic feeds every scaled and amplified run; a change that
    moves one of these bits must record them again and say why.
    """

    HP = HyperParams(eta=0.05, beta=0.99, beta1=0.9, beta2=0.99, epsilon=1e-6)
    PLANS = {
        ("sqrt-rmsprop", 4): ("0x1.999999999999ap-4", "0x1.eb851eb851eb8p-1",
                              "0x1.ccccccccccccdp-1", "0x1.fae147ae147aep-1",
                              "0x1.0c6f7a0b5ed8dp-21"),
        ("sqrt-rmsprop", 16): ("0x1.999999999999ap-3", "0x1.ae147ae147ae0p-1",
                               "0x1.ccccccccccccdp-1", "0x1.fae147ae147aep-1",
                               "0x1.0c6f7a0b5ed8dp-22"),
        ("sqrt-adam", 4): ("0x1.999999999999ap-4", "0x1.fae147ae147aep-1",
                           "0x1.3333333333334p-1", "0x1.eb851eb851eb8p-1",
                           "0x1.0c6f7a0b5ed8dp-21"),
        ("linear-sgd", 4): ("0x1.999999999999ap-3", "0x1.fae147ae147aep-1",
                            "0x1.ccccccccccccdp-1", "0x1.fae147ae147aep-1",
                            "0x1.0c6f7a0b5ed8dp-20"),
        ("linear-sgd", 16): ("0x1.999999999999ap-1", "0x1.fae147ae147aep-1",
                             "0x1.ccccccccccccdp-1", "0x1.fae147ae147aep-1",
                             "0x1.0c6f7a0b5ed8dp-20"),
        ("linear-adam", 4): ("0x1.999999999999ap-3", "0x1.fae147ae147aep-1",
                             "0x1.ccccccccccccdp-1", "0x1.fae147ae147aep-1",
                             "0x1.0c6f7a0b5ed8dp-20"),
        ("linear-adam", 16): ("0x1.999999999999ap-1", "0x1.fae147ae147aep-1",
                              "0x1.ccccccccccccdp-1", "0x1.fae147ae147aep-1",
                              "0x1.0c6f7a0b5ed8dp-20"),
    }
    SVAG_ELL_3 = {
        "rmsprop": ("0x1.1111111111111p-6", "0x1.ff6e5d4c3b2a2p-1", "0x1.ccccccccccccdp-1",
                    "0x1.fae147ae147aep-1", "0x1.92a737110e454p-19"),
        "adam": ("0x1.1111111111111p-6", "0x1.fae147ae147aep-1", "0x1.fa4fa4fa4fa50p-1",
                 "0x1.ff6e5d4c3b2a2p-1", "0x1.92a737110e454p-19"),
    }

    @staticmethod
    def _hex(hp):
        return tuple(float(getattr(hp, f.name)).hex() for f in dataclasses.fields(hp))

    @pytest.mark.parametrize("rule, kappa", list(PLANS))
    def test_make_plan(self, rule, kappa):
        assert self._hex(make_plan(rule, self.HP, kappa).scaled) == self.PLANS[rule, kappa]

    def test_sqrt_adam_at_kappa_16_leaves_the_decay_range(self):
        # 16 * (1 - beta1) = 1.6, so no plan exists
        with pytest.raises(ValueError, match=r"kappa\*\(1-beta1\) = 1.6"):
            make_plan("sqrt-adam", self.HP, 16)

    @pytest.mark.parametrize("algo", list(SVAG_ELL_3))
    def test_svag_transform_at_ell_3(self, algo):
        assert self._hex(scale_sqrt(self.HP, 3**-2, algo)) == self.SVAG_ELL_3[algo]


class TestAlignCheckpoints:
    def test_shared_time_invariance(self):
        # k eta^2 equals (k/kappa) (eta sqrt(kappa))^2
        eta, kappa = 0.05, 4.0
        for k in (4, 40, 400):
            t_base = k * eta**2
            t_scaled = (k / kappa) * (eta * np.sqrt(kappa)) ** 2
            assert t_base == pytest.approx(t_scaled, rel=1e-12)


class TestSdeConstantPreservation:
    @pytest.mark.parametrize("kappa", [1.0, 2.0, 4.0, 16.0])
    def test_sqrt_rule_preserves_constants(self, kappa):
        hp = HyperParams(eta=0.05, beta=0.99, beta1=0.98, beta2=0.99, epsilon=1e-6)
        sigma = 1.0
        base_r = sde_constants("rmsprop", hp, sigma)
        scaled_r = sde_constants("rmsprop", scale_sqrt(hp, kappa, "rmsprop"), sigma / np.sqrt(kappa))
        for key in base_r:
            assert scaled_r[key] == pytest.approx(base_r[key], rel=1e-12, abs=1e-18)
        base_a = sde_constants("adam", hp, sigma)
        scaled_a = sde_constants("adam", scale_sqrt(hp, kappa, "adam"), sigma / np.sqrt(kappa))
        for key in base_a:
            assert scaled_a[key] == pytest.approx(base_a[key], rel=1e-12, abs=1e-18)

    @pytest.mark.parametrize("algo", ["rmsprop", "adam"])
    @pytest.mark.parametrize("ell", [1.0, 2.0, 3.0, 8.0])
    def test_svag_transform_preserves_constants(self, algo, ell):
        # the amplified run sees noise ell * sigma
        hp = HyperParams(eta=0.05, beta=0.99, beta1=0.98, beta2=0.99, epsilon=1e-6)
        sigma = 1.0
        base = sde_constants(algo, hp, sigma)
        amplified = sde_constants(algo, scale_sqrt(hp, ell**-2, algo), ell * sigma)
        assert amplified.keys() == base.keys()
        for key in base:
            assert amplified[key] == pytest.approx(base[key], rel=1e-12, abs=1e-18)

    @pytest.mark.parametrize("algo, constants", [
        ("rmsprop", dict(sigma0=0.7, epsilon0=0.01, c2=1.5)),
        ("adam", dict(sigma0=0.7, epsilon0=0.01, c1=2.0, c2=1.5)),
        # SGD runs at sigma = 1 and reads no epsilon, so its one constant is sqrt(eta)
        ("sgd", dict(sigma0=math.sqrt(0.1))),
    ])
    def test_round_trip(self, algo, constants):
        hp, sigma = hyperparams_from_constants(
            algo, 0.1, constants["sigma0"], constants.get("epsilon0", 0.0),
            constants.get("c2", 1.0),
            c1=constants.get("c1"),
        )
        out = sde_constants(algo, hp, sigma)
        assert out.keys() == constants.keys()
        for key in constants:
            assert out[key] == pytest.approx(constants[key], rel=1e-12)

    @pytest.mark.parametrize("algo", ["rmsprop", "adam"])
    def test_zero_eta_rejected(self, algo):
        # sigma0 / eta and epsilon0 / eta ran before HyperParams could reject eta
        with pytest.raises(ValueError, match="eta must be positive"):
            hyperparams_from_constants(algo, 0.0, 1.0, 0.1, 1.0, c1=1.0)

    def test_linear_rule_breaks_sigma0(self):
        hp = HyperParams(eta=0.05, beta1=0.99, beta2=0.99, epsilon=1e-6)
        kappa, sigma = 4.0, 1.0
        base = sde_constants("adam", hp, sigma)
        scaled_hp = make_plan("linear-adam", hp, kappa).scaled
        scaled = sde_constants("adam", scaled_hp, sigma / np.sqrt(kappa))
        assert abs(scaled["sigma0"] - base["sigma0"]) > 0

    @pytest.mark.parametrize("kappa", [2.0, 4.0, 16.0])
    def test_linear_rule_preserves_sgd_sigma0(self, kappa):
        # the SGD SDE's noise is sqrt(eta) sigma: eta' = kappa eta at sigma / sqrt(kappa) keeps it
        hp, sigma = HyperParams(eta=0.05), 0.8
        base = sde_constants("sgd", hp, sigma)
        linear = make_plan("linear-sgd", hp, kappa).scaled
        scaled = sde_constants("sgd", linear, sigma / math.sqrt(kappa))
        assert scaled["sigma0"] == pytest.approx(base["sigma0"], rel=1e-12)
        # the square-root rule moves it: eta' = sqrt(kappa) eta
        moved = sde_constants("sgd", scale_sqrt(hp, kappa, "sgd"), sigma / math.sqrt(kappa))
        assert moved["sigma0"] != pytest.approx(base["sigma0"], rel=1e-3)


class TestHyperparamsFromConstants:
    def test_sgd_has_no_decay_range(self):
        # SGD never uses beta2, so c2 eta^2 > 1 must not reject it
        hp, sigma = hyperparams_from_constants("sgd", 1.2, 1.0, 0.0, 1.0)
        assert hp.eta == 1.2
        assert sigma == 1.0

    @pytest.mark.parametrize("algo", ["rmsprop", "adam"])
    def test_adaptive_decay_range_still_checked(self, algo):
        with pytest.raises(ValueError, match="leaves the decay range"):
            hyperparams_from_constants(algo, 1.2, 1.0, 0.0, 1.0, c1=0.1)
