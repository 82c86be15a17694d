"""Mass functional, multiplier sign logic, and the probe equivalence."""

from __future__ import annotations

import math

import numpy as np
import pytest

from acdyn.constraint import make_constraint, mass, multiplier_sign_ok
from helpers import make_interval, make_rectangle, total_weight, variational_complementarity


def interval_setup(k_lo=-1.0, k_hi=1.0, boundary_weight=0.0):
    _, s = make_interval(4)
    w = s.field(np.ones(s.n_bulk), np.full(s.n_bnd, boundary_weight))
    return s, make_constraint(s, w, k_lo, k_hi)


class TestMass:
    def test_volume_conservation_case(self):
        s, cons = interval_setup()
        for c in (0.0, 0.4, -1.0):
            assert mass(s, cons, s.constant_field(c)) == pytest.approx(c, abs=1e-14)

    def test_boundary_only_weight(self):
        _, s = make_interval(4)
        w = s.field(np.zeros(s.n_bulk), np.ones(s.n_bnd))
        cons = make_constraint(s, w, -10, 10)
        u = s.field_from_bulk(np.array([3.0, 9.0, 9.0, 9.0, 4.0]))
        assert mass(s, cons, u) == pytest.approx(7.0, abs=1e-14)  # u(0) + u(L)

    def test_random_against_quadrature_oracle(self):
        _, s = make_rectangle(4, 4)
        rng = np.random.default_rng(2)
        w = s.field(rng.uniform(0, 1, s.n_bulk), rng.uniform(0, 1, s.n_bnd))
        cons = make_constraint(s, w, -100, 100)
        u = s.field(rng.standard_normal(s.n_bulk), rng.standard_normal(s.n_bnd))
        direct = sum(s.M_bulk[i] * w.bulk[i] * u.bulk[i] for i in range(s.n_bulk))
        direct += sum(s.M_bnd[j] * w.bnd[j] * u.bnd[j] for j in range(s.n_bnd))
        assert mass(s, cons, u) == pytest.approx(direct, abs=1e-12)

    def test_linearity(self):
        s, cons = interval_setup()
        rng = np.random.default_rng(4)
        u = s.field(rng.standard_normal(s.n_bulk), rng.standard_normal(s.n_bnd))
        v = s.field(rng.standard_normal(s.n_bulk), rng.standard_normal(s.n_bnd))
        a, b = 1.7, -0.3
        lhs = mass(s, cons, a * u + b * v)
        rhs = a * mass(s, cons, u) + b * mass(s, cons, v)
        assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_degenerate_weights_rejected(self):
        _, s = make_interval(4)
        w = s.field(np.zeros(s.n_bulk), np.zeros(s.n_bnd))
        with pytest.raises(ValueError):
            make_constraint(s, w, 0, 1)
        w2 = s.field(-np.ones(s.n_bulk), np.zeros(s.n_bnd))
        with pytest.raises(ValueError):
            make_constraint(s, w2, 0, 1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_weights_rejected(self, value):
        _, s = make_interval(4)
        bulk = np.ones(s.n_bulk)
        bulk[2] = value
        with pytest.raises(ValueError, match=r"^\(finite\) non-finite node values in w$"):
            make_constraint(s, s.field(bulk, np.zeros(s.n_bnd)), 0, 1)
        with pytest.raises(ValueError, match=r"^\(finite\) non-finite node values in w_gamma$"):
            make_constraint(s, s.field(np.ones(s.n_bulk), np.full(s.n_bnd, value)), 0, 1)

    def test_every_violation_reported(self):
        _, s = make_interval(4)
        w = s.field(np.zeros(s.n_bulk), np.zeros(s.n_bnd))
        with pytest.raises(ValueError) as info:
            make_constraint(s, w, 1.0, 0.0)
        assert str(info.value) == (
            "(p2) total weight 0.0 is not positive (degenerate weights); "
            "(constraint) k_lo=1.0 exceeds k_hi=0.0"
        )


class TestMultiplierSign:
    def test_interior_needs_zero(self):
        _, cons = interval_setup()
        assert multiplier_sign_ok(cons, 0.0, 0.0)
        assert not multiplier_sign_ok(cons, 0.0, 0.5)
        assert not multiplier_sign_ok(cons, 0.0, -0.5)

    def test_upper_barrier_sign(self):
        _, cons = interval_setup()
        assert multiplier_sign_ok(cons, 1.0, 3.0)
        assert not multiplier_sign_ok(cons, 1.0, -3.0)
        assert multiplier_sign_ok(cons, -1.0, -3.0)
        assert not multiplier_sign_ok(cons, -1.0, 3.0)

    def test_equality_accepts_anything(self):
        _, cons = interval_setup(k_lo=0.5, k_hi=0.5)
        for lam in (-7.0, 0.0, 7.0):
            assert multiplier_sign_ok(cons, 0.5, lam)

    def test_violated_band_raises(self):
        _, cons = interval_setup()
        with pytest.raises(ValueError):
            multiplier_sign_ok(cons, 2.0, 0.0)


class TestComplementarity:
    def probes(self, s, cons, rng, count=5):
        out = [s.constant_field(k / total_weight(s, cons)) for k in (cons.k_lo, cons.k_hi)]
        for _ in range(count):
            alpha = rng.uniform(cons.k_lo, cons.k_hi)
            z = s.constant_field(alpha / total_weight(s, cons))
            noise = rng.standard_normal(s.n_bulk)
            zn = s.field_from_bulk(noise)
            kz = mass(s, cons, zn)
            zero_mass = zn - s.constant_field(kz / total_weight(s, cons))
            out.append(z + 0.3 * zero_mass)
        return out

    def test_zero_multiplier_always_true(self):
        s, cons = interval_setup()
        rng = np.random.default_rng(0)
        u = s.constant_field(0.3 / total_weight(s, cons))
        assert variational_complementarity(s, cons, u, 0.0, self.probes(s, cons, rng))

    def test_upper_barrier_positive_multiplier(self):
        s, cons = interval_setup()
        rng = np.random.default_rng(1)
        u = s.constant_field(cons.k_hi / total_weight(s, cons))
        assert variational_complementarity(s, cons, u, 2.0, self.probes(s, cons, rng))
        assert not variational_complementarity(s, cons, u, -2.0, self.probes(s, cons, rng))

    def test_equivalence_with_sign_condition(self):
        # randomized trials with the extreme probes included
        s, cons = interval_setup(k_lo=-0.8, k_hi=1.3)
        rng = np.random.default_rng(42)
        agree = 0
        for _ in range(100):
            which = rng.integers(0, 3)
            k = [cons.k_lo, cons.k_hi, float(rng.uniform(-0.7, 1.2))][which]
            lam = float(rng.choice([0.0, 1.0, -1.0]) * rng.uniform(0.1, 2.0))
            u = s.constant_field(k / total_weight(s, cons))
            probes = self.probes(s, cons, rng)
            a = multiplier_sign_ok(cons, k, lam)
            b = variational_complementarity(s, cons, u, lam, probes)
            assert a == b
            agree += 1
        assert agree == 100

    def test_infeasible_probe_rejected(self):
        s, cons = interval_setup()
        u = s.constant_field(0.0 / total_weight(s, cons))
        bad = s.constant_field(5.0 / total_weight(s, cons))
        with pytest.raises(ValueError):
            variational_complementarity(s, cons, u, 0.0, [bad])


class TestDecomposition:
    def test_split_and_reassemble(self):
        # any feasible z splits into its mass along the uniform direction
        # plus a weight-orthogonal remainder; the split resums to z
        s, cons = interval_setup()
        rng = np.random.default_rng(9)
        for _ in range(20):
            z = s.field(rng.standard_normal(s.n_bulk), rng.standard_normal(s.n_bnd))
            alpha = mass(s, cons, z)
            zc = s.constant_field(1.0 / total_weight(s, cons))
            zn = z - alpha * zc
            assert mass(s, cons, zn) == pytest.approx(0.0, abs=1e-13)
            back = alpha * zc + zn
            assert np.max(np.abs(back.bulk - z.bulk)) <= 1e-13
            assert np.max(np.abs(back.bnd - z.bnd)) <= 1e-13

    def test_unconstrained_sentinels(self):
        _, s = make_interval(4)
        w = s.field(np.ones(s.n_bulk), np.zeros(s.n_bnd))
        cons = make_constraint(s, w, -math.inf, math.inf)
        assert cons.k_lo == -math.inf and cons.k_hi == math.inf
        assert multiplier_sign_ok(cons, 123.0, 0.0)
        assert not multiplier_sign_ok(cons, 123.0, 5.0)
