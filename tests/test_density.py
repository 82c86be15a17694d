"""Robin approximation: exactness, convergence, and the energy bound."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from acdyn import density
from acdyn.density import density_study, robin_approx

from helpers import make_interval, make_rectangle


class TestRobinApprox:
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_constants_are_exact(self, n):
        _, s = make_interval(32)
        u = s.field(np.full(s.n_bulk, 0.7), np.full(s.n_bnd, 0.7))
        v = robin_approx(s, u, n)
        assert np.max(np.abs(v.bulk - 0.7)) <= 1e-12
        assert s.check_trace(v)

    def test_closed_form_boundary_layer(self):
        # pure boundary datum on the interval: symmetric cosh profile
        d, s = make_interval(256)
        u = s.field(np.zeros(s.n_bulk), np.ones(s.n_bnd))
        x = d.coords[:, 0]
        for n in (4, 16, 64):
            rn = np.sqrt(n)
            exact = np.cosh(rn * (x - 0.5)) / (np.cosh(rn / 2) + np.sinh(rn / 2) / rn)
            v = robin_approx(s, u, n)
            rel = np.max(np.abs(v.bulk - exact)) / np.max(np.abs(exact))
            assert rel <= 0.02

    def test_matrix_is_spd(self, monkeypatch):
        # the matrices robin_approx factors, captured at its solver
        mats = []

        def capture(m, **kwargs):
            mats.append(m.toarray())
            return splu(m, **kwargs)

        monkeypatch.setattr(density, "splu", capture)
        _, s = make_rectangle(4, 3)
        for n in (1, 10, 100):
            robin_approx(s, s.constant_field(1.0), n)
            m = mats[-1]
            assert np.allclose(m, m.T)
            assert np.linalg.eigvalsh(m).min() > 0.0

    def test_rejects_nonpositive_n(self):
        _, s = make_interval(8)
        u = s.field(np.zeros(s.n_bulk), np.zeros(s.n_bnd))
        with pytest.raises(ValueError):
            robin_approx(s, u, 0)


class TestDensityStudy:
    def test_zero_input(self):
        _, s = make_interval(32)
        u = s.field(np.zeros(s.n_bulk), np.zeros(s.n_bnd))
        study = density_study(s, u, [1, 4, 16])
        assert all(e == 0.0 for e in study.err_bulk)
        assert all(e == 0.0 for e in study.err_bnd)

    def test_discontinuous_pair(self):
        _, s = make_interval(256)
        u = s.field(np.zeros(s.n_bulk), np.ones(s.n_bnd))
        study = density_study(s, u, [1, 4, 16, 64, 256])
        assert all(b < a for a, b in zip(study.err_bulk[:-1], study.err_bulk[1:]))
        assert all(b < a for a, b in zip(study.err_bnd[:-1], study.err_bnd[1:]))
        assert all(l <= study.energy_rhs + 1e-12 for l in study.energy_lhs)
        assert all(nn <= study.input_norm_sq + 1e-10 for nn in study.norm_sq)

    def test_trace_consistent_smooth_input(self):
        d, s = make_interval(128)
        u = s.field_from_bulk(0.1 * np.sin(np.pi * d.coords[:, 0]) + 0.3)
        study = density_study(s, u, [1, 4, 16, 64])
        assert study.err_bulk[0] < 0.1
        assert all(b < a for a, b in zip(study.err_bulk[:-1], study.err_bulk[1:]))
        assert all(b < a for a, b in zip(study.err_bnd[:-1], study.err_bnd[1:]))

    def test_energy_bound_random_inputs(self):
        _, s = make_rectangle(6, 5)
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = s.field(rng.standard_normal(s.n_bulk), rng.standard_normal(s.n_bnd))
            study = density_study(s, u, [1, 2, 4, 8])
            assert all(l <= study.energy_rhs + 1e-12 for l in study.energy_lhs)
            assert all(nn <= study.input_norm_sq + 1e-10 for nn in study.norm_sq)

    def test_requires_increasing_n(self):
        _, s = make_interval(8)
        u = s.field(np.zeros(s.n_bulk), np.zeros(s.n_bnd))
        with pytest.raises(ValueError):
            density_study(s, u, [4, 1])

    def test_rejects_fractional_n(self, monkeypatch):
        # a penalty level of 2.5 is rejected before any solve, not run as 2;
        # an integral float is the integer it holds
        _, s = make_interval(8)
        u = s.field(np.zeros(s.n_bulk), np.zeros(s.n_bnd))
        assert density_study(s, u, [1.0, 4.0]).n_list == [1, 4]

        def no_solve(*args):
            raise AssertionError("density_study solved before checking its list")

        monkeypatch.setattr(density, "robin_approx", no_solve)
        with pytest.raises(ValueError, match=r"positive integers, got \[1, 2.5, 4\]"):
            density_study(s, u, [1, 2.5, 4])
