"""Classical colored-particle reference: Wong-type equations, RK4, closed form."""

import numpy as np
import pytest

from gaugewalk import classical as cl


def aligned_state(x=0.0, p=0.0):
    return cl.ClassicalState(x, p, np.array([0.5, 0.0, 0.0]))


class TestIsospin:
    def test_equal_superposition(self):
        assert np.allclose(cl.isospin_from_color(np.array([1.0, 1.0])), [0.5, 0.0, 0.0])

    def test_up_color(self):
        assert np.allclose(cl.isospin_from_color(np.array([1.0, 0.0])), [0.0, 0.0, 0.5])

    def test_normalizes_input(self):
        a = cl.isospin_from_color(np.array([3.0, 3.0]))
        b = cl.isospin_from_color(np.array([1.0, 1.0]))
        assert np.allclose(a, b)

    def test_magnitude_half(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert np.linalg.norm(cl.isospin_from_color(c)) == pytest.approx(0.5)


class TestWongRhs:
    def test_velocity_is_relativistic(self):
        s = cl.ClassicalState(0.0, 3.0, np.array([0.5, 0.0, 0.0]))
        xdot, _, _ = cl.wong_rhs(s, e_ym=0.1, g=1.0, m=4.0, t=0.0)
        assert xdot == pytest.approx(3.0 / 5.0)

    def test_force_from_aligned_isospin(self):
        s = aligned_state()
        _, pdot, idot = cl.wong_rhs(s, e_ym=0.2, g=1.0, m=1.0, t=1.0)
        assert pdot == pytest.approx(-0.1)  # -g E I_1 with I_1 = 1/2
        assert np.allclose(idot, 0.0)  # aligned isospin does not precess

    def test_precession_orthogonal_component(self):
        s = cl.ClassicalState(0.0, 1.0, np.array([0.0, 0.5, 0.0]))
        _, pdot, idot = cl.wong_rhs(s, e_ym=0.2, g=1.0, m=1.0, t=3.0)
        assert pdot == 0.0
        # A_1 = (E t, 0, 0); dI/dt = g xdot A_1 x I points along e_3
        xdot = 1.0 / np.sqrt(2.0)
        assert np.allclose(idot, [0.0, 0.0, xdot * 0.2 * 3.0 * 0.5])

    def test_mass_validated(self):
        with pytest.raises(ValueError):
            cl.wong_rhs(aligned_state(), 0.1, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("m", [np.nan, np.inf])
    def test_non_finite_mass_refused(self, m):
        with pytest.raises(ValueError, match="mass must be positive and finite"):
            cl.wong_rhs(aligned_state(), 0.1, 1.0, m, 0.0)


class TestRk4:
    def test_matches_closed_form_when_aligned(self):
        e_ym, g, m = 0.3, 1.0, 0.5
        s = aligned_state(x=0.2, p=0.7)
        dt, t = 0.01, 0.0
        for _ in range(1000):
            s = cl.rk4_step(s, e_ym, g, m, t, dt)
            t += dt
        x_exact, p_exact = cl.closed_form_trajectory(0.2, 0.7, e_ym, g, m, t)
        assert s.x == pytest.approx(x_exact, abs=1e-10)
        assert s.p == pytest.approx(p_exact, abs=1e-12)

    def test_isospin_magnitude_conserved(self):
        s = cl.ClassicalState(0.0, 1.0, np.array([0.3, 0.3, 0.2]))
        t = 0.0
        for _ in range(500):
            s = cl.rk4_step(s, 0.5, 1.0, 0.3, t, 0.02)
            t += 0.02
        # the continuous flow conserves |I| exactly; RK4 only up to O(dt^4)
        # accumulation, so allow a small discretization drift
        assert np.linalg.norm(s.isospin) == pytest.approx(
            np.linalg.norm([0.3, 0.3, 0.2]), abs=1e-6)

    def test_fourth_order_convergence(self):
        e_ym, g, m, t_final = 1.0, 1.0, 0.7, 4.0

        def error(dt):
            s = aligned_state(p=0.3)
            steps = int(round(t_final / dt))
            for n in range(steps):
                s = cl.rk4_step(s, e_ym, g, m, n * dt, dt)
            x_exact, _ = cl.closed_form_trajectory(0.0, 0.3, e_ym, g, m, t_final)
            return abs(s.x - x_exact)

        ratio = error(0.4) / error(0.2)
        assert 12.8 <= ratio <= 19.2

    def test_dt_validated(self):
        with pytest.raises(ValueError):
            cl.rk4_step(aligned_state(), 0.1, 1.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_non_finite_dt_refused(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            cl.rk4_step(aligned_state(), 0.1, 1.0, 1.0, 0.0, dt)


class TestClosedForm:
    def test_free_motion(self):
        x, p = cl.closed_form_trajectory(1.0, 3.0, e_ym=0.0, g=1.0, m=4.0, t=10.0)
        assert p == 3.0
        assert x == pytest.approx(1.0 + 10.0 * 0.6)

    def test_momentum_linear_in_time(self):
        _, p = cl.closed_form_trajectory(0.0, 0.0, e_ym=0.4, g=1.0, m=1.0, t=5.0)
        assert p == pytest.approx(-0.4 * 5.0 / 2)

    def test_initial_point(self):
        x, p = cl.closed_form_trajectory(2.5, -1.0, e_ym=0.3, g=1.0, m=0.5, t=0.0)
        assert (x, p) == (2.5, -1.0)

    def test_nonrelativistic_limit(self):
        # small field, heavy particle from rest: x ~ -g E t^2 / (4 m)
        e_ym, g, m, t = 1e-4, 1.0, 10.0, 2.0
        x, _ = cl.closed_form_trajectory(0.0, 0.0, e_ym, g, m, t)
        assert x == pytest.approx(-g * e_ym * t * t / (4 * m), rel=1e-6)

    def test_mass_validated(self):
        with pytest.raises(ValueError):
            cl.closed_form_trajectory(0.0, 0.0, 0.1, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("m", [np.nan, np.inf])
    def test_non_finite_mass_refused(self, m):
        with pytest.raises(ValueError, match="mass must be positive and finite"):
            cl.closed_form_trajectory(0.0, 0.0, 0.1, 1.0, m, 1.0)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            cl.ClassicalState(0.0, 0.0, np.array([1.0, 2.0]))
