import copy

import numpy as np
import pytest

from csrchain import (
    UndeterminedControlsError,
    assemble_augmented,
    assemble_system,
    dense_solve,
    optimal_quantity,
    residual_norms,
)
from csrchain.stationarity import (
    IndexMap,
    equation_table,
    own_control_second_derivative,
    retailer_hamiltonian,
    stationarity_residuals,
    vector_to_trajectory,
)

from conftest import (
    draw_params,
    family,
    gradient_check_worst,
    make_params,
    random_evaluation_point,
)


def retailer_point(controls, p_r_next):
    """Table point of the retailer FOC at one period."""
    i_s, i_m, i_r = controls
    return {("i_s", 0): i_s, ("i_m", 0): i_m, ("i_r", 0): i_r, ("p_r", 1): p_r_next}


class TestHandValues:
    def test_retailer_foc_full_roi_offsets_cost(self):
        p = make_params(tau=1.0, theta=0.0)
        point = retailer_point((3.0, -1.0, 2.0), 0.0)
        assert family(p, "foc_r").residual(point) == 0.0

    def test_retailer_foc_hand_value(self):
        p = make_params(tau=0.1, theta=0.05, beta_r=0.2)
        point = retailer_point((1.0, 1.0, 1.0), 0.0)
        assert family(p, "foc_r").residual(point) == pytest.approx(-0.88)

    def test_retailer_foc_no_tax_channel(self):
        p = make_params(tau=0.0, beta_r=0.2)
        for controls in [(0, 0, 0), (5, -3, 2)]:
            point = retailer_point(controls, 1.5)
            assert family(p, "foc_r").residual(point) == pytest.approx(
                0.2 * 1.5 - 1.0)

    def test_costate_zero_point(self):
        p = make_params()
        zero = {("x", 0): 0.0, ("u", 0): 0.0, ("w", 0): 0.0, ("u_prime", 0): 0.0}
        for name, costate in [("costate_s", "p_s"), ("costate_m", "p_m"),
                              ("costate_r", "p_r")]:
            assert family(p, name).stepped({**zero, (costate, 1): 0.0}) == 0.0

    def test_costate_retailer_hand_value(self):
        p = make_params(delta_r=0.5, alpha=0.9)
        point = {("x", 0): 1.0, ("p_r", 1): 0.0}
        assert family(p, "costate_r").stepped(point) == pytest.approx(1.0)

    def test_costates_vanish_without_benefit(self):
        p = make_params(delta_s=0.0, delta_m=0.0, delta_r=0.0)
        value = 0.0
        for _ in range(5):   # alpha-contraction from zero terminal value
            value = family(p, "costate_r").stepped({("x", 0): 1.0, ("p_r", 1): value})
        assert value == 0.0

    def test_multiplier_zero_propagates(self):
        p = make_params()
        assert family(p, "u_step").stepped({("u", 0): 0.0, ("lam", 0): 0.0}) == 0.0

    def test_multiplier_hand_value(self):
        p = make_params(alpha=0.9, beta_r=0.2)
        point = {("u", 0): 1.0, ("lam", 0): 0.5}
        assert family(p, "u_step").stepped(point) == pytest.approx(1.0)

    def test_multiplier_homogeneous_recursion(self):
        p = make_params()
        u = 0.0
        for _ in range(4):
            u = family(p, "u_step").stepped({("u", 0): u, ("lam", 0): 0.0})
        assert u == 0.0

    def test_second_derivative_is_two_tau_theta(self):
        p = make_params(tau=0.3, theta=0.2)
        assert own_control_second_derivative(p) == pytest.approx(2 * 0.3 * 0.2)
        # and by finite differences of the Hamiltonian itself
        q = optimal_quantity(p)
        h = 1e-4
        def ham(i_r):
            point = {("x", 0): 1.0, ("i_s", 0): 0.5, ("i_m", 0): 0.5,
                     ("i_r", 0): i_r, ("p_r", 1): 0.7}
            return retailer_hamiltonian(point, q, p)
        second = (ham(h) - 2 * ham(0.0) + ham(-h)) / h**2
        assert second == pytest.approx(2 * 0.3 * 0.2, rel=1e-6)


class TestGradientFidelity:
    """Every family of the equation table is a partial derivative of a
    Hamiltonian; the shared battery covers all fifteen families."""

    def test_reference_point(self, reference_params):
        rng = np.random.default_rng(17)
        pt = random_evaluation_point(rng)
        assert gradient_check_worst(reference_params, pt) < 1e-6

    def test_randomized_parameters(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            params = draw_params(rng, horizon_T=3)
            pt = random_evaluation_point(rng)
            assert gradient_check_worst(params, pt) < 1e-6


def period_solution(params, inputs=(0.0, 0.0, 0.0, 0.0)):
    """The period block's solution (i_s, i_m, i_r, lam, lam', mu', nu) at
    costate inputs (p_r+, p_m+, p_s+, r+), from the outer solution maps."""
    aug = assemble_augmented(params, "outer")
    steps = np.concatenate([np.zeros(12), inputs])   # y[t], then y[t+1]
    return aug.sol_G @ steps + aug.sol_g[0]


class TestPeriodSolutionMaps:
    def test_zero_costates_solves_stacked_focs(self, reference_params):
        p = reference_params
        sol = period_solution(p)
        point = {(name, 0): value for name, value in zip(
            ("i_s", "i_m", "i_r", "lam", "lam_prime", "mu_prime", "nu"), sol)}
        point.update({(name, 1): 0.0 for name in ("p_r", "p_m", "p_s", "r")})
        # residuals of every period equation vanish at the solution
        algebraic = [fam for fam in equation_table(p) if fam.boundary is None]
        assert [fam.label for fam in algebraic] == [
            "foc_r", "foc_m", "m_react", "foc_s", "s_react_m", "s_react_r",
            "s_react_l"]
        for fam in algebraic:
            assert fam.residual(point) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_hierarchy_ladder(self):
        """With symmetric parameters, zero costates and zero auxiliary
        costate, the hierarchy still orders the investments 4:2:1 down the
        chain (verified against the full dense solve at horizon 1, where all
        costate-like inputs vanish)."""
        p = make_params(beta_s=0.3, beta_m=0.3, beta_r=0.3,
                        delta_s=0.02, delta_m=0.02, delta_r=0.02,
                        d=0.0, d_hat=0.0, horizon_T=1)
        i_s, i_m, i_r = period_solution(p)[:3]
        K = (1.0 - p.tau) / (p.tau * p.theta)
        assert i_s == pytest.approx(K / 2)
        assert i_m == pytest.approx(K / 4)
        assert i_r == pytest.approx(K / 8)
        traj = dense_solve(p)
        assert traj.controls.i_s[0] == pytest.approx(i_s)
        assert traj.controls.i_m[0] == pytest.approx(i_m)
        assert traj.controls.i_r[0] == pytest.approx(i_r)

    def test_degenerate_tax_structure_rejected(self):
        for p in [make_params(theta=0.0), make_params(tau=0.0)]:
            with pytest.raises(UndeterminedControlsError, match="undetermined"):
                period_solution(p)


class TestAssembleSystem:
    def test_square_and_finite(self, reference_params):
        system = assemble_system(reference_params)
        T = reference_params.horizon_T
        assert system.matrix.shape == (15 * T + 4, 15 * T + 4)
        assert np.all(np.isfinite(system.matrix))
        assert len(system.row_labels) == system.matrix.shape[1]

    def test_single_period_counts(self):
        system = assemble_system(make_params(horizon_T=1))
        assert system.matrix.shape[1] == 19
        boundaries = [fam.boundary for fam in equation_table(make_params())]
        assert sum(lbl.startswith("boundary") for lbl in system.row_labels) == 8
        assert sum(b is not None for b in boundaries) == 8

    def test_boundary_row_inventory(self, reference_params):
        system = assemble_system(reference_params)
        boundary = [lbl for lbl in system.row_labels if lbl.startswith("boundary")]
        assert len(boundary) == 8
        assert "boundary: x[1] given" in boundary
        for name in ("p_r", "p_m", "p_s", "r"):
            assert f"boundary: {name}[T+1]=0" in boundary
        for name in ("u", "w", "u_prime"):
            assert f"boundary: {name}[1]=0" in boundary

    def test_matrix_matches_residual_functions(self, reference_params):
        """A z - rhs evaluated by the assembled matrix agrees with direct
        residual-function evaluation on arbitrary trajectories (the system
        is affine and both encodings describe the same equations)."""
        p = reference_params
        system = assemble_system(p)
        rng = np.random.default_rng(2)
        for _ in range(5):
            z = rng.uniform(-3, 3, size=system.matrix.shape[1])
            traj = vector_to_trajectory(z, p)
            direct, labels = stationarity_residuals(traj, p)
            stacked = system.matrix @ z - system.rhs
            assert list(labels) == list(system.row_labels)
            assert np.allclose(direct, stacked, rtol=1e-12, atol=1e-12)

    def test_degenerate_tax_structure_rejected(self):
        with pytest.raises(UndeterminedControlsError):
            assemble_system(make_params(theta=0.0))


class TestResiduals:
    def test_affine_in_unknowns(self, reference_params):
        p = reference_params
        ix = IndexMap(p.horizon_T)
        rng = np.random.default_rng(4)
        za = rng.uniform(-2, 2, size=ix.n)
        zb = rng.uniform(-2, 2, size=ix.n)
        lam = 0.3
        mix = lam * za + (1 - lam) * zb
        res_a, _ = stationarity_residuals(vector_to_trajectory(za, p), p)
        res_b, _ = stationarity_residuals(vector_to_trajectory(zb, p), p)
        res_mix, _ = stationarity_residuals(vector_to_trajectory(mix, p), p)
        assert np.allclose(res_mix, lam * res_a + (1 - lam) * res_b,
                           rtol=1e-10, atol=1e-10)

    def test_solution_has_tiny_residual(self, reference_params):
        traj = dense_solve(reference_params)
        assert residual_norms(traj, reference_params)[0] <= 1e-9

    def test_perturbing_a_control_grows_residual(self, reference_params):
        p = reference_params
        k = p.tau * p.theta
        traj = dense_solve(p)
        for field in ("i_s", "i_m", "i_r"):
            perturbed = copy.deepcopy(traj)
            getattr(perturbed.controls, field)[1] += 0.1
            assert residual_norms(perturbed, p)[0] >= k * 0.1

    def test_all_zero_fixed_point(self):
        p = make_params(tau=1.0, x1=0.0, delta_s=0.0, delta_m=0.0, delta_r=0.0,
                        d=0.0, d_hat=0.0)
        ix = IndexMap(p.horizon_T)
        traj = vector_to_trajectory(np.zeros(ix.n), p)
        assert residual_norms(traj, p)[0] == 0.0

    def test_rms_below_max(self, reference_params):
        p = reference_params
        ix = IndexMap(p.horizon_T)
        rng = np.random.default_rng(8)
        traj = vector_to_trajectory(rng.uniform(-1, 1, size=ix.n), p)
        mx, rms = residual_norms(traj, p)
        assert 0.0 < rms <= mx
