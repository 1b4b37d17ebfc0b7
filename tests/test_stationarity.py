import ast
import copy
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from csrchain import (
    CsrChainError,
    UndeterminedControlsError,
    dense_solve,
    emit_csv,
    optimal_quantity,
    parse_csv,
    residual_norms,
    solve_game,
)
from csrchain.stationarity import (
    ADJOINED,
    BLOCK_NAMES,
    BLOCKS,
    COLUMNS,
    LEAD,
    TRAIL,
    WIDTH,
    assemble_system,
    block_length,
    equation_table,
    hamiltonian,
    pack,
    period_layout,
    period_residual,
    period_rows,
    qr_complete,
    stacked_rows,
    trajectory_blocks,
    unpack,
    unstack,
)
from csrchain.sweep import _LEVELS, assemble_augmented

from conftest import (
    WITNESS,
    draw_params,
    family,
    first_period,
    gradient_check_worst,
    hamiltonian_slope,
    homogeneous,
    level_table,
    make_params,
    random_evaluation_point,
    reference_residual_bound,
    reference_residual_vector,
    vector_to_trajectory,
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
        # by finite differences of the Hamiltonian itself
        q = optimal_quantity(p)
        h = 1e-4
        def ham(i_r):
            point = {("x", 0): 1.0, ("i_s", 0): 0.5, ("i_m", 0): 0.5,
                     ("i_r", 0): i_r, ("p_r", 1): 0.7}
            return hamiltonian("R", point, q, p)
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


def level_blocks(level):
    """Every block of a sweep level: its states, costates, period unknowns
    and fixed paths."""
    return {block for blocks in _LEVELS[level] for block in blocks}


class TestAdjoined:
    """A leader optimises along its follower's reaction, so its Hamiltonian
    adjoins every row of the follower's level but the state equation, each
    times a multiplier of its own; the retailer, who has no follower,
    adjoins none."""

    @pytest.mark.parametrize("player, level, follower", [
        ("R", "retailer", None), ("M", "inner", "retailer"), ("S", "outer", "inner")])
    def test_adjoins_the_follower_level(self, player, level, follower):
        costate, adjoined = ADJOINED[player]
        labels = [label for label, _ in adjoined]
        follower_blocks = set() if follower is None else level_blocks(follower)
        rows = {fam.label for fam in level_table(make_params(), follower_blocks)}
        assert len(labels) == len(set(labels))
        assert set(labels) == rows - {"state"}
        multipliers = [block for _, (block, _) in adjoined]
        assert len(multipliers) == len(set(multipliers))
        assert {costate, *multipliers} <= level_blocks(level) - follower_blocks


class TestPeriodRows:
    """The per-period rows both solvers read say what the table's families
    say: row times the point's column values, minus the constant, is the
    family's residual, or gives a recursion's stepped value.  The
    gradient-fidelity checks tie those families to the Hamiltonians."""

    @pytest.mark.parametrize("params", [
        make_params(),
        make_params(delta_s=0.0, delta_m=0.0, delta_r=0.0, d=0.0, d_hat=0.0),
        *(draw_params(np.random.default_rng(60 + k), 3) for k in range(4)),
    ], ids=["ref", "no-benefit", *(f"draw{k}" for k in range(4))])
    def test_rows_evaluate_the_families(self, params):
        rng = np.random.default_rng(61)
        columns = [(name, shift) for name in BLOCK_NAMES for shift in (0, 1)]
        columns = [columns[j] for j in rng.permutation(len(columns))]
        families = equation_table(params)
        rows = period_rows(families, columns)
        assert rows.shape == (len(families), len(columns) + 1)
        for _ in range(5):
            point = random_evaluation_point(rng)
            # the keys a recursion steps are not in the point: their value is 0
            values = np.array([point.get(key, 0.0) for key in columns])
            for fam, row in zip(families, rows):
                value = row[:-1] @ values - row[-1]
                if fam.boundary is None:
                    assert value == pytest.approx(fam.residual(point), rel=1e-12)
                else:
                    assert row[columns.index(fam.terms[0][:2])] == 1.0
                    assert -value == pytest.approx(fam.stepped(point), rel=1e-12)


LAYOUT_CASES = [make_params(), *(draw_params(np.random.default_rng(70 + k), 3) for k in range(3))]


class TestLayoutAgainstHamiltonians:
    """The rows of ``period_layout`` that both solvers and the residual read,
    checked against the Hamiltonians directly: each family row of [D | E | c]
    over a random point is the central difference of the Hamiltonian its
    family derives from (a recursion's row gives minus it, the stepped
    value being 0), and the boundary rows fix x1 and zeros."""

    @pytest.mark.parametrize("params", LAYOUT_CASES, ids=["ref", "draw0", "draw1", "draw2"])
    def test_rows_are_hamiltonian_derivatives(self, params):
        rng = np.random.default_rng(71)
        first, group, terminal, _ = period_layout(params)
        columns = [(name, shift) for shift in (0, 1) for name, _, _ in COLUMNS]
        # a family row is known by its nonzero columns, its family's terms
        by_terms = {frozenset(key[:2] for key in fam.terms): fam for fam in equation_table(params)}
        for _ in range(3):
            point = random_evaluation_point(rng)
            values = np.array([point.get(key, 0.0) for key in columns])
            checked = []
            for row in [*group, *first[LEAD:]]:
                fam = by_terms[frozenset(columns[j] for j in np.flatnonzero(row[:-1]))]
                fd = hamiltonian_slope(params, point, fam.label)
                value = row[:-1] @ values - row[-1]
                analytic = value if fam.boundary is None else -value
                assert abs(analytic - fd) <= 1e-6 * max(1.0, abs(analytic))
                checked.append(fam.label)
            assert sorted(checked[:15]) == sorted(WITNESS)
            assert len(checked) == 15 + 15 - LEAD

    @pytest.mark.parametrize("params", LAYOUT_CASES[:2], ids=["ref", "draw0"])
    def test_table_order_is_the_row_group_order(self, params):
        """The layout's row groups take the table's order as it stands, so
        the LEAD families that row group 1 replaces by the forward boundary
        rows, those starting at t = 2, must come first in the table."""
        families = equation_table(params)
        assert [first_period(fam) for fam in families] == [2] * LEAD + [1] * (len(families) - LEAD)
        assert period_layout(params)[3] == families

    @pytest.mark.parametrize("params", LAYOUT_CASES, ids=["ref", "draw0", "draw1", "draw2"])
    def test_next_period_read_in_the_stepped_blocks_alone(self, params):
        """E, the row group's z[t + 1] columns, is nonzero in each of the
        WIDTH - TRAIL blocks a recursion steps, the first of COLUMNS, and
        nowhere else, so ``period_residual`` reads [D | E] as the group's
        first 2 WIDTH - TRAIL columns."""
        group = period_layout(params)[1]
        assert group[:, WIDTH:2 * WIDTH - TRAIL].any(axis=0).all()
        assert not group[:, 2 * WIDTH - TRAIL:-1].any()

    @pytest.mark.parametrize("params", LAYOUT_CASES, ids=["ref", "draw0", "draw1", "draw2"])
    def test_boundary_rows(self, params):
        """Row group 1 leads with unit rows fixing x at x1 and u, w, u' at 0
        in period 1; the terminal rows fix p_r, p_m, p_s and r at 0 in
        period T + 1.  No row touches a column its period lacks."""
        first, group, terminal, _ = period_layout(params)
        names = [name for name, _, _ in COLUMNS]

        def fixes(rows):
            assert np.all(np.count_nonzero(rows[:, :-1], axis=1) == 1)
            assert np.all(rows[:, :-1].sum(axis=1) == 1.0)
            return {names[np.flatnonzero(row[:-1])[0]]: row[-1] for row in rows}
        assert fixes(first[:LEAD]) == {"x": params.x1, "u": 0.0, "w": 0.0, "u_prime": 0.0}
        assert fixes(terminal) == {"p_r": 0.0, "p_m": 0.0, "p_s": 0.0, "r": 0.0}
        assert not first[:, :LEAD].any()
        assert not terminal[:, WIDTH - TRAIL:-1].any()
        assert not group[:, 2 * WIDTH - TRAIL:-1].any() and not first[:, 2 * WIDTH - TRAIL:-1].any()


def period_solution(params, inputs=(0.0, 0.0, 0.0, 0.0)):
    """The period block's solution (i_s, i_m, i_r, lam, lam', mu', nu) at
    costate inputs (p_r+, p_m+, p_s+, r+), from the outer solution maps."""
    aug = assemble_augmented(params, "outer")
    steps = np.concatenate([np.zeros(12), inputs])   # y[t], then y[t+1]
    return aug.sol_G @ steps + aug.sol_g[:, 0]


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


class TestRecursionEnds:
    @pytest.mark.parametrize("T", [1, 2, 5])
    def test_rows_and_boundary_span_the_stepped_block(self, T):
        """A recursion's rows set its stepped block at t + shift, t = first..T;
        with the one time they leave out, its boundary, they cover the
        block's span exactly, and that time is the block's last entry
        exactly when the family is ``at_end``."""
        span = {name: range(first, T + last + 1) for name, first, last in BLOCKS}
        recursions = [fam for fam in equation_table(make_params(horizon_T=T))
                      if fam.boundary is not None]
        assert len(recursions) == 8
        for fam in recursions:
            block, shift, coef = fam.terms[0]
            assert coef == 1.0
            stepped = [t + shift for t in range(first_period(fam), T + 1)]
            left = [t for t in span[block] if t not in stepped]
            assert len(left) == 1
            assert sorted(stepped + left) == list(span[block])
            assert (left[0] == span[block][-1]) == fam.at_end


def unit_rows(matrix):
    """Indices of the rows with one nonzero entry, equal to 1."""
    return [i for i, row in enumerate(matrix)
            if np.count_nonzero(row) == 1 and row.max() == 1.0]


def table_residuals(trajectory, params):
    """Every stationarity row at the trajectory, in the stacked system's
    row order."""
    return stacked_rows(period_residual(pack(trajectory_blocks(trajectory), params.horizon_T),
                                        period_layout(params)))


class TestAssembleSystem:
    def test_square_and_finite(self, reference_params):
        system = assemble_system(reference_params)
        T = reference_params.horizon_T
        assert system.matrix.shape == (15 * T + 4, 15 * T + 4)
        assert np.all(np.isfinite(system.matrix))

    def test_single_period_counts(self):
        system = assemble_system(make_params(horizon_T=1))
        assert system.matrix.shape[1] == 19
        boundaries = [fam.boundary for fam in equation_table(make_params())]
        assert len(unit_rows(system.matrix)) == 8
        assert sum(b is not None for b in boundaries) == 8

    def test_boundary_row_inventory(self, reference_params):
        """Each boundary of the table is exactly one unit row of the matrix,
        at its block's first or last entry, with its value as the rhs."""
        p = reference_params
        T = p.horizon_T
        system = assemble_system(p)
        recursions = [fam for fam in equation_table(p) if fam.boundary is not None]
        triples = sorted((fam.terms[0][0], fam.at_end, fam.boundary) for fam in recursions)
        assert triples == sorted(
            [("x", False, p.x1)] + [(name, False, 0.0) for name in ("u", "w", "u_prime")]
            + [(name, True, 0.0) for name in ("p_r", "p_m", "p_s", "r")])
        columns = unpack(unstack(np.arange(15 * T + 4), T))
        units = unit_rows(system.matrix)
        assert len(units) == len(recursions)
        for fam in recursions:
            column = int(columns[fam.terms[0][0]][-1 if fam.at_end else 0])
            rows = [i for i in units if system.matrix[i, column] == 1.0]
            assert len(rows) == 1
            assert system.rhs[rows[0]] == fam.boundary

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
            direct = table_residuals(traj, p)
            stacked = system.matrix @ z - system.rhs
            assert np.allclose(direct, stacked, rtol=1e-12, atol=1e-12)

    def test_degenerate_tax_structure_rejected(self):
        with pytest.raises(UndeterminedControlsError):
            assemble_system(make_params(theta=0.0))

    def test_non_finite_coefficient_refused(self):
        """delta_r = 1e308 is a valid parameter, but the coefficient
        -2 delta_r overflows to -inf in four families: the game is refused
        where it is compiled, naming each family and term, whichever
        solver asks for it first."""
        message = ("non-finite coefficients in the equation table: costate_r on x[t] (-inf), "
                   "costate_m on u[t] (-inf), costate_s on w[t] (-inf), "
                   "r_step on u_prime[t] (-inf)")
        for solve in (assemble_system, solve_game, dense_solve):
            with pytest.raises(CsrChainError) as info:
                solve(make_params(delta_r=1e308))
            assert str(info.value) == message


def staircase_rows(params):
    """[A | b] of the per-period layout laid out as the staircase the oracle
    factors: row group t over the columns of periods t and t + 1, the
    terminal rows over period T + 1, the padded columns dropped."""
    first, group, terminal, _ = period_layout(params)
    T, W = params.horizon_T, WIDTH
    dense = np.zeros((W * T + len(terminal), W * (T + 1) + 1))
    for t in range(T):
        rows = first if t == 0 else group
        dense[W * t:W * t + W, W * t:W * t + 2 * W] = rows[:, :-1]
        dense[W * t:W * t + W, -1] = rows[:, -1]
    dense[W * T:, W * T:] = terminal
    padded = np.r_[:LEAD, W * (T + 1) - TRAIL:W * (T + 1)]
    assert not dense[:, padded].any()
    return np.delete(dense, padded, axis=1)


def family_rows(params):
    """[A | b] of the table read family by family: the Jacobian of the
    per-family reference residual at every unit vector, and minus that
    residual at zero."""
    T, n = params.horizon_T, 15 * params.horizon_T + 4
    families = equation_table(params)
    A = reference_residual_vector(unpack(unstack(np.eye(n), T)), homogeneous(families), T).T
    b = -reference_residual_vector(unpack(unstack(np.zeros(n), T)), families, T)
    return np.column_stack([A, b])


def augmented(params):
    system = assemble_system(params)
    return np.column_stack([system.matrix, system.rhs])


def sorted_rows(rows):
    return rows[np.lexsort(rows.T[::-1])]


def reference_order(params):
    """The permutation that puts the per-family reference rows in the
    stacked system's row order (their augmented rows are distinct)."""
    stacked, families = augmented(params), family_rows(params)
    a, f = np.lexsort(stacked.T[::-1]), np.lexsort(families.T[::-1])
    assert np.array_equal(stacked[a], families[f])
    order = np.empty_like(a)
    order[a] = f
    return order


STAIRCASE_CASES = [make_params(horizon_T=T) for T in (1, 2, 3, 12)] + [
    draw_params(np.random.default_rng(50 + T), T) for T in (1, 2, 3, 12) for _ in range(2)]


class TestMatrixAgainstStaircase:
    """The oracle's staircase, the stacked matrix and the residual norms all
    read one per-period layout (``period_layout``, built by ``period_rows``)
    through one evaluator.  The per-family reference residual of the tests
    reads the table by slices of the block paths instead, and so checks that
    layout independently.  The stacked system is the layout laid out as a
    staircase, row for row and column for column, and the reference's
    Jacobian agrees with both exactly, as a set of rows."""

    @pytest.mark.parametrize("params", STAIRCASE_CASES,
                             ids=[f"{'ref' if i < 4 else 'draw'}-T{p.horizon_T}"
                                  for i, p in enumerate(STAIRCASE_CASES)])
    def test_augmented_rows_equal(self, params):
        stacked = augmented(params)
        assert np.array_equal(staircase_rows(params), stacked)
        rows = family_rows(params)
        assert rows.shape == stacked.shape
        assert np.array_equal(sorted_rows(rows), sorted_rows(stacked))


class TestResiduals:
    def test_affine_in_unknowns(self, reference_params):
        p = reference_params
        n = 15 * p.horizon_T + 4
        rng = np.random.default_rng(4)
        za = rng.uniform(-2, 2, size=n)
        zb = rng.uniform(-2, 2, size=n)
        lam = 0.3
        mix = lam * za + (1 - lam) * zb
        res_a = table_residuals(vector_to_trajectory(za, p), p)
        res_b = table_residuals(vector_to_trajectory(zb, p), p)
        res_mix = table_residuals(vector_to_trajectory(mix, p), p)
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
        traj = vector_to_trajectory(np.zeros(15 * p.horizon_T + 4), p)
        assert residual_norms(traj, p)[0] == 0.0

    def test_rms_below_max(self, reference_params):
        p = reference_params
        rng = np.random.default_rng(8)
        traj = vector_to_trajectory(rng.uniform(-1, 1, size=15 * p.horizon_T + 4), p)
        mx, rms = residual_norms(traj, p)
        assert 0.0 < rms <= mx

    def test_trajectory_read_back_from_csv_is_refused(self, reference_params, tmp_path):
        """A parsed CSV lacks the auxiliary blocks; the norms name them."""
        path = tmp_path / "t.csv"
        emit_csv(dense_solve(reference_params), path)
        with pytest.raises(ValueError, match="'lam', 'lam_prime', 'mu_prime', "
                                             "'nu', 'w', 'r'"):
            residual_norms(parse_csv(path), reference_params)

    def test_trajectory_of_another_horizon_is_refused(self):
        """The horizon is the parameters': a T = 3 solution is not read as
        the first periods of a T = 4 one."""
        traj = dense_solve(make_params(horizon_T=3))
        with pytest.raises(ValueError, match=r"'p_r' has shape \(3,\); its last axis must "
                                             r"have length 4 at horizon 4"):
            residual_norms(traj, make_params(horizon_T=4))

    def test_padded_path_is_refused(self, reference_params):
        """Entries past a block's length are not ignored."""
        traj = copy.deepcopy(dense_solve(reference_params))
        traj.x = np.append(traj.x, [1e9, 1e9])
        with pytest.raises(ValueError, match=r"'x' has shape \(6,\); its last axis must "
                                             r"have length 4 at horizon 3"):
            residual_norms(traj, reference_params)

    def test_trajectory_blocks_are_the_trajectory_arrays(self, reference_params):
        """One entry per block, in BLOCK_NAMES order, each the trajectory's
        own array (the controls' for a control block), not a copy."""
        traj = dense_solve(reference_params)
        blocks = trajectory_blocks(traj)
        assert tuple(blocks) == BLOCK_NAMES
        for name, path in blocks.items():
            owner = traj.controls if name in ("i_s", "i_m", "i_r") else traj
            assert path is getattr(owner, name)


def reference_norms(values):
    return float(np.max(np.abs(values))), float(np.sqrt(np.mean(values ** 2)))


def same_bits(a, b) -> bool:
    """Equal shapes and every bit equal, zero signs and NaNs included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def signed_zero_point(rng, n):
    """Random stacked values with a share of exact +0.0 and -0.0 entries."""
    z = rng.uniform(-2, 2, size=n)
    z[rng.random(n) < 0.2] = 0.0
    z[rng.random(n) < 0.2] = -0.0
    return z


def assert_within_bound(rows, blocks, params, order):
    """Each row within the forward-error bound of its reference row."""
    table, T = equation_table(params), params.horizon_T
    expected = reference_residual_vector(blocks, table, T)[..., order]
    bound = reference_residual_bound(blocks, table, T)[..., order]
    assert rows.shape == expected.shape
    assert np.all(np.abs(rows - expected) <= bound)


class TestResidualEvaluator:
    @pytest.mark.parametrize("T", [1, 2, 3, 7, 40])
    def test_random_trajectories(self, T):
        rng = np.random.default_rng(T)
        for params in (make_params(horizon_T=T), make_params(horizon_T=T, d=0.0, d_hat=0.0),
                       draw_params(rng, T)):
            traj = vector_to_trajectory(signed_zero_point(rng, 15 * T + 4), params)
            rows = table_residuals(traj, params)
            assert_within_bound(rows, trajectory_blocks(traj), params, reference_order(params))
            res_max, res_rms = residual_norms(traj, params)
            assert res_max == np.max(np.abs(rows))
            assert res_rms == pytest.approx(reference_norms(rows)[1], rel=1e-14)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_residuals_keep_a_positive_max(self, zero):
        p = make_params(tau=1.0, x1=0.0, delta_s=0.0, delta_m=0.0, delta_r=0.0,
                        d=0.0, d_hat=0.0)
        traj = vector_to_trajectory(np.full(15 * p.horizon_T + 4, zero), p)
        expected = reference_norms(reference_residual_vector(
            trajectory_blocks(traj), equation_table(p), p.horizon_T))
        assert same_bits(residual_norms(traj, p), expected)

    @pytest.mark.parametrize("T", [1, 4])
    def test_batched_unit_vectors(self, T):
        """The paths ``assemble_system`` unstacks, one batch entry per
        unknown: every entry gives the rows of its unit vector unstacked
        alone."""
        params = make_params(horizon_T=T)
        layout, n = period_layout(params), 15 * T + 4
        batched = period_residual(unstack(np.eye(n), T), layout)
        for k, z in enumerate(np.eye(n)):
            assert np.array_equal(batched[k], period_residual(unstack(z, T), layout))

    def test_batched_mixed_with_unbatched(self):
        """Paths with different leading batch axes, or none: ``pack``
        broadcasts them, and every batch entry's rows are those of its own
        paths, within the bound of the reference."""
        T, rng = 5, np.random.default_rng(3)
        params = draw_params(rng, T)
        blocks = {name: rng.normal(size=block_length(name, T)) for name in BLOCK_NAMES}
        blocks["i_s"] = rng.normal(size=(2, 3, T))
        blocks["x"] = np.broadcast_to(signed_zero_point(rng, T + 1), (3, T + 1))
        blocks["p_r"] = rng.normal(size=(2, 1, T))
        rows = stacked_rows(period_residual(pack(blocks, T), period_layout(params)))
        assert rows.shape == (2, 3, 15 * T + 4)
        order = reference_order(params)
        for i, j in np.ndindex(2, 3):
            entry = {name: np.broadcast_to(path, (2, 3) + path.shape[-1:])[i, j]
                     for name, path in blocks.items()}
            assert_within_bound(rows[i, j], entry, params, order)

    def test_pack_and_unpack_round_trip(self):
        """Unpacking packed paths gives them back, as views; the periods a
        block lacks are packed as zeros."""
        T, rng = 4, np.random.default_rng(9)
        blocks = {name: rng.normal(size=(2, block_length(name, T))) for name in BLOCK_NAMES}
        zb = pack(blocks, T)
        assert zb.shape == (2, WIDTH, T + 1)
        back = unpack(zb)
        assert set(back) == set(BLOCK_NAMES)
        for name, path in blocks.items():
            assert np.array_equal(back[name], path) and np.shares_memory(back[name], zb)
        assert np.count_nonzero(zb) == 2 * (15 * T + 4)

    def test_rms_of_rows_past_the_square_range(self):
        """Rows past about 1e154 overflow their sum of squares, yet the rms
        is finite: it is scaled by the max-norm first, and agrees with an
        overflow-free reference."""
        p = make_params(tau=1e308, c=3.08e190, horizon_T=11)
        with np.errstate(over="ignore", invalid="ignore"):
            traj, report = solve_game(p)
        rows = stacked_rows(period_residual(pack(trajectory_blocks(traj), 11), period_layout(p)))
        assert np.isinf(np.vdot(rows, rows))
        assert report.residual_max == np.max(np.abs(rows)) == pytest.approx(6.237e291, rel=1e-4)
        assert np.isfinite(report.residual_rms)
        assert report.residual_rms == pytest.approx(math.hypot(*rows) / math.sqrt(rows.size),
                                                    rel=1e-14)
        assert (report.residual_max, report.residual_rms) == residual_norms(traj, p)

    def test_non_finite_entries_give_nan_norms(self, reference_params):
        """A NaN residual must read as a miss of every tolerance."""
        p = reference_params
        z = np.random.default_rng(5).uniform(-1, 1, size=15 * p.horizon_T + 4)
        z[3], z[11] = np.nan, np.inf
        traj = vector_to_trajectory(z, p)
        res_max, res_rms = residual_norms(traj, p)
        assert np.isnan(res_max) and np.isnan(res_rms)
        assert not res_max <= 1e-8
        expected = reference_norms(reference_residual_vector(
            trajectory_blocks(traj), equation_table(p), p.horizon_T))
        assert np.isnan(expected).all()


SRC = Path(__file__).resolve().parent.parent / "src" / "csrchain"

# every shape of matrix the solvers factor: the sweep's [Q1; P2] of the
# outer, inner and retailer levels, the oracle's segment and interface steps
QR_SHAPES = [(16, 8), (8, 4), (4, 2), (30, 15), (19, 15)]


def numpy_or_error(function, a):
    """``function(a)``, or the LinAlgError it raised."""
    try:
        return function(a)
    except np.linalg.LinAlgError as exc:
        return exc


class TestQrComplete:
    """``qr_complete`` is ``np.linalg.qr(a, mode="complete")`` called
    straight through numpy's private LAPACK gufuncs, so a numpy that changes
    them fails here, not in the solvers' last bits."""

    @pytest.mark.parametrize("stack", [(), (1,), (3,)], ids=["single", "stack1", "stack3"])
    @pytest.mark.parametrize("shape", QR_SHAPES, ids=[f"{m}x{n}" for m, n in QR_SHAPES])
    def test_equals_numpy_bit_for_bit(self, shape, stack):
        a = np.random.default_rng(sum(shape) + len(stack)).standard_normal(stack + shape)
        before = a.copy()
        expected = np.linalg.qr(a, mode="complete")
        got = qr_complete(a)
        assert np.array_equal(a, before)
        for want, have in zip(expected, got):
            assert have.dtype == want.dtype and have.shape == want.shape
            assert have.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", QR_SHAPES, ids=[f"{m}x{n}" for m, n in QR_SHAPES])
    def test_non_finite_input_as_numpy(self, shape, bad):
        """A NaN or infinite entry raises LinAlgError exactly where numpy's
        call does and otherwise gives numpy's bits, NaN and all, with no
        RuntimeWarning, which the suite turns into an error."""
        a = np.random.default_rng(7).standard_normal((2,) + shape)
        a[1, shape[0] // 2, shape[1] - 1] = bad
        expected = numpy_or_error(lambda x: np.linalg.qr(x, mode="complete"), a)
        got = numpy_or_error(qr_complete, a)
        if isinstance(expected, np.linalg.LinAlgError):
            assert isinstance(got, np.linalg.LinAlgError)
        else:
            assert [part.tobytes() for part in got] == [part.tobytes() for part in expected]

    def test_invalid_flag_raises_as_numpy(self, monkeypatch):
        """A factorization that leaves the FP invalid flag set raises numpy's
        LinAlgError, message and all."""
        real = _umath_linalg.qr_r_raw

        def invalid(*args, **kwargs):
            tau = real(*args, **kwargs)
            np.sqrt(np.full(1, -1.0))
            return tau

        monkeypatch.setattr(_umath_linalg, "qr_r_raw", invalid)
        a = np.random.default_rng(3).standard_normal((2, 6, 4))
        messages = []
        for qr in (qr_complete, lambda x: np.linalg.qr(x, mode="complete")):
            with pytest.raises(np.linalg.LinAlgError) as excinfo:
                qr(a)
            messages.append(str(excinfo.value))
        assert messages == ["Incorrect argument found while performing QR factorization"] * 2

    def test_no_module_calls_numpy_qr(self):
        """Every QR of the package goes through ``qr_complete``, which the
        QR-count tests patch: no module calls ``np.linalg.qr``, nor imports
        it, so no new call site escapes the counts."""
        found = []
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and node.attr == "qr" \
                        and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg":
                    found.append(f"{path.name}:{node.lineno}")
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg") \
                        and any(alias.name == "qr" for alias in node.names):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []
