import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsmooth import factors, lie, solver, wnoa
from lcsmooth.wnoa import WnoaPsd

from conftest import flipped_closure_line, random_pose

PSD = WnoaPsd(1e-2, 1e-4)
R_REL = np.diag([1e-5**2] * 3 + [1e-3**2] * 3)
R_OBS = np.diag([np.deg2rad(5.0) ** 2] * 2 + [0.25**2])
LC_COV = np.diag([np.deg2rad(0.2) ** 2] * 3 + [0.02**2] * 3)


def constant_velocity_trajectory(rng, n, dt=0.2, start=None):
    varpi = np.array([0.0, 0.0, 0.15, 1.0, 0.0, 0.02])
    poses = [random_pose(rng) if start is None else start]
    for _ in range(n - 1):
        poses.append(poses[-1] @ lie.se3_exp(dt * varpi))
    return np.arange(n) * dt, np.stack(poses), varpi


def small_graph(rng, n=4, loops=((0, 3),), perturb=0.0):
    times, poses, varpi = constant_velocity_trajectory(rng, n)
    meas = [
        factors.LoopClosureMeasurement(
            a, b, lie.se3_inv(poses[a]) @ poses[b], LC_COV.copy()
        )
        for a, b in loops
    ]
    g = solver.build_graph(times, poses, meas, PSD, R_REL, R_OBS)
    if perturb:
        g.poses = g.poses @ lie.se3_exp(rng.normal(size=(n, 6)) * perturb)
        g.varpis = g.varpis + rng.normal(size=(n, 6)) * perturb
    return g


def robust_terms(g, w):
    """The graph's linearized terms with loop-closure weights scaled by w."""
    return solver._with_loop_weights(solver._linearize(g), w)


class TestAssemble:
    def test_two_node_shape(self, rng):
        g = small_graph(rng, n=2, loops=())
        e, gamma, w = solver.assemble(g)
        assert gamma.shape == (33, 24)
        assert w.shape == (33, 33)
        assert e.shape == (33,)

    def test_zero_errors_at_generating_trajectory(self, rng):
        g = small_graph(rng, n=5, loops=())
        e, _, _ = solver.assemble(g)
        # exact constant-velocity chain: every row is zero (prior included,
        # since the graph is initialized at the prior trajectory)
        assert np.abs(e).max() < 1e-10

    def test_matches_dense_per_factor_sums(self, rng):
        g = small_graph(rng, n=4, loops=((0, 3), (1, 2)), perturb=0.02)
        w_rob = np.ones(2)
        e, gamma, w = solver.assemble(g, robust_weights=w_rob)
        h_ref = (gamma.T @ w @ gamma).toarray()

        n = g.num_nodes
        P, V = g.poses, g.varpis
        h_dense = np.zeros((12 * n, 12 * n))

        def add(result, nodes, weight):
            # one factor at a time: its blocks scattered at its node columns
            e, J_a, J_b = result
            J = np.zeros((e.shape[-1], 12 * n))
            for k, block in zip(nodes, (J_a, J_b)):
                J[:, 12 * k : 12 * k + block.shape[-1]] = block[0]
            nonlocal h_dense
            h_dense = h_dense + J.T @ weight @ J

        result = factors.prior(P[:1], V[:1], g.prior.pose, g.prior.varpi)
        M0 = -np.eye(12)
        M0[:6, :6] = -lie.right_jacobian_inv(result[0][0, :6])
        add(result, [0], np.linalg.inv(M0 @ g.prior.cov @ M0.T))
        for k in range(1, n):
            dt = g.times[k] - g.times[k - 1]
            add(
                factors.wnoa(P[k - 1 : k], V[k - 1 : k], P[k : k + 1], V[k : k + 1], dt),
                [k - 1, k],
                wnoa.process_weight(V[k - 1], PSD, dt),
            )
        for m in g.loop_closures:
            i, j = m.idx_l1, m.idx_l2
            result = factors.relative_pose(P[i : i + 1], P[j : j + 1], m.xi_meas[None])
            M = -lie.right_jacobian_inv(result[0][0])
            add(result, [i, j], np.linalg.inv(M @ m.cov @ M.T))
        for k in range(1, n):
            add(
                factors.relative_pose(P[k - 1 : k], P[k : k + 1], g.rel_xi[k - 1 : k]),
                [k - 1, k],
                np.linalg.inv(g.r_rel),
            )
            add(
                factors.observable(P[k : k + 1], g.prior_poses[k : k + 1]),
                [k],
                np.linalg.inv(g.r_obs),
            )

        scale = np.abs(h_ref).max()
        assert np.abs(h_dense - h_ref).max() <= 1e-12 * scale

    def test_structured_normal_equations_match(self, rng):
        g = small_graph(rng, n=5, loops=((0, 4), (1, 3)), perturb=0.02)
        w_rob = np.array([0.7, 1.0])
        e, gamma, w = solver.assemble(g, robust_weights=w_rob)
        h_ref = (gamma.T @ w @ gamma).toarray()
        g_ref = gamma.T @ (w @ e)
        hdiag, hoff, loop_idx, v, grad = solver._normal_equations(
            robust_terms(g, w_rob), g.num_nodes
        )
        n = g.num_nodes
        h = np.zeros((12 * n, 12 * n))
        for i in range(n):
            h[12 * i : 12 * i + 12, 12 * i : 12 * i + 12] = hdiag[i]
        for i in range(n - 1):
            h[12 * i : 12 * i + 12, 12 * i + 12 : 12 * i + 24] = hoff[i]
            h[12 * i + 12 : 12 * i + 24, 12 * i : 12 * i + 12] = hoff[i].T
        assert v.shape == (2, 2, 6, 6)
        for (i1, i2), (v1, v2) in zip(loop_idx, v):
            u = np.zeros((12 * n, 6))
            u[12 * i1 : 12 * i1 + 6] = v1
            u[12 * i2 : 12 * i2 + 6] = v2
            h += u @ u.T
        scale = np.abs(h_ref).max()
        assert np.abs(h - h_ref).max() <= 1e-12 * scale
        assert np.abs(grad - g_ref).max() <= 1e-12 * max(np.abs(g_ref).max(), 1.0)

    def test_non_spd_covariance_names_the_factor(self, rng):
        g = small_graph(rng, n=3, loops=((0, 2),))
        g.loop_closures[0].cov[0, 0] = -1.0
        with pytest.raises(ValueError, match="loop closure 0"):
            solver.assemble(g)

    def test_row_ordering(self, rng):
        # prior(12) + wnoa(12K) + loops(6L) + rel(6K) + obs(3K)
        g = small_graph(rng, n=3, loops=((0, 2),))
        e, gamma, _ = solver.assemble(g)
        k = 2
        assert gamma.shape[0] == 12 + 12 * k + 6 + 6 * k + 3 * k
        # loop rows touch only pose columns of its two nodes
        loop_rows = gamma[12 + 12 * k : 12 + 12 * k + 6, :].toarray()
        occupied = np.flatnonzero(np.abs(loop_rows).sum(axis=0))
        assert set(occupied) <= set(range(0, 6)) | set(range(24, 30))


class TestSchurStep:
    """The closure-node Schur step against a sparse direct solve of H + lam I."""

    @staticmethod
    def sparse_step(g, w, lam, fix_first_node):
        e, gamma, weight = solver.assemble(g, robust_weights=w)
        h = (gamma.T @ weight @ gamma + lam * sp.identity(gamma.shape[1])).tocsc()
        rhs = -(gamma.T @ (weight @ e))
        s = 12 if fix_first_node else 0
        delta = np.zeros_like(rhs)
        delta[s:] = spla.spsolve(h[s:, s:], rhs[s:])
        return delta

    @pytest.mark.parametrize(
        "loops, lam, fix_first_node",
        [
            (((3, 4), (6, 7)), 0.0, False),  # adjacent closure nodes
            (((0, 5), (6, 11)), 0.0, False),  # first and last node
            (((2, 7), (2, 9), (2, 7)), 0.0, False),  # shared node, repeated pair
            (((2, 4), (4, 6), (1, 9)), 0.0, False),  # one-node segments
            ((), 0.0, False),  # no closures
            (((1, 8), (3, 10)), 0.5, False),  # damped
            (((0, 6), (0, 1), (3, 8)), 0.0, True),  # closures on the fixed node
        ],
    )
    def test_matches_sparse_solve(self, rng, loops, lam, fix_first_node):
        g = small_graph(rng, n=12, loops=loops, perturb=0.02)
        if fix_first_node:
            g.prior = None
        w = rng.uniform(0.3, 1.0, size=len(loops))
        normal = solver._normal_equations(robust_terms(g, w), g.num_nodes)
        delta = solver._solve_normal(*normal, lam, fix_first_node)
        ref = self.sparse_step(g, w, lam, fix_first_node)
        assert np.linalg.norm(delta - ref) <= 1e-9 * np.linalg.norm(ref)
        if fix_first_node:
            assert np.array_equal(delta[:12], np.zeros(12))


# relative-pose factors this stiff put the rounding error of the normal
# equations far above the damping cap
STIFF_R_REL = np.diag([1e-16**2] * 3 + [1e-14**2] * 3)


def unanchored_graph(rng, loops):
    """No prior, so yaw and planar position are free, and stiff relative poses."""
    g = small_graph(rng, n=12, loops=loops, perturb=0.02)
    g.prior = None
    g.r_rel = STIFF_R_REL
    return g


class TestSolverFailure:
    @pytest.mark.parametrize(
        "loops, singular",
        [((), "interior chain matrix"), (((2, 9), (4, 5)), "Schur complement")],
    )
    def test_singular_normal_equations_raise(self, rng, loops, singular):
        # pinning the closure nodes anchors every interior segment, so with
        # closures the gauge freedom surfaces in the Schur complement
        g = unanchored_graph(rng, loops)
        normal = solver._normal_equations(robust_terms(g, np.ones(len(loops))), g.num_nodes)
        for lam in (0.0, solver.SolverConfig().max_damping):
            with pytest.raises(RuntimeError, match=singular):
                solver._solve_normal(*normal, lam, False)

    def test_solve_escalates_damping_to_failure(self, rng):
        g = unanchored_graph(rng, ((2, 9),))
        cfg = solver.SolverConfig()
        with pytest.raises(solver.SolverFailureError) as info:
            solver.solve(g, cfg)
        best, report = info.value.graph, info.value.report
        assert report.iterations == 0 and not report.converged
        assert report.damping_final > cfg.max_damping
        assert report.message == str(info.value)
        assert np.array_equal(best.poses, g.poses)

    def test_failure_carries_best_iterate(self, rng):
        # large initial damping takes small accepted steps until the damping
        # has decayed below what the stiff system needs
        g = unanchored_graph(rng, ((2, 9),))
        cfg = solver.SolverConfig(damping=1e17)
        with pytest.raises(solver.SolverFailureError) as info:
            solver.solve(g, cfg)
        best, report = info.value.graph, info.value.report
        assert report.iterations >= 1 and not report.converged
        assert report.objective < report.objective_trace[0]
        assert report.objective == pytest.approx(solver.objective(best, cfg)[0], rel=1e-12)
        assert np.abs(best.poses - g.poses).max() > 1e-6


class TestRobustWeight:
    def test_zero_error_unit_weight(self):
        assert solver.robust_weight(np.zeros(6), 0.017, 1.0) == 1.0

    def test_unit_mahalanobis_halves(self):
        w = solver.robust_weight(np.array([0, 0, 0, 1.0, 0, 0]), 0.017, 1.0)
        assert abs(w - 0.5) < 1e-12

    def test_large_attitude_outlier_rejected(self):
        e = np.array([np.pi, 0, 0, 0, 0, 0])
        assert solver.robust_weight(e, np.deg2rad(1.0), 1.0) < 1e-4

    def test_range_and_monotonicity(self, rng):
        errs = rng.normal(size=(200, 6)) * 3.0
        w = solver.robust_weight(errs, np.deg2rad(1.0), 1.0)
        assert np.all(w > 0.0) and np.all(w <= 1.0)


class TestStepAndUpdate:
    def test_zero_delta_leaves_graph(self, rng):
        g = small_graph(rng, perturb=0.01)
        out = solver.update_states(g, np.zeros(12 * g.num_nodes))
        assert np.array_equal(out.poses, g.poses)
        assert np.array_equal(out.varpis, g.varpis)

    def test_delta_cancels_offset(self, rng):
        g = small_graph(rng)
        offset = rng.normal(size=6) * 0.1
        g2 = g.copy()
        g2.poses = g2.poses.copy()
        g2.poses[1] = g2.poses[1] @ lie.se3_exp(-offset)
        delta = np.zeros(12 * g.num_nodes)
        delta[12:18] = -offset
        out = solver.update_states(g2, delta)
        assert np.abs(out.poses[1] - g.poses[1]).max() < 1e-12

    def test_updates_do_not_commute(self, rng):
        # group updates compose multiplicatively: applying d1 then d2 is not
        # the same as applying d1 + d2 in one step
        g = small_graph(rng)
        d1 = rng.normal(size=12 * g.num_nodes) * 0.3
        d2 = rng.normal(size=12 * g.num_nodes) * 0.3
        stepped = solver.update_states(solver.update_states(g, d1), d2)
        summed = solver.update_states(g, d1 + d2)
        assert np.abs(stepped.poses - summed.poses).max() > 1e-6

    def test_zero_errors_give_zero_step(self, rng):
        g = small_graph(rng, n=4, loops=((0, 3),))
        w = np.ones(1)
        normal = solver._normal_equations(robust_terms(g, w), g.num_nodes)
        delta = solver._solve_normal(*normal, 0.0, False)
        e, gamma, weight = solver.assemble(g, robust_weights=w)
        r = e + gamma @ delta
        predicted = 0.5 * r @ (weight @ r)
        assert np.abs(delta).max() < 1e-8
        assert predicted < 1e-12

    def test_single_node_prior_restored_in_one_step(self, rng):
        pose = random_pose(rng)
        g = solver.build_graph(np.array([0.0]), pose[None], [], PSD, R_REL, R_OBS)
        g.poses = g.poses @ lie.se3_exp(rng.normal(size=(1, 6)) * 1e-3)
        g.varpis = g.varpis + 1e-3
        post, report = solver.solve(g, solver.SolverConfig())
        assert np.abs(post.poses[0] - pose).max() <= 1e-8
        assert report.converged


class TestSolve:
    def test_truth_init_converges_immediately(self, rng):
        g = small_graph(rng, n=10, loops=((0, 9),))
        post, report = solver.solve(g, solver.SolverConfig())
        assert report.converged
        assert report.iterations <= 2
        assert report.objective <= 1e-12

    def test_step_objectives_non_increasing(self, rng):
        g = small_graph(rng, n=8, loops=((0, 7), (2, 5)), perturb=0.02)
        post, report = solver.solve(g, solver.SolverConfig())
        assert report.converged
        for before, after in report.step_objectives:
            assert after <= before * (1 + 1e-12) + 1e-15

    def test_robust_disabled_gives_unit_weights(self, rng):
        g = small_graph(rng, n=6, loops=((0, 5), (1, 4)), perturb=0.01)
        _, report = solver.solve(g, solver.SolverConfig(robust_cost=False))
        assert np.array_equal(report.loop_weights, np.ones(2))

    def test_outlier_downweighted(self, rng):
        g = small_graph(rng, n=8, loops=((0, 7), (1, 6)), perturb=0.0)
        bad = lie.se3_exp(np.array([3.0, 0.5, -1.0, 4.0, 2.0, 10.0]))
        g.loop_closures[1] = factors.LoopClosureMeasurement(1, 6, bad, LC_COV.copy())
        post, report = solver.solve(g, solver.SolverConfig())
        assert report.loop_weights[1] < 1e-4
        assert report.loop_weights[0] > 0.9

    @pytest.mark.parametrize("orthonormal", [True, False], ids=["exact", "off_so3"])
    def test_flipped_closure_rejected(self, orthonormal):
        times, poses, closures = flipped_closure_line(orthonormal)
        g = solver.build_graph(times, poses, closures, PSD, R_REL, R_OBS)
        _, report = solver.solve(g, solver.SolverConfig())
        assert report.converged
        assert report.loop_weights[1] < 0.01
        assert report.loop_weights[0] > 0.5

    def test_determinism(self, rng):
        g1 = small_graph(rng, n=6, loops=((0, 5),), perturb=0.02)
        post1, rep1 = solver.solve(g1.copy(), solver.SolverConfig())
        post2, rep2 = solver.solve(g1.copy(), solver.SolverConfig())
        assert np.array_equal(post1.poses, post2.poses)
        assert rep1.objective_trace == rep2.objective_trace

    def test_gauge_equivariance(self, rng):
        # prior removed, first node frozen: left-composing every input by a
        # fixed pose must left-compose the posterior identically
        times, poses, _ = constant_velocity_trajectory(rng, 3)
        meas = [
            factors.LoopClosureMeasurement(
                0, 2,
                lie.se3_inv(poses[0]) @ poses[2] @ lie.se3_exp(rng.normal(size=6) * 0.02),
                LC_COV.copy(),
            )
        ]
        cfg = solver.SolverConfig(robust_cost=False, fix_first_node=True)

        def solve_shifted(G):
            g = solver.build_graph(times, G @ poses, list(meas), PSD, R_REL, R_OBS)
            g.prior = None
            g.poses = g.poses.copy()
            g.poses[1:] = g.poses[1:] @ lie.se3_exp(rng2.normal(size=(2, 6)) * 0.01)
            post, _ = solver.solve(g, cfg)
            return post.poses

        rng2 = np.random.default_rng(7)
        base = solve_shifted(np.eye(4))
        rng2 = np.random.default_rng(7)
        G = random_pose(rng)
        shifted = solve_shifted(G)
        assert np.abs(shifted - G @ base).max() <= 1e-8

    @settings(max_examples=25, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), order=st.permutations(range(5)))
    def test_posterior_independent_of_closure_order(self, seed, order):
        rng = np.random.default_rng(seed)
        loops = ((0, 11), (2, 9), (2, 7), (4, 5), (1, 10))
        g = small_graph(rng, n=12, loops=loops, perturb=0.02)
        # one outlier, so that the robust weights differ between closures
        bad = lie.se3_exp(np.array([0.5, 0.2, -0.3, 3.0, 1.0, 2.0]))
        g.loop_closures[4] = factors.LoopClosureMeasurement(1, 10, bad, LC_COV.copy())
        permuted = g.copy()
        permuted.loop_closures = [g.loop_closures[i] for i in order]
        post, report = solver.solve(g, solver.SolverConfig())
        post_p, report_p = solver.solve(permuted, solver.SolverConfig())
        assert np.abs(post_p.poses - post.poses).max() <= 1e-9
        assert np.abs(report_p.loop_weights - report.loop_weights[list(order)]).max() <= 1e-9

    def test_validation_rejects_bad_timestamps(self, rng):
        g = small_graph(rng)
        g.times = g.times.copy()
        g.times[1] = g.times[0]
        with pytest.raises(ValueError, match="strictly increasing"):
            g.validate()

    @pytest.mark.parametrize("field", ["times", "poses", "varpis"])
    def test_validation_rejects_non_finite_node(self, rng, field):
        g = small_graph(rng, n=6)
        values = getattr(g, field).copy()
        values.reshape(len(values), -1)[3, -1] = np.nan
        setattr(g, field, values)
        with pytest.raises(factors.NonFiniteInputError, match="node 3") as info:
            g.validate()
        assert info.value.index == 3

    @pytest.mark.parametrize("field", ["xi_meas", "cov"])
    def test_validation_rejects_non_finite_closure(self, rng, field):
        g = small_graph(rng, n=6, loops=((0, 5), (1, 4)))
        # the measurement's own constructor rejects a non-finite covariance,
        # so the value is written into the array after construction
        getattr(g.loop_closures[1], field)[0, 0] = np.inf
        with pytest.raises(factors.NonFiniteInputError, match="loop closure 1"):
            g.validate()

    def test_validation_rejects_bad_loop_index(self, rng):
        g = small_graph(rng)
        g.loop_closures.append(
            factors.LoopClosureMeasurement(0, 99, np.eye(4), LC_COV.copy())
        )
        with pytest.raises(ValueError, match="invalid nodes"):
            g.validate()
