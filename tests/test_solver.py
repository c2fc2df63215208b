import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcsmooth import factors, lie, solver, wnoa

from conftest import CFG, flipped_closure_line, random_pose
from oracles import assemble

PSD = CFG.wnoa_psd()
R_REL = CFG.r_rel()
R_OBS = CFG.r_obs()
PRIOR_COV = CFG.prior_cov()
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
    g = solver.build_graph(times, poses, meas, PSD, R_REL, R_OBS, PRIOR_COV)
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
        e, gamma, w = assemble(g)
        assert gamma.shape == (33, 24)
        assert w.shape == (33, 33)
        assert e.shape == (33,)

    def test_zero_errors_at_generating_trajectory(self, rng):
        g = small_graph(rng, n=5, loops=())
        e, _, _ = assemble(g)
        # exact constant-velocity chain: every row is zero (prior included,
        # since the graph is initialized at the prior trajectory)
        assert np.abs(e).max() < 1e-10

    def test_matches_dense_per_factor_sums(self, rng):
        g = small_graph(rng, n=4, loops=((0, 3), (1, 2)), perturb=0.02)
        w_rob = np.ones(2)
        e, gamma, w = assemble(g, robust_weights=w_rob)
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
        e, gamma, w = assemble(g, robust_weights=w_rob)
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
            assemble(g)

    def test_row_ordering(self, rng):
        # prior(12) + wnoa(12K) + loops(6L) + rel(6K) + obs(3K)
        g = small_graph(rng, n=3, loops=((0, 2),))
        e, gamma, _ = assemble(g)
        k = 2
        assert gamma.shape[0] == 12 + 12 * k + 6 + 6 * k + 3 * k
        # loop rows touch only pose columns of its two nodes
        loop_rows = gamma[12 + 12 * k : 12 + 12 * k + 6, :].toarray()
        occupied = np.flatnonzero(np.abs(loop_rows).sum(axis=0))
        assert set(occupied) <= set(range(0, 6)) | set(range(24, 30))


@st.composite
def closure_layouts(draw, dense=False):
    """(n, closure node pairs): 2 to 30 nodes and 0 to 6 closures, or up to
    3n closures if ``dense``."""
    n = draw(st.integers(2, 30))
    node = st.integers(0, n - 1)
    pairs = draw(
        st.lists(
            st.tuples(node, node).filter(lambda p: p[0] != p[1]),
            max_size=3 * n if dense else 6,
        )
    )
    return n, tuple((min(p), max(p)) for p in pairs)


def random_pairs(n, count, seed):
    """``count`` closure node pairs drawn uniformly on n nodes."""
    rng = np.random.default_rng(seed)
    return tuple(tuple(int(k) for k in np.sort(rng.choice(n, 2, replace=False)))
                 for _ in range(count))


class TestSchurStep:
    """The closure-node Schur step against a dense LU solve of H + lam I.

    Both solvers are backward stable, so they differ by up to the condition
    number of H + lam I times the rounding unit.  The reference is a dense LU
    solve, not ``spsolve``, whose answer was the one more than 1e-9 from the
    other two where the step and ``spsolve`` disagreed by that much.
    """

    @staticmethod
    def reference_step(g, w, lam):
        e, gamma, weight = assemble(g, robust_weights=w)
        h = (gamma.T @ weight @ gamma + lam * sp.identity(gamma.shape[1])).toarray()
        return np.linalg.solve(h, -(gamma.T @ (weight @ e)))

    @pytest.mark.parametrize(
        "loops, lam, unit_weights",
        [
            (((3, 4), (6, 7)), 0.0, False),  # adjacent closure nodes
            (((0, 5), (6, 11)), 0.0, False),  # first and last node
            (((2, 7), (2, 9), (2, 7)), 0.0, False),  # shared node, repeated pair
            (((2, 4), (4, 6), (1, 9)), 0.0, False),  # one-node segments
            ((), 0.0, False),  # no closures
            (((1, 8), (3, 10)), 0.5, False),  # damped
            (((0, 6), (0, 1), (3, 8)), 0.0, True),  # node 0 shared, robust cost off
        ],
    )
    def test_matches_sparse_solve(self, rng, loops, lam, unit_weights):
        g = small_graph(rng, n=12, loops=loops, perturb=0.02)
        w = np.ones(len(loops)) if unit_weights else rng.uniform(0.3, 1.0, size=len(loops))
        normal = solver._normal_equations(robust_terms(g, w), g.num_nodes)
        delta = solver._solve_normal(*normal, lam)
        ref = self.reference_step(g, w, lam)
        assert np.linalg.norm(delta - ref) <= 1e-9 * np.linalg.norm(ref)

    @settings(max_examples=30, deadline=None, database=None)
    @given(
        layout=closure_layouts(),
        lam=st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    # both chain ends; runs of adjacent closure nodes, so empty segments; a
    # repeated pair; no interior node at all
    @example(layout=(12, ((0, 11), (3, 4), (3, 4))), lam=0.0, seed=1)
    @example(layout=(30, ((4, 5), (5, 6), (6, 8), (0, 29))), lam=0.0, seed=2)
    @example(layout=(3, ((0, 1), (1, 2))), lam=0.3, seed=3)
    def test_matches_sparse_solve_on_random_layouts(self, layout, lam, seed):
        n, loops = layout
        rng = np.random.default_rng(seed)
        g = small_graph(rng, n=n, loops=loops, perturb=0.02)
        w = rng.uniform(0.3, 1.0, size=len(loops))
        normal = solver._normal_equations(robust_terms(g, w), g.num_nodes)
        delta = solver._solve_normal(*normal, lam)
        ref = self.reference_step(g, w, lam)
        assert np.linalg.norm(delta - ref) <= 1e-9 * np.linalg.norm(ref)

    def check_layout(self, rng, n, loops, lam):
        g = small_graph(rng, n=n, loops=loops, perturb=0.02)
        w = rng.uniform(0.3, 1.0, size=len(loops))
        normal = solver._normal_equations(robust_terms(g, w), g.num_nodes)
        delta = solver._solve_normal(*normal, lam)
        ref = self.reference_step(g, w, lam)
        assert np.linalg.norm(delta - ref) <= 1e-9 * np.linalg.norm(ref)

    # closure graphs whose closure-node system is no longer block-tridiagonal,
    # so that its factorization depends on the fill-reducing order
    @pytest.mark.parametrize(
        "n, loops",
        [
            (30, tuple((min(5, k), max(5, k))
                       for k in (0, 2, 3, 8, 11, 14, 17, 20, 23, 26, 28, 29))),
            (12, ((0, 6), (1, 7), (2, 8), (3, 9), (4, 10), (5, 11))),
            (12, ((0, 1), (3, 4), (4, 5), (8, 9), (10, 11))),
            (40, random_pairs(40, 40, seed=7)),
        ],
        ids=["star", "no_interior", "adjacent_only", "random40"],
    )
    def test_matches_sparse_solve_on_closure_graphs(self, rng, n, loops):
        self.check_layout(rng, n, loops, 0.0)

    @settings(max_examples=30, deadline=None, database=None)
    @given(
        layout=closure_layouts(dense=True),
        lam=st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_sparse_solve_on_dense_layouts(self, layout, lam, seed):
        n, loops = layout
        self.check_layout(np.random.default_rng(seed), n, loops, lam)


# relative-pose factors this stiff put the rounding error of the normal
# equations far above the damping cap
STIFF_R_REL = np.diag([1e-16**2] * 3 + [1e-14**2] * 3)


def unanchored_graph(rng, loops):
    """A prior too weak to register in double precision, so yaw and planar
    position are free, and stiff relative poses."""
    g = small_graph(rng, n=12, loops=loops, perturb=0.02)
    g.prior = factors.PriorBelief(g.prior.pose, g.prior.varpi, 1e300 * np.eye(12))
    g.r_rel = STIFF_R_REL
    return g


def nudged_flipped_line():
    """``flipped_closure_line`` with its consistent closure moved by about
    one sigma, so that the posterior moves away from the prior."""
    times, poses, closures = flipped_closure_line(orthonormal=True)
    good = closures[0]
    nudge = lie.se3_exp(np.array([0.002, -0.001, 0.003, 0.02, -0.01, 0.015]))
    closures[0] = factors.LoopClosureMeasurement(
        good.idx_l1, good.idx_l2, good.xi_meas @ nudge, good.cov
    )
    return times, poses, closures


def deep_nudged_line():
    """``nudged_flipped_line`` moved 1e9 m down."""
    times, poses, closures = nudged_flipped_line()
    poses[:, 2, 3] += 1e9
    return times, poses, closures


def spy(monkeypatch, name):
    """Wrap ``solver.<name>`` so each call is recorded as (args, result)."""
    calls, original = [], getattr(solver, name)

    def wrapper(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(solver, name, wrapper)
    return calls


class TestLinearizeOnce:
    """A solve linearizes each trial step once, and an accepted trial's terms
    are the next step's."""

    def test_one_linearization_per_trial(self, rng, monkeypatch):
        linearized = spy(monkeypatch, "_linearize")
        trials = spy(monkeypatch, "update_states")
        g = small_graph(rng, n=8, loops=((0, 7), (2, 5)), perturb=0.02)
        _, report = solver.solve(g, solver.SolverConfig())
        assert report.converged and report.iterations >= 2
        assert len(linearized) == 1 + len(trials)

    def test_one_linearization_per_rejected_trial(self, monkeypatch):
        linearized = spy(monkeypatch, "_linearize")
        trials = spy(monkeypatch, "update_states")
        times, poses, closures = deep_nudged_line()
        g = solver.build_graph(times, poses, closures, PSD, R_REL, R_OBS, PRIOR_COV)
        _, report = solver.solve(g, solver.SolverConfig())
        assert report.stop_reason == "damping_limit"
        assert len(trials) > report.iterations
        assert len(linearized) == 1 + len(trials)

    def test_next_step_terms_are_a_fresh_linearization(self, rng, monkeypatch):
        steps = spy(monkeypatch, "_normal_equations")
        trials = spy(monkeypatch, "update_states")
        g = small_graph(rng, n=12, loops=((0, 11), (2, 9), (4, 7)), perturb=0.02)
        # an outlier, so that the robust weights move between steps
        bad = lie.se3_exp(np.array([0.5, 0.2, -0.3, 3.0, 1.0, 2.0]))
        g.loop_closures[2] = factors.LoopClosureMeasurement(4, 7, bad, LC_COV.copy())
        cfg = solver.SolverConfig()
        _, report = solver.solve(g, cfg)
        # every trial accepted: trial k is the iterate of step k + 1
        assert len(trials) == report.iterations >= 3
        for ((terms, _), _), (_, trial) in zip(steps[1:], trials):
            fresh, _ = solver._reweight(solver._linearize(trial), cfg)
            assert terms.keys() == fresh.keys()
            for name, f in fresh.items():
                for field in ("e", "J_a", "J_b", "idx", "W"):
                    assert np.array_equal(getattr(terms[name], field), getattr(f, field))
        _, w = solver._reweight(solver._linearize(trials[-1][1]), cfg)
        assert np.array_equal(report.loop_weights, w)


class TestSolverFailure:
    @pytest.mark.parametrize(
        "loops, singular",
        [((), "interior chain matrix"), (((2, 9), (4, 5)), "closure-node Schur complement")],
        ids=["loops0-interior chain matrix", "loops1-Schur complement"],
    )
    def test_singular_normal_equations_raise(self, rng, loops, singular):
        # pinning the closure nodes anchors every interior segment, so with
        # closures the gauge freedom surfaces in the Schur complement
        g = unanchored_graph(rng, loops)
        normal = solver._normal_equations(robust_terms(g, np.ones(len(loops))), g.num_nodes)
        for lam in (0.0, solver.MAX_DAMPING):
            with pytest.raises(solver.NotPositiveDefiniteError) as info:
                solver._solve_normal(*normal, lam)
            assert info.value.matrix == singular

    def test_zero_closure_node_system_raises(self):
        # interior blocks I, closure-node blocks 0, no chain couplings and no
        # closure terms: the closure-node system is exactly zero, which
        # SuperLU reports as an exactly singular factor
        n = 6
        hdiag = np.tile(np.eye(12), (n, 1, 1))
        hdiag[[1, 4]] = 0.0
        hoff = np.zeros((n - 1, 12, 12))
        v = np.zeros((1, 2, 6, 6))
        with pytest.raises(solver.NotPositiveDefiniteError) as info:
            solver._solve_normal(hdiag, hoff, np.array([[1, 4]]), v, np.ones(12 * n), 0.0)
        assert info.value.matrix == "closure-node Schur complement"
        assert type(info.value.__cause__) is RuntimeError

    def test_singular_closure_graph_raises(self, rng):
        # eleven closures over all twelve nodes: the minimum-degree order of
        # the closure-node system differs from node order, and the free gauge
        # still shows as a non-positive pivot
        loops = ((0, 5), (1, 9), (2, 6), (3, 10), (4, 8), (0, 11), (2, 7), (5, 9),
                 (1, 4), (6, 10), (3, 8))
        g = unanchored_graph(rng, loops)
        normal = solver._normal_equations(robust_terms(g, np.ones(len(loops))), g.num_nodes)
        for lam in (0.0, solver.MAX_DAMPING):
            with pytest.raises(solver.NotPositiveDefiniteError) as info:
                solver._solve_normal(*normal, lam)
            assert info.value.matrix == "closure-node Schur complement"

    def test_non_finite_solution_raises(self, rng):
        g = small_graph(rng, n=12, loops=((2, 9),), perturb=0.02)
        hdiag, hoff, loop_idx, v, grad = solver._normal_equations(
            robust_terms(g, np.ones(1)), g.num_nodes
        )
        grad[40] = np.nan
        with pytest.raises(solver.NotPositiveDefiniteError) as info:
            solver._solve_normal(hdiag, hoff, loop_idx, v, grad, 0.0)
        assert info.value.matrix == "normal-equation solution"

    def test_other_errors_are_not_taken_for_failure(self, rng, monkeypatch):
        # only a step that cannot be computed raises the damping; a fault in
        # the step code reaches the caller as it is
        def faulty(*args):
            raise RuntimeError("fault")

        monkeypatch.setattr(solver, "_solve_normal", faulty)
        with pytest.raises(RuntimeError, match="fault"):
            solver.solve(small_graph(rng, perturb=0.02), CFG.solver_config())

    def test_solve_escalates_damping_to_failure(self, rng):
        g = unanchored_graph(rng, ((2, 9),))
        cfg = solver.SolverConfig()
        with pytest.raises(solver.SolverFailureError) as info:
            solver.solve(g, cfg)
        best, report = info.value.graph, info.value.report
        assert report.iterations == 0 and not report.converged
        assert report.stop_reason == "singular"
        assert report.damping_final > solver.MAX_DAMPING
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
        e, _, weight = assemble(best, robust_weights=report.loop_weights)
        assert report.objective == pytest.approx(0.5 * e @ (weight @ e), rel=1e-12)
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
        delta = solver._solve_normal(*normal, 0.0)
        e, gamma, weight = assemble(g, robust_weights=w)
        r = e + gamma @ delta
        predicted = 0.5 * r @ (weight @ r)
        assert np.abs(delta).max() < 1e-8
        assert predicted < 1e-12

    def test_single_node_prior_restored_in_one_step(self, rng):
        pose = random_pose(rng)
        g = solver.build_graph(np.array([0.0]), pose[None], [], PSD, R_REL, R_OBS, PRIOR_COV)
        g.poses = g.poses @ lie.se3_exp(rng.normal(size=(1, 6)) * 1e-3)
        g.varpis = g.varpis + 1e-3
        post, report = solver.solve(g, solver.SolverConfig())
        assert np.abs(post.poses[0] - pose).max() <= 1e-8
        assert report.converged


class TestSolve:
    def test_truth_init_converges_immediately(self, rng):
        g = small_graph(rng, n=10, loops=((0, 9),))
        post, report = solver.solve(g, solver.SolverConfig())
        assert report.converged and report.stop_reason == "converged"
        assert report.iterations <= 2
        assert report.objective <= 1e-12

    def test_max_iterations_reason(self, rng):
        g = small_graph(rng, n=8, loops=((0, 7), (2, 5)), perturb=0.02)
        _, report = solver.solve(g, solver.SolverConfig(max_iterations=1))
        assert report.iterations == 1 and not report.converged
        assert report.stop_reason == "max_iterations"
        assert report.message == "max iterations reached"

    def test_damping_limit_reason(self):
        # 1e9 m down, an ulp of depth (1.2e-7 m) is more than the objective's
        # decrease can show, so no damping up to the cap is accepted; the
        # last iterate is returned, not raised (every depth from 1.2e8 m to
        # 1e10 m in a scan of 34 stopped this way)
        times, poses, closures = deep_nudged_line()
        g = solver.build_graph(times, poses, closures, PSD, R_REL, R_OBS, PRIOR_COV)
        _, report = solver.solve(g, solver.SolverConfig())
        assert not report.converged
        assert report.stop_reason == "damping_limit"
        assert report.message == "damping limit reached without objective decrease"
        assert report.damping_final > solver.MAX_DAMPING

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
        g = solver.build_graph(times, poses, closures, PSD, R_REL, R_OBS, PRIOR_COV)
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

    @settings(max_examples=25, deadline=None, database=None)
    @given(
        psi=st.floats(-np.pi, np.pi, exclude_min=True),
        x=st.floats(-1e3, 1e3),
        y=st.floats(-1e3, 1e3),
    )
    def test_gauge_equivariance(self, psi, x, y):
        # left-composing every input pose with a yaw and planar translation G
        # leaves every factor unchanged (the roll/pitch/depth factor fixes the
        # rest of the gauge), so the posterior is left-composed with G; the
        # closures are relative and stay as they are
        times, poses, closures = nudged_flipped_line()
        G = lie.make_pose(lie.so3_exp(np.array([0.0, 0.0, psi])), [x, y, 0.0])
        post, report = solver.solve(
            solver.build_graph(times, poses, closures, PSD, R_REL, R_OBS, PRIOR_COV),
            CFG.solver_config(),
        )
        post_g, report_g = solver.solve(
            solver.build_graph(times, G @ poses, closures, PSD, R_REL, R_OBS, PRIOR_COV),
            CFG.solver_config(),
        )
        assert report.converged and report_g.converged
        assert report_g.iterations == report.iterations
        assert np.abs(report_g.loop_weights - report.loop_weights).max() <= 1e-9
        assert np.abs(post_g.poses - G @ post.poses).max() <= 1e-9

    @settings(max_examples=25, deadline=None, database=None)
    @given(x=st.floats(-1e6, 1e6), y=st.floats(-1e7, 1e7))
    # offsets at which the solve stopped unconverged while it ran at the
    # input's coordinates
    @example(x=3e5, y=2.1e5)
    @example(x=5e5, y=5e6)
    def test_survey_coordinates(self, x, y):
        # at UTM magnitudes the posterior is the one at the origin moved by
        # (x, y), to eight ulps of the offset; the solver works within 512 m
        # of its own origin, so the bound never falls below eight ulps at
        # 1,024 m
        times, poses, closures = nudged_flipped_line()
        offset = np.array([x, y])
        moved = poses.copy()
        moved[:, :2, 3] += offset
        post, report = solver.solve(
            solver.build_graph(times, poses, closures, PSD, R_REL, R_OBS, PRIOR_COV),
            CFG.solver_config(),
        )
        post_m, report_m = solver.solve(
            solver.build_graph(times, moved, closures, PSD, R_REL, R_OBS, PRIOR_COV),
            CFG.solver_config(),
        )
        assert report.converged and report_m.converged
        assert report_m.iterations == report.iterations
        expected = post.poses.copy()
        expected[:, :2, 3] += offset
        bound = 8 * np.spacing(max(abs(x), abs(y), 1024.0))
        assert np.abs(post_m.poses - expected).max() <= bound
        assert np.abs(report_m.loop_weights - report.loop_weights).max() <= 1e-9

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
