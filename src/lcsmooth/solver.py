"""Sparse batch Gauss-Newton smoother over the trajectory factor graph.

The graph couples every consecutive node pair with a constant-velocity
process factor, a relative-pose factor captured from the initializing
trajectory, and a roll/pitch/depth factor, plus one prior factor on node 0
and one factor per loop-closure measurement.  Each factor type is evaluated
in one call to its batched function in :mod:`lcsmooth.factors`; the solver
attaches the weights (process noise, measurement-noise folds, robust
loop-closure weights) and keeps one uniform record per type, from which the
objective and the normal equations are built.  The trial objective of a step
evaluates errors only.

The normal equations exploit the structure in node order: the chain part is
block-tridiagonal, and each loop closure adds a PSD rank-6 term on its two
nodes.  The step eliminates every node that no closure touches with one
banded Cholesky factorization and one forward triangular sweep, leaving a
block-tridiagonal Schur complement over the m <= 2L closure nodes, solved
with the closure terms by one sparse factorization under a minimum-degree
order: O(n) banded work plus sparse work over the closure graph only.
Levenberg-Marquardt damping wraps the Gauss-Newton step so the objective is
non-increasing across accepted iterations; a step that cannot be computed
(NotPositiveDefiniteError) raises the damping.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from . import factors, lie
from .factors import LoopClosureMeasurement, NonFiniteInputError, PriorBelief, require_spd
from .wnoa import WnoaPsd, process_weight

# Levenberg-Marquardt damping above which the solver gives up
MAX_DAMPING = 1e8


class NotPositiveDefiniteError(RuntimeError):
    """A damped Gauss-Newton step cannot be computed.

    ``matrix`` names what failed: "interior chain matrix" or "closure-node
    Schur complement" when that matrix is not positive definite (numerically),
    "normal-equation solution" when the step came out non-finite.  The solver
    answers it by raising the damping.
    """

    def __init__(self, matrix, message):
        super().__init__(message)
        self.matrix = matrix


class SolverFailureError(RuntimeError):
    """Normal equations remained indefinite/singular after damping escalation.

    ``graph`` is the best iterate reached before the failure and ``report``
    its :class:`SolveReport` (``converged`` false, ``message`` the reason).
    """

    def __init__(self, message, graph, report):
        super().__init__(message)
        self.graph = graph
        self.report = report


@dataclass
class SolverConfig:
    max_iterations: int = 100
    step_tolerance: float = 1e-8
    robust_cost: bool = True
    sigma_phi_out: float = np.deg2rad(1.0)
    sigma_rho_out: float = 1.0
    damping: float = 0.0  # initial LM lambda; 0 = pure Gauss-Newton

    def __post_init__(self):
        if self.step_tolerance <= 0 or self.max_iterations < 1:
            raise ValueError("solver tolerances must be positive")
        if self.sigma_phi_out <= 0 or self.sigma_rho_out <= 0:
            raise ValueError("robust-cost sigmas must be positive")


@dataclass
class SolveReport:
    """Solve outcome.

    ``objective_trace`` holds the objective at each iterate with that
    iterate's refreshed weights; ``step_objectives`` holds, per accepted
    step, the (before, after) values under the weights the step was
    computed with, which the solver guarantees to be non-increasing, up to
    rounding on a final undamped step below the step tolerance.
    """

    iterations: int
    converged: bool
    objective: float
    objective_trace: list[float]
    loop_weights: np.ndarray
    damping_final: float
    message: str
    step_objectives: list[tuple[float, float]]


@dataclass
class FactorGraph:
    """Node states plus everything needed to evaluate the five factor types.

    ``rel_xi`` holds the relative-pose measurements captured once from the
    initializing trajectory; ``prior_poses`` is that trajectory itself, used
    by the observable-state factors (which skip node 0, anchored by the
    prior factor).
    """

    times: np.ndarray
    poses: np.ndarray
    varpis: np.ndarray
    prior: PriorBelief
    loop_closures: list[LoopClosureMeasurement]
    rel_xi: np.ndarray
    prior_poses: np.ndarray
    psd: WnoaPsd
    r_rel: np.ndarray
    r_obs: np.ndarray

    @property
    def num_nodes(self):
        return len(self.times)

    def copy(self):
        return replace(self, poses=self.poses.copy(), varpis=self.varpis.copy())

    def validate(self):
        """Raise ValueError on an inconsistent graph; NonFiniteInputError,
        naming the node or loop closure, on a NaN or infinite input."""
        if self.num_nodes < 1:
            raise ValueError("graph needs at least one node")
        if self.poses.shape != (self.num_nodes, 4, 4):
            raise ValueError("poses shape mismatch")
        if self.varpis.shape != (self.num_nodes, 6):
            raise ValueError("varpis shape mismatch")
        for what, values in (("time", self.times), ("pose", self.poses),
                             ("velocity", self.varpis)):
            bad = ~np.all(np.isfinite(values.reshape(self.num_nodes, -1)), axis=1)
            if np.any(bad):
                k = int(np.argmax(bad))
                raise NonFiniteInputError(f"node {k}: non-finite {what}", k)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        require_spd(self.r_rel, "relative-pose covariance")
        require_spd(self.r_obs, "observable covariance")
        for i, m in enumerate(self.loop_closures):
            if not (np.all(np.isfinite(m.xi_meas)) and np.all(np.isfinite(m.cov))):
                raise NonFiniteInputError(
                    f"loop closure {i}: non-finite relative pose or covariance", i
                )
            if not (0 <= m.idx_l1 < m.idx_l2 < self.num_nodes):
                raise ValueError(f"loop closure {i} references invalid nodes")
            require_spd(m.cov, f"loop closure {i} covariance")
        return self


def initial_velocities(times, poses):
    """Forward-difference body velocities consistent with the pose sequence."""
    times = np.asarray(times, dtype=float)
    poses = np.asarray(poses, dtype=float)
    if len(times) == 1:
        return np.zeros((1, 6))
    dts = np.diff(times)
    v = lie.se3_log(lie.se3_inv(poses[:-1]) @ poses[1:]) / dts[:, None]
    return np.vstack([v, v[-1:]])


def build_graph(
    times,
    prior_poses,
    loop_closures,
    psd: WnoaPsd,
    r_rel,
    r_obs,
    prior_cov,
) -> FactorGraph:
    """Assemble the smoothing graph, initialized at the prior trajectory."""
    times = np.asarray(times, dtype=float)
    prior_poses = np.asarray(prior_poses, dtype=float)
    varpis = initial_velocities(times, prior_poses)
    prior = PriorBelief(prior_poses[0], varpis[0], prior_cov)
    rel_xi = (
        lie.se3_inv(prior_poses[:-1]) @ prior_poses[1:]
        if len(times) > 1
        else np.zeros((0, 4, 4))
    )
    graph = FactorGraph(
        times=times,
        poses=prior_poses.copy(),
        varpis=varpis.copy(),
        prior=prior,
        loop_closures=list(loop_closures),
        rel_xi=rel_xi,
        prior_poses=prior_poses.copy(),
        psd=psd,
        r_rel=np.asarray(r_rel, dtype=float),
        r_obs=np.asarray(r_obs, dtype=float),
    )
    return graph.validate()


def robust_weight(error, sigma_phi_out, sigma_rho_out):
    """Redescending weight in (0, 1] from the fixed-covariance Mahalanobis distance.

    Welsch-style form w = 2^(-eps^2), scaled so a unit Mahalanobis distance
    halves the weight.  A quadratic-tail weight (Cauchy 1/(1+eps^2)) leaves a
    constant residual influence per outlier (w * eps^2 saturates), which
    measurably drags the posterior at moderate outlier offsets; the
    exponential tail drives the influence to zero instead.
    """
    error = np.asarray(error, dtype=float)
    eps_sq = (
        np.sum(error[..., :3] ** 2, axis=-1) / sigma_phi_out**2
        + np.sum(error[..., 3:] ** 2, axis=-1) / sigma_rho_out**2
    )
    # floored so the scaled weight matrix stays positive definite
    return np.maximum(np.exp2(-eps_sq), 1e-12)


# ---------------------------------------------------------------------------
# Batched linearization


@dataclass
class _Factors:
    """One factor type over the whole graph, stacked along the first axis.

    ``e`` holds the errors (m, d) and ``idx`` the nodes (m, s), one column
    per node slot: one for unary factors, two for pairwise ones.  ``J_a``
    and ``J_b`` are the (m, d, c) Jacobians of the slots, acting on the
    first c columns of the node's 12-wide block, and ``W`` the (m, d, d)
    weights; all three are None after an errors-only evaluation.
    """

    e: np.ndarray
    J_a: np.ndarray | None
    J_b: np.ndarray | None
    idx: np.ndarray
    W: np.ndarray | None = None

    def slots(self):
        """(Jacobian, nodes) per node slot."""
        return zip((self.J_a, self.J_b), self.idx.T)


def _linearize(graph, jacobians=True) -> dict[str, _Factors]:
    """Every factor of the graph, keyed by type in block-row order.

    The types are prior, wnoa, loop, rel and obs.  With ``jacobians=False``
    only the errors are evaluated.
    """
    P, V = graph.poses, graph.varpis
    k = graph.num_nodes - 1
    nodes = np.arange(k + 1)
    chain = np.stack([nodes[:-1], nodes[1:]], axis=-1)
    lc = graph.loop_closures
    loop_idx = np.array([(m.idx_l1, m.idx_l2) for m in lc], dtype=int).reshape(-1, 2)
    loop_xi = np.array([m.xi_meas for m in lc]).reshape(-1, 4, 4)
    dts = np.diff(graph.times)

    terms = {}
    p = graph.prior
    terms["prior"] = _Factors(
        *factors.prior(P[:1], V[:1], p.pose, p.varpi, jacobians), nodes[:1, None]
    )
    terms["wnoa"] = _Factors(
        *factors.wnoa(P[:-1], V[:-1], P[1:], V[1:], dts, jacobians), chain
    )
    terms["loop"] = _Factors(
        *factors.relative_pose(P[loop_idx[:, 0]], P[loop_idx[:, 1]], loop_xi, jacobians),
        loop_idx,
    )
    terms["rel"] = _Factors(
        *factors.relative_pose(P[:-1], P[1:], graph.rel_xi, jacobians), chain
    )
    terms["obs"] = _Factors(
        *factors.observable(P[1:], graph.prior_poses[1:], jacobians), nodes[1:, None]
    )
    if not jacobians:
        return terms

    # Prior-noise Jacobian folded into the weight: R0 = M0 S0 M0^T.
    M0 = np.zeros((12, 12))
    M0[:6, :6] = -lie.right_jacobian_inv(terms["prior"].e[0, :6])
    M0[6:, 6:] = -np.eye(6)
    terms["prior"].W = np.linalg.inv(M0 @ p.cov @ M0.T)[None]
    terms["wnoa"].W = process_weight(V[:-1], graph.psd, dts)
    # Measurement-noise Jacobian folded into the weight: R_l = M R_Xi M^T
    # with M = -Jr_inv, so the sign drops out of the product.
    Jr_inv = lie.right_jacobian_inv(terms["loop"].e)
    cov = np.array([m.cov for m in lc]).reshape(-1, 6, 6)
    terms["loop"].W = np.linalg.inv(Jr_inv @ cov @ np.swapaxes(Jr_inv, -1, -2))
    terms["rel"].W = np.broadcast_to(np.linalg.inv(graph.r_rel), (k, 6, 6))
    terms["obs"].W = np.broadcast_to(np.linalg.inv(graph.r_obs), (k, 3, 3))
    return terms


def _with_loop_weights(terms, robust_weights):
    """The terms with each loop-closure weight scaled by its robust weight."""
    loop = terms["loop"]
    w = np.asarray(robust_weights, dtype=float)[:, None, None]
    return {**terms, "loop": replace(loop, W=loop.W * w)}


def _linearize_robust(graph, config):
    """Linearized terms with robust loop weights applied, and those weights."""
    terms = _linearize(graph)
    e = terms["loop"].e
    if config.robust_cost:
        w = robust_weight(e, config.sigma_phi_out, config.sigma_rho_out)
    else:
        w = np.ones(len(e))
    return _with_loop_weights(terms, w), w


def _quadratic(terms, errors=None):
    """0.5 * e^T W e, with the weights of ``terms`` and the errors of
    ``errors`` (by default those of ``terms``)."""
    errors = terms if errors is None else errors
    return 0.5 * sum(
        np.einsum("ki,kij,kj->", errors[name].e, f.W, errors[name].e)
        for name, f in terms.items()
    )


def _normal_equations(terms, n):
    """Normal equations of the damped Gauss-Newton step, in structured form.

    The chain factors (prior, WNOA, relative pose, observable) produce a
    block-tridiagonal matrix, returned as stacked diagonal blocks ``Hdiag``
    (n, 12, 12) and upper off-diagonal blocks ``Hoff`` (n-1, 12, 12).  Each
    loop closure l contributes a PSD rank-6 term u_l u_l^T, where u_l holds
    ``V[l, 0]`` = H_l1^T L_w in the pose rows of node ``loop_idx[l, 0]`` and
    ``V[l, 1]`` = H_l2^T L_w in those of node ``loop_idx[l, 1]`` (L_w L_w^T
    is the loop weight, robust weight included).  ``V`` is (L, 2, 6, 6), so
    storage is O(n + L).  The right-hand side ``g = Gamma^T W e`` covers all
    factors.
    """
    Hdiag = np.zeros((n, 12, 12))
    Hoff = np.zeros((max(n - 1, 0), 12, 12))
    g = np.zeros((n, 12))
    loop = terms["loop"]
    for f in terms.values():
        if f is loop:
            continue
        # chain factors: the nodes of a slot never repeat, and a pair
        # factor's second node follows its first
        c = f.J_a.shape[-1]
        JtW = [np.swapaxes(J, -1, -2) @ f.W for J, _ in f.slots()]
        for (J, nodes), JtW_s in zip(f.slots(), JtW):
            Hdiag[nodes, :c, :c] += JtW_s @ J
            g[nodes, :c] += (JtW_s @ f.e[..., None])[..., 0]
        if f.J_b is not None:
            Hoff[f.idx[:, 0], :c, :c] += JtW[0] @ f.J_b

    Ht = np.stack([loop.J_a, loop.J_b], axis=1).swapaxes(-1, -2)
    V = Ht @ np.linalg.cholesky(loop.W)[:, None]
    HtWe = (Ht @ (loop.W @ loop.e[..., None])[:, None])[..., 0]
    np.add.at(g[:, :6], loop.idx, HtWe)
    return Hdiag, Hoff, loop.idx, V, g.ravel()


def _to_lower_band(Hdiag, Hoff):
    """Lower-banded storage of a block-tridiagonal matrix."""
    n = Hdiag.shape[0]
    band = np.zeros((24, 12 * n))
    for c in range(12):
        band[: 12 - c, c::12] = Hdiag[:, c:, c].T
        if n > 1:
            band[12 - c : 24 - c, c : 12 * (n - 1) : 12] = Hoff[:, c, :].T
    return band


def _cholesky_banded(Hdiag, Hoff, what):
    try:
        return scipy.linalg.cholesky_banded(
            _to_lower_band(Hdiag, Hoff), lower=True, check_finite=False
        )
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(what, f"{what} not positive definite: {exc}") from exc


def _cho_solve(cb, rhs):
    """Solve with a banded factor; ``rhs`` is (nodes, 12, ...) in node blocks."""
    x = scipy.linalg.cho_solve_banded(
        (cb, True), rhs.reshape(cb.shape[1], -1), check_finite=False
    )
    return x.reshape(rhs.shape)


def _forward_sweep(cb, rhs, what):
    """L^-1 rhs for the lower banded factor L of ``cb``, in node blocks."""
    x, info = scipy.linalg.lapack.dtbtrs(
        cb, rhs.reshape(cb.shape[1], -1), uplo="L", trans="N"
    )
    if info:
        raise NotPositiveDefiniteError(what, f"triangular sweep of {what} failed: info {info}")
    return x.reshape(rhs.shape)


def _diagonal_blocks(cb, nodes):
    """The 12 x 12 diagonal blocks L_kk of the lower banded factor ``cb``."""
    i, j = np.tril_indices(12)
    out = np.zeros((len(nodes), 12, 12))
    out[:, i, j] = cb[i - j, 12 * nodes[:, None] + j]
    return out


def _solve_closure_nodes(Sd, So, pos, V, r_K):
    """Solve (S_K + sum_l u_l u_l^T) d_K = r_K with one sparse factorization.

    The matrix holds S_K's 12 x 12 blocks (``Sd`` diagonal, ``So`` upper) and
    each closure's 6 x 6 pose blocks V[l, s] V[l, t]^T at (pos[l, s], pos[l, t]),
    duplicates summed.  SuperLU factors it under a minimum-degree order and
    takes every nonzero diagonal pivot (threshold 0), the pivots of a Cholesky
    factorization in that order: the matrix is positive definite exactly when
    all pivots are diagonal and positive.
    """
    k, what = np.arange(len(Sd)), "closure-node Schur complement"
    VVt = V[:, :, None] @ np.swapaxes(V, -1, -2)[:, None]
    coo = []
    for b, bi, bj in ((Sd, k, k), (So, k[:-1], k[1:]), (np.swapaxes(So, -1, -2), k[1:], k[:-1]),
                      (VVt, pos[..., None], pos[:, None])):
        i = np.arange(b.shape[-1])
        coo.append(np.broadcast_arrays(b, 12 * bi[..., None, None] + i[:, None],
                                       12 * bj[..., None, None] + i))
    data, rows, cols = (np.concatenate([c[t].ravel() for c in coo]) for t in range(3))
    A = scipy.sparse.csc_matrix((data, (rows, cols)), shape=(12 * len(Sd),) * 2)
    try:
        lu = scipy.sparse.linalg.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                      options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # SuperLU's only error for an exactly singular factor
        raise NotPositiveDefiniteError(what, f"{what} singular: {exc}") from exc
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0)):
        raise NotPositiveDefiniteError(what, f"{what} not positive definite")
    return lu.solve(r_K.ravel()).reshape(r_K.shape)


def update_states(graph: FactorGraph, delta_x) -> FactorGraph:
    """Apply the stacked correction: T <- T exp(-dxi^), varpi <- varpi + dvarpi."""
    delta_x = np.asarray(delta_x, dtype=float)
    n = graph.num_nodes
    if delta_x.shape != (12 * n,):
        raise ValueError("delta_x dimension mismatch")
    d = delta_x.reshape(n, 12)
    out = graph.copy()
    out.poses = graph.poses @ lie.se3_exp(-d[:, :6])
    out.varpis = graph.varpis + d[:, 6:]
    return out


def _solve_normal(Hdiag, Hoff, loop_idx, V, g, lam):
    """Solve (A + sum_l u_l u_l^T) delta = -g on a Schur complement over K.

    A is the damped block-tridiagonal chain matrix and K the sorted closure
    nodes (m <= 2L of them).  Cutting the chain couplings at K leaves the
    interior matrix A_II = L L^T, whose segments between consecutive K nodes
    are decoupled; one banded Cholesky factorizes it.  The Schur complement
    S_K = A_KK - A_KI A_II^-1 A_IK needs A_II^-1 only between a segment's
    first node f and last node l, and A_II^-1 = L^-T L^-1 makes each of those
    blocks a Gram product of columns of L^-1.  One forward-only sweep with 13
    columns, F = L^-1 [r_I | A_If at each segment's first node], gives them
    all: within segment s, F_s^T F_s holds the (f, f) block and the coupling
    of f to A_II^-1 r_I.  L^-1 keeps a column block on the last node l where
    it is, so the (l, l) terms come from R = L_ll^-1 A_lK alone, and the
    (f, l) coupling from F at l and R.  The closure terms touch only rows of
    K, so S_K + sum_l u_l u_l^T is the exact Schur complement onto K: one
    sparse factorization under a minimum-degree order solves it for d_K, and
    one single-RHS banded solve back-substitutes the interior.  The cost is
    O(n) banded work plus sparse work over the closure graph; nothing of
    size n x L is formed.  Raises NotPositiveDefiniteError when A_II or the
    closure-node system is not positive definite, which happens exactly when
    the damped normal matrix is not, or when the solution is not finite.
    """
    Hd = Hdiag + lam * np.eye(12)
    r = -g.reshape(-1, 12)
    N = len(Hd)
    K, pos = np.unique(loop_idx, return_inverse=True)
    pos = pos.reshape(loop_idx.shape)
    m = len(K)

    # interior matrix A_II: identity on K, chain couplings at K cut
    isK = np.ones(N + 2, dtype=bool)  # node k at k + 1; padded at both ends
    isK[1:-1] = False
    isK[K + 1] = True
    Hd_I = Hd.copy()
    Hd_I[K] = np.eye(12)
    Ho_I = np.where((isK[1:-2] | isK[2:-1])[:, None, None], 0.0, Hoff)
    cb = _cholesky_banded(Hd_I, Ho_I, "interior chain matrix")
    if not m:
        delta = _cho_solve(cb, r)
    else:
        # A[k-1, k] = Hp[k] and A[k, k+1] = Hp[k+1], zero past both ends
        Hp = np.concatenate([np.zeros((1, 12, 12)), Hoff, np.zeros((1, 12, 12))])
        prev_c, next_c = Hp[K], Hp[K + 1]
        next_t = np.swapaxes(next_c, -1, -2)
        left = ~isK[K + 2]  # node k+1 is interior, the first node of a segment
        right = ~isK[K]  # node k-1 is interior, the last node of a segment
        first, last = K[left] + 1, K[right] - 1
        r_I = np.where(isK[1:-1, None], 0.0, r)
        rhs = np.zeros((N, 12, 13))
        rhs[:, :, 0] = r_I
        rhs[first, :, 1:] = next_t[left]
        F = _forward_sweep(cb, rhs, "interior chain matrix")

        # F vanishes on K rows, and its columns 1: outside the segments that
        # follow a K node, so the sum from one first node to the next (or to
        # the end) is that segment's Gram product M_s = F_s^T F_s, rows 1:
        P = np.swapaxes(F[:, :, 1:], -1, -2) @ F
        M = np.add.reduceat(P, first, axis=0)
        R = np.zeros((m, 12, 12))
        R[right] = np.linalg.solve(_diagonal_blocks(cb, last), prev_c[right])
        Rt = np.swapaxes(R, -1, -2)
        Sd = Hd[K] - Rt @ R
        Sd[left] -= M[:, :, 1:]
        r_K = r[K].copy()
        r_K[left] -= M[:, :, 0]
        r_K[right] -= (Rt[right] @ F[last, :, :1])[..., 0]
        # between K nodes k < k' with a segment in between, F at k' - 1 holds
        # the columns of k's segment; both factors vanish for adjacent ones
        adjacent = (K[1:] == K[:-1] + 1)[:, None, None]
        F_end = np.swapaxes(F[K[1:] - 1, :, 1:], -1, -2)
        So = np.where(adjacent, next_c[:-1], 0.0) - F_end @ R[1:]
        d_K = _solve_closure_nodes(Sd, So, pos, V, r_K)

        # interior back-substitution: A_II d_I = r_I - A_IK d_K
        r_I[first] -= (next_t[left] @ d_K[left, :, None])[..., 0]
        r_I[last] -= (prev_c[right] @ d_K[right, :, None])[..., 0]
        delta = _cho_solve(cb, r_I)
        delta[K] = d_K
    delta = delta.ravel()
    if not np.all(np.isfinite(delta)):
        raise NotPositiveDefiniteError(
            "normal-equation solution", "non-finite normal-equation solution"
        )
    return delta


def _moved(graph, xy):
    """A copy of the graph with every pose moved by ``xy`` in plane."""
    G = lie.make_pose(np.eye(3), [*xy, 0.0])
    return replace(graph.copy(), poses=G @ graph.poses, prior_poses=G @ graph.prior_poses,
                   prior=replace(graph.prior, pose=G @ graph.prior.pose))


def solve(graph: FactorGraph, config: SolverConfig):
    """Iterate linearize/step/update until the step norm falls below tolerance.

    Weights (process-noise discretization, measurement folds, robust
    loop-closure weights) are refreshed at each iteration's linearization
    point and held fixed while the step is evaluated.  A trial step is
    accepted only if the fixed-weight objective does not increase, or if it
    is an undamped step below the step tolerance; otherwise
    the damping factor escalates by 10x up to the cap, after which the best
    iterate so far is returned with ``converged=False``.  If the normal
    equations stay unsolvable up to the cap, SolverFailureError is raised
    carrying the best iterate and its report.
    """
    graph.validate()
    # relative-pose factors cancel position terms as large as the coordinates:
    # solve near node 0, at a multiple of 1,024 m, so that moving back is exact
    origin = 1024.0 * np.round(graph.poses[0, :2, 3] / 1024.0)
    cur = _moved(graph, -origin)
    lam = config.damping
    iterations = 0
    converged = False
    message = "max iterations reached"
    failure = None
    trace = []
    step_objectives = []
    terms, w_cur = _linearize_robust(cur, config)

    for _ in range(config.max_iterations):
        j_base = _quadratic(terms)
        trace.append(float(j_base))
        normal = _normal_equations(terms, cur.num_nodes)
        accepted = False
        while True:
            try:
                delta = _solve_normal(*normal, lam)
            except NotPositiveDefiniteError:
                delta = None
            if delta is not None:
                trial = update_states(cur, delta)
                j_trial = _quadratic(terms, _linearize(trial, jacobians=False))
                # an undamped step below the tolerance is taken even where the
                # objective's rounding noise (it grows with the distance from
                # the origin) hides its decrease: the iterate is already
                # stationary
                if j_trial <= j_base * (1.0 + 1e-12) + 1e-15 or (
                    lam == 0 and np.max(np.abs(delta)) < config.step_tolerance
                ):
                    accepted = True
                    break
            lam = lam * 10.0 if lam > 0 else 1e-6
            if lam > MAX_DAMPING:
                if delta is None:
                    failure = (
                        "normal equations singular at maximum damping "
                        f"({cur.num_nodes} nodes, "
                        f"{len(cur.loop_closures)} loop closures)"
                    )
                break
        if not accepted:
            message = failure or "damping limit reached without objective decrease"
            break
        step_objectives.append((float(j_base), float(j_trial)))
        cur = trial
        iterations += 1
        lam = lam / 10.0
        if lam < 1e-12:
            lam = 0.0
        terms, w_cur = _linearize_robust(cur, config)
        if np.max(np.abs(delta)) < config.step_tolerance:
            converged = True
            message = "converged"
            break

    j_final = _quadratic(terms)
    trace.append(float(j_final))
    report = SolveReport(
        iterations=iterations,
        converged=converged,
        objective=float(j_final),
        objective_trace=trace,
        loop_weights=w_cur,
        damping_final=lam,
        message=message,
        step_objectives=step_objectives,
    )
    cur = _moved(cur, origin)
    if failure:
        raise SolverFailureError(failure, cur, report)
    return cur, report
