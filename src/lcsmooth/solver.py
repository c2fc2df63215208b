"""Sparse batch Gauss-Newton smoother over the trajectory factor graph.

The graph couples every consecutive node pair with a constant-velocity
process factor, a relative-pose factor captured from the initializing
trajectory, and a roll/pitch/depth factor, plus one prior factor on node 0
and one factor per loop-closure measurement.  Each factor type is evaluated
in one call to its batched function in :mod:`lcsmooth.factors`; the solver
attaches square-root weights, whiteners S of weight S^T S (process noise,
measurement-noise folds, robust weights w as sqrt(w)), and keeps one uniform
record per type, from which the objective 0.5 |S e|^2 and the normal
equations are built; no weight matrix is formed.  Each trial step is
linearized once, and an accepted trial's terms, with its robust weights,
are the next step's.

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

Memory per node and iteration, in doubles: a linearization holds about 540
(errors, Jacobians and whiteners, most of them the 12 x 12 process blocks),
the normal equations 300 (two 12 x 12 blocks and the gradient), and the step
about 470 (the 24-row band of its Cholesky factor, its 13 sweep columns and
the right-hand side).  Each is allocated once and dropped after its last
reader: the normal equations whiten the Jacobians in their places and
leave the errors and whiteners, which the trial objective reads, so the
Jacobians are gone before a trial linearization forms its own; the normal
equations live until the step is accepted, for the retries at higher
damping; the sweep columns are gone before the closure-node factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from . import factors, lie
from .factors import LoopClosureMeasurement, NonFiniteInputError, require_spd
from .wnoa import WnoaPsd, process_weight

# Levenberg-Marquardt damping above which the solver gives up
MAX_DAMPING = 1e8


class NotPositiveDefiniteError(RuntimeError):
    """A damped Gauss-Newton step cannot be computed.

    ``matrix`` names what failed: "interior chain matrix" or "closure-node
    Schur complement" when that matrix is not positive definite (numerically),
    "normal-equation solution" when the step came out non-finite, "measurement
    fold" when a whitener does not exist.  The solver raises the damping.
    """

    def __init__(self, matrix, message):
        super().__init__(message)
        self.matrix = matrix


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
    computed with, which the solver guarantees to be non-increasing.
    ``stop_reason`` says why the iteration ended: "converged",
    "max_iterations", "damping_limit" (no damping up to the cap decreased
    the objective) or "singular" (the normal equations stayed unsolvable up
    to the cap); ``message`` says it in words.
    """

    iterations: int
    converged: bool
    objective: float
    objective_trace: list[float]
    loop_weights: np.ndarray
    damping_final: float
    message: str
    stop_reason: str
    step_objectives: list[tuple[float, float]]


@dataclass
class FactorGraph:
    """Node states plus everything needed to evaluate the five factor types.

    ``rel_xi`` holds the relative-pose measurements captured once from the
    initializing trajectory; ``prior_poses`` is that trajectory itself, used
    by the observable-state factors (which skip node 0) and, at node 0, by
    the prior factor, with the velocity ``prior_varpi`` and the 12 x 12
    covariance ``prior_cov``.
    """

    times: np.ndarray
    poses: np.ndarray
    varpis: np.ndarray
    prior_varpi: np.ndarray
    prior_cov: np.ndarray
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
        if self.prior_cov.shape != (12, 12):
            raise ValueError("prior covariance must be 12x12")
        require_spd(self.prior_cov, "prior covariance")
        require_spd(self.r_rel, "relative-pose covariance")
        require_spd(self.r_obs, "observable covariance")
        for i, m in enumerate(self.loop_closures):
            if m.xi_meas.shape != (4, 4) or m.cov.shape != (6, 6):
                raise ValueError(f"loop closure {i}: relative pose must be 4x4, covariance 6x6")
            if not (np.all(np.isfinite(m.xi_meas)) and np.all(np.isfinite(m.cov))):
                raise NonFiniteInputError(
                    f"loop closure {i}: non-finite relative pose or covariance", i
                )
            if not (0 <= m.idx_l1 < m.idx_l2 < self.num_nodes):
                raise ValueError(f"loop closure {i} references invalid nodes")
            require_spd(m.cov, f"loop closure {i} covariance")
        return self


def build_graph(
    times,
    prior_poses,
    loop_closures,
    psd: WnoaPsd,
    r_rel,
    r_obs,
    prior_cov,
) -> FactorGraph:
    """Assemble the smoothing graph, initialized at the prior trajectory.

    The initial velocities are the forward differences of the prior poses,
    the last one repeated; a single node starts at rest.
    """
    times = np.asarray(times, dtype=float)
    prior_poses = np.asarray(prior_poses, dtype=float)
    rel_xi = lie.between(prior_poses[:-1], prior_poses[1:])
    v = lie.se3_log(rel_xi) / np.diff(times)[:, None]
    varpis = np.vstack([v, v[-1:]]) if len(v) else np.zeros((1, 6))
    graph = FactorGraph(
        times=times,
        poses=prior_poses.copy(),
        varpis=varpis.copy(),
        prior_varpi=varpis[0],
        prior_cov=np.asarray(prior_cov, dtype=float),
        loop_closures=list(loop_closures),
        rel_xi=rel_xi,
        prior_poses=prior_poses.copy(),
        psd=psd,
        r_rel=np.asarray(r_rel, dtype=float),
        r_obs=np.asarray(r_obs, dtype=float),
    )
    return graph.validate()


def robust_weight(error, sigma_phi_out, sigma_rho_out):
    """Redescending weight in [0, 1] from the fixed-covariance Mahalanobis distance.

    Welsch-style form w = 2^(-eps^2), scaled so a unit Mahalanobis distance
    halves the weight.  A quadratic-tail weight (Cauchy 1/(1+eps^2)) leaves a
    constant residual influence per outlier (w * eps^2 saturates), which
    measurably drags the posterior at moderate outlier offsets; the
    exponential tail drives it to zero instead (to exactly 0 past eps^2 ~ 1075).
    """
    error = np.asarray(error, dtype=float)
    eps_sq = (
        np.sum(error[..., :3] ** 2, axis=-1) / sigma_phi_out**2
        + np.sum(error[..., 3:] ** 2, axis=-1) / sigma_rho_out**2
    )
    return np.exp2(-eps_sq)


# ---------------------------------------------------------------------------
# Batched linearization


@dataclass
class _Factors:
    """One factor type over the whole graph, stacked along the first axis.

    ``e`` holds the errors (m, d) and ``idx`` the nodes (m, s), one column
    per node slot: one for unary factors, two for pairwise ones.  ``J_a``
    and ``J_b`` are the (m, d, c) Jacobians of the slots, acting on the
    first c columns of the node's 12-wide block (``J_b`` is None for a unary
    factor, and both are None once the normal equations are formed), and
    ``S`` the (m, d, d) whiteners, the factor's weight being S^T S.
    """

    e: np.ndarray
    J_a: np.ndarray | None
    J_b: np.ndarray | None
    idx: np.ndarray
    S: np.ndarray | None = None

    def slots(self):
        """(Jacobian, nodes) per node slot."""
        return zip((self.J_a, self.J_b), self.idx.T)


def _linearize(graph) -> dict[str, _Factors]:
    """Every factor of the graph, keyed by type in block-row order.

    The types are prior, wnoa, loop, rel and obs.
    """
    P, V = graph.poses, graph.varpis
    k = graph.num_nodes - 1
    nodes = np.arange(k + 1)
    chain = np.stack([nodes[:-1], nodes[1:]], axis=-1)
    lc = graph.loop_closures
    loop_idx = np.array([(m.idx_l1, m.idx_l2) for m in lc], dtype=int).reshape(-1, 2)
    loop_xi = np.array([m.xi_meas for m in lc]).reshape(-1, 4, 4)
    dts = np.diff(graph.times)
    # the process whitener before the Jacobians: its temporaries are gone by
    # the time the Jacobians are formed
    U_wnoa = process_weight(V[:-1], graph.psd, dts)

    terms = {}
    terms["prior"] = _Factors(
        *factors.prior(P[:1], V[:1], graph.prior_poses[0], graph.prior_varpi),
        nodes[:1, None],
    )
    terms["wnoa"] = _Factors(
        *factors.wnoa(P[:-1], V[:-1], P[1:], V[1:], dts), chain, U_wnoa
    )
    terms["loop"] = _Factors(
        *factors.relative_pose(P[loop_idx[:, 0]], P[loop_idx[:, 1]], loop_xi), loop_idx
    )
    terms["rel"] = _Factors(
        *factors.relative_pose(P[:-1], P[1:], graph.rel_xi), chain
    )
    terms["obs"] = _Factors(
        *factors.observable(P[1:], graph.prior_poses[1:]), nodes[1:, None]
    )

    # Noise Jacobians folded into the whiteners of M cov M^T, M's pose block
    # -J_r^-1(e) = -J_l^-1(e) Ad(exp e) taken from the factors' pose blocks:
    # -J Ad(T^-1 Y) for the prior, J_a Ad(Xi) for a loop closure.
    M0 = -np.eye(12)
    T0_inv_Y = lie.between(P[0], graph.prior_poses[0])
    M0[:6, :6] = -terms["prior"].J_a[0, :6, :6] @ lie.adjoint(T0_inv_Y)
    terms["prior"].S = _whitener(M0, graph.prior_cov)[None]
    M = terms["loop"].J_a @ lie.adjoint(loop_xi)
    terms["loop"].S = _whitener(M, np.array([m.cov for m in lc]).reshape(-1, 6, 6))
    terms["rel"].S = np.broadcast_to(_whitener(np.eye(6), graph.r_rel), (k, 6, 6))
    terms["obs"].S = np.broadcast_to(_whitener(np.eye(3), graph.r_obs), (k, 3, 3))
    return terms


def _whitener(M, cov):
    """S = (M C)^-1, C C^T = cov: S^T S = (M cov M^T)^-1, with no squaring of
    the conditioning.  Raises NotPositiveDefiniteError where M C is singular."""
    try:
        return np.linalg.inv(M @ np.linalg.cholesky(cov))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("measurement fold", "measurement fold singular") from exc


def _with_loop_weights(terms, robust_weights):
    """The terms with each loop-closure whitener scaled by the square root of
    its robust weight."""
    sqrt_w = np.sqrt(np.asarray(robust_weights, dtype=float))[:, None, None]
    return {**terms, "loop": replace(terms["loop"], S=terms["loop"].S * sqrt_w)}


def _reweight(terms, config):
    """The linearized terms with robust loop weights from their own loop
    errors applied, and those weights."""
    e = terms["loop"].e
    w = (robust_weight(e, config.sigma_phi_out, config.sigma_rho_out) if config.robust_cost
         else np.ones(len(e)))
    return _with_loop_weights(terms, w), w


def _quadratic(terms, errors=None):
    """0.5 * |S e|^2, with the whiteners of ``terms`` and the errors of
    ``errors`` (by default those of ``terms``)."""
    errors = terms if errors is None else errors
    return 0.5 * sum(
        np.sum((f.S @ errors[name].e[..., None]) ** 2) for name, f in terms.items()
    )


def _normal_equations(terms, n):
    """Normal equations of the damped Gauss-Newton step, in structured form.

    The chain factors (prior, WNOA, relative pose, observable) produce a
    block-tridiagonal matrix, returned as stacked diagonal blocks ``Hdiag``
    (n, 12, 12) and upper off-diagonal blocks ``Hoff`` (n-1, 12, 12).  Each
    loop closure l contributes a PSD rank-6 term u_l u_l^T, where u_l holds
    ``V[l, 0]`` = (S H_l1)^T in the pose rows of node ``loop_idx[l, 0]`` and
    ``V[l, 1]`` = (S H_l2)^T in those of node ``loop_idx[l, 1]`` (S the
    closure's whitener, robust weight included).  ``V`` is (L, 2, 6, 6), so
    storage is O(n + L).  The right-hand side ``g = Gamma^T S^T S e`` covers
    all factors.  Each Jacobian J of ``terms`` is replaced by S J.
    """
    Hdiag = np.zeros((n, 12, 12))
    Hoff = np.zeros((max(n - 1, 0), 12, 12))
    g = np.zeros((n, 12))
    loop = terms["loop"]
    for f in terms.values():
        # whitened Jacobians replace the Jacobians, which are then freed
        f.J_a = f.S @ f.J_a
        if f.J_b is not None:
            f.J_b = f.S @ f.J_b
        if f is loop or not len(f.e):
            continue
        # chain factors: the nodes of a slot are consecutive, so each adds
        # into a slice, and a pair factor's second node follows its first,
        # so the first slot's B^T also gives the coupling block
        Se = f.S @ f.e[..., None]
        c = f.J_a.shape[-1]
        for (B, nodes), B_next in zip(f.slots(), (f.J_b, None)):
            Bt = np.swapaxes(B, -1, -2)
            s = slice(nodes[0], nodes[0] + len(nodes))
            Hdiag[s, :c, :c] += Bt @ B
            g[s, :c] += (Bt @ Se)[..., 0]
            if B_next is not None:
                Hoff[s, :c, :c] += Bt @ B_next

    V = np.stack([loop.J_a, loop.J_b], axis=1).swapaxes(-1, -2)
    np.add.at(g[:, :6], loop.idx, (V @ (loop.S @ loop.e[..., None])[:, None])[..., 0])
    return Hdiag, Hoff, loop.idx, V, g.ravel()


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
    d = np.asarray(delta_x, dtype=float).reshape(graph.num_nodes, 12)
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
    size n x L is formed.  The band of A_II and the 13 columns are each
    allocated once, in the column order LAPACK takes, and factored and swept
    in place; the arguments are left untouched, so a retry at higher damping
    reuses them.  Raises NotPositiveDefiniteError when A_II or the
    closure-node system is not positive definite, which happens exactly when
    the damped normal matrix is not, or when the solution is not finite.
    """
    N = len(Hdiag)
    K, pos = np.unique(loop_idx, return_inverse=True)
    pos = pos.reshape(loop_idx.shape)
    m = len(K)
    what = "interior chain matrix"
    # the right-hand side split in two: r_K on K, r_I zero there
    r_I = -g.reshape(N, 12)
    r_K = r_I[K]
    r_I[K] = 0.0

    # the lower band of the interior matrix A_II, Fortran-ordered so that
    # LAPACK factors it in place: the damped chain matrix, then identity on
    # K and the chain couplings of K to the nodes before and after it cut
    cb = np.zeros((24, 12 * N), order="F")
    for c in range(12):
        cb[: 12 - c, c::12] = Hdiag[:, c:, c].T
        cb[12 - c : 24 - c, c : 12 * (N - 1) : 12] = Hoff[:, c, :].T
    cb[0] += lam
    columns = 12 * K[:, None] + np.arange(12)
    cb[:, columns] = 0.0
    cb[0, columns] = 1.0
    for c in range(12):
        cb[12 - c :, 12 * K[K > 0] - 12 + c] = 0.0
    try:
        cb = scipy.linalg.cholesky_banded(cb, overwrite_ab=True, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(what, f"{what} not positive definite: {exc}") from exc
    if m:
        isK = np.ones(N + 2, dtype=bool)  # node k at k + 1; padded at both ends
        isK[1:-1] = False
        isK[K + 1] = True
        # A[k-1, k] and A[k, k+1], zero past both ends
        prev_c, next_c = np.zeros((2, m, 12, 12))
        prev_c[K > 0] = Hoff[K[K > 0] - 1]
        next_c[K < N - 1] = Hoff[K[K < N - 1]]
        next_t = np.swapaxes(next_c, -1, -2)
        left = ~isK[K + 2]  # node k+1 is interior, the first node of a segment
        right = ~isK[K]  # node k-1 is interior, the last node of a segment
        first, last = K[left] + 1, K[right] - 1
        # the 13 right-hand-side columns, Fortran-ordered so that the sweep
        # runs in place
        F = np.zeros((12 * N, 13), order="F")
        F[:, 0] = r_I.ravel()
        F.reshape(N, 12, 13)[first, :, 1:] = next_t[left]
        F, info = scipy.linalg.lapack.dtbtrs(cb, F, uplo="L", trans="N", overwrite_b=1)
        if info:
            raise NotPositiveDefiniteError(what, f"triangular sweep of {what} failed: info {info}")
        F = F.reshape(N, 12, 13)

        # F vanishes on K rows, and its columns 1: outside the segments that
        # follow a K node, so the sum from one first node to the next (or to
        # the end) is that segment's Gram product M_s = F_s^T F_s, rows 1:
        M = np.add.reduceat(np.swapaxes(F[:, :, 1:], -1, -2) @ F, first, axis=0)
        R = np.zeros((m, 12, 12))
        R[right] = np.linalg.solve(_diagonal_blocks(cb, last), prev_c[right])
        Rt = np.swapaxes(R, -1, -2)
        Sd = Hdiag[K] + lam * np.eye(12) - Rt @ R
        Sd[left] -= M[:, :, 1:]
        r_K[left] -= M[:, :, 0]
        r_K[right] -= (Rt[right] @ F[last, :, :1])[..., 0]
        # between K nodes k < k' with a segment in between, F at k' - 1 holds
        # the columns of k's segment; both factors vanish for adjacent ones
        adjacent = (K[1:] == K[:-1] + 1)[:, None, None]
        F_end = np.swapaxes(F[K[1:] - 1, :, 1:], -1, -2)
        del F
        So = np.where(adjacent, next_c[:-1], 0.0) - F_end @ R[1:]
        d_K = _solve_closure_nodes(Sd, So, pos, V, r_K)

        # A_II d_I = r_I - A_IK d_K; A_II is the identity on K, so the
        # back-substitution carries d_K through exactly
        r_I[first] -= (next_t[left] @ d_K[left, :, None])[..., 0]
        r_I[last] -= (prev_c[right] @ d_K[right, :, None])[..., 0]
        r_I[K] = d_K
    delta = scipy.linalg.cho_solve_banded(
        (cb, True), r_I.reshape(-1, 1), overwrite_b=True, check_finite=False
    ).ravel()
    if not np.all(np.isfinite(delta)):
        raise NotPositiveDefiniteError(
            "normal-equation solution", "non-finite normal-equation solution"
        )
    return delta


def solve(graph: FactorGraph, config: SolverConfig):
    """Iterate linearize/step/update until the step norm falls below tolerance.

    Weights (process-noise discretization, measurement folds, robust
    loop-closure weights) are refreshed at each iteration's linearization
    point and held fixed while the step is evaluated.  A trial step is
    accepted only if the fixed-weight objective does not increase; otherwise
    the damping factor escalates by 10x up to the cap, after which the best
    iterate so far is returned with ``converged=False`` and ``stop_reason``
    "damping_limit", or "singular" if the step stayed uncomputable up to the
    cap (or a whitener does not exist at the input: NaN objective and weights).
    """
    cur = graph.validate()
    lam = config.damping
    iterations = 0
    stop, message = "max_iterations", "max iterations reached"
    trace = []
    step_objectives = []
    try:
        terms, w_cur = _reweight(_linearize(cur), config)
    except NotPositiveDefiniteError as exc:
        nan = np.full(len(cur.loop_closures), np.nan)
        return cur, SolveReport(
            iterations=0, converged=False, objective=np.nan, objective_trace=[], loop_weights=nan,
            damping_final=lam, message=str(exc), stop_reason="singular", step_objectives=[])

    for _ in range(config.max_iterations):
        j_base = _quadratic(terms)
        trace.append(float(j_base))
        normal = _normal_equations(terms, cur.num_nodes)
        # the trials read only the errors and weights: the Jacobians go
        # before a trial linearization forms its own
        terms = {name: replace(f, J_a=None, J_b=None) for name, f in terms.items()}
        accepted = False
        while True:
            try:
                delta = _solve_normal(*normal, lam)
                trial = update_states(cur, delta)
                trial_terms = _linearize(trial)
            except NotPositiveDefiniteError:
                delta = None
            else:
                j_trial = _quadratic(terms, trial_terms)
                if j_trial <= j_base * (1.0 + 1e-12) + 1e-15:
                    accepted = True
                    break
                del trial_terms
            lam = lam * 10.0 if lam > 0 else 1e-6
            if lam > MAX_DAMPING:
                break
        if not accepted:
            if delta is None:
                stop, message = "singular", (
                    "normal equations singular at maximum damping "
                    f"({cur.num_nodes} nodes, {len(cur.loop_closures)} loop closures)")
            else:
                stop, message = "damping_limit", "damping limit reached without objective decrease"
            break
        step_objectives.append((float(j_base), float(j_trial)))
        cur = trial
        iterations += 1
        lam = 0.0 if lam / 10.0 < 1e-12 else lam / 10.0
        terms, w_cur = _reweight(trial_terms, config)
        del trial_terms, normal  # the next step forms its own
        if np.max(np.abs(delta)) < config.step_tolerance:
            stop = message = "converged"
            break

    j_final = _quadratic(terms)
    trace.append(float(j_final))
    return cur, SolveReport(
        iterations=iterations, converged=stop == "converged", objective=float(j_final),
        objective_trace=trace, loop_weights=w_cur, damping_final=lam, message=message,
        stop_reason=stop, step_objectives=step_objectives)
