"""Numerical study of trace-covariance rank.

For point targets whose differential delays are nearly affine in slow
time, delta_tau_j(s) = beta_j + alpha_j s, the slow-time covariance of
the traces is a sum over target pairs of a smooth kernel in
alpha_j s_a - alpha_k s_b.  Same-target pairs give a Toeplitz matrix;
a pair with alpha_2 / alpha_1 = -g for a positive integer g adds a
g-slanted Hankel part and its transpose.  The Szego distribution of
the Toeplitz symbol predicts the numeric rank fraction, which these
routines compare against ranks computed from the covariance itself.

A symmetric Toeplitz covariance is also persymmetric, so its eigenvalues
are those of two blocks of half its order (Cantoni and Butler,
"Eigenvalues and eigenvectors of symmetric centrosymmetric matrices",
Linear Algebra Appl. 13, 1976); ``numeric_rank`` solves those blocks
whenever its matrix is exactly symmetric and persymmetric.
"""

from __future__ import annotations

import warnings

import numpy as np

from .geom import (
    C_LIGHT,
    Aperture,
    LinearTrajectory,
    Trajectory,
    make_frame,
    travel_time,
)
from .scene import Radar, SceneSpec, Target, simulate
from .signal import TraceMatrix

__all__ = [
    "default_rank_frame",
    "alpha_of",
    "beta_of",
    "covariance",
    "theoretical_covariance",
    "toeplitz_sequence",
    "hankel_sequence",
    "build_structured",
    "symbol",
    "numeric_rank",
    "szego_fraction",
    "szego_saturation_speed",
    "bandwidth_beta_product",
    "rank_study",
]


def default_rank_frame() -> tuple[LinearTrajectory, np.ndarray, Aperture]:
    """Flat broadside geometry used by the rank studies.

    A straight track passing (1e4, 0, 0) in the y direction at 70 m/s,
    imaged toward the origin, with the standard 117-pulse aperture.
    The look direction is horizontal, so delay curvature common to the
    target and the reference cancels and the affine delay model is
    accurate over the full aperture.
    """
    traj = LinearTrajectory(
        center=np.array([1.0e4, 0.0, 0.0]),
        tangent=np.array([0.0, 1.0, 0.0]),
        speed=70.0,
    )
    return traj, np.zeros(3), Aperture(n=116, ds=0.015)


def alpha_of(traj: Trajectory, rho_o, target: Target, linearize: bool = False) -> float:
    """Slow-time slope of the target's differential delay at s = 0.

    The exact form differentiates 2(|r(s) - rho - s u| - |r(s) -
    rho_o|)/c.  With ``linearize`` the first-order frame expansion is
    used instead: (2/c)(-u.m - V t.P (rho-rho_o)/L + u.P (rho-rho_o)/L),
    whose target ratios are exact rationals (used by the structured
    Toeplitz-plus-Hankel construction).
    """
    rho_o = np.asarray(rho_o, dtype=float)
    frame = make_frame(traj, rho_o)
    u_vec = target.velocity
    if linearize:
        delta = target.rho - rho_o
        proj = frame.projector @ delta
        return float(
            (2.0 / C_LIGHT)
            * (
                -u_vec @ frame.m_hat
                - frame.speed * (frame.t_hat @ proj) / frame.range_L
                + (u_vec @ proj) / frame.range_L
            )
        )
    look = traj.position(0.0) - target.rho
    m_rho = look / np.linalg.norm(look)
    vel = frame.speed * frame.t_hat
    return float((2.0 / C_LIGHT) * ((vel - u_vec) @ m_rho - vel @ frame.m_hat))


def beta_of(traj: Trajectory, rho_o, target: Target) -> float:
    """Differential delay of the target at s = 0 (the model intercept).

    Equals (2/c)(|r(0) - rho| - L); to second order in the offset this
    is (2/c)(-m.(rho-rho_o) + |P (rho-rho_o)|^2 / (2 L)).
    """
    return float(
        travel_time(traj, 0.0, target.rho) - travel_time(traj, 0.0, np.asarray(rho_o))
    )


def covariance(trace: TraceMatrix) -> np.ndarray:
    """Empirical slow-time covariance: the Gram matrix of the rows."""
    rows = trace.valid_data
    return rows @ rows.T


def _pair_kernel(radar: Radar, amp: float, psi) -> np.ndarray:
    """Echo-pair kernel amp coef cos(w0 psi) exp(-B^2 psi^2 / 4) at delay
    differences ``psi``, with coef = sqrt(pi) / (2 B dt) and ``amp`` the
    product of the two echoes' amplitudes."""
    coef = np.sqrt(np.pi) / (2.0 * radar.bandwidth * radar.dt)
    return (
        amp
        * coef
        * np.cos(radar.omega0 * psi)
        * np.exp(-0.25 * (radar.bandwidth * psi) ** 2)
    )


def theoretical_covariance(
    traj: Trajectory,
    rho_o,
    aperture: Aperture,
    radar: Radar,
    targets,
    linearize: bool = False,
) -> np.ndarray:
    """Model covariance from affine delays and the pulse self-kernel.

    Entry (a, b) sums over ordered target pairs (j, k) the pair kernel
    of amplitude a_j a_k at psi = alpha_j s_a - alpha_k s_b + (beta_j -
    beta_k), the delay difference between the two echoes.  The
    same-target pairs have psi = alpha_j (a - b) ds, which depends on
    a - b alone: their sum is the Toeplitz matrix of
    ``toeplitz_sequence``, built from one kernel value per lag.  The
    kernel is even in psi, so the pair (k, j) is the transpose of the
    pair (j, k): each unordered cross-target pair takes one kernel value
    per entry and adds its transpose, and the sum is exactly symmetric.
    """
    s = aperture.times
    alphas = [alpha_of(traj, rho_o, t, linearize) for t in targets]
    betas = [beta_of(traj, rho_o, t) for t in targets]
    amps = [t.amplitude for t in targets]
    y = toeplitz_sequence(alphas, amps, s.size, aperture.ds, radar)
    out = _toeplitz(y)
    for j in range(len(alphas)):
        for k in range(j + 1, len(alphas)):
            psi = alphas[j] * s[:, None] - alphas[k] * s[None, :]
            psi += betas[j] - betas[k]
            cross = _pair_kernel(radar, amps[j] * amps[k], psi)
            out += cross + cross.T
    return out


def _toeplitz(y: np.ndarray) -> np.ndarray:
    """Symmetric Toeplitz matrix T[a, b] = y[|a - b|], as a new array.

    Row a of T is the mirrored sequence y_{n-1} .. y_1 y_0 y_1 .. y_{n-1}
    read backwards from its entry n - 1 + a, so every row is one
    reversed window of it.
    """
    mirrored = np.concatenate((y[:0:-1], y))
    windows = np.lib.stride_tricks.sliding_window_view(mirrored, y.size)
    return windows[:, ::-1].copy()


def toeplitz_sequence(
    alphas, amps, count: int, ds: float, radar: Radar
) -> np.ndarray:
    """First row y_0 .. y_{count-1} of the same-target Toeplitz part."""
    j = np.arange(count)
    out = np.zeros(count)
    for alpha, amp in zip(alphas, amps):
        out += _pair_kernel(radar, amp**2, alpha * ds * j)
    return out


def hankel_sequence(
    alpha_1: float,
    alpha_2: float,
    beta_12: float,
    amp_prod: float,
    aperture: Aperture,
    radar: Radar,
) -> tuple[np.ndarray, int, float]:
    """Cross-pair sequence h and slant g with H[a, b] = h[a + g b].

    Requires alpha_2 = -g alpha_1 for a positive integer g; then the
    cross kernel depends on slow-time indices only through a + g b.
    Returns (h, g, zeta) where zeta is the fractional index offset
    collecting the intercept and grid-origin terms.
    """
    if alpha_1 == 0.0 or alpha_2 == 0.0 or alpha_2 / alpha_1 >= 0.0:
        raise ValueError("slant requires nonzero alphas of opposite sign")
    ratio = -alpha_2 / alpha_1
    g = int(round(ratio))
    if g < 1 or abs(ratio - g) > 1.0e-9 * (1.0 + g):
        raise ValueError(
            f"alpha ratio {-ratio:.6g} is not a negative integer; "
            "no slanted-Hankel structure"
        )
    n = aperture.n
    ds = aperture.ds
    s0 = -(n // 2) * ds
    offset = (alpha_1 - alpha_2) * s0 + beta_12
    j = np.arange(n * (1 + g) + 1)
    h = _pair_kernel(radar, amp_prod, alpha_1 * ds * j + offset)
    zeta = offset / (alpha_1 * ds)
    return h, g, zeta


def build_structured(
    traj: Trajectory,
    rho_o,
    aperture: Aperture,
    radar: Radar,
    target_1: Target,
    target_2: Target,
) -> dict:
    """Toeplitz + slanted-Hankel decomposition for a two-target scene.

    Uses the linearized slopes, for which the integer slant is exact,
    and returns the parts along with their sum; the sum reproduces
    ``theoretical_covariance(..., linearize=True)`` to roundoff.
    """
    alpha_1 = alpha_of(traj, rho_o, target_1, linearize=True)
    alpha_2 = alpha_of(traj, rho_o, target_2, linearize=True)
    beta_12 = beta_of(traj, rho_o, target_1) - beta_of(traj, rho_o, target_2)
    count = aperture.n + 1
    y = toeplitz_sequence(
        [alpha_1, alpha_2],
        [target_1.amplitude, target_2.amplitude],
        count,
        aperture.ds,
        radar,
    )
    toeplitz = _toeplitz(y)
    h, g, zeta = hankel_sequence(
        alpha_1,
        alpha_2,
        beta_12,
        target_1.amplitude * target_2.amplitude,
        aperture,
        radar,
    )
    a = np.arange(count)
    hankel = h[a[:, None] + g * a[None, :]]
    return {
        "toeplitz": toeplitz,
        "hankel": hankel,
        "total": toeplitz + (hankel + hankel.T),
        "y": y,
        "h": h,
        "g": g,
        "zeta": zeta,
        "alpha": (alpha_1, alpha_2),
        "beta_12": beta_12,
    }


def symbol(
    alphas,
    amps,
    ds: float,
    radar: Radar,
    j_max: int = 65536,
) -> tuple[np.ndarray, np.ndarray]:
    """Toeplitz symbol y(theta) = y_0 + 2 sum_j y_j cos(j theta).

    Sampled at 4096 angles theta on [-pi, pi).  The sequence is
    truncated once |y_j| falls below 1e-12 times |y_0|; a warning is
    raised if that never happens before ``j_max`` terms (the symbol is
    then slightly truncated).
    """
    block = 1024
    seq = toeplitz_sequence(alphas, amps, block, ds, radar)
    floor = 1.0e-12 * abs(seq[0])
    while np.abs(seq[-block:]).max() > floor and seq.size < j_max:
        grown = toeplitz_sequence(alphas, amps, min(2 * seq.size, j_max), ds, radar)
        block, seq = seq.size, grown
    tail = np.nonzero(np.abs(seq) > floor)[0]
    if tail.size and tail[-1] == seq.size - 1 and seq.size >= j_max:
        warnings.warn(
            "symbol sequence did not decay below tolerance; truncating",
            RuntimeWarning,
            stacklevel=2,
        )
    else:
        seq = seq[: tail[-1] + 1] if tail.size else seq[:1]
    theta = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
    j = np.arange(1, seq.size)
    values = seq[0] + 2.0 * (seq[1:][None, :] * np.cos(theta[:, None] * j)).sum(axis=1)
    return theta, values


def _check_epsilon(epsilon: float) -> None:
    """Raise ``ValueError`` unless 0 < epsilon < 1, the only range in
    which a floor relative to the largest eigenvalue means anything."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")


def _eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix.

    When the matrix is also exactly persymmetric (J T J = T, with J the
    exchange matrix), as every symmetric Toeplitz matrix is, it is
    orthogonally similar to two blocks of half its order (Cantoni and
    Butler 1976).  With h = n // 2, A = T[:h, :h] and F = T[:h, n-h:] J,
    the odd block is A - F; the even block is A + F, bordered for odd n
    by sqrt(2) T[:h, h] and T[h, h].  Any other matrix takes one full
    ``eigvalsh``.
    """
    if not (
        np.array_equal(matrix, matrix.T)
        and np.array_equal(matrix, matrix[::-1, ::-1])
    ):
        return np.linalg.eigvalsh(matrix)
    n = matrix.shape[0]
    h = n // 2
    a = matrix[:h, :h]
    f = matrix[:h, n - h :][:, ::-1]
    even = a + f
    if n % 2:
        border = np.sqrt(2.0) * matrix[:h, h : h + 1]
        even = np.block([[even, border], [border.T, matrix[h : h + 1, h : h + 1]]])
    halves = (np.linalg.eigvalsh(even), np.linalg.eigvalsh(a - f))
    return np.sort(np.concatenate(halves))


def numeric_rank(matrix: np.ndarray, epsilon: float = 0.01) -> int:
    """Count of eigenvalues above epsilon times the largest.

    ``matrix`` must be a finite, non-empty, square 2-D array and is
    read as symmetric.  A matrix that is also exactly persymmetric,
    such as the Toeplitz covariance of one target, is solved as two
    half-order blocks (Cantoni and Butler 1976), a quarter of the
    flops of one full solve, with the same eigenvalues to roundoff.
    Raises ``ValueError`` unless 0 < epsilon < 1.
    """
    _check_epsilon(epsilon)
    matrix = np.asarray(matrix)
    if (
        matrix.ndim != 2
        or matrix.shape[0] != matrix.shape[1]
        or matrix.size == 0
        or not np.all(np.isfinite(matrix))
    ):
        raise ValueError(
            "matrix must be a finite, non-empty, square 2-D array, "
            f"got shape {matrix.shape}"
        )
    eigs = _eigenvalues(matrix)
    top = float(eigs[-1])
    if top <= 0.0:
        return 0
    return int(np.sum(eigs > epsilon * top))


def szego_fraction(alphas, radar: Radar, ds: float, epsilon: float = 0.01) -> float:
    """Predicted numeric-rank fraction from the symbol's support.

    Each slope contributes min(2 |alpha| B ds sqrt(ln 1/eps) / pi, 1);
    contributions add until the spectrum saturates at full rank.
    Raises ``ValueError`` unless 0 < epsilon < 1.
    """
    _check_epsilon(epsilon)
    root = np.sqrt(np.log(1.0 / epsilon))
    total = 0.0
    for alpha in np.atleast_1d(np.asarray(alphas, dtype=float)):
        total += min(2.0 * abs(alpha) * radar.bandwidth * ds * root / np.pi, 1.0)
    return min(total, 1.0)


def szego_saturation_speed(radar: Radar, ds: float, epsilon: float = 0.01) -> float:
    """Range speed at which a single mover saturates the rank fraction.

    Raises ``ValueError`` unless 0 < epsilon < 1.
    """
    _check_epsilon(epsilon)
    root = np.sqrt(np.log(1.0 / epsilon))
    return np.pi * C_LIGHT / (4.0 * radar.bandwidth * ds * root)


def bandwidth_beta_product(
    traj: Trajectory, rho_o, radar: Radar, target_1: Target, target_2: Target
) -> float:
    """Dimensionless B |beta_1 - beta_2| deciding Hankel significance.

    The cross-pair kernel carries exp(-B^2 beta^2 / 4); when this
    product is large the Hankel part is negligible and the covariance
    rank is set by the Toeplitz part alone.
    """
    beta_12 = beta_of(traj, rho_o, target_1) - beta_of(traj, rho_o, target_2)
    return float(radar.bandwidth * abs(beta_12))


def _study_targets(mode: str, value: float, frame, first_target, second_x):
    if mode == "single-stationary":
        rho = frame.rho_o + value * frame.cross_dir
        return [Target(rho=rho)]
    if mode == "single-mover":
        return [Target(rho=frame.rho_o, velocity=value * frame.range_dir)]
    if mode == "two-target":
        return [
            Target(rho=np.asarray(first_target, dtype=float)),
            Target(rho=np.array([second_x, value, 0.0])),
        ]
    raise ValueError(f"unknown rank-study mode: {mode!r}")


def rank_study(
    mode: str,
    sweep,
    epsilon: float = 0.01,
    empirical: bool = False,
    first_target=(5.0, 5.0, 0.0),
    second_x: float = -5.0,
) -> list[dict]:
    """Sweep a scene parameter and tabulate covariance ranks.

    The scene sits in ``default_rank_frame`` and is seen by the default
    ``Radar``.  Modes: ``single-stationary`` sweeps a cross-range offset,
    ``single-mover`` a range speed, ``two-target`` the second target's
    cross-range position.  Each row reports the rank computed from the
    covariance (model by default, simulated echoes with ``empirical``)
    next to the Szego estimate.  Raises ``ValueError`` unless
    0 < epsilon < 1.
    """
    _check_epsilon(epsilon)
    traj, rho_o, aperture = default_rank_frame()
    radar = Radar()
    frame = make_frame(traj, rho_o)
    rows = []
    for value in np.atleast_1d(np.asarray(sweep, dtype=float)):
        targets = _study_targets(mode, float(value), frame, first_target, second_x)
        if empirical:
            scene = SceneSpec(
                traj=traj,
                rho_o=rho_o,
                aperture=aperture,
                radar=radar,
                targets=tuple(targets),
            )
            matrix = covariance(simulate(scene))
        else:
            matrix = theoretical_covariance(traj, rho_o, aperture, radar, targets)
        alphas = [alpha_of(traj, rho_o, t) for t in targets]
        rank = numeric_rank(matrix, epsilon)
        fraction = szego_fraction(alphas, radar, aperture.ds, epsilon)
        rows.append(
            {
                "parameter": float(value),
                "computed_rank": rank,
                "estimated_rank": int(round(fraction * (aperture.n + 1))),
                "n": aperture.n,
                "epsilon": epsilon,
            }
        )
    return rows
