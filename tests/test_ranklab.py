"""Covariance rank structure: Toeplitz, slanted Hankel, symbol bounds."""

import numpy as np
import pytest

from sarsep import ranklab
from sarsep.geom import Aperture, C_LIGHT, make_frame
from sarsep.ranklab import (
    alpha_of,
    bandwidth_beta_product,
    beta_of,
    build_structured,
    covariance,
    default_rank_frame,
    hankel_sequence,
    numeric_rank,
    rank_study,
    symbol,
    szego_fraction,
    szego_saturation_speed,
    theoretical_covariance,
    toeplitz_sequence,
)
from sarsep.scene import Radar, SceneSpec, Target, simulate

TRAJ, RHO_O, APERTURE = default_rank_frame()
RADAR = Radar()


class TestSlopesAndIntercepts:
    def test_target_at_the_reference_has_zero_slope(self):
        target = Target(rho=RHO_O)
        assert alpha_of(TRAJ, RHO_O, target) == 0.0
        assert alpha_of(TRAJ, RHO_O, target, linearize=True) == 0.0
        assert beta_of(TRAJ, RHO_O, target) == 0.0

    def test_pure_range_mover_slope_is_minus_two_u_over_c(self):
        frame = make_frame(TRAJ, RHO_O)
        for u in (0.5, 1.0, -3.0):
            target = Target(rho=RHO_O, velocity=u * frame.range_dir)
            expected = -2.0 * u / C_LIGHT
            assert alpha_of(TRAJ, RHO_O, target) == pytest.approx(
                expected, rel=1e-12
            )
            assert alpha_of(TRAJ, RHO_O, target, linearize=True) == pytest.approx(
                expected, rel=1e-12
            )

    def test_linearized_slope_tracks_the_exact_one(self):
        frame = make_frame(TRAJ, RHO_O)
        target = Target(rho=RHO_O + 2.5 * frame.cross_dir)
        exact = alpha_of(TRAJ, RHO_O, target)
        linear = alpha_of(TRAJ, RHO_O, target, linearize=True)
        assert exact != 0.0
        assert linear == pytest.approx(exact, rel=1e-3)

    def test_intercept_is_second_order_in_a_cross_offset(self):
        frame = make_frame(TRAJ, RHO_O)
        offset = 2.5
        target = Target(rho=RHO_O + offset * frame.cross_dir)
        expected = (2.0 / C_LIGHT) * offset**2 / (2.0 * frame.range_L)
        assert beta_of(TRAJ, RHO_O, target) == pytest.approx(expected, rel=1e-4)


class TestCovariance:
    @staticmethod
    def offset_target():
        frame = make_frame(TRAJ, RHO_O)
        return Target(rho=RHO_O + 2.5 * frame.cross_dir)

    def test_empirical_covariance_is_the_row_gram_matrix(self):
        target = self.offset_target()
        scene = SceneSpec(
            traj=TRAJ, rho_o=RHO_O, aperture=Aperture(n=16, ds=0.015),
            radar=RADAR, targets=(target,),
        )
        trace = simulate(scene)
        mat = covariance(trace)
        np.testing.assert_allclose(mat, trace.valid_data @ trace.valid_data.T)
        np.testing.assert_allclose(mat, mat.T)

    def test_model_covariance_matches_simulated_echoes(self):
        target = self.offset_target()
        scene = SceneSpec(
            traj=TRAJ, rho_o=RHO_O, aperture=APERTURE, radar=RADAR,
            targets=(target,),
        )
        emp = covariance(simulate(scene))
        model = theoretical_covariance(TRAJ, RHO_O, APERTURE, RADAR, [target])
        rel = np.linalg.norm(emp - model) / np.linalg.norm(model)
        assert rel <= 0.10

    def test_model_covariance_is_positive_semidefinite(self):
        frame = make_frame(TRAJ, RHO_O)
        targets = [
            Target(rho=RHO_O + 2.0 * frame.cross_dir),
            Target(rho=RHO_O, velocity=1.0 * frame.range_dir),
        ]
        mat = theoretical_covariance(TRAJ, RHO_O, APERTURE, RADAR, targets)
        eigs = np.linalg.eigvalsh(mat)
        assert eigs[0] >= -1e-10 * eigs[-1]

    @staticmethod
    def direct(aperture, targets, linearize=False):
        """The model covariance by a double loop over ordered target
        pairs, each evaluating the echo-pair kernel at every entry."""
        s = aperture.times
        coef = np.sqrt(np.pi) / (2.0 * RADAR.bandwidth * RADAR.dt)
        out = np.zeros((s.size, s.size))
        for tj in targets:
            for tk in targets:
                alpha_j = alpha_of(TRAJ, RHO_O, tj, linearize)
                alpha_k = alpha_of(TRAJ, RHO_O, tk, linearize)
                beta = beta_of(TRAJ, RHO_O, tj) - beta_of(TRAJ, RHO_O, tk)
                psi = alpha_j * s[:, None] - alpha_k * s[None, :] + beta
                out += (
                    tj.amplitude
                    * tk.amplitude
                    * coef
                    * np.cos(RADAR.omega0 * psi)
                    * np.exp(-0.25 * (RADAR.bandwidth * psi) ** 2)
                )
        return out

    def test_single_mover_at_n_1024_matches_the_direct_sum(self):
        frame = make_frame(TRAJ, RHO_O)
        wide = Aperture(n=1024, ds=APERTURE.ds)
        targets = [Target(rho=RHO_O, velocity=3.0 * frame.range_dir, amplitude=0.8)]
        mat = theoretical_covariance(TRAJ, RHO_O, wide, RADAR, targets)
        expected = self.direct(wide, targets)
        assert np.abs(mat - expected).max() <= 1e-10 * np.abs(expected).max()

    @pytest.mark.parametrize("linearize", [False, True])
    def test_two_target_scene_matches_the_direct_sum(self, linearize):
        # B |beta_1 - beta_2| is about 1.25, so the cross pairs matter.
        targets = [
            Target(rho=np.array([0.15, -2.0, 0.0])),
            Target(
                rho=np.array([-0.15, 4.0, 0.0]), velocity=(0.5, 0.0, 0.0), amplitude=0.7
            ),
        ]
        mat = theoretical_covariance(
            TRAJ, RHO_O, APERTURE, RADAR, targets, linearize=linearize
        )
        expected = self.direct(APERTURE, targets, linearize)
        cross = expected - sum(self.direct(APERTURE, [t], linearize) for t in targets)
        assert np.abs(cross).max() >= 0.1 * np.abs(expected).max()
        assert np.abs(mat - expected).max() <= 1e-10 * np.abs(expected).max()

    @pytest.mark.parametrize("linearize", [False, True])
    def test_two_target_model_is_exactly_symmetric(self, linearize):
        # The ordered pairs (j, k) and (k, j), evaluated and summed on
        # their own, left max |M - M.T| at 2.4e-16 of the peak here.
        targets = [
            Target(rho=np.array([0.15, -2.0, 0.0])),
            Target(rho=np.array([-0.15, 4.0, 0.0])),
        ]
        mat = theoretical_covariance(
            TRAJ, RHO_O, APERTURE, RADAR, targets, linearize=linearize
        )
        assert np.array_equal(mat, mat.T)
        expected = self.direct(APERTURE, targets, linearize)
        assert np.abs(mat - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_single_target_model_is_exactly_toeplitz(self):
        frame = make_frame(TRAJ, RHO_O)
        target = Target(rho=RHO_O, velocity=1.5 * frame.range_dir, amplitude=0.8)
        mat = theoretical_covariance(TRAJ, RHO_O, APERTURE, RADAR, [target])
        count = APERTURE.n + 1
        seq = toeplitz_sequence(
            [alpha_of(TRAJ, RHO_O, target)], [0.8], count, APERTURE.ds, RADAR
        )
        idx = np.abs(np.arange(count)[:, None] - np.arange(count)[None, :])
        np.testing.assert_allclose(mat, seq[idx], rtol=1e-10, atol=1e-12)


class TestSlantedHankel:
    def test_same_sign_slopes_are_rejected(self):
        with pytest.raises(ValueError, match="opposite sign"):
            hankel_sequence(1.0e-9, 2.0e-9, 0.0, 1.0, APERTURE, RADAR)
        with pytest.raises(ValueError, match="opposite sign"):
            hankel_sequence(0.0, -1.0e-9, 0.0, 1.0, APERTURE, RADAR)

    def test_non_integer_ratio_is_rejected(self):
        with pytest.raises(ValueError, match="not a negative integer"):
            hankel_sequence(1.0e-9, -2.5e-9, 0.0, 1.0, APERTURE, RADAR)

    def test_slant_detection(self):
        h, g, zeta = hankel_sequence(1.0e-9, -3.0e-9, 0.0, 1.0, APERTURE, RADAR)
        assert g == 3
        assert h.shape == (APERTURE.n * 4 + 1,)
        assert np.isfinite(zeta)

    def test_unit_slant_gives_a_classical_hankel(self):
        # Mirrored cross-range offsets have linearized slopes in the
        # exact ratio -1, so the cross block is constant on
        # anti-diagonals.
        t1 = Target(rho=np.array([0.1, -3.0, 0.0]))
        t2 = Target(rho=np.array([-0.1, 3.0, 0.0]))
        parts = build_structured(TRAJ, RHO_O, APERTURE, RADAR, t1, t2)
        assert parts["g"] == 1
        hankel = parts["hankel"]
        for k in (5, 40, 117):
            a = np.arange(max(0, k - APERTURE.n), min(k, APERTURE.n) + 1)
            np.testing.assert_allclose(hankel[a, k - a], hankel[a[0], k - a[0]])

    def test_structured_parts_reproduce_the_linearized_model(self):
        t1 = Target(rho=np.array([0.15, -2.0, 0.0]))
        t2 = Target(rho=np.array([-0.15, 4.0, 0.0]))
        parts = build_structured(TRAJ, RHO_O, APERTURE, RADAR, t1, t2)
        assert parts["g"] == 2
        assert RADAR.bandwidth * abs(parts["beta_12"]) == pytest.approx(
            1.2474, abs=1e-3
        )
        assert parts["zeta"] == pytest.approx(-1605.43, abs=0.01)
        reference = theoretical_covariance(
            TRAJ, RHO_O, APERTURE, RADAR, [t1, t2], linearize=True
        )
        err = np.linalg.norm(parts["total"] - reference)
        assert err <= 1e-12 * np.linalg.norm(reference)

    def test_structured_total_is_exactly_symmetric(self):
        parts = build_structured(
            TRAJ,
            RHO_O,
            APERTURE,
            RADAR,
            Target(rho=np.array([0.15, -2.0, 0.0])),
            Target(rho=np.array([-0.15, 4.0, 0.0])),
        )
        assert np.array_equal(parts["total"], parts["total"].T)

    def test_hankel_part_is_negligible_when_the_offsets_are_wide(self):
        t1 = Target(rho=np.array([5.0, 5.0, 0.0]))
        t2 = Target(rho=np.array([-5.0, -10.0, 0.0]))
        parts = build_structured(TRAJ, RHO_O, APERTURE, RADAR, t1, t2)
        assert RADAR.bandwidth * abs(parts["beta_12"]) > 10.0
        ratio = np.linalg.norm(parts["hankel"]) / np.linalg.norm(parts["toeplitz"])
        assert ratio <= 1e-6
        diff = abs(numeric_rank(parts["total"]) - numeric_rank(parts["toeplitz"]))
        assert diff <= 2


class TestSymbol:
    def test_largest_eigenvalue_approaches_the_symbol_supremum(self):
        frame = make_frame(TRAJ, RHO_O)
        alpha = alpha_of(
            TRAJ, RHO_O, Target(rho=RHO_O, velocity=1.0 * frame.range_dir)
        )
        n_big = 2048
        seq = toeplitz_sequence([alpha], [1.0], n_big + 1, APERTURE.ds, RADAR)
        idx = np.abs(np.arange(n_big + 1)[:, None] - np.arange(n_big + 1)[None, :])
        lam_max = np.linalg.eigvalsh(seq[idx])[-1]
        theta, values = symbol([alpha], [1.0], APERTURE.ds, RADAR)
        sup = float(np.abs(values).max())
        assert lam_max / sup == pytest.approx(1.0, abs=0.05)
        assert theta.shape == values.shape

    def test_truncation_warning_when_the_tail_is_cut(self):
        frame = make_frame(TRAJ, RHO_O)
        alpha = alpha_of(
            TRAJ, RHO_O, Target(rho=RHO_O, velocity=0.05 * frame.range_dir)
        )
        with pytest.warns(RuntimeWarning, match="trunc"):
            symbol([alpha], [1.0], APERTURE.ds, RADAR, j_max=8)


class TestRankAndSzego:
    def test_numeric_rank_counts_relative_eigenvalues(self):
        mat = np.diag([1.0, 0.5, 0.005])
        assert numeric_rank(mat) == 2
        assert numeric_rank(mat, epsilon=0.001) == 3
        assert numeric_rank(np.zeros((4, 4))) == 0

    def test_szego_fraction_is_linear_then_clamps(self):
        base = szego_fraction([1.0e-9], RADAR, APERTURE.ds)
        assert szego_fraction([0.0], RADAR, APERTURE.ds) == 0.0
        assert szego_fraction([2.0e-9], RADAR, APERTURE.ds) == pytest.approx(
            2.0 * base, rel=1e-12
        )
        assert szego_fraction([1.0e-3], RADAR, APERTURE.ds) == 1.0
        assert szego_fraction([1.0e-9, 1.0e-9], RADAR, APERTURE.ds) == (
            pytest.approx(2.0 * base, rel=1e-12)
        )

    def test_saturation_speed_value_and_meaning(self):
        speed = szego_saturation_speed(RADAR, APERTURE.ds)
        assert speed == pytest.approx(11.759966873028713, rel=1e-12)
        alpha_sat = 2.0 * speed / C_LIGHT
        assert szego_fraction([alpha_sat], RADAR, APERTURE.ds) == pytest.approx(
            1.0, rel=1e-12
        )


    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_epsilon_outside_the_unit_interval_is_rejected(self, epsilon):
        # Left through, epsilon 1.5 makes the fraction nan and epsilon 1
        # makes the saturation speed infinite by a division by zero.
        with pytest.raises(ValueError, match="epsilon"):
            numeric_rank(np.diag([1.0, 0.5]), epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            szego_fraction([1.0], Radar(), 0.015, epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            szego_saturation_speed(Radar(), 0.015, epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            rank_study("single-mover", [1.0], epsilon=epsilon)

    @pytest.mark.parametrize(
        "matrix",
        [
            np.ones(4),
            np.ones((2, 2, 2)),
            np.ones((3, 4)),
            np.zeros((0, 0)),
            np.array([[1.0, 0.0], [0.0, np.nan]]),
            np.array([[np.inf, 0.0], [0.0, 1.0]]),
        ],
        ids=["1-d", "3-d", "non-square", "empty", "nan", "inf"],
    )
    def test_numeric_rank_rejects_a_matrix_it_cannot_rank(self, matrix):
        with pytest.raises(ValueError, match="finite, non-empty, square 2-D"):
            numeric_rank(matrix)


def symmetric_persymmetric(rng, n):
    """Random matrix that is exactly symmetric and exactly persymmetric."""
    base = rng.standard_normal((n, n))
    sym = base + base.T
    return sym + sym[::-1, ::-1]


def full_rank_count(matrix, epsilon=0.01):
    eigs = np.linalg.eigvalsh(matrix)
    return int(np.sum(eigs > epsilon * eigs[-1]))


class TestPersymmetricSplit:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 65])
    def test_half_blocks_give_the_full_spectrum(self, n):
        rng = np.random.default_rng(n)
        mat = symmetric_persymmetric(rng, n)
        expected = np.linalg.eigvalsh(mat)
        eigs = ranklab._eigenvalues(mat)
        assert eigs.shape == (n,)
        assert np.abs(eigs - expected).max() <= 1e-12 * np.abs(expected).max()
        for epsilon in (0.01, 0.3):
            assert numeric_rank(mat, epsilon) == full_rank_count(mat, epsilon)

    def test_symmetric_non_persymmetric_matrix_takes_the_full_solve(self):
        parts = build_structured(
            TRAJ,
            RHO_O,
            APERTURE,
            RADAR,
            Target(rho=np.array([0.15, -2.0, 0.0])),
            Target(rho=np.array([-0.15, 4.0, 0.0])),
        )
        # The slanted-Hankel part with beta_12 != 0 breaks persymmetry.
        mat = parts["total"]
        assert np.array_equal(mat, mat.T)
        assert not np.array_equal(mat, mat[::-1, ::-1])
        np.testing.assert_array_equal(
            ranklab._eigenvalues(mat), np.linalg.eigvalsh(mat)
        )
        assert numeric_rank(mat) == full_rank_count(mat)

    @pytest.mark.parametrize("n", [6, 7])
    def test_persymmetric_non_symmetric_matrix_takes_the_full_solve(self, n):
        base = np.random.default_rng(3).standard_normal((n, n))
        mat = base + base[::-1, ::-1]
        assert np.array_equal(mat, mat[::-1, ::-1])
        assert not np.array_equal(mat, mat.T)
        np.testing.assert_array_equal(
            ranklab._eigenvalues(mat), np.linalg.eigvalsh(mat)
        )

    def test_rank_slope_ranks_at_n_1024_match_the_full_solve(self):
        wide = Aperture(n=1024, ds=APERTURE.ds)
        ranks, full = [], []
        for u in range(1, 9):
            target = Target(rho=RHO_O, velocity=np.array([u, 0.0, 0.0]))
            mat = theoretical_covariance(TRAJ, RHO_O, wide, RADAR, [target])
            ranks.append(numeric_rank(mat))
            full.append(full_rank_count(mat))
        assert ranks == full
        assert ranks == [89, 176, 264, 350, 438, 524, 611, 708]


class TestBandwidthBetaProduct:
    def test_wide_pair_value(self):
        t1 = Target(rho=np.array([5.0, 5.0, 0.0]))
        t2 = Target(rho=np.array([-5.0, 0.01, 0.0]))
        bb = bandwidth_beta_product(TRAJ, RHO_O, RADAR, t1, t2)
        assert bb == pytest.approx(41.490184, abs=1e-3)


class TestRankStudy:
    def test_single_mover_sweep_ranks(self):
        rows = rank_study("single-mover", [0.25, 0.5, 1.0, 2.0])
        ranks = [r["computed_rank"] for r in rows]
        assert ranks == [4, 7, 12, 22]
        assert all(
            set(r) == {"parameter", "computed_rank", "estimated_rank", "n",
                       "epsilon"}
            for r in rows
        )
        estimates = [r["estimated_rank"] for r in rows]
        for rank, estimate in zip(ranks, estimates):
            assert abs(rank - estimate) <= max(2, estimate)

    def test_single_stationary_sweep_ranks(self):
        rows = rank_study("single-stationary", [0.5, 4.0, 25.0])
        assert [r["computed_rank"] for r in rows] == [2, 2, 4]

    def test_empirical_agrees_with_the_model(self):
        model = rank_study("single-mover", [1.0])
        measured = rank_study("single-mover", [1.0], empirical=True)
        assert abs(
            model[0]["computed_rank"] - measured[0]["computed_rank"]
        ) <= 2

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="unknown rank-study mode"):
            rank_study("both-at-once", [1.0])
