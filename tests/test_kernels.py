"""Checks of the backprojection sampler against cubic reference rows."""

import numpy as np

from sarsep.kernels import backproject_block


class TestBackprojectBlock:
    M = 64
    # A power of two with t0 = 0 keeps (dtau - t0) / dt exactly the
    # intended fractional sample index, so the edge cases land on the
    # base index they are meant to.
    DT = 2.0**-32

    def cubic(self, coeffs, x):
        """Row j's cubic at sample index x; real part >= 1 for 0 <= x <= M."""
        u = x / self.M
        return sum(coeffs[:, p, None] * u**p for p in range(4)) + (3.0 + 3.0j)

    def case(self):
        rng = np.random.default_rng(7)
        n_rows, n_pix = 5, 300
        coeffs = rng.uniform(-0.5, 0.5, (n_rows, 4, 2)) @ np.array([1.0, 1.0j])
        grid = np.tile(np.arange(self.M, dtype=float), (n_rows, 1))
        rows = self.cubic(coeffs, grid)
        x = rng.uniform(-3.0, self.M + 2.0, size=(n_rows, n_pix))
        m = self.M
        # Base indices -3, -1, 0, 1, 1, m-3, m-2, m-2, m+1: both ends of
        # the valid range and one step past each.
        x[:, :9] = [-2.5, -0.5, 0.25, 1.0, 1.5, m - 2.25, m - 2.0, m - 1.5, m + 1.5]
        base = np.floor(x)
        inside = (base >= 1) & (base <= m - 3)
        return rows, x, self.cubic(coeffs, x), inside

    def test_in_range_samples_reproduce_the_cubic(self):
        rows, x, exact, inside = self.case()
        assert inside.any() and (~inside).any()
        for j in range(rows.shape[0]):
            acc, missed = backproject_block(
                rows[j : j + 1], 0.0, self.DT, x[j : j + 1] * self.DT
            )
            np.testing.assert_allclose(
                acc[inside[j]], exact[j, inside[j]], rtol=1e-12, atol=0
            )
            assert np.all(acc[~inside[j]] == 0.0)
            np.testing.assert_array_equal(missed, (~inside[j]).astype(np.int64))

    def test_missed_counts_rows_whose_base_leaves_the_grid(self):
        rows, x, exact, inside = self.case()
        acc, missed = backproject_block(rows, 0.0, self.DT, x * self.DT)
        np.testing.assert_array_equal(missed, (~inside).sum(axis=0))
        expected = np.where(inside, exact, 0.0).sum(axis=0)
        np.testing.assert_allclose(acc, expected, rtol=1e-12, atol=0)

    def test_block_with_no_sample_in_the_gate_is_zero(self):
        rows, x, _, _ = self.case()
        n_rows, n_pix = x.shape
        x[:, : n_pix // 2] = -5.0 + x[:, : n_pix // 2] % 1.0
        x[:, n_pix // 2 :] = self.M + 1.0 + x[:, n_pix // 2 :] % 1.0
        acc, missed = backproject_block(rows, 0.0, self.DT, x * self.DT)
        assert acc.shape == (n_pix,) and np.all(acc == 0.0)
        np.testing.assert_array_equal(missed, np.full(n_pix, n_rows))
