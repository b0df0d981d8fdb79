import numpy as np
import pytest

from blocksense import (
    BlockStructure,
    Dictionary,
    SensingMatrix,
    design_ds,
    ds_objective,
)
from helpers import random_dictionary


def gamma_of(a_mat, d_mat):
    """Whitened coordinates of a sensing matrix: A U diag(w)^{1/2}."""
    w, u = np.linalg.eigh(d_mat @ d_mat.T)
    return a_mat @ u @ np.diag(np.sqrt(w))


class TestDesign:
    def test_identity_dictionary_gives_orthonormal_rows(self):
        d = Dictionary(np.eye(6), BlockStructure((3, 3)))
        a = design_ds(d, 5)
        np.testing.assert_allclose(a.matrix @ a.matrix.T, np.eye(5), atol=1e-12)

    def test_whitening_property_and_objective(self):
        rng = np.random.default_rng(0)
        d = random_dictionary(rng, 20, (4,) * 10)
        a = design_ds(d, 8)
        prod = a.matrix @ d.matrix @ d.matrix.T @ a.matrix.T
        assert np.linalg.norm(prod - np.eye(8)) <= 1e-8
        assert ds_objective(a, d) == pytest.approx(40 - 8, rel=1e-6)

    def test_stationarity_residual(self):
        rng = np.random.default_rng(1)
        d = random_dictionary(rng, 20, (2,) * 20)
        a = design_ds(d, 8)
        gamma = gamma_of(a.matrix, d.matrix)
        residual = 4.0 * (gamma @ gamma.T @ gamma - gamma)
        assert np.linalg.norm(residual) <= 1e-8

    def test_beats_random_designs(self):
        rng = np.random.default_rng(2)
        d = random_dictionary(rng, 12, (3,) * 8)
        best = ds_objective(design_ds(d, 5), d)
        for _ in range(100):
            a_rand = rng.standard_normal((5, 12))
            assert best <= ds_objective(a_rand, d) + 1e-9

    def test_takes_no_eigensolve(self, monkeypatch):
        d = random_dictionary(np.random.default_rng(5), 20, (4,) * 10)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: calls.append(a) or eigh(*a, **kw))
        design_ds(d, 8)
        assert calls == []

    def test_is_the_top_of_the_whitening_frame(self):
        d = random_dictionary(np.random.default_rng(6), 20, (2, 3, 4, 3) * 3 + (4, 4))
        np.testing.assert_array_equal(design_ds(d, 8).matrix, d.whitening[:8])

    def test_rejects_bad_m(self):
        d = random_dictionary(np.random.default_rng(3), 6, (3, 3))
        with pytest.raises(ValueError):
            design_ds(d, 6)
        with pytest.raises(ValueError):
            design_ds(d, 0)


class TestObjective:
    def test_zero_sensing_gives_k(self):
        d = random_dictionary(np.random.default_rng(4), 6, (3, 3, 3))
        assert ds_objective(np.zeros((4, 6)), d) == pytest.approx(9.0)

    def test_matches_gram_mismatch(self):
        rng = np.random.default_rng(5)
        d = random_dictionary(rng, 6, (2, 2, 2, 2))
        a = rng.standard_normal((4, 6))
        e = a @ d.matrix
        oracle = np.sum((e.T @ e - np.eye(8)) ** 2)
        assert ds_objective(a, d) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("wrap", [np.asarray, SensingMatrix], ids=["array", "sensing"])
    @pytest.mark.parametrize("n", [5, 7])
    def test_rejects_wrong_signal_dimension(self, wrap, n):
        d = random_dictionary(np.random.default_rng(4), 6, (3, 3, 3))
        with pytest.raises(ValueError, match=f"{n} columns, dictionary expects 6"):
            ds_objective(wrap(np.ones((4, n))), d)

    @pytest.mark.parametrize(
        "a", [np.ones(6), np.ones((2, 3, 6)), np.full((4, 6), np.nan)], ids=["1-D", "3-D", "nan"]
    )
    def test_rejects_malformed_sensing(self, a):
        d = random_dictionary(np.random.default_rng(4), 6, (3, 3, 3))
        with pytest.raises(ValueError, match="must be 2-D and finite"):
            ds_objective(a, d)

    def test_rank_split_identity_for_any_sensing(self):
        # ||E'E - I_K||^2 = ||EE' - I_M||^2 + (K - M) holds for every A
        rng = np.random.default_rng(6)
        d = random_dictionary(rng, 10, (5, 5, 5, 5))
        for _ in range(20):
            a = rng.standard_normal((4, 10))
            e = a @ d.matrix
            lhs = np.sum((e.T @ e - np.eye(20)) ** 2)
            rhs = np.sum((e @ e.T - np.eye(4)) ** 2) + (20 - 4)
            assert abs(lhs - rhs) <= 1e-9 * (1 + lhs)
