import numpy as np
import pytest

from blocksense import (
    BlockStructure,
    BompConfig,
    EquivalentDictionary,
    ExperimentConfig,
    RankDeficientSupportError,
    block_recovery_bound,
    bomp_decode,
    bomp_decode_batch,
    generate_dictionary,
    generate_signals,
    gram,
    inter_block_coherence,
    sub_block_coherence,
)
from blocksense.bomp import _bomp_batch
from blocksense.harness import _design, _grid
from helpers import (
    oracle_block_support,
    packed_equivalent,
    random_orthonormal,
    reference_bomp,
    unit_columns,
)

# Agreement of the lockstep kernel with the per-signal reference, fixed in
# advance: |theta - theta_ref| <= THETA_RTOL * max|theta_ref|, a few hundred
# ulps of double precision.
THETA_RTOL = 1e-12
LS_TOL = BompConfig(k_blocks=1).ls_tol


def orthonormal_block_equiv(rng, n_blocks=3, s=2):
    """Equivalent dictionary whose blocks are orthonormal and mutually orthogonal."""
    k = n_blocks * s
    q = random_orthonormal(rng, k)
    return EquivalentDictionary(q, BlockStructure((s,) * n_blocks))


class TestBompDecode:
    def test_orthogonal_blocks_exact_single_block(self):
        rng = np.random.default_rng(0)
        e = orthonormal_block_equiv(rng)
        coeffs = np.array([0.7, -1.3])
        y = e.matrix[:, 2:4] @ coeffs
        result = bomp_decode(e, y, BompConfig(k_blocks=1))
        assert result.support == (1,)
        np.testing.assert_allclose(result.values[2:4], coeffs, atol=1e-12)
        assert np.all(result.values[[0, 1, 4, 5]] == 0.0)

    def test_zero_measurements_give_zero_coefficients(self):
        rng = np.random.default_rng(1)
        e = orthonormal_block_equiv(rng)
        result = bomp_decode(e, np.zeros(6), BompConfig(k_blocks=2))
        assert np.all(result.values == 0.0)
        assert len(result.support) == 2

    def test_exactly_k_blocks_selected(self):
        rng = np.random.default_rng(2)
        e = orthonormal_block_equiv(rng, n_blocks=4, s=2)
        y = e.matrix[:, 0]  # representable with one block
        result = bomp_decode(e, y, BompConfig(k_blocks=3))
        assert len(result.support) == 3

    def test_residual_orthogonal_to_selected_columns(self):
        rng = np.random.default_rng(3)
        e_mat = rng.standard_normal((8, 12))
        e = EquivalentDictionary(e_mat, BlockStructure((3, 3, 3, 3)))
        y = rng.standard_normal(8)
        result = bomp_decode(e, y, BompConfig(k_blocks=2))
        residual = y - e_mat @ result.values
        cols = np.concatenate([np.arange(3 * j, 3 * j + 3) for j in result.support])
        assert np.linalg.norm(e_mat[:, cols].T @ residual) <= 1e-8 * np.linalg.norm(y)

    def test_residual_nonincreasing_over_prefix_supports(self):
        # greedy selections nest, so decoding with growing k extends the support
        rng = np.random.default_rng(4)
        e_mat = rng.standard_normal((13, 15))
        e = EquivalentDictionary(e_mat, BlockStructure((3,) * 5))
        y = rng.standard_normal(13)
        norms = []
        for k in range(1, 5):
            theta = bomp_decode(e, y, BompConfig(k_blocks=k)).values
            norms.append(np.linalg.norm(y - e_mat @ theta))
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_matches_exhaustive_oracle_when_bound_holds(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(2):
            e = packed_equivalent(rng)
            g = gram(e)
            bound = block_recovery_bound(inter_block_coherence(g), sub_block_coherence(g), 3)
            if not 2 < bound:
                continue
            for _ in range(8):
                blocks = rng.choice(8, size=2, replace=False)
                theta = np.zeros(24)
                for j in blocks:
                    theta[3 * j : 3 * j + 3] = rng.uniform(-1, 1, 3)
                y = e.matrix @ theta
                decoded = bomp_decode(e, y, BompConfig(k_blocks=2))
                assert set(decoded.support) == oracle_block_support(
                    e.matrix, e.structure, y, 2
                )
                # under the bound the decoder must also find the generating blocks
                assert set(decoded.support) == set(int(b) for b in blocks)
                checked += 1
        assert checked >= 8  # the instance pool must not be vacuous

    def test_rank_deficient_support_is_reported(self):
        # block 0 holds the same column twice, so selecting it breaks the solve
        col = np.array([1.0, 0.0, 0.0])
        e = EquivalentDictionary(
            np.column_stack([col, col, [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            BlockStructure((2, 1, 1)),
        )
        with pytest.raises(RankDeficientSupportError, match=r"\(0,\)") as exc_info:
            bomp_decode(e, col, BompConfig(k_blocks=1))
        assert exc_info.value.support == (0,)

    def test_rejects_too_many_blocks(self):
        rng = np.random.default_rng(5)
        e = orthonormal_block_equiv(rng)
        with pytest.raises(ValueError, match="k_blocks"):
            bomp_decode(e, np.zeros(6), BompConfig(k_blocks=4))

    def test_rejects_wrong_measurement_length(self):
        rng = np.random.default_rng(6)
        e = orthonormal_block_equiv(rng)
        with pytest.raises(ValueError):
            bomp_decode(e, np.zeros(5), BompConfig(k_blocks=1))


class TestBatchDecode:
    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(7)
        e_mat = rng.standard_normal((8, 12))
        e = EquivalentDictionary(e_mat, BlockStructure((2,) * 6))
        y = rng.standard_normal((8, 5))
        batch = bomp_decode_batch(e, y, BompConfig(k_blocks=2))
        for sig in range(5):
            single = bomp_decode(e, y[:, sig], BompConfig(k_blocks=2))
            np.testing.assert_array_equal(batch[:, sig], single.values)

    def test_batch_agrees_with_single_near_span(self):
        # block 1 keeps under a fifth of a column's squared norm outside
        # block 0's span, so the signals that select both blocks lose most
        # of it to the first Gram-Schmidt pass and the others do not; a
        # signal's bits must not depend on what else is in its batch
        rng = np.random.default_rng(9)
        e_mat = unit_columns(rng.standard_normal((16, 18)))
        e_mat[:, 3:6] = unit_columns(
            e_mat[:, 0:3] @ rng.standard_normal((3, 3)) + 0.5 * rng.standard_normal((16, 3))
        )
        e = EquivalentDictionary(e_mat, BlockStructure((3,) * 6))
        near = e_mat[:, 0:6] @ rng.uniform(-1.0, 1.0, (6, 3))
        far = e_mat[:, 9:18] @ rng.uniform(-1.0, 1.0, (9, 3))
        y = np.column_stack([near, far]) + 0.1 * rng.standard_normal((16, 6))
        cfg = BompConfig(k_blocks=2)
        batch = bomp_decode_batch(e, y, cfg)
        both = 0
        for sig in range(6):
            single = bomp_decode(e, y[:, sig], cfg)
            both += set(single.support) == {0, 1}
            np.testing.assert_array_equal(batch[:, sig], single.values)
        assert 0 < both < 6

    def test_decode_is_idempotent(self):
        rng = np.random.default_rng(8)
        e = EquivalentDictionary(rng.standard_normal((6, 9)), BlockStructure((3, 3, 3)))
        y = rng.standard_normal((6, 4))
        first = bomp_decode_batch(e, y, BompConfig(k_blocks=2))
        second = bomp_decode_batch(e, y, BompConfig(k_blocks=2))
        np.testing.assert_array_equal(first, second)

    def test_batch_error_names_signal(self):
        col = np.array([1.0, 0.0, 0.0])
        e = EquivalentDictionary(
            np.column_stack([col, col, [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            BlockStructure((2, 1, 1)),
        )
        y = np.column_stack([[0.0, 1.0, 0.0], col])
        with pytest.raises(RankDeficientSupportError, match="signal 1"):
            bomp_decode_batch(e, y, BompConfig(k_blocks=1))


class TestBompConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            BompConfig(k_blocks=0)
        with pytest.raises(ValueError):
            BompConfig(k_blocks=1, ls_tol=-1.0)
        for bad in (2.5, True, "2"):
            with pytest.raises(ValueError, match="k_blocks"):
                BompConfig(k_blocks=bad)
        assert BompConfig(k_blocks=np.int64(2)).k_blocks == 2
        for bad in ("1e-10", True, None):
            with pytest.raises(ValueError, match="ls_tol"):
                BompConfig(k_blocks=1, ls_tol=bad)
        config = BompConfig(k_blocks=1, ls_tol=np.float64(1e-8))
        assert type(config.ls_tol) is float and config.ls_tol == 1e-8


def assert_agrees_with_reference(E, structure, Y, k, ls_tol=LS_TOL, kappa=1.0):
    """Same supports as the reference, and theta within THETA_RTOL times
    kappa, a bound on the condition number of the selected columns: the
    forward error of a backward-stable solve grows with it."""
    theta, supports = _bomp_batch(E, structure.offsets, Y, k, ls_tol)
    ref_theta, ref_supports = reference_bomp(E, structure.offsets, Y, k, ls_tol)
    np.testing.assert_array_equal(supports, ref_supports)
    assert theta.shape == ref_theta.shape
    bound = THETA_RTOL * kappa * np.abs(ref_theta).max(initial=0.0)
    assert np.all(np.abs(theta - ref_theta) <= bound)
    return theta, supports


def assert_same_error(E, sizes, Y, k, ls_tol=LS_TOL):
    """The lockstep kernel raises what the reference raises; returns it."""
    offsets = BlockStructure(sizes).offsets
    with pytest.raises(RankDeficientSupportError) as ref:
        reference_bomp(E, offsets, Y, k, ls_tol)
    with pytest.raises(RankDeficientSupportError) as got:
        _bomp_batch(E, offsets, Y, k, ls_tol)
    assert (got.value.support, got.value.signal) == (ref.value.support, ref.value.signal)
    assert str(got.value) == str(ref.value)
    return ref.value


# The desk-sweep and decode-mixed benchmark workloads at full size.
SWEEP_CONFIGS = {
    "desk-sweep": dict(
        dict_family="gaussian", N=60, K=120, M=14, block_sizes=3, k=2, L=200,
        trials=1, alpha_grid=(0.5, 0.9, 0.99), designers=("random", "ds", "wcm"),
    ),
    "decode-mixed": dict(
        dict_family="dct_rows", N=60, K=126, M=20, block_sizes=[2, 3, 4] * 14,
        k=3, L=5000, trials=1, designers=("random", "ds"),
    ),
}


# E and Y are scaled together: the padding pivot must follow the scale of R,
# or it becomes an extreme singular value of a mixed-size support. Unscaled
# instances keep their plain ids.
RANDOM_INSTANCES = [
    pytest.param(
        sizes, n_signals, scale,
        id=f"{name}-{n_signals}" + ("" if scale == 1.0 else f"-scale{scale:g}"),
    )
    for name, sizes in (("uniform", (3,) * 12), ("mixed", (2, 3, 4) * 4))
    for n_signals in (0, 1, 37)
    for scale in (1.0, 1e-12, 1e12)
]


class TestLockstepAgreesWithReference:
    @pytest.mark.parametrize("sizes, n_signals, scale", RANDOM_INSTANCES)
    def test_random_instances(self, sizes, n_signals, scale):
        rng = np.random.default_rng(len(sizes) + n_signals)
        structure = BlockStructure(sizes)
        E = scale * unit_columns(rng.standard_normal((16, structure.num_columns)))
        Y = scale * rng.standard_normal((16, n_signals))
        assert_agrees_with_reference(E, structure, Y, 3)

    def test_block_near_span_of_earlier_block(self):
        # blocks 1 and 2 lie within delta of block 0's span. One Gram-Schmidt
        # pass against the basis leaves the second selected block's basis
        # about eps / delta off orthogonal, and the third one's about
        # eps / delta^2, which moves theta far past the bound at kappa
        # 1 / delta; the second pass keeps it at eps / delta.
        delta = 1e-5
        rng = np.random.default_rng(13)
        first = unit_columns(rng.standard_normal((16, 3)))
        near = [
            unit_columns(first @ rng.standard_normal((3, 3)) + delta * unit_columns(noise))
            for noise in rng.standard_normal((2, 16, 3))
        ]
        E = np.hstack([first, *near])
        structure = BlockStructure((3, 3, 3))
        Y = E @ rng.uniform(-1.0, 1.0, (9, 20)) + rng.standard_normal((16, 20))
        theta, _ = assert_agrees_with_reference(E, structure, Y, 3, kappa=1.0 / delta)
        resid = Y - E @ theta
        bound = 1e-14 / delta * np.linalg.norm(Y, axis=0)
        assert np.all(np.abs(E.T @ resid) <= bound)

    @pytest.mark.parametrize("name", sorted(SWEEP_CONFIGS))
    def test_sweep_workloads(self, name):
        cfg = ExperimentConfig(**SWEEP_CONFIGS[name], seed=31)
        rng = np.random.default_rng([cfg.seed, 0])
        D = generate_dictionary(cfg, rng)
        X, _ = generate_signals(D, cfg.k, cfg.L, rng)
        for designer, alpha in _grid(cfg):
            a_mat = _design(cfg, 0, D, designer, alpha)
            assert_agrees_with_reference(a_mat @ D.matrix, D.structure, a_mat @ X, cfg.k)


@pytest.mark.filterwarnings("error")
class TestLockstepErrors:
    @pytest.mark.parametrize("step", [0, 1])
    def test_good_signal_before_failing_one(self, step):
        rng = np.random.default_rng(3)
        E = unit_columns(rng.standard_normal((10, 15)))
        E[:, 7] = E[:, 6]  # block 2 holds a column twice
        good = E[:, 0:3] @ [1.0, -1.0, 0.5] + E[:, 9:12] @ [0.3, 0.2, -0.4]
        # block 2 dominates the signal failing at step 0, so the prefix
        # re-check, not the final support, names where it failed
        bad = [
            E[:, 6:9] @ [2.0, 1.0, 1.0] + E[:, 12:15] @ [0.3, 0.2, 0.1],
            E[:, 12:15] @ [2.0, -1.5, 1.0] + E[:, 6:9] @ [0.3, 0.4, 0.2],
        ][step]
        err = assert_same_error(E, (3,) * 5, np.column_stack([good, bad]), 2)
        assert (err.support, err.signal) == (((2,), (4, 2))[step], 1)

    def test_lowest_failing_signal_wins_across_widths(self):
        # both signals fail at their second block; signal 0's final support
        # is 7 columns wide and signal 1's is 5, so signal 0 is solved later
        rng = np.random.default_rng(6)
        E = unit_columns(rng.standard_normal((12, 15)))
        E[:, 1] = E[:, 0]
        E[:, 5] = E[:, 4]
        wide = E[:, 6:9] @ [2.0, -1.5, 1.0] + E[:, 0:4] @ [0.3, 0.2, 0.1, 0.3]
        narrow = E[:, 12:15] @ [2.0, -1.5, 1.0] + E[:, 4:6] @ [0.4, 0.3]
        sizes = (4, 2, 3, 3, 3)
        assert assert_same_error(E, sizes, wide[:, None], 2).support == (2, 0)
        assert assert_same_error(E, sizes, narrow[:, None], 2).support == (4, 1)
        err = assert_same_error(E, sizes, np.column_stack([wide, narrow]), 2)
        assert (err.support, err.signal) == ((2, 0), 0)

    def test_more_columns_than_measurements(self):
        rng = np.random.default_rng(4)
        E = unit_columns(rng.standard_normal((5, 12)))
        # the third block brings 6 columns for 5 measurements; a fourth follows
        Y = rng.standard_normal((5, 3))
        err = assert_same_error(E, (2,) * 6, Y, 4)
        assert (len(err.support), err.signal) == (3, 0)
        # with no singular-value tolerance only the width count catches it
        err = assert_same_error(E, (2,) * 6, Y, 4, ls_tol=0.0)
        assert (len(err.support), err.signal) == (3, 0)

    def test_block_wider_than_measurements(self):
        rng = np.random.default_rng(5)
        E = np.zeros((3, 8))
        E[:2, :4] = rng.standard_normal((2, 4))
        E[:, 4:] = rng.standard_normal((3, 4)) * [[0.1], [0.1], [1.0]]
        E = unit_columns(E)
        good = E[:, 0:2] @ [1.0, -1.0]
        bad = np.array([0.0, 0.0, 1.0])  # only the 4-column block reaches it
        err = assert_same_error(E, (2, 2, 4), np.column_stack([good, bad]), 1)
        assert (err.support, err.signal) == ((2,), 1)


@pytest.mark.filterwarnings("error")
class TestConditioningScreen:
    """The inverse-based screen and the singular values it falls back to
    decide exactly as the reference's singular values do."""

    @pytest.mark.parametrize("ls_tol", [LS_TOL, 0.0])
    @pytest.mark.parametrize("delta", [1e-4, 1e-7, 1e-9, 1e-12])
    def test_near_dependent_block(self, delta, ls_tol):
        # block 2's last column is a combination of its other two plus delta
        # times noise; signal 1 is made from blocks 2 and 0, signal 0 from
        # blocks 4 and 1
        rng = np.random.default_rng(11)
        E = unit_columns(rng.standard_normal((16, 15)))
        E[:, 8] = 0.6 * E[:, 6] - 0.8 * E[:, 7] + delta * rng.standard_normal(16)
        E = unit_columns(E)
        good = E[:, 12:15] @ [1.0, 0.5, 0.3] + E[:, 3:6] @ [0.2, 0.1, 0.3]
        bad = E[:, 6:9] @ [1.0, -0.5, 0.7] + E[:, 0:3] @ [0.2, 0.1, -0.3]
        Y = np.column_stack([good, bad])
        if ls_tol and delta < ls_tol:
            err = assert_same_error(E, (3,) * 5, Y, 2, ls_tol)
            assert (err.support, err.signal) == ((2,), 1)
        else:
            # block 2 is about delta from singular
            _, supports = assert_agrees_with_reference(
                E, BlockStructure((3,) * 5), Y, 2, ls_tol, kappa=1.0 / delta
            )
            assert supports[0, 1] == 2

    def test_exactly_repeated_column(self):
        # a column of entries +-1/2 has norm exactly 1, so Gram-Schmidt
        # cancels its repeat exactly: R is singular, the batched inverse
        # raises, and the singular values decide for every signal
        rng = np.random.default_rng(12)
        E = unit_columns(rng.standard_normal((16, 15)))
        E[:, 6:8] = 0.0
        E[[0, 4, 8, 12], 6:8] = [[0.5], [-0.5], [0.5], [0.5]]
        good = E[:, 12:15] @ [1.0, 0.5, 0.3] + E[:, 3:6] @ [0.2, 0.1, 0.3]
        bad = E[:, 6:9] @ [2.0, 1.0, 1.0] + E[:, 0:3] @ [0.2, 0.1, -0.3]
        err = assert_same_error(E, (3,) * 5, np.column_stack([good, bad]), 2)
        assert (err.support, err.signal) == ((2,), 1)
