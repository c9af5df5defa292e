import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sectorlab.linalg as la
from sectorlab.errors import (
    DimensionMismatch,
    IllConditioned,
    NotAccretive,
    NotPositiveDefinite,
    SectorlabError,
    SingularMatrix,
)

A_CANON = np.array([[2, 1j], [1j, 2]], dtype=complex)
B_CANON = np.array([[1, 1], [-1, 1]], dtype=complex)

_entries = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)
_square3 = arrays(np.complex128, (3, 3), elements=_entries)


def _rand_herm(rng, d, scale=1.0):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return la.symmetrize(scale * g)


# ---------------------------------------------------------------- real/imag


def test_real_part_examples():
    np.testing.assert_allclose(la.real_part(A_CANON), np.diag([2.0, 2.0]), atol=0)
    h = la.symmetrize(np.array([[1, 2j], [-2j, 5]], dtype=complex))
    assert np.array_equal(la.real_part(h), h)
    np.testing.assert_allclose(la.real_part(B_CANON), np.eye(2), atol=0)


def test_imag_part_examples():
    np.testing.assert_allclose(la.imag_part(A_CANON), np.array([[0, 1], [1, 0]]), atol=0)
    h = la.symmetrize(np.array([[1, 2j], [-2j, 5]], dtype=complex))
    np.testing.assert_allclose(la.imag_part(h), np.zeros((2, 2)), atol=0)
    np.testing.assert_allclose(la.imag_part(B_CANON), np.array([[0, -1j], [1j, 0]]), atol=0)


@settings(max_examples=50, deadline=None)
@given(_square3)
def test_cartesian_recomposition(a):
    re = la.real_part(a)
    im = la.imag_part(a)
    assert np.array_equal(re, re.conj().T)
    assert np.array_equal(im, im.conj().T)
    np.testing.assert_allclose(re + 1j * im, a, atol=1e-15)


def test_symmetrize_is_bitwise_hermitian():
    rng = np.random.default_rng(11)
    for d in (1, 2, 5, 8):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = la.symmetrize(g)
        assert np.array_equal(h, h.conj().T)


def test_frob_is_bitwise_independent_of_memory_layout():
    # np.linalg.norm sums in memory order; frob sums in C order, so a
    # Fortran-ordered or strided argument gives bitwise its C copy's norm.
    from sectorlab.ensemble import SectorSpec, random_accretive

    def strided(m):
        big = np.zeros((2 * len(m), 2 * len(m)), dtype=m.dtype)
        big[::2, ::2] = m
        return big[::2, ::2]

    for k in range(20):
        m = random_accretive(SectorSpec(dim=3 + k % 6, angle=0.6 * math.pi / 2,
                                        cond_cap=100.0, seed=k)).mat
        for view in (np.asfortranarray(m), strided(m)):
            assert not view.flags.c_contiguous and np.array_equal(view, m)
            assert la.frob(view) == la.frob(m)


def test_frob_is_scale_safe():
    # The plain sum of squares overflows above about 1e154, holds subnormal
    # squares below about 1e-150 and underflows to 0 below about 1e-162;
    # frob(sM) stays s frob(M) there, with no warning, and is np.linalg.norm's
    # at ordinary scales.  Power-of-two scales keep sM and the division exact.
    from sectorlab.ensemble import SectorSpec, random_accretive

    for k in range(5):
        m = random_accretive(SectorSpec(dim=3 + k, angle=0.6 * math.pi / 2,
                                        cond_cap=100.0, seed=k)).mat
        assert la.frob(m) == np.linalg.norm(m)
        for s in (1e160, 1e300, 1e-150, 1e-170, 1e-300, *(2.0**-j for j in range(515, 539))):
            assert abs(la.frob(s * m) / s - la.frob(m)) <= 1e-15 * la.frob(m)
    assert la.frob(np.zeros((2, 2))) == 0.0


def test_stacked_frob_scaled_is_each_slice_alone_bitwise():
    # The scale-safe norm of a stack, which verify's relative margins take,
    # gives every slice bitwise the norm of that slice alone, whatever it is
    # stacked with and however the stack is laid out: here a zero slice (norm
    # 0, with no warning), slices scaled by 1e200 and by 1e-200, and an
    # ordinary one.
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 7):
        m = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
        slices = [np.zeros((d, d), dtype=complex), 1e200 * m[0], 1e-200 * m[1], m[2]]
        alone = [la._frob_scaled(x).tobytes() for x in slices]
        stack = np.stack(slices)
        for view in (stack, np.asfortranarray(stack), np.stack([stack, stack], axis=1)[:, 1]):
            got = la._frob_scaled(view)
            assert got[0] == 0.0 and np.all(got[1:] > 0)
            assert [g.tobytes() for g in got] == alone


def test_slice_frobs_are_frob_of_each_slice_bitwise():
    # The one-pass norms of a stack, which the integral engine takes for its
    # estimates and gauges, are bitwise frob of each slice alone, as Python
    # floats: ordinary slices of dims 1-64, and a zero, a 1e200- and a
    # 1e-200-scaled slice, where frob rescales, in C, Fortran and strided stacks.
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 5, 8, 16, 64):
        m = rng.standard_normal((6, d, d)) + 1j * rng.standard_normal((6, d, d))
        slices = [*m[:3], np.zeros((d, d), dtype=complex), 1e200 * m[3], 1e-200 * m[4]]
        alone = [la.frob(x) for x in slices]
        stack = np.stack(slices)
        for view in (stack, np.asfortranarray(stack), np.stack([stack, stack], axis=1)[:, 1]):
            got = la._slice_frobs(view)
            assert all(type(g) is float for g in got)
            assert got == alone


# ------------------------------------------------------------------ inverse


def test_inverse_examples():
    np.testing.assert_allclose(la.inverse(np.eye(3)), np.eye(3), atol=1e-15)
    np.testing.assert_allclose(la.inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-15)
    expected = np.array([[2, -1j], [-1j, 2]], dtype=complex) / 5
    np.testing.assert_allclose(la.inverse(A_CANON), expected, atol=1e-15)


def test_inverse_residual_contract():
    rng = np.random.default_rng(5)
    for d in (1, 2, 4, 8, 16):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = la.inverse(m)
        resid = np.linalg.norm(m @ x - np.eye(d))
        assert resid <= 1e-10 * np.linalg.norm(m) * d


def test_inverse_involution():
    rng = np.random.default_rng(6)
    for d in (2, 3, 5):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if np.linalg.cond(m) > 1e6:
            continue
        back = la.inverse(la.inverse(m))
        assert np.linalg.norm(back - m) <= 1e-8 * np.linalg.norm(m)


def test_inverse_matches_numpy():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    np.testing.assert_allclose(la.inverse(m), np.linalg.inv(m), rtol=0, atol=1e-12)


def test_inverse_singular():
    with pytest.raises(SingularMatrix):
        la.inverse(np.zeros((2, 2)))
    with pytest.raises(SingularMatrix):
        la.inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_inverse_ill_conditioned():
    with pytest.raises(IllConditioned):
        la.inverse(np.diag([1.0, 1e-15]))
    # explicit cap override
    with pytest.raises(IllConditioned):
        la.inverse(np.diag([1.0, 1e-7]), cond_cap=1e6)


def test_inverse_of_scaled_identity_is_well_conditioned():
    # The estimate ||A||_F * ||X||_F of s * I is d at any scale s; its squares
    # overflow or underflow at these scales, and no warning may escape.
    for s in (1e-160, 1e160, 1e-300, 1e300):
        x = la.inverse(s * np.eye(3))
        assert np.array_equal(x, np.linalg.inv(s * np.eye(3, dtype=complex)))
        assert np.array_equal(la.inverse(np.stack([np.eye(2), s * np.eye(2)]))[1],
                              np.linalg.inv(s * np.eye(2, dtype=complex)))
    # a scaled ill-conditioned matrix still raises, with its finite estimate
    with pytest.raises(IllConditioned, match="1.000e[+]15"):
        la.inverse(1e160 * np.diag([1.0, 1e-15]))
    with pytest.raises(IllConditioned, match="estimate inf"):
        la.inverse(np.diag([1e200, 1e-200]))


def test_inverse_accepts_accretive_matrix():
    expected = np.array([[2, -1j], [-1j, 2]], dtype=complex) / 5
    np.testing.assert_allclose(la.inverse(la.AccretiveMatrix.from_matrix(A_CANON)), expected, atol=1e-15)


def test_inverse_stack_matches_slices():
    rng = np.random.default_rng(8)
    stack = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    x = la.inverse(stack)
    assert x.shape == (5, 4, 4)
    for k in range(5):
        np.testing.assert_allclose(x[k], la.inverse(stack[k]), rtol=0, atol=1e-13)


def test_inverse_stack_fails_on_one_bad_slice():
    stack = np.stack([np.eye(3) * (k + 1.0) for k in range(6)]).astype(complex)
    singular = stack.copy()
    singular[3] = np.ones((3, 3))
    with pytest.raises(SingularMatrix):
        la.inverse(singular)
    ill = stack.copy()
    ill[4] = np.diag([1.0, 1.0, 1e-15])
    with pytest.raises(IllConditioned):
        la.inverse(ill)
    ill[4] = np.diag([1.0, 1.0, 1e-7])
    la.inverse(ill)
    with pytest.raises(IllConditioned):
        la.inverse(ill, cond_cap=1e6)


def test_inv_core_raises_the_first_failing_slice_alone():
    # The library's core raises the error of the first slice, in C order, that fails
    # alone: its type, its message and its flat index as the error's slice.  The public
    # inverse keeps the stack's message: any singular slice, or the largest estimate.
    eye = np.eye(2, dtype=complex)
    ill_15, ill_16 = (np.diag([1.0, s]).astype(complex) for s in (1e-15, 1e-16))
    singular = np.diag([1.0, 0.0]).astype(complex)

    def lone_error(m):
        with pytest.raises(SectorlabError) as info:
            la._inv(m)
        return type(info.value), str(info.value)

    cases = [((eye, ill_15, ill_16), 1, IllConditioned, "1.000e[+]16"),  # the first of two over the cap
             ((eye, ill_16, ill_15), 1, IllConditioned, "1.000e[+]16"),
             ((eye, ill_15, singular), 1, SingularMatrix, None),  # ill-conditioned before singular
             ((singular, ill_15, eye), 0, SingularMatrix, None)]
    for slices, first, public, public_estimate in cases:
        with pytest.raises(SectorlabError) as info:
            la._inv(np.stack(slices))
        assert info.value.slice == first
        assert (type(info.value), str(info.value)) == lone_error(slices[first])
        with pytest.raises(public, match=public_estimate):
            la.inverse(np.stack(slices))
    assert lone_error(ill_15) == (IllConditioned, "condition estimate 1.000e+15 exceeds cap 1e+14")
    # a stack of stacks counts its slices in C order
    with pytest.raises(IllConditioned) as info:
        la._inv(np.stack([np.stack([eye, eye, eye]), np.stack([eye, ill_16, ill_15])]))
    assert info.value.slice == 4 and "1.000e+16" in str(info.value)
    # slices whose squares overflow or underflow pass alone, and so in a stack
    scaled = np.stack([1e160 * eye, 1e-160 * eye, eye, 1e200 * ill_15])
    with pytest.raises(IllConditioned, match="1.000e[+]15") as info:
        la._inv(scaled)
    assert info.value.slice == 3
    assert np.array_equal(la._inv(scaled[:3]), np.linalg.inv(scaled[:3]))


def test_inverse_stack_validation():
    with pytest.raises(DimensionMismatch):
        la.inverse(np.ones((2, 3, 4)))
    bad = np.stack([np.eye(2), np.eye(2)])
    bad[1, 0, 0] = np.nan
    with pytest.raises(ValueError):
        la.inverse(bad)


# ----------------------------------------------------------------- herm_eig


def test_herm_eig_examples():
    w, _ = la.herm_eig(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(w, [1.0, 3.0])
    w, _ = la.herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(w, [-1.0, 1.0])
    w, v = la.herm_eig(2.0 * np.eye(2))
    np.testing.assert_allclose(w, [2.0, 2.0])
    np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-15)


def test_herm_eig_residual_and_unitarity_1000_matrices():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        h = _rand_herm(rng, d)
        w, v = la.herm_eig(h)
        hn = np.linalg.norm(h)
        assert np.all(np.diff(w) >= 0)
        assert np.linalg.norm(h @ v - v * w) <= 1e-12 * max(hn, 1e-30) * d
        assert np.linalg.norm(v.conj().T @ v - np.eye(d)) <= 1e-12 * d


def test_herm_eig_matches_numpy_eigenvalues():
    rng = np.random.default_rng(12)
    for d in (2, 3, 6):
        h = _rand_herm(rng, d)
        w, _ = la.herm_eig(h)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(h), atol=1e-12 * np.linalg.norm(h))


# --------------------------------------------------------- hpd power / log


def test_hpd_power_examples():
    np.testing.assert_allclose(la.hpd_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-14)
    rng = np.random.default_rng(3)
    h = la.symmetrize(np.diag([1.0, 2.0, 5.0]) + 0.1 * _rand_herm(rng, 3))
    np.testing.assert_allclose(la.hpd_power(h, 1.0), h, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(la.hpd_power(np.array([[8.0]]), 1 / 3), [[2.0]], rtol=1e-14)


def test_hpd_power_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        la.hpd_power(np.diag([1.0, -1.0]), 0.5)
    with pytest.raises(NotPositiveDefinite):
        la.hpd_log(np.diag([0.0, 1.0]))


def test_hpd_power_group_law():
    rng = np.random.default_rng(21)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        h = la.symmetrize(_rand_herm(rng, d) + np.eye(d) * 4.0)
        for p, q in ((0.5, 0.5), (0.3, -0.2), (1.5, -0.5)):
            lhs = la.hpd_power(h, p) @ la.hpd_power(h, q)
            rhs = la.hpd_power(h, p + q)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_hpd_log_examples_and_power_compat():
    np.testing.assert_allclose(la.hpd_log(np.diag([1.0, math.e])), np.diag([0.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(la.hpd_log(np.eye(3)), np.zeros((3, 3)), atol=1e-15)
    np.testing.assert_allclose(la.hpd_log(np.diag([math.e**2, math.e**3])), np.diag([2.0, 3.0]), rtol=1e-13)
    rng = np.random.default_rng(22)
    h = la.symmetrize(_rand_herm(rng, 4) + 5.0 * np.eye(4))
    for p in (0.5, 2.0, -1.0):
        lhs = la.hpd_log(la.hpd_power(h, p))
        rhs = p * la.hpd_log(h)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1e-30)


# -------------------------------------------------------------- loewner/op


def test_loewner_examples():
    tol = la.LoewnerTolerance(0.0, 0.0)
    holds, margin = la.loewner_geq(np.diag([2.0, 2.0]), np.eye(2), tol)
    assert holds and margin == pytest.approx(1.0)
    holds, margin = la.loewner_geq(np.diag([2.0, 0.5]), np.eye(2), tol)
    assert not holds and margin == pytest.approx(-0.5)
    x = la.symmetrize(np.array([[2, 1j], [-1j, 3]], dtype=complex))
    holds, margin = la.loewner_geq(x, x, tol)
    assert holds and margin == pytest.approx(0.0, abs=1e-15)


def test_loewner_mutual_implies_equal():
    rng = np.random.default_rng(31)
    tol = la.LoewnerTolerance(0.0, 0.0)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        x = _rand_herm(rng, d)
        perturb = rng.choice([0.0, 1e-16, 1e-3])
        y = la.symmetrize(x + perturb * _rand_herm(rng, d))
        fwd, _ = la.loewner_geq(x, y, tol)
        bwd, _ = la.loewner_geq(y, x, tol)
        if fwd and bwd:
            big = max(np.linalg.norm(x, 2), np.linalg.norm(y, 2))
            assert np.linalg.norm(x - y, 2) <= d * 1e-12 * big


def test_loewner_margin_normalizes_by_larger_norm():
    tol = la.LoewnerTolerance(0.0, 0.0)
    x = np.diag([4.0, 0.5])
    y = np.eye(2)
    holds, margin, normalized = la.loewner_margin(x, y, tol)
    assert (holds, margin) == la.loewner_geq(x, y, tol)
    assert not holds and margin == pytest.approx(-0.5)
    assert normalized == pytest.approx(-0.5 / 4.0)
    holds, margin, normalized = la.loewner_margin(np.zeros((2, 2)), np.zeros((2, 2)), tol)
    assert holds and margin == 0.0 and normalized == 0.0


def test_loewner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        la.loewner_geq(np.eye(2), np.eye(3))


def test_loewner_tolerance_validation():
    with pytest.raises(ValueError):
        la.LoewnerTolerance(-1.0, 0.0)
    with pytest.raises(ValueError):
        la.LoewnerTolerance(0.0, math.inf)


def test_op_norm_examples():
    assert la.op_norm(np.diag([2.0, 3.0])) == pytest.approx(3.0)
    assert la.op_norm(np.eye(4)) == pytest.approx(1.0)
    assert la.op_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)


def test_op_norm_psd_is_largest_eigenvalue():
    rng = np.random.default_rng(41)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        h = _rand_herm(rng, d)
        psd = la.symmetrize(h @ h)
        w, _ = la.herm_eig(psd)
        assert la.op_norm(psd) == pytest.approx(w[-1], rel=1e-12)


def test_stacked_margins_and_hpd_maps_equal_each_slice_bitwise():
    # A stack (..., d, d) gives, slice by slice, the bits of the lone call.
    rng = np.random.default_rng(51)
    tol = la.LoewnerTolerance()
    for d in (1, 2, 3, 5):
        x = np.stack([[_rand_herm(rng, d) for _ in range(3)] for _ in range(4)])
        y = np.stack([[_rand_herm(rng, d) for _ in range(3)] for _ in range(4)])
        hpd = la.symmetrize(x @ x + 0.5 * np.eye(d))
        holds, margin, normalized = la.loewner_margin(x, y, tol)
        assert holds.shape == margin.shape == normalized.shape == (4, 3)
        norms = la.op_norm(x)
        powers = la.hpd_power(hpd, 0.3)
        logs = la.hpd_log(hpd)
        for i in range(4):
            for j in range(3):
                lone = la.loewner_margin(x[i, j], y[i, j], tol)
                assert (holds[i, j], margin[i, j], normalized[i, j]) == lone
                assert norms[i, j] == la.op_norm(x[i, j])
                assert powers[i, j].tobytes() == la.hpd_power(hpd[i, j], 0.3).tobytes()
                assert logs[i, j].tobytes() == la.hpd_log(hpd[i, j]).tobytes()
    with pytest.raises(NotPositiveDefinite, match="-2.000e"):
        la.hpd_log(np.stack([np.eye(2), np.diag([-1.0, 1.0]), np.diag([-2.0, 1.0])]))


def test_loewner_margin_is_numpy_eigvalsh_bitwise():
    # The margin of each slice of a stack is bitwise np.linalg.eigvalsh of the
    # difference of the symmetrized comparands, the normalization the larger
    # |eigenvalue| of either side by the same call; comparands that overflow there
    # raise the validator's ValueError.
    rng = np.random.default_rng(52)
    for d in (1, 2, 3, 6):
        x = la.symmetrize(rng.standard_normal((5, 4, d, d)) + 1j * rng.standard_normal((5, 4, d, d)))
        y = la.symmetrize(rng.standard_normal((5, 4, d, d)) + 1j * rng.standard_normal((5, 4, d, d)))
        _, margin, normalized = la.loewner_margin(x, y)
        assert margin.tobytes() == np.linalg.eigvalsh(x - y)[..., 0].tobytes()
        big = np.maximum(np.abs(np.linalg.eigvalsh(x)).max(axis=-1), np.abs(np.linalg.eigvalsh(y)).max(axis=-1))
        assert normalized.tobytes() == (margin / big).tobytes()
    stack = np.stack([np.eye(2), 1e308 * np.eye(2)])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        la.loewner_margin(stack, -stack)


def test_lone_margins_are_python_scalars():
    holds, margin, normalized = la.loewner_margin(np.diag([2.0, 1.0]), np.eye(2))
    assert type(holds) is bool and type(margin) is float and type(normalized) is float
    holds, margin = la.loewner_geq(np.eye(2), np.diag([2.0, 1.0]))
    assert type(holds) is bool and type(margin) is float
    assert type(la.op_norm(np.eye(2))) is float


# ------------------------------------------------------------- accretivity


def test_accretive_matrix_caches_min_eigenvalue():
    acc = la.AccretiveMatrix.from_matrix(A_CANON)
    oracle = float(np.linalg.eigvalsh(la.real_part(A_CANON))[0])
    assert acc.re_min_eig == pytest.approx(oracle, rel=1e-12)
    assert acc.dim == 2
    assert not acc.mat.flags.writeable


def test_accretive_matrix_rejects_indefinite_real_part():
    with pytest.raises(NotAccretive):
        la.AccretiveMatrix.from_matrix(np.diag([1.0, -1.0]))
    # strictly positive but below the relative floor
    with pytest.raises(NotAccretive):
        la.AccretiveMatrix.from_matrix(np.diag([1.0, 1e-12]))


def test_accretive_matrix_rejects_oversized():
    with pytest.raises(ValueError):
        la.AccretiveMatrix.from_matrix(np.eye(65))


def test_as_matrix_rejects_nonfinite_and_nonsquare():
    with pytest.raises(ValueError):
        la.as_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        la.as_matrix(np.array([[1, 0], [complex(0.0, np.inf), 1]]))
    with pytest.raises(DimensionMismatch):
        la.as_matrix(np.ones((2, 3)))


def test_overflowing_products_are_refused_as_non_finite():
    # The private cores take matrices the library built from validated ones, and
    # check only that these are finite: a Gram matrix, a difference of Loewner
    # comparands, a spectral power or a real part that overflows raises the
    # validator's ValueError, as when the public functions validated them.
    cases = [lambda: la.op_norm(1e300 * np.ones((2, 2))),
             lambda: la.loewner_geq(1e308 * np.eye(2), -1e308 * np.eye(2)),
             lambda: la.hpd_power(1e200 * np.eye(2), 2.0),
             lambda: la.AccretiveMatrix.from_matrix([[1e308, 1.7e308], [1.7e308, 1.0]])]
    with np.errstate(over="ignore", invalid="ignore"):
        for call in cases:
            with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
                call()


def test_none_entries_are_named():
    # numpy coerces None to NaN; the validator names None before it coerces
    from sectorlab.means import geometric_mean

    for bad in (None, [[None, 1], [2, 3]], np.array([[1, 2], [3, None]], dtype=object)):
        for call in (la.as_matrix, la.inverse, lambda m: geometric_mean(m, np.eye(2), 0.3)):
            with pytest.raises(TypeError, match="^matrix entries must be numbers, got None$"):
                call(bad)
    got = la.as_matrix(np.array([[1, 2.5], [3j, 4]], dtype=object))
    assert got.tobytes() == la.as_matrix([[1, 2.5], [3j, 4]]).tobytes()


def test_empty_input_is_rejected():
    # One validator guards every public function that takes matrices: a 0x0
    # matrix and an empty stack raise DimensionMismatch, not an IndexError,
    # numpy's zero-size ValueError or an empty result.
    from sectorlab import entropy, means

    ok = np.eye(2, dtype=complex)
    pair_functions = [
        lambda a, b: means.arithmetic_mean(a, b, 0.3),
        lambda a, b: means.harmonic_mean(a, b, 0.3),
        lambda a, b: means.geometric_mean(a, b, 0.3),
        lambda a, b: means.geometric_mean_adaptive(a, b, 0.3),
        lambda a, b: means.geometric_mean_hpd(a, b, 0.3),
        means.drury_mean,
        means.drury_mean_adaptive,
        entropy.relative_entropy,
        entropy.relative_entropy_adaptive,
        entropy.relative_entropy_hpd,
        lambda a, b: entropy.tsallis_entropy(a, b, 0.3),
        lambda a, b: entropy.tsallis_entropy_adaptive(a, b, 0.3),
        lambda a, b: entropy.tsallis_from_mean(a, b, 0.3),
        lambda a, b: entropy.tsallis_limit_probe(a, b, [0.5, 0.1]),
        la.loewner_geq,
        la.loewner_margin,
    ]
    functions = [
        la.as_matrix, la.AccretiveMatrix.from_matrix, la.inverse, la.op_norm, la.herm_eig,
        la.symmetrize, la.real_part, la.imag_part, la.hpd_log, lambda a: la.hpd_power(a, 0.5),
    ]
    functions += [lambda a, f=f: f(a, a) for f in pair_functions]
    functions += [lambda a, f=f: f(a, ok) for f in pair_functions]
    for f in functions:
        with pytest.raises(DimensionMismatch):
            f(np.zeros((0, 0)))
    stack_functions = [la.inverse, la.op_norm, la.herm_eig, la.symmetrize, la.real_part,
                       la.hpd_log, lambda a: la.loewner_geq(a, a)]
    for f in stack_functions:
        for shape in ((0, 3, 3), (2, 0, 0)):
            with pytest.raises(DimensionMismatch):
                f(np.zeros(shape, dtype=complex))
