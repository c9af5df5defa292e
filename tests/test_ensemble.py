import math
import warnings

import numpy as np
import pytest

from sectorlab.ensemble import (
    GENERATOR_NAME,
    SectorSpec,
    _random_accretive_stack,
    _random_accretives,
    _random_unit_vectors,
    derive_seed,
    random_accretive,
    random_hpd,
    random_unit_vectors,
)
from sectorlab.errors import NotAccretive
from sectorlab.linalg import AccretiveMatrix, imag_part, real_part
from sectorlab.verify import (
    _TAG_PAIR_A,
    _TAG_PAIR_B,
    ENSEMBLE_COND_CAP,
    EnsembleSpec,
    _evaluate_pairs,
    trial_pair,
)


def test_generator_name_recorded():
    assert GENERATOR_NAME == "pcg64-seedsequence"


# --------------------------------------------------------------- random_hpd


def test_hpd_determinism():
    a = random_hpd(4, 50.0, 123)
    b = random_hpd(4, 50.0, 123)
    assert np.array_equal(a, b)
    c = random_hpd(4, 50.0, 124)
    assert not np.array_equal(a, c)


def test_hpd_cond_cap_one_is_identity():
    h = random_hpd(5, 1.0, 7)
    np.testing.assert_allclose(h, np.eye(5), atol=1e-13)


def test_hpd_dim_one_in_range():
    for seed in range(20):
        h = random_hpd(1, 100.0, seed)
        val = h[0, 0].real
        assert 0.1 * (1 - 1e-12) <= val <= 10.0 * (1 + 1e-12)


def test_hpd_eigenvalue_containment():
    for seed in range(30):
        cc = 100.0
        h = random_hpd(4, cc, seed)
        w = np.linalg.eigvalsh(h)
        assert w[0] >= (1 - 1e-12) / math.sqrt(cc)
        assert w[-1] <= (1 + 1e-12) * math.sqrt(cc)
        assert np.array_equal(h, h.conj().T)


def test_hpd_validates_arguments():
    with pytest.raises(ValueError):
        random_hpd(0, 10.0, 1)
    with pytest.raises(ValueError):
        random_hpd(2, 0.5, 1)
    for bad in (2.5, True, 65):
        with pytest.raises(ValueError, match="dim"):
            random_hpd(bad, 10.0, 1)


# --------------------------------------------------------- random_accretive


def test_accretive_determinism():
    spec = SectorSpec(dim=3, angle=0.6, cond_cap=50.0, seed=99)
    a = random_accretive(spec)
    b = random_accretive(spec)
    assert np.array_equal(a.mat, b.mat)
    assert a.re_min_eig == b.re_min_eig


def test_accretive_zero_angle_is_hpd():
    spec = SectorSpec(dim=4, angle=0.0, cond_cap=20.0, seed=5)
    a = random_accretive(spec)
    assert np.array_equal(a.mat, a.mat.conj().T)
    assert np.linalg.eigvalsh(real_part(a.mat))[0] > 0


def test_accretive_scalar_sector():
    spec = SectorSpec(dim=1, angle=math.pi / 4, cond_cap=10.0, seed=3)
    z = random_accretive(spec).mat[0, 0]
    assert 0 < abs(z.imag) <= z.real * (1 + 1e-12)


def test_accretive_sector_containment_by_rayleigh_sampling():
    rng = np.random.default_rng(1234)
    for seed in range(10):
        spec = SectorSpec(dim=3, angle=0.5, cond_cap=80.0, seed=seed)
        a = random_accretive(spec).mat
        re = real_part(a)
        im = imag_part(a)
        bound = math.tan(spec.angle)
        for _ in range(100):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            num = np.vdot(x, im @ x).real
            den = np.vdot(x, re @ x).real
            assert abs(num) <= bound * den + 1e-10


def test_accretive_validation_over_many_draws():
    # every draw passes AccretiveMatrix validation (re_min_eig > 0)
    count = 0
    for i in range(10_000):
        dim = 1 + (i % 4)
        angle = (0.0, 0.3, 0.6, 0.77)[i % 4] * (math.pi / 2) * 0.99
        a = random_accretive(SectorSpec(dim=dim, angle=angle, cond_cap=100.0, seed=i))
        assert a.re_min_eig > 0
        count += 1
    assert count == 10_000


def test_sector_spec_validation():
    with pytest.raises(ValueError):
        SectorSpec(dim=0, angle=0.1, cond_cap=10.0, seed=0)
    with pytest.raises(ValueError):
        SectorSpec(dim=2, angle=math.pi / 2, cond_cap=10.0, seed=0)
    with pytest.raises(ValueError):
        SectorSpec(dim=2, angle=0.1, cond_cap=0.0, seed=0)
    for bad in (-1, 2.5, False):
        with pytest.raises(ValueError, match="seed"):
            SectorSpec(dim=2, angle=0.1, cond_cap=10.0, seed=bad)
    for bad in (0, 2.5, True, "3", 65):
        with pytest.raises(ValueError, match="dim"):
            SectorSpec(dim=bad, angle=0.1, cond_cap=10.0, seed=0)
    # a numpy integer is a seed, and draws the same matrix as the Python int
    spec = SectorSpec(dim=2, angle=0.1, cond_cap=10.0, seed=np.int64(4))
    assert np.array_equal(random_accretive(spec).mat,
                          random_accretive(SectorSpec(dim=2, angle=0.1, cond_cap=10.0, seed=4)).mat)


# ------------------------------------------------------------ stacked draws

ANGLES = (0.0, 0.4 * (math.pi / 2), 0.95 * (math.pi / 2))


def test_stacked_draws_are_the_lone_draws_bitwise():
    # A report draws all its pairs in one stacked pass, each matrix from its own
    # seeded streams: bitwise trial_pair's, which is random_accretive's, matrix
    # and smallest real-part eigenvalue alike, whatever the stack around it.
    for dim in (1, 3, 8):
        for angle in ANGLES:
            for seed in (0, 5, 2**40 + 3):
                spec = EnsembleSpec(dim=dim, trials=4, seed=seed, sector_angle=angle)
                p = _evaluate_pairs(spec)
                for i in range(spec.trials):
                    pair = trial_pair(spec, i)
                    for tag, got, stacked in zip((_TAG_PAIR_A, _TAG_PAIR_B), pair, (p.a, p.b)):
                        lone = random_accretive(SectorSpec(dim=dim, angle=angle,
                                                           cond_cap=ENSEMBLE_COND_CAP,
                                                           seed=derive_seed(seed, tag, i)))
                        assert got.mat.tobytes() == lone.mat.tobytes() == stacked[i].tobytes()
                        assert got.re_min_eig == lone.re_min_eig
                        assert not got.mat.flags.writeable
                seeds = [seed + k for k in range(5)]
                for a, seed_k in zip(_random_accretives(dim, angle, 40.0, seeds), seeds):
                    lone = random_accretive(SectorSpec(dim=dim, angle=angle, cond_cap=40.0,
                                                       seed=seed_k))
                    assert a.mat.tobytes() == lone.mat.tobytes()
                    assert a.re_min_eig == lone.re_min_eig
                    if angle == 0.0:
                        assert random_hpd(dim, 40.0, seed_k).tobytes() == lone.mat.tobytes()


def test_stacked_draw_raises_for_its_first_non_accretive_slice():
    # At condition cap 1e20 the seed-2 and seed-3 draws fail the relative floor
    # and seeds 0 and 1 pass.  A stack holding them raises NotAccretive with the
    # message its first failing seed gives alone.
    spec = SectorSpec(dim=3, angle=0.3, cond_cap=1e20, seed=2)
    with pytest.raises(NotAccretive) as lone:
        random_accretive(spec)
    random_accretive(SectorSpec(dim=3, angle=0.3, cond_cap=1e20, seed=0))
    random_accretive(SectorSpec(dim=3, angle=0.3, cond_cap=1e20, seed=1))
    for seeds in ([0, 2, 1], [2, 3], [1, 0, 2]):
        for draws in (_random_accretives, _random_accretive_stack):
            with pytest.raises(NotAccretive) as stacked:
                draws(3, 0.3, 1e20, seeds)
            assert str(stacked.value) == str(lone.value)
    # the validator itself: one bad slice among good ones
    good = np.diag([2.0, 1.0]).astype(complex)
    bad = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(NotAccretive) as alone:
        AccretiveMatrix.from_matrix(bad)
    with pytest.raises(NotAccretive) as stacked:
        AccretiveMatrix._from_stack(np.stack([good, bad, good]))
    assert str(stacked.value) == str(alone.value)


def test_draw_with_a_rounded_negative_eigenvalue_raises_not_accretive():
    # At condition cap 1e24, eigh leaves the seed-5 P a smallest eigenvalue of
    # about -1e-9.  Its root is 0, not NaN, so a sectorial draw raises the
    # accretivity check's NotAccretive, with no warning on the way, as P alone
    # (angle 0) does.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for angle in (0.0, 0.3, 1.2):
            with pytest.raises(NotAccretive, match=r"^smallest eigenvalue of the real part is -"):
                random_accretive(SectorSpec(dim=3, angle=angle, cond_cap=1e24, seed=5))


# ------------------------------------------------------ random_unit_vectors


def test_unit_vectors_normalized_and_deterministic():
    xs = random_unit_vectors(5, 8, 42)
    assert xs.shape == (8, 5)
    np.testing.assert_allclose(np.linalg.norm(xs, axis=1), np.ones(8), atol=1e-14)
    assert np.array_equal(xs, random_unit_vectors(5, 8, 42))
    # a stack of seeds, normalized in one pass, gives each seed's vectors bitwise
    seeds = [42, 7, 2**40 + 3, 42]
    for dim, count in ((5, 8), (1, 3), (16, 2)):
        stacked = _random_unit_vectors(dim, count, seeds)
        for got, seed in zip(stacked, seeds, strict=True):
            assert got.tobytes() == random_unit_vectors(dim, count, seed).tobytes()


def test_unit_vector_scalar_case():
    v = random_unit_vectors(1, 1, 9)
    assert abs(abs(v[0, 0]) - 1.0) <= 1e-14


def test_unit_vectors_validation():
    with pytest.raises(ValueError):
        random_unit_vectors(3, 0, 1)
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="count"):
            random_unit_vectors(3, bad, 1)
        with pytest.raises(ValueError, match="dim"):
            random_unit_vectors(bad, 3, 1)


def test_derive_seed_stability():
    # frozen values: the per-trial stream derivation must never change,
    # or recorded witness seeds stop reproducing
    assert derive_seed(0, 10, 0) == derive_seed(0, 10, 0)
    assert derive_seed(0, 10, 0) != derive_seed(0, 10, 1)
    assert derive_seed(0, 10, 0) != derive_seed(0, 11, 0)
