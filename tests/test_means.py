import math

import numpy as np
import pytest

from conftest import PAIR_A, PAIR_B, PAIR_GEOMETRIC_03, accretive_pairs, hpd_pairs
from sectorlab.errors import DimensionMismatch, InvalidScalar, InvalidWeight
from sectorlab.linalg import (
    AccretiveMatrix,
    LoewnerTolerance,
    hpd_power,
    inverse,
    loewner_geq,
    real_part,
)
from sectorlab.means import (
    GeometricMeanConfig,
    arithmetic_mean,
    check_weight,
    drury_mean,
    drury_mean_adaptive,
    geometric_mean,
    geometric_mean_adaptive,
    geometric_mean_hpd,
    harmonic_mean,
    scalar_geometric,
)
from sectorlab.quadrature import gauss_jacobi, gauss_legendre, integrate_matrix


def rel_frob(x, y):
    return np.linalg.norm(x - y) / max(np.linalg.norm(y), 1e-300)


# ------------------------------------------------------------------- weight


def test_weight_validation():
    assert check_weight(0.25) == 0.25
    for lam in (0.0, 1.0, -0.1, 2.0, math.nan):
        with pytest.raises(InvalidWeight):
            check_weight(lam)


def test_config_validation():
    with pytest.raises(ValueError):
        GeometricMeanConfig(rule_nodes=0)
    with pytest.raises(ValueError):
        GeometricMeanConfig(tol=0.0)


# --------------------------------------------------------- arith / harmonic


def test_arithmetic_examples():
    got = arithmetic_mean(np.diag([1.0, 4.0]), np.diag([9.0, 1.0]), 0.25)
    np.testing.assert_allclose(got, np.diag([3.0, 3.25]), atol=0)
    np.testing.assert_allclose(arithmetic_mean(PAIR_A, PAIR_A, 0.3), PAIR_A, atol=0)


def test_arithmetic_real_part_commutes():
    for lam in (0.1, 0.5, 0.9):
        lhs = real_part(arithmetic_mean(PAIR_A, PAIR_B, lam))
        rhs = arithmetic_mean(real_part(PAIR_A), real_part(PAIR_B), lam)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_arithmetic_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        arithmetic_mean(np.eye(2), np.eye(3), 0.5)


def test_harmonic_examples():
    got = harmonic_mean(np.array([[1.0]]), np.array([[3.0]]), 0.5)
    assert got[0, 0].real == pytest.approx(1.5, rel=1e-14)
    got = harmonic_mean(PAIR_A, PAIR_A, 0.3)
    assert rel_frob(got, PAIR_A) <= 1e-12
    got = harmonic_mean(np.diag([1.0, 2.0]), np.diag([3.0, 6.0]), 0.5)
    np.testing.assert_allclose(got, np.diag([1.5, 3.0]), rtol=1e-14)


def test_harmonic_arithmetic_duality():
    for a, b in accretive_pairs(5, (2, 3, 4), 0.5, seed=90):
        for lam in (0.2, 0.5, 0.8):
            lhs = harmonic_mean(a, b, lam)
            rhs = inverse(arithmetic_mean(inverse(a), inverse(b), lam))
            assert rel_frob(lhs, rhs) <= 1e-10


def test_means_of_accretive_stay_accretive():
    # convex-cone argument for arithmetic/harmonic; re-validation on demand
    for a, b in accretive_pairs(4, (2, 3), 0.6, seed=91):
        for lam in (0.25, 0.75):
            AccretiveMatrix.from_matrix(arithmetic_mean(a, b, lam))
            AccretiveMatrix.from_matrix(harmonic_mean(a, b, lam))
            AccretiveMatrix.from_matrix(geometric_mean(a, b, lam))


# ----------------------------------------------------------- geometric HPD


def test_geometric_hpd_examples():
    got = geometric_mean_hpd(np.diag([1.0, 4.0]), np.diag([9.0, 1.0]), 0.5)
    np.testing.assert_allclose(got, np.diag([3.0, 2.0]), rtol=1e-13)
    h = np.diag([2.0, 5.0])
    np.testing.assert_allclose(geometric_mean_hpd(h, h, 0.3), h, rtol=1e-13)
    b = np.array([[2.0, 0.5], [0.5, 1.0]])
    np.testing.assert_allclose(geometric_mean_hpd(np.eye(2), b, 0.4), hpd_power(b, 0.4), rtol=1e-12)


def test_agh_chain_for_hpd():
    tol = LoewnerTolerance()
    for a, b in hpd_pairs(200, (2, 3, 4, 5, 6), seed=17):
        for lam in (0.1, 0.5, 0.9):
            low = harmonic_mean(a, b, lam)
            mid = geometric_mean_hpd(a, b, lam)
            high = arithmetic_mean(a, b, lam)
            holds, _ = loewner_geq(mid, low, tol)
            assert holds
            holds, _ = loewner_geq(high, mid, tol)
            assert holds


# ------------------------------------------------------- geometric integral


def test_geometric_commuting_example():
    got = geometric_mean(np.diag([1.0, 4.0]), np.diag([9.0, 1.0]), 0.5)
    np.testing.assert_allclose(got, np.diag([3.0, 2.0]), atol=1e-10)


def test_geometric_scalar_example():
    got = geometric_mean(np.array([[2.0]]), np.array([[8.0]]), 1.0 / 3.0)
    assert got[0, 0].real == pytest.approx(2.0 ** (2 / 3) * 8.0 ** (1 / 3), abs=1e-10)


def test_geometric_frozen_baseline_64_nodes():
    got = geometric_mean(PAIR_A, PAIR_B, 0.3)
    assert np.linalg.norm(got - PAIR_GEOMETRIC_03) <= 1e-9


def test_geometric_hpd_agreement():
    for a, b in hpd_pairs(60, (2, 3, 4, 5, 6), seed=23):
        for lam in (0.1, 0.25, 0.5, 0.75, 0.9):
            got = geometric_mean(a, b, lam)
            want = geometric_mean_hpd(a, b, lam)
            assert rel_frob(got, want) <= 1e-8


def test_geometric_symmetry():
    for a, b in accretive_pairs(200, (2, 3, 4, 5, 6), 0.5, seed=29):
        for lam in (0.1, 0.25, 0.5, 0.75, 0.9):
            left = geometric_mean(a, b, lam)
            right = geometric_mean(b, a, 1.0 - lam)
            assert rel_frob(left, right) <= 1e-10


def test_geometric_idempotence():
    for a, _ in accretive_pairs(6, (2, 4), 0.7, seed=31):
        for lam in (0.2, 0.5, 0.9):
            assert rel_frob(geometric_mean(a, a, lam), a) <= 1e-10


def test_geometric_homogeneity():
    for a, b in accretive_pairs(6, (2, 3), 0.5, seed=37):
        for lam in (0.2, 0.5, 0.8):
            base = geometric_mean(a, b, lam)
            for alpha, beta in ((0.5, 0.5), (2.0, 2.0), (7.3, 0.5), (0.5, 7.3)):
                scaled = geometric_mean(alpha * a, beta * b, lam)
                want = scalar_geometric(alpha, beta, lam) * base
                assert rel_frob(scaled, want) <= 1e-9


def test_geometric_adaptive_matches_fixed_rule():
    res = geometric_mean_adaptive(PAIR_A, PAIR_B, 0.3, tol=1e-12)
    assert res.error_estimate <= 1e-12
    assert np.linalg.norm(res.value - PAIR_GEOMETRIC_03) <= 1e-11
    cfg = GeometricMeanConfig(adaptive=True, tol=1e-12)
    np.testing.assert_allclose(geometric_mean(PAIR_A, PAIR_B, 0.3, cfg), res.value, atol=0)


def test_geometric_half_line_form_consistency():
    # Independent evaluation of the original half-line integral
    #   sin(lam pi)/pi * int_0^inf t^(lam-1) (A^-1 + t B^-1)^-1 dt
    # by composite Gauss-Legendre over log-spaced panels; confirms the
    # compact-interval Beta-kernel form used in production.
    lam = 0.5
    ia = inverse(PAIR_A)
    ib = inverse(PAIR_B)
    rule = gauss_legendre(16)
    total = np.zeros_like(PAIR_A)
    lo = 1e-12
    while lo < 1e12:
        hi = lo * 2.0
        width = hi - lo
        for t01, w in zip(rule.nodes, rule.weights):
            t = lo + width * t01
            total = total + width * w * t ** (lam - 1.0) * inverse(ia + t * ib)
        lo = hi
    half_line = math.sin(lam * math.pi) / math.pi * total
    production = geometric_mean(PAIR_A, PAIR_B, lam)
    assert rel_frob(half_line, production) <= 1e-4


# -------------------------------------------------------------------- drury


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_batched_means_equal_single_calls_bitwise(dim, monkeypatch):
    # Each integral body (both means, both entropies) takes stacked pairs; a
    # fixed rule integrates them in batches of bounded size, node doubling one
    # pair at a time.  Every slice is bitwise the result the public function
    # gives for that pair alone, with its nodes_used and its error estimate,
    # a Python float or None.
    import sectorlab.quadrature as quadrature
    from sectorlab import entropy
    from sectorlab import means

    pairs = accretive_pairs(5, (dim,), 0.9, seed=41)
    a = np.stack([x for x, _ in pairs])
    b = np.stack([y for _, y in pairs])
    # (stacked body, lone fixed function, lone adaptive function), per weight;
    # each lambda binds its weight, which it would otherwise read after the loop
    cases = [
        (lambda a, b, cfg, lam=lam: means._geometric_mean(a, b, lam, cfg),
         lambda x, y, cfg, lam=lam: geometric_mean(x, y, lam, cfg),
         lambda x, y, tol, lam=lam: geometric_mean_adaptive(x, y, lam, tol))
        for lam in (0.1, 0.5, 0.9, 1.0 - 0.9)
    ] + [
        (lambda a, b, cfg, lam=lam: entropy._tsallis_entropy(a, b, lam, cfg),
         lambda x, y, cfg, lam=lam: entropy.tsallis_entropy(x, y, lam, cfg),
         lambda x, y, tol, lam=lam: entropy.tsallis_entropy_adaptive(x, y, lam, tol))
        for lam in (0.3, 0.5)
    ] + [
        (means._drury_mean, drury_mean, drury_mean_adaptive),
        (entropy._entropy, entropy.relative_entropy, entropy.relative_entropy_adaptive),
    ]

    batches = []
    integrate = quadrature._integrate
    monkeypatch.setattr(quadrature, "_integrate",
                        lambda rule, f: batches.append(rule.count) or integrate(rule, f))
    monkeypatch.setattr(quadrature, "_BATCH_ENTRIES", 2 * 64 * dim * dim)
    firsts = []
    for body, fixed, adaptive in cases:
        for cfg in (GeometricMeanConfig(), GeometricMeanConfig(rule_nodes=32)):
            batches.clear()
            got = body(a, b, cfg)
            assert got.value.shape == a.shape
            assert len(batches) == -(-len(pairs) // max(1, 128 // cfg.rule_nodes))
            for k, (x, y) in enumerate(pairs):
                assert got.nodes_used[k] == got[k].nodes_used == cfg.rule_nodes
                assert got.error_estimates[k] is got[k].error_estimate is None
                assert np.array_equal(got.value[k], fixed(x, y, cfg))
        firsts.append(got.value[0])
        cfg = GeometricMeanConfig(adaptive=True, tol=1e-10)
        got = body(a[:2], b[:2], cfg)
        for k, (x, y) in enumerate(pairs[:2]):
            want = adaptive(x, y, cfg.tol)
            res = got[k]
            assert type(res.error_estimate) is float
            assert (res.nodes_used, res.error_estimate) == (want.nodes_used, want.error_estimate)
            assert np.array_equal(res.value, want.value)
            assert np.array_equal(got.value[k], want.value)
    # every case ran at its own weight: no two weights of one body agree
    assert not any(np.array_equal(x, y) for i, x in enumerate(firsts[:4]) for y in firsts[i + 1:4])
    assert not np.array_equal(firsts[4], firsts[5])

    # the mean's arithmetic, one pair at a time: gauged pair, one rule, one scale
    for lam in (0.1, 0.5, 0.9, 1.0 - 0.9):
        got = means._geometric_mean(a, b, lam, GeometricMeanConfig())
        for k, (x, y) in enumerate(pairs):
            sx, sy = np.linalg.norm(x), np.linalg.norm(y)
            scale = sx ** (1.0 - lam) * sy**lam * math.sin(lam * math.pi) / math.pi
            path = means._harmonic_path(x / sx, y / sy)
            want = scale * integrate(gauss_jacobi(64, -lam, lam - 1.0), path)
            assert np.array_equal(got.value[k], want)
            assert np.array_equal(got.value[k], geometric_mean(x, y, lam))


def test_drury_scalar_examples():
    np.testing.assert_allclose(drury_mean(np.eye(2), 4.0 * np.eye(2)), 2.0 * np.eye(2), atol=1e-9)
    got = drury_mean(PAIR_A, PAIR_A)
    assert rel_frob(got, PAIR_A) <= 1e-9


def test_drury_equals_geometric_at_half():
    got = drury_mean(PAIR_A, PAIR_B)
    want = geometric_mean(PAIR_A, PAIR_B, 0.5)
    assert np.linalg.norm(got - want) <= 1e-8
    for a, b in accretive_pairs(20, (2, 3, 4), 0.55, seed=41):
        assert rel_frob(drury_mean(a, b), geometric_mean(a, b, 0.5)) <= 1e-8


def test_drury_adaptive():
    res = drury_mean_adaptive(PAIR_A, PAIR_B, tol=1e-12)
    assert rel_frob(res.value, geometric_mean(PAIR_A, PAIR_B, 0.5)) <= 1e-10


def test_drury_second_resolvent_form():
    # Test-only equivalence: A # B = (2/pi) int_0^inf A (tB + t^-1 A)^-1 B dt/t,
    # reduced by u = t^2/(1+t^2) to (1/pi) sum w_k A (u B + (1-u) A)^-1 B with
    # the Chebyshev rule; no outer inverse, so it is an independent route.
    rule = gauss_jacobi(64, -0.5, -0.5)
    for a, b in ((PAIR_A, PAIR_B), (np.eye(2), 4.0 * np.eye(2))):
        acc = integrate_matrix(rule, lambda u: a @ inverse(u * b + (1.0 - u) * a) @ b)
        alt = acc / math.pi
        assert rel_frob(alt, drury_mean(a, b)) <= 1e-8


def test_drury_rejects_mismatched_shapes():
    with pytest.raises(DimensionMismatch):
        drury_mean(np.eye(2), np.eye(3))


# ------------------------------------------------------------------ scalars


def test_scalar_geometric_examples():
    assert scalar_geometric(1.0, 4.0, 0.5) == pytest.approx(2.0)
    assert scalar_geometric(4.0, 9.0, 0.5) == pytest.approx(6.0)
    assert scalar_geometric(2.0, 8.0, 1.0 / 3.0) == pytest.approx(3.1748021039363987)


def test_scalar_geometric_rejects_nonpositive():
    with pytest.raises(InvalidScalar):
        scalar_geometric(0.0, 1.0, 0.5)
    with pytest.raises(InvalidScalar):
        scalar_geometric(1.0, -2.0, 0.5)
    with pytest.raises(InvalidWeight):
        scalar_geometric(1.0, 2.0, 0.0)
