import math
from math import exp, lgamma

import numpy as np
import pytest
import scipy.special as scipy_special

from conftest import PAIR_A, PAIR_B, PAIR_GEOMETRIC_03, accretive_pairs
from sectorlab.errors import (
    EvaluationFailure,
    InvalidNodeCount,
    InvalidParameters,
    InvalidWeight,
    NoConvergence,
)
from sectorlab.quadrature import (
    beta_normalization,
    gauss_jacobi,
    gauss_legendre,
    integrate_adaptive,
    integrate_matrix,
)


def jacobi_moment(alpha, beta, k):
    # integral of t^(beta+k) (1-t)^alpha over [0,1] = B(beta+k+1, alpha+1)
    return exp(lgamma(beta + k + 1.0) + lgamma(alpha + 1.0) - lgamma(alpha + beta + k + 2.0))


# -------------------------------------------------------------------- rules


def test_legendre_one_node_is_midpoint():
    rule = gauss_legendre(1)
    np.testing.assert_allclose(rule.nodes, [0.5], atol=0)
    np.testing.assert_allclose(rule.weights, [1.0], atol=0)


def test_legendre_two_nodes_integrates_cubics():
    rule = gauss_legendre(2)
    val = float(np.sum(rule.weights * rule.nodes**3))
    assert val == pytest.approx(0.25, abs=1e-15)


def test_legendre_sixteen_nodes_log2():
    rule = gauss_legendre(16)
    val = float(np.sum(rule.weights / (1.0 + rule.nodes)))
    assert val == pytest.approx(math.log(2.0), abs=1e-12)


def test_legendre_weight_sum_is_one():
    for n in (1, 2, 7, 33, 64):
        rule = gauss_legendre(n)
        assert float(np.sum(rule.weights)) == pytest.approx(1.0, abs=1e-13)


def test_invalid_node_counts():
    for n in (0, -1, 4097):
        with pytest.raises(InvalidNodeCount):
            gauss_legendre(n)
    with pytest.raises(InvalidNodeCount):
        gauss_jacobi(0, -0.5, -0.5)


def test_invalid_jacobi_parameters():
    with pytest.raises(InvalidParameters):
        gauss_jacobi(4, -1.0, 0.0)
    with pytest.raises(InvalidParameters):
        gauss_jacobi(4, 0.0, -1.5)


def test_jacobi_weight_sum_examples():
    # lam = 1/2 kernel: B(1/2, 1/2) = pi
    rule = gauss_jacobi(12, -0.5, -0.5)
    assert float(np.sum(rule.weights)) == pytest.approx(math.pi, rel=1e-13)
    # lam = 1/2, f(t) = t: B(3/2, 1/2) = pi/2
    assert float(np.sum(rule.weights * rule.nodes)) == pytest.approx(math.pi / 2, rel=1e-12)
    # lam = 1/4 kernel: B(1/4, 3/4) = pi*sqrt(2)
    rule = gauss_jacobi(12, -0.25, -0.75)
    assert float(np.sum(rule.weights)) == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-12)


def test_jacobi_weight_sum_identity_grid():
    for lam in np.arange(0.05, 0.951, 0.05):
        rule = gauss_jacobi(32, -float(lam), float(lam) - 1.0)
        expected = math.pi / math.sin(lam * math.pi)
        assert float(np.sum(rule.weights)) == pytest.approx(expected, rel=1e-11)


def test_polynomial_exactness():
    for n in (2, 4, 8, 16):
        for alpha, beta in ((0.0, 0.0), (-0.5, -0.5), (-0.3, -0.7), (0.5, -0.25)):
            rule = gauss_jacobi(n, alpha, beta)
            for k in range(2 * n):
                got = float(np.sum(rule.weights * rule.nodes**k))
                want = jacobi_moment(alpha, beta, k)
                assert got == pytest.approx(want, rel=1e-12), (n, alpha, beta, k)


def test_node_containment_and_monotonicity():
    for n in (1, 2, 5, 16, 64, 128):
        for rule in (gauss_legendre(n), gauss_jacobi(n, -0.5, -0.5), gauss_jacobi(n, -0.9, -0.1)):
            assert np.all(rule.nodes > 0.0) and np.all(rule.nodes < 1.0)
            assert np.all(np.diff(rule.nodes) > 0.0)
            assert np.all(rule.weights > 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy-internal divide for a+b = -1
def test_against_scipy_roots_jacobi():
    # independent construction of the same rules: scipy works on [-1, 1]
    # with weight (1-x)^a (1+x)^b; map x -> (x+1)/2, w -> w / 2^(a+b+1).
    for n, a, b in ((8, -0.5, -0.5), (16, -0.3, -0.7), (24, 0.0, 0.0)):
        x, w = scipy_special.roots_jacobi(n, a, b)
        rule = gauss_jacobi(n, a, b)
        np.testing.assert_allclose(rule.nodes, (x + 1.0) / 2.0, atol=1e-13)
        np.testing.assert_allclose(rule.weights, w / 2.0 ** (a + b + 1.0), rtol=1e-11)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy-internal divide for a+b = -1
def test_dense_rules_up_to_512_nodes_are_accurate():
    # Moments against B(beta+k+1, alpha+1); scipy's roots_jacobi weights lose
    # accuracy at these sizes (7e-10 at 512 nodes), so only its nodes are used.
    for n in (128, 256, 512):
        for a, b in ((0.0, 0.0), (-0.3, -0.7), (-0.7, 0.7)):
            rule = gauss_jacobi(n, a, b)
            for k in range(40):
                got = float(np.sum(rule.weights * rule.nodes**k))
                assert got == pytest.approx(jacobi_moment(a, b, k), rel=1e-12), (n, a, b, k)
            x, _ = scipy_special.roots_jacobi(n, a, b)
            np.testing.assert_allclose(rule.nodes, (x + 1.0) / 2.0, rtol=0.0, atol=1e-13)


def test_rules_up_to_512_nodes_do_not_load_scipy():
    # In a fresh process, rules and node doubling that stay at or below 512
    # nodes never import scipy.
    script = """
import json, math, sys
from sectorlab import (gauss_jacobi, gauss_legendre, geometric_mean_adaptive,
                       relative_entropy_adaptive)
from sectorlab.ensemble import SectorSpec, random_accretive

gauss_legendre(512)
gauss_jacobi(512, -0.7, -0.3)
a, b = (random_accretive(SectorSpec(dim=3, angle=0.9 * math.pi / 2, cond_cap=1e4, seed=s)).mat
        for s in (2, 3))
used = [geometric_mean_adaptive(a, b, 0.3, max_nodes=512).nodes_used,
        relative_entropy_adaptive(a, b, max_nodes=512).nodes_used]
print(json.dumps({"nodes_used": used, "scipy": "scipy" in sys.modules}))
"""
    import json
    import os
    import subprocess
    import sys

    import sectorlab

    path = [os.path.dirname(os.path.dirname(sectorlab.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == {"nodes_used": [256, 512], "scipy": False}


def test_large_rule_construction():
    # above 512 nodes the rule comes from scipy's eigh_tridiagonal
    rule = gauss_legendre(1024)
    assert rule.count == 1024
    assert float(np.sum(rule.weights)) == pytest.approx(1.0, abs=1e-13)


def test_rules_are_cached_as_objects():
    # a warm call returns the validated rule it built, keyed by kind as well
    rule = gauss_jacobi(64, -0.3, -0.7)
    assert gauss_jacobi(64, -0.3, -0.7) is rule
    assert gauss_legendre(16) is gauss_legendre(16)
    jacobi = gauss_jacobi(16, 0.0, 0.0)
    assert jacobi.kind == "jacobi" and gauss_legendre(16).kind == "legendre"
    assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable
    # argument checks still run on every call, before the cache is consulted
    with pytest.raises(InvalidNodeCount):
        gauss_jacobi(64.0, -0.3, -0.7)
    with pytest.raises(InvalidParameters):
        gauss_jacobi(64, -1.3, -0.7)


def test_rule_constructor_rejects_malformed_data():
    from sectorlab.quadrature import IntegralResult, QuadratureRule

    with pytest.raises(InvalidParameters):
        QuadratureRule("legendre", 0.0, 0.0, np.array([0.7, 0.3]), np.array([0.5, 0.5]))
    with pytest.raises(InvalidParameters):
        QuadratureRule("legendre", 0.0, 0.0, np.array([0.0, 0.5]), np.array([0.5, 0.5]))
    with pytest.raises(InvalidParameters):
        QuadratureRule("legendre", 0.0, 0.0, np.array([0.3, 0.7]), np.array([0.5, -0.5]))
    with pytest.raises(ValueError):
        IntegralResult(value=np.eye(1), error_estimate=-1.0, nodes_used=16)
    with pytest.raises(ValueError):
        IntegralResult(value=np.eye(1), error_estimate=math.inf, nodes_used=16)


# ---------------------------------------------------------- normalization


def test_beta_normalization_values():
    assert beta_normalization(0.5) == pytest.approx(math.pi, rel=1e-15)
    assert beta_normalization(0.25) == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-14)
    for lam in np.arange(0.1, 0.91, 0.1):
        assert math.sin(lam * math.pi) / math.pi * beta_normalization(float(lam)) == pytest.approx(1.0, rel=1e-14)


def test_beta_normalization_rejects_endpoints():
    for lam in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(InvalidWeight):
            beta_normalization(lam)


# -------------------------------------------------------------- integration


def test_integrate_constant_legendre():
    c = np.array([[2.0, 1j], [-1j, 0.5]])
    rule = gauss_legendre(6)
    np.testing.assert_allclose(integrate_matrix(rule, lambda t: c), c, rtol=1e-13)


def test_integrate_constant_jacobi_normalized():
    c = np.array([[3.0, 0.25j], [-0.25j, 1.0]])
    lam = 0.3
    rule = gauss_jacobi(24, -lam, lam - 1.0)
    got = math.sin(lam * math.pi) / math.pi * integrate_matrix(rule, lambda t: c)
    np.testing.assert_allclose(got, c, rtol=1e-12)


def test_integrate_polynomial_diag():
    rule = gauss_legendre(4)
    got = integrate_matrix(rule, lambda t: np.diag([t, t**2]))
    np.testing.assert_allclose(got, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)


def test_integrate_linearity():
    rule = gauss_legendre(8)
    f = lambda t: np.array([[t, 1.0], [0.0, t**2]])
    g = lambda t: np.array([[math.cos(t), 0.0], [t**3, 1.0]])
    lhs = integrate_matrix(rule, lambda t: f(t) + g(t))
    rhs = integrate_matrix(rule, f) + integrate_matrix(rule, g)
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_integrate_reports_failing_node():
    rule = gauss_legendre(4)

    def bad(t):
        if t > 0.5:
            raise RuntimeError("boom")
        return np.eye(1)

    with pytest.raises(EvaluationFailure) as info:
        integrate_matrix(rule, bad)
    assert info.value.node is not None and info.value.node > 0.5

    with pytest.raises(EvaluationFailure):
        integrate_matrix(rule, lambda t: np.array([[math.inf]]))


def test_adaptive_constant_converges_immediately():
    c = np.array([[4.0, 1.0], [1.0, 4.0]], dtype=complex)
    res = integrate_adaptive(lambda t: c, gauss_legendre, tol=1e-12)
    assert res.nodes_used == 32
    assert res.error_estimate <= 1e-15 * np.linalg.norm(c)
    np.testing.assert_allclose(res.value, c, rtol=1e-13)


def test_adaptive_scalar_geometric_mean_integrand():
    # sin(lam pi)/pi * int t^(lam-1)(1-t)^(-lam) (a !_t b) dt = a^(1-lam) b^lam
    a, b, lam = 2.0, 8.0, 1.0 / 3.0

    def f(t):
        return np.array([[1.0 / ((1.0 - t) / a + t / b)]])

    res = integrate_adaptive(f, lambda n: gauss_jacobi(n, -lam, lam - 1.0), tol=1e-10)
    got = math.sin(lam * math.pi) / math.pi * res.value[0, 0].real
    assert got == pytest.approx(a ** (1 - lam) * b**lam, abs=1e-10)


def test_adaptive_no_convergence_payload():
    # integrand with a near-singularity defeats 64 nodes
    def f(t):
        return np.array([[1.0 / (t + 1e-9)]])

    with pytest.raises(NoConvergence) as info:
        integrate_adaptive(f, gauss_legendre, tol=1e-12, max_nodes=64)
    payload = info.value.payload
    assert payload is not None and payload.nodes_used == 64
    assert payload.error_estimate > 0


def test_adaptive_rejects_bad_arguments():
    from sectorlab.means import geometric_mean_adaptive
    from sectorlab.quadrature import MAX_NODES

    with pytest.raises(ValueError):
        integrate_adaptive(lambda t: np.eye(1), gauss_legendre, tol=0.0)
    with pytest.raises(ValueError):
        integrate_adaptive(lambda t: np.eye(1), gauss_legendre, tol=1e-6, max_nodes=16)
    # a cap above the largest rule is rejected before any doubling
    with pytest.raises(ValueError):
        integrate_adaptive(lambda t: np.eye(1), gauss_legendre, tol=1e-6, max_nodes=2 * MAX_NODES)
    with pytest.raises(ValueError):
        geometric_mean_adaptive(PAIR_A, PAIR_B, 0.3, max_nodes=MAX_NODES + 1)


def test_evaluate_takes_the_rule_from_the_config():
    # _evaluate alone chooses between a fixed rule, which reports no error
    # estimate, and node doubling, pair by pair to a tolerance relative to
    # ||A_k||_F; finish applies to both, with each pair's factor.
    from sectorlab.quadrature import QuadratureConfig, _evaluate

    def f(t):
        return np.array([[math.exp(t), 1.0 / (2.0 - t)], [t * t, 1.0]], dtype=complex)

    def path(x, y):
        # t -> x f(t) + y over the node array, for one pair or stacked pairs
        return lambda nodes: x[..., None, :, :] * np.stack([f(float(t)) for t in nodes]) + y[..., None, :, :]

    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((2, 3, 2, 2)) + 1j * rng.standard_normal((2, 3, 2, 2))
    scale = [2.0, 3.0, 0.5]
    fixed = _evaluate(path, a, b, scale, gauss_legendre, QuadratureConfig(rule_nodes=8))
    for k, (x, y, s) in enumerate(zip(a, b, scale, strict=True)):
        assert fixed.nodes_used[k] == fixed[k].nodes_used == 8
        assert fixed.error_estimates[k] is fixed[k].error_estimate is None
        assert np.array_equal(fixed.value[k], s * integrate_matrix(gauss_legendre(8), lambda t: x * f(t) + y))
    cfg = QuadratureConfig(adaptive=True, tol=1e-13)
    got = _evaluate(path, a, b, scale, gauss_legendre, cfg, max_nodes=256)
    for k, (x, y, s) in enumerate(zip(a, b, scale, strict=True)):
        want = integrate_adaptive(lambda t: x * f(t) + y, gauss_legendre,
                                  tol=1e-13 * np.linalg.norm(x), max_nodes=256)
        assert got.nodes_used[k] == got[k].nodes_used == want.nodes_used
        assert got.error_estimates[k] == got[k].error_estimate == s * want.error_estimate
        assert np.array_equal(got.value[k], s * want.value)
    # no factor: the raw integrals
    raw = _evaluate(path, a, b, None, gauss_legendre, QuadratureConfig(rule_nodes=8))
    assert np.array_equal(raw.value[1], integrate_matrix(gauss_legendre(8), lambda t: a[1] * f(t) + b[1]))


def test_doubling_error_decreases_monotonically():
    # analytic integrand with a pole at t = -0.02, converging slowly enough
    # that successive doubling estimates stay above the rounding floor
    f = lambda t: np.array([[1.0 / (1.0 + 50.0 * t)]])
    values = [integrate_matrix(gauss_legendre(n), f) for n in (16, 32, 64, 128, 256)]
    ests = [float(np.linalg.norm(values[i + 1] - values[i])) for i in range(len(values) - 1)]
    for prev, cur in zip(ests, ests[1:]):
        assert cur <= 1.1 * prev


def test_entropy_kernel_split_is_bounded_near_zero():
    # (A !_t B - A)/t stays bounded as t -> 0 with limit A - A B^-1 A
    from sectorlab.entropy import _entropy_path
    from sectorlab.linalg import inverse

    path = _entropy_path(PAIR_A, PAIR_B)
    val = path(1e-8)
    limit = PAIR_A - PAIR_A @ inverse(PAIR_B) @ PAIR_A
    assert np.all(np.isfinite(val.real)) and np.all(np.isfinite(val.imag))
    assert np.linalg.norm(val - limit) <= 1e-6 * np.linalg.norm(limit)


def test_frozen_adaptive_baseline_for_canonical_pair():
    # regression: the lam = 0.3 geometric-mean integral of the canonical pair
    from sectorlab.means import GeometricMeanConfig, geometric_mean

    m512 = geometric_mean(PAIR_A, PAIR_B, 0.3, GeometricMeanConfig(rule_nodes=512))
    m1024 = geometric_mean(PAIR_A, PAIR_B, 0.3, GeometricMeanConfig(rule_nodes=1024))
    assert np.linalg.norm(m1024 - m512) <= 1e-11
    np.testing.assert_allclose(m1024, PAIR_GEOMETRIC_03, atol=1e-13)


# ------------------------------------------------------------ stacked engine


def _per_node_harmonic(x, y):
    # reference path: t -> ((1-t) X^-1 + t Y^-1)^-1, one inverse per node
    from sectorlab.linalg import inverse

    ix = inverse(x)
    iy = inverse(y)
    return lambda t: inverse((1.0 - t) * ix + t * iy)


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 16])
def test_library_integrals_match_per_node_engine(dim):
    # Every library integral evaluates all nodes of its rule in one stacked
    # call; the public per-node integrate_matrix over the same rule is the
    # reference it must reproduce.
    from sectorlab.entropy import relative_entropy, tsallis_entropy
    from sectorlab.linalg import inverse
    from sectorlab.means import drury_mean, geometric_mean, harmonic_mean

    def close(got, want):
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    a, b = accretive_pairs(1, (dim,), 0.6, seed=71)[0]
    sa = np.linalg.norm(a)
    sb = np.linalg.norm(b)
    for lam in (0.1, 0.5, 0.9):
        rule = gauss_jacobi(64, -lam, lam - 1.0)
        gauge = sa ** (1.0 - lam) * sb**lam * math.sin(lam * math.pi) / math.pi
        want = gauge * integrate_matrix(rule, _per_node_harmonic(a / sa, b / sb))
        close(geometric_mean(a, b, lam), want)

        h = _per_node_harmonic(a, b)
        rule = gauss_jacobi(64, -lam, lam)
        want = math.sin(lam * math.pi) / (lam * math.pi) * integrate_matrix(rule, lambda t: (h(t) - a) / t)
        close(tsallis_entropy(a, b, lam), want)

    rule = gauss_jacobi(64, -0.5, -0.5)
    inner = integrate_matrix(rule, lambda u: inverse(u * a / sa + (1.0 - u) * b / sb))
    close(drury_mean(a, b), math.sqrt(sa * sb) * inverse(inner / math.pi))

    h = _per_node_harmonic(a, b)
    want = integrate_matrix(gauss_legendre(64), lambda t: (h(t) - a) / t)
    close(relative_entropy(a, b), want)

    # the harmonic mean is the path at one weight, with the same arithmetic
    for lam in (0.1, 0.5, 0.9):
        assert np.array_equal(harmonic_mean(a, b, lam), h(lam))


def test_integrate_sums_each_job_of_a_batch_alone():
    # A batch (jobs, n, d, d) reduces every job with the lone integrand's
    # arithmetic, and a non-finite value in any job reports its node.
    from sectorlab.quadrature import _integrate

    rng = np.random.default_rng(17)
    for jobs, n, d in [(1, 1, 1), (2, 3, 1), (5, 16, 3), (3, 64, 2), (7, 33, 8), (2, 128, 4)]:
        rule = gauss_jacobi(n, -0.3, -0.6)
        vals = rng.standard_normal((jobs, n, d, d)) + 1j * rng.standard_normal((jobs, n, d, d))
        got = _integrate(rule, lambda t: vals)
        assert got.shape == (jobs, d, d)
        for k in range(jobs):
            assert np.array_equal(got[k], _integrate(rule, lambda t: vals[k]))
            assert np.array_equal(got[k], np.sum(vals[k] * rule.weights[:, None, None], axis=0))
        bad = vals.copy()
        bad[jobs - 1, n // 2, d - 1, 0] = np.nan
        with pytest.raises(EvaluationFailure) as info:
            _integrate(rule, lambda t: bad)
        assert info.value.node == float(rule.nodes[n // 2])
    # with several non-finite nodes the first in ascending order is named,
    # whichever job holds it, and the non-finite sum does not warn
    rule = gauss_legendre(8)
    vals = np.ones((3, 8, 2, 2), dtype=complex)
    vals[0, 6, 1, 0] = math.inf
    vals[2, 4, 0, 1] = complex(0.0, math.nan)
    vals[1, 5, 1, 1] = -math.inf
    with pytest.raises(EvaluationFailure) as info:
        _integrate(rule, lambda t: vals)
    assert info.value.node == float(rule.nodes[4])


def test_adaptive_library_integrals_match_per_node_engine():
    from sectorlab.entropy import relative_entropy_adaptive
    from sectorlab.means import geometric_mean_adaptive

    a, b = accretive_pairs(1, (3,), 1.2, seed=73)[0]
    lam = 0.3
    sa = np.linalg.norm(a)
    sb = np.linalg.norm(b)
    got = geometric_mean_adaptive(a, b, lam)
    ref = integrate_adaptive(_per_node_harmonic(a / sa, b / sb),
                             lambda n: gauss_jacobi(n, -lam, lam - 1.0), tol=1e-12)
    gauge = sa ** (1.0 - lam) * sb**lam * math.sin(lam * math.pi) / math.pi
    assert got.nodes_used == ref.nodes_used
    assert np.linalg.norm(got.value - gauge * ref.value) <= 1e-14 * np.linalg.norm(got.value)

    # the entropy integrates the pair as it is, to a tolerance relative to ||A||_F
    h = _per_node_harmonic(a, b)
    got = relative_entropy_adaptive(a, b)
    ref = integrate_adaptive(lambda t: (h(t) - a) / t, gauss_legendre, tol=1e-12 * sa)
    assert got.nodes_used == ref.nodes_used
    assert np.linalg.norm(got.value - ref.value) <= 1e-14 * np.linalg.norm(got.value)


def test_adaptive_payloads_are_scaled_like_results():
    # A dim-3 pair at 0.97 pi/2 that cannot reach tol 1e-15 within 32 nodes:
    # every NoConvergence payload is the function's own result, within its
    # error estimate of the spectral value A (A^-1 B)^lam (scipy).
    from scipy.linalg import fractional_matrix_power, logm

    from sectorlab.ensemble import SectorSpec, random_accretive
    from sectorlab.entropy import relative_entropy_adaptive, tsallis_entropy_adaptive
    from sectorlab.means import drury_mean_adaptive, geometric_mean_adaptive

    angle = 0.97 * (math.pi / 2)
    a = random_accretive(SectorSpec(dim=3, angle=angle, cond_cap=100.0, seed=5)).mat
    b = random_accretive(SectorSpec(dim=3, angle=angle, cond_cap=100.0, seed=6)).mat
    lam = 0.5
    ratio = np.linalg.solve(a, b)
    mean = a @ fractional_matrix_power(ratio, lam)
    cases = [
        (lambda: geometric_mean_adaptive(a, b, lam, tol=1e-15, max_nodes=32), mean),
        (lambda: drury_mean_adaptive(a, b, tol=1e-15, max_nodes=32), mean),
        (lambda: tsallis_entropy_adaptive(a, b, lam, tol=1e-15, max_nodes=32), (mean - a) / lam),
        (lambda: relative_entropy_adaptive(a, b, tol=1e-15, max_nodes=32), a @ logm(ratio)),
    ]
    for call, want in cases:
        with pytest.raises(NoConvergence) as exc:
            call()
        payload = exc.value.payload
        assert payload.nodes_used == 32
        assert np.linalg.norm(payload.value - want) <= payload.error_estimate


def test_adaptive_results_are_the_fixed_rule_at_their_node_count():
    # Node doubling integrates the caller's pair as it is and stops on a
    # tolerance relative to ||A||_F, so every adaptive result, and every
    # NoConvergence payload, is bitwise the fixed rule's at the node count it
    # reports, for pairs of any norm.
    from sectorlab.ensemble import SectorSpec, random_accretive
    from sectorlab.entropy import (
        relative_entropy,
        relative_entropy_adaptive,
        tsallis_entropy,
        tsallis_entropy_adaptive,
    )
    from sectorlab.means import drury_mean, drury_mean_adaptive, geometric_mean, geometric_mean_adaptive
    from sectorlab.quadrature import QuadratureConfig

    lam = 0.3
    calls = [  # (adaptive, fixed) of each integral
        (lambda a, b, **kw: geometric_mean_adaptive(a, b, lam, **kw),
         lambda a, b, cfg: geometric_mean(a, b, lam, cfg)),
        (drury_mean_adaptive, drury_mean),
        (relative_entropy_adaptive, relative_entropy),
        (lambda a, b, **kw: tsallis_entropy_adaptive(a, b, lam, **kw),
         lambda a, b, cfg: tsallis_entropy(a, b, lam, cfg)),
    ]

    def same_as_fixed(res, fixed, a, b):
        want = fixed(a, b, QuadratureConfig(rule_nodes=res.nodes_used))
        assert res.value.tobytes() == want.tobytes()

    pairs = (accretive_pairs(3, (1, 2, 3), 0.5 * math.pi / 2, seed=79)
             + accretive_pairs(2, (3, 4), 0.9 * math.pi / 2, seed=83))
    for a, b in pairs:
        for s in (1.0, 60.0, 1.0 / 7.0):
            for adaptive, fixed in calls:
                same_as_fixed(adaptive(s * a, s * b), fixed, s * a, s * b)
    angle = 0.97 * (math.pi / 2)
    a = random_accretive(SectorSpec(dim=3, angle=angle, cond_cap=100.0, seed=5)).mat
    b = random_accretive(SectorSpec(dim=3, angle=angle, cond_cap=100.0, seed=6)).mat
    for adaptive, fixed in calls:
        with pytest.raises(NoConvergence) as exc:
            adaptive(a, b, tol=1e-15, max_nodes=32)
        same_as_fixed(exc.value.payload, fixed, a, b)


def test_integrals_do_not_depend_on_the_input_layout():
    # Fortran-ordered, transposed and strided views give bitwise the results
    # of their C-contiguous copies, values, node counts and estimates alike.
    from sectorlab.entropy import (
        relative_entropy,
        relative_entropy_adaptive,
        tsallis_entropy,
        tsallis_entropy_adaptive,
    )
    from sectorlab.linalg import inverse
    from sectorlab.means import (
        drury_mean,
        drury_mean_adaptive,
        geometric_mean,
        geometric_mean_adaptive,
        harmonic_mean,
    )

    lam = 0.3
    calls = [
        lambda a, b: geometric_mean(a, b, lam),
        drury_mean,
        relative_entropy,
        lambda a, b: tsallis_entropy(a, b, lam),
        lambda a, b: geometric_mean_adaptive(a, b, lam),
        drury_mean_adaptive,
        relative_entropy_adaptive,
        lambda a, b: tsallis_entropy_adaptive(a, b, lam),
        lambda a, b: harmonic_mean(a, b, lam),
        lambda a, b: inverse(a),
        lambda a, b: inverse(np.stack([a, b])),
    ]

    def strided(m):
        big = np.zeros((2 * len(m), 2 * len(m)), dtype=m.dtype)
        big[::2, ::2] = m
        return big[::2, ::2]

    layouts = [np.asfortranarray, lambda m: np.ascontiguousarray(m.T).T, strided,
               lambda m: np.ascontiguousarray(m[::-1, ::-1])[::-1, ::-1]]

    def raw(res):
        if isinstance(res, np.ndarray):
            return res.tobytes()
        return res.value.tobytes(), res.nodes_used, res.error_estimate

    for a, b in accretive_pairs(2, (3, 5), 0.6 * math.pi / 2, seed=89):
        for layout in layouts:
            la, lb = layout(a), layout(b)
            assert not la.flags.c_contiguous and np.array_equal(la, a)
            for call in calls:
                assert raw(call(la, lb)) == raw(call(a, b))


def test_singular_interior_node_is_reported():
    # (1-t) A^-1 + t B^-1 with A = I, B = diag(1, -c) is singular at
    # t = c/(1+c); put that on an interior node of the 64-node rule.
    from sectorlab.entropy import relative_entropy, tsallis_entropy

    rule = gauss_legendre(64)
    t_bad = float(rule.nodes[20])
    a = np.eye(2, dtype=complex)
    b = np.diag([1.0, -t_bad / (1.0 - t_bad)]).astype(complex)
    with pytest.raises(EvaluationFailure) as stacked:
        relative_entropy(a, b)
    assert stacked.value.node == t_bad

    h = _per_node_harmonic(a, b)
    with pytest.raises(EvaluationFailure) as per_node:
        integrate_matrix(rule, lambda t: (h(t) - a) / t)
    assert per_node.value.node == t_bad

    rule = gauss_jacobi(64, -0.5, 0.5)
    t_bad = float(rule.nodes[40])
    b = np.diag([1.0, -t_bad / (1.0 - t_bad)]).astype(complex)
    with pytest.raises(EvaluationFailure) as stacked:
        tsallis_entropy(a, b, 0.5)
    assert stacked.value.node == t_bad
