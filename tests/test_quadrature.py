import math
import re
from fractions import Fraction
from functools import partial
from math import exp, lgamma

import numpy as np
import pytest
import scipy.special as scipy_special

from conftest import LADDER, PAIR_A, PAIR_B, PAIR_GEOMETRIC_03, accretive_pairs, node_stacks
from sectorlab import quadrature
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
    # one integer rule: bool, integral floats, NaN and strings are not node counts
    for n in (0, -1, 4097, True, 8.0, math.nan, "8"):
        for rule in (gauss_legendre, partial(gauss_jacobi, alpha=-0.5, beta=-0.5)):
            with pytest.raises(InvalidNodeCount,
                               match=rf"^node count must be an integer in \[1, 4096\], got {n!r}$"):
                rule(n)


def test_numpy_integer_node_counts_are_node_counts():
    from sectorlab.quadrature import QuadratureConfig

    assert gauss_legendre(np.int64(8)) is gauss_legendre(8)
    assert gauss_jacobi(np.int32(8), -0.3, -0.7) is gauss_jacobi(8, -0.3, -0.7)
    cfg = QuadratureConfig(rule_nodes=np.int64(16))
    assert type(cfg.rule_nodes) is int and cfg == QuadratureConfig(rule_nodes=16)


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


def _run_fresh(script: str):
    # the JSON document that script prints, run in a fresh Python process
    import json
    import os
    import subprocess
    import sys

    import sectorlab

    path = [os.path.dirname(os.path.dirname(sectorlab.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return json.loads(subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                     text=True, check=True).stdout)


def test_rules_up_to_512_nodes_do_not_load_scipy():
    # In a fresh process, rules and adaptive integrals that stay at or below 512
    # nodes never import scipy: capped at 512 nodes, an adaptive integral is
    # the default automatic one, bitwise, count included.  A count above 512,
    # here 1536 for a relative entropy at 0.99 pi/2, loads it.
    script = """
import json, math, sys
from sectorlab import (gauss_jacobi, gauss_legendre, geometric_mean, geometric_mean_adaptive,
                       relative_entropy, relative_entropy_adaptive)
from sectorlab.ensemble import SectorSpec, random_accretive

def pair(frac):
    return (random_accretive(SectorSpec(dim=3, angle=frac * math.pi / 2, cond_cap=1e4, seed=s)).mat
            for s in (2, 3))

gauss_legendre(512)
gauss_jacobi(512, -0.7, -0.3)
a, b = pair(0.9)
res = [geometric_mean_adaptive(a, b, 0.3, max_nodes=512), relative_entropy_adaptive(a, b, max_nodes=512)]
auto = [geometric_mean(a, b, 0.3), relative_entropy(a, b)]
out = {"nodes_used": [r.nodes_used for r in res],
       "auto": [r.value.tobytes() == v.tobytes() for r, v in zip(res, auto)],
       "scipy": "scipy" in sys.modules}
wide = relative_entropy_adaptive(*pair(0.99))
out["wide"] = [wide.nodes_used, "scipy" in sys.modules]
print(json.dumps(out))
"""
    assert _run_fresh(script) == {"nodes_used": [128, 256], "auto": [True, True], "scipy": False,
                                  "wide": [1536, True]}


def test_node_doubling_raises_at_once_on_a_pole():
    # A = I, B = diag(1, -c): A B^-1 has the real eigenvalue -1/c, a pole of the
    # path at t = c/(1+c) inside (0, 1), here on a node of the 64-node rule.  No
    # node count converges there, so the adaptive count raises before it builds
    # a rule, instead of reaching 4096 nodes and loading scipy.
    script = """
import json, sys
import numpy as np
from sectorlab import (NoConvergence, gauss_legendre, geometric_mean_adaptive,
                       relative_entropy_adaptive, tsallis_entropy_adaptive)
from sectorlab import quadrature

built = []
rule_cached = quadrature._rule_cached
quadrature._rule_cached = lambda kind, n, alpha, beta: built.append(n) or rule_cached(kind, n, alpha, beta)
t_bad = float(gauss_legendre(64).nodes[20])
a = np.eye(2, dtype=complex)
b = np.diag([1.0, -t_bad / (1.0 - t_bad)]).astype(complex)
raised = []
for call in (lambda: geometric_mean_adaptive(a, b, 0.3), lambda: relative_entropy_adaptive(a, b),
             lambda: tsallis_entropy_adaptive(a, b, 0.5)):
    try:
        call()
    except NoConvergence as exc:
        raised.append([str(exc), exc.payload is None])
print(json.dumps({"raised": raised, "largest_rule": max(built), "scipy": "scipy" in sys.modules}))
"""
    message = "the integrand has a pole on (0, 1]: the pair is not accretive"
    assert _run_fresh(script) == {"raised": [[message, True]] * 3, "largest_rule": 64, "scipy": False}


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


_SHAPES = "nodes and weights must be 1-d arrays of equal length"
_NODES = "nodes must be strictly increasing inside (0, 1)"
_WEIGHTS = "weights must be strictly positive and finite"
_TINY = 5e-324

#: (nodes, weights, the message they are rejected with or None): the nodes are
#: checked before the weights, and a NaN fails either check
_RULE_TABLE = [
    ([0.5], [1.0], None),
    ([0.3, 0.7], [0.5, 0.5], None),
    ([_TINY, 0.5, 1.0 - 2.0**-53], [_TINY, 1.0, 1e300], None),
    ([math.nan], [1.0], _NODES),
    ([math.nan, 0.5], [0.5, 0.5], _NODES),
    ([0.2, math.nan, 0.7], [0.3, 0.3, 0.3], _NODES),
    ([0.3, math.nan], [0.5, 0.5], _NODES),
    ([0.0, 0.5], [0.5, 0.5], _NODES),
    ([-0.1, 0.5], [0.5, 0.5], _NODES),
    ([0.5, 1.0], [0.5, 0.5], _NODES),
    ([0.5, math.inf], [0.5, 0.5], _NODES),
    ([0.3, 0.3], [0.5, 0.5], _NODES),
    ([0.7, 0.3], [0.5, 0.5], _NODES),
    ([0.2, 0.6, 0.4], [0.3, 0.3, 0.3], _NODES),
    ([0.3, 0.7], [0.5, 0.0], _WEIGHTS),
    ([0.3, 0.7], [0.5, -0.5], _WEIGHTS),
    ([0.3, 0.7], [math.nan, 0.5], _WEIGHTS),
    ([0.3, 0.7], [math.inf, 0.5], _WEIGHTS),
    ([0.3, 0.7], [0.5, 0.5, 0.5], _SHAPES),
    ([[0.3, 0.7]], [[0.5, 0.5]], _SHAPES),
    ([], [], "a rule needs at least one node"),
]


def test_rule_constructor_rejects_malformed_data():
    from sectorlab.quadrature import IntegralResult, QuadratureRule

    for nodes, weights, error in _RULE_TABLE:
        make = partial(QuadratureRule, "legendre", 0.0, 0.0, np.array(nodes), np.array(weights))
        if error is None:
            assert make().count == len(nodes)
        else:
            with pytest.raises(InvalidParameters, match=f"^{re.escape(error)}$"):
                make()
    with pytest.raises(ValueError):
        IntegralResult(value=np.eye(1), error_estimate=-1.0, nodes_used=16)
    with pytest.raises(ValueError):
        IntegralResult(value=np.eye(1), error_estimate=math.inf, nodes_used=16)


def test_jacobi_matrix_is_the_diag_built_one(monkeypatch):
    # The rule's Jacobi matrix, written as two strided diagonals, is bitwise
    # np.diag(diagonal) with the subdiagonal set by fancy indexing, so the rule
    # is that matrix's: the eigensolver is handed the np.diag one.
    eigh, seen = np.linalg.eigh, []

    def diag_built(tri, UPLO):
        n = len(tri)
        ref = np.diag(np.diag(tri))
        ref[np.arange(1, n), np.arange(n - 1)] = np.diag(tri, -1)
        seen.append(tri.tobytes() == ref.tobytes())
        return eigh(ref, UPLO=UPLO)

    build = quadrature._rule_cached.__wrapped__  # past the cache
    for n in (1, 2, 3, 8, 64, 512):
        for alpha, beta in ((0.0, 0.0), (-0.3, 0.3), (-0.5, -0.5), (-0.7, -0.3), (0.5, 2.0)):
            want = build("jacobi", n, alpha, beta)
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "eigh", diag_built)
                got = build("jacobi", n, alpha, beta)
            assert got.nodes.tobytes() == want.nodes.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()
    assert len(seen) == 30 and all(seen)


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


def test_failing_node_is_named_for_per_node_and_stacked_integrands():
    # _integrate alone names a failing node: the first at which the integrand
    # raises, with the integrand's exception as the cause, whether the
    # integrand takes one node (integrate_matrix) or the node array.
    rule = gauss_legendre(8)
    bad = rule.nodes[[3, 5]]
    first = float(rule.nodes[3])
    cause = ZeroDivisionError("boom")

    def per_node(t):
        if t in bad:
            raise cause
        return t * np.eye(2)

    def stacked(nodes):
        if np.isin(nodes, bad).any():
            raise cause
        return nodes[:, None, None] * np.eye(2)

    for call in (lambda: integrate_matrix(rule, per_node),
                 lambda: integrate_adaptive(per_node, lambda n: rule, tol=1e-12),
                 lambda: quadrature._integrate(rule, stacked)):
        with pytest.raises(EvaluationFailure) as info:
            call()
        assert info.value.node == first
        assert info.value.__cause__ is cause
        assert str(info.value) == f"integrand raised at node t={first!r}: boom"


def test_integrands_own_failures_and_stacking_errors_pass_through():
    rule = gauss_legendre(8)
    own = EvaluationFailure("own", node=-1.0)

    def per_node(t):
        if t > 0.5:
            raise own
        return t * np.eye(2)

    def stacked(nodes):
        raise own

    for call in (lambda: integrate_matrix(rule, per_node), lambda: quadrature._integrate(rule, stacked)):
        with pytest.raises(EvaluationFailure) as info:
            call()
        assert info.value is own
    # per-node values of unequal shapes do not stack: numpy's error stands
    with pytest.raises(ValueError, match="same shape"):
        integrate_matrix(rule, lambda t: np.eye(2) if t < 0.5 else np.eye(3))


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
    # a node cap is an integer, as a node count is
    for cap in (100.5, math.nan, True):
        with pytest.raises(ValueError, match=r"^max_nodes must be an integer in \[32, 4096\]"):
            integrate_adaptive(lambda t: np.eye(1), gauss_legendre, tol=1e-6, max_nodes=cap)
        with pytest.raises(ValueError, match=r"^max_nodes must be an integer in \[32, 4096\]"):
            geometric_mean_adaptive(PAIR_A, PAIR_B, 0.3, max_nodes=cap)


def _pole_count(mu, bound, tol, top):
    # (n, rho^(-2n)) for the fewest nodes n on LADDER, up to top, with bound * rho^(-2n) <= tol,
    # or for the largest n up to top if none is, with n None; rho = |x + sqrt(x^2 - 1)| >= 1
    # at x = 2t - 1 for the nearest pole t = 1/(1 - mu) over the eigenvalues mu.
    x = 2.0 / (1.0 - np.asarray(mu, dtype=complex)) - 1.0
    root = np.sqrt(x * x - 1.0)
    rho = float(np.maximum(np.abs(x + root), np.abs(x - root)).min())
    counts = [n for n in LADDER if n <= top]
    for n in counts:
        if bound * rho ** (-2.0 * n) <= tol:
            return n, rho ** (-2.0 * n)
    return None, rho ** (-2.0 * counts[-1])


_STUB_MUS = np.array([[0.2 + 0.5j, 3.0 - 1.0j], [-0.05 + 0.4j, 2.0], [0.9 + 0.1j, -0.02 + 0.05j]])


def _stub_f(t, mu):
    g = 1.0 / ((1.0 - t) + t * mu)
    return np.array([[g[0], g[1]], [t * t, 1.0]], dtype=complex)


def _stub_path(xy):
    # t -> x f(t) + y over the node array, for the three stacked pairs xy = (x, y), or with rows,
    # one pair index per node, for those rows; f has its poles at t = 1/(1 - mu), mu
    # over the eigenvalues of the ratio, one diagonal matrix per pair
    def p(nodes, rows=None):
        if rows is None:
            vals = np.stack([np.stack([_stub_f(float(t), mu) for t in nodes]) for mu in _STUB_MUS])
            return x[:, None] * vals + y[:, None]
        vals = np.stack([_stub_f(float(t), _STUB_MUS[k]) for t, k in zip(nodes, rows, strict=True)])
        return x[rows] * vals + y[rows]

    x, y = xy
    p.ratio = lambda: np.eye(2) * _STUB_MUS[:, None, :]
    return p


def _stub_pairs():
    rng = np.random.default_rng(3)
    return rng.standard_normal((2, 3, 2, 2)) + 1j * rng.standard_normal((2, 3, 2, 2))


def test_evaluate_takes_the_rule_from_the_config():
    # _evaluate alone chooses between a fixed rule, which reports no error
    # estimate, and the count from the poles of the path's ratio, up to the
    # config's max_nodes, 512 by default, whose estimate is
    # the bound at that count times ||A_k||_F; finish applies to both, with
    # each pair's factor.  Each pair's job is (alpha, beta, factor, bound), here
    # the Jacobi(0, 0) rule, which is Gauss-Legendre's.
    from sectorlab.quadrature import QuadratureConfig, _evaluate

    mus, f, path = _STUB_MUS, _stub_f, _stub_path
    ab = _stub_pairs()
    a, b = ab
    scale = [2.0, 3.0, 0.5]
    fixed = _evaluate(path, ab, [(0.0, 0.0, s, 1.0) for s in scale], QuadratureConfig(rule_nodes=8))
    for k, (x, y, s) in enumerate(zip(a, b, scale, strict=True)):
        assert fixed.nodes_used[k] == fixed[k].nodes_used == 8
        assert fixed.error_estimates[k] is fixed[k].error_estimate is None
        assert np.array_equal(fixed.value[k],
                              s * integrate_matrix(gauss_legendre(8), lambda t: x * f(t, mus[k]) + y))
    for cfg in (QuadratureConfig(tol=1e-13, max_nodes=256), QuadratureConfig(tol=1e-13)):
        got = _evaluate(path, ab, [(0.0, 0.0, s, 10.0) for s in scale], cfg)
        for k, (x, y, s) in enumerate(zip(a, b, scale, strict=True)):
            n, decay = _pole_count(mus[k], 10.0, 1e-13, cfg.max_nodes)
            assert got.nodes_used[k] == got[k].nodes_used == n
            assert got.error_estimates[k] == got[k].error_estimate
            assert got.error_estimates[k] == pytest.approx(s * 10.0 * decay * np.linalg.norm(x), rel=1e-9)
            assert np.array_equal(got.value[k],
                                  s * integrate_matrix(gauss_legendre(n), lambda t: x * f(t, mus[k]) + y))
    # the factor 1.0: the raw integrals
    raw = _evaluate(path, ab, [(0.0, 0.0, 1.0, 1.0)] * 3, QuadratureConfig(rule_nodes=8))
    assert np.array_equal(raw.value[1], integrate_matrix(gauss_legendre(8), lambda t: a[1] * f(t, mus[1]) + b[1]))


def test_evaluate_takes_a_bound_per_pair():
    # Each job's bound gives its pair the count and estimate that the bound
    # gives it alone, as the bound of every pair's job.
    from sectorlab.quadrature import QuadratureConfig, _evaluate

    ab = _stub_pairs()
    a, b = ab
    scale, cfg = [2.0, 3.0, 0.5], QuadratureConfig(tol=1e-13)

    def jobs(bounds):
        return [(0.0, 0.0, s, bound) for s, bound in zip(scale, bounds, strict=True)]

    bounds = [1e5, 1.0, 10.0]
    got = _evaluate(_stub_path, ab, jobs(bounds), cfg)
    for k, bound in enumerate(bounds):
        alone = _evaluate(_stub_path, ab, jobs([bound] * 3), cfg)
        assert got.nodes_used[k] == alone.nodes_used[k] == _pole_count(_STUB_MUS[k], bound, 1e-13, 512)[0]
        assert got.error_estimates[k] == alone.error_estimates[k]
        assert got.value[k].tobytes() == alone.value[k].tobytes()
        same = _evaluate(_stub_path, ab, jobs([bound] * 3), cfg)
        assert (same.value.tobytes(), same.error_estimates, same.nodes_used) == \
            (alone.value.tobytes(), alone.error_estimates, alone.nodes_used)
    # the bounds chose counts that no one bound gives all three pairs
    assert got.nodes_used != _evaluate(_stub_path, ab, jobs([10.0] * 3), cfg).nodes_used


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

    path = _entropy_path(np.array((PAIR_A, PAIR_B)))
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
    # Each adaptive result is bitwise the per-node engine's integral at the
    # count the pair's poles give, the eigenvalues of A B^-1 (of the gauged pair
    # for the mean, which integrates A/||A||_F and B/||B||_F).
    from sectorlab.entropy import _RELATIVE_BOUND, relative_entropy_adaptive
    from sectorlab.means import _MEAN_BOUND, geometric_mean_adaptive

    a, b = accretive_pairs(1, (3,), 1.2, seed=73)[0]
    lam = 0.3
    sa = np.linalg.norm(a)
    sb = np.linalg.norm(b)
    mu = np.linalg.eigvals(a @ np.linalg.inv(b))
    got = geometric_mean_adaptive(a, b, lam)
    n, _ = _pole_count(mu * sb / sa, _MEAN_BOUND, 1e-12, 4096)
    ref = integrate_matrix(gauss_jacobi(n, -lam, lam - 1.0), _per_node_harmonic(a / sa, b / sb))
    gauge = sa ** (1.0 - lam) * sb**lam * math.sin(lam * math.pi) / math.pi
    assert got.nodes_used == n
    assert got.value.tobytes() == (gauge * ref).tobytes()

    # the entropy integrates the pair as it is
    h = _per_node_harmonic(a, b)
    got = relative_entropy_adaptive(a, b)
    n, _ = _pole_count(mu, _RELATIVE_BOUND, 1e-12, 4096)
    assert got.nodes_used == n
    assert got.value.tobytes() == integrate_matrix(gauss_legendre(n), lambda t: (h(t) - a) / t).tobytes()


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
    # The adaptive count integrates the caller's pair as it is and meets a
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


def _outcome(call):
    # a result, or a NoConvergence payload, with its status
    try:
        return call(), "converged"
    except NoConvergence as exc:
        return exc.payload, "NoConvergence"


def _adaptive_kinds(lam):
    # kind -> (adaptive function, fixed function, bound K, the eigenvalues mu of
    # the path's ratio and the factor of the estimate, from the pair (A, B))
    from sectorlab import entropy, means

    def gauged(a, b):
        # the means integrate A/||A||_F and B/||B||_F, and B^-1 A has the eigenvalues of A B^-1
        sa, sb = np.linalg.norm(a), np.linalg.norm(b)
        return np.linalg.eigvals(a @ np.linalg.inv(b)) * (sb / sa), sa, sb

    def mean(a, b):
        mu, sa, sb = gauged(a, b)
        return mu, sa ** (1.0 - lam) * sb**lam * math.sin(lam * math.pi) / math.pi

    def drury(a, b):
        mu, sa, sb = gauged(a, b)
        return mu, math.sqrt(sa * sb) / math.pi

    def plain(factor):
        return lambda a, b: (np.linalg.eigvals(a @ np.linalg.inv(b)), factor * np.linalg.norm(a))

    return {
        "mean": (partial(means.geometric_mean_adaptive, lam=lam), partial(means.geometric_mean, lam=lam),
                 means._MEAN_BOUND, mean),
        "drury": (means.drury_mean_adaptive, means.drury_mean, means._DRURY_BOUND, drury),
        "relative": (entropy.relative_entropy_adaptive, entropy.relative_entropy, entropy._RELATIVE_BOUND,
                     plain(1.0)),
        "tsallis": (partial(entropy.tsallis_entropy_adaptive, lam=lam), partial(entropy.tsallis_entropy, lam=lam),
                    entropy._TSALLIS_BOUND, plain(math.sin(lam * math.pi) / (lam * math.pi))),
    }


def test_adaptive_counts_are_the_pole_bound(monkeypatch):
    # 200 adaptive calls over dims 1-8, angles up to 0.97 pi/2 and two
    # tolerances, a fifth of them capped at 64 nodes: each takes the fewest nodes
    # on the ladder up to its cap whose bound K rho^(-2n) meets tol, or raises
    # NoConvergence with the result at the cap's top count; either is bitwise
    # the fixed rule at its node count, with the bound, scaled like the value,
    # as its estimate.  The stacked rule runs once, at that count.
    from sectorlab.ensemble import SectorSpec, random_accretive
    from sectorlab.quadrature import QuadratureConfig

    counts = []
    integrate = quadrature._integrate
    monkeypatch.setattr(quadrature, "_integrate", lambda rule, f: counts.append(rule.count) or integrate(rule, f))
    rng = np.random.default_rng(17)
    statuses = set()
    for k in range(50):
        angle = rng.uniform(0.2, 0.97) * (math.pi / 2)
        lam = rng.uniform(0.1, 0.9)
        tol = (1e-10, 1e-12)[k % 2]
        cap = 64 if k % 5 == 0 else 512
        a, b = (random_accretive(SectorSpec(dim=1 + k % 8, angle=angle, cond_cap=100.0,
                                            seed=int(s))).mat for s in rng.integers(1 << 30, size=2))
        for adaptive, fixed, bound, poles in _adaptive_kinds(lam).values():
            counts.clear()
            res, status = _outcome(lambda: adaptive(a, b, tol=tol, max_nodes=cap))
            mu, factor = poles(a, b)
            n, decay = _pole_count(mu, bound, tol, cap)
            assert status == ("converged" if n else "NoConvergence")
            assert counts == [res.nodes_used] == [n or max(c for c in LADDER if c <= cap)]
            assert res.value.tobytes() == fixed(a, b, cfg=QuadratureConfig(rule_nodes=res.nodes_used)).tobytes()
            assert res.error_estimate == pytest.approx(factor * bound * decay, rel=1e-9)
            statuses.add(status)
    assert statuses == {"converged", "NoConvergence"}


def test_adaptive_evaluates_the_stacked_rule_once(monkeypatch):
    # The pair's poles pick the node count n, and the stacked rule runs at n
    # alone: 48 stacked nodes for the mean and for S(A|B), where node doubling
    # chose 128.
    from sectorlab.entropy import relative_entropy_adaptive
    from sectorlab.means import geometric_mean_adaptive

    a, b = accretive_pairs(1, (3,), 0.8 * math.pi / 2, seed=90)[0]
    counts = []
    integrate = quadrature._integrate

    def counting(rule, f):
        counts.append(rule.count)
        return integrate(rule, f)

    monkeypatch.setattr(quadrature, "_integrate", counting)
    kinds = _adaptive_kinds(0.3)
    for kind in ("mean", "relative"):
        adaptive, _, bound, poles = kinds[kind]
        counts.clear()
        res = adaptive(a, b)
        assert res.nodes_used == _pole_count(poles(a, b)[0], bound, 1e-12, 4096)[0] == 48
        assert counts == [48]


def test_adaptive_counts_of_defective_and_singular_pairs(monkeypatch):
    # A defective A B^-1 (a Jordan block, mu = 1 twice): the entropies' path
    # is linear in t, and the means' gauged path has a double pole near t = 5.4,
    # so every adaptive integral takes the ladder's first count, 8 nodes, exact
    # to rounding and bitwise the fixed rule's.  A pole on a node of the 64-node rule raises at once, with no
    # payload, before any rule is integrated.
    from sectorlab.entropy import relative_entropy_adaptive, tsallis_entropy_adaptive
    from sectorlab.means import drury_mean_adaptive, geometric_mean_adaptive
    from sectorlab.quadrature import QuadratureConfig

    lam = 0.3
    jordan = (np.array([[1, 1], [0, 1]], dtype=complex), np.eye(2, dtype=complex))
    kinds = _adaptive_kinds(lam)
    exact = {"mean": [[1, 1 - lam], [0, 1]], "drury": [[1, 0.5], [0, 1]], "relative": [[0, -1], [0, 0]],
             "tsallis": [[0, -1], [0, 0]]}  # A^(1-lam), A^(1/2), -A log A, (A^(1-lam) - A)/lam
    for kind, (adaptive, fixed, _, _) in kinds.items():
        res = adaptive(*jordan)
        assert res.nodes_used == 8
        assert res.value.tobytes() == fixed(*jordan, cfg=QuadratureConfig(rule_nodes=8)).tobytes()
        assert np.abs(res.value - np.array(exact[kind])).max() <= 1e-14
    calls = []
    integrate = quadrature._integrate
    monkeypatch.setattr(quadrature, "_integrate", lambda rule, f: calls.append(rule) or integrate(rule, f))
    a = np.eye(2, dtype=complex)
    for call, rule in ((relative_entropy_adaptive, gauss_legendre(64)),
                       (partial(tsallis_entropy_adaptive, lam=0.5), gauss_jacobi(64, -0.5, 0.5))):
        t_bad = float(rule.nodes[20])
        with pytest.raises(NoConvergence, match=r"pole on \(0, 1\]") as exc:
            call(a, np.diag([1.0, -t_bad / (1.0 - t_bad)]).astype(complex))
        assert exc.value.payload is None
    assert calls == []


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


def test_integrals_scale_with_pairs_of_extreme_norm():
    # Every integral is homogeneous of degree 1 in the pair.  At entries near
    # 1e160 and 1e300 the plain sum of squares in the Frobenius norm overflows,
    # and near 1e-170 it underflows to 0; the means' gauges and the adaptive
    # tolerance must still see the pair's norm, so each entry point gives s
    # times its result at s = 1, node count included.
    from sectorlab.entropy import (
        relative_entropy,
        relative_entropy_adaptive,
        tsallis_entropy,
        tsallis_entropy_adaptive,
    )
    from sectorlab.means import drury_mean, drury_mean_adaptive, geometric_mean, geometric_mean_adaptive

    lam = 0.3
    calls = [lambda a, b: geometric_mean(a, b, lam), lambda a, b: geometric_mean_adaptive(a, b, lam),
             drury_mean, drury_mean_adaptive, relative_entropy, relative_entropy_adaptive,
             lambda a, b: tsallis_entropy(a, b, lam), lambda a, b: tsallis_entropy_adaptive(a, b, lam)]

    def value(res):
        return res if isinstance(res, np.ndarray) else res.value

    pairs = (accretive_pairs(2, (3,), 0.4 * math.pi / 2, seed=5)
             + accretive_pairs(2, (3,), 0.8 * math.pi / 2, seed=6))
    for a, b in pairs:
        for call in calls:
            want = call(a, b)
            for s in (1e160, 1e300, 1e-170):
                got = call(s * a, s * b)
                assert getattr(got, "nodes_used", None) == getattr(want, "nodes_used", None)
                assert (np.linalg.norm(value(got) / s - value(want))
                        <= 1e-13 * np.linalg.norm(value(want)))


def test_overflowing_integrand_is_reported_without_a_warning():
    # S(2e306 I | I) overflows at the first nodes: the engine reports the
    # non-finite node, and the overflow in the integrand raises no warning
    # (the suite turns a RuntimeWarning into an error).
    from sectorlab.entropy import EntropyConfig, relative_entropy

    with pytest.raises(EvaluationFailure, match="non-finite"):
        relative_entropy(2e306 * np.eye(2), np.eye(2), EntropyConfig(rule_nodes=64))
    # The automatic count needs more than 512 nodes there, and the 512-node
    # payload overflows: no payload, and no warning from its bound either.
    with pytest.raises(NoConvergence, match="more than 512 nodes") as exc:
        relative_entropy(2e306 * np.eye(2), np.eye(2))
    assert exc.value.payload is None and isinstance(exc.value.__cause__, EvaluationFailure)


def test_singular_interior_node_is_reported():
    # (1-t) A^-1 + t B^-1 with A = I, B = diag(1, -c) is singular at
    # t = c/(1+c); put that on an interior node of the 64-node rule.
    from sectorlab.entropy import EntropyConfig, relative_entropy, tsallis_entropy

    cfg = EntropyConfig(rule_nodes=64)

    rule = gauss_legendre(64)
    t_bad = float(rule.nodes[20])
    a = np.eye(2, dtype=complex)
    b = np.diag([1.0, -t_bad / (1.0 - t_bad)]).astype(complex)
    with pytest.raises(EvaluationFailure) as stacked:
        relative_entropy(a, b, cfg)
    assert stacked.value.node == t_bad

    h = _per_node_harmonic(a, b)
    with pytest.raises(EvaluationFailure) as per_node:
        integrate_matrix(rule, lambda t: (h(t) - a) / t)
    assert per_node.value.node == t_bad

    rule = gauss_jacobi(64, -0.5, 0.5)
    t_bad = float(rule.nodes[40])
    b = np.diag([1.0, -t_bad / (1.0 - t_bad)]).astype(complex)
    with pytest.raises(EvaluationFailure) as stacked:
        tsallis_entropy(a, b, 0.5, cfg)
    assert stacked.value.node == t_bad


def test_failing_node_in_a_stack_is_the_lone_calls():
    # A stacked fixed-rule evaluation that holds the pair of
    # test_singular_interior_node_is_reported among good pairs of two rule groups,
    # S's Gauss-Legendre and T_1/2's Jacobi rule, raises the lone call's
    # EvaluationFailure: its node and its message.  So does a pair whose node matrix
    # there is ill-conditioned, not singular; its message carries the condition
    # estimate of the lone call.
    from sectorlab import entropy
    from sectorlab.entropy import EntropyConfig, relative_entropy
    from sectorlab.errors import IllConditioned, SingularMatrix

    cfg = EntropyConfig(rule_nodes=64)
    t_bad = float(gauss_legendre(64).nodes[20])
    a = np.eye(2, dtype=complex)
    good = accretive_pairs(4, (2,), 0.5, seed=101)
    for scale, cause in ((1.0, SingularMatrix), (1.0 + 1e-15, IllConditioned)):
        b = np.diag([1.0, -scale * t_bad / (1.0 - t_bad)]).astype(complex)
        with pytest.raises(EvaluationFailure) as lone:
            relative_entropy(a, b, cfg)
        pairs = [good[0], good[1], (a, b), good[2], good[3]]
        with pytest.raises(EvaluationFailure) as stacked:
            entropy._tsallis_entropy(np.stack([x for x, _ in pairs]), np.stack([y for _, y in pairs]),
                                     [0.5, 0.0, 0.0, 0.5, 0.0], cfg)
        assert type(lone.value.__cause__) is type(stacked.value.__cause__) is cause
        assert (stacked.value.node, str(stacked.value)) == (lone.value.node, str(lone.value))
        assert lone.value.node == t_bad


def test_first_failing_pair_of_a_stack_raises_its_lone_error():
    # Where several pairs of a stacked evaluation fail, the first in pair order raises what
    # its lone call raises, whichever node the others fail at: pairs singular or
    # ill-conditioned at interior nodes, and a pair whose S overflows at its first nodes.
    from sectorlab import entropy
    from sectorlab.entropy import EntropyConfig, relative_entropy

    cfg = EntropyConfig(rule_nodes=64)
    nodes = gauss_legendre(64).nodes

    def failing_at(k, scale=1.0):
        t = float(nodes[k])
        return np.eye(2, dtype=complex), np.diag([1.0, -scale * t / (1.0 - t)]).astype(complex)

    good = accretive_pairs(2, (2,), 0.5, seed=101)
    overflow = (2e306 * np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    ill = 1.0 + 1e-15
    cases = [([good[0], failing_at(20), good[1], failing_at(10)], 1),
             ([failing_at(20, ill), failing_at(10)], 0),
             ([failing_at(40), failing_at(10, ill), good[0]], 0),
             ([good[0], overflow, good[1], failing_at(30)], 1)]
    for pairs, first in cases:
        with pytest.raises(EvaluationFailure) as lone:
            relative_entropy(*pairs[first], cfg)
        with pytest.raises(EvaluationFailure) as stacked:
            entropy._tsallis_entropy(np.stack([x for x, _ in pairs]), np.stack([y for _, y in pairs]),
                                     [0.0] * len(pairs), cfg)
        assert (stacked.value.node, str(stacked.value)) == (lone.value.node, str(lone.value))
        assert type(stacked.value.__cause__) is type(lone.value.__cause__)


# ------------------------------------------------------- automatic node count


def _spectral_cases(tol=None):
    # (library call on (A, B) at the default config, or its *_adaptive twin's value at
    # tol; its closed form on (A, A^-1 B)) for the four integrals, with scipy's
    # Schur-Pade power and logarithm
    from scipy.linalg import fractional_matrix_power, logm

    from sectorlab import entropy, means

    def fn(module, name):
        if tol is None:
            return getattr(module, name)
        call = getattr(module, name + "_adaptive")
        return lambda *args: call(*args, tol=tol).value

    mean, tsallis = fn(means, "geometric_mean"), fn(entropy, "tsallis_entropy")
    cases = [(lambda a, b, lam=lam: mean(a, b, lam),
              lambda a, r, lam=lam: a @ fractional_matrix_power(r, lam)) for lam in (0.1, 0.5, 0.9)]
    cases += [(lambda a, b, lam=lam: tsallis(a, b, lam),
               lambda a, r, lam=lam: (a @ fractional_matrix_power(r, lam) - a) / lam) for lam in (0.1, 0.9)]
    return cases + [(fn(entropy, "relative_entropy"), lambda a, r: a @ logm(r)),
                    (fn(means, "drury_mean"), lambda a, r: a @ fractional_matrix_power(r, 0.5))]


def _rel(x, y):
    return float(np.linalg.norm(x - y) / np.linalg.norm(y))


@pytest.mark.parametrize("frac", [0.4, 0.8, 0.95])
def test_auto_rule_matches_the_spectral_forms(frac):
    # The default counts come from each pair's poles; every default integral
    # meets 1e-12 against scipy, where the 64-node rule missed by up to 3e-2.
    for dim in (2, 3, 8):
        for a, b in accretive_pairs(3, (dim,), frac * math.pi / 2, seed=71 + dim):
            r = np.linalg.solve(a, b)
            for call, closed_form in _spectral_cases():
                assert _rel(call(a, b), closed_form(a, r)) <= 1e-12


def test_auto_rule_meets_tol_or_raises_at_wide_angles():
    # At 0.99 pi/2 some pairs need more than 512 nodes: those raise, with the
    # 512-node result and its bound as payload; the others meet 1e-12.
    outcomes = set()
    for dim in (2, 3, 8):
        for a, b in accretive_pairs(3, (dim,), 0.99 * math.pi / 2, seed=73 + dim):
            r = np.linalg.solve(a, b)
            for call, closed_form in _spectral_cases():
                try:
                    err = _rel(call(a, b), closed_form(a, r))
                except NoConvergence as exc:
                    outcomes.add("raised")
                    assert exc.payload.nodes_used == 512
                    assert exc.payload.error_estimate > 0.0
                    continue
                outcomes.add("met")
                assert err <= 1e-12
    assert outcomes == {"met", "raised"}


def test_adaptive_meets_the_spectral_forms_at_wide_angles(monkeypatch):
    # On the pairs where the default count raises at 512 nodes, adaptive goes on
    # up the ladder to 4096: every adaptive integral meets 1e-12, some with more
    # than 512 nodes.
    counts = []
    integrate = quadrature._integrate
    monkeypatch.setattr(quadrature, "_integrate", lambda rule, f: counts.append(rule.count) or integrate(rule, f))
    for dim in (2, 3, 8):
        for a, b in accretive_pairs(3, (dim,), 0.99 * math.pi / 2, seed=73 + dim):
            r = np.linalg.solve(a, b)
            for call, closed_form in _spectral_cases(tol=1e-12):
                assert _rel(call(a, b), closed_form(a, r)) <= 1e-12
    assert max(counts) > 512


def test_tol_below_the_rounding_floor_raises(monkeypatch):
    # No rule meets a tolerance below four rounding units, so the bound refuses
    # one, under "auto" and adaptive alike, before anything is integrated.  At
    # 1e-14 every adaptive integral of these pairs converges, as node doubling
    # did on all but two Drury means, and meets the spectral forms.
    from sectorlab.quadrature import QuadratureConfig

    pairs = [(PAIR_A, PAIR_B), (np.diag([1.0, 4.0]).astype(complex), np.diag([9.0, 1.0]).astype(complex))]
    pairs += accretive_pairs(4, (2, 3, 5), 0.5 * math.pi / 2, seed=97)
    for a, b in pairs:
        r = np.linalg.solve(a, b)
        for call, closed_form in _spectral_cases(tol=1e-14):
            assert _rel(call(a, b), closed_form(a, r)) <= 1e-13
    assert 1e-16 < quadrature._TOL_FLOOR < 1e-15
    calls = []
    monkeypatch.setattr(quadrature, "_integrate", lambda rule, f: calls.append(rule))
    for adaptive, fixed, _, _ in _adaptive_kinds(0.3).values():
        for a, b in pairs:
            for tol in (1e-16, 1e-30):
                for call in (partial(adaptive, a, b, tol=tol), partial(fixed, a, b, cfg=QuadratureConfig(tol=tol))):
                    with pytest.raises(NoConvergence, match="below the rounding floor") as exc:
                        call()
                    assert exc.value.payload is None
    assert calls == []


def test_auto_stack_is_bitwise_its_lone_calls(monkeypatch):
    # One call over stacked pairs of mixed weights takes every pair's poles from
    # one eigvals call, groups the pairs sharing a rule, a family at a count,
    # builds each rule once and inverts the node rows of all groups in one LAPACK
    # call.  Each result is bitwise the lone call's, with its node count and its
    # estimate.
    from sectorlab import entropy, means
    from sectorlab.means import GeometricMeanConfig

    cfg = GeometricMeanConfig()
    pairs = accretive_pairs(8, (3,), 0.9 * math.pi / 2, seed=79)
    weights = [0.1, 0.5, 0.9, 1.0 - 0.9] * 2
    a = np.stack([x for x, _ in pairs])
    b = np.stack([y for _, y in pairs])
    bodies = [
        (lambda a, b: means._geometric_mean(a, b, weights[:len(a)], cfg),
         lambda k: means._geometric_mean(a[k:k + 1], b[k:k + 1], [weights[k]], cfg)),
        (lambda a, b: means._drury_mean(a, b, cfg), lambda k: means._drury_mean(a[k:k + 1], b[k:k + 1], cfg)),
        (lambda a, b: entropy._tsallis_entropy(a, b, [0.0] * len(a), cfg),
         lambda k: entropy._tsallis_entropy(a[k:k + 1], b[k:k + 1], [0.0], cfg)),
        (lambda a, b: entropy._tsallis_entropy(a, b, [0.7] * len(a), cfg),
         lambda k: entropy._tsallis_entropy(a[k:k + 1], b[k:k + 1], [0.7], cfg)),
    ]
    rules = []
    jacobi = quadrature.gauss_jacobi
    monkeypatch.setattr(quadrature, "gauss_jacobi", lambda *args: rules.append(args) or jacobi(*args))
    stacks = node_stacks(monkeypatch)
    for stacked, lone in bodies:
        rules.clear()
        stacks.clear()
        got = stacked(a, b)
        assert len(rules) == len(set(rules)) > 1
        assert {n for n, _, _ in rules} <= set(quadrature._LADDER)
        assert stacks == [sum(got.nodes_used) * 9]
        for k in range(len(pairs)):
            want = lone(k)
            assert np.array_equal(got.value[k], want.value[0])
            assert (got.nodes_used[k], got.error_estimates[k]) == (want.nodes_used[0], want.error_estimates[0])
            assert type(got.error_estimates[k]) is float and got.error_estimates[k] >= 0.0
    assert np.array_equal(got.value[0], entropy.tsallis_entropy(*pairs[0], 0.7))


def test_auto_rule_raises_at_once_on_a_pole(monkeypatch):
    # A = I, B = diag(1, -c) puts a pole on (0, 1]: the default config raises
    # before it integrates anything, with no payload.
    from sectorlab.entropy import relative_entropy, tsallis_entropy
    from sectorlab.means import drury_mean, geometric_mean

    calls = []
    monkeypatch.setattr(quadrature, "_integrate", lambda rule, f: calls.append(rule))
    a = np.eye(2, dtype=complex)
    for c in (0.3, 5.0):
        b = np.diag([1.0, -c]).astype(complex)
        for call in (partial(geometric_mean, lam=0.3), drury_mean, relative_entropy,
                     partial(tsallis_entropy, lam=0.5)):
            with pytest.raises(NoConvergence, match=r"pole on \(0, 1\]") as exc:
                call(a, b)
            assert exc.value.payload is None
    assert calls == []


def test_auto_payload_is_the_512_node_result():
    # A pair that needs more than 512 nodes raises NoConvergence; the payload is
    # bitwise the 512-node fixed rule's result, with the bound at 512 nodes, which
    # exceeds the tolerance.
    from sectorlab.means import GeometricMeanConfig, _geometric_mean, drury_mean, geometric_mean

    cfg512 = GeometricMeanConfig(rule_nodes=512)
    seen = 0
    for a, b in accretive_pairs(6, (2, 3), 0.99 * math.pi / 2, seed=83):
        for call, fixed in ((partial(geometric_mean, lam=0.3), partial(geometric_mean, lam=0.3, cfg=cfg512)),
                            (drury_mean, partial(drury_mean, cfg=cfg512))):
            try:
                call(a, b)
            except NoConvergence as exc:
                seen += 1
                assert "more than 512 nodes" in str(exc)
                assert np.array_equal(exc.payload.value, fixed(a, b))
                assert exc.payload.nodes_used == 512
                assert exc.payload.error_estimate > 1e-12
    assert seen >= 2
    # the estimate scales like the mean: with the pair's gauge and sin(lam pi)/pi
    a, b = accretive_pairs(1, (3,), 0.6 * math.pi / 2, seed=89)[0]
    res = _geometric_mean(a[None], b[None], [0.3], GeometricMeanConfig())
    scaled = _geometric_mean(4.0 * a[None], 4.0 * b[None], [0.3], GeometricMeanConfig())
    assert scaled.nodes_used == res.nodes_used
    assert scaled.error_estimates[0] == pytest.approx(4.0 * res.error_estimates[0], rel=1e-13)


def test_auto_is_the_default_config():
    from sectorlab.quadrature import QuadratureConfig

    assert QuadratureConfig().rule_nodes == "auto"
    assert QuadratureConfig(rule_nodes="auto") == QuadratureConfig()
    for nodes in ("AUTO", "64", None):
        with pytest.raises(ValueError, match=r"^rule_nodes must be an integer in \[1, 4096\]"):
            QuadratureConfig(rule_nodes=nodes)


def test_max_nodes_is_checked_when_the_config_is_built():
    # The top of the automatic ladder is the config's max_nodes, 512 by default,
    # checked by the one integer rule as the config is built, with the message
    # the *_adaptive functions give for their cap.  No adaptive flag is left.
    from sectorlab.means import geometric_mean_adaptive
    from sectorlab.quadrature import QuadratureConfig

    assert QuadratureConfig().max_nodes == 512
    cfg = QuadratureConfig(max_nodes=np.int64(1024))
    assert type(cfg.max_nodes) is int and cfg == QuadratureConfig(max_nodes=1024)
    for cap in (31, 4097, True, 64.0):
        message = f"max_nodes must be an integer in [32, 4096], got {cap!r}"
        with pytest.raises(ValueError) as built:
            QuadratureConfig(max_nodes=cap)
        assert str(built.value) == message
        with pytest.raises(ValueError) as called:
            geometric_mean_adaptive(PAIR_A, PAIR_B, 0.3, max_nodes=cap)
        assert str(called.value) == message
    with pytest.raises(TypeError):
        QuadratureConfig(adaptive=True)


def test_tol_is_checked_when_the_config_is_built():
    # A tolerance must be a real number, not a bool, finite and > 0 when the
    # config is built: an infinite one would reach log(bound / tol) in the
    # automatic count as a math domain error.  The *_adaptive functions build the
    # same config, and integrate_adaptive takes the same rule.
    from sectorlab.means import geometric_mean, geometric_mean_adaptive
    from sectorlab.quadrature import QuadratureConfig

    for tol, message in ((0.0, "tol must be > 0, got 0.0"), (-1e-12, "tol must be > 0, got -1e-12"),
                         (math.nan, "tol must be > 0, got nan"), (math.inf, "tol must be finite, got inf"),
                         (-math.inf, "tol must be > 0, got -inf"), (0, "tol must be > 0, got 0"),
                         (10**400, f"tol must be finite, got {10**400}"),
                         (True, "tol must be a real number, got True"),
                         ("1e-3", "tol must be a real number, got '1e-3'"),
                         (None, "tol must be a real number, got None"),
                         (1e-3j, "tol must be a real number, got 0.001j")):
        for build in (partial(QuadratureConfig, tol=tol),
                      partial(geometric_mean_adaptive, PAIR_A, PAIR_B, 0.3, tol=tol),
                      partial(integrate_adaptive, lambda t: np.eye(1), gauss_legendre, tol)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()
    assert geometric_mean(PAIR_A, PAIR_B, 0.3, QuadratureConfig(tol=1e300)).shape == (2, 2)
    # a real tolerance of any type is stored as a float
    for tol in (1, np.float64(1e-3), Fraction(1, 1000)):
        assert type(QuadratureConfig(tol=tol).tol) is float
    assert QuadratureConfig(tol=1).tol == 1.0 and QuadratureConfig(tol=Fraction(1, 1000)).tol == 1e-3


def test_a_config_capped_at_4096_is_the_adaptive_functions_bitwise():
    # On the wide pairs of test_adaptive_meets_the_spectral_forms_at_wide_angles,
    # where some counts pass 512, the public functions under max_nodes=4096 give
    # the *_adaptive values bitwise.
    from sectorlab.entropy import (relative_entropy, relative_entropy_adaptive, tsallis_entropy,
                                   tsallis_entropy_adaptive)
    from sectorlab.means import drury_mean, drury_mean_adaptive, geometric_mean, geometric_mean_adaptive
    from sectorlab.quadrature import QuadratureConfig

    cfg = QuadratureConfig(max_nodes=4096)
    counts = []
    for dim in (2, 3, 8):
        for a, b in accretive_pairs(3, (dim,), 0.99 * math.pi / 2, seed=73 + dim):
            calls = [(drury_mean(a, b, cfg), drury_mean_adaptive(a, b)),
                     (relative_entropy(a, b, cfg), relative_entropy_adaptive(a, b))]
            for lam in (0.1, 0.9):
                calls += [(geometric_mean(a, b, lam, cfg), geometric_mean_adaptive(a, b, lam)),
                          (tsallis_entropy(a, b, lam, cfg), tsallis_entropy_adaptive(a, b, lam))]
            for value, res in calls:
                assert value.tobytes() == res.value.tobytes()
                counts.append(res.nodes_used)
    assert max(counts) > 512


def _pair_default_draw(seed: int, round_: int):
    # The dim-2 pair of a round of the pair-default benchmark, rebuilt with numpy:
    # A = P + i tan(theta) P^(1/2) H P^(1/2), P Hermitian positive definite with
    # log-uniform eigenvalues under a condition cap and a Haar basis, H Hermitian
    # with its spectrum clipped to [-1, 1], all from one PCG64 stream.
    g = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(1, round_))))
    theta = g.uniform(0.2, 0.8) * math.pi / 2
    cap = math.exp(g.uniform(0.0, math.log(100.0)))

    def herm(m):
        return (m + m.conj().T) / 2

    def draw():
        q, r = np.linalg.qr(g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2)))
        u = q * (np.diag(r).conj() / np.abs(np.diag(r)))
        p = herm((u * np.exp(g.uniform(-0.5 * math.log(cap), 0.5 * math.log(cap), size=2))) @ u.conj().T)
        w, v = np.linalg.eigh(herm(g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2))))
        h = herm((v * np.clip(w, -1.0, 1.0)) @ v.conj().T)
        w, v = np.linalg.eigh(p)
        root = (v * np.sqrt(w)) @ v.conj().T
        return p + 1j * (math.tan(theta) * herm(root @ h @ root))

    return theta, cap, draw(), draw()


def test_auto_rule_on_the_pair_default_seed_1516_pair():
    # Round 20 of the pair-default benchmark at seed 1516 drew a dim-2 pair
    # (theta = 0.741 pi/2, cap 99.2) whose 64-node entropies miss scipy by
    # 5.6e-8 and 8.1e-8; the default counts meet 1e-12.
    from scipy.linalg import fractional_matrix_power, logm

    from sectorlab.entropy import EntropyConfig, relative_entropy, tsallis_entropy

    theta, cap, a, b = _pair_default_draw(1516, 20)
    assert (round(theta / (math.pi / 2), 3), round(cap, 1)) == (0.741, 99.2)
    r = np.linalg.solve(a, b)
    s, t = a @ logm(r), (a @ fractional_matrix_power(r, 0.25) - a) / 0.25
    fixed = EntropyConfig(rule_nodes=64)
    assert _rel(relative_entropy(a, b, fixed), s) > 1e-8
    assert _rel(tsallis_entropy(a, b, 0.25, fixed), t) > 1e-8
    assert _rel(relative_entropy(a, b), s) <= 1e-12
    assert _rel(tsallis_entropy(a, b, 0.25), t) <= 1e-12
