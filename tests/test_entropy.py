import math
import re

import numpy as np
import pytest

from conftest import PAIR_A, PAIR_B, accretive_pairs, hpd_pairs
from sectorlab.entropy import (
    EntropyConfig,
    relative_entropy,
    relative_entropy_adaptive,
    relative_entropy_hpd,
    tsallis_entropy,
    tsallis_entropy_adaptive,
    tsallis_from_mean,
    tsallis_limit_probe,
)
from sectorlab.ensemble import SectorSpec, random_accretive
from sectorlab.errors import InvalidWeight, NotPositiveDefinite
from sectorlab.means import GeometricMeanConfig, drury_mean, drury_mean_adaptive
from sectorlab.quadrature import gauss_legendre


def rel_frob(x, y):
    return np.linalg.norm(x - y) / max(np.linalg.norm(y), 1e-300)


# ---------------------------------------------------------------- relative


def test_relative_entropy_scalar_examples():
    got = relative_entropy(np.array([[1.0]]), np.array([[math.e]]))
    assert got[0, 0].real == pytest.approx(1.0, abs=1e-10)
    got = relative_entropy(np.array([[4.0]]), np.array([[1.0]]))
    assert got[0, 0].real == pytest.approx(-4.0 * math.log(4.0), abs=1e-10)


def test_relative_entropy_identical_arguments():
    got = relative_entropy(PAIR_A, PAIR_A)
    assert np.linalg.norm(got) <= 1e-12


def test_relative_entropy_is_the_tsallis_integral_at_zero():
    # S = T_0: the lam = 0 kernel's Jacobi(-0.0, 0.0) rule is bitwise the
    # Gauss-Legendre rule, on both eigensolver routes, and relative_entropy is
    # the Legendre integral of the entropy path, bitwise.  (Every size up to
    # 512 agrees as well; sampling the large ones keeps the suite fast.)
    from sectorlab.entropy import _entropy_path
    from sectorlab.quadrature import _integrate, gauss_jacobi, gauss_legendre

    for n in list(range(1, 65)) + [100, 128, 255, 256, 257, 511, 512, 1024]:
        jacobi, legendre = gauss_jacobi(n, -0.0, 0.0), gauss_legendre(n)
        assert jacobi.nodes.tobytes() == legendre.nodes.tobytes()
        assert jacobi.weights.tobytes() == legendre.weights.tobytes()
    for a, b in accretive_pairs(4, (1, 2, 3, 6), 0.8, seed=61):
        for n in (16, 24, 64):
            want = _integrate(gauss_legendre(n), _entropy_path(a, b))
            assert relative_entropy(a, b, EntropyConfig(rule_nodes=n)).tobytes() == want.tobytes()


def test_relative_entropy_hpd_examples():
    got = relative_entropy_hpd(np.eye(2), np.diag([math.e, math.e**2]))
    np.testing.assert_allclose(got, np.diag([1.0, 2.0]), atol=1e-13)
    h = np.diag([2.0, 0.5])
    np.testing.assert_allclose(relative_entropy_hpd(h, h), np.zeros((2, 2)), atol=1e-13)
    got = relative_entropy_hpd(np.diag([2.0, 1.0]), np.diag([2.0 * math.e, 1.0]))
    np.testing.assert_allclose(got, np.diag([2.0, 0.0]), atol=1e-13)


def test_relative_entropy_hpd_agreement():
    for a, b in hpd_pairs(60, (2, 3, 4, 5, 6), seed=53):
        got = relative_entropy(a, b)
        want = relative_entropy_hpd(a, b)
        assert rel_frob(got, want) <= 1e-8


def test_relative_entropy_hpd_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        relative_entropy_hpd(np.diag([1.0, -1.0]), np.eye(2))


def test_relative_entropy_scalar_reduction():
    for a, b in ((0.7, 2.2), (3.0, 0.4), (1.0, 1.0)):
        got = relative_entropy(np.array([[a]]), np.array([[b]]))[0, 0].real
        assert got == pytest.approx(a * math.log(b / a), abs=1e-11)


# ------------------------------------------------------------------ tsallis


def test_tsallis_scalar_examples():
    got = tsallis_entropy(np.array([[1.0]]), np.array([[4.0]]), 0.5)
    assert got[0, 0].real == pytest.approx(2.0, abs=1e-10)
    got = tsallis_entropy(PAIR_A, PAIR_A, 0.3)
    assert np.linalg.norm(got) <= 1e-12


def test_tsallis_from_mean_scalar_examples():
    got = tsallis_from_mean(np.array([[1.0]]), np.array([[4.0]]), 0.5)
    assert got[0, 0].real == pytest.approx(2.0, abs=1e-10)
    got = tsallis_from_mean(np.array([[4.0]]), np.array([[1.0]]), 0.5)
    assert got[0, 0].real == pytest.approx(-4.0, abs=1e-10)
    got = tsallis_from_mean(PAIR_B, PAIR_B, 0.7)
    assert np.linalg.norm(got) <= 1e-10


def test_tsallis_scalar_reduction():
    for a, b, lam in ((0.7, 2.2, 0.3), (3.0, 0.4, 0.8)):
        want = (a ** (1 - lam) * b**lam - a) / lam
        got = tsallis_entropy(np.array([[a]]), np.array([[b]]), lam)[0, 0].real
        assert got == pytest.approx(want, abs=1e-11)
        got = tsallis_from_mean(np.array([[a]]), np.array([[b]]), lam)[0, 0].real
        assert got == pytest.approx(want, abs=1e-11)


def test_tsallis_representation_equality():
    # direct Beta-kernel integral vs (A #_lam B - A)/lam
    got = tsallis_entropy(PAIR_A, PAIR_B, 0.5)
    want = tsallis_from_mean(PAIR_A, PAIR_B, 0.5)
    assert np.linalg.norm(got - want) <= 1e-9
    for a, b in accretive_pairs(100, (2, 3, 4, 5, 6), 0.5, seed=59):
        for lam in (0.1, 0.5, 0.9):
            d = np.linalg.norm(tsallis_entropy(a, b, lam) - tsallis_from_mean(a, b, lam))
            assert d <= 1e-9


def test_tsallis_adaptive_routes():
    res = tsallis_entropy_adaptive(PAIR_A, PAIR_B, 0.4, tol=1e-12)
    fixed = tsallis_entropy(PAIR_A, PAIR_B, 0.4)
    assert np.linalg.norm(res.value - fixed) <= 1e-10
    res = relative_entropy_adaptive(PAIR_A, PAIR_B, tol=1e-12)
    fixed = relative_entropy(PAIR_A, PAIR_B)
    assert np.linalg.norm(res.value - fixed) <= 1e-10


def test_adaptive_entropies_converge_at_large_norm():
    # A 0.95*pi/2 pair scaled by 60 (||S||_F ~ 4e3): an absolute tol of 1e-12
    # lies below the rounding floor there, so the count must meet a
    # tolerance relative to ||A||_F, under any unitary similarity.
    from scipy.linalg import fractional_matrix_power, logm

    angle = 0.95 * math.pi / 2
    a0 = 60.0 * random_accretive(SectorSpec(dim=3, angle=angle, cond_cap=100.0, seed=0)).mat
    b0 = 60.0 * random_accretive(SectorSpec(dim=3, angle=angle, cond_cap=100.0, seed=1)).mat
    rng = np.random.default_rng(67)
    for _ in range(8):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(g)
        a = u @ a0 @ u.conj().T
        b = u @ b0 @ u.conj().T
        quotient = np.linalg.solve(a, b)
        res = relative_entropy_adaptive(a, b)
        assert rel_frob(res.value, a @ logm(quotient)) <= 1e-13
        assert res.error_estimate <= 1e-12 * np.linalg.norm(a)
        lam = 0.5
        res = tsallis_entropy_adaptive(a, b, lam)
        want = (a @ fractional_matrix_power(quotient, lam) - a) / lam
        assert rel_frob(res.value, want) <= 1e-13


def test_tsallis_rejects_bad_weight():
    with pytest.raises(InvalidWeight):
        tsallis_entropy(PAIR_A, PAIR_B, 0.0)
    with pytest.raises(InvalidWeight):
        tsallis_from_mean(PAIR_A, PAIR_B, 1.0)


# -------------------------------------------------------------- limit probe


def test_limit_probe_identical_arguments():
    probe = tsallis_limit_probe(PAIR_A, PAIR_A, [0.25, 0.125, 0.0625])
    assert all(dev <= 1e-12 for _, dev in probe)


def test_limit_probe_scalar_taylor_rate():
    # scalar pair (1, 4): deviation ~ (log 4)^2 * lam / 2 for small lam
    probe = tsallis_limit_probe(np.array([[1.0]]), np.array([[4.0]]),
                                [2.0**-k for k in range(3, 11)])
    lam, dev = probe[-1]
    assert dev == pytest.approx(math.log(4.0) ** 2 * lam / 2, rel=0.05)


def test_limit_probe_monotone_and_first_order():
    lams = [2.0**-k for k in range(3, 11)]
    for a, b in accretive_pairs(4, (2, 3), 0.5, seed=61):
        probe = tsallis_limit_probe(a, b, lams)
        devs = [dev for _, dev in probe]
        assert all(x > y for x, y in zip(devs, devs[1:]))
        # first-order rate holds well inside the asymptotic regime
        by_lam = dict(probe)
        for lam in (1e-2, 5e-3):
            hi = min(lams, key=lambda v: abs(v - lam))
            lo = min(lams, key=lambda v: abs(v - lam / 2))
            ratio = by_lam[lo] / by_lam[hi]
            assert 0.4 <= ratio <= 0.6


def test_probe_and_tsallis_from_mean_validate_once(monkeypatch):
    # Both validate their pair and weights once, then call the integral bodies,
    # bitwise as the public functions would give.
    import sectorlab.entropy as entropy
    import sectorlab.means as means
    from sectorlab.linalg import frob

    pair = accretive_pairs(1, (3,), 0.5, seed=67)[0]
    base = relative_entropy(*pair)
    want_probe = [(lam, frob(tsallis_entropy(*pair, lam) - base)) for lam in (0.3, 0.1)]
    want_mean = (means.geometric_mean(*pair, 0.3) - pair[0]) / 0.3
    calls = {"as_matrix": 0, "check_weight": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(means, "as_matrix")
    for module in (means, entropy):
        counted(module, "check_weight")
    assert tsallis_limit_probe(*pair, (0.3, 0.1)) == want_probe
    # the probe checks each of its two weights once, the bodies none
    assert calls == {"as_matrix": 2, "check_weight": 2}
    calls.update(as_matrix=0, check_weight=0)
    assert tsallis_from_mean(*pair, 0.3).tobytes() == want_mean.tobytes()
    assert calls == {"as_matrix": 2, "check_weight": 1}


def _lone_probe(a, b, lams, cfg):
    # the probe from lone public calls: S, then each T_lam, in grid order
    from sectorlab.linalg import frob

    base = relative_entropy(a, b, cfg)
    return [(lam, float(frob(tsallis_entropy(a, b, lam, cfg) - base))) for lam in lams]


def _outcome(fn):
    # a call's result, or its exception's type, message and NoConvergence payload
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - any exception is an outcome to compare
        p = getattr(exc, "payload", None)
        payload = None if p is None else (p.value.tobytes(), p.error_estimate, p.nodes_used)
        return type(exc), str(exc), payload


PROBE_GRIDS = ([0.5], [0.3, 0.1], [0.45, 0.3, 0.2, 0.1, 0.05], [2.0**-k for k in range(1, 9)])


def test_limit_probe_is_the_lone_calls_bitwise(monkeypatch):
    # S and every T_lam come from one evaluation of the pair stacked once per
    # weight, so the probe builds one path and takes the poles from one eigvals
    # call, and each deviation is bitwise the lone calls'.
    import sectorlab.entropy as entropy

    cases = [(pair, grid) for k, angle in enumerate((0.0, 0.5, 0.8, 0.95))
             for pair in accretive_pairs(4, (1, 2, 3, 8), angle * math.pi / 2, seed=80 + k)
             for grid in PROBE_GRIDS]
    want = [_lone_probe(*pair, grid, EntropyConfig()) for pair, grid in cases]
    calls = {"path": 0, "eigvals": 0}

    def counted(module, name, key):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(entropy, "_entropy_path", "path")
    counted(np.linalg, "eigvals", "eigvals")
    for (pair, grid), expected in zip(cases, want, strict=True):
        calls.update(path=0, eigvals=0)
        assert tsallis_limit_probe(*pair, grid) == expected
        assert calls == {"path": 1, "eigvals": 1}
    # a fixed rule, too
    for pair, grid in cases[::5]:
        cfg = EntropyConfig(rule_nodes=24)
        assert tsallis_limit_probe(*pair, grid, cfg) == _lone_probe(*pair, grid, cfg)


def test_limit_probe_raises_as_the_lone_calls():
    # The probe raises what the first of its lone calls, S then each T_lam, would:
    # S's exception and payload wherever S raises too.
    t = float(gauss_legendre(64).nodes[20])
    pole = (np.eye(2), np.diag([1.0, -t / (1.0 - t)]))  # a pole at t, on (0, 1]
    pairs = [pole, *accretive_pairs(6, (2, 3), 0.9 * math.pi / 2, seed=91),
             *accretive_pairs(6, (2, 3), 0.4 * math.pi / 2, seed=92)]
    cfgs = [EntropyConfig(tol=1e-17),
            *(EntropyConfig(tol=tol, max_nodes=32) for tol in (1e-8, 1e-11, 1e-14))]
    grid = [0.3, 0.1]
    seen = set()
    for a, b in pairs:
        for cfg in cfgs:
            lone = [_outcome(lambda: relative_entropy(a, b, cfg))]
            lone += [_outcome(lambda lam=lam: tsallis_entropy(a, b, lam, cfg)) for lam in grid]
            raised = [k for k, got in enumerate(lone) if got[0] != "ok"]
            want = lone[raised[0]] if raised else ("ok", _lone_probe(a, b, grid, cfg))
            assert _outcome(lambda: tsallis_limit_probe(a, b, grid, cfg)) == want
            kind = next((w for w in ("floor", "pole", "nodes") if raised and w in want[1]), None)
            seen.add((tuple(raised), kind))
    # every kind of failure was met: the floor and the pole by all three calls,
    # the node cap by S and the T_lam alike and by the T_lam alone
    assert {((0, 1, 2), "floor"), ((0, 1, 2), "pole"), ((0, 1, 2), "nodes"), ((1, 2), "nodes")} <= seen


def test_limit_probe_validation():
    with pytest.raises(InvalidWeight):
        tsallis_limit_probe(PAIR_A, PAIR_B, [0.75, 0.25])
    with pytest.raises(ValueError):
        tsallis_limit_probe(PAIR_A, PAIR_B, [0.125, 0.25])


def test_limit_probe_checks_each_weight_as_a_weight():
    # Each weight passes the one weight rule before the probe's own (0, 1/2]
    # and decreasing rules: a string or a bool is not a weight, NaN lies nowhere.
    for bad, shown in (("0.25", "'0.25'"), (True, "True"), (math.nan, "nan")):
        with pytest.raises(InvalidWeight, match=re.escape(f"got {shown}")):
            tsallis_limit_probe(PAIR_A, PAIR_B, [0.5, bad])
    with pytest.raises(InvalidWeight, match=re.escape("(0, 1/2], got [0.75, 0.25]")):
        tsallis_limit_probe(PAIR_A, PAIR_B, [0.75, 0.25])
    with pytest.raises(ValueError, match="strictly decreasing"):
        tsallis_limit_probe(PAIR_A, PAIR_B, [0.125, np.float64(0.25)])
    # numpy weights are weights, and probe as the equal Python floats
    assert tsallis_limit_probe(PAIR_A, PAIR_B, [np.float64(0.25), 0.125]) == \
        tsallis_limit_probe(PAIR_A, PAIR_B, [0.25, 0.125])


# ------------------------------------------------------------ configuration


def test_entropy_config_validation():
    with pytest.raises(ValueError):
        EntropyConfig(rule_nodes=0)
    with pytest.raises(ValueError):
        EntropyConfig(tol=-1.0)
    cfg = EntropyConfig(rule_nodes=32)
    got = relative_entropy(PAIR_A, PAIR_B, cfg)
    want = relative_entropy(PAIR_A, PAIR_B)
    assert np.linalg.norm(got - want) <= 1e-10


def test_one_config_routes_fixed_functions_to_node_doubling():
    # One config class serves every integral, so a memo keyed on a config
    # cannot split on which module built it.
    assert EntropyConfig is GeometricMeanConfig
    assert EntropyConfig() == GeometricMeanConfig()
    cfg = EntropyConfig(tol=1e-11, max_nodes=4096)
    for a, b in ((PAIR_A, PAIR_B), (60.0 * PAIR_A, 60.0 * PAIR_B)):
        assert np.array_equal(drury_mean(a, b, cfg), drury_mean_adaptive(a, b, tol=1e-11).value)
        assert np.array_equal(relative_entropy(a, b, cfg),
                              relative_entropy_adaptive(a, b, tol=1e-11).value)
        for lam in (0.3, 0.5):
            assert np.array_equal(tsallis_entropy(a, b, lam, cfg),
                                  tsallis_entropy_adaptive(a, b, lam, tol=1e-11).value)
