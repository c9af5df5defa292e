"""The benchmark's oracle against closed forms it must reproduce.

    python3 -m pytest benchmarks/test_oracle.py -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import oracle  # noqa: E402


def _hpd_fn(h, fn):
    w, v = np.linalg.eigh(h)
    return (v * fn(w)) @ v.conj().T


def _hpd_pair(seed, dim):
    g = inputs.stream(seed, 0)
    return tuple(inputs.hpd(dim, 100.0, g, g) for _ in range(2))


@pytest.mark.parametrize("seed,dim,lam", [(0, 2, 0.3), (1, 3, 0.5), (2, 5, 0.9), (3, 8, 0.1)])
def test_mean_and_tsallis_match_hpd_closed_form(seed, dim, lam):
    a, b = _hpd_pair(seed, dim)
    root = _hpd_fn(a, np.sqrt)
    iroot = _hpd_fn(a, lambda w: w**-0.5)
    mean = root @ _hpd_fn(iroot @ b @ iroot, lambda w: w**lam) @ root
    assert oracle.rel_err(oracle.geometric_mean(a, b, lam), mean) < 1e-12
    assert oracle.rel_err(oracle.geometric_mean_hpd(a, b, lam), mean) < 1e-12
    assert oracle.rel_err(oracle.tsallis_entropy(a, b, lam), (mean - a) / lam) < 1e-11


@pytest.mark.parametrize("seed,dim", [(4, 2), (5, 4), (6, 7)])
def test_relative_entropy_and_drury_match_hpd_closed_form(seed, dim):
    a, b = _hpd_pair(seed, dim)
    root = _hpd_fn(a, np.sqrt)
    iroot = _hpd_fn(a, lambda w: w**-0.5)
    mid = iroot @ b @ iroot
    assert oracle.rel_err(oracle.relative_entropy(a, b), root @ _hpd_fn(mid, np.log) @ root) < 1e-12
    assert oracle.rel_err(oracle.drury_mean(a, b), root @ _hpd_fn(mid, np.sqrt) @ root) < 1e-12


def test_scalar_cases():
    one, four = np.array([[1.0]]), np.array([[4.0]])
    assert oracle.relative_entropy(one, four)[0, 0] == pytest.approx(math.log(4.0), rel=1e-14)
    assert oracle.tsallis_entropy(one, four, 0.5)[0, 0] == pytest.approx((math.sqrt(4.0) - 1.0) / 0.5,
                                                                          rel=1e-14)


def test_generated_pairs_lie_in_their_sector():
    g = inputs.stream(7, 0)
    theta = 0.9 * math.pi / 2
    for a in inputs.sector_pair(g, 5, theta, 100.0):
        re = (a + a.conj().T) / 2
        im = (a - a.conj().T) / 2j
        x = g.standard_normal((5, 200)) + 1j * g.standard_normal((5, 200))
        q_re = np.einsum("ij,ik,kj->j", x.conj(), re, x).real
        q_im = np.einsum("ij,ik,kj->j", x.conj(), im, x).real
        assert np.all(q_re > 0)
        assert np.all(np.abs(q_im) <= math.tan(theta) * q_re * (1 + 1e-12))
