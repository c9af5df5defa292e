import json
import math
import re

import numpy as np
import pytest

from conftest import node_stacks
from sectorlab.ensemble import derive_seed, random_unit_vectors
from sectorlab.entropy import relative_entropy, relative_entropy_hpd
from sectorlab.linalg import (
    LoewnerTolerance,
    _frob_scaled,
    inverse,
    loewner_margin,
    op_norm,
    real_part,
    symmetrize,
)
from sectorlab.means import (
    GeometricMeanConfig,
    arithmetic_mean,
    geometric_mean,
    geometric_mean_hpd,
    harmonic_mean,
)
from sectorlab.serialize import to_json
from sectorlab.verify import (
    _TAG_BILIN_X,
    _TAG_BILIN_XSTAR,
    _TAG_FAMILY,
    DEFAULT_TOLERANCE,
    HOMOGENEITY_RTOL,
    HOMOGENEITY_SCALES,
    SYMMETRY_RTOL,
    THEOREM_CHECKS,
    EnsembleSpec,
    PropertyReport,
    all_theorem_checks_clean,
    check_bilinear,
    check_homogeneity,
    check_norm_inequality,
    check_re_geometric,
    check_re_harmonic,
    check_re_relative_entropy,
    check_re_tsallis,
    check_symmetry,
    check_vector_family,
    reports_to_dict,
    run_all,
    search_agh_counterexample,
    trial_pair,
)

SMALL = EnsembleSpec(dim=3, trials=8, seed=7)
HPD = EnsembleSpec(dim=3, trials=8, seed=7, sector_angle=0.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(dim=0)
    with pytest.raises(ValueError):
        EnsembleSpec(trials=0)
    with pytest.raises(ValueError):
        EnsembleSpec(sector_angle=math.pi / 2)
    with pytest.raises(ValueError):
        EnsembleSpec(lambda_grid=(0.5, 1.0))
    with pytest.raises(ValueError):
        EnsembleSpec(lambda_grid=())
    # a seed is an integer >= 0 and trials an integer; each message names its field
    for bad in (-1, 1.5, True, "3"):
        with pytest.raises(ValueError, match="seed"):
            EnsembleSpec(seed=bad)
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="trials"):
            EnsembleSpec(trials=bad)
    assert EnsembleSpec(trials=np.int64(2), seed=np.uint32(5)).seed == 5
    # dim and the checks' sizes are integers too, rejected before any draw
    for bad in (0, 2.5, True, "3", 65):
        with pytest.raises(ValueError, match="dim"):
            EnsembleSpec(dim=bad)
    assert EnsembleSpec(dim=np.int64(2)).dim == 2
    assert type(EnsembleSpec(dim=np.int64(2)).dim) is int
    # the angle and the weights are real numbers, not bools, strings, None or complex
    for bad in (True, "0.4", None, 0.4 + 0j):
        with pytest.raises(ValueError, match=r"^sector_angle must lie in \[0, pi/2\)"):
            EnsembleSpec(sector_angle=bad)
    for grid in ((True,), ("0.5",), (0.5, None), (0.5 + 0j,), (0.3, False)):
        with pytest.raises(ValueError, match=r"^lambda grid entries must lie in \(0, 1\)"):
            EnsembleSpec(lambda_grid=grid)
    # the grid itself is a tuple or list: a number or a string is refused, by its value
    for grid, shown in ((0.5, "0.5"), ("0.5", "'0.5'"), (None, "None")):
        with pytest.raises(ValueError, match=f"^lambda_grid must be a tuple or list of weights, got {shown}$"):
            EnsembleSpec(lambda_grid=grid)
    spec = EnsembleSpec(sector_angle=np.float32(0.5), lambda_grid=(np.float64(0.25), np.float32(0.5)))
    assert spec.sector_angle == 0.5 and spec.lambda_grid == (0.25, 0.5)
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match="family_size"):
            check_vector_family(SMALL, family_size=bad)
        with pytest.raises(ValueError, match="pairs_per_trial"):
            check_bilinear(SMALL, pairs_per_trial=bad)


def test_numpy_built_spec_gives_the_python_built_document():
    # The spec stores Python scalars, so a report of numpy-built fields
    # serializes, to the bytes of the same spec built from Python numbers.
    plain = EnsembleSpec(dim=2, trials=2, seed=3, sector_angle=0.5, lambda_grid=(0.25, 0.5))
    built = EnsembleSpec(dim=np.int64(2), trials=np.int32(2), seed=np.uint32(3),
                         sector_angle=np.float32(0.5), lambda_grid=[np.float32(0.25), np.float64(0.5)])
    assert built == plain
    assert to_json(reports_to_dict(built, run_all(built))) == to_json(reports_to_dict(plain, run_all(plain)))


def test_report_invariants_and_zero_violations():
    for check in (check_re_geometric, check_re_harmonic, check_re_relative_entropy,
                  check_re_tsallis, check_vector_family, check_norm_inequality,
                  check_bilinear, check_homogeneity, check_symmetry):
        rep = check(SMALL)
        assert rep.trials == SMALL.trials
        assert 0 <= rep.violations <= rep.trials
        assert math.isfinite(rep.worst_margin)
        assert rep.violations == 0
        assert 0 <= rep.worst_seed < SMALL.trials


def test_hpd_ensemble_gives_equality_margins():
    # angle 0: both sides of each Re-part theorem coincide
    for check in (check_re_geometric, check_re_harmonic,
                  check_re_relative_entropy, check_re_tsallis):
        rep = check(HPD)
        assert rep.violations == 0
        assert abs(rep.worst_margin) <= 1e-8


def test_identical_pair_margin_is_zero():
    # A = B makes every chain link an equality up to quadrature error
    a, _ = trial_pair(SMALL, 0)
    lhs = real_part(geometric_mean(a, a, 0.5))
    rhs = geometric_mean_hpd(real_part(a.mat), real_part(a.mat), 0.5)
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)


def test_trial_pair_shared_streams():
    a1, b1 = trial_pair(SMALL, 3)
    a2, b2 = trial_pair(SMALL, 3)
    assert np.array_equal(a1.mat, a2.mat)
    assert np.array_equal(b1.mat, b2.mat)
    a3, _ = trial_pair(SMALL, 4)
    assert not np.array_equal(a1.mat, a3.mat)


def test_vector_family_sizes():
    for size in (1, 3, 8):
        rep = check_vector_family(SMALL, family_size=size)
        assert rep.violations == 0
    with pytest.raises(ValueError):
        check_vector_family(SMALL, family_size=0)


def test_run_all_returns_nine_reports():
    reports = run_all(EnsembleSpec(dim=2, trials=1, seed=1))
    assert len(reports) == 9
    assert [r.property_id for r in reports] == [
        "check_re_geometric", "check_re_harmonic", "check_re_relative_entropy",
        "check_re_tsallis", "check_vector_family", "check_norm_inequality",
        "check_bilinear", "check_homogeneity", "check_symmetry",
    ]
    assert all_theorem_checks_clean(reports)


def test_run_all_deterministic_bytes():
    spec = EnsembleSpec(dim=2, trials=3, seed=11)
    doc1 = to_json(reports_to_dict(spec, run_all(spec)))
    doc2 = to_json(reports_to_dict(spec, run_all(spec)))
    assert doc1 == doc2


def test_run_all_equals_each_check_alone():
    # run_all shares one evaluation between its checks; every report must be
    # the one the check gives when it is called alone
    from sectorlab.verify import CHECKS_BY_ID

    spec = EnsembleSpec(dim=3, trials=3, seed=5, lambda_grid=(0.2, 0.5, 0.7, 0.9))
    reports = run_all(spec)
    for rep in reports:
        alone = CHECKS_BY_ID[rep.property_id](spec)
        assert to_json(rep.to_dict()) == to_json(alone.to_dict())
    # a grid given as a list (unhashable spec) shares the evaluation as well
    listed = EnsembleSpec(dim=3, trials=3, seed=5, lambda_grid=[0.2, 0.5, 0.7, 0.9])
    assert [r.to_dict() for r in run_all(listed)] == [r.to_dict() for r in reports]


def test_mean_failure_stays_with_the_mean_checks(monkeypatch):
    import sectorlab.means as means
    from sectorlab.errors import SingularMatrix

    spec = EnsembleSpec(dim=3, trials=3, seed=5)
    clean = {r.property_id: r for r in run_all(spec)}

    def broken(ab):
        raise SingularMatrix("injected")

    monkeypatch.setattr(means, "_harmonic_path", broken)
    reports = run_all(spec)
    assert len(reports) == 9
    for rep in reports:
        if rep.property_id in ("check_re_harmonic", "check_re_relative_entropy"):
            assert rep == clean[rep.property_id]
        else:
            assert rep.status == "error"
            assert rep.detail == "SingularMatrix: injected"
    assert not all_theorem_checks_clean(reports)


def test_default_report_integrates_once_per_rule(monkeypatch):
    # A report's means are one evaluation and its relative entropies another.
    # Each groups its pairs by rule, a node count of each weight, 0.1, 0.5, 0.9
    # and the flipped means' 1 - 0.9, or of the relative entropy, the lam = 0
    # Tsallis integral, and builds each rule once.  Each pair's node count is
    # its own, from the ladder.  The node rows of all groups are inverted in
    # batches of whole pairs and at most _BATCH_ENTRIES entries, one LAPACK call
    # each: the default report's 1200 means fill a batch to within one pair,
    # and a 2-trial report's integrals take exactly two inversions.  A pair that
    # alone exceeds the cap is a batch of its own, and batching changes no bit.
    import sectorlab.quadrature as quadrature

    built = []
    jacobi = quadrature.gauss_jacobi
    monkeypatch.setattr(quadrature, "gauss_jacobi", lambda *args: built.append(args) or jacobi(*args))
    stacks = node_stacks(monkeypatch)
    run_all(EnsembleSpec())
    assert len(set(built)) == len(built)
    assert {n for n, _, _ in built} <= set(quadrature._LADDER)
    assert {rule[1:] for rule in built} == {(-lam, lam - 1.0) for lam in (0.1, 0.5, 0.9, 1.0 - 0.9)} | {
        (-0.0, 0.0)}
    assert max(stacks) <= quadrature._BATCH_ENTRIES < stacks[0] + 512 * 9
    spec = EnsembleSpec(trials=2, seed=4)
    stacks.clear()
    want = reports_to_dict(spec, run_all(spec))
    assert len(stacks) == 2
    monkeypatch.setattr(quadrature, "_BATCH_ENTRIES", 1)
    stacks.clear()
    assert reports_to_dict(spec, run_all(spec)) == want
    assert len(stacks) == 2 * 3 * 4 + 2  # per trial and weight A #_lam B, two scaled, one flipped; S


def test_report_json_schema():
    spec = EnsembleSpec(dim=2, trials=2, seed=3)
    doc = reports_to_dict(spec, run_all(spec))
    text = to_json(doc)
    parsed = json.loads(text)
    assert set(parsed.keys()) == {"spec", "reports"}
    assert parsed["spec"]["generator"] == "pcg64-seedsequence"
    assert parsed["spec"]["seed"] == 3
    assert len(parsed["reports"]) == 9
    for rep in parsed["reports"]:
        assert list(rep.keys()) == ["property_id", "trials", "violations",
                                    "worst_margin", "worst_seed", "tolerance"]
        assert set(rep["tolerance"].keys()) == {"absolute", "relative"}
        assert rep["violations"] <= rep["trials"]


def test_worst_margin_above_tolerance_floor():
    for rep in run_all(SMALL):
        assert rep.worst_margin >= -2e-10


def test_all_theorem_checks_clean_logic():
    good = PropertyReport("check_symmetry", 5, 0, 0.0, 0, DEFAULT_TOLERANCE)
    bad = PropertyReport("check_symmetry", 5, 2, -1.0, 1, DEFAULT_TOLERANCE)
    err = PropertyReport("check_symmetry", 0, 0, 0.0, 0, DEFAULT_TOLERANCE, status="error")
    search_hit = PropertyReport("search_agh_counterexample", 5, 4, -0.2, 1,
                                DEFAULT_TOLERANCE, status="found")
    assert all_theorem_checks_clean([good])
    assert not all_theorem_checks_clean([good, bad])
    assert not all_theorem_checks_clean([err])
    assert all_theorem_checks_clean([good, search_hit])
    # searches are told apart by status: a second search is not a theorem violation
    other_search = PropertyReport("search_entropy_chain", 5, 3, -0.1, 2, DEFAULT_TOLERANCE,
                                  status="found")
    assert all_theorem_checks_clean([good, other_search])


def test_homogeneity_rejects_bad_scales_before_any_work(monkeypatch):
    import sectorlab.verify as verify

    # the scales are read once, so an iterator of them gives the tuple's report
    scales = ((1.0, 2.0), (3.0, 0.5))
    assert check_homogeneity(SMALL, scales=iter(scales)) == check_homogeneity(SMALL, scales=scales)

    def no_work(*args, **kwargs):
        raise AssertionError("scales must be checked before the evaluation")

    monkeypatch.setattr(verify, "_evaluate_pairs", no_work)
    with pytest.raises(ValueError, match="empty"):
        check_homogeneity(SMALL, scales=())
    # a bare number is not a pair, and a bool is not a scale, as it is not a weight
    for entry in ((0.0, 1.0), (-1.0, 1.0), (2.0,), 1.0, (True, 2.0)):
        with pytest.raises(ValueError, match=re.escape(repr(entry))):
            check_homogeneity(SMALL, scales=(entry,))
        with pytest.raises(ValueError, match=re.escape(repr(entry))):
            check_homogeneity(SMALL, scales=iter([(1.0, 2.0), entry]))


@pytest.mark.parametrize("s", [1e-200, 1e-7, 1e6, 1e7, 1e200])
def test_homogeneity_is_clean_at_any_scale(s, monkeypatch):
    # The deviation is relative to alpha^(1-lam) beta^lam (A #_lam B), the value
    # the scaled mean is compared with, so the margin is rounding noise at every
    # scale; relative to ||A #_lam B|| it grew with the scale and failed from
    # 1e6.  A RuntimeWarning is an error in this suite.
    import sectorlab.verify as verify

    spec = EnsembleSpec(dim=3, trials=20, seed=1)
    rep = check_homogeneity(spec, scales=((s, s),))
    assert rep.violations == 0
    assert abs(rep.worst_margin) <= 1e-13
    # A relative error of 1e-8 in the scaled means fails every trial, also
    # where the means' norm is far below 1e-30.
    mean = verify._geometric_mean

    def off(a, b, lams, cfg):
        out = mean(a, b, lams, cfg)
        out.value[np.abs(np.log10(_frob_scaled(a))) > 3] *= 1 + 1e-8
        return out

    monkeypatch.setattr(verify, "_geometric_mean", off)
    assert check_homogeneity(spec, scales=((s, s),)).violations == spec.trials


# ------------------------------------------------------------------- search


def test_search_on_hpd_ensemble_finds_nothing():
    rep = search_agh_counterexample(EnsembleSpec(dim=2, trials=50, seed=0,
                                                 sector_angle=0.0, lambda_grid=(0.5,)))
    assert rep.violations == 0
    assert rep.status == "warning"
    assert rep.detail is None


def test_search_finds_witness_at_wide_angle():
    spec = EnsembleSpec(dim=2, trials=50, seed=0,
                        sector_angle=0.49 * (math.pi / 2), lambda_grid=(0.5,))
    rep = search_agh_counterexample(spec)
    assert rep.status == "found"
    assert rep.violations >= 1
    assert rep.detail is not None


def test_frozen_witness_reproduces_deterministically():
    # witness found during the development search: trial 1 of the seed-0
    # ensemble at angle 0.49 * pi/2 breaks the harmonic <= geometric link
    spec = EnsembleSpec(dim=2, trials=2, seed=0,
                        sector_angle=0.49 * (math.pi / 2), lambda_grid=(0.5,))
    a, b = trial_pair(spec, 1)
    sharp = real_part(geometric_mean(a, b, 0.5))
    low = real_part(harmonic_mean(a, b, 0.5))
    margin = float(np.linalg.eigvalsh(sharp - low)[0])
    scale = max(np.linalg.norm(sharp, 2), np.linalg.norm(low, 2))
    tol = LoewnerTolerance()
    assert margin < -(tol.absolute + tol.relative * scale)
    rep = search_agh_counterexample(spec)
    assert rep.status == "found" and rep.violations >= 1


def _per_trial_agh_search(spec: EnsembleSpec) -> PropertyReport:
    # The search one trial at a time through the public means: each trial's
    # pair drawn alone, each link's margin from loewner_margin.
    lams = [0.5] + [l for l in spec.lambda_grid if l != 0.5]
    worst, worst_seed, violations, detail = math.inf, 0, 0, None
    for i in range(spec.trials):
        a, b = trial_pair(spec, i)
        margins, broke = [], None
        for lam in lams:
            sharp = real_part(geometric_mean(a, b, lam))
            low = real_part(harmonic_mean(a, b, lam))
            high = real_part(arithmetic_mean(a.mat, b.mat, lam))
            for link, x, y in (("harmonic<=geometric", sharp, low),
                               ("geometric<=arithmetic", high, sharp)):
                holds, _, margin = loewner_margin(x, y, DEFAULT_TOLERANCE)
                margins.append(margin)
                if not holds and broke is None:
                    broke = f"{link} fails at lambda={lam:g}"
        if broke is not None:
            violations += 1
            if detail is None:
                detail = f"trial {i}: {broke}"
        if min(margins) < worst:
            worst, worst_seed = min(margins), i
    return PropertyReport(property_id="search_agh_counterexample", trials=spec.trials,
                          violations=violations, worst_margin=worst, worst_seed=worst_seed,
                          tolerance_used=DEFAULT_TOLERANCE,
                          status="found" if violations else "warning", detail=detail)


def test_search_equals_the_per_trial_search():
    # The search reads the shared trial pairs and batched means; its report,
    # margins and witness included, is the per-trial search's.
    found = 0
    for dim in (2, 3):
        for angle in (0.49, 0.9):
            for grid in ((0.5,), (0.2, 0.7), (0.1, 0.5, 0.9)):
                spec = EnsembleSpec(dim=dim, trials=6, seed=5,
                                    sector_angle=angle * (math.pi / 2), lambda_grid=grid)
                want = _per_trial_agh_search(spec).to_dict()
                assert search_agh_counterexample(spec).to_dict() == want
                found += want["detail"] is not None
    assert found >= 6


def test_bilinear_inequality_direct_examples():
    # orthogonal x, x*: left-hand side vanishes, inequality trivially holds
    from sectorlab.means import scalar_geometric

    a, b = trial_pair(SMALL, 0)
    re_mean = real_part(geometric_mean(a, b, 0.5))
    inv_ra = np.linalg.inv(real_part(a.mat))
    inv_rb = np.linalg.inv(real_part(b.mat))
    x = np.array([1.0, 0.0, 0.0], dtype=complex)
    xstar = np.array([0.0, 1.0, 0.0], dtype=complex)
    lhs = float(np.vdot(x, xstar).real) ** 2
    rhs = np.vdot(xstar, re_mean @ xstar).real * scalar_geometric(
        np.vdot(x, inv_ra @ x).real, np.vdot(x, inv_rb @ x).real, 0.5)
    assert lhs == 0.0 and rhs > 0.0
    # A = B = I with x = x* = e1: both sides equal one
    eye = np.eye(2, dtype=complex)
    e1 = np.array([1.0, 0.0], dtype=complex)
    re_mean = real_part(geometric_mean(eye, eye, 0.5))
    lhs = float(np.vdot(e1, e1).real) ** 2
    rhs = np.vdot(e1, re_mean @ e1).real * scalar_geometric(1.0, 1.0, 0.5)
    assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0, rel=1e-10)


def test_vector_family_zero_family_is_equality():
    # an all-zero family makes both sides of the family inequality vanish
    a, b = trial_pair(SMALL, 0)
    inv_mean = np.linalg.inv(real_part(geometric_mean(a, b, 0.5)))
    zeros = [np.zeros(3, dtype=complex)] * 4
    lhs = sum(np.vdot(x, inv_mean @ x).real for x in zeros)
    assert lhs == 0.0  # and the weighted geometric mean of two zero sums is zero


def test_search_report_includes_status_key():
    spec = EnsembleSpec(dim=2, trials=2, seed=0,
                        sector_angle=0.49 * (math.pi / 2), lambda_grid=(0.5,))
    rep = search_agh_counterexample(spec)
    doc = rep.to_dict()
    assert doc["status"] in ("found", "warning")
    assert "property_id" in doc and doc["property_id"] == "search_agh_counterexample"


# ------------------------------------------------------ per-trial reference


def _per_trial_outcomes(spec: EnsembleSpec, cfg=GeometricMeanConfig(), family_size=3,
                        pairs_per_trial=8, scales=HOMOGENEITY_SCALES) -> dict:
    # The nine checks one trial at a time through the public API: each
    # trial's pair drawn alone, each mean and entropy computed alone, each
    # Loewner margin from loewner_margin and each sum in Python's order.  The
    # power, the square and the norm are the checks' numpy forms on one trial,
    # the power and the square on 1-element arrays, as a numpy scalar's power
    # goes through libm.  Gives, per check, every trial's list of (holds,
    # margin) comparisons.
    tol = DEFAULT_TOLERANCE

    def loewner(x, y):
        holds, _, margin = loewner_margin(x, y, tol)
        return holds, margin

    def scalar(lhs, rhs):
        gap = rhs - lhs
        return gap >= -(tol.absolute + tol.relative * abs(rhs)), gap / max(abs(rhs), 1e-30)

    def relative(dev, norm, rtol):
        rel = dev / max(norm, np.finfo(float).tiny)
        return not rel > rtol, -rel

    def geometric(alpha, beta, lam):
        alpha, beta, lam = np.array([alpha]), np.array([beta]), np.array([lam])
        return (alpha ** (1 - lam) * beta**lam)[0]

    def square(x):
        return np.square(np.array([x]))[0]

    outcomes = {fn.__name__: [] for fn in THEOREM_CHECKS}
    for i in range(spec.trials):
        a, b = (x.mat for x in trial_pair(spec, i))
        re_a, re_b = real_part(a), real_part(b)
        inv_a, inv_b = inverse(re_a), inverse(re_b)
        family = random_unit_vectors(spec.dim, family_size, derive_seed(spec.seed, _TAG_FAMILY, i))
        xs = random_unit_vectors(spec.dim, pairs_per_trial, derive_seed(spec.seed, _TAG_BILIN_X, i))
        xstars = random_unit_vectors(spec.dim, pairs_per_trial,
                                     derive_seed(spec.seed, _TAG_BILIN_XSTAR, i))
        trial = {name: [] for name in outcomes}
        trial["check_re_relative_entropy"].append(loewner(
            real_part(relative_entropy(a, b, cfg)), relative_entropy_hpd(re_a, re_b)))
        for lam in spec.lambda_grid:
            sharp = geometric_mean(a, b, lam, cfg)
            re_sharp = real_part(sharp)
            inv_sharp = inverse(re_sharp)
            hpd = geometric_mean_hpd(re_a, re_b, lam)
            trial["check_re_geometric"].append(loewner(re_sharp, hpd))
            trial["check_re_harmonic"].append(loewner(
                real_part(harmonic_mean(a, b, lam)), harmonic_mean(re_a, re_b, lam)))
            trial["check_re_tsallis"].append(loewner(
                real_part((sharp - a) / lam), symmetrize((hpd - re_a) / lam)))
            sum_a = sum(np.vdot(x, inv_a @ x).real for x in family)
            sum_b = sum(np.vdot(x, inv_b @ x).real for x in family)
            trial["check_vector_family"].append(scalar(
                sum(np.vdot(x, inv_sharp @ x).real for x in family),
                geometric(sum_a, sum_b, lam)))
            trial["check_norm_inequality"].append(scalar(
                op_norm(inv_sharp), geometric(op_norm(inv_a), op_norm(inv_b), lam)))
            for x, xstar in zip(xs, xstars):
                quad_ab = geometric(np.vdot(x, inv_a @ x).real, np.vdot(x, inv_b @ x).real, lam)
                trial["check_bilinear"].append(scalar(
                    square(np.vdot(x, xstar).real),
                    np.vdot(xstar, re_sharp @ xstar).real * quad_ab))
            for alpha, beta in scales:
                want = geometric(alpha, beta, lam) * sharp
                dev = _frob_scaled(geometric_mean(alpha * a, beta * b, lam, cfg) - want)
                trial["check_homogeneity"].append(
                    relative(dev, _frob_scaled(want), HOMOGENEITY_RTOL))
            flip = geometric_mean(b, a, 1.0 - lam, cfg)
            trial["check_symmetry"].append(
                relative(_frob_scaled(sharp - flip), _frob_scaled(sharp), SYMMETRY_RTOL))
        for name, got in trial.items():
            outcomes[name].append(got)
    return outcomes


def _per_trial_reports(spec: EnsembleSpec, **options) -> dict:
    tol = DEFAULT_TOLERANCE
    tolerances = {
        "check_homogeneity": LoewnerTolerance(absolute=0.0, relative=HOMOGENEITY_RTOL),
        "check_symmetry": LoewnerTolerance(absolute=0.0, relative=SYMMETRY_RTOL),
    }
    reports = {}
    for name, trials in _per_trial_outcomes(spec, **options).items():
        worst, worst_seed, violations = math.inf, 0, 0
        for i, got in enumerate(trials):
            violations += not all(holds for holds, _ in got)
            low = min(margin for _, margin in got)
            if low < worst:
                worst, worst_seed = low, i
        reports[name] = PropertyReport(property_id=name, trials=spec.trials,
                                       violations=violations, worst_margin=worst,
                                       worst_seed=worst_seed,
                                       tolerance_used=tolerances.get(name, tol))
    return reports


REFERENCE_SPECS = (
    EnsembleSpec(dim=1, trials=5, seed=2),
    EnsembleSpec(dim=2, trials=4, seed=9, sector_angle=0.9 * (math.pi / 2), lambda_grid=(0.3, 0.7)),
    EnsembleSpec(dim=3, trials=4, seed=3),
    EnsembleSpec(dim=3, trials=3, seed=1, sector_angle=0.0, lambda_grid=(0.2, 0.6)),
    EnsembleSpec(dim=5, trials=3, seed=4, sector_angle=0.8 * (math.pi / 2),
                 lambda_grid=(0.2, 0.5, 0.7, 0.9)),
)


def test_reports_equal_the_per_trial_reference():
    # Every report, bytes included, is the one the checks give one trial at a
    # time through the public API, in run_all and called alone with options.
    for spec in REFERENCE_SPECS:
        want = _per_trial_reports(spec)
        assert [to_json(r.to_dict()) for r in run_all(spec)] == [
            to_json(want[fn.__name__].to_dict()) for fn in THEOREM_CHECKS]
    spec = EnsembleSpec(dim=3, trials=3, seed=6, sector_angle=0.9 * (math.pi / 2),
                        lambda_grid=(0.25, 0.75))
    cfg = GeometricMeanConfig(rule_nodes=24)
    scales = ((2.0, 0.5), (1.0, 1.0), (3.0, 3.0))
    want = _per_trial_reports(spec, cfg=cfg, family_size=5, pairs_per_trial=2, scales=scales)
    alone = (
        check_re_geometric(spec, cfg=cfg),
        check_re_harmonic(spec),
        check_re_relative_entropy(spec, cfg=cfg),
        check_re_tsallis(spec, cfg=cfg),
        check_vector_family(spec, family_size=5, cfg=cfg),
        check_norm_inequality(spec, cfg=cfg),
        check_bilinear(spec, pairs_per_trial=2, cfg=cfg),
        check_homogeneity(spec, scales=scales, cfg=cfg),
        check_symmetry(spec, cfg=cfg),
    )
    for rep in alone:
        assert to_json(rep.to_dict()) == to_json(want[rep.property_id].to_dict())


def test_predicate_margins_equal_the_per_trial_reference():
    # Each predicate's (holds, margin) arrays hold every comparison of the
    # per-trial checks, bitwise, in the per-trial order; a report shows only
    # its worst margin, so this sees rounding the report would hide.
    from sectorlab.verify import _PREDICATES, _TOLERANCES, _evaluate_means, _evaluate_pairs

    # 12 terms make numpy's sum pair them; 48 pairs per trial give the power
    # and the square long stacks.
    sizes = {"family_size": 12, "pairs_per_trial": 48}
    options = {"check_vector_family": {"family_size": 12}, "check_bilinear": {"pairs_per_trial": 48}}
    predicates = {fn.__name__: predicate for fn, predicate in zip(THEOREM_CHECKS, _PREDICATES)}
    for spec in REFERENCE_SPECS:
        p = _evaluate_pairs(spec)
        m = _evaluate_means(spec, p, GeometricMeanConfig())
        for name, trials in _per_trial_outcomes(spec, **sizes).items():
            predicate = predicates[name]
            holds, margins = predicate(spec, p, m, _TOLERANCES.get(predicate, DEFAULT_TOLERANCE),
                                       **options.get(name, {}))
            want = np.array([[margin for _, margin in got] for got in trials])
            assert np.asarray(margins).reshape(want.shape).tobytes() == want.tobytes(), name
            assert np.array_equal(np.reshape(holds, want.shape),
                                  [[ok for ok, _ in got] for got in trials]), name


def test_shared_hpd_forms_are_the_public_closed_forms_bitwise(monkeypatch):
    # A report factors Re A and the inner matrix (Re A)^-1/2 Re B (Re A)^-1/2 of
    # all its trials once, in two stacked eigh calls, and applies to them the power
    # of every weight and the log: bitwise geometric_mean_hpd and
    # relative_entropy_hpd of each trial alone.
    import sectorlab.means as means
    from sectorlab.errors import NotPositiveDefinite
    from sectorlab.linalg import _LOG, _power
    from sectorlab.verify import _evaluate_means, _evaluate_pairs

    herm_eig = means._herm_eig
    calls = []
    monkeypatch.setattr(means, "_herm_eig", lambda h: calls.append(h.shape) or herm_eig(h))
    for spec in REFERENCE_SPECS:
        calls.clear()
        p = _evaluate_pairs(spec)
        m = _evaluate_means(spec, p, GeometricMeanConfig())
        entropies = p.hpd(_LOG)
        assert calls == [(spec.trials, spec.dim, spec.dim)] * 2
        for i in range(spec.trials):
            re_a, re_b = p.re[:, i]
            for j, lam in enumerate(spec.lambda_grid):
                assert m.hpd[i, j].tobytes() == geometric_mean_hpd(re_a, re_b, lam).tobytes()
            assert entropies[i].tobytes() == relative_entropy_hpd(re_a, re_b).tobytes()
    # each function is checked on the inner eigenvalues under its own name
    congruence = means._hpd_congruence(np.eye(2)[None], np.diag([1.0, -1.0])[None])
    for f, name in ((_power(0.3), "hpd_power(p=0.3)"), (_LOG, "hpd_log")):
        with pytest.raises(NotPositiveDefinite, match=re.escape(name)):
            congruence(f)
    # a failed factorization is not kept: every call raises again
    congruence = means._hpd_congruence(np.diag([1.0, -1.0])[None], np.eye(2)[None])
    for _ in range(2):
        with pytest.raises(NotPositiveDefinite, match=re.escape("hpd_power(p=0.5)")):
            congruence(_LOG)


def test_lone_checks_evaluate_only_the_means_they_read(monkeypatch):
    # A check called alone integrates A #_lam B of every trial and weight, plus
    # the homogeneity check's scaled means or the symmetry check's flipped ones;
    # the pair checks integrate no mean.
    import sectorlab.verify as verify

    spec = EnsembleSpec(dim=2, trials=3, seed=5, lambda_grid=(0.2, 0.7))
    geometric_mean = verify._geometric_mean
    jobs = []
    monkeypatch.setattr(verify, "_geometric_mean", lambda a, *args: jobs.append(len(a))
                        or geometric_mean(a, *args))
    # the default scales hold the unit scale, whose mean is A #_lam B itself
    per_weight = {"check_homogeneity": len(HOMOGENEITY_SCALES), "check_symmetry": 2,
                  "check_re_harmonic": 0, "check_re_relative_entropy": 0}
    for fn in THEOREM_CHECKS:
        jobs.clear()
        fn(spec)
        want = per_weight.get(fn.__name__, 1) * len(spec.lambda_grid) * spec.trials
        assert sum(jobs) == want, fn.__name__


def test_report_fields_are_python_scalars():
    # to_json writes Python numbers only: a numpy integer would raise.
    with pytest.raises(TypeError):
        to_json(np.int64(1))
    spec = EnsembleSpec(dim=2, trials=3, seed=3, sector_angle=0.49 * (math.pi / 2))
    for rep in run_all(spec) + [search_agh_counterexample(spec)]:
        assert type(rep.trials) is int and type(rep.violations) is int
        assert type(rep.worst_seed) is int and type(rep.worst_margin) is float


def test_worst_seed_is_the_first_trial_on_a_tie():
    from sectorlab.verify import _reduce

    margins = np.array([[0.5, 0.2], [-0.1, 0.3], [0.4, -0.1]])
    rep = _reduce("check_symmetry", DEFAULT_TOLERANCE, margins > 0.0, margins)
    assert (rep.worst_seed, rep.worst_margin, rep.violations) == (1, -0.1, 2)
    # the unit scale alone: every margin is -0.0, and the first trial is the worst
    rep = check_homogeneity(EnsembleSpec(dim=2, trials=4, seed=1), scales=((1.0, 1.0),))
    assert rep.worst_seed == 0 and to_json(rep.worst_margin) == "-0.0"


def _plain_numpy_harmonic_worst(spec: EnsembleSpec) -> tuple[float, int]:
    # check_re_harmonic's worst margin and trial in plain numpy, in the arithmetic of
    # an independent recomputation: np.linalg.inv, (M + M*)/2 and np.linalg.eigvalsh.
    # Each comparison's margin is normalized by the larger |eigenvalue| of its two
    # sides; a trial's is the minimum over its weights, and the worst is the first
    # minimum over trials.
    def re(m):
        return (m + m.conj().T) / 2

    def harmonic(a, b, lam):
        return np.linalg.inv((1 - lam) * np.linalg.inv(a) + lam * np.linalg.inv(b))

    worst, worst_trial = math.inf, 0
    for i in range(spec.trials):
        a, b = (x.mat for x in trial_pair(spec, i))
        low = math.inf
        for lam in spec.lambda_grid:
            x, y = re(harmonic(a, b, lam)), re(harmonic(re(a), re(b), lam))
            big = max(np.abs(np.linalg.eigvalsh(x)).max(), np.abs(np.linalg.eigvalsh(y)).max())
            low = min(low, np.linalg.eigvalsh(x - y)[0] / big)
        if low < worst:
            worst, worst_trial = low, i
    return float(worst), worst_trial


@pytest.mark.parametrize("seeds", [(939952077, 2419), range(1000, 1100), range(50000, 50100)])
def test_harmonic_worst_margin_is_the_plain_numpy_one_bitwise(seeds):
    # On 2-trial reports, whose margins are often rounding noise, check_re_harmonic's
    # worst margin is bitwise the plain-numpy one and names the same trial.  At seed
    # 939952077 both trials' margins are about -1e-16; at 2419 an eigensolver that
    # also forms eigenvectors named the other trial.
    for seed in seeds:
        spec = EnsembleSpec(dim=3, trials=2, seed=seed, sector_angle=0.4 * (math.pi / 2))
        rep = check_re_harmonic(spec)
        worst, worst_trial = _plain_numpy_harmonic_worst(spec)
        assert (to_json(rep.worst_margin), rep.worst_seed) == (to_json(worst), worst_trial), seed
