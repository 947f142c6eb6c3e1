"""The hunt pipeline: normalization, degree solving, sampling, verification."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from bundlehunt.errors import (
    GenericityExhaustedError,
    InvalidRequestError,
    UnsupportedCaseError,
)
from conftest import random_desc
from bundlehunt import ext1, hunter, kernels, qbundle, serialize
from bundlehunt.exactalg import LaurentPoly
from bundlehunt.ext1 import ExtCocycle, connecting_rank_profile
from bundlehunt.hunter import (
    Certificate,
    GenericityReport,
    HuntRequest,
    TwistRankRecord,
    build_bundles,
    genericity_check,
    hunt,
    normalize_params,
    sample_eta,
    solve_degrees,
    verify_certificate,
)
from bundlehunt.p1 import SplittingType
from bundlehunt.qbundle import (
    BigradedEta,
    ConstantBundleDesc,
    HilbertParams,
    check_natural,
    cohomology_table,
    hilbert_params,
    pushforward_cocycle,
    square_window,
)

F = Fraction


def test_hilbert_params_integrality_guard():
    with pytest.raises(InvalidRequestError):
        HilbertParams(F(1, 3), F(0), F(2), 2)  # 2/3 not integral
    HilbertParams(F(1, 3), F(0), F(2), 3)


def test_normalize_params_examples():
    assert normalize_params(HilbertParams(F(1, 3), F(0), F(2), 3)) == (
        False,
        0,
        F(1, 3),
        F(0),
        F(2),
    )
    swapped, shift, a, b, g = normalize_params(HilbertParams(F(2), F(1, 2), F(1), 2))
    assert swapped and shift == 0 and a == F(1, 2) and b == F(2) and g == F(1)
    swapped, shift, a, b, g = normalize_params(HilbertParams(F(7, 3), F(0), F(1), 3))
    assert not swapped and shift == 2 and a == F(1, 3)
    swapped, shift, a, b, g = normalize_params(HilbertParams(F(-5, 4), F(1), F(1), 4))
    assert shift == -2 and a == F(3, 4)


def test_normalize_params_rejections():
    with pytest.raises(InvalidRequestError):
        normalize_params(HilbertParams(F(1, 2), F(0), F(-1), 2))
    with pytest.raises(InvalidRequestError):
        normalize_params(HilbertParams(F(1, 2), F(0), F(0), 2))
    with pytest.raises(UnsupportedCaseError):
        normalize_params(HilbertParams(F(0), F(1), F(1), 2))


def test_solve_degrees_examples():
    assert solve_degrees(F(1, 3), F(0), F(2), 3) == (1, 2, -7, 4)
    assert solve_degrees(F(1, 2), F(1, 2), F(1, 4), 2) == (1, 1, -1, 0)


def test_solve_degrees_identities(rng):
    grid = []
    for den in (2, 3, 4):
        for num in range(1, den):
            grid.append(F(num, den))
    for a in grid:
        for b in [F(-2), F(1, 2), F(5, 3), F(0)]:
            for g in [F(1), F(1, 2), F(3)]:
                for r in range(2, 9):
                    if (r * a).denominator != 1 or (r * b).denominator != 1:
                        continue
                    if (r * (a * b - g)).denominator != 1:
                        continue
                    r1, r2, d1, d2 = solve_degrees(a, b, g, r)
                    assert r1 + r2 == r and 1 <= r1 <= r - 1
                    assert d1 + d2 == r * (b - 1)
                    assert d2 * r1 - d1 * r2 == r * r * g > 0


def test_build_bundles_examples():
    fiber, f1, f2 = build_bundles(1, 2, -7, 4)
    assert fiber == [0, -1, -1]
    assert f1 == [-7]
    assert f2 == [2, 2]
    fiber, f1, f2 = build_bundles(1, 1, -1, 0)
    assert (fiber, f1, f2) == ([0, -1], [-1], [0])
    _, f1, _ = build_bundles(2, 1, -4, 0)
    assert f1 == [-2, -2]


def test_sample_eta_shapes_and_determinism():
    f1 = SplittingType([-7])
    f2 = SplittingType([2, 2])
    eta_a = sample_eta(f1, f2, 10, random.Random(99))
    eta_b = sample_eta(f1, f2, 10, random.Random(99))
    assert eta_a == eta_b
    for cocycle in (eta_a.eta0, eta_a.eta1):
        for j in range(2):
            entry = cocycle.entry(0, j)
            if not entry.is_zero:
                assert entry.min_exp() >= -1 and entry.max_exp() <= 6
    assert sample_eta(f1, f2, 0, random.Random(1)).is_zero


def test_genericity_check_zero_eta_fails():
    f1 = SplittingType([-7])
    f2 = SplittingType([2, 2])
    eta = BigradedEta(ExtCocycle.zero(f1, f2, "w"), ExtCocycle.zero(f1, f2, "w"))
    desc = ConstantBundleDesc(1, 2, f1, f2, eta)
    report = genericity_check(desc)
    assert not report.ok
    assert report.defects()


def test_genericity_check_trivial_ext_group():
    # F1 = O(-1), F2 = O: adjacent components, Ext vanishes, vacuously generic
    f1 = SplittingType([-1])
    f2 = SplittingType([0])
    eta = BigradedEta(ExtCocycle.zero(f1, f2, "w"), ExtCocycle.zero(f1, f2, "w"))
    desc = ConstantBundleDesc(1, 1, f1, f2, eta)
    assert genericity_check(desc).ok


def reference_report(desc):
    """Exact connecting ranks of the two pushforward cocycles, built via Gamma."""

    def records(n):
        e = pushforward_cocycle(desc, n)
        return tuple(TwistRankRecord(*row) for row in connecting_rank_profile(e))

    return GenericityReport(plus=records(1), minus=records(-2))


def variants(rng, desc):
    """desc with its extension data rescaled (by 1/2, 1/3 or P), given a
    denominator P, zeroed or sparsified."""
    eta0, eta1 = desc.eta.eta0, desc.eta.eta1
    f1, f2 = desc.f1, desc.f2

    def cocycle(entries):
        return ExtCocycle(f1, f2, entries, "w")

    def sparse(e):
        return cocycle(
            [
                LaurentPoly("w", {x: c for x, c in p.terms() if rng.random() < 0.3})
                for p in e.entries()
            ]
        )

    out = {
        "integer": (eta0, eta1),
        # [B | A] rows then mix entries cleared by 2 with entries cleared by 3
        "halves and thirds": (eta0.scale(F(1, 2)), eta1.scale(F(1, 3))),
        "zero": (eta0.scale(0), eta1.scale(0)),
        # B vanishes mod P but not over Q: maximal ranks fall short mod P
        "eta1 times P": (eta0, eta1.scale(kernels.P)),
        "sparse": (sparse(eta0), sparse(eta1)),
    }
    entries = list(eta1.entries())
    nonzero = [i for i, p in enumerate(entries) if not p.is_zero]
    if nonzero:
        entries[nonzero[0]] = entries[nonzero[0]] * F(1, kernels.P)
        out["denominator P"] = (eta0, cocycle(entries))
    return {
        name: ConstantBundleDesc(desc.r1, desc.r2, f1, f2, BigradedEta(a, b))
        for name, (a, b) in out.items()
    }


def test_genericity_check_matches_pushforward_connecting_ranks(rng, monkeypatch):
    fallbacks = []
    exact = ext1.connecting_rank
    monkeypatch.setattr(ext1, "connecting_rank", lambda e, m: fallbacks.append(m) or exact(e, m))
    seen = {"defects": 0, "maximal positive": 0, "maximal after falling back": 0}
    for _ in range(80):
        desc = random_desc(rng, max_rank=4, comp_lo=-6, comp_hi=3)
        for name, variant in variants(rng, desc).items():
            fallbacks.clear()
            report = genericity_check(variant)
            fell_back = len(fallbacks)
            assert report == reference_report(variant), name
            records = report.plus + report.minus
            if name == "denominator P":
                assert fell_back == len(records)
            elif name == "eta1 times P":
                assert fell_back >= len(report.defects())
                seen["maximal after falling back"] += fell_back - len(report.defects())
            else:
                # exactly the ranks short of their bound are recomputed exactly
                assert fell_back == len(report.defects()), name
            seen["defects"] += len(report.defects())
            seen["maximal positive"] += sum(r.maximal and r.rank > 0 for r in records)
    assert all(seen.values()), seen


def test_generic_hunt_runs_no_exact_elimination_in_its_genericity_check(monkeypatch):
    req = HuntRequest(HilbertParams(F(1, 3), F(0), F(2), 3), seed=2, verify_window=3)
    want = serialize.certificate_to_json(hunt(req))
    check = hunter.genericity_check

    def refuse(*args):
        raise AssertionError("exact elimination or a Gamma action in the genericity check")

    def guarded(desc):
        # the table stage eliminates exactly by design; only the check is guarded
        with monkeypatch.context() as inner:
            inner.setattr(kernels, "echelon", refuse)
            inner.setattr(qbundle, "gamma_action", refuse)
            return check(desc)

    monkeypatch.setattr(hunter, "genericity_check", guarded)
    assert serialize.certificate_to_json(hunt(req)) == want


# Maximal ranks at n = 1 and n = -2, yet not natural: normalized column 2 is
# O + O(-1)^3 + O(-2) instead of O(-1)^5.
GENERIC_NOT_NATURAL_PARAMS = HilbertParams(F(3, 2), F(1, 2), F(5, 4), 2)


def generic_not_natural_eta():
    f1, f2 = SplittingType([-3]), SplittingType([2])
    eta0 = ExtCocycle(f1, f2, [LaurentPoly("w", {-1: -1, 0: -1, 1: -8, 2: -5})], "w")
    eta1 = ExtCocycle(f1, f2, [LaurentPoly("w", {-1: -1, 0: -1, 1: -8, 2: 9})], "w")
    return BigradedEta(eta0, eta1)


def test_genericity_report_does_not_prove_naturality():
    eta = generic_not_natural_eta()
    desc = ConstantBundleDesc(1, 1, eta.eta0.f1, eta.eta0.f2, eta, shift=(1, 0))
    assert hilbert_params(desc) == GENERIC_NOT_NATURAL_PARAMS
    assert genericity_check(desc).ok
    nat = check_natural(cohomology_table(desc, square_window(2)), GENERIC_NOT_NATURAL_PARAMS)
    assert {(1, 0), (2, 0)} <= {(n, m) for n, m, _ in nat.violations}


def test_hunt_resamples_a_generic_sample_that_is_not_natural(monkeypatch):
    draws = []

    def first_not_natural(f1, f2, bound, rng):
        draws.append(sample_eta(f1, f2, bound, rng))
        return generic_not_natural_eta() if len(draws) == 1 else draws[-1]

    monkeypatch.setattr(hunter, "sample_eta", first_not_natural)
    cert = hunt(HuntRequest(GENERIC_NOT_NATURAL_PARAMS, seed=4, verify_window=3))
    assert cert.resamples == 1
    assert cert.desc.eta == draws[1]
    assert cert.table_digest.natural
    assert verify_certificate(cert).ok


def test_hunt_example_instance():
    req = HuntRequest(HilbertParams(F(1, 3), F(0), F(2), 3), seed=5)
    cert = hunt(req)
    assert cert.desc.f1 == [-7]
    assert cert.desc.f2 == [2, 2]
    assert cert.desc.fiber_type == [0, -1, -1]
    assert hilbert_params(cert.desc) == req.params
    assert cert.table_digest.natural
    assert cert.genericity.ok


def test_hunt_deterministic():
    req = HuntRequest(HilbertParams(F(1, 2), F(1, 2), F(1, 4), 2), seed=77)
    a = hunt(req)
    b = hunt(req)
    assert a.desc == b.desc
    assert a.resamples == b.resamples


def test_hunt_params_round_trip_battery(rng):
    cases = [
        (F(1, 2), F(1, 2), F(1, 4), 2),
        (F(2, 3), F(-1), F(1, 3), 3),
        (F(5, 2), F(1, 2), F(3, 4), 2),
        (F(0), F(3, 4), F(1), 4),  # swapped axis
        (F(-4, 3), F(2), F(2, 3), 3),
    ]
    for a, b, g, r in cases:
        req = HuntRequest(HilbertParams(a, b, g, r), seed=3, verify_window=4)
        cert = hunt(req)
        assert hilbert_params(cert.desc) == req.params
        assert verify_certificate(cert).ok


def test_hunt_rejections():
    with pytest.raises(InvalidRequestError):
        hunt(HuntRequest(HilbertParams(F(1, 2), F(0), F(-1), 2)))
    with pytest.raises(UnsupportedCaseError):
        hunt(HuntRequest(HilbertParams(F(0), F(1), F(1), 2)))
    with pytest.raises(InvalidRequestError):
        hunt(HuntRequest(HilbertParams(F(0), F(0), F(1), 1)))


def test_hunt_genericity_exhausted_with_zero_bound():
    # coeff_bound 0 forces eta = 0, which can never be generic here
    req = HuntRequest(
        HilbertParams(F(1, 3), F(0), F(2), 3), seed=0, coeff_bound=0, max_resamples=3
    )
    with pytest.raises(GenericityExhaustedError):
        hunt(req)


def test_verify_certificate_passes_and_extends_window():
    cert = hunt(HuntRequest(HilbertParams(F(1, 3), F(0), F(2), 3), seed=2, verify_window=4))
    assert verify_certificate(cert).ok
    # the theorem guarantees all twists, so a larger window still verifies
    assert verify_certificate(cert, window=7).ok


def test_verify_certificate_detects_tampering():
    cert = hunt(HuntRequest(HilbertParams(F(1, 3), F(0), F(2), 3), seed=2, verify_window=4))
    desc = cert.desc
    # zero out the extension data: genericity and naturality both break
    broken_eta = BigradedEta(desc.eta.eta0.scale(0), desc.eta.eta1.scale(0))
    tampered = Certificate(
        params=cert.params,
        desc=ConstantBundleDesc(
            desc.r1, desc.r2, desc.f1, desc.f2, broken_eta, desc.shift, desc.axis_swapped
        ),
        genericity=cert.genericity,
        table_digest=cert.table_digest,
        seed=cert.seed,
        resamples=cert.resamples,
        verified_window=cert.verified_window,
    )
    report = verify_certificate(tampered)
    assert not report.ok
    stages = {f.stage for f in report.failures}
    assert "genericity" in stages
    assert any(f.stage == "genericity" and f.location for f in report.failures)


def test_verify_certificate_checks_what_it_states():
    cert = hunt(HuntRequest(HilbertParams(F(1, 3), F(0), F(2), 3), seed=2, verify_window=3))
    row = cert.genericity.plus[0]
    digest = cert.table_digest
    for stage, field, value in [
        ("genericity", "genericity", replace(cert.genericity, plus=(replace(row, rank=0),))),
        ("digest", "table_digest", replace(digest, cells=7)),
        ("digest", "table_digest", replace(digest, natural=False)),
        ("digest", "table_digest", replace(digest, region_counts={"H1R": 49})),
    ]:
        report = verify_certificate(replace(cert, **{field: value}))
        assert not report.ok and {f.stage for f in report.failures} == {stage}, value
    # the digest describes its own window only
    moved = replace(cert, table_digest=replace(cert.table_digest, cells=7))
    assert verify_certificate(moved, window=2).ok
    with pytest.raises(InvalidRequestError):
        verify_certificate(cert, window=-1)


def test_verify_certificate_with_oracle():
    cert = hunt(HuntRequest(HilbertParams(F(1, 2), F(1, 2), F(1, 4), 2), seed=1, verify_window=3))
    report = verify_certificate(cert, window=3, use_oracle=True)
    assert report.ok and report.oracle_used


def test_sampled_grid_battery_with_oracle():
    # stratified sample of the full denominators <= 4 grid, thirds included;
    # the exhaustive sweep lives in the acceptance module
    values = set()
    for den in range(1, 5):
        for num in range(-3 * den, 3 * den + 1):
            values.add(F(num, den))
    grid = []
    for a in sorted(values):
        for b in sorted(values):
            if a.denominator == 1 and b.denominator == 1:
                continue
            for r in range(2, 9):
                if (r * a).denominator != 1 or (r * b).denominator != 1:
                    continue
                for g in sorted(values):
                    if 0 < g <= 3 and (r * (a * b - g)).denominator == 1:
                        grid.append((a, b, g, r))
    picks = random.Random(123).sample(grid, 8)
    # make sure a thirds-gamma instance is exercised
    picks.append((F(1, 3), F(0), F(2, 3), 3))
    for i, (a, b, g, r) in enumerate(picks):
        cert = hunt(HuntRequest(HilbertParams(a, b, g, r), seed=0))
        assert verify_certificate(cert).ok, (a, b, g, r)
        if i < 2:
            assert verify_certificate(cert, window=3, use_oracle=True).ok, (a, b, g, r)
