import numpy as np
import pytest

from barmodes import conservative
from barmodes.conservative import characteristic, find_roots
from barmodes.params import DimensionlessParams

REF = DimensionlessParams(eps1=0.005, mu=0.008, nu=0.05, eta=7.0, delta=0.1)

# Reference first two undamped frequencies at eta=7, delta=0.1.
OMEGA_1 = 0.3534042288
OMEGA_2 = 2.904816694


def scan_and_bisect(dp, omega_max, scan_step=1e-4, tol=1e-13):
    """Independent oracle: dense sign scan of the characteristic plus a
    hand-rolled bisection.  Deliberately does not share code with find_roots
    beyond the characteristic itself."""
    grid = np.linspace(0.0, omega_max, int(round(omega_max / scan_step)) + 1)
    vals = [characteristic(w, dp) for w in grid]
    roots = []
    for i in range(len(grid) - 1):
        lo, hi = grid[i], grid[i + 1]
        flo, fhi = vals[i], vals[i + 1]
        if flo == 0.0 and lo > 0.0:
            roots.append(lo)
            continue
        if flo * fhi >= 0.0:
            continue
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            fmid = characteristic(mid, dp)
            if fmid == 0.0:
                lo = hi = mid
                break
            if flo * fmid < 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        roots.append(0.5 * (lo + hi))
    return roots


def scan_grid(dp, omega_max, step):
    """chi sampled on the uniform grid of (0, omega_max] at about `step`."""
    n = max(int(np.ceil(omega_max / step)), 1)
    grid = np.linspace(0.0, omega_max, n + 1)
    return grid, [conservative.characteristic(w, dp) for w in grid]


def loop_brackets(grid, vals):
    """Sign-change brackets [(lo, hi)] of chi sampled as vals on an ascending
    grid, by an element-by-element scan; an exact zero off 0 gives a
    degenerate (x, x) one."""
    n = len(grid) - 1
    brackets = []
    for i in range(n):
        if vals[i] == 0.0:
            if grid[i] > 0.0:
                brackets.append((grid[i], grid[i]))
            continue
        if vals[i] * vals[i + 1] < 0.0:
            brackets.append((grid[i], grid[i + 1]))
    if vals[n] == 0.0:
        brackets.append((grid[n], grid[n]))
    return brackets


def random_undamped(rng):
    return DimensionlessParams(0, 0, 0, eta=rng.uniform(0.05, 20.0),
                               delta=rng.uniform(0.01, 2.0))


def test_characteristic_at_zero_is_minus_one():
    assert characteristic(0.0, REF) == -1.0
    other = DimensionlessParams(0, 0, 0, eta=1.3, delta=2.0)
    assert characteristic(0.0, other) == -1.0


def test_characteristic_vanishes_at_reference_frequencies():
    assert abs(characteristic(OMEGA_1, REF)) < 1e-6
    assert abs(characteristic(OMEGA_2, REF)) < 1e-5


def test_characteristic_matches_cot_form_off_poles():
    # chi = 0 iff cot(w) = eta*w/(1 - eta*delta*w^2); check the sign pattern
    # of chi agrees with the difference of the two sides where both exist.
    rng = np.random.default_rng(7)
    for _ in range(200):
        w = rng.uniform(0.05, 9.5)
        if abs(np.sin(w)) < 1e-3:
            continue
        denom = 1.0 - REF.eta * REF.delta * w * w
        if abs(denom) < 1e-3:
            continue
        lhs = np.cos(w) / np.sin(w) - REF.eta * w / denom
        chi = characteristic(w, REF)
        # chi = sin(w) * denom * (cot(w) - eta w/(1-eta delta w^2)) * (-1)
        reconstructed = -np.sin(w) * denom * lhs
        assert chi == pytest.approx(reconstructed, rel=1e-9, abs=1e-9)


def test_find_roots_reference_values():
    roots = find_roots(REF, omega_max=10.0)
    assert len(roots) >= 2
    assert roots[0].omega == pytest.approx(OMEGA_1, abs=1e-6)
    assert roots[1].omega == pytest.approx(OMEGA_2, abs=1e-6)
    assert [r.index for r in roots] == list(range(1, len(roots) + 1))


def test_find_roots_agrees_with_dense_scan_oracle():
    expected = scan_and_bisect(REF, 10.0)
    got = [r.omega for r in find_roots(REF, omega_max=10.0)]
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a == pytest.approx(b, abs=1e-8)


def test_find_roots_residual_bound():
    roots = find_roots(REF, omega_max=20.0)
    for r in roots:
        w = r.omega
        bound = 1e-9 * (1.0 + REF.eta * REF.delta * w * w + REF.eta * w)
        assert abs(characteristic(w, REF)) <= bound


def test_find_roots_tiny_interval_is_empty():
    assert find_roots(REF, omega_max=1e-9) == []


def test_find_roots_respects_max_count():
    roots = find_roots(REF, omega_max=20.0, max_count=3)
    assert len(roots) == 3
    assert roots[-1].index == 3


def test_roots_strictly_increasing():
    roots = find_roots(REF, omega_max=30.0)
    omegas = [r.omega for r in roots]
    assert all(a < b for a, b in zip(omegas, omegas[1:]))


def test_single_root_in_low_frequency_region():
    # Wherever eta*delta*w^2 < 1 and w < pi there is exactly one root.
    rng = np.random.default_rng(12345)
    for _ in range(100):
        eta = rng.uniform(0.05, 20.0)
        delta = rng.uniform(0.01, 1.0 / eta)  # keeps eta*delta < 1
        dp = DimensionlessParams(0, 0, 0, eta=eta, delta=delta)
        limit = min(np.pi, 1.0 / np.sqrt(eta * delta))
        roots = scan_and_bisect(dp, limit * (1 - 1e-12), scan_step=limit / 4000)
        assert len(roots) == 1, (eta, delta, roots)


def test_first_root_band_location():
    # Dense-scan oracle puts root k+1 inside ((k-1)pi, (k+1)pi) at the
    # reference parameters; find_roots must agree with that banding.
    roots = find_roots(REF, omega_max=10.0)
    for k, r in enumerate(roots):
        assert (k - 1) * np.pi < r.omega < (k + 1) * np.pi


def test_find_roots_takes_an_exact_zero_at_an_edge(monkeypatch):
    # chi vanishing exactly at the edge pi/2 and at omega_max = 4 makes those
    # edges roots 1 and 2, unrefined; no sign change means no other root.
    zeros = (0.5 * np.pi, 4.0)
    monkeypatch.setattr(conservative, "_chi_and_slope",
                        lambda w, dp: (0.0 if w in zeros else -1.0, 1.0))
    roots = find_roots(REF, 4.0)
    assert [(r.index, r.omega) for r in roots] == [(1, 0.5 * np.pi), (2, 4.0)]


def test_refine_reads_chi_at_the_bracket_start_from_the_walk(monkeypatch):
    # The branch walk has chi at each edge, and each bracket's refinement
    # takes chi(lo) from it: the 7 reference roots below omega = 20 cost 42
    # evaluations of chi, one per root fewer than when each refinement
    # evaluated chi(lo) again, and are the same roots bit for bit.
    calls = []
    original = conservative._chi_and_slope
    monkeypatch.setattr(conservative, "_chi_and_slope",
                        lambda w, dp: calls.append(w) or original(w, dp))
    roots = find_roots(REF, 20.0)
    assert len(calls) == 49 - 7
    assert [r.omega.hex() for r in roots] == [
        "0x1.69e2cc530bdf9p-2", "0x1.73d1088de2e28p+1", "0x1.71ca81968608dp+2",
        "0x1.16f3467f110d3p+3", "0x1.76a50a9373752p+3", "0x1.d790fd1cd0df5p+3",
        "0x1.1caeff61af294p+4"]


def test_find_roots_matches_brentq_refinement():
    brentq = pytest.importorskip("scipy.optimize").brentq
    rng = np.random.default_rng(9)
    for _ in range(200):
        dp = random_undamped(rng)
        expected = [
            lo if lo == hi else brentq(characteristic, lo, hi, args=(dp,),
                                       xtol=1e-13)
            for lo, hi in loop_brackets(*scan_grid(dp, 20.0, 0.005))]
        got = [r.omega for r in find_roots(dp, 20.0)]
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert abs(a - b) <= 1e-12 * b


@pytest.mark.parametrize("eta", [1e6, 1e100, 1e200])
def test_find_roots_huge_mass_ratio(eta):
    # The first root tends to 1/sqrt(c), c = eta*(1 + delta) + 1/2, from
    # chi = -1 + c*w^2 + O(w^4); an absolute step tolerance stopped at
    # 7.4e-14 for eta = 1e100, and a relative one must reach the root.
    dp = DimensionlessParams(0, 0, 0, eta=eta, delta=0.1)
    w1 = find_roots(dp, 20.0, max_count=1)[0].omega
    c = eta * 1.1 + 0.5
    assert w1 == pytest.approx(1.0 / np.sqrt(c), rel=max(1e-14, 1.0 / c),
                              abs=0.0)


def test_find_roots_max_count_is_a_prefix():
    full = find_roots(REF, omega_max=20.0)
    assert find_roots(REF, omega_max=20.0, max_count=2) == full[:2]
    assert find_roots(REF, omega_max=20.0, max_count=0) == []


def test_find_roots_one_root_per_tan_branch():
    # Root k lies on the k-th branch of tan: (0, pi/2) for k = 1, then
    # ((k - 3/2)pi, (k - 1/2)pi); the count matches the dense-scan oracle.
    rng = np.random.default_rng(10)
    for _ in range(500):
        dp = random_undamped(rng)
        roots = find_roots(dp, 20.0)
        for r in roots:
            lo = max(r.index - 1.5, 0.0) * np.pi
            assert lo < r.omega < (r.index - 0.5) * np.pi, (dp, r)
        assert len(roots) == len(scan_and_bisect(dp, 20.0, scan_step=0.01))


@pytest.mark.parametrize("eta, delta", [
    (0.0, 0.1), (-7.0, 0.1), (7.0, -0.1), (np.nan, 0.1), (7.0, np.nan),
    (np.inf, 0.1), (7.0, np.inf)])
def test_find_roots_rejects_parameters_outside_the_branch_premise(eta, delta):
    with pytest.raises(ValueError):
        find_roots(DimensionlessParams(0, 0, 0, eta=eta, delta=delta), 20.0)


@pytest.mark.parametrize("max_count", [2.5, np.nan, "3", -1])
def test_find_roots_rejects_a_max_count_that_is_not_a_count(max_count):
    # Like every count in the package, through operator.index; None is no
    # cap and 0 an empty list (test_find_roots_max_count_is_a_prefix).
    with pytest.raises(ValueError, match="max_count"):
        find_roots(REF, 20.0, max_count=max_count)


@pytest.mark.parametrize("omega_max", [0.0, -1.0, np.nan, np.inf])
def test_find_roots_rejects_bad_omega_max(omega_max):
    with pytest.raises(ValueError, match="omega_max"):
        find_roots(REF, omega_max)


def test_find_roots_accepts_zero_delta():
    # delta = 0 (a rigid spring) keeps h(w) = 1/(eta*w) strictly decreasing.
    dp = DimensionlessParams(0, 0, 0, eta=7.0, delta=0.0)
    got = [r.omega for r in find_roots(dp, 20.0)]
    expected = scan_and_bisect(dp, 20.0, scan_step=1e-3)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a == pytest.approx(b, abs=1e-8)
