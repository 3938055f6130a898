"""The one-pass bound check against the exact counts, counter for counter.

Given the squared moduli ``den`` that ``crecip_parts`` leaves behind,
``_kernels._check_vec`` first tries to prove all three counts zero from two
reductions; otherwise it counts exactly, per node.  Both must give the same
counters on every input, at the edges of each bound included.  The exact
counts write |z| into the float scratch and the one-pass proof writes
nothing, so a NaN-filled scratch shows which of the two ran.
"""

import numpy as np
import pytest

from qelab import _kernels

SLACK = _kernels._SLACK


def reciprocals(zr, ni):
    zr, ni = np.broadcast_arrays(np.asarray(zr, dtype=float), np.asarray(ni, dtype=float))
    den = np.empty(zr.shape)
    with np.errstate(all="ignore"):
        values = _kernels.crecip_parts(zr, ni, den=den)
    return values, den


def both_counts(values, den, abs_cap, im_floor):
    """(one-pass counters, exact counters, whether the one-pass proof held)."""
    exact = np.zeros(4, dtype=np.int64)
    _kernels._check_vec(values, abs_cap, im_floor, exact)
    fast = np.zeros(4, dtype=np.int64)
    scratch = np.full(values.shape, np.nan), np.empty(values.shape, dtype=bool)
    with np.errstate(all="ignore"):
        _kernels._check_vec(values, abs_cap, im_floor, fast, scratch, den.copy())
    return fast, exact, bool(np.isnan(scratch[0]).all())


def cap_at(magnitude):
    """The cap whose slack threshold abs_cap*(1 + 1e-12) is exactly ``magnitude``."""
    cap = magnitude / (1.0 + SLACK)
    for _ in range(8):
        edge = cap * (1.0 + SLACK)
        if edge == magnitude:
            return cap
        cap = np.nextafter(cap, -np.inf if edge > magnitude else np.inf)
    raise AssertionError("no cap puts the threshold on this magnitude")


def floor_at(im):
    """The floor whose slack threshold -(im_floor*(1 - 1e-12)) is exactly ``im`` < 0."""
    floor = -im / (1.0 - SLACK)
    for _ in range(8):
        edge = -(floor * (1.0 - SLACK))
        if edge == im:
            return floor
        floor = np.nextafter(floor, np.inf if edge > im else -np.inf)
    raise AssertionError("no floor puts the threshold on this imaginary part")


RNG = np.random.default_rng(5)
# denominators of an in-bounds sweep: ni = sum.imag - gamma.imag < 0
ZR = RNG.uniform(-2.0, 2.0, size=(7, 9))
NI = -RNG.uniform(0.1, 2.0, size=(7, 9))


@pytest.mark.parametrize("im_floor", [0.0, 0.005])
def test_in_bounds_values_take_the_one_pass_proof(im_floor):
    values, den = reciprocals(ZR, NI)
    for abs_cap in (10.0, np.inf):
        fast, exact, one_pass = both_counts(values, den, abs_cap, im_floor)
        assert np.array_equal(fast, exact) and one_pass
        assert list(exact) == [0, 0, 0, values.size]


def test_thresholds_hit_exactly():
    values, den = reciprocals(ZR, NI)
    flat = values.ravel()
    big = int(np.argmax(np.abs(flat)))
    shallow = int(np.argmax(flat.imag))
    cap, floor = cap_at(np.abs(flat[big])), floor_at(flat.imag[shallow])
    # on the thresholds nothing is counted: both tests are strict
    fast, exact, _ = both_counts(values, den, cap, floor)
    assert np.array_equal(fast, exact) and list(exact[:3]) == [0, 0, 0]
    # one ulp inside them, each bound counts its one node
    for abs_cap, im_floor, want in [
        (np.nextafter(cap, 0.0), floor, [0, 1, 0]),
        (cap, np.nextafter(floor, np.inf), [0, 0, 1]),
    ]:
        fast, exact, one_pass = both_counts(values, den, abs_cap, im_floor)
        assert np.array_equal(fast, exact) and list(exact[:3]) == want and not one_pass
    # the floor threshold alone does not stop the one-pass proof
    fast, exact, one_pass = both_counts(values, den, 2.0 * cap, floor)
    assert np.array_equal(fast, exact) and one_pass


@pytest.mark.parametrize("ni,sign_count", [(0.0, 1), (-0.0, 1), (-1e-300, 0)])
@pytest.mark.parametrize("im_floor", [0.0, 0.05])
def test_zero_imaginary_parts_fall_back(ni, sign_count, im_floor):
    # ni = +0.0 and -0.0 give Im z = +0.0 and -0.0, both at the sign bound
    zr, nis = ZR.copy(), NI.copy()
    zr[2, 3], nis[2, 3] = 1.5, ni
    values, den = reciprocals(zr, nis)
    fast, exact, one_pass = both_counts(values, den, 10.0, im_floor)
    assert np.array_equal(fast, exact) and exact[0] == sign_count
    assert one_pass == (sign_count == 0 and im_floor == 0.0 and values[2, 3].imag < 0.0)


@pytest.mark.parametrize("where", ["real", "imag"])
def test_nan_falls_back(where):
    zr, nis = ZR.copy(), NI.copy()
    (zr if where == "real" else nis)[4, 1] = np.nan
    values, den = reciprocals(zr, nis)
    for abs_cap, im_floor in [(10.0, 0.0), (np.inf, 0.05), (0.6, 0.3)]:
        fast, exact, one_pass = both_counts(values, den, abs_cap, im_floor)
        assert np.array_equal(fast, exact) and not one_pass


def test_infinite_den_and_cap():
    # zr*zr overflows: den = inf and z = 0 - 0j, at the sign bound
    zr = ZR.copy()
    zr[0, 0] = 1e200
    values, den = reciprocals(zr, NI)
    assert den[0, 0] == np.inf
    for abs_cap in (10.0, np.inf):
        fast, exact, one_pass = both_counts(values, den, abs_cap, 0.0)
        assert np.array_equal(fast, exact) and exact[0] == 1 and not one_pass
    # an infinite cap bounds every finite den
    values, den = reciprocals(ZR * 1e-3, NI * 1e-3)
    fast, exact, one_pass = both_counts(values, den, np.inf, 0.0)
    assert np.array_equal(fast, exact) and one_pass and exact[1] == 0


def test_tight_bounds_fall_back():
    values, den = reciprocals(ZR, NI)
    fast, exact, one_pass = both_counts(values, den, 0.6, 0.3)
    assert np.array_equal(fast, exact) and not one_pass
    assert exact[1] > 0 and exact[2] > 0


def test_subnormal_den_falls_back():
    # zr*zr and ni*ni round to subnormals, so |z| is 3.5% above 1/sqrt(den):
    # with cap**2 = inf, den*cap**2 >= 1 would wrongly clear the cap
    values, den = reciprocals([2.3e-162], [-2.3e-162])
    abs_cap = 3.2e161
    assert 1.0 / np.sqrt(den[0]) < abs_cap < np.abs(values[0])
    fast, exact, one_pass = both_counts(values, den, abs_cap, 0.0)
    assert np.array_equal(fast, exact) and exact[1] == 1 and not one_pass
