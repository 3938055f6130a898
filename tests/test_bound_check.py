"""The one-pass bound check against the exact counts, counter for counter.

Given the squared moduli ``den`` that ``crecip_parts`` leaves behind,
``_kernels._check_vec`` first tries to prove all three counts zero from two
reductions; otherwise it counts exactly, per node.  Both must give the same
counters on every input, at the edges of each bound included.  The exact
counts write |z| into the float scratch and the one-pass proof writes
nothing, so a NaN-filled scratch shows which of the two ran.  Where every
denominator shares one negated imaginary part ni, the proof takes the
largest Im z as ni / den.max() and reads ``values`` not at all.
"""

import numpy as np
import pytest

from qelab import _kernels, _rng, tree_green

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


# ----------------------------------------------------------------------
# one shared negated imaginary part: the level above free leaves, where
# every node sums the same q leaf copies, and the bare leaf level (-eta)
# ----------------------------------------------------------------------

NI_SHARED = -0.7


def shared_reciprocals(zr, ni):
    zr = np.asarray(zr, dtype=float)
    den = np.empty(zr.shape)
    with np.errstate(all="ignore"):
        values = _kernels.crecip_parts(zr, ni, den=den)
    return values, den


def shared_counts(values, den, ni, abs_cap, im_floor):
    """(one-pass counters given the shared ni, exact counters, whether the proof held)."""
    exact = np.zeros(4, dtype=np.int64)
    _kernels._check_vec(values, abs_cap, im_floor, exact)
    fast = np.zeros(4, dtype=np.int64)
    # |z| is never -1, not even for a NaN z
    scratch = np.full(values.shape, -1.0), np.empty(values.shape, dtype=bool)
    with np.errstate(all="ignore"):
        _kernels._check_vec(values, abs_cap, im_floor, fast, scratch, den.copy(), ni)
    return fast, exact, bool((scratch[0] == -1.0).all())


def test_shared_part_has_the_bits_of_an_array_part():
    values, den = shared_reciprocals(ZR, NI_SHARED)
    want_den = np.empty(ZR.shape)
    want = _kernels.crecip_parts(ZR, np.full(ZR.shape, NI_SHARED), den=want_den)
    assert np.array_equal(values, want) and np.array_equal(den, want_den)
    # the largest Im z, exactly: a correctly rounded ni/den grows with den when ni < 0
    assert values.imag.max() == NI_SHARED / den.max()


@pytest.mark.parametrize("im_floor", [0.0, 0.005])
def test_shared_part_in_bounds_takes_the_one_pass_proof(im_floor):
    values, den = shared_reciprocals(ZR, NI_SHARED)
    for abs_cap in (10.0, np.inf):
        fast, exact, one_pass = shared_counts(values, den, NI_SHARED, abs_cap, im_floor)
        assert np.array_equal(fast, exact) and one_pass
        assert list(exact) == [0, 0, 0, values.size]


def test_shared_part_thresholds_hit_exactly():
    values, den = shared_reciprocals(ZR, NI_SHARED)
    flat = values.ravel()
    cap = cap_at(np.abs(flat).max())
    floor = floor_at(NI_SHARED / den.max())
    assert floor == floor_at(flat.imag.max())
    fast, exact, _ = shared_counts(values, den, NI_SHARED, cap, floor)
    assert np.array_equal(fast, exact) and list(exact[:3]) == [0, 0, 0]
    # one ulp past either threshold, its one node is counted
    for abs_cap, im_floor, want in [
        (np.nextafter(cap, 0.0), floor, [0, 1, 0]),
        (cap, np.nextafter(floor, np.inf), [0, 0, 1]),
    ]:
        fast, exact, one_pass = shared_counts(values, den, NI_SHARED, abs_cap, im_floor)
        assert np.array_equal(fast, exact) and list(exact[:3]) == want and not one_pass
    fast, exact, one_pass = shared_counts(values, den, NI_SHARED, 2.0 * cap, floor)
    assert np.array_equal(fast, exact) and one_pass


@pytest.mark.parametrize("im_floor", [0.0, 0.05])
def test_shared_part_nan_falls_back(im_floor):
    # a NaN leaf makes the shared sum, and so ni, NaN; the exact counts take a
    # NaN z as a sign violation (it is not below 0) and pass it on the cap and
    # the floor, whose comparisons it fails
    values, den = shared_reciprocals(ZR, np.nan)
    fast, exact, one_pass = shared_counts(values, den, np.nan, 10.0, im_floor)
    assert np.array_equal(fast, exact) and not one_pass
    assert list(exact) == [values.size, 0, 0, values.size]
    # a NaN potential makes one zr, and so den.max(), NaN
    zr = ZR.copy()
    zr[3, 5] = np.nan
    values, den = shared_reciprocals(zr, NI_SHARED)
    fast, exact, one_pass = shared_counts(values, den, NI_SHARED, 10.0, im_floor)
    assert np.array_equal(fast, exact) and not one_pass


def test_shared_part_infinite_den():
    # zr*zr overflows: den = inf, and ni/den.max() = -0.0 sits at the sign bound
    zr = ZR.copy()
    zr[6, 8] = 1e200
    values, den = shared_reciprocals(zr, NI_SHARED)
    assert den.max() == np.inf and NI_SHARED / den.max() == 0.0
    for abs_cap in (10.0, np.inf):
        fast, exact, one_pass = shared_counts(values, den, NI_SHARED, abs_cap, 0.0)
        assert np.array_equal(fast, exact) and exact[0] == 1 and not one_pass


@pytest.mark.parametrize("ni", [0.0, -0.0, 0.5])
def test_shared_part_off_the_sign_bound_falls_back(ni):
    values, den = shared_reciprocals(ZR, ni)
    fast, exact, one_pass = shared_counts(values, den, ni, 10.0, 0.0)
    assert np.array_equal(fast, exact) and exact[0] == values.size and not one_pass


def test_shared_part_tight_bounds_fall_back():
    values, den = shared_reciprocals(ZR, NI_SHARED)
    fast, exact, one_pass = shared_counts(values, den, NI_SHARED, 0.6, 0.3)
    assert np.array_equal(fast, exact) and not one_pass
    assert exact[1] > 0 and exact[2] > 0


@pytest.mark.parametrize("leaf_mode", ["bare", "free"])
def test_sweep_counters_match_exact_counts(leaf_mode, monkeypatch):
    # the sweeps' counters, one-pass proofs included, against the same sweeps
    # counted node by node; a NaN leaf and tight bounds take the fallbacks
    q, depth, samples = 3, 5, 23
    grid = [0.3 + 0.25j, -0.6 + 0.1j, 1.1 + 0.4j, 2.9 + 0.05j]
    caps, floors = [0.5, 20.0, 1.0, 30.0], [0.35, 0.0, 0.3, 1e-3]
    leaves = [tree_green.free_forward_green_complex(g, q) if leaf_mode == "free" else None
              for g in grid]
    if leaf_mode == "free":
        grid, leaves = grid + [0.5 + 0.2j], leaves + [complex(np.nan, np.nan)]
        caps, floors = caps + [10.0], floors + [0.0]

    def sweeps():
        with np.errstate(all="ignore"):
            return [_kernels.tree_batch(q, depth, branches, 0.35, grid, leaves, _rng.POT_UNIFORM,
                                        1.0, key, samples, spine_len, 1, caps, floors)[2]
                    for branches, spine_len, key in [(q + 1, depth - 1, 41), (q, 0, 43)]]

    fast = sweeps()
    check = _kernels._check_vec

    def exact(values, abs_cap, im_floor, viol, scratch=None, den=None, ni=None):
        check(values, abs_cap, im_floor, viol, scratch)

    monkeypatch.setattr(_kernels, "_check_vec", exact)
    for got, want in zip(fast, sweeps()):
        assert np.array_equal(got, want)
    assert fast[0][0, 1] > 0 and fast[1][0, 1] > 0


def test_nan_leaf_counts_on_the_sign_bound():
    # every value of a sweep seeded with NaN leaves is NaN: each node counts
    # once on the sign bound and on neither of the others, and the NaN roots
    # come out as they are
    q, depth, samples = 2, 4, 9
    gammas, caps, floors = [0.3 + 0.2j, 0.5 + 0.2j], [5.0, 5.0], [0.0, 0.01]
    leaves = [complex(np.nan, np.nan), tree_green.free_forward_green_complex(gammas[1], q)]
    for branches in (q, q + 1):
        root, spine, viol = _kernels.tree_batch(q, depth, branches, 0.35, gammas, leaves,
                                                _rng.POT_UNIFORM, 1.0, 3, samples, 2, 0,
                                                caps, floors)
        nodes = samples * (_kernels.tree_node_count(q, depth, branches) - 1)
        assert list(viol[0]) == [nodes, 0, 0, nodes]
        assert np.isnan(root[0]).all() and np.isnan(spine[0]).all()
        assert list(viol[1]) == [0, 0, 0, nodes] and not np.isnan(root[1]).any()
