import itertools
from math import comb

import numpy as np
import pytest

from mmrabi.errors import StateNotInSpace
from mmrabi.hilbert import (
    DOWN,
    EVEN,
    ODD,
    UP,
    BasisState,
    ModelDims,
    ParitySector,
    enumerate_basis,
    parity_of,
)


def test_dims_validation():
    with pytest.raises(ValueError):
        ModelDims(0, 1, 1)
    with pytest.raises(ValueError):
        ModelDims(1, 0, 1)
    with pytest.raises(ValueError):
        ModelDims(1, 1, -1)


def test_counting_formulas():
    assert enumerate_basis(ModelDims(2, 2, 1)).dim == 12
    assert enumerate_basis(ModelDims(2, 2, 1), EVEN).dim == 6
    assert enumerate_basis(ModelDims(3, 2, 2)).dim == 40
    for M, N, n_max in [(1, 1, 3), (2, 3, 2), (4, 2, 3)]:
        dims = ModelDims(M, N, n_max)
        expected = 2**N * sum(comb(M + k - 1, k) for k in range(n_max + 1))
        assert dims.dim == expected
        assert enumerate_basis(dims).dim == expected


def test_even_sector_ordering_matches_block_listing():
    # first even states at n_max=1: vacuum spin-even pair, then the
    # one-photon states of mode 1 and mode 2 with one spin down
    space = enumerate_basis(ModelDims(2, 2, 1), EVEN)
    expected = [
        BasisState((0, 0), (UP, UP)),
        BasisState((0, 0), (DOWN, DOWN)),
        BasisState((1, 0), (UP, DOWN)),
        BasisState((1, 0), (DOWN, UP)),
        BasisState((0, 1), (UP, DOWN)),
        BasisState((0, 1), (DOWN, UP)),
    ]
    assert list(space.states) == expected


def test_parity_values():
    assert parity_of(BasisState((0, 0), (UP, UP))).sign == +1
    assert parity_of(BasisState((1, 0), (DOWN, UP))).sign == +1
    assert parity_of(BasisState((1, 1), (UP, UP))).sign == +1
    assert parity_of(BasisState((1, 0), (UP, UP))).sign == -1


def test_index_state_bijection():
    space = enumerate_basis(ModelDims(2, 2, 2))
    for i, st in enumerate(space.states):
        assert space.index(st) == i


def test_first_state_is_index_zero():
    space = enumerate_basis(ModelDims(3, 2, 2))
    assert space.index(BasisState((0, 0, 0), (UP, UP))) == 0


def test_out_of_space_raises():
    space = enumerate_basis(ModelDims(2, 2, 1))
    with pytest.raises(StateNotInSpace):
        space.index(BasisState((2, 0), (UP, UP)))
    even = enumerate_basis(ModelDims(2, 2, 1), EVEN)
    with pytest.raises(StateNotInSpace):
        even.index(BasisState((1, 0), (UP, UP)))


def test_sector_partition():
    for M, N, n_max in [(2, 2, 3), (3, 3, 2), (1, 2, 4)]:
        dims = ModelDims(M, N, n_max)
        full = enumerate_basis(dims)
        even = enumerate_basis(dims, EVEN)
        odd = enumerate_basis(dims, ODD)
        assert even.dim + odd.dim == full.dim
        assert set(even.states) | set(odd.states) == set(full.states)
        assert all(parity_of(s) == EVEN for s in even.states)
        assert all(parity_of(s) == ODD for s in odd.states)


def test_parity_chain_creation_plus_flip():
    # adding one photon and flipping one spin preserves parity
    space = enumerate_basis(ModelDims(2, 2, 2))
    for st in space.states:
        if st.total_photons >= space.dims.n_max:
            continue
        for i, j in itertools.product(range(2), range(2)):
            occ = list(st.occupations)
            occ[i] += 1
            spins = list(st.spins)
            spins[j] = -spins[j]
            moved = BasisState(tuple(occ), tuple(spins))
            assert parity_of(moved) == parity_of(st)


def test_photon_block_slices():
    space = enumerate_basis(ModelDims(2, 2, 3))
    slices = space.photon_block_slices()
    assert len(slices) == 4
    covered = []
    for k, sl in enumerate(slices):
        block = space.states[sl]
        assert all(s.total_photons == k for s in block)
        covered.extend(block)
    assert list(covered) == list(space.states)


def test_parity_sector_validation():
    with pytest.raises(ValueError):
        ParitySector(0)


def test_indices_invert_the_enumeration():
    for M, N, n_max in [(1, 1, 3), (2, 2, 4), (3, 3, 3), (4, 2, 2), (2, 1, 0)]:
        for sector in (None, EVEN, ODD):
            space = enumerate_basis(ModelDims(M, N, n_max), sector)
            assert space.occupations.shape == (space.dim, M)
            assert space.spins.shape == (space.dim, N)
            for k, st in enumerate(space.states):
                assert tuple(space.occupations[k]) == st.occupations
                assert tuple(space.spins[k]) == st.spins
            found = space.indices(space.occupations, space.spins)
            assert np.array_equal(found, np.arange(space.dim))


def _reference_basis(M, N, n_max, sector):
    """Per-state enumeration: photon blocks, mode 1 filled first, spins in product order."""

    def occupation_vectors(M, k):
        if M == 1:
            return [(k,)]
        return [(n1,) + rest for n1 in range(k, -1, -1) for rest in occupation_vectors(M - 1, k - n1)]

    states = [
        BasisState(occ, spins)
        for k in range(n_max + 1)
        for occ in occupation_vectors(M, k)
        for spins in itertools.product((UP, DOWN), repeat=N)
    ]
    return [st for st in states if sector is None or parity_of(st) == sector]


def test_enumeration_matches_per_state_reference():
    for M, N, n_max in [(1, 1, 3), (1, 3, 2), (2, 2, 4), (3, 3, 3), (4, 2, 2), (2, 3, 0), (2, 1, 0)]:
        for sector in (None, EVEN, ODD):
            reference = _reference_basis(M, N, n_max, sector)
            space = enumerate_basis(ModelDims(M, N, n_max), sector)
            expected_occ = np.array([st.occupations for st in reference], dtype=np.int64)
            expected_spins = np.array([st.spins for st in reference], dtype=np.int64)
            for arr, expected in ((space.occupations, expected_occ), (space.spins, expected_spins)):
                assert arr.dtype == np.int64
                assert np.array_equal(arr, expected)
                assert not arr.flags.writeable
            assert space.dim == len(reference)
            assert space.states == tuple(reference)


def test_equality_follows_dims_and_sector():
    dims = ModelDims(2, 2, 2)
    even = enumerate_basis(dims, EVEN)
    again = enumerate_basis(ModelDims(2, 2, 2), EVEN)
    assert even == again and hash(even) == hash(again)
    assert even != enumerate_basis(dims, ODD)
    assert even != enumerate_basis(dims)
    assert even != enumerate_basis(ModelDims(2, 2, 3), EVEN)


def test_enumeration_is_shared_per_dims_and_sector():
    # callers of one (dims, sector) share one space, so none may change it
    dims = ModelDims(2, 2, 3)
    for sector in (None, EVEN, ODD):
        space = enumerate_basis(dims, sector)
        assert enumerate_basis(ModelDims(2, 2, 3), sector) is space
        for arr in (space.occupations, space.spins):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        with pytest.raises(AttributeError):
            space.occupations = space.occupations.copy()
    assert enumerate_basis(dims, EVEN) is not enumerate_basis(dims, ODD)
    assert enumerate_basis(dims) is not enumerate_basis(ModelDims(2, 2, 2))


def test_indices_outside_the_space_are_minus_one():
    full = enumerate_basis(ModelDims(2, 2, 2))
    # above the cutoff (one mode, then the total), a negative occupation,
    # a spin that is not +-1, and one member
    occ = [[3, 0], [2, 1], [-1, 1], [1, 0], [1, 0]]
    spins = [[UP, UP], [UP, UP], [UP, UP], [UP, 0], [UP, DOWN]]
    assert full.indices(occ, spins).tolist() == [
        -1, -1, -1, -1, full.index(BasisState((1, 0), (UP, DOWN)))
    ]
    # the other parity sector
    even = enumerate_basis(ModelDims(2, 2, 2), EVEN)
    assert even.indices([[1, 0], [1, 0]], [[UP, UP], [UP, DOWN]]).tolist() == [
        -1, even.index(BasisState((1, 0), (UP, DOWN)))
    ]
    with pytest.raises(ValueError):
        full.indices([[1, 0, 0]], [[UP, UP]])
