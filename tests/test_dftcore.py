import cmath
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circle_mimo.dftcore import build_dft, build_family, build_precoders, pairwise_diagonals
from oracle import circulant_index, pairwise_product


def dft_oracle(n):
    """Scalar-loop DFT construction, independent of the library's vectorized path."""
    omega = cmath.exp(-2j * cmath.pi / n)
    u = np.empty((n, n), dtype=complex)
    for row in range(n):
        for col in range(n):
            u[row, col] = omega ** (row * col) / cmath.sqrt(n)
    return u


class TestCirculantIndex:
    def test_single_element(self):
        assert circulant_index(1).tolist() == [[1]]

    def test_four_by_four_pattern(self):
        expected = [[1, 4, 3, 2], [2, 1, 4, 3], [3, 2, 1, 4], [4, 3, 2, 1]]
        assert circulant_index(4).tolist() == expected

    def test_modular_entry(self):
        # row 2, column 3: ((2 - 3) mod 3) + 1 = 3
        assert circulant_index(3)[1, 2] == 3

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            circulant_index(0)

    @given(st.integers(min_value=1, max_value=48))
    @settings(deadline=None)
    def test_rows_and_columns_are_permutations(self, n):
        entries = circulant_index(n)
        want = list(range(1, n + 1))
        for i in range(n):
            assert sorted(entries[i, :].tolist()) == want
            assert sorted(entries[:, i].tolist()) == want

    def test_columnwise_circulant_shift(self):
        ci = circulant_index(7)
        assert ci[0, 0] == 1
        for i in range(6):
            for k in range(7):
                assert ci[i + 1, k] == ci[i, k] % 7 + 1


class TestDftMatrix:
    def test_single_element(self):
        assert build_dft(1).tolist() == [[1.0 + 0.0j]]

    def test_two_by_two(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
        np.testing.assert_allclose(build_dft(2), expected, atol=1e-15)

    def test_four_by_four_entry(self):
        # row 2, col 2 (1-based): exp(-i*pi/2)/2 = -i/2
        assert abs(build_dft(4)[1, 1] - (-0.5j)) < 1e-15

    def test_matches_scalar_oracle(self):
        for n in (2, 3, 5, 8):
            np.testing.assert_allclose(build_dft(n), dft_oracle(n), atol=1e-12)

    def test_unitary(self):
        for n in (2, 3, 4, 8, 16, 64):
            u = build_dft(n)
            err = np.linalg.norm(u @ u.conj().T - np.eye(n))
            assert err < 1e-12 * n

    def test_root_sum_is_zero(self):
        for n in range(2, 33):
            roots = np.exp(-2j * np.pi * np.arange(n) / n)
            assert abs(np.sum(roots)) < 1e-12

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            build_dft(0)


class TestFamily:
    def test_first_member_is_identity_permutation(self):
        fam = build_family(6)
        np.testing.assert_array_equal(fam.member(1), build_dft(6))

    def test_three_by_three_second_member_order(self):
        # column order (3, 1, 2) of the base matrix
        fam = build_family(3)
        u = build_dft(3)
        np.testing.assert_array_equal(fam.member(2), u[:, [2, 0, 1]])

    def test_members_unitary(self):
        for n in (2, 5, 16):
            fam = build_family(n)
            for k in range(1, n + 1):
                m = fam.member(k)
                assert np.linalg.norm(m @ m.conj().T - np.eye(n)) < 1e-10 * n

    def test_cross_product_diagonal_zero_trace(self):
        fam = build_family(8)
        p = pairwise_product(fam, 2, 5)
        off = p - np.diag(np.diag(p))
        assert np.max(np.abs(off)) < 1e-10
        assert abs(np.trace(p)) < 1e-10 * 8

    def test_two_by_two_diagonal_sums_to_zero(self):
        # independent 2x2 check: members are [u1 u2] and [u2 u1]
        u = dft_oracle(2)
        manual = np.stack([u[:, 0], u[:, 1]], axis=1) @ np.stack([u[:, 1], u[:, 0]], axis=1).conj().T
        fam = build_family(2)
        np.testing.assert_allclose(pairwise_product(fam, 1, 2), manual, atol=1e-15)
        d = np.diag(manual)
        assert abs(d[0] + d[1]) < 1e-15

    def test_random_pair_off_diagonal(self):
        fam = build_family(16)
        rng = np.random.default_rng(0)
        for _ in range(5):
            k, k2 = rng.choice(np.arange(1, 17), size=2, replace=False)
            p = pairwise_product(fam, int(k), int(k2))
            off = p - np.diag(np.diag(p))
            assert np.max(np.abs(off)) < 1e-10

    def test_self_product_identity(self):
        fam = build_family(12)
        for k in (1, 7, 12):
            p = pairwise_product(fam, k, k)
            assert np.linalg.norm(p - np.eye(12)) < 1e-10 * 12

    def test_index_out_of_range(self):
        fam = build_family(4)
        with pytest.raises(ValueError):
            pairwise_product(fam, 0, 1)
        with pytest.raises(ValueError):
            pairwise_product(fam, 1, 5)

    def test_pairwise_diagonals_match_products(self):
        fam = build_family(6)
        diags = pairwise_diagonals(fam)
        for k in range(1, 7):
            for k2 in range(1, 7):
                np.testing.assert_allclose(
                    diags[k - 1, k2 - 1],
                    np.diag(pairwise_product(fam, k, k2)),
                    atol=1e-12,
                )


class TestPrecoders:
    def test_trivial_size(self):
        pre = build_precoders(build_family(1))
        assert pre[0].tolist() == [[1.0 + 0.0j]]

    def test_slot_column_lookup(self):
        # slot 1, column 3 is base column index((1,3)) = 3
        fam = build_family(4)
        pre = build_precoders(fam)
        u = build_dft(4)
        np.testing.assert_array_equal(pre[0][:, 2], u[:, 2])

    def test_reassembly_is_bit_exact(self):
        for n in (2, 3, 8, 16):
            fam = build_family(n)
            pre = build_precoders(fam)
            for k in range(1, n + 1):
                stacked = np.stack([pre[s - 1][:, k - 1] for s in range(1, n + 1)], axis=1)
                assert (stacked == fam.member(k)).all()

    def test_each_slot_unitary_and_norm_preserving(self):
        rng = np.random.default_rng(1)
        for n in (2, 9, 32):
            pre = build_precoders(build_family(n))
            s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for slot in range(1, n + 1):
                p = pre[slot - 1]
                assert np.linalg.norm(p @ p.conj().T - np.eye(n)) < 1e-10 * n
                assert abs(np.linalg.norm(p @ s) - np.linalg.norm(s)) < 1e-12 * np.linalg.norm(s)


@given(st.integers(min_value=2, max_value=24), st.data())
@settings(deadline=None, max_examples=30)
def test_family_structure_property(n, data):
    k = data.draw(st.integers(min_value=1, max_value=n))
    k2 = data.draw(st.integers(min_value=1, max_value=n))
    p = pairwise_product(build_family(n), k, k2)
    if k == k2:
        assert np.linalg.norm(p - np.eye(n)) < 1e-10 * n
    else:
        off = p - np.diag(np.diag(p))
        assert np.max(np.abs(off)) < 1e-10
        assert abs(np.trace(p)) < 1e-10 * n


def einsum_diagonals_oracle(members):
    """O(n^4) sum over slots of member_k[p, j] * conj(member_l[p, j])."""
    return np.einsum("kpj,lpj->klp", members, members.conj())


def gathered_family_oracle(n):
    """Members by one fancy-index gather through the circulant index, then a transpose."""
    u = build_dft(n)
    index = circulant_index(n) - 1
    return np.ascontiguousarray(np.transpose(u[:, index], (2, 0, 1)))


def assert_read_only_window(tensor, n):
    """The tensor is a read-only view of one table of 2 n^2 entries."""
    with pytest.raises(ValueError):
        tensor[...] = 0
    owner = tensor
    while owner.base is not None:
        owner = owner.base
    assert owner.size == 2 * n * n


class TestClosedForms:
    SIZES = (1, 2, 3, 5, 16, 33, 64)

    @pytest.mark.parametrize("n", SIZES)
    def test_members_equal_the_gathered_construction(self, n):
        members = build_family(n).members
        assert np.array_equal(members, gathered_family_oracle(n))
        assert_read_only_window(members, n)

    @pytest.mark.parametrize("n", SIZES)
    def test_slots_are_the_transposed_members(self, n):
        fam = build_family(n)
        slots = build_precoders(fam)
        assert np.array_equal(slots, np.transpose(gathered_family_oracle(n), (2, 1, 0)))
        assert np.shares_memory(slots, fam.members)
        assert_read_only_window(slots, n)

    @pytest.mark.parametrize("n", SIZES)
    def test_diagonals_match_the_einsum(self, n):
        fam = build_family(n)
        diags = pairwise_diagonals(fam)
        assert diags.shape == (n, n, n) and diags.dtype == complex
        assert_read_only_window(diags, n)
        np.testing.assert_allclose(diags, einsum_diagonals_oracle(fam.members), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", SIZES)
    def test_own_diagonal_is_exactly_one(self, n):
        diags = pairwise_diagonals(build_family(n))
        k = np.arange(n)
        assert np.all(diags[k, k] == 1)

    @pytest.mark.parametrize("n", SIZES)
    def test_cross_diagonals_sum_to_zero(self, n):
        diags = pairwise_diagonals(build_family(n))
        sums = np.abs(diags.sum(axis=2))
        off = ~np.eye(n, dtype=bool)
        assert np.all(sums[off] <= 1e-12)


def test_set_up_memory_is_quadratic():
    # numpy reports its data buffers to tracemalloc; three written-out
    # N x N x N tensors would peak near 3 N^3 complex entries
    n = 130
    tracemalloc.start()
    try:
        fam = build_family(n)
        build_precoders(fam)
        pairwise_diagonals(fam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * n * n * 16
