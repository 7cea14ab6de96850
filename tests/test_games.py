import itertools
from fractions import Fraction

import numpy as np
import pytest

from shapreg.games import (
    Basis,
    SetFunction,
    capacity_from_mobius,
    choquet_mobius,
    enumerate_coalitions,
    indices_of,
    interaction_inversion_weights,
    k_additive_maps,
    mask_of,
    mobius_from_capacity,
    mobius_from_shapley,
    num_coalitions,
    shapley_from_mobius,
    transposed_min_terms,
    truncate_k_additive,
)


def make_sf(n, k, basis, values):
    return SetFunction(n=n, k=k, basis=basis, values=np.asarray(values, dtype=float))


def random_sf(n, k, basis, rng):
    return make_sf(n, k, basis, rng.normal(size=num_coalitions(n, k)))


# ---------------------------------------------------------------------------
# enumeration and indexing
# ---------------------------------------------------------------------------

def test_enumerate_n2_k2_by_hand():
    masks = enumerate_coalitions(2, 2)
    assert [indices_of(m) for m in masks] == [(0,), (1,), (0, 1)]


def test_enumeration_counts():
    assert len(enumerate_coalitions(8, 2)) == num_coalitions(8, 2) == 36 == 8 + 28
    assert len(enumerate_coalitions(10, 1)) == num_coalitions(10, 1) == 10
    assert len(enumerate_coalitions(10, 10)) == num_coalitions(10, 10) == 1023 == 2**10 - 1


def test_enumeration_matches_combination_count():
    # independent count: brute-force size filter over all subsets
    n, k = 6, 3
    brute = [frozenset(s) for size in range(1, k + 1)
             for s in itertools.combinations(range(n), size)]
    masks = enumerate_coalitions(n, k)
    assert len(masks) == len(brute)
    assert {frozenset(indices_of(m)) for m in masks} == set(brute)


@pytest.mark.parametrize("n,k", [(0, 1), (3, 0), (3, 4), (70, 5)])
def test_enumeration_rejects_bad_ranges(n, k):
    with pytest.raises(ValueError):
        enumerate_coalitions(n, k)
    with pytest.raises(ValueError):
        num_coalitions(n, k)


def test_canonical_order_is_size_major():
    sizes = [m.bit_count() for m in enumerate_coalitions(7, 4)]
    assert sizes == sorted(sizes)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 9) for k in range(1, n + 1)]
                         + [(40, 2), (12, 4)])
def test_subset_table_columns(n, k):
    """Row B of the order-a table lists the positions of B's subsets
    ascending: B's members in columns 0..a-1, its parent (B minus its top
    member) at column 2^a - a - 2 and B itself last.  The min-terms read the
    parent and top-member columns."""
    masks = enumerate_coalitions(n, k)
    index = {m: i for i, m in enumerate(masks)}
    for a, (block, table, depths) in enumerate(k_additive_maps(n, k).orders, start=1):
        members = np.array([indices_of(m) for m in masks[block]])
        assert table.shape == (len(members), 2**a - 1)
        assert np.all(np.diff(table, axis=1) > 0)
        assert np.array_equal(table[:, :a], members)  # a singleton sits at its feature
        if a >= 2:
            parents = [index[mask_of(row[:-1])] for row in members]
            assert np.array_equal(table[:, 2**a - a - 2], parents)
        assert np.array_equal(table[:, -1], np.arange(block.start, block.stop))
        assert np.array_equal(depths, [a - masks[c].bit_count() for c in table[0]])


def test_structures_over_the_byte_budget_fail_before_allocating():
    # a 21 GB subset table, and 13 million coalitions at ~120 bytes apiece
    with pytest.raises(ValueError, match=r"k=7 on n=40 .*D=23,242,038.*subset table needs "
                                         r"21,051,125,584 bytes"):
        k_additive_maps(40, 7)
    with pytest.raises(ValueError, match=r"k=5 on n=70 .*coalition list needs"):
        num_coalitions(70, 5)
    # no longer refused by a flat cap on n: 637 392 coalitions, a 74 MB table
    assert num_coalitions(63, 4) == 637_392


# ---------------------------------------------------------------------------
# capacity <-> Moebius
# ---------------------------------------------------------------------------

def brute_mobius(values_by_mask, n):
    """Independent oracle: direct alternating subset sum per coalition."""
    out = {}
    for mask in range(1, 1 << n):
        total = 0.0
        for sub in range(mask + 1):
            if sub & mask == sub and sub != 0:
                sign = (-1) ** (mask.bit_count() - sub.bit_count())
                total += sign * values_by_mask[sub]
        out[mask] = total
    return out


def test_mobius_of_additive_capacity():
    n = 3
    masks = enumerate_coalitions(n, n)
    mu = make_sf(n, n, Basis.CAPACITY, [m.bit_count() / n for m in masks])
    m = mobius_from_capacity(mu)
    for mask, v in zip(masks, m.values):
        expected = 1 / 3 if mask.bit_count() == 1 else 0.0
        assert v == pytest.approx(expected, abs=1e-12)


def test_mobius_of_dictator_capacity():
    n = 3
    masks = enumerate_coalitions(n, n)
    mu = make_sf(n, n, Basis.CAPACITY, [1.0 if mask & 1 else 0.0 for mask in masks])
    m = mobius_from_capacity(mu)
    for mask, v in zip(masks, m.values):
        assert v == pytest.approx(1.0 if mask == 1 else 0.0, abs=1e-12)


def test_mobius_of_min_game():
    n = 3
    masks = enumerate_coalitions(n, n)
    mu = make_sf(n, n, Basis.CAPACITY, [1.0 if mask == 0b111 else 0.0 for mask in masks])
    m = mobius_from_capacity(mu)
    for mask, v in zip(masks, m.values):
        assert v == pytest.approx(1.0 if mask == 0b111 else 0.0, abs=1e-12)


def test_mobius_matches_bruteforce_oracle():
    n = 8
    rng = np.random.default_rng(4)
    mu = random_sf(n, n, Basis.CAPACITY, rng)
    masks = enumerate_coalitions(n, n)
    oracle = brute_mobius(dict(zip(masks, mu.values)), n)
    m = mobius_from_capacity(mu)
    for mask, v in zip(masks, m.values):
        assert v == pytest.approx(oracle[mask], abs=1e-10)


def test_mobius_requires_full_order():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        mobius_from_capacity(random_sf(5, 2, Basis.CAPACITY, rng))


def test_capacity_from_mobius_dictator_and_zero():
    n = 3
    masks = enumerate_coalitions(n, n)
    m = make_sf(n, n, Basis.MOBIUS, [1.0 if mask == 1 else 0.0 for mask in masks])
    mu = capacity_from_mobius(m)
    for mask, v in zip(masks, mu.values):
        assert v == pytest.approx(1.0 if mask & 1 else 0.0)
    zero = capacity_from_mobius(make_sf(n, n, Basis.MOBIUS, np.zeros(len(masks))))
    assert np.all(zero.values == 0.0)


def test_capacity_from_mobius_hand_case():
    m = make_sf(2, 2, Basis.MOBIUS, [0.5, 0.3, 0.2])
    mu = capacity_from_mobius(m)
    assert mu.values == pytest.approx([0.5, 0.3, 1.0])


def test_capacity_mobius_round_trip_random():
    rng = np.random.default_rng(7)
    for n in (2, 5, 9, 12):
        mu = random_sf(n, n, Basis.CAPACITY, rng)
        back = capacity_from_mobius(mobius_from_capacity(mu))
        assert np.abs(back.values - mu.values).max() < 1e-12 * max(1, np.abs(mu.values).max())


# ---------------------------------------------------------------------------
# Moebius <-> Shapley interaction indices
# ---------------------------------------------------------------------------

def test_shapley_from_mobius_worked_example():
    m = make_sf(2, 2, Basis.MOBIUS, [0.5, 0.3, 0.2])
    idx = shapley_from_mobius(m)
    assert idx.values == pytest.approx([0.6, 0.4, 0.2])
    assert idx.values[:2].sum() == pytest.approx(1.0)  # efficiency = mu(F)


def test_shapley_of_additive_game_is_identity():
    rng = np.random.default_rng(1)
    n = 6
    vals = np.concatenate([rng.normal(size=n), np.zeros(num_coalitions(n, 2) - n)])
    idx = shapley_from_mobius(make_sf(n, 2, Basis.MOBIUS, vals))
    assert idx.values == pytest.approx(vals)


def test_shapley_of_dictator():
    n = 3
    vals = np.zeros(num_coalitions(n, n))
    vals[0] = 1.0  # m({0}) = 1
    idx = shapley_from_mobius(make_sf(n, n, Basis.MOBIUS, vals))
    assert idx.values == pytest.approx(vals)


def test_top_order_identity_and_efficiency():
    rng = np.random.default_rng(2)
    for n, k in [(6, 2), (8, 3)]:
        m = random_sf(n, k, Basis.MOBIUS, rng)
        idx = shapley_from_mobius(m)
        # I(A) = m(A) at |A| = k
        top = num_coalitions(n, k - 1) if k > 1 else 0
        assert idx.values[top:] == pytest.approx(m.values[top:])
        # efficiency: singleton indices sum to the total Moebius mass
        assert idx.values[:n].sum() == pytest.approx(m.values.sum(), abs=1e-12)


def test_mobius_from_shapley_closed_form_k2():
    idx = make_sf(2, 2, Basis.SHAPLEY, [0.6, 0.4, 0.2])
    m = mobius_from_shapley(idx)
    assert m.values == pytest.approx([0.5, 0.3, 0.2])


def test_mobius_from_shapley_additive():
    n = 5
    vals = np.concatenate([np.arange(1.0, 6.0), np.zeros(num_coalitions(n, 2) - n)])
    m = mobius_from_shapley(make_sf(n, 2, Basis.SHAPLEY, vals))
    assert m.values == pytest.approx(vals)


@pytest.mark.parametrize("n,k", [(10, 2), (12, 3), (6, 4)])
def test_shapley_mobius_round_trip(n, k):
    rng = np.random.default_rng(n * 100 + k)
    idx = random_sf(n, k, Basis.SHAPLEY, rng)
    back = shapley_from_mobius(mobius_from_shapley(idx))
    assert np.abs(back.values - idx.values).max() < 1e-12 * max(1, np.abs(idx.values).max())


def test_pair_indices_equal_pair_mobius_for_2_additive():
    rng = np.random.default_rng(3)
    n = 7
    m = random_sf(n, 2, Basis.MOBIUS, rng)
    idx = shapley_from_mobius(m)
    assert idx.values[n:] == pytest.approx(m.values[n:])


def test_inversion_weights_recurrence():
    """r solves sum_d C(e,d) r_d / (e-d+1) = [e == 0]: each weight is the
    double nearest the exact Bernoulli number B_d (B_1 = -1/2), so every odd
    weight from r_3 on is exactly 0.0."""
    bernoulli = [Fraction(1), Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0,
                 Fraction(1, 42), 0, Fraction(-1, 30), 0, Fraction(5, 66), 0,
                 Fraction(-691, 2730)]
    for max_order in range(13):
        r = interaction_inversion_weights(max_order)
        assert r.tolist() == [float(b) for b in bernoulli[:max_order + 1]], max_order
    odd = interaction_inversion_weights(12)[3::2]
    assert np.all(odd == 0.0) and not np.any(np.signbit(odd))


def test_basis_mismatch_rejected():
    rng = np.random.default_rng(0)
    m = random_sf(4, 2, Basis.MOBIUS, rng)
    with pytest.raises(ValueError):
        shapley_from_mobius(make_sf(4, 2, Basis.SHAPLEY, m.values))
        # wrong basis for the op below
    with pytest.raises(ValueError):
        mobius_from_shapley(m)


# ---------------------------------------------------------------------------
# truncation and Choquet evaluation
# ---------------------------------------------------------------------------

def test_truncation_preserves_low_orders_bitwise():
    rng = np.random.default_rng(5)
    n = 6
    m = random_sf(n, n, Basis.MOBIUS, rng)
    t = truncate_k_additive(m, 2)
    assert t.k == 2
    assert np.array_equal(t.values, m.values[: num_coalitions(n, 2)])


def test_truncation_idempotent_and_identity():
    rng = np.random.default_rng(6)
    m = random_sf(5, 2, Basis.MOBIUS, rng)
    assert truncate_k_additive(m, 2) is m
    t = truncate_k_additive(truncate_k_additive(m, 1), 1)
    assert np.array_equal(t.values, m.values[:5])


def test_truncating_min_game_to_k2_zeroes_everything():
    n = 3
    masks = enumerate_coalitions(n, n)
    vals = [1.0 if mask == 0b111 else 0.0 for mask in masks]
    t = truncate_k_additive(make_sf(n, n, Basis.MOBIUS, vals), 2)
    assert np.all(t.values == 0.0)


def test_truncation_rejects_bad_k():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        truncate_k_additive(random_sf(4, 2, Basis.MOBIUS, rng), 0)


def test_choquet_additive_reduces_to_weighted_sum():
    n = 4
    rng = np.random.default_rng(8)
    w = rng.uniform(size=n)
    vals = np.concatenate([w, np.zeros(num_coalitions(n, 2) - n)])
    m = make_sf(n, 2, Basis.MOBIUS, vals)
    x = rng.uniform(size=n)
    assert choquet_mobius(m, x) == pytest.approx(float(w @ x))


def test_choquet_single_pair_term():
    m = make_sf(2, 2, Basis.MOBIUS, [0.0, 0.0, 1.0])
    assert choquet_mobius(m, [0.3, 0.7]) == pytest.approx(0.3)


def test_choquet_hand_case():
    m = make_sf(2, 2, Basis.MOBIUS, [0.5, 0.3, 0.2])
    assert choquet_mobius(m, [0.4, 0.8]) == pytest.approx(0.52)


def test_choquet_rejects_out_of_box():
    m = make_sf(2, 2, Basis.MOBIUS, [0.5, 0.3, 0.2])
    with pytest.raises(ValueError):
        choquet_mobius(m, [1.2, 0.5])


def test_min_terms_reject_nan():
    # NaN fails every comparison, so a box check written as "any x out of
    # bounds" lets it through
    with pytest.raises(ValueError, match="finite"):
        transposed_min_terms(np.array([[0.2, np.nan, 0.5]]), 2)


def test_full_lattice_transforms_fail_before_allocating():
    # a 2-additive game on 40 features is small; its lattice has 2^40 values
    m = make_sf(40, 2, Basis.MOBIUS, np.zeros(num_coalitions(40, 2)))
    with pytest.raises(ValueError, match=r"2\^40"):
        capacity_from_mobius(m)
    mu = make_sf(21, 21, Basis.CAPACITY, np.zeros(num_coalitions(21, 21)))
    with pytest.raises(ValueError, match=r"2\^21"):
        mobius_from_capacity(mu)


# ---------------------------------------------------------------------------
# value lookup
# ---------------------------------------------------------------------------

def test_value_lookup_by_indices_and_mask():
    sf = make_sf(3, 2, Basis.MOBIUS, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert sf.value([0]) == 1.0
    assert sf.value(mask_of([1, 2])) == 6.0
    assert sf.value([]) == 0.0
    with pytest.raises(KeyError):
        sf.value([0, 1, 2])


def test_value_follows_the_canonical_order_at_12_4():
    n, k = 12, 4
    sf = make_sf(n, k, Basis.SHAPLEY, np.arange(num_coalitions(n, k), dtype=float))
    for position, mask in enumerate(enumerate_coalitions(n, k)):
        assert sf.value(mask) == position
        assert sf.value(indices_of(mask)) == position


def test_min_terms_fill_a_given_buffer():
    """The unchecked core, which the model's block loop calls, fills the
    buffer it is given with the checked wrapper's min-terms to the bit."""
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(7, 5))
    core = np.full((num_coalitions(5, 3), 7), np.nan)
    assert k_additive_maps(5, 3).min_terms(x, core) is core
    assert core.tobytes() == transposed_min_terms(x, 3).tobytes()


def test_min_terms_clip_inputs_within_the_tolerance():
    x = np.array([[-1e-13, 0.5, 1 + 1e-13]])
    assert np.array_equal(transposed_min_terms(x, 2), transposed_min_terms(np.clip(x, 0, 1), 2))
    assert x[0, 0] == -1e-13  # the input is not changed
    for bad in (-1e-11, 1 + 1e-11, np.inf):
        with pytest.raises(ValueError, match="finite"):
            transposed_min_terms(np.array([[0.5, bad]]), 2)
