import functools
import threading
from unittest import mock

import numpy as np
import pytest

from shapreg import analysis
from shapreg.analysis import (
    GAP_K_RANGE,
    GAP_LAMBDA,
    GAP_N,
    GAP_PENALTIES,
    GAP_SAMPLES,
    ZERO_TOL,
    GapExperiment,
    consensus_interactions,
    effective_dimension,
    filter_stable,
    gap_experiment,
    main_effects,
    top_by_strength,
)
from shapreg.basis import design_matrix
from shapreg.data import gen_random_noise
from shapreg.games import num_coalitions
from shapreg.model import ShapleyModel
from shapreg.train import STATUSES, FitConfig, fit


def model_from_indices(indices, n, k=2, names=None):
    return ShapleyModel(
        feature_names=names or [f"f{i}" for i in range(n)],
        k=k,
        bias=0.0,
        indices=np.asarray(indices, dtype=float),
        normalization=np.column_stack([np.zeros(n), np.ones(n)]),
    )


def pair_position(n, i, j):
    """Column of pair {i, j} within the pair block (lexicographic)."""
    pos = 0
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) == (i, j):
                return pos
            pos += 1
    raise AssertionError


# ---------------------------------------------------------------------------
# main effects and interaction aggregation
# ---------------------------------------------------------------------------

def test_main_effects_single_model():
    n = 4
    vals = np.zeros(num_coalitions(n, 2))
    vals[:n] = [0.3, -0.1, 0.9, 0.0]
    ranked = main_effects([model_from_indices(vals, n)])
    assert [r[0] for r in ranked] == ["f2", "f0", "f3", "f1"]
    assert all(r[2] == 0.0 for r in ranked)


def test_main_effects_cancellation():
    n = 3
    rng = np.random.default_rng(0)
    vals = rng.normal(size=num_coalitions(n, 2))
    ranked = main_effects([model_from_indices(vals, n), model_from_indices(-vals, n)])
    assert all(mean == pytest.approx(0.0, abs=1e-15) for _, mean, _ in ranked)


def test_main_effects_planted_dominant_feature():
    n = 5
    rng = np.random.default_rng(1)
    models = []
    for _ in range(5):
        vals = np.zeros(num_coalitions(n, 2))
        vals[:n] = rng.uniform(-0.1, 0.1, size=n)
        vals[2] = 1.0
        models.append(model_from_indices(vals, n))
    assert main_effects(models)[0][0] == "f2"


def test_main_effects_rejects_heterogeneous():
    a = model_from_indices(np.zeros(num_coalitions(3, 2)), 3)
    b = model_from_indices(np.zeros(num_coalitions(4, 2)), 4)
    with pytest.raises(ValueError):
        main_effects([a, b])


def test_consensus_identical_models():
    n = 4
    rng = np.random.default_rng(2)
    vals = rng.normal(size=num_coalitions(n, 2))
    matrix = consensus_interactions([model_from_indices(vals, n)] * 3)
    pos = n + pair_position(n, 0, 1)
    assert matrix.mean[0, 1] == pytest.approx(vals[pos])
    assert set(np.unique(matrix.support[np.triu_indices(n, 1)])) <= {0.0, 1.0}
    assert np.array_equal(matrix.mean, matrix.mean.T)
    assert np.all(np.diag(matrix.mean) == 0.0)


def test_consensus_support_fraction():
    n = 3
    zero = np.zeros(num_coalitions(n, 2))
    one = zero.copy()
    one[n + pair_position(n, 0, 1)] = 0.4
    models = [model_from_indices(one, n)] + [model_from_indices(zero, n)] * 4
    matrix = consensus_interactions(models)
    assert matrix.mean[0, 1] == pytest.approx(0.08)
    assert matrix.support[0, 1] == pytest.approx(0.2)


def test_consensus_all_zero():
    n = 3
    matrix = consensus_interactions([model_from_indices(np.zeros(num_coalitions(n, 2)), n)] * 2)
    assert np.all(matrix.mean == 0.0)
    assert np.all(matrix.support == 0.0)


def consensus_reference(models):
    """Mean and support matrices, one pair at a time in canonical order."""
    n = models[0].n
    mean, support = np.zeros((n, n)), np.zeros((n, n))
    pos = n
    for i in range(n):
        for j in range(i + 1, n):
            column = np.array([m.indices[pos] for m in models])
            mean[i, j] = mean[j, i] = column.mean()
            support[i, j] = support[j, i] = float((np.abs(column) > ZERO_TOL).mean())
            pos += 1
    return mean, support


def test_consensus_matches_the_per_pair_reference_bit_for_bit():
    """Random model sets (1-40 models, about 30% exact zeros of either sign,
    about 5% exactly +-ZERO_TOL, magnitudes from 1e-12 to 1e3): both
    matrices equal the per-pair loop's to the bit, signed zeros included."""
    rng = np.random.default_rng(25)
    for _ in range(150):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(2, n + 1))
        d = num_coalitions(n, k)
        models = []
        for _ in range(int(rng.integers(1, 41))):
            vals = rng.choice([-1.0, 1.0], size=d) * 10.0 ** rng.uniform(-12, 3, size=d)
            vals[rng.uniform(size=d) < 0.3] = rng.choice([-0.0, 0.0])
            vals[rng.uniform(size=d) < 0.05] = rng.choice([-ZERO_TOL, ZERO_TOL])
            models.append(model_from_indices(vals, n, k=k))
        matrix = consensus_interactions(models)
        mean, support = consensus_reference(models)
        assert matrix.mean.tobytes() == mean.tobytes()
        assert matrix.support.tobytes() == support.tobytes()


def test_consensus_rejects_k1():
    model = ShapleyModel(feature_names=["a", "b"], k=1, bias=0.0,
                         indices=np.zeros(2),
                         normalization=np.array([[0.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        consensus_interactions([model])


def test_consensus_permutation_equivariant():
    n = 4
    rng = np.random.default_rng(3)
    models = [model_from_indices(rng.normal(size=num_coalitions(n, 2)), n) for _ in range(3)]
    base = consensus_interactions(models)

    perm = [2, 0, 3, 1]  # feature i of the permuted data is feature perm[i] originally
    permuted_models = []
    for model in models:
        vals = np.zeros_like(model.indices)
        vals[:n] = model.indices[perm]
        for i in range(n):
            for j in range(i + 1, n):
                a, b = sorted((perm[i], perm[j]))
                vals[n + pair_position(n, i, j)] = model.indices[n + pair_position(n, a, b)]
        permuted_models.append(model_from_indices(vals, n, names=[f"f{p}" for p in perm]))
    permuted = consensus_interactions(permuted_models)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            assert permuted.mean[i, j] == pytest.approx(base.mean[perm[i], perm[j]])


def test_filter_stable_identity_threshold_and_idempotence():
    n = 3
    one = np.zeros(num_coalitions(n, 2))
    one[n + pair_position(n, 0, 1)] = 0.4
    models = [model_from_indices(one, n)] + [model_from_indices(np.zeros_like(one), n)] * 4
    matrix = consensus_interactions(models)

    assert np.array_equal(filter_stable(matrix, 0.0).mean, matrix.mean)
    filtered = filter_stable(matrix, 0.7)
    assert filtered.mean[0, 1] == 0.0
    assert filtered.support[0, 1] == pytest.approx(0.2)  # support untouched
    twice = filter_stable(filter_stable(matrix, 0.7), 0.7)
    assert np.array_equal(twice.mean, filtered.mean)

    with pytest.raises(ValueError):
        filter_stable(matrix, 1.0 + 1e-9)


def test_top_by_strength_star_graph_and_ties():
    n = 4
    vals = np.zeros(num_coalitions(n, 2))
    for j in range(1, n):
        vals[n + pair_position(n, 0, j)] = 0.5
    matrix = consensus_interactions([model_from_indices(vals, n)])

    assert top_by_strength(matrix, n).names == matrix.names  # identity restriction
    assert top_by_strength(matrix, 1).names == ["f0"]

    zero = consensus_interactions([model_from_indices(np.zeros_like(vals), n)])
    assert top_by_strength(zero, 3).names == ["f0", "f1", "f2"]  # canonical tie-break

    with pytest.raises(ValueError):
        top_by_strength(matrix, 0)


# ---------------------------------------------------------------------------
# dimensions and bounds
# ---------------------------------------------------------------------------

def test_combinatorial_dimension_values():
    # The combinatorial dimension of the k-additive basis is num_coalitions.
    assert num_coalitions(8, 2) == 36
    assert num_coalitions(10, 1) == 10
    assert num_coalitions(10, 10) == 1023
    with pytest.raises(ValueError):
        num_coalitions(4, 5)


def test_effective_dimension_orthonormal_design():
    d = 6
    phi = np.vstack([np.eye(d)] * 3)  # equal column norms, orthogonal
    assert effective_dimension(phi) == pytest.approx(d)


def test_effective_dimension_rank_one():
    rng = np.random.default_rng(4)
    col = rng.uniform(0.1, 1.0, size=(30, 1))
    phi = col @ np.array([[1.0, 2.0, -0.5]])
    assert effective_dimension(phi) == pytest.approx(1.0)


def test_effective_dimension_random_design_vs_eigen_oracle():
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(200, 8))
    design = design_matrix(x, 2)
    d_eff = effective_dimension(design.values)
    assert 1.0 <= d_eff < 36.0
    # independent eigenvalue oracle
    sigma = design.values.T @ design.values / design.values.shape[0]
    eig = np.linalg.eigvalsh(sigma)
    assert d_eff == pytest.approx(eig.sum() ** 2 / (eig**2).sum(), abs=1e-8)


def test_effective_dimension_rejects_degenerate():
    with pytest.raises(ValueError):
        effective_dimension(np.zeros((5, 3)))
    with pytest.raises(ValueError):
        effective_dimension(np.ones((1, 3)))


@functools.lru_cache(maxsize=None)
def counted_noise_gap() -> tuple[GapExperiment, tuple[int, ...]]:
    """The gap protocol as the bounds workload runs it (2 iterations, the
    fewest that start the pool; seed 11; two workers), run once for the
    tests that read it, with the Newton iterations of every fit it made."""
    library_fit = analysis.fit
    lock = threading.Lock()
    iterations = []

    def counted(*args, **kwargs):
        result = library_fit(*args, **kwargs)
        with lock:
            iterations.append(result.iterations)
        return result

    with mock.patch.object(analysis, "fit", counted):
        exp = gap_experiment(iterations=2, seed=11, jobs=2)
    return exp, tuple(iterations)


def noise_gap() -> GapExperiment:
    return counted_noise_gap()[0]


# ---------------------------------------------------------------------------
# gap experiment
# ---------------------------------------------------------------------------

def test_gap_experiment_shapes_and_dimension_bounds():
    exp = noise_gap()
    assert set(exp.cells) == {(k, pen) for k in GAP_K_RANGE for pen in GAP_PENALTIES}
    for k in GAP_K_RANGE:
        assert 1.0 <= exp.d_eff[k] <= num_coalitions(GAP_N, k)
    rows = exp.rows()
    assert [r["k"] for r in rows] == list(GAP_K_RANGE)
    assert [r["D_k"] for r in rows] == [num_coalitions(GAP_N, k) for k in GAP_K_RANGE]
    assert all("gap_none" in r and "gap_l2" in r for r in rows)


def test_gap_experiment_deterministic_across_jobs():
    a = gap_experiment(iterations=2, seed=2, jobs=1)
    b = gap_experiment(iterations=2, seed=2, jobs=3)
    assert np.array_equal(a.cells[(2, "l2")].gaps, b.cells[(2, "l2")].gaps)
    assert a.d_eff == b.d_eff


def test_gap_fan_out_identical_for_any_job_count():
    """One task per iteration, which walks the orders upward on one design,
    reassembled by cell: every field and report row is the same for any
    number of workers."""
    first = noise_gap()
    for jobs in (1, 3):
        exp = gap_experiment(iterations=2, seed=11, jobs=jobs)
        assert exp.cells.keys() == first.cells.keys()
        for key, cell in first.cells.items():
            other = exp.cells[key]
            for name in ("gaps", "train_errors", "test_errors"):
                assert np.array_equal(getattr(other, name), getattr(cell, name))
            assert other.status_counts == cell.status_counts
        assert exp.d_eff == first.d_eff
        assert exp.rows() == first.rows()


def test_gap_cells_are_the_direct_fits_of_each_iteration():
    """Reference loop: iteration i draws its data from the i-th child of the
    root seed, fits the first half cold at each order and scores both
    halves."""
    exp = noise_gap()
    half = GAP_SAMPLES // 2
    for it, child in enumerate(np.random.SeedSequence(11).spawn(2)):
        ds = gen_random_noise(GAP_N, GAP_SAMPLES, seed=child)
        train, test = ds.subset(np.arange(half)), ds.subset(np.arange(half, GAP_SAMPLES))
        for k in GAP_K_RANGE:
            model = fit(train, k, FitConfig(penalty="l2", lam=GAP_LAMBDA)).model
            cell = exp.cells[(k, "l2")]
            assert cell.train_errors[it] == (model.predict(train.x) != train.y).mean()
            assert cell.test_errors[it] == (model.predict(test.x) != test.y).mean()


def test_gap_protocol_solver_work_is_pinned():
    """One fit per (iteration, k, penalty), the orders warm-started upward,
    and unpenalized fits stopped at their first separating iterate.  The
    total Newton iterations and the fits per status are counts, so a change
    in the solver's work shows here without timing anything."""
    exp, iterations = counted_noise_gap()
    assert len(iterations) == 32 and sum(iterations) == 219
    totals = {status: sum(cell.status_counts[status] for cell in exp.cells.values())
              for status in STATUSES}
    assert totals == {"converged": 28, "budget": 0, "no_descent": 0, "separable": 4}
    assert {key: cell.status_counts["separable"] for key, cell in exp.cells.items()
            if cell.status_counts["separable"]} == {(7, "none"): 2, (8, "none"): 2}


def test_gap_experiment_rejects_no_iterations():
    with pytest.raises(ValueError, match="iterations"):
        gap_experiment(iterations=0)
