import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from addkrig import bench as bench_mod
from addkrig import make_kernel
from addkrig.bench import (
    BenchmarkReport,
    GFunctionBenchConfig,
    GFunctionSpec,
    PathsBenchConfig,
    RunRecord,
    g_function,
    g_main_effect,
    lhs_maximin,
    q2,
    run_gfunction_benchmark,
    run_paths_benchmark,
    sample_gp_path,
    sobol_index,
)
from addkrig.kernels import cov_matrix

SPEC4 = GFunctionSpec([1.0, 2.0, 3.0, 4.0])


class TestGFunction:
    def test_point_values(self):
        # At x = 0 every factor is (2 + a_k) / (1 + a_k); at x = 0.5 every
        # factor is a_k / (1 + a_k).
        spec = GFunctionSpec([1.0])
        assert g_function([0.0], spec) == pytest.approx(1.5)
        assert g_function([0.5], spec) == pytest.approx(0.5)
        assert g_function([1.0], spec) == pytest.approx(1.5)
        assert g_function([0.5, 0.5], GFunctionSpec([1.0, 3.0])) == pytest.approx(0.5 * 0.75)
        # |4x - 2| = 1 at the quartiles, so every factor there is one.
        assert g_function([0.25, 0.75], GFunctionSpec([1.0, 3.0])) == pytest.approx(1.0)

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(50, 4))
        batch = g_function(X, SPEC4)
        for i in range(50):
            assert batch[i] == pytest.approx(g_function(X[i], SPEC4), rel=1e-14)

    def test_unit_mean_monte_carlo(self):
        # Each factor integrates to one over [0, 1], so E[g] = 1.
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(200000, 4))
        assert np.mean(g_function(X, SPEC4)) == pytest.approx(1.0, abs=0.01)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            g_function([1.2, 0.5, 0.5, 0.5], SPEC4)
        with pytest.raises(ValueError):
            g_function([0.5, 0.5], SPEC4)
        with pytest.raises(ValueError):
            GFunctionSpec([1.0, 0.0])
        for a in ([], [[1.0, 2.0]]):  # no direction at all, or coefficients that are not one list
            with pytest.raises(ValueError, match="non-empty list"):
                GFunctionSpec(a)


class TestSobolIndices:
    def test_decreasing_with_a(self):
        s = [sobol_index(i, SPEC4) for i in range(4)]
        assert s == sorted(s, reverse=True)

    def test_known_sum(self):
        # First-order indices of this coefficient set cover ~95% of variance.
        total = sum(sobol_index(i, SPEC4) for i in range(4))
        assert total == pytest.approx(0.95, abs=0.005)

    def test_single_direction_is_one(self):
        assert sobol_index(0, GFunctionSpec([2.0])) == pytest.approx(1.0)

    def test_monte_carlo_cross_check(self):
        # Saltelli-style estimator: S_i = Var(E[g|x_i]) / Var(g) with the
        # conditional mean known analytically (product of unit-mean factors).
        rng = np.random.default_rng(2)
        x = rng.uniform(size=400000)
        var_total = np.prod(1.0 + 1.0 / (3.0 * (1.0 + SPEC4.a) ** 2)) - 1.0
        for i in range(4):
            cond = (np.abs(4.0 * x - 2.0) + SPEC4.a[i]) / (1.0 + SPEC4.a[i])
            s_mc = np.var(cond) / var_total
            assert s_mc == pytest.approx(sobol_index(i, SPEC4), abs=0.01)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sobol_index(4, SPEC4)


class TestMainEffect:
    def test_values(self):
        assert g_main_effect(0, 0.5, SPEC4) == pytest.approx(-0.5)
        assert g_main_effect(0, 0.0, SPEC4) == pytest.approx(0.5)
        assert g_main_effect(1, 1.0, SPEC4) == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("i", [-1, 4])
    def test_direction_out_of_range(self, i):
        with pytest.raises(ValueError, match="direction index out of range"):
            g_main_effect(i, 0.5, SPEC4)

    def test_integrates_to_zero(self):
        # Split the quadrature at the kink of |4x - 2| so each panel is smooth.
        t, w = np.polynomial.legendre.leggauss(64)
        for i in range(4):
            total = 0.0
            for a, b in ((0.0, 0.5), (0.5, 1.0)):
                x = 0.5 * (b - a) * (t + 1.0) + a
                total += 0.5 * (b - a) * np.sum(w * g_main_effect(i, x, SPEC4))
            assert total == pytest.approx(0.0, abs=1e-12)

    def test_conditional_mean_monte_carlo(self):
        # E[g | x_0 = x] - 1 should match the analytic main effect.
        rng = np.random.default_rng(3)
        for x0 in (0.1, 0.4, 0.9):
            X = rng.uniform(size=(200000, 4))
            X[:, 0] = x0
            mc = np.mean(g_function(X, SPEC4)) - 1.0
            assert mc == pytest.approx(g_main_effect(0, x0, SPEC4), abs=0.01)


class TestQ2:
    def test_perfect_and_mean_predictor(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert q2(y, y) == pytest.approx(1.0)
        assert q2(y, np.full(4, y.mean())) == pytest.approx(0.0)

    def test_known_value(self):
        y = np.array([0.0, 1.0, 2.0])
        y_hat = np.array([0.0, 1.0, 1.0])
        assert q2(y, y_hat) == pytest.approx(1.0 - 1.0 / 2.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(30)
        y_hat = y + 0.1 * rng.standard_normal(30)
        assert q2(3.0 * y + 2.0, 3.0 * y_hat + 2.0) == pytest.approx(q2(y, y_hat), rel=1e-10)

    def test_invalid(self):
        with pytest.raises(ValueError):
            q2([1.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            q2([1.0], [1.0])


class TestLHS:
    def test_latin_property(self):
        for seed in range(5):
            X = lhs_maximin(15, 3, seed=seed, n_improvement_steps=100)
            for j in range(3):
                strata = np.floor(X[:, j] * 15).astype(int)
                assert sorted(strata) == list(range(15))

    def test_improvement_does_not_shrink_min_distance(self):
        from scipy.spatial.distance import pdist

        base = lhs_maximin(20, 2, seed=7, n_improvement_steps=0)
        improved = lhs_maximin(20, 2, seed=7, n_improvement_steps=2000)
        assert pdist(improved).min() >= pdist(base).min()

    def test_two_point_strata(self):
        X = lhs_maximin(2, 1, seed=0, n_improvement_steps=10)
        lo, hi = sorted(X[:, 0])
        assert 0.0 <= lo < 0.5 <= hi <= 1.0

    def test_deterministic(self):
        np.testing.assert_array_equal(
            lhs_maximin(10, 2, seed=3, n_improvement_steps=50),
            lhs_maximin(10, 2, seed=3, n_improvement_steps=50),
        )

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            lhs_maximin(1, 2)

    @pytest.mark.parametrize("steps", [0, 10])
    def test_no_dimension(self, steps):
        with pytest.raises(ValueError, match="at least one dimension"):
            lhs_maximin(5, 0, n_improvement_steps=steps)


def _reference_sq_dist_rows(X, i):
    d2 = np.sum((X - X[i]) ** 2, axis=1)
    d2[i] = np.inf
    return d2


def reference_lhs_maximin(n, d, seed=0, n_improvement_steps=10000):
    """The hill climb with every proposal evaluated in full (two rows of distances and the
    minimum of a copy of D), kept verbatim as the oracle for the early rejection."""
    if n < 2:
        raise ValueError("need at least two design points")
    rng = np.random.default_rng(seed)
    X = np.empty((n, d))
    for j in range(d):
        X[:, j] = (rng.permutation(n) + rng.uniform(size=n)) / n

    # Squared-distance matrix maintained incrementally across proposals.
    diff = X[:, None, :] - X[None, :, :]
    D = np.sum(diff * diff, axis=2)
    np.fill_diagonal(D, np.inf)
    current_min = D.min()

    for _ in range(n_improvement_steps):
        i, j = rng.choice(n, size=2, replace=False)
        k = rng.integers(d)
        X[i, k], X[j, k] = X[j, k], X[i, k]
        di = _reference_sq_dist_rows(X, i)
        dj = _reference_sq_dist_rows(X, j)
        D_new = D.copy()
        D_new[i, :] = di
        D_new[:, i] = di
        D_new[j, :] = dj
        D_new[:, j] = dj
        D_new[i, j] = D_new[j, i] = di[j]
        new_min = D_new.min()
        if new_min > current_min:
            D = D_new
            current_min = new_min
        else:
            X[i, k], X[j, k] = X[j, k], X[i, k]
    return X


class TestLHSEarlyRejection:
    @pytest.mark.parametrize("steps", [0, 1, 50, 2000])
    @pytest.mark.parametrize("n", [2, 3, 10, 30, 40, 60])
    def test_matches_full_evaluation(self, n, steps):
        for d in (1, 2, 3, 4, 6):
            seed = 100 * n + 10 * d + steps
            np.testing.assert_array_equal(
                lhs_maximin(n, d, seed=seed, n_improvement_steps=steps),
                reference_lhs_maximin(n, d, seed=seed, n_improvement_steps=steps),
            )

    @pytest.mark.parametrize("n, d", [(40, 4), (30, 3), (60, 6)])
    def test_study_shapes_match_full_evaluation(self, n, d):
        # The g-function study draws seeds master_seed + 1000 + run, the paths study
        # master_seed + d.
        for seed in (d, 1000, 1019):
            np.testing.assert_array_equal(
                lhs_maximin(n, d, seed=seed, n_improvement_steps=2000),
                reference_lhs_maximin(n, d, seed=seed, n_improvement_steps=2000),
            )

    @pytest.mark.parametrize("extra", [0, 1, bench_mod._PROPOSAL_CHUNK + 5])
    def test_designs_across_batches_match_full_evaluation(self, extra):
        # Proposals are drawn a batch at a time; each batch goes on from the generator state
        # the last one left, and the last batch is cut to the steps that remain.
        steps = bench_mod._PROPOSAL_CHUNK + extra
        for n, d in [(30, 3), (7, 2)]:
            np.testing.assert_array_equal(
                lhs_maximin(n, d, seed=steps, n_improvement_steps=steps),
                reference_lhs_maximin(n, d, seed=steps, n_improvement_steps=steps),
            )

    def test_most_proposals_skip_the_distance_rows(self, monkeypatch):
        calls = [0]
        rows = bench_mod._min_sq_dist_rows

        def counted(X, i):
            calls[0] += 1
            return rows(X, i)

        monkeypatch.setattr(bench_mod, "_min_sq_dist_rows", counted)
        lhs_maximin(40, 4, seed=1000, n_improvement_steps=2000)
        assert 0 < calls[0] <= 2000  # full evaluation of every proposal: 4000 rows

    def test_no_improvement_steps_builds_no_distance_matrix(self):
        tracemalloc.start()
        try:
            lhs_maximin(1000, 4, seed=0, n_improvement_steps=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # the 1000 x 1000 x 4 difference tensor alone is 32 MB


def _stepwise_proposals(rng, n, d, steps):
    """The proposals of lhs_maximin drawn one step at a time, as the reference for the batch."""
    i, j, k = np.empty((3, steps), dtype=np.int64)
    for s in range(steps):
        i[s], j[s] = rng.choice(n, size=2, replace=False)
        k[s] = rng.integers(d)
    return i, j, k


class TestDrawProposals:
    # lhs_maximin draws a batch of proposals in one rng.integers call; rng.choice and rng.integers
    # one step at a time are the reference, for the proposals and for the state left behind.
    @pytest.mark.parametrize("n, d", [(2, 3), (10, 1), (3, 2), (40, 4), (60, 6), (2**31 + 7, 3)])
    def test_matches_per_step_draws_with_and_without_a_half_word(self, n, d):
        # (2, 3) and (10, 1) hold a range of one value, a draw that reads no bits; at n = 2^31 + 7
        # about half of the words drawn on [0, n - 2] and [0, n - 1] are rejected and redrawn.
        batched, stepwise = np.random.default_rng(n * d), np.random.default_rng(n * d)
        for _ in range(3):
            got = bench_mod._draw_proposals(batched, n, d, 1000)
            np.testing.assert_array_equal(got, _stepwise_proposals(stepwise, n, d, 1000))
            assert batched.bit_generator.state == stepwise.bit_generator.state
            batched.integers(7), stepwise.integers(7)  # a 32-bit draw: flips the half word left over

    def test_word_that_lemire_rejects_is_redrawn_as_per_step(self):
        # For n = 4 the first draw is on [0, 2]: the word 0 leaves 0 in the low bits of 0 * 3,
        # below 2^32 mod 3 = 1, so numpy rejects it and reads another word.  Here it is the half
        # word a generator has left over, the first one a draw reads.
        state = {**np.random.default_rng(3).bit_generator.state, "has_uint32": 1, "uinteger": 0}
        batched, stepwise = np.random.default_rng(), np.random.default_rng()
        batched.bit_generator.state = stepwise.bit_generator.state = state
        got = bench_mod._draw_proposals(batched, 4, 3, 50)
        np.testing.assert_array_equal(got, _stepwise_proposals(stepwise, 4, 3, 50))
        assert batched.bit_generator.state == stepwise.bit_generator.state

    def test_memory_is_bounded_by_the_batch(self):
        tracemalloc.start()
        try:
            lhs_maximin(60, 2, seed=0, n_improvement_steps=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 24 batches of 4096 proposals; drawing all 100,000 at once would hold 3.2 MB of draws
        # and as much again for each array made from them.
        assert peak < 2**21


class TestSamplePath:
    def test_seed_repeatability(self):
        k = make_kernel("gaussian", [1.0, 1.0], [0.3, 0.3])
        X = lhs_maximin(10, 2, seed=0, n_improvement_steps=100)
        np.testing.assert_array_equal(sample_gp_path(k, X, seed=5), sample_gp_path(k, X, seed=5))
        assert not np.array_equal(sample_gp_path(k, X, seed=5), sample_gp_path(k, X, seed=6))

    def test_empirical_covariance(self):
        # Many paths at a small design: the empirical covariance should match
        # the kernel matrix to a few percent.
        k = make_kernel("matern32", [1.0], [0.3])
        X = np.linspace(0.05, 0.95, 5)[:, None]
        K = cov_matrix(k, X, 0.0)
        paths = np.array([sample_gp_path(k, X, seed=s) for s in range(20000)])
        emp = paths.T @ paths / paths.shape[0]
        assert np.max(np.abs(emp - K)) <= 0.05 * np.max(K)

    def test_zero_variance_kernel(self):
        k = make_kernel("gaussian", [0.0], [0.5])
        y = sample_gp_path(k, np.linspace(0.1, 0.9, 4)[:, None], seed=0)
        np.testing.assert_allclose(y, 0.0, atol=1e-4)


class TestReport:
    def make_report(self):
        rep = BenchmarkReport()
        rep.records.append(RunRecord("r0", "a", 2, 0, 0.9, 0.01, 100, -5.0))
        rep.records.append(RunRecord("r1", "a", 2, 1, 0.7, 0.02, 120, -4.0))
        rep.records.append(RunRecord("r2", "b", 2, 0, float("nan"), 0.03, 80, -3.0))
        return rep

    def test_stats(self):
        rep = self.make_report()
        mean, sd = rep.q2_stats("a")
        assert mean == pytest.approx(0.8)
        assert sd == pytest.approx(np.std([0.9, 0.7], ddof=1))
        np.testing.assert_array_equal(rep.final_l("a"), [-5.0, -4.0])

    def test_one_run_has_sd_zero_and_summary_reports_q2_stats(self):
        rep = self.make_report()
        rep.records.append(RunRecord("r3", "c", 2, 0, 0.6, 0.01, 90, -2.0))
        assert rep.q2_stats("c") == (0.6, 0.0)  # no ddof=1 warning, which the suite makes an error
        methods = rep.summary()["methods"]
        for m in ("a", "c"):
            assert (methods[m]["mean_q2"], methods[m]["sd_q2"]) == rep.q2_stats(m)

    def test_q2_stats_of_a_method_without_records_is_nan(self):
        # No "Mean of empty slice" warning (the suite makes it an error) and no exception: a
        # g-function study whose runs of one method all failed still reports that method.
        mean, sd = BenchmarkReport().q2_stats("rlm-additive")
        assert np.isnan(mean) and np.isnan(sd)

    def test_summary_skips_q2_when_nan(self):
        s = self.make_report().summary()
        assert "mean_q2" in s["methods"]["a"]
        assert "mean_q2" not in s["methods"]["b"]
        assert s["n_failures"] == 0

    def test_csv_and_json_round_trip(self, tmp_path):
        import csv as csv_mod
        import json

        rep = self.make_report()
        rep.to_csv(tmp_path / "report.csv")
        rep.save_summary(tmp_path / "summary.json")
        with open(tmp_path / "report.csv", newline="") as fh:
            rows = list(csv_mod.reader(fh))
        assert rows[0][0] == "run_id"
        assert len(rows) == 4
        assert float(rows[1][4]) == 0.9
        with open(tmp_path / "summary.json") as fh:
            assert json.load(fh)["methods"]["a"]["n_runs"] == 2


class TestDrivers:
    def test_small_gfunction_run(self):
        cfg = GFunctionBenchConfig(
            n_designs=2, design_size=15, test_size=200, lhs_steps=100,
            rlm_iterations=2, ulm_max_evals=300, rlm_max_evals_inner=60,
        )
        rep = run_gfunction_benchmark(cfg)
        assert rep.failures == []
        assert len(rep.records) == 2 * 3
        for method in cfg.methods:
            for r in rep.by_method(method):
                assert -1.0 < r.q2 <= 1.0
                assert r.n_calls_total > 0
                assert r.run_id in rep.traces
        # Even tiny fits should beat the mean predictor on the g-function.
        assert rep.q2_stats("rlm-additive")[0] > 0.0

    def test_gfunction_deterministic(self):
        cfg = GFunctionBenchConfig(
            n_designs=1, design_size=12, test_size=100, lhs_steps=50,
            rlm_iterations=1, ulm_max_evals=150, rlm_max_evals_inner=40,
            methods=("rlm-additive",),
        )
        a = run_gfunction_benchmark(cfg)
        b = run_gfunction_benchmark(cfg)
        assert [r.l_final for r in a.records] == [r.l_final for r in b.records]
        assert [r.q2 for r in a.records] == [r.q2 for r in b.records]

    def test_small_paths_run(self):
        cfg = PathsBenchConfig(
            dims=(2,), n_paths=2, points_per_dim=6, lhs_steps=100,
            rlm_iterations=2, ulm_max_evals=300, rlm_max_evals_inner=60,
        )
        rep = run_paths_benchmark(cfg)
        assert rep.failures == []
        assert len(rep.records) == 2 * 2
        assert {r.method for r in rep.records} == {"ulm-additive", "rlm-additive"}
        for r in rep.records:
            assert np.isnan(r.q2)
            assert np.isfinite(r.l_final)


# Fields of the wrong type: each config converts its fields to the types of their defaults when it
# is built, so a Python caller gets the CLI's refusals as ValueError.
WRONG_TYPES = [
    (PathsBenchConfig, {"n_paths": 2.5}),
    (PathsBenchConfig, {"dims": 3}),
    (PathsBenchConfig, {"true_variance": True}),
    (PathsBenchConfig, {"family": ["gaussian"]}),
    (GFunctionBenchConfig, {"a": (1.0, True)}),
    (GFunctionBenchConfig, {"lhs_steps": 10.5}),
    (GFunctionBenchConfig, {"n_designs": "2"}),
    (GFunctionBenchConfig, {"a": ("1.5",)}),
]


class TestConfigTypes:
    @pytest.mark.parametrize("cls, kwargs", WRONG_TYPES)
    def test_wrong_type_is_refused(self, cls, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"^{name} must be "):
            cls(**kwargs)

    def test_messages_name_the_field_and_its_type(self):
        with pytest.raises(ValueError, match=r"^n_paths must be an integer, got 1\.5$"):
            PathsBenchConfig(n_paths=1.5)
        with pytest.raises(ValueError, match=r"^dims must be like \[3, 6\], got 'ab'$"):
            PathsBenchConfig(dims="ab")

    def test_fields_are_stored_as_their_defaults_types(self):
        cfg = PathsBenchConfig(dims=(2.0,), n_paths=np.int64(3), true_variance=np.float32(0.5))
        assert cfg.dims == (2,) and type(cfg.dims[0]) is int
        assert type(cfg.n_paths) is int and type(cfg.true_variance) is float
        g = GFunctionBenchConfig(a=np.array([1.0, 2.5]), methods=["rlm-additive"])
        assert g.a == (1.0, 2.5) and all(type(v) is float for v in g.a)
        assert g.methods == ("rlm-additive",)

    def test_replace_keeps_the_converted_values(self):
        # perfbench builds its warm-up and prefix configs with dataclasses.replace.
        cfg = replace(PathsBenchConfig(dims=[2.0], true_variance=2), n_paths=1)
        assert cfg.dims == (2,) and type(cfg.dims[0]) is int
        assert type(cfg.true_variance) is float and cfg.n_paths == 1
        g = replace(GFunctionBenchConfig(a=np.array([1.0, 2.0])), n_designs=1)
        assert g.a == (1.0, 2.0) and type(g.a) is tuple
