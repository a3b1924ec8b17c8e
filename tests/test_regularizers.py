import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clotkit.regularizers import (Partition, PenaltyKind, RegularizerSpec, penalty_gauge_at_zero, penalty_value,
                                  prox, sparsity_index, subdiff_distance)
from clotkit.solvers import lambda_zero_threshold

from oracles import prox_objective, prox_oracle, sparsity_index_ref

CLOT_HALF = RegularizerSpec.clot(0.5)
SGL_HALF = RegularizerSpec.sparse_group_lasso(0.5, Partition.contiguous([2, 1]))
FAMILY = (RegularizerSpec.lasso(), RegularizerSpec.ridge(), RegularizerSpec.elastic_net(0.5), CLOT_HALF,
          RegularizerSpec.group_lasso(Partition.contiguous([1, 1])),
          RegularizerSpec.sparse_group_lasso(0.5, Partition.contiguous([1, 1])))


class TestPartition:
    def test_valid(self):
        p = Partition(((0, 1), (2,)), 3)
        assert p.g == 2
        assert p.labels.tolist() == [0, 0, 1]

    @pytest.mark.parametrize("groups,n", [
        (((0, 1),), 3),          # does not cover
        (((0, 1), (1, 2)), 3),   # overlap
        (((0,), ()), 1),         # empty group
        (((0, 5),), 2),          # out of range
        (((0,),), 0),            # no coordinates
    ])
    def test_invalid(self, groups, n):
        with pytest.raises(ValueError):
            Partition(groups, n)

    def test_contiguous_and_single(self):
        assert Partition.contiguous([2, 3]).groups == ((0, 1), (2, 3, 4))
        assert Partition.single(3).groups == ((0, 1, 2),)


class TestSpecValidation:
    def test_mu_range(self):
        with pytest.raises(ValueError):
            RegularizerSpec(PenaltyKind.EN, 1.2)
        with pytest.raises(ValueError):
            RegularizerSpec(PenaltyKind.CLOT, -0.1)

    def test_sgl_needs_partition(self):
        with pytest.raises(ValueError):
            RegularizerSpec(PenaltyKind.SGL, 0.5)

    def test_gl_forces_mu_one(self):
        spec = RegularizerSpec.group_lasso(Partition.single(2))
        assert spec.mu == 1.0

    def test_string_kind_coercion(self):
        assert RegularizerSpec("clot", 0.3).kind is PenaltyKind.CLOT
        assert RegularizerSpec("lasso") == RegularizerSpec.lasso()
        assert RegularizerSpec("ridge") == RegularizerSpec.ridge()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            penalty_value(SGL_HALF, np.ones(5))
        # every family function names the mismatch, the single-group fast path included
        v = np.array([3.0, -1.0, 0.5])
        for part in (Partition.contiguous([2, 2]), Partition.single(4)):
            for spec in (RegularizerSpec.group_lasso(part), RegularizerSpec.sparse_group_lasso(0.5, part)):
                for call in (penalty_value, lambda s, v: prox(s, v, 1.0), lambda s, v: subdiff_distance(s, v, v)):
                    with pytest.raises(ValueError, match="^vector has length 3 but the partition covers 4$"):
                        call(spec, v)


class TestPenaltyValue:
    def test_clot_three_four_five(self):
        assert penalty_value(CLOT_HALF, [3.0, 4.0]) == pytest.approx(6.0, abs=1e-12)

    @pytest.mark.parametrize("spec", [
        RegularizerSpec.lasso(), RegularizerSpec.ridge(), RegularizerSpec.elastic_net(0.3),
        CLOT_HALF, SGL_HALF, RegularizerSpec.group_lasso(Partition.contiguous([2, 1])),
    ])
    def test_zero_vector(self, spec):
        n = 3 if spec.partition is not None else 2
        assert penalty_value(spec, np.zeros(n)) == 0.0

    @pytest.mark.parametrize("spec", [RegularizerSpec.lasso(), RegularizerSpec.elastic_net(1.0)], ids=["lasso", "en1"])
    def test_zero_weight_skips_an_overflowing_sum(self, spec):
        assert penalty_value(spec, [1e200, -1e200]) == 2e200  # z @ z overflows, and b = 0 weighs it

    def test_sgl_example(self):
        # groups {0,1},{2}: 0.5*7 + 0.5*5 + 0.5*2 + 0.5*2 = 8
        assert penalty_value(SGL_HALF, [3.0, 4.0, -2.0]) == pytest.approx(8.0, abs=1e-12)

    def test_matches_reference_on_random(self, rng):
        part = Partition.contiguous([2, 3, 1])
        cases = [
            ("l1", 0.0, None), ("l2sq", 0.0, None), ("en", 0.37, None),
            ("clot", 0.61, None), ("gl", 1.0, part), ("sgl", 0.28, part),
        ]
        for kind, mu, partition in cases:
            spec = RegularizerSpec(kind, mu, partition)
            z = rng.standard_normal(6)
            groups = [list(g) for g in (partition.groups if partition else [range(6)])]
            ref = prox_objective(kind, spec.mu, groups, z.tolist(), z.tolist(), 1.0) - 0.0
            # reuse the reference penalty via objective with dist 0
            assert penalty_value(spec, z) == pytest.approx(ref, rel=1e-12)

    def test_positive_off_origin(self, rng):
        z = rng.standard_normal(4) + 0.1
        for spec in (RegularizerSpec.lasso(), CLOT_HALF, RegularizerSpec.elastic_net(0.5)):
            assert penalty_value(spec, z) > 0


class TestHomogeneityAndTriangle:
    @pytest.mark.parametrize("spec", [
        RegularizerSpec.lasso(), CLOT_HALF, SGL_HALF,
        RegularizerSpec.group_lasso(Partition.contiguous([2, 1])),
    ])
    def test_absolute_homogeneity(self, spec, rng):
        n = 3 if spec.partition is not None else 4
        z = rng.standard_normal(n)
        for c in (-3.5, -1.0, 0.0, 0.25, 2.0):
            assert penalty_value(spec, c * z) == pytest.approx(abs(c) * penalty_value(spec, z), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("spec", [RegularizerSpec.elastic_net(0.5), RegularizerSpec.ridge()])
    def test_en_ridge_not_homogeneous(self, spec):
        z = np.array([1.0, -2.0])
        assert penalty_value(spec, 2.0 * z) > 2.0 * penalty_value(spec, z) + 1e-6

    @pytest.mark.parametrize("spec", [
        RegularizerSpec.lasso(), CLOT_HALF, SGL_HALF,
        RegularizerSpec.group_lasso(Partition.contiguous([2, 1])),
    ])
    def test_triangle_inequality(self, spec, rng):
        n = 3 if spec.partition is not None else 5
        for _ in range(50):
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            lhs = penalty_value(spec, a + b)
            assert lhs <= penalty_value(spec, a) + penalty_value(spec, b) + 1e-9

    @given(mu=st.floats(0.0, 1.0), c=st.floats(-50.0, 50.0),
           z=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_clot_homogeneity_property(self, mu, c, z):
        spec = RegularizerSpec.clot(mu)
        left = penalty_value(spec, c * np.asarray(z))
        right = abs(c) * penalty_value(spec, np.asarray(z))
        assert left == pytest.approx(right, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("k", [-1000, -560, 560, 1000])
    @pytest.mark.parametrize("spec", [RegularizerSpec.clot(0.2),
                                      RegularizerSpec.group_lasso(Partition.contiguous([4] * 3)),
                                      RegularizerSpec.sparse_group_lasso(0.2, Partition.contiguous([4] * 3))],
                             ids=lambda spec: spec.label())
    def test_norm_penalties_scale_exactly_by_powers_of_two(self, spec, k):
        # at 2^k every sum of squares under- or overflows; scaling by a power of two is exact, and so is each answer
        rng, s = np.random.default_rng(1), 2.0**k
        v, t = rng.standard_normal(12), rng.standard_normal(12)
        A, y = rng.standard_normal((8, 12)), rng.standard_normal(8)
        assert penalty_value(spec, s * v) == s * penalty_value(spec, v)
        assert np.array_equal(prox(spec, s * v, s * 0.8), s * prox(spec, v, 0.8))  # zeros a group
        assert penalty_gauge_at_zero(spec, s * v) == s * penalty_gauge_at_zero(spec, v)
        assert lambda_zero_threshold(spec, A, s * y) == s * lambda_zero_threshold(spec, A, y)
        for x in (np.where(np.arange(12) // 4 == 1, 0.0, v), np.zeros(12)):  # a zero group, and zero
            assert subdiff_distance(spec, s * x, s * t, s * 0.7) == s * subdiff_distance(spec, x, t, 0.7)


class TestProx:
    def test_rejects_nonpositive_step(self):
        # an infinite step made step*c = inf*0 = nan, which ran the group shrink on every kind
        for spec in FAMILY:
            for step in (0.0, -1.0, math.inf, math.nan):
                with pytest.raises(ValueError, match="step"):
                    prox(spec, np.ones(2), step)

    def test_l1_soft_threshold(self):
        out = prox(RegularizerSpec.lasso(), np.array([1.0, -0.2]), 0.3)
        np.testing.assert_allclose(out, [0.7, 0.0], atol=1e-15)

    def test_clot_example_against_oracle(self):
        v = [3.0, 4.0]
        out = prox(CLOT_HALF, np.array(v), 1.0)
        # threshold then Euclidean shrink
        np.testing.assert_allclose(out, [2.2093809, 3.0931333], atol=1e-6)
        _, obj_star = prox_oracle("clot", 0.5, [[0, 1]], v, 1.0)
        obj = prox_objective("clot", 0.5, [[0, 1]], out.tolist(), v, 1.0)
        assert abs(obj - obj_star) <= 1e-6

    @pytest.mark.parametrize("spec", [
        RegularizerSpec.lasso(), RegularizerSpec.ridge(), RegularizerSpec.elastic_net(0.4),
        CLOT_HALF, SGL_HALF,
    ])
    def test_zero_input_maps_to_zero(self, spec):
        n = 3 if spec.partition is not None else 2
        np.testing.assert_array_equal(prox(spec, np.zeros(n), 0.7), np.zeros(n))

    def test_prox_beats_random_perturbations(self, rng):
        spec = CLOT_HALF
        v = rng.standard_normal(4) * 2
        step = 0.8
        z = prox(spec, v, step)
        base = step * penalty_value(spec, z) + 0.5 * np.sum((z - v) ** 2)
        for scale in (1e-4, 1e-2, 0.5):
            pert = z[None, :] + scale * rng.standard_normal((10_000, 4))
            objs = step * ((1 - spec.mu) * np.sum(np.abs(pert), axis=1)
                           + spec.mu * np.linalg.norm(pert, axis=1)) \
                + 0.5 * np.sum((pert - v[None, :]) ** 2, axis=1)
            assert base <= objs.min() + 1e-12

    def test_prox_subgradient_residual(self, rng):
        part = Partition.contiguous([2, 2])
        for kind, mu, partition in (("l1", 0.0, None), ("en", 0.3, None), ("clot", 0.6, None),
                                    ("sgl", 0.45, part), ("gl", 1.0, part)):
            spec = RegularizerSpec(kind, mu, partition)
            for _ in range(20):
                v = rng.standard_normal(4) * 3
                step = float(rng.uniform(0.05, 2.0))
                z = prox(spec, v, step)
                assert subdiff_distance(spec, z, v - z, step) <= 1e-8

    @given(mu=st.floats(0.0, 1.0),
           v=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4),
           step=st.floats(0.01, 3.0))
    @settings(max_examples=100, deadline=None)
    @example(mu=5e-324, v=[0.0], step=0.5)  # step*mu underflows to zero
    def test_clot_prox_optimality_property(self, mu, v, step):
        spec = RegularizerSpec.clot(mu)
        v = np.asarray(v)
        z = prox(spec, v, step)
        assert subdiff_distance(spec, z, v - z, step) <= 1e-8


class TestReductions:
    def test_clot_mu0_is_l1(self, rng):
        v = rng.standard_normal(5)
        a, b = RegularizerSpec.clot(0.0), RegularizerSpec.lasso()
        assert penalty_value(a, v) == pytest.approx(penalty_value(b, v), abs=1e-14)
        np.testing.assert_allclose(prox(a, v, 0.4), prox(b, v, 0.4), atol=1e-14)

    def test_clot_mu1_is_l2(self, rng):
        v = rng.standard_normal(5)
        spec = RegularizerSpec.clot(1.0)
        assert penalty_value(spec, v) == pytest.approx(np.linalg.norm(v), abs=1e-14)
        # Euclidean-norm prox is the block shrink
        nrm = np.linalg.norm(v)
        expect = v * max(1 - 0.4 / nrm, 0.0)
        np.testing.assert_allclose(prox(spec, v, 0.4), expect, atol=1e-14)

    def test_sgl_single_group_is_clot(self, rng):
        v = rng.standard_normal(4)
        sgl = RegularizerSpec.sparse_group_lasso(0.37, Partition.single(4))
        clot = RegularizerSpec.clot(0.37)
        assert penalty_value(sgl, v) == pytest.approx(penalty_value(clot, v), abs=1e-14)
        np.testing.assert_allclose(prox(sgl, v, 0.9), prox(clot, v, 0.9), atol=1e-14)

    def test_partition_refused_without_group_penalty(self):
        part = Partition.contiguous([2, 1])
        for kind in ("clot", "l1", "l2sq", "en"):
            with pytest.raises(ValueError, match="sgl"):
                RegularizerSpec(kind, 0.5, part)

    def test_sgl_mu0_is_l1(self, rng):
        v = rng.standard_normal(4)
        sgl = RegularizerSpec.sparse_group_lasso(0.0, Partition.contiguous([2, 2]))
        assert penalty_value(sgl, v) == pytest.approx(np.sum(np.abs(v)), abs=1e-14)
        np.testing.assert_allclose(prox(sgl, v, 0.3), prox(RegularizerSpec.lasso(), v, 0.3), atol=1e-14)

    def test_sgl_mu1_is_gl(self, rng):
        v = rng.standard_normal(4)
        part = Partition.contiguous([3, 1])
        sgl = RegularizerSpec.sparse_group_lasso(1.0, part)
        gl = RegularizerSpec.group_lasso(part)
        assert penalty_value(sgl, v) == pytest.approx(penalty_value(gl, v), abs=1e-14)
        np.testing.assert_allclose(prox(sgl, v, 0.5), prox(gl, v, 0.5), atol=1e-14)


class TestSubdiffDistanceMeasure:
    """At the origin the certificate is the max-norm gap per coordinate when
    there is no group term, and the Euclidean gap per zero group otherwise."""

    def test_separable_kinds_use_coordinate_max_norm(self, rng):
        t = rng.standard_normal(6) * 2
        w = 0.7
        for spec, thr in ((RegularizerSpec.lasso(), w), (RegularizerSpec.elastic_net(0.3), 0.3 * w),
                          (RegularizerSpec.ridge(), 0.0)):
            expect = np.max(np.maximum(np.abs(t) - thr, 0.0))
            assert subdiff_distance(spec, np.zeros(6), t, w) == pytest.approx(expect, rel=1e-14)

    def test_grouped_kinds_use_euclidean_gap_per_zero_group(self, rng):
        part = Partition(((0, 3), (1, 4, 5), (2,)), 6)
        w = 0.7
        for spec, groups in ((RegularizerSpec.clot(0.4), [list(range(6))]),
                             (RegularizerSpec.group_lasso(part), part.groups),
                             (RegularizerSpec.sparse_group_lasso(0.25, part), part.groups)):
            t = rng.standard_normal(6) * 3
            l1_thr, l2_thr = w * (1.0 - spec.mu), w * spec.mu
            soft = np.sign(t) * np.maximum(np.abs(t) - l1_thr, 0.0)
            expect = max(max(np.sqrt(np.sum(soft[list(g)] ** 2)) - l2_thr, 0.0) for g in groups)
            assert expect > 0.0
            assert subdiff_distance(spec, np.zeros(6), t, w) == pytest.approx(expect, rel=1e-14)


    def test_shapes_are_checked(self):
        with pytest.raises(ValueError, match="same shape"):
            subdiff_distance(CLOT_HALF, np.zeros(3), np.zeros(4))
        for spec in FAMILY:
            if spec.partition is None:  # a partition covers at least one coordinate
                assert subdiff_distance(spec, np.zeros(0), np.zeros(0)) == 0.0

    def test_rejects_a_weight_that_is_not_positive_and_finite(self):
        # a negative weight gave a distance (4.0 here) and NaN gave NaN, which fails every tolerance silently
        t = np.array([3.0, -1.0, 0.5])
        for weight in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="weight"):
                subdiff_distance(RegularizerSpec.lasso(), np.zeros(3), t, weight)


def gauges_by_bisection(cases, steps=64):
    """Reference gauges of ``(spec, v)`` pairs, CLOT or SGL.  Per group, the smallest s at
    which the soft threshold of ``|v_g|/s`` at ``a = 1 - mu`` has Euclidean norm at most
    ``c = mu``, by bisection in log scale from ``max|v_g|/(a + c)`` (outside or on the ball)
    to ``max|v_g|/a`` (inside); a pair's gauge is the largest of its groups'.  The groups of
    all pairs bisect together."""
    labels, u, a, c, owner = [], [], [], [], []
    for i, (spec, v) in enumerate(cases):
        lab = np.zeros(v.size, np.intp) if spec.partition is None else spec.partition.labels
        labels.append(lab + len(owner))
        u.append(np.abs(v))
        g = int(lab.max()) + 1
        a, c, owner = a + [1.0 - spec.mu] * g, c + [spec.mu] * g, owner + [i] * g
    labels, u, a, c = np.concatenate(labels), np.concatenate(u), np.array(a), np.array(c)
    top = np.zeros(len(owner))
    np.maximum.at(top, labels, u)
    lo, hi = np.where(top > 0, top, 1.0) / (a + c), np.where(top > 0, top, 1.0) / a
    for _ in range(steps):
        mid = np.sqrt(lo * hi)
        norm2 = np.bincount(labels, np.maximum(u / mid[labels] - a[labels], 0.0) ** 2, len(owner))
        lo, hi = np.where(norm2 <= c * c, lo, mid), np.where(norm2 <= c * c, mid, hi)
    gauges = np.zeros(len(cases))
    np.maximum.at(gauges, owner, np.where(top > 0, hi, 0.0))
    return gauges


class TestGaugeAtZero:
    """With both an l1 and a group term the gauge is solved in closed form per group;
    the bisection it replaced is kept here as its reference."""

    def test_matches_bisection_on_random_draws(self):
        rng = np.random.default_rng(2016)
        cases = []
        for draw in range(2000):
            n = int(rng.integers(1, 41))
            v = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)  # six decades
            v[rng.random(n) < 0.2] = 0.0
            v[int(rng.integers(n))] = 10.0 ** rng.uniform(-3.0, 3.0)
            if draw % 4 < 2:  # a cluster within 1e-13..1e-7 of the largest, where cancellation would show
                near = rng.random(n) < 0.5
                v[near] = np.sign(v[near]) * np.max(np.abs(v)) * (1.0 - 10.0 ** rng.uniform(-13, -7) * rng.random())
            # mu uniform, or within 1e-9..1e-1 of either end
            mu = (float(rng.uniform()), float(10.0 ** rng.uniform(-9, -1)),
                  1.0 - float(10.0 ** rng.uniform(-9, -1)))[draw % 3]
            if draw % 2:
                spec = RegularizerSpec.clot(mu)
            else:
                g = int(rng.integers(1, n + 1))  # every group nonempty, labels shuffled
                labels = rng.permutation(np.r_[np.arange(g), rng.integers(0, g, n - g)])
                groups = tuple(tuple(np.flatnonzero(labels == k)) for k in range(g))
                spec = RegularizerSpec.sparse_group_lasso(mu, Partition(groups, n))
            cases.append((spec, v))
        ref = gauges_by_bisection(cases)
        rel = np.abs([penalty_gauge_at_zero(spec, v) for spec, v in cases] - ref) / ref
        print(f"  worst relative gap over 2000 draws: {rel.max():.3g}")
        assert rel.max() <= 1e-12, cases[int(np.argmax(rel))]

    @pytest.mark.parametrize("spec,v,exact", [
        (RegularizerSpec.clot(0.3), np.array([0.0, 0.0, -3e4, 0.0]), 3e4),  # one nonzero entry: |v|/(a + c)
        (RegularizerSpec.clot(0.3), np.array([2.5, -2.5, 2.5, 2.5, -2.5, 2.5]),
         2.5 / (0.7 + 0.3 / math.sqrt(6))),  # ties: all six active, 6 (2.5 - a s)^2 = c^2 s^2
        (RegularizerSpec.sparse_group_lasso(0.3, Partition(((1, 4, 6), (0, 2, 3, 5)), 7)),
         np.array([0.0, 1.0, 0.0, 0.0, -2.0, 0.0, 0.5]), None),  # an all-zero group beside a nonzero one
        (RegularizerSpec.clot(1e-12), np.array([1.0, -1.0, 1.0 - 1e-13, 0.3, 4e-3]), None),
        (RegularizerSpec.clot(1.0 - 1e-12), np.array([1.0, -1e-6, 3.0, 0.0, 2e3]), None),
    ], ids=["one_nonzero", "ties", "zero_group", "mu_near_0", "mu_near_1"])
    def test_edge_cases(self, spec, v, exact):
        gauge = penalty_gauge_at_zero(spec, v)
        assert gauge == pytest.approx(gauges_by_bisection([(spec, v)])[0], rel=1e-12, abs=0)
        if exact is not None:
            assert gauge == pytest.approx(exact, rel=1e-14, abs=0)
        if spec.partition is not None:  # the zero group adds nothing: the gauge is the other group's
            assert gauge == pytest.approx(penalty_gauge_at_zero(RegularizerSpec.clot(spec.mu), v), rel=1e-15)

    def test_partition_size_is_checked(self):
        spec, v = RegularizerSpec.sparse_group_lasso(0.5, Partition.contiguous([2, 2])), np.array([3.0, -1.0, 0.5])
        with pytest.raises(ValueError, match="^vector has length 3 but the partition covers 4$"):
            penalty_gauge_at_zero(spec, v)
        with pytest.raises(ValueError, match="^vector has length 3 but the partition covers 4$"):
            lambda_zero_threshold(spec, np.eye(3), v)


class TestSparsityIndex:
    def test_drop_two_largest(self):
        assert sparsity_index([5.0, -3.0, 1.0], 2, "l1") == pytest.approx(1.0, abs=1e-15)

    def test_k_sparse_gives_zero(self):
        x = np.array([0.0, 2.0, 0.0, -1.0])
        assert sparsity_index(x, 2, "l1") == 0.0
        assert sparsity_index(x, 2, "l2") == 0.0

    def test_ties_l2(self):
        assert sparsity_index([2.0, 2.0, 2.0, 2.0], 2, "l2") == pytest.approx(math.sqrt(8.0), abs=1e-12)

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(20):
            x = rng.standard_normal(7)
            k = int(rng.integers(0, 8))
            for norm in ("l1", "l2"):
                assert sparsity_index(x, k, norm) == pytest.approx(
                    sparsity_index_ref(x.tolist(), k, norm), abs=1e-12)

    def test_monotone_in_k_and_zero_at_l0(self, rng):
        x = rng.standard_normal(6)
        x[rng.integers(0, 6)] = 0.0
        vals = [sparsity_index(x, k, "l1") for k in range(7)]
        assert all(vals[i] >= vals[i + 1] - 1e-15 for i in range(6))
        l0 = int(np.sum(x != 0))
        assert vals[l0] == pytest.approx(0.0, abs=1e-15)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            sparsity_index([1.0], 2)
        with pytest.raises(ValueError):
            sparsity_index([1.0], -1)

    @pytest.mark.parametrize("k", [2.7, -0.5, math.nan])
    def test_non_integral_k_is_refused(self, k):
        # 2.7 was answered as k=2 and -0.5 as k=0
        with pytest.raises(ValueError, match="not an integer"):
            sparsity_index([3.0, -2.0, 1.0], k)

    def test_unknown_norm(self):
        with pytest.raises(ValueError, match="unknown norm 'l3'"):
            sparsity_index([1.0, 2.0], 1, norm="l3")
