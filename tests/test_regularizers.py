import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clotkit.regularizers import (Partition, PenaltyKind, RegularizerSpec, penalty_value, prox,
                                  sparsity_index, subdiff_distance)

from oracles import prox_objective, prox_oracle, sparsity_index_ref

CLOT_HALF = RegularizerSpec.clot(0.5)
SGL_HALF = RegularizerSpec.sparse_group_lasso(0.5, Partition.contiguous([2, 1]))


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


class TestProx:
    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            prox(RegularizerSpec.lasso(), np.ones(2), 0.0)

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
        assert subdiff_distance(CLOT_HALF, np.zeros(0), np.zeros(0)) == 0.0


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

    def test_unknown_norm(self):
        with pytest.raises(ValueError, match="unknown norm 'l3'"):
            sparsity_index([1.0, 2.0], 1, norm="l3")
