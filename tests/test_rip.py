import math
from decimal import Decimal, getcontext
from itertools import combinations, islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clotkit import rip
from clotkit.matrices import DeVoreParams, devore_matrix, fixture_matrix
from clotkit.rip import certificate, delta_bound_from_mu, error_bounds, exact_rip, rnsp_check
from oracles import rip_ref


def chain_decimal(t, k, delta, g, mu):
    """Recompute the certificate chain in 50-digit decimal arithmetic."""
    getcontext().prec = 50
    t, delta, mu, g = Decimal(t), Decimal(delta), Decimal(mu), Decimal(g)
    nu = (t * (t - 1)).sqrt() - (t - 1)
    a = (nu * (1 - nu) - delta * (Decimal("0.5") - nu + nu * nu)).sqrt()
    b = nu * (1 - nu) * (1 + delta).sqrt()
    c = (delta * nu * nu / (2 * (t - 1))).sqrt()
    rho = c / a
    tau = b * Decimal(k).sqrt() / (a * a)
    gamma = mu * g.sqrt() / (1 - mu)
    det = (1 - gamma) - (1 + gamma) * rho
    big_c = 2 * (1 + rho) / det
    big_d = 4 * tau / det
    return {k2: float(v) for k2, v in
            dict(nu=nu, a=a, b=b, c=c, rho=rho, tau=tau, gamma=gamma,
                 det=det, c_sigma=big_c, c_eps=big_d).items()}


class TestCertificate:
    def test_published_point(self):
        cert = certificate(1.5, 3, 0.4, g=1, mu=0.2)
        assert cert.rho == pytest.approx(0.6551, abs=5e-5)
        assert cert.mu_max == pytest.approx(0.2084, abs=5e-5)

    def test_nu_value(self):
        cert = certificate(1.5, 1, 0.1)
        assert cert.nu == pytest.approx(math.sqrt(0.75) - 0.5, abs=1e-12)

    def test_invalid_above_delta_limit(self):
        cert = certificate(1.5, 3, math.sqrt(1.0 / 3.0) + 1e-9)
        assert not cert.valid
        assert "sqrt((t-1)/t)" in cert.reason

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            certificate(1.2, 3, 0.4)
        with pytest.raises(ValueError):
            certificate(1.5, 0, 0.4)
        with pytest.raises(ValueError):
            certificate(1.5, 3, 1.0)
        with pytest.raises(ValueError):
            certificate(1.5, 3, 0.4, mu=1.0)
        with pytest.raises(ValueError, match="g must be at least 1"):
            certificate(1.5, 3, 0.4, g=0)
        for t in (math.nan, math.inf):  # nan gave valid=False with "rho = inf"
            with pytest.raises(ValueError, match="t must be finite"):
                certificate(t, 2, 0.3)
            with pytest.raises(ValueError, match="t must be finite"):  # was nan
                delta_bound_from_mu(t, 0.1)

    def test_non_integral_g_is_refused(self):
        # both answered as g=2 when g was truncated
        with pytest.raises(ValueError, match=r"g must be .* an integer, got 2\.5"):
            certificate(1.5, 2, 0.3, g=2.5)
        with pytest.raises(ValueError, match=r"g must be .* an integer, got 2\.5"):
            delta_bound_from_mu(1.5, 0.3, 2.5)
        assert certificate(1.5, 2, 0.3, g=2.0) == certificate(1.5, 2, 0.3, g=2)

    def test_no_null_space_constant_when_a_squared_is_not_positive(self):
        cert = certificate(4.0 / 3.0, 1, 0.9)
        assert math.isinf(cert.rho) and math.isinf(cert.tau) and cert.a == 0.0
        assert not cert.valid

    def test_chain_against_decimal_oracle(self):
        for (t, k, delta, g, mu) in [(2.0, 1, 0.4, 1, 0.2), (1.5, 3, 0.2, 2, 0.05),
                                     (4.0, 5, 0.5, 1, 0.1)]:
            ref = chain_decimal(t, k, delta, g, mu)
            cert = certificate(t, k, delta, g, mu)
            for name in ("nu", "a", "b", "c", "rho", "tau", "gamma"):
                assert getattr(cert, name) == pytest.approx(ref[name], rel=1e-12), name
            if ref["det"] > 0:
                assert cert.valid
                assert cert.c_sigma == pytest.approx(ref["c_sigma"], rel=1e-12)
                assert cert.c_eps == pytest.approx(ref["c_eps"], rel=1e-12)
                assert cert.c_sigma > 0 and cert.c_eps > 0

    def test_mu_above_formula_bound_invalid(self):
        cert = certificate(1.5, 3, 0.4, g=1, mu=0.25)  # above 0.2084
        assert not cert.valid

    def test_denominator_guard(self):
        # inside the mu_max bound but with a nonpositive bound denominator
        cert = certificate(1.5, 3, 0.4, g=1, mu=0.2)
        assert not cert.valid
        assert "denominator" in cert.reason
        assert math.isnan(cert.c_sigma) and math.isnan(cert.c_eps)

    def test_rho_monotone_in_delta(self):
        rhos = [certificate(1.5, 2, d).rho for d in np.linspace(0.01, 0.55, 12)]
        assert all(r1 < r2 for r1, r2 in zip(rhos, rhos[1:]))
        assert all(0 < r < 1 for r in rhos)

    def test_nu_in_open_interval(self):
        for t in (4.0 / 3.0, 1.5, 2.0, 10.0, 1000.0):
            nu = certificate(t, 1, 0.1).nu
            assert 0.0 < nu < 0.5

    def test_mu_max_scales_as_inverse_sqrt_g(self):
        base = certificate(2.0, 1, 0.3, g=1, mu=0.0)
        for g in (2, 4, 9, 16):
            cert = certificate(2.0, 1, 0.3, g=g, mu=0.0)
            assert cert.mu_max == pytest.approx(base.mu_max / math.sqrt(g), rel=1e-12)

    def test_to_dict_round_trips_fields(self):
        d = certificate(2.0, 2, 0.3, 1, 0.1).to_dict()
        assert d["valid"] and d["rho"] == certificate(2.0, 2, 0.3, 1, 0.1).rho


class TestErrorBounds:
    def test_zero_inputs_give_zero(self):
        cert = certificate(2.0, 2, 0.3, 1, 0.1)
        assert error_bounds(cert, 0.0, 0.0) == (0.0, 0.0)

    def test_p1_limit_consistency(self):
        cert = certificate(2.0, 3, 0.3, 1, 0.1)
        l1, lp1 = error_bounds(cert, 0.5, 0.2, p=1.0)
        expect = (1 + cert.rho) * cert.c_sigma * 0.5 + ((1 + cert.rho) * cert.c_eps + 2 * cert.tau) * 0.2
        assert lp1 == pytest.approx(expect, rel=1e-12)
        assert lp1 >= l1

    def test_noise_only_bound_matches_decimal_chain(self):
        t, k, delta, g, mu = 2.0, 3, 0.4, 1, 0.2
        ref = chain_decimal(t, k, delta, g, mu)
        cert = certificate(t, k, delta, g, mu)
        assert cert.valid
        l1, _ = error_bounds(cert, 0.0, 0.01)
        assert l1 == pytest.approx(ref["c_eps"] * 0.01, rel=1e-12)

    def test_requires_valid_certificate(self):
        cert = certificate(1.5, 3, 0.4, 1, 0.2)
        with pytest.raises(ValueError):
            error_bounds(cert, 0.0, 0.1)

    def test_p_range_enforced(self):
        cert = certificate(2.0, 2, 0.3, 1, 0.1)
        with pytest.raises(ValueError):
            error_bounds(cert, 0.0, 0.1, p=2.5)

    def test_negative_inputs_refused(self):
        cert = certificate(2.0, 2, 0.3, 1, 0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            error_bounds(cert, -0.1, 0.1)
        for bad in (math.nan, math.inf):  # nan gave (nan, nan)
            with pytest.raises(ValueError, match="finite"):
                error_bounds(cert, bad, 0.1)
            with pytest.raises(ValueError, match="finite"):
                error_bounds(cert, 0.1, bad)


class TestDeltaBoundFromMu:
    def test_theta_ranges(self):
        for t in (4.0 / 3.0, 1.5, 2.0, 4.0):
            nu = math.sqrt(t * (t - 1)) - (t - 1)
            theta1 = nu * (1 - nu)
            theta2 = 0.5 - theta1
            assert 0.0 < theta1 < 0.25
            assert 0.25 < theta2 < 0.5

    def test_mu_zero_degenerates_to_l1_threshold(self):
        for t in (1.5, 2.0, 4.0):
            assert delta_bound_from_mu(t, 0.0) == pytest.approx(math.sqrt((t - 1) / t), rel=1e-12)

    def test_zero_when_gamma_reaches_one(self):
        # gamma = 0.6/0.4 = 1.5 >= 1, so no delta is admissible
        assert delta_bound_from_mu(2.0, 0.6) == 0.0

    def test_small_mu_limit(self):
        for t in (1.5, 2.0):
            nu = math.sqrt(t * (t - 1)) - (t - 1)
            theta1 = nu * (1 - nu)
            theta2 = 0.5 - theta1
            theta3 = nu * nu / (2 * (t - 1))
            limit = theta1 / (theta3 + theta2)
            assert delta_bound_from_mu(t, 1e-12) == pytest.approx(limit, rel=1e-9)
            # and that limit is the plain l1 threshold
            assert limit == pytest.approx(math.sqrt((t - 1) / t), rel=1e-12)

    @pytest.mark.parametrize("t,mu,g", [(1.5, 0.2, 1), (2.0, 0.1, 1), (2.0, 0.05, 4), (4.0, 0.3, 1)])
    def test_round_trip_with_certificate(self, t, mu, g):
        thr = delta_bound_from_mu(t, mu, g)
        assert 0.0 < thr < 1.0
        assert certificate(t, 2, thr - 1e-6, g, mu).valid
        assert not certificate(t, 2, thr + 1e-6, g, mu).valid

    def test_round_trip_binary_search(self):
        # locate the validity boundary by bisection and compare to the formula
        t, mu, g = 1.5, 0.2, 1
        lo, hi = 0.0, 0.999
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if certificate(t, 2, mid, g, mu).valid:
                lo = mid
            else:
                hi = mid
        assert delta_bound_from_mu(t, mu, g) == pytest.approx(0.5 * (lo + hi), abs=1e-9)


class TestExactRip:
    def test_identity_is_zero(self):
        for k in (1, 2, 4):
            est = exact_rip(np.eye(4), k)
            assert est.delta_k == 0.0

    def test_duplicated_column_pair(self):
        e1 = np.zeros(3)
        e1[0] = 1.0
        A = np.column_stack([e1, e1])
        est = exact_rip(A, 2)
        assert est.delta_k == pytest.approx(1.0, abs=1e-12)
        assert est.argmax_support == (0, 1)

    def test_devore_5_2_coherence_bound(self, devore_5_2):
        est = exact_rip(devore_5_2, 2)
        assert est.delta_k <= 0.4 + 1e-12
        assert est.delta_k == pytest.approx(0.4, abs=1e-12)

    def test_monotone_in_k(self, gaussian_30_36):
        vals = [exact_rip(gaussian_30_36, k).delta_k for k in (1, 2, 3)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_argmax_support_attains_value(self, gaussian_30_36):
        est = exact_rip(gaussian_30_36, 2)
        sub = gaussian_30_36[:, list(est.argmax_support)]
        evals = np.linalg.eigvalsh(sub.T @ sub)
        attained = max(evals[-1] - 1.0, 1.0 - evals[0])
        assert attained == pytest.approx(est.delta_k, rel=1e-12)

    def test_guard_refuses_large_enumerations(self, monkeypatch):
        monkeypatch.setattr(rip, "_SUBSET_GUARD", 1000)
        A = np.ones((2, 60))
        with pytest.raises(ValueError, match="supports"):
            exact_rip(A, 10)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            exact_rip(np.eye(3), 4)

    def test_non_integral_k_is_refused(self):
        with pytest.raises(ValueError, match=r"k=2\.7"):
            exact_rip(np.eye(4), 2.7)
        with pytest.raises(ValueError, match=r"k=2\.7"):  # certificate(1.5, 2.7, 0.4).k was 2
            certificate(1.5, 2.7, 0.4)

    def test_non_matrix_is_refused(self):
        with pytest.raises(ValueError, match=r"2-D, got shape \(3,\)"):
            exact_rip(np.ones(3), 1)

    def test_integral_numpy_k_is_accepted(self):
        assert exact_rip(np.eye(4), np.int64(2)) == exact_rip(np.eye(4), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_is_refused(self, bad):
        A = np.eye(3)
        A[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            exact_rip(A, 2)
        with pytest.raises(ValueError, match="non-finite"):  # NaN was reported ok, margin inf
            rnsp_check(A, 1, rho=0.5, tau=1.0, trials=30)

    @pytest.mark.parametrize("k", [2, 3])
    def test_overflowing_gram_matrix_is_refused(self, k):
        # finite entries whose column norms overflow: once reported as delta_2 = 0 with no support
        A = np.array([[1e200, 1e200, 0.0], [1e200, -1e200, 1.0], [0.0, 1.0, 1.0]])
        with pytest.raises(ValueError, match="Gram matrix"):
            exact_rip(A, k)


def _devore_rows_permuted():
    A = devore_matrix(DeVoreParams(5, 2), normalize=True)
    return A[np.random.default_rng(3).permutation(A.shape[0])]


def _uneven_binary():
    """Every 0/1 column of length 6 with one or two ones: column weights 1 and 2."""
    cols = [np.isin(np.arange(6), s).astype(float)
            for size in (1, 2) for s in combinations(range(6), size)]
    return np.column_stack(cols)


def _duplicated_pair():
    return np.column_stack([np.eye(3)[:, 0]] * 2)


def _gaussian():
    return fixture_matrix("gaussian", 30, 36, seed=1)


def _gaussian_permuted():
    return _gaussian()[:, np.random.default_rng(5).permutation(36)]


def _gaussian_duplicated():
    """Column 20 copied over column 29: supports that swap one copy for the
    other tie exactly, and the copies' own pair is the maximum at k=2."""
    A = _gaussian()
    A[:, 29] = A[:, 20]
    return A


def _near_tie():
    """Unit columns with Gram matrix I + symmetric noise of at most 0.01, except G[0, 1] = 0.5 and
    G[3, 4] = 0.505: at k = 2 each prefix's ceiling is its own largest deviation, exactly, so in runs of
    one prefix the later maximum, 0.005 above the first run's, is kept only by a ceiling compared with
    the best itself."""
    noise = np.triu(np.random.default_rng(0).uniform(-0.01, 0.01, (13, 13)), 1)
    G = np.eye(13) + noise + noise.T
    G[0, 1] = G[1, 0] = 0.5
    G[3, 4] = G[4, 3] = 0.505
    return np.linalg.cholesky(G).T


def _gaussian_triplicated():
    """Column 20 copied over columns 7 and 29: three exactly tied maxima at k=2."""
    A = _gaussian_duplicated()
    A[:, 7] = A[:, 20]
    return A


# patterned is None at k = 1, which takes neither route: delta_1 is max |G_ii - 1| in closed form
@pytest.mark.parametrize("make, k, patterned", [
    (_devore_rows_permuted, 1, None), (_devore_rows_permuted, 2, True),
    (_devore_rows_permuted, 3, True),
    (lambda: devore_matrix(DeVoreParams(5, 2), normalize=False), 2, True),
    (_uneven_binary, 1, None), (_uneven_binary, 2, True), (_uneven_binary, 3, True),
    (_duplicated_pair, 1, None), (_duplicated_pair, 2, True),
    (_gaussian, 2, False), (_gaussian, 3, False),
    (_gaussian, 1, None), (_gaussian, 4, False), (_gaussian_permuted, 3, False),
    (_gaussian_duplicated, 2, False), (_gaussian_duplicated, 3, False),
    (_gaussian_triplicated, 2, False), (_near_tie, 2, False),
], ids=["devore_k1", "devore_k2", "devore_k3", "devore_unnormalised_k2", "binary_k1",
        "binary_k2", "binary_k3", "duplicated_k1", "duplicated_k2", "gaussian_k2", "gaussian_k3",
        "gaussian_k1", "gaussian_k4", "gaussian_permuted_k3", "gaussian_duplicated_k2",
        "gaussian_duplicated_k3", "gaussian_triplicated_k2", "near_tie_k2"])
def test_exact_rip_matches_per_support_reference(make, k, patterned):
    A = make()
    if patterned is not None:
        assert (rip._pattern_route(A.T @ A, k, math.comb(A.shape[1], k)) is not None) == patterned
    delta, support = rip_ref(A, k)
    est = exact_rip(A, k)
    assert est.delta_k == pytest.approx(delta, abs=1e-12)
    assert est.argmax_support == support


@pytest.mark.parametrize("first", [None, 1, 3, 50])
@pytest.mark.parametrize("chunk", [1, 7, rip._CHUNK])
def test_enumeration_is_lexicographic(monkeypatch, chunk, first):
    monkeypatch.setattr(rip, "_CHUNK", chunk)
    longest = 0
    for n in range(1, 10):
        for k in range(1, n + 1):
            runs = list(rip._lex_runs(n, k, first))
            assert all(0 < len(run) <= max(1, chunk // n) for run in runs)
            assert all((run.max(axis=1, initial=-1) < n - 1).all() for run in runs)  # each extends
            supports = [rip._extend(run, n) for run in runs]
            np.testing.assert_array_equal(np.concatenate(supports), list(combinations(range(n), k)))
            longest = max(longest, *map(len, supports))
    assert chunk > 9 or longest > chunk  # one prefix alone outruns a small chunk


@pytest.mark.parametrize("make, k", [(_uneven_binary, 3), (_gaussian, 2), (_gaussian, 3),
                                     (_devore_rows_permuted, 3), (_gaussian, 4), (_near_tie, 2)],
                         ids=["binary", "gaussian", "gaussian_k3", "devore_k3", "gaussian_k4", "near_tie"])
def test_chunk_boundaries_do_not_change_the_answer(monkeypatch, make, k):
    A = make()
    whole = exact_rip(A, k)
    monkeypatch.setattr(rip, "_CHUNK", 7)
    assert math.comb(A.shape[1], k) > 7 * 10
    assert exact_rip(A, k) == whole


@pytest.mark.parametrize("make", [_uneven_binary, _devore_rows_permuted], ids=["binary", "devore"])
def test_pattern_route_solves_each_sub_gram_matrix_once(monkeypatch, make):
    A, k = make(), 3
    gram, n = A.T @ A, A.shape[1]
    supports = np.array(list(combinations(range(n), k)))
    subs = gram[supports[:, :, None], supports[:, None, :]]
    rows, cols = np.tril_indices(k)
    distinct = np.unique(subs[:, rows, cols], axis=0)
    sent = []

    def counted(subs):
        sent.append(subs)
        return deviations(subs)

    deviations = rip._deviations
    monkeypatch.setattr(rip, "_deviations", counted)
    route, _ = rip._pattern_route(gram, k, math.comb(n, k))
    assert len(sent) == 1  # every candidate code in one call, before the enumeration
    lower = sent[0][:, rows, cols]
    diag, below = np.unique(gram.diagonal()), np.unique(gram[np.tril_indices(n, -1)])
    assert len(lower) == diag.size ** k * below.size ** (rows.size - k) >= len(distinct)
    assert len(np.unique(lower, axis=0)) == len(lower)  # no matrix solved twice
    assert np.isin(lower[:, rows == cols], diag).all() and np.isin(lower[:, rows > cols], below).all()
    assert len(np.unique(np.concatenate([lower, distinct]), axis=0)) == len(lower)  # covers them all
    for prefixes in rip._lex_runs(n, k):
        route(prefixes, -np.inf)
    assert len(sent) == 1  # none during it


def _cycle_incidence(n=18):
    """Edge-incidence matrix of an ``n``-cycle: column i is e_i + e_{i+1 mod n}."""
    return np.eye(n) + np.roll(np.eye(n), 1, axis=0)


# the first 1,600-prefix run is split into 32, 64, 128, 256, 512 and 608 prefixes
@pytest.mark.parametrize("k, runs", [(3, 1), (4, 7)])
def test_devore_enumeration_stops_at_the_run_reaching_the_ceiling(k, runs):
    A = devore_matrix(DeVoreParams(5, 2), normalize=True)
    est = exact_rip(A, k)
    assert est.delta_k == pytest.approx((k - 1) * 2 / 5, abs=1e-12)  # (k-1) times the coherence
    assert est.argmax_support == (0, 26, 52, 78)[:k]
    supports = [rip._extend(run, 125) for run in islice(rip._lex_runs(125, k, rip._FIRST_RUN), runs)]
    assert (supports[-1] == est.argmax_support).all(axis=1).any()
    assert est.supports == sum(map(len, supports)) < math.comb(125, k)


_devore_5_2 = lambda: devore_matrix(DeVoreParams(5, 2), normalize=True)


@pytest.mark.parametrize("make, k", [(_uneven_binary, 2), (_uneven_binary, 3), (_devore_rows_permuted, 2),
                                     (_devore_rows_permuted, 3), (_cycle_incidence, 3), (_devore_5_2, 2),
                                     (_devore_5_2, 3), (_devore_5_2, 4)],
                         ids=["binary_k2", "binary_k3", "devore_permuted_k2", "devore_permuted_k3", "cycle_k3",
                              "devore_k2", "devore_k3", "devore_k4"])
def test_first_run_split_keeps_the_answer_and_visits_no_more(monkeypatch, make, k):
    A = make()
    assert rip._pattern_route(A.T @ A, k, math.comb(A.shape[1], k)) is not None
    split = exact_rip(A, k)
    monkeypatch.setattr(rip, "_FIRST_RUN", None)
    whole = exact_rip(A, k)
    assert (split.delta_k, split.argmax_support) == (whole.delta_k, whole.argmax_support)
    assert split.supports <= whole.supports


def test_best_first_route_runs_are_not_split(monkeypatch):
    firsts = []

    def spy(n, k, first=None, spare=0):
        if not spare:  # the outermost level
            firsts.append(first)
        return lex_runs(n, k, first, spare)

    lex_runs = rip._lex_runs
    monkeypatch.setattr(rip, "_lex_runs", spy)
    assert exact_rip(_gaussian(), 3).supports == math.comb(36, 3)
    assert exact_rip(_devore_rows_permuted(), 3).supports == 3440
    assert firsts == [None, rip._FIRST_RUN]


# 8 candidate codes: at a chunk of 7 the best-first route runs, at 8 the pattern route
@pytest.mark.parametrize("chunk", [7, 8, rip._CHUNK])
def test_unreached_ceiling_visits_every_run(monkeypatch, chunk):
    A, k = _cycle_incidence(), 3
    monkeypatch.setattr(rip, "_CHUNK", chunk)
    pattern = rip._pattern_route(A.T @ A, k, math.comb(18, k))
    assert (pattern is not None) == (chunk >= 8)
    # the ceiling is the all-ones overlap pattern: three pairwise adjacent edges, absent from a cycle
    assert pattern is None or pattern[1] == pytest.approx(3.0, abs=1e-12)
    est = exact_rip(A, k)
    assert (est.delta_k, est.argmax_support) == rip_ref(A, k)
    assert est.delta_k == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)
    assert est.argmax_support == (0, 1, 2)
    assert est.supports == math.comb(18, k)


def test_best_first_sends_few_supports_to_eigvalsh(monkeypatch):
    rows = []

    def counted(subs):
        rows.append(len(subs))
        return deviations(subs)

    deviations = rip._deviations
    monkeypatch.setattr(rip, "_deviations", counted)
    exact_rip(_gaussian(), 4)
    assert 0 < sum(rows) < 0.01 * math.comb(36, 4)


def test_best_first_builds_only_prefixes_and_batches(monkeypatch):
    built = []

    def counted(prefixes, stop):
        built.append(len(supports := extend(prefixes, stop)))
        return supports

    extend = rip._extend
    monkeypatch.setattr(rip, "_extend", counted)
    assert exact_rip(_gaussian(), 4).supports == math.comb(36, 4)
    # the size-3 prefixes and their own prefixes, never the 58,905 supports
    assert sum(built) == math.comb(35, 3) + math.comb(34, 2) + 33 < math.comb(36, 4)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_pattern_route_refuses_a_gaussian_gram_without_sorting_it(monkeypatch, k):
    A, sizes, unique = _gaussian(), [], np.unique

    def counted(values, *args, **kwargs):
        sizes.append(np.size(values))
        return unique(values, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    assert rip._pattern_route(A.T @ A, k, math.comb(36, k)) is None
    assert all(size < 36 * 36 for size in sizes)  # its first row alone has too many distinct values


def test_pattern_route_refuses_a_code_table_larger_than_the_support_count(monkeypatch):
    # column 0 is e_1 and row 0 of the others is zero, so Gram row 0 holds 2 distinct values and passes
    # the first-row check; the whole Gram matrix holds 41, and 41**3 codes outnumber the C(10, 2) supports
    A = np.zeros((8, 10))
    A[:, 1:] = np.random.default_rng(3).standard_normal((8, 9))
    A[0], A[0, 0] = 0.0, 1.0
    A /= np.linalg.norm(A, axis=0)
    sizes, unique = [], np.unique

    def counted(values, *args, **kwargs):
        sizes.append(np.size(values))
        return unique(values, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "unique", counted)
        assert rip._pattern_route(A.T @ A, 2, math.comb(10, 2)) is None
    assert sizes == [55]  # refused only after sorting the diagonal and the triangle below it
    delta, support = rip_ref(A, 2)
    est = exact_rip(A, 2)
    assert est.delta_k == pytest.approx(delta, abs=1e-12) and est.argmax_support == support == (1, 8)
    assert est.delta_k == pytest.approx(0.80297, abs=1e-5)


def test_best_first_folds_the_gram_matrix_once_per_call(monkeypatch):
    folds, gershgorin, tailed, tails = [], rip._gershgorin, [], rip._tails

    def spy(fold, prefixes):
        folds.append(fold)
        return gershgorin(fold, prefixes)

    def counted(fold):
        tailed.append(fold)
        return tails(fold)

    monkeypatch.setattr(rip, "_gershgorin", spy)
    monkeypatch.setattr(rip, "_tails", counted)
    monkeypatch.setattr(rip, "_CHUNK", 7)  # one prefix per run
    A = _gaussian()
    assert (est := exact_rip(A, 3)).supports == math.comb(36, 3)
    # the runs whose prefix's ceiling reaches the best are bounded, all from the one fold
    assert 0 < len(folds) < math.comb(35, 2) and all(fold is folds[0] for fold in folds)
    assert len(tailed) == 1 and tailed[0] is folds[0]  # T and D, built on the first pruned run
    delta, support = rip_ref(A, 3)
    assert est.delta_k == pytest.approx(delta, abs=1e-12) and est.argmax_support == support


def _prefixes(n, k):
    """Every size-``(k - 1)`` prefix of a size-``k`` subset of ``range(n)``, as one run."""
    return np.array(list(combinations(range(n - 1), k - 1)), dtype=np.intp).reshape(-1, k - 1)


def test_gershgorin_bound_is_the_k_squared_sum_bit_for_bit():
    A, n, k = _gaussian(), 36, 3
    gram = A.T @ A
    assert np.array_equal(gram, gram.T)  # folding |G - I| with its transpose then changes nothing
    prefixes = _prefixes(n, k)
    ends, cols, bound = rip._gershgorin(np.abs(gram - np.eye(n)), prefixes)
    supports = rip._extend(prefixes, n)
    counts = np.diff(ends, prepend=0)
    np.testing.assert_array_equal(np.column_stack([np.repeat(prefixes, counts, axis=0), cols]), supports)
    flat = np.abs(gram - np.eye(n)).ravel()
    rows = [sum(flat[r + s] for s in supports.T) for r in (supports * n).T]  # row by row, in support order
    assert np.array_equal(bound, np.maximum.reduce(rows))


@pytest.mark.parametrize("make", [_gaussian, _gaussian_duplicated, _devore_5_2],
                         ids=["gaussian", "duplicated", "devore"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_prefix_ceilings_bound_every_extension(make, k):
    A = make()
    gram, n = A.T @ A, A.shape[1]
    fold = np.maximum(fold := np.abs(gram - np.eye(n)), fold.T)
    prefixes = _prefixes(n, k)
    if len(prefixes) > 2000:  # devore at k = 3 and 4: a sample, with every extension of each
        prefixes = prefixes[np.sort(np.random.default_rng(k).choice(len(prefixes), 2000, replace=False))]
    counts, _ = rip._last_columns(prefixes, n)
    ceiling = np.repeat(rip._ceilings(fold, rip._tails(fold), prefixes), counts)
    supports = rip._extend(prefixes, n)
    devs = rip._deviations(gram[supports[:, :, None], supports[:, None, :]])
    assert (devs <= ceiling + 1e-12 * np.maximum(1.0, ceiling)).all()  # float rounding, far inside _SKIP_MARGIN


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
def test_best_first_route_bounds_few_of_the_gaussian_supports(monkeypatch, seed):
    # across these orders 1,040-1,306 of the 6,545 prefixes and 13,669-15,965 of the 58,905 supports are bounded
    bounded, gershgorin = [], rip._gershgorin

    def spy(fold, prefixes):
        ends, cols, bound = gershgorin(fold, prefixes)
        bounded.append((len(prefixes), cols.size))
        return ends, cols, bound

    monkeypatch.setattr(rip, "_gershgorin", spy)
    A = _gaussian() if seed is None else _gaussian()[:, np.random.default_rng(seed).permutation(36)]
    assert exact_rip(A, 4).supports == math.comb(36, 4)
    prefixes, supports = np.sum(bounded, axis=0)
    assert prefixes < 1500 and supports < 18_000


@pytest.mark.parametrize("make", [_gaussian, _gaussian_duplicated, _gaussian_triplicated],
                         ids=["gaussian", "duplicated", "triplicated"])
@pytest.mark.parametrize("k, seed", [(2, 4), (2, 7), (3, 1), (3, 4), (4, 3)])  # 4, 7: the maximum in a later run
def test_seeded_and_pruned_runs_keep_the_first_maximal_support(monkeypatch, make, k, seed):
    bounded, gershgorin = [], rip._gershgorin

    def spy(fold, prefixes):
        bounded.append(len(prefixes))
        return gershgorin(fold, prefixes)

    monkeypatch.setattr(rip, "_gershgorin", spy)
    monkeypatch.setattr(rip, "_SEED_PREFIXES", 4)
    monkeypatch.setattr(rip, "_CHUNK", 36 * 10)  # runs of 10 prefixes: the first seeded, every later one pruned
    A = make()[:, np.random.default_rng(seed).permutation(36)]
    est = exact_rip(A, k)
    assert est.supports == math.comb(36, k)
    assert bounded[0] == 4 and sum(bounded) < math.comb(35, k - 1)
    delta, support = rip_ref(A, k)
    assert est.delta_k == pytest.approx(delta, abs=1e-12) and est.argmax_support == support


def test_seeded_run_reports_the_first_of_a_tie_split_by_the_seed(monkeypatch):
    # (0, 1, 5) and (2, 3, 4) hold one sub-Gram matrix up to order; prefix (2, 3)'s ceiling, 1.01, is the
    # run's highest, and (0, 1)'s, 0.807, still reaches the tie, so the seed finds the later of the two
    gram = np.eye(6)
    for i, j, value in [(0, 1, 0.1), (0, 5, 0.5), (1, 5, 0.5), (2, 3, 0.5), (2, 4, 0.5), (3, 4, 0.1)]:
        gram[i, j] = gram[j, i] = value
    supports = np.array(list(combinations(range(6), 3)))
    devs = rip._deviations(gram[supports[:, :, None], supports[:, None, :]])
    assert supports[devs == devs.max()].tolist() == [[0, 1, 5], [2, 3, 4]]  # tied bit for bit
    monkeypatch.setattr(rip, "_SEED_PREFIXES", 1)
    dev, support = rip._best_first_route(gram)(_prefixes(6, 3), -np.inf)
    assert dev == devs.max() and tuple(support) == (0, 1, 5)


def _star_gram():
    """Unit diagonal; column 0 overlaps columns 1 and 2 by 0.5, a deviation of sqrt(2)/2 on (0, 1, 2),
    and columns 3 and 4 overlap by 0.6."""
    gram = np.eye(6)
    gram[0, 1:3] = gram[1:3, 0] = 0.5
    gram[3, 4] = gram[4, 3] = 0.6
    return gram


@pytest.mark.parametrize("make", [_star_gram, lambda: _gaussian().T @ _gaussian()], ids=["star", "gaussian"])
@pytest.mark.parametrize("batch", [1, rip._BATCH])
@pytest.mark.parametrize("transpose", [False, True], ids=["upper_shrunk", "lower_shrunk"])
def test_best_first_bound_holds_for_either_triangle(monkeypatch, make, batch, transpose):
    # eigvalsh reads the lower triangle.  With the upper one shrunk, row-by-row sums bound the star's
    # (0, 1, 2) by 0.5, under both its sqrt(2)/2 and the 0.6 of the supports holding (3, 4)
    gram, k = make(), 3
    shrunk = np.tril(gram) + 0.1 * np.triu(gram, 1)
    shrunk = shrunk.T if transpose else shrunk
    monkeypatch.setattr(rip, "_BATCH", batch)
    supports = np.array(list(combinations(range(len(gram)), k)))
    devs = rip._deviations(shrunk[supports[:, :, None], supports[:, None, :]])
    dev, support = rip._best_first_route(shrunk)(_prefixes(len(gram), k), -np.inf)
    assert dev == devs.max()
    assert tuple(support) == tuple(supports[np.argmax(devs)])


@pytest.mark.parametrize("seed", [700, 746, 815, 921])
def test_single_support_batches_find_the_maximum(monkeypatch, seed):
    # on these draws a walk that takes the supports left after the first batch
    # out of descending bound order stops before reaching the maximum
    rng = np.random.default_rng(seed)
    m, n, k = (int(v) for v in (rng.integers(2, 9), rng.integers(4, 11), rng.integers(2, 4)))
    A = rng.standard_normal((m, n)) / np.sqrt(m) * 10.0 ** rng.uniform(-0.5, 0.5, n)
    monkeypatch.setattr(rip, "_BATCH", 1)
    delta, support = rip_ref(A, k)
    est = exact_rip(A, k)
    assert est.argmax_support == support
    assert est.delta_k == pytest.approx(delta, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 8), n=st.integers(1, 10), k=st.integers(1, 3), rank=st.integers(0, 8),
       scaled=st.booleans(), duplicated=st.booleans(), seed=st.integers(0, 2**32 - 1),
       batch=st.sampled_from([1, rip._BATCH]), pruned=st.booleans())
# tied maxima whose float Gershgorin bound lies below their float deviation
@example(m=5, n=10, k=3, rank=6, scaled=False, duplicated=True, seed=14409, batch=1, pruned=False)
@example(m=2, n=8, k=3, rank=3, scaled=True, duplicated=True, seed=32459, batch=1, pruned=False)
@example(m=5, n=10, k=3, rank=6, scaled=False, duplicated=True, seed=14409, batch=1, pruned=True)
@example(m=2, n=8, k=3, rank=3, scaled=True, duplicated=True, seed=32459, batch=1, pruned=True)
# fails when a prefix whose ceiling lies less than 0.01 above the best found so far is pruned
@example(m=3, n=3, k=2, rank=1, scaled=False, duplicated=False, seed=0, batch=1, pruned=True)
def test_exact_rip_matches_reference_on_small_matrices(m, n, k, rank, scaled, duplicated, seed,
                                                       batch, pruned):
    assume(k <= n)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, min(rank, m))) @ rng.standard_normal((min(rank, m), n)) / m
    if scaled:
        A = A * 10.0 ** rng.uniform(-2.0, 2.0, n)
    if duplicated:
        A = A[:, rng.integers(0, n, size=n)]
    delta, support = rip_ref(A, k)
    # pruned: runs of two prefixes, the first seeded with one, every later one pruned by its ceiling
    with mock.patch.multiple(rip, _BATCH=batch, **({"_SEED_PREFIXES": 1, "_CHUNK": 2 * n} if pruned else {})):
        est = exact_rip(A, k)
    assert est.argmax_support == support
    assert est.delta_k == pytest.approx(delta, abs=1e-12)


def _rnsp_margin(h, S, k, rho, tau, ah):
    """Slack of the null-space inequality for ``h`` on support ``S``, given ``||A h||_2 = ah``."""
    return (rho * np.abs(np.delete(h, S)).sum() + tau * ah) / math.sqrt(k) - np.linalg.norm(h[list(S)])


def _least_rnsp_margin(h, k, rho, tau, ah):
    """The least slack over every support of size 1 to ``k``."""
    return min(_rnsp_margin(h, S, k, rho, tau, ah)
               for size in range(1, k + 1) for S in combinations(range(len(h)), size))


class TestRnspCheck:
    def test_identity_matrix_with_tau_sqrt_k(self):
        # ||h_S|| <= ||h|| = ||Ah|| makes tau = sqrt(k) always sufficient
        rep = rnsp_check(np.eye(8), 2, rho=0.5, tau=2.0 * math.sqrt(2), trials=200, seed=0)
        assert rep.ok
        assert rep.checked > 0

    def test_certified_devore_has_no_violations(self, devore_5_2):
        cert = certificate(2.0, 1, exact_rip(devore_5_2, 2).delta_k, 1, 0.2)
        assert cert.valid
        rep = rnsp_check(devore_5_2, 1, cert.rho, cert.tau, trials=500, seed=3)
        assert rep.ok
        assert rep.min_margin > 0

    def test_violations_are_reported_not_raised(self):
        # a duplicated column breaks the null-space property for any rho < 1
        e1 = np.zeros(4)
        e1[0] = 1.0
        A = np.column_stack([e1, e1, np.eye(4)[:, 1:]])
        rep = rnsp_check(A, 1, rho=0.1, tau=0.01, trials=300, seed=0)
        assert not rep.ok
        assert rep.violations[0]["lhs"] > rep.violations[0]["rhs"]

    @pytest.mark.parametrize("tau", [10.0, 100.0])
    def test_tall_rank_deficient_matrix_reports_its_null_vector(self, tau):
        # columns 0 and 1 are equal, so e0 - e1 breaks the inequality at rho = 0.5 for every
        # tau; the null-space draws once ran only on wide matrices and missed it
        A = np.random.default_rng(0).standard_normal((8, 5))
        A[:, 1] = A[:, 0]
        A /= np.linalg.norm(A, axis=0)
        rep = rnsp_check(A, 1, rho=0.5, tau=tau, trials=3000)
        assert not rep.ok and rep.checked == 3000
        assert all(v["trial"] % 3 == 2 for v in rep.violations)
        assert rep.violations[0]["lhs"] > rep.violations[0]["rhs"]

    def test_top_k_support_has_the_smallest_margin(self):
        # why one support per vector suffices: over every support of size up to k, the
        # top-k one (ties to the lower index) has the smallest margin, ties and zeros included
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, min(3, n) + 1))
            rho, tau, ah = rng.uniform(0.05, 0.95), rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0)
            h = rng.standard_normal(n).round(int(rng.integers(0, 3)))
            top = np.argsort(-np.abs(h), kind="stable")[:k]
            assert _rnsp_margin(h, top, k, rho, tau, ah) <= _least_rnsp_margin(h, k, rho, tau, ah) + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_one_trial_margin_is_the_minimum_over_supports(self, seed):
        # trial 0 is the seed's first dense draw, checked on one support
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(3, n) + 1))
        A = rng.standard_normal((int(rng.integers(1, 9)), n))
        h = np.random.default_rng(seed).standard_normal(n)
        rep = rnsp_check(A, k, rho=0.4, tau=1.5, trials=1, seed=seed)
        assert rep.checked == 1
        assert rep.min_margin == pytest.approx(_least_rnsp_margin(h, k, 0.4, 1.5, np.linalg.norm(A @ h)),
                                               rel=1e-12, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            rnsp_check(np.eye(3), 1, rho=1.5, tau=1.0)
        with pytest.raises(ValueError):
            rnsp_check(np.eye(3), 1, rho=0.5, tau=-1.0)
        for tau in (math.nan, math.inf):  # nan was reported ok
            with pytest.raises(ValueError, match="tau must be finite"):
                rnsp_check(np.eye(3), 1, rho=0.5, tau=tau)

    @pytest.mark.parametrize("k", [0, -1, 4])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError, match=f"k={k} outside 1..3"):
            rnsp_check(np.eye(3), k, rho=0.5, tau=1.0)

    def test_non_integral_k_is_refused(self):
        with pytest.raises(ValueError, match=r"k=1\.9"):
            rnsp_check(np.eye(3), 1.9, rho=0.5, tau=1.0)

    @pytest.mark.parametrize("trials", [0, -3, 2.5])
    def test_no_trials_is_refused(self, trials):
        # zero trials reported ok after 0 checks, and 2.5 escaped as a TypeError
        with pytest.raises(ValueError, match=f"trials={trials} below 1 or not an integer"):
            rnsp_check(np.eye(4), 1, rho=0.5, tau=1.0, trials=trials)
