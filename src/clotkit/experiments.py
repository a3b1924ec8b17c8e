"""Seeded numerical studies: method comparison, grouping trajectories,
solution-path nonequivalence, and scale robustness of exact recovery.

All studies are driven by integer seeds through independent per-replication
random streams, so a report is bit-for-bit reproducible from its config.
Reports carry the raw per-replication records next to the aggregated tables
and plain plot-data series (no plotting here).
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, field, fields
from importlib import resources

import numpy as np

from .fileio import strict_json
from .grouping import preprocess
from .matrices import DeVoreParams, devore_matrix
from .regularizers import RegularizerSpec
from .solvers import (
    Constrained,
    Lagrangian,
    Problem,
    SolverOptions,
    lambda_zero_threshold,
    solution_path,
    solve_constrained,
    support,
)

__all__ = [
    "ScenarioConfig",
    "StudyReport",
    "bootstrap_sd_of_median",
    "builtin_scenario_names",
    "load_builtin_scenario",
    "run_comparison",
    "grouping_fixture",
    "run_grouping_paths",
    "run_path_nonequivalence",
    "SCALING_PRESETS",
    "run_scaling",
]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class StudyReport:
    name: str
    config: dict
    metadata: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    series: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return strict_json(asdict(self))

    def write(self, out_dir) -> list:
        """Write report.json plus one CSV per series; returns the paths."""
        os.makedirs(out_dir, exist_ok=True)
        paths = []
        report_path = os.path.join(out_dir, f"{self.name}_report.json")
        with open(report_path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
        paths.append(report_path)
        for series_name, columns in self.series.items():
            csv_path = os.path.join(out_dir, f"{self.name}_{series_name}.csv")
            with open(csv_path, "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(columns.keys())
                writer.writerows(zip(*columns.values()))
            paths.append(csv_path)
        return paths


def bootstrap_sd_of_median(values, resamples: int = 200, seed: int = 0) -> float:
    """Standard deviation of the median under resampling with replacement."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return 0.0
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, v.size, size=(resamples, v.size))
    medians = np.median(v[idx], axis=1)
    return float(np.std(medians, ddof=1))


# ---------------------------------------------------------------------------
# comparison study
# ---------------------------------------------------------------------------


_COVARIANCE_KINDS = ("identity", "ar1", "equi", "blocks")  # a missing kind means identity


def _is_number(value) -> bool:
    """An int, or a finite float; not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or bool(np.isfinite(value))


def _is_count(value) -> bool:
    return _is_number(value) and isinstance(value, int) and value > 0


def _generator_model(gen) -> tuple:
    """The linear model a generator config describes, as ``(beta, chol,
    noise_sigma, sizes)``: the true coefficients, the Cholesky factor of the
    covariance plus ``1e-12 * I``, the noise level and the train, validation
    and test sizes.  Raises a ``ValueError`` naming the first missing or
    malformed field, or the covariance when it is not positive definite."""
    if not isinstance(gen, dict):
        raise ValueError("generator must be an object")
    for key in ("beta", "covariance", "noise_sigma", "n_train", "n_val", "n_test"):
        if key not in gen:
            raise ValueError(f"generator config missing {key!r}")
    beta = gen["beta"]
    if not (isinstance(beta, list) and beta and all(map(_is_number, beta))):
        raise ValueError("generator: beta must be a nonempty list of numbers")
    p = len(beta)
    cov = gen["covariance"]
    kind = cov.get("kind", "identity") if isinstance(cov, dict) else None
    if kind not in _COVARIANCE_KINDS:
        raise ValueError(f"generator: covariance must be an object with a kind in "
                         f"{list(_COVARIANCE_KINDS)}")
    if kind in ("ar1", "equi") and not _is_number(cov.get("rho")):
        raise ValueError(f"generator: covariance {kind} needs a number rho")
    if kind == "ar1":
        idx = np.arange(p)
        sigma = float(cov["rho"]) ** np.abs(idx[:, None] - idx[None, :])
    else:  # identity and equi are one block each
        blocks = {"identity": [{"size": p}], "equi": [{"size": p, "cov": cov.get("rho")}],
                  "blocks": cov.get("blocks")}[kind]
        if not (isinstance(blocks, list) and blocks and all(
                isinstance(b, dict) and _is_count(b.get("size"))
                and _is_number(b.get("var", 1.0)) and _is_number(b.get("cov", 0.0))
                for b in blocks)):
            raise ValueError("generator: covariance blocks needs a nonempty list of objects "
                             "with a positive integer size and numbers var and cov")
        if sum(b["size"] for b in blocks) != p:
            raise ValueError(f"generator: covariance block sizes sum to "
                             f"{sum(b['size'] for b in blocks)}, expected len(beta) = {p}")
        sigma = np.zeros((p, p))
        at = 0
        for b in blocks:
            s, var, cross = b["size"], float(b.get("var", 1.0)), float(b.get("cov", 0.0))
            sigma[at:at + s, at:at + s] = np.full((s, s), cross) + (var - cross) * np.eye(s)
            at += s
    try:
        chol = np.linalg.cholesky(sigma + 1e-12 * np.eye(p))
    except np.linalg.LinAlgError:
        raise ValueError("generator: covariance must be positive definite") from None
    if not (_is_number(gen["noise_sigma"]) and gen["noise_sigma"] >= 0):
        raise ValueError("generator: noise_sigma must be a nonnegative number")
    for key in ("n_train", "n_val", "n_test"):
        if not _is_count(gen[key]):
            raise ValueError(f"generator: {key} must be a positive integer")
    return (np.asarray(beta, dtype=float), chol, float(gen["noise_sigma"]),
            [gen["n_train"], gen["n_val"], gen["n_test"]])


@dataclass
class ScenarioConfig:
    name: str
    generator: dict
    replications: int
    seed: int
    methods: list
    lambda_grid: dict

    def __post_init__(self):
        # report files start with the name, so it must not lead out of the output directory
        name = self.name
        if not (isinstance(name, str) and name and name == os.path.basename(name)):
            raise ValueError(f"name must be a file name with no directory part, got {name!r}")
        if not _is_count(self.replications):
            raise ValueError("replications must be a positive integer")
        if not (_is_number(self.seed) and isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        _generator_model(self.generator)  # raises on a malformed generator
        lg = self.lambda_grid
        if not (isinstance(lg, dict) and all(_is_number(lg.get(key)) and lg[key] > 0
                                             for key in ("hi", "lo")) and _is_count(lg.get("num"))):
            raise ValueError("lambda_grid must be an object with positive numbers hi and lo "
                             "and a positive integer num")
        if lg["num"] > 1 and lg["hi"] == lg["lo"]:
            raise ValueError("lambda_grid: hi and lo must differ when num > 1")
        if not (isinstance(self.methods, list) and self.methods):
            raise ValueError("methods must be a nonempty list of objects")
        kinds = []
        for method in self.methods:
            kind = str(method.get("kind")).lower() if isinstance(method, dict) else None
            if kind not in ("clot", "en", "lasso", "ridge"):
                raise ValueError("each entry of methods needs a kind in ['clot', 'en', 'lasso', "
                                 f"'ridge'], got {method!r}")
            if kind in kinds:  # its paths would be solved, and its replications counted, twice
                raise ValueError(f"methods: {kind} is listed more than once (case is ignored)")
            kinds.append(kind)
            grid = method.get("mu_grid")
            if kind in ("lasso", "ridge") and "mu_grid" in method:
                raise ValueError(f"methods: {kind} has no mixing parameter to take a mu_grid")
            if kind in ("en", "clot") and not (isinstance(grid, list) and grid and all(
                    _is_number(mu) and 0 <= mu <= 1 for mu in grid)):
                raise ValueError(f"methods: {kind} needs a nonempty mu_grid of numbers in [0, 1]")

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        names = [f.name for f in fields(cls)]
        if not isinstance(d, dict) or not all(name in d for name in names):
            raise ValueError(f"a scenario config must be an object with keys {names}")
        return cls(name=d["name"], generator=d["generator"], replications=d["replications"],
                   seed=d["seed"], methods=d["methods"], lambda_grid=d["lambda_grid"])

    def to_dict(self) -> dict:
        return asdict(self)


def builtin_scenario_names() -> list:
    root = resources.files("clotkit") / "configs"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_builtin_scenario(name: str) -> ScenarioConfig:
    if name not in builtin_scenario_names():
        raise ValueError(f"no builtin scenario {name!r}; have {builtin_scenario_names()}")
    path = resources.files("clotkit") / "configs" / f"{name}.json"
    text = path.read_text(encoding="utf-8")
    return ScenarioConfig.from_dict(json.loads(text))


def _draw_linear_model(model: tuple, rng: np.random.Generator) -> dict:
    beta, chol, sigma, sizes = model
    total = sum(sizes)
    X = rng.standard_normal((total, beta.size)) @ chol.T
    y = X @ beta + sigma * rng.standard_normal(total)
    parts = np.split(np.arange(total), np.cumsum(sizes)[:-1])
    out = {"beta": beta}
    for label, idx in zip(("train", "val", "test"), parts):
        out[f"X_{label}"] = X[idx]
        out[f"y_{label}"] = y[idx]
    return out


_COMPARISON_OPTS = SolverOptions(kkt_tol=1e-6)


def run_comparison(config: ScenarioConfig) -> StudyReport:
    """Replicated train/validate/test comparison of the configured methods.

    The multiplier and (where applicable) the mixing parameter are chosen per
    replication by grid search on validation prediction error.  The design
    and response are scaled by ``1/sqrt(n_train)`` before solving so one
    fixed multiplier grid spans useful regularization strengths across
    scenarios.  Reported error is mean squared prediction error against the
    noiseless test signal.
    """
    lg = config.lambda_grid
    lam_grid = np.logspace(np.log10(float(lg["hi"])), np.log10(float(lg["lo"])), int(lg["num"]))

    model = _generator_model(config.generator)
    streams = np.random.SeedSequence(config.seed).spawn(config.replications)
    records = []
    for rep in range(config.replications):
        rng = np.random.default_rng(streams[rep])
        data = _draw_linear_model(model, rng)
        scale = np.sqrt(data["X_train"].shape[0])
        A = data["X_train"] / scale
        y = data["y_train"] / scale
        template = Problem(A, y, Lagrangian(1.0, "penalty"))

        for method in config.methods:
            kind = method["kind"]
            mu_grid = method.get("mu_grid", [None])
            best = None
            for mu in mu_grid:
                spec = RegularizerSpec(kind, 0.0 if mu is None else mu)  # lasso and ridge ignore mu
                for point in solution_path(template, spec, lam_grid, _COMPARISON_OPTS):
                    beta_hat = point.result.x_hat
                    val_mse = float(np.mean((data["X_val"] @ beta_hat - data["y_val"]) ** 2))
                    if best is None or val_mse < best["val_mse"]:
                        best = {"val_mse": val_mse, "lambda": point.lam, "mu": mu,
                                "beta": beta_hat, "converged": point.result.converged}
            err = data["X_test"] @ (best["beta"] - data["beta"])
            records.append({
                "rep": rep,
                "method": kind,
                "mse": float(np.mean(err**2)),
                "nnz": support(best["beta"]).size,
                "lambda": float(best["lambda"]),
                "mu": None if best["mu"] is None else float(best["mu"]),
                "val_mse": best["val_mse"],
                "converged": bool(best["converged"]),
            })

    tables = {"median_mse": {}, "bootstrap_sd_of_median_mse": {}, "median_nnz": {}}
    series = {}
    for method in config.methods:
        kind = method["kind"]
        mses = [r["mse"] for r in records if r["method"] == kind]
        nnzs = [r["nnz"] for r in records if r["method"] == kind]
        tables["median_mse"][kind] = float(np.median(mses))
        tables["bootstrap_sd_of_median_mse"][kind] = bootstrap_sd_of_median(
            mses, resamples=200, seed=config.seed + 1)
        tables["median_nnz"][kind] = float(np.median(nnzs))
        series[f"mse_{kind}"] = {"replication": list(range(len(mses))), "mse": mses}

    metadata = {
        "true_nnz": support(model[0]).size,
        "mse_definition": "mean((X_test @ (beta_hat - beta_true))^2)",
        "tuning": "validation grid search over the multiplier grid and mu_grid",
        "design_scaling": "train design and response divided by sqrt(n_train)",
        "note": "medians and their orderings are the reported outcome; absolute "
                "values depend on the tuning protocol and are not comparison targets",
    }
    return StudyReport(name=config.name, config=config.to_dict(), metadata=metadata,
                       tables=tables, records=records, series=series)


# ---------------------------------------------------------------------------
# grouping trajectories and path nonequivalence
# ---------------------------------------------------------------------------


def grouping_fixture(seed: int = 0, n_samples: int = 100):
    """Two latent factors, six observed columns.

    Per sample: ``z1, z2 ~ U(0, 20)``, response ``z1 + 0.1*z2`` plus unit
    noise, columns ``(z1, -z1, z1, z2, -z2, z2)`` each perturbed by
    ``N(0, 1/16)`` noise.  Columns 1..3 form a highly correlated trio that a
    grouping-friendly penalty should weight as ``b1 = -b2 = b3``.
    """
    rng = np.random.default_rng(seed)
    z1 = rng.uniform(0.0, 20.0, n_samples)
    z2 = rng.uniform(0.0, 20.0, n_samples)
    y = z1 + 0.1 * z2 + rng.standard_normal(n_samples)
    signs = (1.0, -1.0, 1.0)
    cols = [s * z1 + 0.25 * rng.standard_normal(n_samples) for s in signs]
    cols += [s * z2 + 0.25 * rng.standard_normal(n_samples) for s in signs]
    return np.column_stack(cols), y


def _trio_spread(beta_row) -> float:
    """Relative spread of (b1, -b2, b3); infinite when signs are wrong."""
    trio = np.array([beta_row[0], -beta_row[1], beta_row[2]])
    if np.any(trio <= 0):
        return np.inf
    return float((trio.max() - trio.min()) / trio.mean())


_PATH_OPTS = SolverOptions(kkt_tol=1e-10)
# fixed settings of the grouping and path studies; each report echoes them
_FIXTURE = {"n_samples": 100, "mu": 0.5, "decades": 4.0}


def _fixture_paths(config, labels):
    """Solve the two-factor fixture drawn from ``config`` along each labelled
    method's own grid: ``n_lambdas`` multipliers spanning ``decades`` down
    from its zero threshold ``lam_max``.  Maps each label to
    ``(lam_max, grid, betas)``."""
    pre = preprocess(*grouping_fixture(config["seed"], config["n_samples"]))
    out = {}
    for label in labels:
        spec = RegularizerSpec(label, config["mu"])
        lam_max = lambda_zero_threshold(spec, pre.A, pre.y, "penalty")
        grid = lam_max * np.logspace(0.0, -config["decades"], config["n_lambdas"])
        points = solution_path(Problem(pre.A, pre.y, Lagrangian(1.0, "penalty")), spec,
                               grid, _PATH_OPTS)
        out[label] = (lam_max, grid, np.asarray([p.result.x_hat for p in points]))
    return out


def run_grouping_paths(seed: int = 0) -> StudyReport:
    """Coefficient trajectories of CLOT, EN, and lasso on the two-factor
    fixture, over each method's own descending multiplier grid."""
    config = {"seed": seed, "n_lambdas": 61, **_FIXTURE}
    series = {}
    spread_stats = {}
    window = {}
    for label, (lam_max, grid, betas) in _fixture_paths(config, ("clot", "en", "lasso")).items():
        series[label] = {
            "lambda": grid.tolist(),
            **{f"beta{i + 1}": betas[:, i].tolist() for i in range(betas.shape[1])},
        }
        # mid-range: multipliers between 10% and 60% of the zero threshold,
        # i.e. after the trio activates but before weak regularization lets
        # the unpenalized ill-conditioning take over
        mask = (grid >= 0.10 * lam_max) & (grid <= 0.60 * lam_max)
        spreads = [_trio_spread(row) for row, keep in zip(betas, mask) if keep]
        finite = [s for s in spreads if np.isfinite(s)]
        spread_stats[label] = {
            "max": float(np.max(spreads)) if spreads else None,
            "max_finite": float(np.max(finite)) if finite else None,
            "n_infinite": int(sum(1 for s in spreads if not np.isfinite(s))),
            "n_points": len(spreads),
        }
        window[label] = [float(0.10 * lam_max), float(0.60 * lam_max)]

    metadata = {
        "mu": config["mu"], "n_samples": config["n_samples"], "seed": seed,
        "mid_range_window": window,
        "trio_spread": spread_stats,
        "spread_definition": "(max - min)/mean of (b1, -b2, b3); infinite if any sign is wrong",
    }
    return StudyReport(name="grouping_paths", config=config, metadata=metadata, series=series)


def _longest_increasing_run(values, tol=1e-12):
    """Start/end (inclusive) of the longest strictly increasing run."""
    best = (0, 0)
    start = 0
    for i in range(1, len(values)):
        if values[i] <= values[i - 1] + tol:
            start = i
        if i - start > best[1] - best[0]:
            best = (start, i)
    return best


def run_path_nonequivalence(seed: int = 0) -> StudyReport:
    """Test whether the EN path is a reparametrization of the CLOT path.

    The first coefficient is monotone along each path (except at the very
    weakest regularization), so matching first coefficients induces a map
    between the two multiplier scales; the remaining coefficients are then
    compared at the matched points.
    """
    config = {"seed": seed, "n_lambdas": 81, **_FIXTURE}
    fits = _fixture_paths(config, ("clot", "en"))

    # grids are descending, so beta1 increases with grid index
    runs = {label: _longest_increasing_run(betas[:, 0]) for label, (_, _, betas) in fits.items()}
    for label, (lo, hi) in runs.items():
        if hi - lo < 5:
            raise RuntimeError(f"first coefficient of the {label} path is not monotone "
                               f"over a usable range")

    c_lo, c_hi = runs["clot"]
    e_lo, e_hi = runs["en"]
    (_, grid_c, path_c), (_, grid_e, path_e) = fits["clot"], fits["en"]
    beta1_c = path_c[c_lo:c_hi + 1, 0]
    beta1_e = path_e[e_lo:e_hi + 1, 0]
    lam_c = grid_c[c_lo:c_hi + 1]
    lam_e = grid_e[e_lo:e_hi + 1]
    lo_val = max(beta1_c.min(), beta1_e.min())
    hi_val = min(beta1_c.max(), beta1_e.max())
    keep = (beta1_c >= lo_val) & (beta1_c <= hi_val)
    if keep.sum() < 5:
        raise RuntimeError("first-coefficient ranges of the two paths barely overlap")

    b1 = beta1_c[keep]
    lam_c_kept = lam_c[keep]
    lam_en_mapped = np.interp(b1, beta1_e, lam_e)
    en_matched = np.column_stack([
        np.interp(b1, beta1_e, path_e[e_lo:e_hi + 1, col])
        for col in range(path_e.shape[1])
    ])
    clot_matched = path_c[c_lo:c_hi + 1][keep]
    diff = np.linalg.norm(clot_matched - en_matched, axis=1)
    ref = np.linalg.norm(clot_matched, axis=1)

    metadata = {
        "mu": config["mu"], "seed": seed,
        "max_diff": float(diff.max()),
        "max_beta_norm": float(ref.max()),
        "max_first_component_gap": float(np.max(np.abs(clot_matched[:, 0] - en_matched[:, 0]))),
        # matched points run from large to small multipliers, so the mapped
        # multiplier must fall along the sequence
        "lambda_map_monotone": bool(np.all(np.diff(lam_en_mapped) < 0)),
        "n_matched": int(keep.sum()),
    }
    series = {
        "difference": {"lambda_clot": lam_c_kept.tolist(),
                       "norm_diff": diff.tolist(),
                       "clot_norm": ref.tolist()},
        "lambda_map": {"lambda_clot": lam_c_kept.tolist(),
                       "lambda_en": lam_en_mapped.tolist()},
    }
    return StudyReport(name="path_nonequivalence", config=config, metadata=metadata,
                       series=series)


# ---------------------------------------------------------------------------
# scale robustness of exact recovery
# ---------------------------------------------------------------------------


SCALING_PRESETS = {
    # full size keeps m < n/4, as does the CI-friendly small preset
    "full": {"p": 23, "r": 2, "n": 4000},
    "small": {"p": 11, "r": 2, "n": 1000},
}

_SCALING_TRUE = (0.8147, 0.9058, 0.1270)
_SCALING_C = (0, 1, 2, 3, 4)  # the true vector is scaled by 10**c
_SCALING_MU = 0.2


def run_scaling(preset: str = "small") -> StudyReport:
    """Noise-free recovery of a 3-sparse vector scaled by ``10**c``, c = 0..4.

    Both methods share the mixing weight ``mu = 0.2`` on the l1 term: CLOT uses
    ``(1-mu)*l1 + mu*l2`` and the elastic net uses ``(1-mu)*l1 + mu*l2^2``
    (as an EN spec that means ``mu_en = 1 - mu``).  The CLOT estimate must
    simply scale with the data; the elastic net's quadratic term eventually
    dominates and drags the solution away from the scaled truth.
    """
    if preset not in SCALING_PRESETS:
        raise ValueError(f"unknown preset {preset!r}; have {sorted(SCALING_PRESETS)}")
    params = SCALING_PRESETS[preset]
    A = devore_matrix(DeVoreParams(params["p"], params["r"], params["n"]), normalize=False)
    n = A.shape[1]
    x0 = np.zeros(n)
    x0[:3] = _SCALING_TRUE

    mu = _SCALING_MU
    clot_spec = RegularizerSpec.clot(mu)
    en_spec = RegularizerSpec.elastic_net(1.0 - mu)

    records = []
    for c in _SCALING_C:
        x_true = (10.0**c) * x0
        y = A @ x_true
        row = {"c": c}
        for label, spec in (("clot", clot_spec), ("en", en_spec)):
            res = solve_constrained(Problem(A, y, Constrained(0.0)), spec)
            rel = float(np.linalg.norm(res.x_hat - x_true) / np.linalg.norm(x_true))
            row[label] = {
                "rel_err": rel,
                "first3": [float(v) for v in res.x_hat[:3]],
                "converged": bool(res.converged),
                "residual": res.residual_l2,
                "iterations": res.iterations,
            }
        records.append(row)

    tables = {
        "clot_rel_err": {str(r["c"]): r["clot"]["rel_err"] for r in records},
        "en_rel_err": {str(r["c"]): r["en"]["rel_err"] for r in records},
        "en_diverged": {str(r["c"]): (not r["en"]["converged"]) for r in records},
    }
    metadata = {
        "preset": preset, "matrix": dict(params), "mu": mu,
        "m": int(A.shape[0]), "n": int(n),
        "m_lt_n_over_4": bool(A.shape[0] < n / 4),
        "true_first3": list(_SCALING_TRUE),
        "en_convention": "elastic net solved as (1-mu)*l1 + mu*l2^2, i.e. an EN spec with mu_en = 1 - mu",
    }
    return StudyReport(name="scaling", metadata=metadata,
                       config={"c_list": list(_SCALING_C), "preset": preset, "mu": mu},
                       tables=tables, records=records)
