"""Experiment runner: config ingestion, canonical experiments, CSV output.

Four experiments are provided, each returning a ResultTable whose metadata
echoes every configuration field, so a table is sufficient to re-run the
experiment that produced it.

  * illposedness_demo: walks the perturbation sequence and tabulates the
    criterion value, the analytic bound, and shape-preservation flags.
  * svd_report: singular value decay of the discretized operator at grid
    sizes 64 and 128.
  * estimator_comparison: naive, Tikhonov, and shape-constrained solves
    under perturbed reduced forms, with error and amplification columns.
  * montecarlo: sampled-mode replications with per-replication and summary
    rows.

Tables are written as RFC-4180-style CSV with '#'-prefixed metadata lines
and 17-significant-digit floats, so emitted values round-trip exactly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import datetime, timezone

import numpy as np

from .counterexamples import (
    FAMILIES,
    MAX_INDEX,
    CounterexampleSpec,
    analytic_sup_A_psi_bound,
    psi,
)
from .dgp import DgpSpec, make_dgp, phi0_on_grid, sample
from .estimators import DegenerateSampleError, sampled_plugin, shifted_solves, solver_suite
from .function_space import (
    DEFAULT_INSPECTION_SIZE,
    ConstraintSet,
    GridFunction,
    ShapeConstraint,
    check_shape,
    l2_norm,
    make_grid,
    sobolev_norm,
)
from .operators import apply, discretize, q_infinity, svd_report

ARTIFACT_VERSION = "0.1.0"

SVD_GRID_SIZES = (64, 128)
COMPARISON_N_VALUES = (0, 1, 2, 5, 10, 20, 50, 100)

# The shapes illposedness_demo checks, in its column order.
DEMO_SHAPES = (
    ShapeConstraint("monotone_nondecreasing"),
    ShapeConstraint("nonnegative"),
    ShapeConstraint("convex"),
)


class ConfigError(ValueError):
    """An experiment configuration violates a validation rule."""


def _flat_fields(obj):
    """(field, value) pairs in declaration order, nested dataclasses inlined."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _flat_fields(value)
        else:
            yield f, value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# What a field's annotation demands of its value (annotations are strings
# under `from __future__ import annotations`).
_TYPE_RULES = {
    "int": ("an integer", lambda v: _is_number(v) and isinstance(v, int)),
    "float": ("a finite number", lambda v: _is_number(v) and math.isfinite(v)),
    "tuple": ("a list", lambda v: isinstance(v, (list, tuple))),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string", lambda v: v is None or isinstance(v, str)),
}


def _check_types(pairs) -> None:
    """Raise ConfigError on the first (field, value) its annotation rejects."""
    for f, value in pairs:
        rule = _TYPE_RULES.get(f.type)
        if rule and not rule[1](value):
            raise ConfigError(f"{f.name} must be {rule[0]}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment needs, validated at construction.

    Validation raises ConfigError with a message naming the violated rule,
    so a bad config is rejected before any computation starts.
    """

    experiment: str
    dgp: DgpSpec = field(default_factory=DgpSpec)
    quadrature_size: int = 128
    inspection_size: int = DEFAULT_INSPECTION_SIZE
    z_size: int = 128
    family: str = "monotone"
    n_max: int = 100
    epsilon: float = 0.1
    ball_radius: float = 0.5
    lambdas: tuple = (1e-4,)
    constraints: tuple = ("monotone_nondecreasing",)
    replications: int = 1
    sample_size: int = 10000
    seed: int = 0
    out: str | None = None

    def __post_init__(self):
        _check_types(_flat_fields(self))
        if self.experiment not in _RUNNERS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"expected one of {tuple(_RUNNERS)}"
            )
        if not isinstance(self.dgp, DgpSpec):
            raise ConfigError("dgp must be a DgpSpec")
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.out is not None and ("\n" in self.out or "\r" in self.out):
            # the path is echoed into the CSV's "# out = ..." line
            raise ConfigError(f"out must not contain a line break, got {self.out!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.quadrature_size < 2 or self.z_size < 2:
            raise ConfigError("quadrature_size and z_size must be at least 2")
        if self.n_max < 0:
            raise ConfigError("n_max must be nonnegative")
        if self.n_max > MAX_INDEX:
            raise ConfigError(
                f"n_max must not exceed {MAX_INDEX} (got {self.n_max}); the "
                "power-law normalizers overflow beyond that index"
            )
        if self.ball_radius <= 0:
            raise ConfigError("ball_radius must be positive")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.epsilon >= self.ball_radius:
            raise ConfigError(
                f"epsilon must lie strictly inside the ball: epsilon="
                f"{self.epsilon} >= ball_radius={self.ball_radius}"
            )
        if not self.lambdas:
            raise ConfigError("lambdas must contain at least one value")
        if not all(_is_number(l) and 0 < l < math.inf for l in self.lambdas):
            raise ConfigError(
                "Tikhonov lambda values must be positive and finite; "
                f"got {self.lambdas}"
            )
        object.__setattr__(self, "lambdas", tuple(map(float, self.lambdas)))
        if len(set(self.lambdas)) < len(self.lambdas):
            raise ConfigError(f"lambdas must be distinct, got {self.lambdas}")
        try:
            # the demo's shapes and the comparison's, on inspection_size nodes
            for shapes in (DEMO_SHAPES, map(ShapeConstraint, self.constraints)):
                ConstraintSet(tuple(shapes), self.inspection_size)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        if self.experiment == "montecarlo" and self.sample_size < 50:
            raise ConfigError("sample_size must be at least 50 for montecarlo")


@dataclass
class ResultTable:
    """An experiment's table. Rows are tuples of cells in column order; the
    runners build them from {column: value} dicts through _table."""

    columns: tuple
    rows: list
    metadata: dict

    def __post_init__(self):
        self.columns = tuple(self.columns)
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row length does not match column count")

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def _echo(value):
    """Metadata form of a field: tuples join with ';'."""
    if not isinstance(value, tuple):
        return "" if value is None else value
    return ";".join(map(_format_cell, value))


def _metadata(cfg: ExperimentConfig) -> dict:
    meta = {"artifact_version": ARTIFACT_VERSION}
    meta.update((f.name, _echo(value)) for f, value in _flat_fields(cfg))
    meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


def _table(cfg: ExperimentConfig, rows: list) -> ResultTable:
    """The table of {column: value} rows, columns in the first row's order."""
    columns = tuple(rows[0])
    return ResultTable(columns, [tuple(row[c] for c in columns) for row in rows], _metadata(cfg))


def _require(cfg: ExperimentConfig, experiment: str):
    if cfg.experiment != experiment:
        raise ConfigError(
            f"config is for experiment {cfg.experiment!r}, not {experiment!r}"
        )


def _grids(cfg: ExperimentConfig):
    """(x_grid, z_grid); one shared grid when the two sizes agree."""
    x_grid = make_grid(cfg.quadrature_size)
    if cfg.z_size == cfg.quadrature_size:
        return x_grid, x_grid
    return x_grid, make_grid(cfg.z_size)


def _problem(cfg: ExperimentConfig, dgp):
    x_grid, z_grid = _grids(cfg)
    phi0 = phi0_on_grid(cfg.dgp, x_grid)
    A = discretize(dgp, x_grid, z_grid)
    r = apply(A, phi0)
    return x_grid, z_grid, phi0, A, r


def run_illposedness_demo(cfg: ExperimentConfig) -> ResultTable:
    """One row per perturbation index n from 0 to n_max.

    l2_dist is the measured distance of the perturbed function from the
    truth (equal to epsilon by the unit norm of the sequence), q_infty the
    population criterion, analytic_bound epsilon^2 bound(n)^2 at the density's
    lattice sup (f_Z is 1; a bound on q_infty that is proved at rho = 0 only),
    sup_A_psi the max of |A psi_n| over the z nodes (at rho != 0 its
    continuum limit is sqrt(2n+1), and it exceeds bound(n) on fine grids),
    and the _ok columns report shape checks of the perturbed function.
    """
    _require(cfg, "illposedness_demo")
    dgp = make_dgp(cfg.dgp)
    density_sup = dgp.sup_fxz
    x_grid, _, phi0, A, r = _problem(cfg, dgp)
    shapes = ConstraintSet(DEMO_SHAPES, cfg.inspection_size)
    rows = []
    for n in range(cfg.n_max + 1):
        cspec = CounterexampleSpec(cfg.family, n)
        direction = psi(cspec, x_grid)
        phi_n = GridFunction(x_grid, phi0.values + cfg.epsilon * direction.values)
        bound = analytic_sup_A_psi_bound(cspec, density_sup)
        monotone_ok, nonneg_ok, convex_ok = check_shape(phi_n, shapes)
        rows.append(
            {
                "n": n,
                "l2_dist": l2_norm(GridFunction(x_grid, phi_n.values - phi0.values)),
                "q_infty": q_infinity(A, phi_n, r),
                "analytic_bound": cfg.epsilon**2 * bound**2,
                "sup_A_psi": float(np.abs(apply(A, direction).values).max()),
                "sobolev_norm_phi_n": sobolev_norm(phi_n),
                "monotone_ok": monotone_ok,
                "nonneg_ok": nonneg_ok,
                "convex_ok": convex_ok,
            }
        )
    return _table(cfg, rows)


def run_svd_report(cfg: ExperimentConfig) -> ResultTable:
    """Singular values of the weighted operator at grid sizes 64 and 128."""
    _require(cfg, "svd_report")
    dgp = make_dgp(cfg.dgp)
    rows = []
    for size in SVD_GRID_SIZES:
        grid = make_grid(size)
        report = svd_report(discretize(dgp, grid, grid))
        for k, sigma in enumerate(report.singular_values, start=1):
            rows.append({"grid_size": size, "k": k, "sigma_k": float(sigma)})
    return _table(cfg, rows)


def run_estimator_comparison(cfg: ExperimentConfig) -> ResultTable:
    """Solver head-to-head under perturbed reduced forms r + eps A psi_n.

    error is the distance of the estimate from the unperturbed truth;
    amplification is the estimate's movement divided by the data
    perturbation norm. Constrained solves that stall or reach the iteration
    cap are flagged through the converged column and the run continues.
    """
    _require(cfg, "estimator_comparison")
    x_grid, _, phi0, A, r = _problem(cfg, make_dgp(cfg.dgp))
    cset = ConstraintSet(tuple(map(ShapeConstraint, cfg.constraints)), cfg.inspection_size)

    def shifts():
        # eps A psi_n, keyed by n and its fz-norm
        for n in [k for k in COMPARISON_N_VALUES if k <= cfg.n_max]:
            shift = cfg.epsilon * apply(A, psi(CounterexampleSpec(cfg.family, n), x_grid)).values
            yield (n, math.sqrt(float(np.dot(A.fz_weights, shift**2)))), shift

    rows = [
        {
            "n": n,
            "lambda": lam,
            "solver": name,
            "error": l2_norm(GridFunction(x_grid, est.phi_hat.values - phi0.values)),
            "amplification": moved / delta if delta > 0 else 0.0,
            "kkt_residual": est.kkt_residual,
            "constraints_ok": all(check_shape(est.phi_hat, cset)),
            "condition_diagnostic": est.condition_diagnostic,
            "converged": est.converged,
        }
        for (n, delta), name, lam, _, est, moved in shifted_solves(
            A, r, solver_suite(cfg.lambdas, cset), shifts()
        )
    ]
    return _table(cfg, rows)


def run_montecarlo(cfg: ExperimentConfig) -> ResultTable:
    """Sampled-mode replications of the naive and Tikhonov solvers.

    Replications run in order; replication i draws a sample at seed + i,
    builds the kernel plug-in operator and reduced form, and records the
    interior reconstruction error (weighted RMS over quadrature nodes in
    [0.1, 0.9], away from boundary bias). Degenerate samples produce rows
    with status 'degenerate' rather than aborting the run. Summary rows
    carry the mean and standard deviation over successful replications.
    """
    _require(cfg, "montecarlo")
    dgp = make_dgp(cfg.dgp)
    x_grid, z_grid = _grids(cfg)
    phi0 = phi0_on_grid(cfg.dgp, x_grid)
    interior = (x_grid.nodes >= 0.1) & (x_grid.nodes <= 0.9)
    weight_sum = float(x_grid.weights[interior].sum())
    m = cfg.sample_size

    def interior_error(phi_hat: GridFunction) -> float:
        err = (phi_hat.values - phi0.values)[interior]
        w = x_grid.weights[interior]
        return math.sqrt(float(np.dot(w, err**2)) / weight_sum)

    def row(kind: str, i: int, lam: float, name: str, error: float, status: str) -> dict:
        return {
            "row_kind": kind, "replication": i, "m": m, "lambda": lam,
            "solver": name, "interior_error": error, "status": status,
        }

    suite = solver_suite(cfg.lambdas, None)
    errors = [[] for _ in suite]  # each solver's errors on the ok replications

    # One replication per call, so its sample and operator (with everything
    # cached on it) are released before the next sample is drawn.
    def replicate(i: int) -> list:
        draws = sample(dgp, m, cfg.seed + i)
        try:
            op, r_hat = sampled_plugin(draws, x_grid, z_grid)
        except DegenerateSampleError:
            return [
                row("replication", i, lam, name, float("nan"), "degenerate")
                for name, lam, _ in suite
            ]
        rows = []
        for (name, lam, solve), errs in zip(suite, errors):
            errs.append(interior_error(solve(op, r_hat).phi_hat))
            rows.append(row("replication", i, lam, name, errs[-1], "ok"))
        return rows

    rows = [cells for i in range(cfg.replications) for cells in replicate(i)]

    for (name, lam, _), errs in zip(suite, errors):
        mean = sd = float("nan")
        if errs:
            mean = float(np.mean(errs))
            sd = float(np.std(errs, ddof=1)) if len(errs) >= 2 else 0.0
        rows.append(row("mean", -1, lam, name, mean, "summary"))
        rows.append(row("sd", -1, lam, name, sd, "summary"))
    return _table(cfg, rows)


_RUNNERS = {
    "illposedness_demo": run_illposedness_demo,
    "svd_report": run_svd_report,
    "estimator_comparison": run_estimator_comparison,
    "montecarlo": run_montecarlo,
}


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    return _RUNNERS[cfg.experiment](cfg)


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def emit_csv(table: ResultTable, path) -> None:
    """Write metadata comment lines, a header row, and data rows.

    Floats are printed at 17 significant digits so parsing the file
    recovers them exactly. Lines end with CRLF.
    """
    try:
        handle = open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path!r}: {exc}") from exc
    with handle:
        for key, value in table.metadata.items():
            handle.write(f"# {key} = {_format_cell(value)}\r\n")
        writer = csv.writer(handle)
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_format_cell(cell) for cell in row])


def load_csv(path):
    """Parse a file written by emit_csv back into (metadata, columns, rows).

    Row cells come back as strings; numeric columns parse exactly with
    float() or int() thanks to the 17-digit output format.
    """
    metadata = {}
    data_lines = []
    with open(path, newline="", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#"):
                # keep any trailing space so empty values still split on " = "
                body = line[1:].strip("\r\n").lstrip()
                key, _, value = body.partition(" = ")
                metadata[key] = value.rstrip()
            else:
                data_lines.append(line)
    reader = csv.reader(data_lines)
    table = list(reader)
    if not table:
        raise ValueError(f"no header row in {path!r}")
    return metadata, tuple(table[0]), [tuple(r) for r in table[1:]]


def config_from_mapping(raw: dict) -> ExperimentConfig:
    """Build a validated config from parsed JSON, rejecting unknown keys."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    keys = {f.name for f in fields(ExperimentConfig)}
    for key in raw:
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r}")
    kwargs = dict(raw)
    dgp_raw = kwargs.pop("dgp", None)
    if dgp_raw is None:
        dgp = DgpSpec()
    elif isinstance(dgp_raw, dict):
        dgp_fields = {f.name: f for f in fields(DgpSpec)}
        for key in dgp_raw:
            if key not in dgp_fields:
                raise ConfigError(f"unknown dgp config key {key!r}")
        _check_types((dgp_fields[key], value) for key, value in dgp_raw.items())
        try:
            dgp = DgpSpec(**dgp_raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid dgp config: {exc}") from exc
    else:
        raise ConfigError("dgp config must be a JSON object")
    if "experiment" not in kwargs:
        raise ConfigError("config must name an experiment")
    try:
        return ExperimentConfig(dgp=dgp, **kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    return config_from_mapping(raw)
