"""Synthetic 2x2 crossover trials with a principal-stratum ground truth.

The generator draws one baseline covariate and a 4-dimensional Gaussian
noise vector per subject (adherence latents for each arm, outcome noises
for each arm). Adherence is a threshold crossing, so the three correlation
knobs translate directly into assumption violations:

* rho_within links an arm's adherence latent to the same arm's outcome
  noise (breaks within-treatment ignorability),
* rho_cross links it to the opposite arm's outcome noise (breaks
  cross-world ignorability),
* rho_strata links the two adherence latents (breaks conditional
  cross-world independence of the potential adherences).

The two outcome noises are uncorrelated by construction. Period effects and
carry-over distort only the observed period outcomes, never the potential
outcomes the truth table is computed from.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (_COVARIATE_PREFIX, JOINT_LABELS, StratumLabel, SubjectRecord, TrialColumns,
                   _period_columns, by_period, crossover_records, stratum_codes)
from .errors import ConfigError

_TRIAL_STREAM = 0
_ORACLE_STREAM = 1

MIN_SUBJECTS = 2
MIN_ORACLE_N = 10_000
# most noise rows per chunk; n rows are split into equal chunks
_NOISE_CHUNK = 8192


@dataclass(frozen=True)
class DgpConfig:
    """Data-generating process for a two-period, two-treatment crossover.

    Per-arm pairs are ordered (control, experimental). The adherence latent
    for arm t is eta[t] + beta[t]*x + noise; the potential outcome is
    gamma[t] + delta[t]*x + sigma[t]*noise. The observed period-2 outcome
    adds pi_period plus lambda_carry times the period-1 outcome.
    """

    n_subjects: int
    seed: int = 0
    mu_x: float = 0.0
    sigma_x: float = 1.0
    eta: tuple[float, float] = (0.0, 0.0)
    beta: tuple[float, float] = (0.0, 0.0)
    gamma: tuple[float, float] = (0.0, 0.0)
    delta: tuple[float, float] = (0.0, 0.0)
    sigma: tuple[float, float] = (1.0, 1.0)
    rho_within: float = 0.0
    rho_cross: float = 0.0
    rho_strata: float = 0.0
    pi_period: float = 0.0
    lambda_carry: float = 0.0
    missing_y_prob: tuple[float, float] = (0.0, 0.0)
    covariate_name: str = "x_base"

    def __post_init__(self) -> None:
        if self.n_subjects < MIN_SUBJECTS:
            raise ConfigError(f"n_subjects must be at least {MIN_SUBJECTS}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.sigma_x <= 0:
            raise ConfigError("sigma_x must be positive")
        for name in ("eta", "beta", "gamma", "delta", "sigma", "missing_y_prob"):
            pair = getattr(self, name)
            if len(pair) != 2:
                raise ConfigError(f"{name} must be a (control, experimental) pair")
        if min(self.sigma) <= 0:
            raise ConfigError("outcome noise scales must be positive")
        for p in self.missing_y_prob:
            if not 0.0 <= p < 1.0:
                raise ConfigError("missing_y_prob entries must be in [0, 1)")
        for name in ("rho_within", "rho_cross", "rho_strata"):
            if abs(getattr(self, name)) > 1.0:
                raise ConfigError(f"{name} must lie in [-1, 1]")
        if not self.covariate_name.startswith(_COVARIATE_PREFIX):
            raise ConfigError(f"covariate_name must carry the {_COVARIATE_PREFIX} column prefix")
        low = float(np.min(np.linalg.eigvalsh(self.correlation_matrix())))
        if low < -1e-9:
            raise ConfigError(
                f"correlation knobs give a non-positive-semidefinite matrix "
                f"(smallest eigenvalue {low:.3e}); weaken one of the rho values"
            )

    def correlation_matrix(self) -> np.ndarray:
        """Noise correlation in (adh0, adh1, out0, out1) order."""
        rw, rc, rs = self.rho_within, self.rho_cross, self.rho_strata
        return np.array(
            [
                [1.0, rs, rw, rc],
                [rs, 1.0, rc, rw],
                [rw, rc, 1.0, 0.0],
                [rc, rw, 0.0, 1.0],
            ]
        )

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        return {k: list(v) if isinstance(v, tuple) else v for k, v in d.items()}

    @classmethod
    def from_dict(cls, d: object) -> "DgpConfig":
        """A config from a decoded JSON object. Keys and value types are
        checked here; value ranges are checked on construction."""
        if not isinstance(d, dict):
            raise ConfigError(f"a config must be a JSON object, not {type(d).__name__}")
        kinds = {f.name: f.type for f in dataclasses.fields(cls)}  # annotation strings
        for k, v in d.items():
            if k not in kinds:
                raise ConfigError(f"unknown config key {k!r}")
            if not _is_kind(v, kinds[k]):
                raise ConfigError(f"config key {k!r} must be {kinds[k]}, got {v!r}")
        if "n_subjects" not in d:
            raise ConfigError("config lacks the key 'n_subjects'")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


def _is_kind(v: object, kind: str) -> bool:
    """Whether a decoded JSON value fits a DgpConfig annotation; floats must be finite."""
    if kind == "str":
        return isinstance(v, str)
    if kind == "tuple[float, float]":
        return isinstance(v, list) and all(_is_kind(e, "float") for e in v)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    if kind == "int":
        return isinstance(v, int)
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _stream(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def _draw_population(
    config: DgpConfig, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Covariates (n,), potential adherence (n, 2) as int8 0/1 by arm, and
    potential outcomes (2, n).

    Every subject's adherence is drawn in both arms, so ``stratum_codes``
    gives each one's joint stratum. The covariates are drawn whole, then the
    noise rows in chunks of the same stream. The noise factor is computed
    once per call, as ``multivariate_normal(method="eigh")`` computes it on
    every call: ``u * sqrt(|s|)`` from ``eigh`` of the correlation matrix.
    Each chunk is its standard normals times the factor's transpose, the
    product numpy takes, and an even split never leaves a 1-row chunk, whose
    product takes another BLAS path. The same factor, the same products and
    the same stream order make every n draw the same bits as one
    ``multivariate_normal`` call; numpy's add of the zero mean could only
    turn a noise value of exactly -0.0 into +0.0. The chunks reuse one set
    of buffers, and the latents, adherence and outcomes are formed in place;
    floating-point sums and products commute, so ``(x*beta + eta) + eps``
    has the bits of ``eta + beta*x + eps``. Finite but huge knobs can
    overflow; that is a ConfigError, not a warning followed by inf or NaN
    draws."""
    s, u = np.linalg.eigh(config.correlation_matrix())
    factor_t = (u * np.sqrt(np.abs(s))).T
    a = np.empty((n, 2), dtype=np.int8)
    y = np.empty((2, n))
    k = -(-n // _NOISE_CHUNK)
    bounds = [i * n // k for i in range(k + 1)]
    rows = -(-n // k)  # the even split's largest chunk
    z_buf, eps_buf = np.empty((rows, 4)), np.empty((rows, 4))
    tmp_buf = np.empty(rows)
    with np.errstate(all="ignore"):
        x = config.mu_x + config.sigma_x * rng.standard_normal(n)
        _require_finite(x, "covariate draws")
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            z, eps = z_buf[: hi - lo], eps_buf[: hi - lo]
            tmp = tmp_buf[: hi - lo]
            rng.standard_normal(out=z)
            np.matmul(z, factor_t, out=eps)
            xc = x[lo:hi]
            for t in (0, 1):
                latent = np.multiply(xc, config.beta[t], out=tmp)
                latent += config.eta[t]
                latent += eps[:, t]
                _require_finite(latent, "adherence latent draws")
                np.greater(latent, 0.0, out=a[lo:hi, t])
                y_t = np.multiply(xc, config.delta[t], out=y[t, lo:hi])
                y_t += config.gamma[t]
                y_t += np.multiply(eps[:, 2 + t], config.sigma[t], out=tmp)
    _require_finite(y, "outcome draws")
    return x, a, y


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{what} are not finite (overflow); use smaller config values")


def trial_columns(config: DgpConfig) -> TrialColumns:
    """One simulated trial as arm-indexed columns, without building records.

    Sequences are randomized 1:1 (EF gets the odd slot). Missingness is
    sampled per arm; carry-over always uses the realized period-1 value even
    when that value is masked."""
    n = config.n_subjects
    rng = _stream(config.seed, _TRIAL_STREAM)
    x, a, y_pot = _draw_population(config, rng, n)
    perm = rng.permutation(n)
    miss = rng.random((n, 2))

    ef = np.zeros(n, dtype=bool)
    ef[perm[: (n + 1) // 2]] = True
    y_p = by_period(ef, np.ascontiguousarray(y_pot.T))  # C order, as loaded columns are
    # the observed period-2 outcome; huge period or carry-over knobs overflow it
    with np.errstate(all="ignore"):
        y_p[:, 1] = y_p[:, 1] + config.pi_period + config.lambda_carry * y_p[:, 0]
    _require_finite(y_p[:, 1], "period-2 outcome draws")
    y_p[by_period(ef, miss < np.asarray(config.missing_y_prob))] = np.nan
    return _period_columns((config.covariate_name,), x, ef, by_period(ef, a), y_p)


def subject_ids(n: int) -> list[str]:
    """The ids of a simulated trial's n subjects: s1 to sn, zero-padded to one width."""
    return [f"s{i:0{len(str(n))}d}" for i in range(1, n + 1)]


def generate_trial(config: DgpConfig) -> list[SubjectRecord]:
    """One simulated trial as records: the draw of ``trial_columns``, by period."""
    return crossover_records(subject_ids(config.n_subjects), trial_columns(config))


class TruthRow(NamedTuple):
    stratum: StratumLabel
    probability: float
    prob_mc_se: float
    mu0: float
    mu1: float
    pce: float
    pce_mc_se: float
    n_members: int


class TruthTable(NamedTuple):
    """Monte Carlo ground truth for a config, from an independent oracle draw."""

    rows: tuple[TruthRow, ...]
    oracle_n: int
    seed: int

    def row(self, stratum: StratumLabel) -> TruthRow:
        for r in self.rows:
            if r.stratum == stratum:
                return r
        raise KeyError(str(stratum))

    def to_dict(self) -> dict:
        return {
            "oracle_n": self.oracle_n,
            "seed": self.seed,
            "strata": {
                str(r.stratum): {k: v for k, v in r._asdict().items() if k != "stratum"}
                for r in self.rows
            },
        }


def true_pce(config: DgpConfig, oracle_n: int = 100_000) -> TruthTable:
    """Stratum probabilities and PCEs from a fresh oracle draw.

    The oracle stream is separate from the trial stream under the same seed,
    so the truth is independent of any generated trial of that config. The
    members are sorted by ``stratum_codes`` of their potential adherence. A
    stratum with no oracle members, such as S10 under monotone adherence,
    gets probability 0, and NaN marks its means and PCE; one with a single
    member has no Monte Carlo SE and is an error.
    """
    if oracle_n < MIN_ORACLE_N:
        raise ConfigError(f"oracle_n must be at least {MIN_ORACLE_N}")
    rng = _stream(config.seed, _ORACLE_STREAM)
    a, y = _draw_population(config, rng, oracle_n)[1:]  # the covariates go before the sort
    # stratum members as contiguous slices, each in draw order, so every sum
    # adds the same elements in the same order as a boolean mask would
    code = stratum_codes(a)
    counts = np.bincount(code, minlength=len(JOINT_LABELS))
    order = np.argsort(code, kind="stable")
    for t in (0, 1):
        y[t] = y[t, order]
    del a, code, order
    rows = []
    lo = 0
    with np.errstate(all="ignore"):  # differences and sums of huge outcomes overflow
        for stratum, n_s in zip(JOINT_LABELS, counts.tolist()):
            if n_s == 1:
                raise ConfigError(
                    f"stratum {stratum} has 1 oracle member, too few for a Monte Carlo "
                    "SE; increase oracle_n or check the config"
                )
            y0, y1 = y[0, lo : lo + n_s], y[1, lo : lo + n_s]
            lo += n_s
            d = y1 - y0
            p = n_s / oracle_n
            nan = float("nan")
            rows.append(
                TruthRow(
                    stratum=stratum,
                    probability=p,
                    prob_mc_se=float(np.sqrt(p * (1.0 - p) / oracle_n)),
                    mu0=float(np.mean(y0)) if n_s else nan,
                    mu1=float(np.mean(y1)) if n_s else nan,
                    pce=float(np.mean(d)) if n_s else nan,
                    pce_mc_se=float(np.std(d, ddof=1) / np.sqrt(n_s)) if n_s else nan,
                    n_members=n_s,
                )
            )
    # an empty stratum's NaNs are its definition, not an overflow
    _require_finite(
        np.array([(r.mu0, r.mu1, r.pce, r.pce_mc_se) for r in rows if r.n_members]),
        "oracle means",
    )
    return TruthTable(rows=tuple(rows), oracle_n=oracle_n, seed=config.seed)


# Preset scenarios. The shared outcome scale loosely mirrors a glucose
# variability endpoint: baseline ~ N(41.3, 22.4^2), changes of a few units
# with ~23-unit noise, adherence near 45% in both arms.
_BASE = dict(
    n_subjects=163,
    mu_x=41.3,
    sigma_x=22.4,
    eta=(0.757, 0.95),
    beta=(-0.0219, -0.0219),
    gamma=(17.25, 18.95),
    delta=(-0.5, -0.5),
    sigma=(22.8, 22.8),
)

_SCENARIOS: dict[str, dict] = {
    # all assumptions hold except within-arm ignorability, which the
    # weighting estimators do not need; monotonicity genuinely fails
    "paper_like": dict(_BASE, rho_within=0.9),
    # shared adherence latent plus a fixed threshold shift: A(1) >= A(0) always
    "monotone": dict(
        _BASE,
        eta=(-2.445, -1.945),
        beta=(0.05, 0.05),
        rho_strata=1.0,
    ),
    # own-arm adherence-outcome dependence only, no treatment effect at all
    "a3p_violated": dict(_BASE, gamma=(17.25, 17.25), delta=(-0.5, -0.5), rho_within=0.9),
    # cross-world adherence-outcome dependence only
    "a3pp_violated": dict(_BASE, rho_cross=0.6),
    # potential adherences correlated beyond what X explains
    "a4p_violated": dict(_BASE, rho_strata=0.8),
    # strong carry-over plus a period shift on top of the paper-like base
    "carryover_heavy": dict(_BASE, rho_within=0.9, pi_period=8.0, lambda_carry=0.5),
}


def scenario_names() -> tuple[str, ...]:
    return tuple(sorted(_SCENARIOS))


def scenario(name: str, n_subjects: int | None = None, seed: int | None = None) -> DgpConfig:
    """A named preset; n_subjects and seed may be overridden."""
    if name not in _SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; choose from {', '.join(scenario_names())}")
    kwargs = dict(_SCENARIOS[name])
    if n_subjects is not None:
        kwargs["n_subjects"] = n_subjects
    if seed is not None:
        kwargs["seed"] = seed
    return DgpConfig(**kwargs)
