import dataclasses
import math

import numpy as np
import pytest

from pcekit.core import JOINT_LABELS, StratumLabel, TreatmentSequence, as_columns
from pcekit import simulator
from pcekit.errors import ConfigError
from pcekit.simulator import (
    MIN_ORACLE_N,
    DgpConfig,
    TruthTable,
    generate_trial,
    scenario,
    TruthRow,
    scenario_names,
    trial_columns,
    true_pce,
)


@pytest.mark.parametrize(
    "kwargs, text",
    [
        (dict(n_subjects=1), "at least 2"),
        (dict(n_subjects=10, sigma_x=0.0), "sigma_x"),
        (dict(n_subjects=10, sigma=(1.0, 0.0)), "noise scales"),
        (dict(n_subjects=10, eta=(0.0, 0.0, 0.0)), "pair"),
        (dict(n_subjects=10, missing_y_prob=(1.0, 0.0)), "missing_y_prob"),
        (dict(n_subjects=10, missing_y_prob=(-0.1, 0.0)), "missing_y_prob"),
        (dict(n_subjects=10, rho_within=1.5), "rho_within"),
        (dict(n_subjects=10, covariate_name="base"), "x_ column prefix"),
        (dict(n_subjects=10, rho_within=0.8, rho_cross=0.8), "semidefinite"),
    ],
)
def test_config_rejects_bad_knobs(kwargs, text):
    with pytest.raises(ConfigError, match=text):
        DgpConfig(**kwargs)


def test_correlation_matrix_layout():
    cfg = DgpConfig(n_subjects=10, rho_within=0.2, rho_cross=0.3, rho_strata=0.4)
    expected = np.array(
        [
            [1.0, 0.4, 0.2, 0.3],
            [0.4, 1.0, 0.3, 0.2],
            [0.2, 0.3, 1.0, 0.0],
            [0.3, 0.2, 0.0, 1.0],
        ]
    )
    assert np.array_equal(cfg.correlation_matrix(), expected)


def test_generate_trial_is_deterministic():
    cfg = scenario("paper_like", n_subjects=40, seed=123)
    assert generate_trial(cfg) == generate_trial(cfg)
    other = scenario("paper_like", n_subjects=40, seed=124)
    assert generate_trial(cfg) != generate_trial(other)


def test_sequence_split_and_ids():
    records = generate_trial(DgpConfig(n_subjects=11, seed=5))
    ef = sum(r.sequence is TreatmentSequence.EXPERIMENTAL_FIRST for r in records)
    assert ef == 6  # odd n rounds the experimental-first group up
    assert [r.subject_id for r in records][:2] == ["s01", "s02"]
    assert records[-1].subject_id == "s11"
    assert all(r.covariate_names == ("x_base",) for r in records)


def test_carryover_and_period_shift_arithmetic():
    base = DgpConfig(n_subjects=60, seed=9, gamma=(1.0, 3.0), sigma=(2.0, 2.0))
    shifted = DgpConfig(
        n_subjects=60, seed=9, gamma=(1.0, 3.0), sigma=(2.0, 2.0),
        pi_period=5.0, lambda_carry=0.5,
    )
    plain = {r.subject_id: r for r in generate_trial(base)}
    for rec in generate_trial(shifted):
        ref = plain[rec.subject_id]
        assert rec.sequence == ref.sequence
        assert rec.y_p1 == ref.y_p1
        assert rec.y_p2 == (ref.y_p2 + 5.0) + 0.5 * ref.y_p1


def test_missingness_is_per_arm():
    cfg = DgpConfig(n_subjects=400, seed=3, missing_y_prob=(0.9, 0.0))
    records = generate_trial(cfg)
    assert all(r.y_for_arm(1) is not None for r in records)
    missing0 = sum(r.y_for_arm(0) is None for r in records)
    assert 0.8 < missing0 / 400 < 0.97
    # masking never touches adherence
    assert all(r.a_p1 in (0, 1) and r.a_p2 in (0, 1) for r in records)


@pytest.mark.parametrize("name", scenario_names())
@pytest.mark.parametrize("n", [2, 163, 300])
def test_records_and_columns_are_one_draw(name, n):
    cfg = dataclasses.replace(scenario(name, n_subjects=n, seed=n), missing_y_prob=(0.1, 0.2))
    via_records, direct = as_columns(generate_trial(cfg)), trial_columns(cfg)
    assert direct.covariate_names == via_records.covariate_names == ("x_base",)
    assert direct.crossover and len(direct) == n
    for field in ("x", "a", "y"):
        got, want = getattr(direct, field), getattr(via_records, field)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)


def _whole_draw(config: DgpConfig, rng: np.random.Generator, n: int):
    """The population as first drawn: covariates, then all n noise rows in one call."""
    x = config.mu_x + config.sigma_x * rng.standard_normal(n)
    eps = rng.multivariate_normal(np.zeros(4), config.correlation_matrix(), size=n, method="eigh")
    a = np.empty((n, 2), dtype=np.int64)
    y = np.empty((n, 2))
    for t in (0, 1):
        a[:, t] = config.eta[t] + config.beta[t] * x + eps[:, t] > 0.0
        y[:, t] = config.gamma[t] + config.delta[t] * x + config.sigma[t] * eps[:, 2 + t]
    return x, a, y


# accepted knobs for which eigh gives a smallest eigenvalue of about -1.7e-16;
# numpy's factor takes its square root after abs, where clipping it to 0 gives
# another factor. Under rho_strata_one that eigenvector lies on the adherence
# latents alone, so clipping moves no code or outcome; under rho_within_cross_half
# it reaches the outcome noises, and clipping moves their last bits
_EDGE_KNOBS = {
    "rho_strata_one": dict(rho_within=-0.1, rho_cross=-0.1, rho_strata=1.0),
    "rho_within_cross_half": dict(rho_within=0.5, rho_cross=0.5),
}


def _config(name: str, seed: int) -> DgpConfig:
    if name in _EDGE_KNOBS:
        return DgpConfig(n_subjects=2, seed=seed, **_EDGE_KNOBS[name])
    return scenario(name, seed=seed)


@pytest.mark.parametrize("name", scenario_names() + tuple(_EDGE_KNOBS))
def test_chunked_draw_matches_whole_draw_bit_for_bit(name):
    # 8193 and 16385 rows would leave a 1-row chunk under a fixed chunk size;
    # a 1-row product takes another BLAS path and changes the last bits
    for n in (2, 8192, 8193, 10_001, 16_385, 123_457):
        cfg = _config(name, seed=n % 7)
        x, a, y = simulator._draw_population(cfg, np.random.default_rng(n), n)
        x_ref, a_ref, y_ref = _whole_draw(cfg, np.random.default_rng(n), n)
        assert a.dtype == np.int8
        assert np.array_equal(x, x_ref)
        assert np.array_equal(a, a_ref)
        assert np.array_equal(y, y_ref.T)


def _reference_true_pce(config: DgpConfig, oracle_n: int) -> TruthTable:
    """true_pce as first written: the noise drawn whole and one boolean mask per stratum."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1,)))
    _, a, y = _whole_draw(config, rng, oracle_n)
    diff = y[:, 1] - y[:, 0]
    rows = []
    for stratum in JOINT_LABELS:
        mask = (a[:, 0] == stratum.a0) & (a[:, 1] == stratum.a1)
        n_s = int(np.sum(mask))
        if n_s == 1:
            raise ConfigError(f"stratum {stratum} has 1 oracle member")
        p = n_s / oracle_n
        d = diff[mask]
        nan = float("nan")
        rows.append(
            TruthRow(
                stratum=stratum,
                probability=p,
                prob_mc_se=float(np.sqrt(p * (1.0 - p) / oracle_n)),
                mu0=float(np.mean(y[mask, 0])) if n_s else nan,
                mu1=float(np.mean(y[mask, 1])) if n_s else nan,
                pce=float(np.mean(d)) if n_s else nan,
                pce_mc_se=float(np.std(d, ddof=1) / np.sqrt(n_s)) if n_s else nan,
                n_members=n_s,
            )
        )
    return TruthTable(rows=tuple(rows), oracle_n=oracle_n, seed=config.seed)


@pytest.mark.parametrize("name", scenario_names() + tuple(_EDGE_KNOBS))
def test_true_pce_matches_whole_draw_reference_bit_for_bit(name):
    # the noise is drawn in chunks of about 8192 rows; these sizes split unevenly
    for seed in range(6):
        cfg = _config(name, seed=seed)
        for oracle_n in (10_000, 10_001, 16_385, 100_000, 123_457):
            want, got = _reference_true_pce(cfg, oracle_n), true_pce(cfg, oracle_n)
            assert (got.oracle_n, got.seed) == (want.oracle_n, want.seed)
            for g, w in zip(got.rows, want.rows, strict=True):
                for field in TruthRow._fields:
                    gv, wv = getattr(g, field), getattr(w, field)
                    assert type(gv) is type(wv), (name, seed, oracle_n, field)
                    assert gv == wv or (gv != gv and wv != wv), (name, seed, oracle_n, field)


def test_true_pce_table_shape_and_consistency():
    cfg = scenario("paper_like", seed=2)
    truth = true_pce(cfg, oracle_n=20_000)
    assert truth.oracle_n == 20_000
    assert truth.seed == 2
    assert [r.stratum for r in truth.rows] == list(JOINT_LABELS)
    assert sum(r.probability for r in truth.rows) == pytest.approx(1.0, abs=1e-12)
    assert sum(r.n_members for r in truth.rows) == 20_000
    for r in truth.rows:
        assert r.prob_mc_se > 0.0
        assert r.pce_mc_se > 0.0
        assert r.pce == pytest.approx(r.mu1 - r.mu0, abs=1e-9)
    assert true_pce(cfg, oracle_n=20_000) == truth


def test_true_pce_guards():
    cfg = scenario("paper_like", seed=2)
    with pytest.raises(ConfigError, match=str(MIN_ORACLE_N)):
        true_pce(cfg, oracle_n=MIN_ORACLE_N - 1)
    # near-monotone adherence leaves S10 one oracle member: no Monte Carlo SE
    near_monotone = dataclasses.replace(scenario("monotone", seed=12), rho_strata=0.99)
    with pytest.raises(ConfigError, match="1 oracle member"):
        true_pce(near_monotone, oracle_n=MIN_ORACLE_N)


def test_true_pce_empty_stratum_has_probability_zero_and_no_means():
    # perfect monotonicity leaves S10 with no oracle members at all
    truth = true_pce(scenario("monotone", seed=0), oracle_n=MIN_ORACLE_N)
    s10 = truth.row(StratumLabel(1, 0))
    assert (s10.probability, s10.prob_mc_se, s10.n_members) == (0.0, 0.0, 0)
    assert all(math.isnan(v) for v in (s10.mu0, s10.mu1, s10.pce, s10.pce_mc_se))
    others = [r for r in truth.rows if r is not s10]
    assert sum(r.n_members for r in others) == MIN_ORACLE_N
    assert all(math.isfinite(r.pce) and r.pce_mc_se > 0.0 for r in others)


def test_truth_table_access_and_dict():
    truth = true_pce(DgpConfig(n_subjects=10, seed=1, gamma=(0.0, 1.0)), MIN_ORACLE_N)
    assert truth.row(StratumLabel(1, 0)).stratum == StratumLabel(1, 0)

    # the CLI writes this dict as the truth JSON and its strata as CSV rows;
    # tests/test_golden.py freezes both files
    d = truth.to_dict()
    assert d["oracle_n"] == MIN_ORACLE_N
    assert list(d["strata"]) == ["S00", "S01", "S10", "S11"]
    assert d["strata"]["S11"]["pce"] == truth.row(StratumLabel(1, 1)).pce
    assert d["strata"]["S00"]["probability"] == truth.row(StratumLabel(0, 0)).probability


def test_scenario_catalogue():
    assert scenario_names() == (
        "a3p_violated",
        "a3pp_violated",
        "a4p_violated",
        "carryover_heavy",
        "monotone",
        "paper_like",
    )
    cfg = scenario("paper_like")
    assert cfg.n_subjects == 163
    over = scenario("paper_like", n_subjects=50, seed=7)
    assert (over.n_subjects, over.seed) == (50, 7)
    assert (over.eta, over.gamma, over.rho_within) == (cfg.eta, cfg.gamma, cfg.rho_within)
    with pytest.raises(ConfigError, match="unknown scenario"):
        scenario("nope")


def test_config_dict_round_trip():
    cfg = scenario("a4p_violated", n_subjects=77, seed=13)
    d = cfg.to_dict()
    assert d["eta"] == [0.757, 0.95]
    assert DgpConfig.from_dict(d) == cfg
    with pytest.raises(ConfigError, match="unknown config key"):
        DgpConfig.from_dict({**d, "bogus": 1})
    for bad, message in [
        ({}, "lacks the key 'n_subjects'"),
        ({**d, "n_subjects": 40.0}, "'n_subjects' must be int"),
        ({**d, "mu_x": float("nan")}, "'mu_x' must be float"),
        ({**d, "mu_x": 10**400}, "'mu_x' must be float"),
        ({**d, "eta": [0.5, "x"]}, "'eta' must be tuple"),
        ({**d, "covariate_name": 3}, "'covariate_name' must be str"),
        ({**d, "seed": -1}, "seed must be non-negative"),
    ]:
        with pytest.raises(ConfigError, match=message):
            DgpConfig.from_dict(bad)


def test_truth_table_row_of_a_missing_stratum_is_a_key_error():
    row = TruthRow(StratumLabel(0, 0), 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10)
    table = TruthTable(rows=(row,), oracle_n=10, seed=0)
    assert table.row(StratumLabel(0, 0)) is row
    with pytest.raises(KeyError, match="S01"):
        table.row(StratumLabel(0, 1))
