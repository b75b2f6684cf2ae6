"""Acceptance suite: one test per criterion, each printing a pass line.

Tolerances are pinned here and nowhere else.  Timed criteria assert their
stated budgets; training budgets are choices of this suite, recorded in the
configs below.
"""

import json
import math
import statistics
import time

import numpy as np
import scipy.stats

import vifit.autodiff as ad
import vifit.cli as cli
import vifit.families as fam
import vifit.models as mod
import vifit.oracle as orc
import vifit.trainer as tr
from reference import (
    StructuredCov,
    finite_difference_gradient,
    gradient_variance_probe,
    structured_logpdf,
    woodbury_logdet,
    woodbury_solve,
)


def _report(n, detail):
    print(f"ACCEPTANCE {n}: PASS ({detail})")


def test_criterion_1_woodbury_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_solve = worst_logdet = worst_logpdf = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 33))
        k = int(rng.integers(0, min(p, 8) + 1))
        cov = StructuredCov(
            diag=np.exp(rng.standard_normal(p) * 0.7),
            factor=rng.standard_normal((p, k)) * rng.uniform(0.2, 1.5),
        )
        dense = cov.dense()
        v = rng.standard_normal(p)
        expected = np.linalg.solve(dense, v)
        err = np.linalg.norm(woodbury_solve(cov, v) - expected) / np.linalg.norm(expected)
        worst_solve = max(worst_solve, err)

        sign, ld = np.linalg.slogdet(dense)
        assert sign > 0
        denom = max(abs(ld), 1.0)
        worst_logdet = max(worst_logdet, abs(woodbury_logdet(cov) - ld) / denom)

        mean = rng.standard_normal(p)
        theta = rng.standard_normal(p)
        ref = scipy.stats.multivariate_normal(mean=mean, cov=dense).logpdf(theta)
        worst_logpdf = max(
            worst_logpdf, abs(structured_logpdf(theta, mean, cov) - ref) / max(abs(ref), 1.0)
        )
    elapsed = time.perf_counter() - start
    assert worst_solve < 1e-10
    assert worst_logdet < 1e-9
    assert worst_logpdf < 1e-9
    assert elapsed < 5.0
    _report(1, f"solve {worst_solve:.1e}, logdet {worst_logdet:.1e}, "
               f"logpdf {worst_logpdf:.1e}, {elapsed:.1f}s")


def test_criterion_2_gradient_fidelity():
    start = time.perf_counter()
    spec = mod.RbfModelSpec.regular(6, noise_sigma=0.4)
    problem, _ = mod.make_rbf_dataset(spec, 30, seed=102)
    rng = np.random.default_rng(103)
    worst = 0.0
    cases = [
        ("map", {}, "naive"),
        ("mean_field", {}, "paired"),
        ("structured_normal", {"rank": 1}, "naive"),
        ("structured_normal", {"rank": 4}, "paired"),
        ("mixture", {"rank": 2, "components": 2}, "paired"),
    ]
    for tag, kwargs, mode in cases:
        state = fam.init_family(tag, problem.model_shape(), rng, **kwargs)
        psi = fam.pack(state)
        for name, sl in fam.param_slices(state).items():
            if name == "log_a":
                psi[sl] = math.log(0.09)
        state = fam.unpack(state, psi)
        config = tr.TrainConfig(mc_samples=8, mode=mode)
        count = tr._effective_sample_count(state, config)
        noise = fam.draw_noise(
            state, mode, count, np.random.default_rng(104),
            stratify_components=isinstance(state, fam.MixtureState),
        )
        objective = lambda p: tr.elbo_graph(state, p, noise, problem)
        grad = ad.evaluate_with_gradient(objective, psi).gradient
        fd = finite_difference_gradient(objective, psi, step=1e-6)
        mask = np.abs(grad) > 1e-8
        rel = np.abs(grad - fd)[mask] / np.abs(fd)[mask]
        assert rel.max() < 1e-5, (tag, rel.max())
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(2, f"worst relative error {worst:.1e} over {len(cases)} families, {elapsed:.1f}s")


def test_criterion_3_sampling_moments():
    rng = np.random.default_rng(105)
    state = fam.StructuredNormalState(
        mu=rng.standard_normal(6),
        log_a=np.log(np.exp(rng.standard_normal(6) * 0.4) * 0.3),
        u=rng.standard_normal((6, 2)) * 0.6,
    )
    dense = StructuredCov(state.a_diag, state.u).dense()
    n = 200_000

    batch = fam.sample(state, "naive", n, rng)
    cov_err = np.linalg.norm(np.cov(batch.draws.T) - dense) / np.linalg.norm(dense)
    mean_err = np.linalg.norm(batch.draws.mean(axis=0) - state.mu) / np.linalg.norm(state.mu)
    assert cov_err < 2e-2
    assert mean_err < 2e-2

    paired = fam.sample(state, "paired", n, rng)
    twin_means = 0.5 * (paired.draws[0::2] + paired.draws[1::2])
    scale = np.max(np.abs(paired.draws)) + 1.0
    twin_gap = float(np.max(np.abs(twin_means - state.mu)))
    assert twin_gap <= 64 * np.finfo(float).eps * scale  # exact up to round-off

    uns = fam.sample(state, "unscented", n, rng)
    uns_cov_err = np.linalg.norm(np.cov(uns.draws.T) - dense) / np.linalg.norm(dense)
    assert uns_cov_err < 2e-2
    # Per 2K-group the low-rank noise reproduces its covariance exactly.
    k = state.rank
    group = uns.noise.z_lowrank[: 2 * k]
    np.testing.assert_allclose(group.T @ group / (2 * k), np.eye(k), atol=1e-12)
    _report(3, f"naive cov err {cov_err:.3f}, twin gap {twin_gap:.1e}, "
               f"unscented cov err {uns_cov_err:.3f}")


def test_criterion_4_conjugate_recovery():
    start = time.perf_counter()
    spec = mod.RbfModelSpec.regular(5, noise_sigma=0.5)
    problem, _ = mod.make_rbf_dataset(spec, 40, seed=106)
    posterior = orc.exact_linear_posterior(problem)
    evidence = orc.log_evidence(problem)
    state = fam.init_family(
        "structured_normal", problem.model_shape(), np.random.default_rng(107), rank=5
    )
    config = tr.TrainConfig(
        steps=8000, learning_rate=0.02, lr_decay=0.9992, mc_samples=16,
        mode="paired", seed=108,
    )
    trace = tr.train(state, problem, config)
    q = orc.family_to_gaussian(trace.final_state)
    kl = orc.kl_gaussian_gaussian(q, posterior)
    elbo = orc.exact_gaussian_elbo(problem, q)
    elapsed = time.perf_counter() - start
    assert abs(evidence - elbo) < 0.1
    assert kl < 0.05
    assert elapsed < 120.0
    _report(4, f"ELBO gap {evidence - elbo:.4f} nat, KL[q||p*] {kl:.4f} nat, {elapsed:.0f}s")


def test_criterion_5_gaussian_fit_ordering():
    start = time.perf_counter()
    kl: dict = {}
    for seed in (0, 1, 2):
        report = cli.cmd_fit_gaussian(cli.FitGaussianConfig(seed=seed))
        for f in report.families:
            kl.setdefault(f.family, []).append(f.metrics.get("kl_p_q"))
    assert all(v == math.inf for v in kl["map"])
    order = ["map", "mf", "sn1", "sn2", "sn4", "sn8"]
    medians = {k: statistics.median(kl[k]) for k in order}
    pairs = list(zip(order[:-1], order[1:]))
    decreasing = sum(medians[a] > medians[b] for a, b in pairs)
    elapsed = time.perf_counter() - start
    assert decreasing >= 4, medians
    assert medians["sn8"] < 0.5
    assert elapsed < 600.0
    _report(5, f"{decreasing}/5 adjacent pairs decreasing, "
               f"sn8 median KL {medians['sn8']:.4f}, {elapsed:.0f}s")


def test_criterion_6_rbf_table():
    start = time.perf_counter()
    kl: dict = {}
    logq: dict = {}
    for seed in (0, 1, 2):
        report = cli.cmd_rbf(cli.RbfConfig(seed=seed))
        for f in report.families:
            kl.setdefault(f.family, []).append(f.metrics.get("kl_p_q"))
            logq.setdefault(f.family, []).append(f.metrics.get("logq_theta_star"))
    for atomic in ("map", "mc_dropout"):
        assert all(v == math.inf for v in kl[atomic])
        assert all(v == -math.inf for v in logq[atomic])
    gaussians = ["mf", "sn1", "sn2", "sn4", "sn10"]
    for g in gaussians:
        assert all(math.isfinite(v) for v in logq[g]), g
    medians = {g: statistics.median(kl[g]) for g in gaussians}
    elapsed = time.perf_counter() - start
    assert medians["sn10"] == min(medians.values()), medians
    assert elapsed < 600.0
    _report(6, f"sn10 median KL[p*||q] {medians['sn10']:.4f} is smallest, {elapsed:.0f}s")


def test_criterion_7_dropout_exactness():
    spec = mod.RbfModelSpec.regular(10, noise_sigma=0.25)
    problem, truth = mod.make_rbf_dataset(spec, 64, seed=109)
    rng = np.random.default_rng(110)
    state = fam.DropoutState(
        theta_hat=rng.standard_normal(10), keep_prob=0.5, droppable=np.ones(10, bool)
    )
    mixture = fam.enumerate_dropout(state)
    assert mixture.n_atoms == 1024
    assert abs(mixture.weights.sum() - 1.0) < 1e-12
    assert not np.any(np.all(mixture.atoms == truth.theta_star, axis=1))

    x_star = np.linspace(-0.9, 0.9, 5)
    exact = orc.dropout_predictive_exact(state, problem, x_star)
    n = 100_000
    batch = fam.sample(state, "naive", n, rng)
    preds = batch.draws @ problem.features(x_star).T
    ys = preds + problem.noise_sigma * rng.standard_normal(preds.shape)
    mean_se = ys.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(ys.mean(axis=0) - exact.mean()) < 3 * mean_se)

    sample_var = ys.var(axis=0, ddof=1)
    m4 = ((ys - ys.mean(axis=0)) ** 4).mean(axis=0)
    var_se = np.sqrt((m4 - sample_var**2 * (n - 3) / (n - 1)) / n)
    assert np.all(np.abs(sample_var - exact.variance()) < 3 * var_se)

    # p = 1: a single atom at theta_hat (the MAP reduction), exactly.
    one = fam.DropoutState(
        theta_hat=state.theta_hat, keep_prob=1.0, droppable=state.droppable
    )
    mix1 = fam.enumerate_dropout(one)
    live = mix1.weights > 0
    assert live.sum() == 1
    np.testing.assert_array_equal(mix1.atoms[live][0], state.theta_hat)
    assert mix1.weights[live][0] == 1.0

    # p = 0: all mass at the zero model, exactly.
    zero = fam.DropoutState(
        theta_hat=state.theta_hat, keep_prob=0.0, droppable=state.droppable
    )
    mix0 = fam.enumerate_dropout(zero)
    live = mix0.weights > 0
    assert live.sum() == 1
    np.testing.assert_array_equal(mix0.atoms[live][0], np.zeros(10))
    _report(7, "1024 atoms, weights sum 1, predictive matches MC within 3 SE, "
               "p=1/p=0 reductions exact")


def test_criterion_8_variance_reduction_and_unbiasedness():
    spec = mod.RbfModelSpec.regular(5, noise_sigma=0.5)
    problem, _ = mod.make_rbf_dataset(spec, 40, seed=111)
    rng = np.random.default_rng(112)
    state = fam.StructuredNormalState(
        mu=rng.standard_normal(5) * 0.3,
        log_a=np.log(np.full(5, 0.09)),
        u=rng.standard_normal((5, 2)) * 0.3,
    )
    probes = {
        mode: gradient_variance_probe(
            state, problem, mode, 1000, np.random.default_rng(113 + i)
        )
        for i, mode in enumerate(("naive", "paired", "unscented"))
    }
    mean_idx = fam.param_slices(state)["mu"]
    frac = np.mean(
        probes["paired"].variance[mean_idx] <= probes["naive"].variance[mean_idx]
    )
    assert frac >= 0.95

    for a in probes:
        for b in probes:
            gap = np.abs(probes[a].mean - probes[b].mean)
            bound = 4 * np.sqrt(
                probes[a].std_error() ** 2 + probes[b].std_error() ** 2
            ) + 1e-10
            assert np.all(gap <= bound), (a, b)
    _report(8, f"paired <= naive on {frac:.0%} of mean coordinates; "
               "all three modes agree within 4 SE")


def test_criterion_9_multimodality():
    start = time.perf_counter()
    gains = []
    for seed in (0, 1, 2):
        config = cli.FitGaussianConfig(
            dim=2, ranks=(0, 1, 2), steps=3000, seed=seed, bimodal=True,
            kl_mc_samples=50_000,
        )
        report = cli.cmd_fit_gaussian(config)
        rows = {f.family: f.metrics for f in report.families}
        best_unimodal = min(rows[k]["kl_q_p"] for k in rows if k != "sgmm")
        gains.append(best_unimodal - rows["sgmm"]["kl_q_p"])
    median_gain = statistics.median(gains)
    elapsed = time.perf_counter() - start
    assert median_gain >= 0.5, gains
    _report(9, f"median KL[q||p] gain of sGMM over best sN: {median_gain:.3f} nat, "
               f"{elapsed:.0f}s")


def test_criterion_10_cli_determinism(tmp_path):
    commands = [
        ("fit-gaussian", {"dim": 3, "ranks": [0, 3], "steps": 200, "kl_mc_samples": 5000}),
        ("rbf", {"n_basis": 4, "n_data": 30, "ranks": [0, 4], "steps": 200, "grid_points": 21}),
        ("dropout-audit", {"n_droppable": 5, "steps": 100, "mc_draws": 5000}),
    ]
    for command, config in commands:
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(config))
        tables = []
        for run in ("a", "b"):
            out = tmp_path / f"{command}-{run}"
            rc = cli.main(
                [command, "--config", str(cfg_path), "--seed", "21",
                 "--out", str(out), "--formats", "json,csv"]
            )
            assert rc == 0
            tables.append((out / "tables.csv").read_bytes())
        assert tables[0] == tables[1], command
    _report(10, "all three commands byte-identical on rerun")
