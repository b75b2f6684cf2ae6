"""Family contract tests: init, sampling modes, densities, enumeration."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

import vifit.families as fam
import vifit.oracle as orc
from vifit.lowrank import StructuredCov, structured_logpdf

def make_sn(rng, p=4, k=2, scale=0.4):
    return fam.StructuredNormalState(
        mu=rng.standard_normal(p),
        log_a=np.log(scale**2) + 0.3 * rng.standard_normal(p),
        u=rng.standard_normal((p, k)) * 0.5,
    )


def stack_mixture(components, weight_logits):
    """An sGMM state whose components are the given structured normals."""
    return fam.MixtureState(
        mu=np.array([c.mu for c in components]),
        log_a=np.array([c.log_a for c in components]),
        u=np.array([c.u for c in components]),
        weight_logits=np.asarray(weight_logits, dtype=np.float64),
    )


def components(state):
    """An sGMM's components as structured normals over views of its stacked
    arrays; any other state as its own one component."""
    if state.tag != "mixture":
        return (state,)
    return tuple(
        fam.StructuredNormalState(mu=state.mu[m], log_a=state.log_a[m], u=state.u[m])
        for m in range(state.n_components)
    )


def closed_form_draws(state, noise):
    """θ̂ ⊙ mask, or mean + scale ⊙ z_diag + z_lowrank Uᵀ from each row's own
    component: every component drawn at every row, each row's own kept."""
    if state.tag in fam.ATOMIC_TAGS:
        return state.theta_hat * noise.masks
    every = [
        c.mu + c.sigma * noise.z_diag
        if c.tag == "mean_field"
        else c.mu + np.exp(0.5 * c.log_a) * noise.z_diag + noise.z_lowrank @ c.u.T
        for c in components(state)
    ]
    own = 0 if noise.components is None else noise.components
    return np.array(every)[own, np.arange(noise.count)]


# -----------------------------------------------------------------------
# init_family


def test_init_shapes_and_finiteness():
    rng = np.random.default_rng(0)
    st = fam.init_family("map", 3, rng)
    assert st.theta_hat.shape == (3,)
    assert np.all(np.isfinite(st.theta_hat))


def test_init_same_seed_identical():
    a = fam.init_family("mixture", 4, np.random.default_rng(7), rank=2)
    b = fam.init_family("mixture", 4, np.random.default_rng(7), rank=2)
    np.testing.assert_array_equal(fam.pack(a), fam.pack(b))


def test_init_unknown_tag():
    with pytest.raises(ValueError, match="unknown family tag"):
        fam.init_family("laplace", 4, np.random.default_rng(0))


def test_init_bounds_follow_fan_in():
    # Every coordinate has fan-in p = 100: means in ±1/√p, scales 0.05/√p.
    st = fam.init_family("mean_field", 100, np.random.default_rng(1))
    assert np.all(np.abs(st.mu) <= 0.1)
    np.testing.assert_allclose(st.sigma, 0.05 * 0.1)


def test_rank_zero_structured_matches_mean_field():
    rng = np.random.default_rng(2)
    sn = fam.init_family("structured_normal", 4, rng, rank=0)
    mf = fam.MeanFieldState(mu=sn.mu.copy(), log_sigma=0.5 * sn.log_a.copy())
    theta = np.random.default_rng(3).standard_normal((6, 4))
    np.testing.assert_allclose(
        fam.log_density(sn, theta), fam.log_density(mf, theta), rtol=1e-12
    )
    assert math.isclose(
        orc.family_to_gaussian(sn).entropy(), orc.family_to_gaussian(mf).entropy(), rel_tol=1e-12
    )
    noise = fam.draw_noise(sn, "naive", 5, np.random.default_rng(4))
    draws_sn = fam.sample(sn, "naive", 5, np.random.default_rng(4)).draws
    draws_mf = fam.sample(mf, "naive", 5, np.random.default_rng(4)).draws
    np.testing.assert_allclose(draws_sn, closed_form_draws(sn, noise), rtol=1e-12)
    np.testing.assert_allclose(draws_sn, draws_mf, rtol=1e-12)


# -----------------------------------------------------------------------
# sampling


def test_map_sampling_returns_point_estimate():
    st = fam.init_family("map", 4, np.random.default_rng(5))
    batch = fam.sample(st, "naive", 7, np.random.default_rng(6))
    assert batch.draws.shape == (7, 4)
    assert np.all(batch.draws == st.theta_hat)


def test_paired_twins_average_to_mean():
    rng = np.random.default_rng(8)
    st = make_sn(rng)
    batch = fam.sample(st, "paired", 2, np.random.default_rng(9))
    twin_mean = 0.5 * (batch.draws[0] + batch.draws[1])
    scale = np.max(np.abs(batch.draws)) + 1.0
    np.testing.assert_allclose(twin_mean, st.mu, rtol=0, atol=64 * np.finfo(float).eps * scale)


def test_paired_noise_is_exactly_negated():
    rng = np.random.default_rng(10)
    st = make_sn(rng)
    noise = fam.draw_noise(st, "paired", 8, rng)
    np.testing.assert_array_equal(noise.z_diag[1::2], -noise.z_diag[0::2])
    np.testing.assert_array_equal(noise.z_lowrank[1::2], -noise.z_lowrank[0::2])


def test_dropout_draws_live_on_atoms_with_expected_frequencies():
    theta_hat = np.array([1.5, -2.0])
    st = fam.DropoutState(theta_hat=theta_hat, keep_prob=0.5, droppable=np.ones(2, bool))
    batch = fam.sample(st, "naive", 40_000, np.random.default_rng(11))
    atoms = fam.enumerate_dropout(st).atoms
    counts = np.zeros(4)
    for i, atom in enumerate(atoms):
        counts[i] = np.all(batch.draws == atom, axis=1).sum()
    assert counts.sum() == 40_000  # every draw is one of the four atoms
    np.testing.assert_allclose(counts / 40_000, 0.25, atol=0.01)


def test_mode_family_mismatch_errors():
    rng = np.random.default_rng(12)
    with pytest.raises(fam.ModeFamilyError):
        fam.sample(fam.init_family("map", 4, rng), "paired", 2, rng)
    with pytest.raises(fam.ModeFamilyError):
        fam.sample(fam.init_family("mc_dropout", 4, rng), "unscented", 2, rng)
    with pytest.raises(fam.ModeFamilyError):
        fam.sample(fam.init_family("mean_field", 4, rng), "unscented", 2, rng)
    with pytest.raises(ValueError, match="even"):
        fam.sample(make_sn(rng), "paired", 3, rng)
    with pytest.raises(ValueError, match="multiple"):
        fam.sample(make_sn(rng, k=2), "unscented", 6, rng)


def test_unscented_group_reproduces_lowrank_covariance_exactly():
    rng = np.random.default_rng(13)
    st = make_sn(rng, p=5, k=3)
    noise = fam.draw_noise(st, "unscented", 6, rng)
    # Within one group the low-rank noise second moment is exactly the identity.
    second = noise.z_lowrank.T @ noise.z_lowrank / 6
    np.testing.assert_allclose(second, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(noise.z_lowrank.mean(axis=0), 0.0, atol=1e-15)
    np.testing.assert_array_equal(noise.z_diag[1::2], -noise.z_diag[0::2])


def test_sampling_moments_structured():
    rng = np.random.default_rng(14)
    st = make_sn(rng, p=5, k=2)
    batch = fam.sample(st, "naive", 200_000, rng)
    dense = st.cov().dense()
    emp = np.cov(batch.draws.T)
    assert np.linalg.norm(emp - dense) / np.linalg.norm(dense) < 2e-2


def test_mixture_sampling_uses_weights():
    rng = np.random.default_rng(15)
    comp_a = fam.StructuredNormalState(
        mu=np.array([-5.0]), log_a=np.array([-3.0]), u=np.zeros((1, 0))
    )
    comp_b = fam.StructuredNormalState(
        mu=np.array([5.0]), log_a=np.array([-3.0]), u=np.zeros((1, 0))
    )
    st = stack_mixture((comp_a, comp_b), np.log(np.array([0.2, 0.8])))
    batch = fam.sample(st, "naive", 50_000, rng)
    frac_b = float(np.mean(batch.draws[:, 0] > 0))
    assert abs(frac_b - 0.8) < 0.01


def test_mixture_row_is_realized_from_its_own_component_only():
    # Component b's draws overflow to ±inf.  Realizing b at a's rows and
    # masking by 0 would make those rows inf · 0 = NaN.
    rng = np.random.default_rng(23)
    comp_a = make_sn(rng, p=3, k=2)
    comp_b = fam.StructuredNormalState(
        mu=np.full(3, 1e308), log_a=np.full(3, 2 * math.log(1e308)), u=np.full((3, 2), 1e308)
    )
    st = stack_mixture((comp_a, comp_b), np.zeros(2))
    with np.errstate(over="ignore", invalid="ignore"):
        batch = fam.sample(st, "naive", 1000, rng)
    noise = batch.noise
    own = noise.components == 0
    scale = np.exp(0.5 * comp_a.log_a)
    expected = comp_a.mu + scale * noise.z_diag[own] + noise.z_lowrank[own] @ comp_a.u.T
    assert 0 < own.sum() < 1000
    assert np.all(np.isfinite(batch.draws[own]))
    np.testing.assert_array_equal(batch.draws[own], expected)


# -----------------------------------------------------------------------
# log densities


def test_single_component_mixture_equals_structured_density():
    rng = np.random.default_rng(16)
    comp = make_sn(rng)
    st = stack_mixture((comp,), np.zeros(1))
    theta = rng.standard_normal(4)
    assert abs(fam.log_density(st, theta) - fam.log_density(comp, theta)) < 1e-12


def test_dropout_all_ones_atom_log_weight():
    st = fam.DropoutState(
        theta_hat=np.array([0.3, -0.7, 1.1]),
        keep_prob=0.6,
        droppable=np.ones(3, bool),
    )
    assert math.isclose(
        fam.log_density(st, st.theta_hat), 3 * math.log(0.6), rel_tol=1e-12
    )


def test_mean_field_density_at_mean_unit_sigma():
    p = 3
    st = fam.MeanFieldState(mu=np.zeros(p), log_sigma=np.zeros(p))
    assert math.isclose(
        fam.log_density(st, np.zeros(p)), -0.5 * p * math.log(2 * math.pi), rel_tol=1e-12
    )


def test_map_density_on_and_off_atom():
    st = fam.MapState(theta_hat=np.array([1.0, 2.0]))
    assert fam.log_density(st, st.theta_hat) == 0.0
    assert fam.log_density(st, np.array([1.0, 2.1])) == -math.inf


def test_dropout_off_atom_density_is_minus_inf():
    st = fam.DropoutState(
        theta_hat=np.array([1.0, 2.0]), keep_prob=0.5, droppable=np.ones(2, bool)
    )
    assert fam.log_density(st, np.array([1.0, 0.0])) == math.log(0.25)
    assert fam.log_density(st, np.array([0.5, 2.0])) == -math.inf


def test_bias_coordinates_never_dropped():
    st = fam.DropoutState(
        theta_hat=np.random.default_rng(17).uniform(-1.0, 1.0, 4),
        keep_prob=0.5,
        droppable=[1, 1, 1, 0],
    )
    assert st.droppable.tolist() == [True, True, True, False]
    batch = fam.sample(st, "naive", 500, np.random.default_rng(18))
    np.testing.assert_array_equal(batch.draws[:, 3], st.theta_hat[3])
    mixture = fam.enumerate_dropout(st)
    assert mixture.n_atoms == 8
    np.testing.assert_array_equal(mixture.atoms[:, 3], st.theta_hat[3])


def test_rotation_of_factor_leaves_density_invariant():
    rng = np.random.default_rng(19)
    st = make_sn(rng, p=6, k=3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = fam.StructuredNormalState(mu=st.mu, log_a=st.log_a, u=st.u @ q)
    theta = rng.standard_normal((5, 6))
    np.testing.assert_allclose(
        fam.log_density(st, theta), fam.log_density(rotated, theta), rtol=1e-9
    )


def test_density_normalization_by_quadrature():
    rng = np.random.default_rng(20)
    grid = np.linspace(-10, 10, 501)
    xx, yy = np.meshgrid(grid, grid, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)

    mf = fam.MeanFieldState(mu=np.array([0.4, -0.2]), log_sigma=np.log([0.8, 1.3]))
    sn = fam.StructuredNormalState(
        mu=np.array([0.1, 0.5]), log_a=np.log([0.5, 0.9]), u=np.array([[0.7], [-0.4]])
    )
    mix = fam.MixtureState(
        mu=np.array([[-1.5, 0.0], [1.5, 1.0]]),
        log_a=np.log([[0.4, 0.6], [0.7, 0.3]]),
        u=np.zeros((2, 2, 0)),
        weight_logits=np.array([0.3, -0.2]),
    )
    for state in (mf, sn, mix):
        dens = np.exp(fam.log_density(state, pts)).reshape(xx.shape)
        total = np.trapezoid(np.trapezoid(dens, grid, axis=1), grid)
        assert abs(total - 1.0) < 1e-4, state.tag

    # 1-D case
    xs = np.linspace(-12, 12, 4001)
    st1 = fam.MeanFieldState(mu=np.array([0.2]), log_sigma=np.array([0.1]))
    total = np.trapezoid(np.exp(fam.log_density(st1, xs[:, None])), xs)
    assert abs(total - 1.0) < 1e-4


def test_mean_log_density_matches_negative_entropy():
    rng = np.random.default_rng(21)
    st = make_sn(rng, p=4, k=2)
    n = 100_000
    batch = fam.sample(st, "naive", n, rng)
    logq = fam.log_density(st, batch.draws)
    se = logq.std(ddof=1) / math.sqrt(n)
    assert abs(logq.mean() + orc.family_to_gaussian(st).entropy()) < 3 * se


# -----------------------------------------------------------------------
# entropy


def test_entropy_values():
    def entropy(state):
        return orc.family_to_gaussian(state).entropy()

    st = fam.MeanFieldState(mu=np.zeros(1), log_sigma=np.zeros(1))
    assert math.isclose(entropy(st), 0.5 * math.log(2 * math.pi * math.e), rel_tol=1e-12)
    sn = fam.StructuredNormalState(
        mu=np.zeros(2), log_a=np.log([0.5, 2.0]), u=np.zeros((2, 0))
    )
    mf = fam.MeanFieldState(mu=np.zeros(2), log_sigma=0.5 * np.log([0.5, 2.0]))
    assert math.isclose(entropy(sn), entropy(mf), rel_tol=1e-12)
    # ½ log det(2πe Σ) with Σ = diag(0.5, 2): log det Σ = 0.
    assert math.isclose(entropy(sn), math.log(2 * math.pi * math.e), rel_tol=1e-12)


# -----------------------------------------------------------------------
# dropout enumeration


def test_enumerate_counts():
    rng = np.random.default_rng(23)
    st2 = fam.init_family("mc_dropout", 2, rng)
    assert fam.enumerate_dropout(st2).n_atoms == 4
    st10 = fam.init_family("mc_dropout", 10, rng)
    mixture = fam.enumerate_dropout(st10)
    assert mixture.n_atoms == 1024
    assert abs(mixture.weights.sum() - 1.0) < 1e-12


def test_enumerate_guard():
    st = fam.DropoutState(
        theta_hat=np.zeros(25), keep_prob=0.5, droppable=np.ones(25, bool)
    )
    with pytest.raises(ValueError, match="guard"):
        fam.enumerate_dropout(st)


def test_keep_prob_one_reduces_to_map():
    rng = np.random.default_rng(24)
    st = fam.DropoutState(
        theta_hat=rng.standard_normal(4), keep_prob=1.0, droppable=np.ones(4, bool)
    )
    mixture = fam.enumerate_dropout(st)
    live = mixture.weights > 0
    assert live.sum() == 1
    np.testing.assert_array_equal(mixture.atoms[live][0], st.theta_hat)
    batch = fam.sample(st, "naive", 50, rng)
    assert np.all(batch.draws == st.theta_hat)


def test_keep_prob_zero_all_mass_at_origin():
    st = fam.DropoutState(
        theta_hat=np.array([1.0, -2.0]), keep_prob=0.0, droppable=np.ones(2, bool)
    )
    mixture = fam.enumerate_dropout(st)
    live = mixture.weights > 0
    assert live.sum() == 1
    np.testing.assert_array_equal(mixture.atoms[live][0], np.zeros(2))


def test_no_atom_coincides_with_continuous_truth():
    # A fresh standard-normal parameter vector differs from every dropout atom.
    rng = np.random.default_rng(25)
    st = fam.init_family("mc_dropout", 10, rng, keep_prob=0.5)
    mixture = fam.enumerate_dropout(st)
    theta_star = rng.standard_normal(10)
    assert not np.any(np.all(mixture.atoms == theta_star, axis=1))
    assert fam.log_density(st, theta_star) == -math.inf


def bit_table_enumeration(state):
    """Reference enumeration through an explicit (2^{P_d}, P_d) bit table."""
    pd = state.n_droppable
    n = 1 << pd
    ints = np.arange(n, dtype=np.uint32)
    bits = ((ints[:, None] >> np.arange(pd, dtype=np.uint32)) & 1).astype(np.float64)
    ones = bits.sum(axis=1)
    weights = state.keep_prob**ones * (1.0 - state.keep_prob) ** (pd - ones)
    atoms = np.tile(state.theta_hat, (n, 1))
    index = np.flatnonzero(state.droppable)
    atoms[:, index] = state.theta_hat[index] * bits
    return weights, atoms


@hst.composite
def enumeration_case(draw):
    p = draw(hst.integers(1, 12))
    magnitude = hst.floats(-3.0, 3.0).map(lambda e: 10.0**e)
    signed = hst.tuples(hst.sampled_from([1.0, -1.0]), magnitude).map(lambda t: t[0] * t[1])
    coord = hst.sampled_from([0.0, -0.0]) | signed
    theta_hat = np.array(draw(hst.lists(coord, min_size=p, max_size=p)))
    droppable = np.array(draw(hst.lists(hst.booleans(), min_size=p, max_size=p)))
    keep_prob = draw(hst.sampled_from([0.0, 0.5, 1.0]) | hst.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(hst.integers(0, 2**16)))
    features = rng.standard_normal((draw(hst.integers(1, 5)), p))
    state = fam.DropoutState(theta_hat=theta_hat, keep_prob=keep_prob, droppable=droppable)
    return state, features


@given(enumeration_case())
def test_enumeration_by_doubling_matches_the_bit_table(case):
    state, features = case
    weights, atoms = bit_table_enumeration(state)
    mixture = fam.enumerate_dropout(state)
    assert mixture.n_atoms == 2**state.n_droppable
    np.testing.assert_array_equal(mixture.weights.view(np.int64), weights.view(np.int64))
    assert np.all(mixture.atoms == atoms)  # == treats the signed zeros alike
    # Relative to the largest |image| any atom can have.
    scale = np.max(np.abs(features) @ np.abs(state.theta_hat))
    images = np.concatenate([images for _, images in mixture.blocks(features)])
    err = np.max(np.abs(images - atoms @ features.T))
    assert err <= 1e-15 * scale


def test_nothing_droppable_is_one_atom_of_weight_one():
    theta_hat = np.array([1.5, -0.25])
    st = fam.DropoutState(theta_hat=theta_hat, keep_prob=0.5, droppable=np.zeros(2, bool))
    mixture = fam.enumerate_dropout(st)
    np.testing.assert_array_equal(mixture.weights, [1.0])
    np.testing.assert_array_equal(mixture.atoms, [theta_hat])


@pytest.mark.parametrize("pd", [3, 14], ids=["one-block", "two-blocks"])
def test_cached_tables_are_read_only(pd):
    # With one block of atoms (P_d <= 13) or more, the cached atoms and
    # weights, which every caller shares, cannot be written.
    assert (1 << pd > fam.BLOCK_ROWS) == (pd > 13)
    st = fam.DropoutState(
        theta_hat=np.random.default_rng(31).uniform(-1.0, 1.0, pd),
        keep_prob=0.5,
        droppable=np.ones(pd, bool),
    )
    mixture = fam.enumerate_dropout(st)
    for table in (mixture.atoms, mixture.weights):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0


# -----------------------------------------------------------------------
# serialization


def document_psi(doc: dict) -> np.ndarray:
    """A ``state_to_json_dict`` document's trained arrays concatenated in
    layout order."""
    return np.concatenate([doc[name] for name in expected_names(doc["family"])])


@pytest.mark.parametrize(
    "tag,kwargs",
    [
        ("map", {}),
        ("mean_field", {}),
        ("structured_normal", {"rank": 2}),
        ("mixture", {"rank": 1, "components": 3}),
        ("mc_dropout", {"keep_prob": 0.37}),
    ],
)
def test_json_round_trip_lossless(tag, kwargs):
    st = fam.init_family(tag, 4, np.random.default_rng(26), **kwargs)
    doc = fam.state_to_json_dict(st)
    assert json.loads(json.dumps(doc)) == doc
    assert doc["family"] == tag
    assert doc["p"] == 4
    np.testing.assert_array_equal(document_psi(doc), fam.pack(st))


def test_structured_density_consistent_with_lowrank_module():
    rng = np.random.default_rng(27)
    st = make_sn(rng, p=5, k=2)
    theta = rng.standard_normal(5)
    expected = structured_logpdf(
        theta, st.mu, StructuredCov(diag=np.exp(st.log_a), factor=st.u)
    )
    np.testing.assert_allclose(fam.log_density(st, theta), expected, rtol=1e-12)


# -----------------------------------------------------------------------
# flat parameter layout, over generated families


def expected_names(tag):
    return {
        "map": ["theta_hat"],
        "mc_dropout": ["theta_hat"],
        "mean_field": ["mu", "log_sigma"],
        "structured_normal": ["mu", "log_a", "u"],
        "mixture": ["mu", "log_a", "u", "weight_logits"],
    }[tag]


@hst.composite
def family_case(draw):
    """(template, psi): a generated family state and a random flat vector."""
    tag = draw(hst.sampled_from(list(fam.FAMILIES)))
    p = draw(hst.integers(1, 6))
    k = draw(hst.integers(0, 3))
    m = draw(hst.integers(1, 3))
    seed = draw(hst.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    kwargs = {"rank": k, "components": m, "keep_prob": float(rng.uniform())}
    template = fam.init_family(tag, p, rng, **kwargs)
    if tag == "mc_dropout":
        template.droppable = rng.random(p) < 0.5
    psi = rng.standard_normal(fam.pack(template).size)
    return template, psi


def trained_arrays(state):
    """Trained arrays by name, read off the state's attributes."""
    return {name: getattr(state, name) for name in expected_names(state.tag)}


def assert_same_untrained(a, b):
    assert type(a) is type(b)
    if isinstance(a, fam.DropoutState):
        assert a.keep_prob == b.keep_prob
        np.testing.assert_array_equal(a.droppable, b.droppable)


@given(family_case())
def test_layout_unpack_pack_round_trip(case):
    template, psi = case
    state = fam.unpack(template, psi)
    np.testing.assert_array_equal(fam.pack(state), psi)
    back = fam.unpack(template, fam.pack(state))
    np.testing.assert_array_equal(fam.pack(back), psi)
    assert_same_untrained(back, template)
    for name, arr in trained_arrays(back).items():
        assert arr.shape == trained_arrays(template)[name].shape, name


@given(family_case())
def test_layout_slices_tile_psi_in_pack_order(case):
    template, psi = case
    slices = fam.param_slices(template)
    assert list(slices) == expected_names(template.tag)
    offset = 0
    for sl in slices.values():
        assert sl.start == offset and sl.stop >= sl.start
        offset = sl.stop
    assert offset == psi.size
    state = fam.unpack(template, psi)
    for name, arr in trained_arrays(state).items():
        np.testing.assert_array_equal(psi[slices[name]], arr.ravel())


@given(family_case())
def test_layout_param_views_read_psi_in_place(case):
    template, psi = case
    views = fam.param_views(template, psi)
    expected = trained_arrays(fam.unpack(template, psi))
    assert list(views) == list(expected)
    for name, value in views.items():
        np.testing.assert_array_equal(value, expected[name])
        assert value.shape == expected[name].shape, name
        assert value.size == 0 or np.shares_memory(value, psi), name
    psi += 1.0  # the trainer's in-place update shows through every view
    for name, value in views.items():
        np.testing.assert_array_equal(value, expected[name] + 1.0)


@given(family_case())
def test_layout_json_document_holds_psi(case):
    template, psi = case
    state = fam.unpack(template, psi)
    doc = fam.state_to_json_dict(state)
    assert json.loads(json.dumps(doc)) == doc
    np.testing.assert_array_equal(document_psi(doc), psi)
    if isinstance(state, fam.DropoutState):
        assert doc["keep_prob"] == state.keep_prob
        assert doc["droppable"] == [int(d) for d in state.droppable]


# One state_to_json_dict document per family, as written before the layout
# was declared per class, and the sGMM's as written since it stores its
# components stacked: writing the state it holds must give the same JSON
# text, up to key order.
RECORDED_DOCS = [
    '{"family": "map", "p": 2, "theta_hat": [0.4313392713241635, 0.4354940412532311]}',
    '{"family": "mean_field", "p": 2, "mu": [0.4313392713241635, 0.4354940412532311], '
    '"log_sigma": [-3.3423058638339636, -3.3423058638339636]}',
    '{"family": "structured_normal", "p": 2, "mu": [0.021673616276774, -0.30292259332094984], '
    '"log_a": [-6.684611727667927, -6.684611727667927], "rank": 1, '
    '"u": [-0.005670511488433056, -0.009364632265340664]}',
    '{"family": "mixture", "p": 2, "rank": 1, "weight_logits": [0.0, 0.0], '
    '"mu": [1.2346454781910534, 0.513068180153241, 0.9607824831953409, 1.59146021669802], '
    '"log_a": [-6.684611727667927, -6.684611727667927, -6.684611727667927, '
    '-6.684611727667927], "u": [-0.001756181871700409, 0.0029729967895372254, '
    '-0.003907806679557454, -0.005549235110059276]}',
    '{"family": "mc_dropout", "p": 2, "theta_hat": [0.25, -1.5], "keep_prob": 0.37, '
    '"droppable": [1, 0]}',
]


def recorded_state(doc: dict):
    """The state whose values a recorded document holds, built field by field."""
    tag, p = doc["family"], doc["p"]

    if tag == "map":
        return fam.MapState(theta_hat=np.array(doc["theta_hat"]))
    if tag == "mean_field":
        return fam.MeanFieldState(mu=np.array(doc["mu"]), log_sigma=np.array(doc["log_sigma"]))
    if tag == "structured_normal":
        u = np.array(doc["u"]).reshape(p, doc["rank"])
        return fam.StructuredNormalState(
            mu=np.array(doc["mu"]), log_a=np.array(doc["log_a"]), u=u
        )
    if tag == "mixture":
        m = len(doc["weight_logits"])
        return fam.MixtureState(
            mu=np.array(doc["mu"]).reshape(m, p),
            log_a=np.array(doc["log_a"]).reshape(m, p),
            u=np.array(doc["u"]).reshape(m, p, doc["rank"]),
            weight_logits=np.array(doc["weight_logits"]),
        )
    return fam.DropoutState(
        theta_hat=np.array(doc["theta_hat"]),
        keep_prob=doc["keep_prob"],
        droppable=np.array(doc["droppable"], dtype=bool),
    )


@pytest.mark.parametrize("text", RECORDED_DOCS, ids=lambda t: json.loads(t)["family"])
def test_recorded_json_documents_still_read(text):
    doc = json.loads(text)
    written = fam.state_to_json_dict(recorded_state(doc))
    assert json.dumps(written, sort_keys=True) == json.dumps(doc, sort_keys=True)


# -----------------------------------------------------------------------
# Atomic log-density over generated states


@hst.composite
def atomic_base(draw):
    """(θ̂, droppable): P <= 8, θ̂ holding 0.0 and -0.0 among its coordinates."""
    p = draw(hst.integers(1, 8))
    coord = hst.sampled_from([0.0, -0.0]) | hst.floats(-3.0, 3.0)
    theta_hat = np.array(draw(hst.lists(coord, min_size=p, max_size=p)))
    droppable = np.array(draw(hst.lists(hst.booleans(), min_size=p, max_size=p)))
    return theta_hat, droppable


def off_atom(theta_hat, i):
    """θ̂ with coordinate i moved to a value that is neither θ̂_i nor 0."""
    row = theta_hat.copy()
    row[i] = abs(theta_hat[i]) + 1.0
    return row


KEEP_PROB = hst.sampled_from([0.0, 1.0]) | hst.floats(1e-3, 1.0 - 1e-3)


@given(atomic_base(), KEEP_PROB)
def test_dropout_log_density_is_summed_weight_of_equal_atoms(base, keep_prob):
    theta_hat, droppable = base
    st = fam.DropoutState(theta_hat=theta_hat, keep_prob=keep_prob, droppable=droppable)
    mixture = fam.enumerate_dropout(st)
    got = fam.log_density(st, mixture.atoms)
    for atom, value in zip(mixture.atoms, got):
        mass = mixture.weights[np.all(mixture.atoms == atom, axis=1)].sum()
        expected = math.log(mass) if mass > 0 else -math.inf
        # abs_tol only matters near log 1 = 0, where the summed weights round.
        assert math.isclose(value, expected, rel_tol=1e-12, abs_tol=1e-12), (atom, mass)


@given(atomic_base(), KEEP_PROB, hst.data())
def test_atomic_log_density_off_atom_is_minus_inf(base, keep_prob, data):
    theta_hat, droppable = base
    i = data.draw(hst.integers(0, theta_hat.size - 1))
    st = fam.DropoutState(theta_hat=theta_hat, keep_prob=keep_prob, droppable=droppable)
    assert fam.log_density(st, off_atom(theta_hat, i)) == -math.inf
    map_st = fam.MapState(theta_hat=theta_hat)
    assert fam.log_density(map_st, theta_hat) == 0.0
    assert fam.log_density(map_st, off_atom(theta_hat, i)) == -math.inf
    if theta_hat[i] != 0.0:
        dropped = theta_hat.copy()
        dropped[i] = 0.0
        assert fam.log_density(map_st, dropped) == -math.inf


@given(atomic_base(), hst.integers(1, 5), hst.integers(0, 2**16))
def test_map_noise_is_all_ones_and_draws_nothing(base, count, seed):
    st = fam.MapState(theta_hat=base[0])
    rng = np.random.default_rng(seed)
    before = rng.bit_generator.state
    noise = fam.draw_noise(st, "naive", count, rng)
    assert rng.bit_generator.state == before
    np.testing.assert_array_equal(noise.masks, np.ones((count, st.dim)))


@given(atomic_base(), hst.floats(0.0, 1.0), hst.integers(1, 5), hst.integers(0, 2**16))
def test_atomic_masks_are_boolean_and_draw_what_float_masks_draw(base, keep_prob, count, seed):
    # θ̂ ⊙ mask with a boolean mask is θ̂ times the float mask of 0s and 1s,
    # bit for bit and signed zeros included, in the draws, their blocks and
    # the adjoint.
    theta_hat, droppable = base
    state = fam.DropoutState(theta_hat=theta_hat, keep_prob=keep_prob, droppable=droppable)
    noise = fam.draw_noise(state, "naive", count, np.random.default_rng(seed))
    assert noise.masks.dtype == bool
    floats = noise.masks.astype(np.float64)
    theta, _, _, vjp = fam.draws_logq_vjp(state, fam.param_views(state, fam.pack(state)), noise)
    streamed = fam.sample_blocks(state, np.random.default_rng(seed), count)
    blocks = fam.gather_blocks(((rows, draws) for rows, draws, _ in streamed), count, state.dim)
    want = theta_hat * floats
    bar = np.random.default_rng(seed).standard_normal((count, state.dim))
    for got, expected in ((theta, want), (blocks, want), (vjp(bar), (bar * floats).sum(axis=0))):
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def loop_atom_log_weight(state, row) -> float:
    """Per-coordinate reference for one row's atomic log-density."""
    n_on = n_off = 0
    for i in range(state.dim):
        if not state.droppable[i] or state.theta_hat[i] == 0.0:
            # Fixed coordinate, or one whose two mask values give one atom.
            if row[i] != state.theta_hat[i]:
                return -math.inf
        elif row[i] == state.theta_hat[i]:
            n_on += 1
        elif row[i] == 0.0:
            n_off += 1
        else:
            return -math.inf
    p, out = state.keep_prob, 0.0
    if n_on:
        out += n_on * (math.log(p) if p > 0 else -math.inf)
    if n_off:
        out += n_off * (math.log1p(-p) if p < 1 else -math.inf)
    return out


@given(atomic_base(), KEEP_PROB, hst.integers(0, 2**16))
def test_atomic_log_density_is_bit_identical_to_the_loop(base, keep_prob, seed):
    theta_hat, droppable = base
    rng, p = np.random.default_rng(seed), theta_hat.size
    rows = theta_hat * (rng.random((16, p)) < 0.5)  # atoms, some repeated
    rows[::3] += rng.standard_normal(p) * (rng.random(p) < 0.3)  # some off-atom
    rows[::5, 0] = -0.0
    for st in (
        fam.DropoutState(theta_hat=theta_hat, keep_prob=keep_prob, droppable=droppable),
        fam.MapState(theta_hat=theta_hat),
    ):
        expected = np.array([loop_atom_log_weight(st, r) for r in rows])
        got = fam.log_density(st, rows)
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


# -----------------------------------------------------------------------
# noise for many steps in one call


@hst.composite
def noise_case(draw):
    """(state, mode, count, stratify, steps, seed) that ``draw_noise`` accepts."""
    tag = draw(hst.sampled_from(list(fam.FAMILIES)))
    p = draw(hst.integers(1, 6))
    k = draw(hst.integers(0, 3))
    m = draw(hst.integers(1, 3))
    rng = np.random.default_rng(draw(hst.integers(0, 2**16)))
    kwargs = {"rank": k, "components": m, "keep_prob": float(rng.uniform())}
    state = fam.init_family(tag, p, rng, **kwargs)
    if tag == "mc_dropout":
        state.droppable = rng.random(p) < 0.5
    modes = ["naive"]
    if tag not in fam.ATOMIC_TAGS:
        modes.append("paired")
    if tag == "structured_normal" and k >= 1:
        modes.append("unscented")
    mode = draw(hst.sampled_from(modes))
    stratify = draw(hst.booleans())
    group = {"naive": 1, "paired": 2, "unscented": 2 * k}[mode]
    if tag == "mixture" and stratify:
        group *= m
    count = group * draw(hst.integers(1, 4))
    return state, mode, count, stratify, draw(hst.integers(1, 5)), draw(hst.integers(0, 2**16))


def assert_same_noise(a, b):
    for field in dataclasses.fields(fam.NoiseBatch):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert type(x) is type(y), field.name
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape, field.name
            assert np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


@given(noise_case())
def test_noise_for_many_steps_is_the_stream_of_single_steps(case):
    # One call with steps=n gives the n batches, and leaves the generator
    # where n consecutive steps=1 calls leave it.
    state, mode, count, stratify, steps, seed = case
    many_rng, one_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    many = fam.draw_noise(
        state, mode, count, many_rng, stratify_components=stratify, steps=steps
    )
    one = []
    for _ in range(steps):
        one += fam.draw_noise(state, mode, count, one_rng, stratify_components=stratify, steps=1)
    assert len(many) == len(one) == steps
    for a, b in zip(many, one):
        assert_same_noise(a, b)
    assert many_rng.bit_generator.state == one_rng.bit_generator.state
    single = fam.draw_noise(
        state, mode, count, np.random.default_rng(seed), stratify_components=stratify
    )
    assert_same_noise(single, many[0])


@given(noise_case())
def test_a_batch_takes_z_diag_then_z_lowrank_from_the_generator(case):
    # The per-step layout that one call for many steps must keep.
    state, mode, count, stratify, _, seed = case
    assume(mode != "unscented" and (state.tag != "mixture" or stratify))
    noise = fam.draw_noise(
        state, mode, count, np.random.default_rng(seed), stratify_components=stratify
    )
    rng = np.random.default_rng(seed)
    if state.tag in fam.ATOMIC_TAGS:
        d = state.droppable
        masks = np.ones((count, state.dim))
        if d.any():
            masks[:, d] = rng.random((count, np.count_nonzero(d))) < state.keep_prob
        np.testing.assert_array_equal(noise.masks, masks)
        return
    rows = count // 2 if mode == "paired" else count
    z_diag = rng.standard_normal((rows, state.dim))
    z_lowrank = rng.standard_normal((rows, getattr(state, "rank", 0)))
    for got, want in ((noise.z_diag, z_diag), (noise.z_lowrank, z_lowrank)):
        if mode == "paired":
            np.testing.assert_array_equal(got[0::2], want)
            np.testing.assert_array_equal(got[1::2], -want)
        else:
            np.testing.assert_array_equal(got, want)


# -----------------------------------------------------------------------
# naive draws a block of rows at a time

BLOCK = fam.BLOCK_ROWS


@hst.composite
def blocked_sample_case(draw):
    """(state, n, seed) for ``sample_blocks``: MAP; dropout at keep_prob 0, 1
    or between, with nothing, some or every coordinate droppable; mf; sN at
    K = 1 and K = P; a two-component sGMM whose second weight is skewed to
    about one row per block or fewer."""
    kind = draw(hst.sampled_from(["map", "mc_dropout", "mean_field", "sn1", "snp", "sgmm"]))
    theta_hat, droppable = draw(atomic_base())
    p = theta_hat.size
    rng = np.random.default_rng(draw(hst.integers(0, 2**16)))
    if kind == "map":
        state = fam.MapState(theta_hat=theta_hat)
    elif kind == "mc_dropout":
        droppable = draw(hst.sampled_from([droppable, np.zeros(p, bool), np.ones(p, bool)]))
        state = fam.DropoutState(
            theta_hat=theta_hat, keep_prob=draw(KEEP_PROB), droppable=droppable
        )
    elif kind == "sgmm":
        state = fam.init_family("mixture", p, rng, rank=draw(hst.integers(1, p)), components=2)
        skew = draw(hst.sampled_from([1.0, BLOCK / 2, BLOCK, 4 * BLOCK]))
        state.weight_logits = np.array([0.0, -math.log(skew)])
    elif kind == "mean_field":
        state = fam.init_family(kind, p, rng)
    else:
        state = fam.init_family("structured_normal", p, rng, rank=1 if kind == "sn1" else p)
    n = draw(hst.sampled_from([1, 2, BLOCK, BLOCK + 1, 2 * BLOCK + 1]))
    return state, n, draw(hst.integers(0, 2**16))


def assert_sample_blocks_is_the_whole_batch(state, n, seed):
    # The gathered blocks are the closed-form draws of the whole batch's
    # noise and fam.sample's draws, bit for bit, each block's log q is
    # fam.log_density's at them, and the generator ends where draw_noise
    # for the whole batch leaves it.
    rng = np.random.default_rng(seed)
    blocks = list(fam.sample_blocks(state, rng, n))
    assert [rows for rows, _, _ in blocks] == fam.row_blocks(n)
    got = fam.gather_blocks(((rows, draws) for rows, draws, _ in blocks), n, state.dim)
    after = np.random.default_rng(seed)
    want = closed_form_draws(state, fam.draw_noise(state, "naive", n, after))
    assert rng.bit_generator.state == after.bit_generator.state
    whole = fam.sample(state, "naive", n, np.random.default_rng(seed)).draws
    for other in (want, whole):
        assert np.array_equal(got.view(np.int64), other.view(np.int64))
    if isinstance(state, fam.ATOMIC_STATES):
        assert all(log_q is None for _, _, log_q in blocks)
    else:
        log_q = np.concatenate([log_q for _, _, log_q in blocks])
        assert np.array_equal(log_q.view(np.int64), fam.log_density(state, got).view(np.int64))


@settings(max_examples=60)
@given(blocked_sample_case())
def test_sample_blocks_draws_the_whole_batch_and_takes_its_stream(case):
    assert_sample_blocks_is_the_whole_batch(*case)


def test_sample_blocks_realizes_a_lone_component_row_as_the_batch_does():
    # At seed 12 the second component, of weight about 1/BLOCK, owns exactly
    # one row of the first block.  Realized alone, by a BLAS gemv, that row
    # differs in its last bits at this seed, so a block that realized each
    # component at its own rows only would fail; the block realizes every
    # component at every row, as the whole batch does.
    state = fam.init_family("mixture", 8, np.random.default_rng(0), rank=8, components=2)
    state.weight_logits = np.array([0.0, -math.log(BLOCK)])
    n, seed = 2 * BLOCK + 1, 12
    noise = fam.draw_noise(state, "naive", n, np.random.default_rng(seed))
    (lone,) = np.flatnonzero(noise.components[: fam.row_blocks(n)[0].stop] == 1)
    comp, row = components(state)[1], slice(lone, lone + 1)
    scale = np.exp(0.5 * comp.log_a)
    alone = comp.mu + scale * noise.z_diag[row] + noise.z_lowrank[row] @ comp.u.T
    assert not np.array_equal(alone[0], closed_form_draws(state, noise)[lone])
    assert_sample_blocks_is_the_whole_batch(state, n, seed)
