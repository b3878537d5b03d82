"""Tests for sign packings, adversarial families, and the information bounds."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial.distance import pdist
from scipy.special import erfc

from ratelab.errors import (
    AmplitudeError,
    ConstructionError,
    ParameterError,
)
from ratelab.index_functions import HolderIndex
from ratelab.lower_bounds import (
    FANO_CONSTANT,
    REJECTION_CAP,
    TwoPointMeasure,
    _pairwise_separation,
    adversarial_family,
    amplitude_for,
    SignPacking,
    build_packing,
    empirical_fano_check,
    fano_bound,
    kl_divergence,
    packing_size,
    separation_for_code_length,
)
from ratelab.mercer import GRID_POINTS, build_model, two_point_weights

from oracles import bayes_error, divergence_ceiling


def _lab(n_trunc=128, d=1):
    model = build_model(b=2.0, d=d, n_trunc=n_trunc)
    phi = HolderIndex(0.5, domain_max=model.kappa_sq)
    return model, phi


class TestPacking:
    def test_sizes(self):
        assert packing_size(24) == 3
        assert packing_size(48) == 8

    @pytest.mark.parametrize("ell", [24, 48])
    def test_codes_are_well_separated_signs(self, ell):
        packing = build_packing(ell)
        codes = packing.codes
        assert codes.shape == (packing_size(ell), ell)
        assert np.all(np.abs(codes) == 1)
        dots = codes @ codes.T
        off = dots[~np.eye(len(codes), dtype=bool)]
        assert off.max() <= ell / 2

    def test_deterministic(self):
        first = build_packing(48, seed=3)
        second = build_packing(48, seed=3)
        np.testing.assert_array_equal(first.codes, second.codes)

    def test_codes_are_distinct(self):
        codes = build_packing(48).codes
        as_rows = {tuple(row) for row in codes.astype(int)}
        assert len(as_rows) == len(codes)

    def test_length_validation(self):
        with pytest.raises(ParameterError):
            build_packing(23)
        with pytest.raises(ParameterError):
            build_packing(26)

    def test_impossible_length_refused_before_allocating(self):
        """A packing above REJECTION_CAP codes can never be placed, one code per
        draw; ell = 400 would otherwise ask for a 51.6 GiB code array first.
        The shortest such length is 332."""
        assert packing_size(332) > REJECTION_CAP >= packing_size(328)
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="code length 400"):
                build_packing(400)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestSeparations:
    def test_power_profile_value(self):
        """With phi = sqrt the combined scale is linear, so eps = ell**-b."""
        model, phi = _lab()
        eps = separation_for_code_length(model, phi, 1.0, 48)
        assert eps == pytest.approx(48.0**-2, rel=1e-12)

    def test_largest_feasible_separation(self):
        """The forward map gives the largest separation a code length affords."""
        model, phi = _lab()
        packing = build_packing(48)
        for rkhs_variant in (False, True):
            feasible = separation_for_code_length(model, phi, 1.0, 48, rkhs_variant)
            family = adversarial_family(model, phi, 1.0, feasible, packing, rkhs_variant)
            assert family.min_separation >= feasible * (1 - 1e-9)
            with pytest.raises(ConstructionError):
                adversarial_family(model, phi, 1.0, feasible * (1 + 1e-9), packing, rkhs_variant)

    @pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan])
    def test_nonpositive_radius_rejected(self, radius):
        model, phi = _lab()
        with pytest.raises(ParameterError, match="radius"):
            separation_for_code_length(model, phi, radius, 48)

    def test_norm_variant_value(self):
        model, phi = _lab()
        eps = separation_for_code_length(model, phi, 1.0, 48, rkhs_variant=True)
        assert eps == pytest.approx(2.0 / math.sqrt(5.0) / 60.0, rel=1e-12)


class TestAdversarialFamily:
    def test_members_separated_within_the_window(self):
        model, phi = _lab()
        packing = build_packing(48)
        eps = separation_for_code_length(model, phi, 1.0, 48)
        family = adversarial_family(model, phi, 1.0, eps, packing)
        assert len(family.members) == 8
        assert family.min_separation >= eps * (1 - 1e-9)
        assert family.max_separation <= 2 * eps * (1 + 1e-9)

    def test_members_respect_the_source_radius(self):
        model, phi = _lab()
        packing = build_packing(24)
        eps = separation_for_code_length(model, phi, 1.0, 24)
        family = adversarial_family(model, phi, 1.0, eps, packing)
        for member in family.members:
            assert float(np.sqrt(np.sum(member.source**2))) <= 1.0 + 1e-9

    def test_mismatched_code_length_rejected(self):
        # ell = 24 affords a larger separation than a 48-code packing can carry
        model, phi = _lab()
        packing = build_packing(48)
        eps = separation_for_code_length(model, phi, 1.0, 24)
        with pytest.raises(ConstructionError):
            adversarial_family(model, phi, 1.0, eps, packing)

    @pytest.mark.parametrize("rkhs_variant", [False, True], ids=["l2", "rkhs"])
    def test_nonpositive_separation_rejected(self, rkhs_variant):
        model, phi = _lab()
        with pytest.raises(ParameterError):
            adversarial_family(model, phi, 1.0, 0.0, build_packing(24), rkhs_variant)

    def test_every_feasible_length_builds(self):
        """The feasible separation builds at every ell on a grid of decays and smoothness.

        Both variants, b in {1.0, ..., 2.0}, r in {0, 0.1, 0.5}, every
        multiple of 4 in [24, 200], N = 512. Two codes (all ones, and the
        same row with half its signs flipped) keep each family cheap.
        """
        for b in (1.0, 1.05, 1.1, 1.3, 1.5, 2.0):
            model = build_model(b=b, n_trunc=512)
            for r in (0.0, 0.1, 0.5):
                phi = HolderIndex(r, domain_max=model.kappa_sq)
                for ell in range(24, 201, 4):
                    flipped = np.ones(ell)
                    flipped[: ell // 2] = -1.0
                    packing = SignPacking(codes=np.vstack([np.ones(ell), flipped]))
                    for rkhs_variant in (False, True):
                        eps = separation_for_code_length(model, phi, 1.0, ell, rkhs_variant)
                        family = adversarial_family(model, phi, 1.0, eps, packing, rkhs_variant)
                        assert family.min_separation == pytest.approx(math.sqrt(2.0) * eps)

    def test_every_pair_is_checked(self):
        # 2050 distinct sign rows except the last two, which coincide
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 2, size=(2050, 64)) * 2.0 - 1.0
        codes[-1] = codes[-2]
        members = [SimpleNamespace(coefficients=row[:, None]) for row in codes]
        min_sep, max_sep = _pairwise_separation(None, members, rkhs_variant=True)
        assert min_sep == 0.0
        assert max_sep <= 2.0 * math.sqrt(64)

    def test_separation_check_memory_stays_near_the_family(self):
        """ell = 168 at N = 512: 1,097 members that keep 8.6 MiB (coefficients
        and sources). The check builds each block's squared distances in one
        buffer and masks only the block's own square, so the whole build
        peaks under 24 MiB (35.8 MiB with 1024-row blocks and full-width
        masks); the separations equal the distances taken pair by pair."""
        model, phi = _lab(n_trunc=512)
        packing = build_packing(168)
        eps = separation_for_code_length(model, phi, 1.0, 168)
        tracemalloc.start()
        try:
            family = adversarial_family(model, phi, 1.0, eps, packing)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(family.members) == 1097
        assert peak <= 24 * 2**20
        scaled = np.stack([mem.coefficients[:, 0] for mem in family.members])
        distances = pdist(scaled * np.sqrt(model.eigenvalues))
        assert family.min_separation == pytest.approx(distances.min(), rel=1e-12)
        assert family.max_separation == pytest.approx(distances.max(), rel=1e-12)

    def test_needs_enough_features(self):
        model_small, phi_small = _lab(n_trunc=16)
        packing = build_packing(48)
        eps = separation_for_code_length(model_small, phi_small, 1.0, 48)
        with pytest.raises(ConstructionError):
            adversarial_family(model_small, phi_small, 1.0, eps, packing)

    def test_norm_variant_feasibility(self):
        model, phi = _lab()
        packing = build_packing(48)
        feasible = separation_for_code_length(model, phi, 1.0, 48, rkhs_variant=True)
        family = adversarial_family(model, phi, 1.0, feasible, packing, rkhs_variant=True)
        assert family.variant == "rkhs"
        with pytest.raises(ConstructionError):
            adversarial_family(model, phi, 1.0, 10 * feasible, packing, rkhs_variant=True)


def _grid_measures():
    """A TwoPointMeasure on the first family member at ell = 24, for d = 1 and d = 3."""
    for d in (1, 3):
        model, phi = _lab(d=d)
        eps = separation_for_code_length(model, phi, 1.0, 24)
        family = adversarial_family(model, phi, 1.0, eps, build_packing(24))
        yield TwoPointMeasure(model, family.members[0], amplitude_for(phi, 1.0, model))


class TestTwoPointMeasure:
    def test_amplitude_keeps_weights_bounded_away_from_zero(self):
        for measure in _grid_measures():
            d = measure.model.output_dim
            assert measure.grid_weights.min() >= 3.0 / (8.0 * d) - 1e-12

    def test_conditional_mean_matches_target(self):
        """At every grid point the weights average the atoms to the target there."""
        for measure in _grid_measures():
            d = measure.model.output_dim
            atoms, _ = two_point_weights(np.zeros(d), measure.amplitude, d)
            want = measure.target.evaluate(np.linspace(0.0, 2 * np.pi, GRID_POINTS, endpoint=False))
            np.testing.assert_allclose(measure.grid_weights @ atoms, want, rtol=0, atol=1e-12)

    def test_samples_sit_on_atoms(self):
        model, phi = _lab()
        packing = build_packing(24)
        eps = separation_for_code_length(model, phi, 1.0, 24)
        family = adversarial_family(model, phi, 1.0, eps, packing)
        level = amplitude_for(phi, 1.0, model)
        measure = TwoPointMeasure(model, family.members[0], level)
        data = measure.sample(32, np.random.default_rng(0))
        assert data.xs.shape == (32,)
        np.testing.assert_allclose(np.abs(data.ys), level)

    @pytest.mark.parametrize("level", [0.0, -1.0, math.nan])
    def test_nonpositive_or_nan_amplitude_refused_by_name(self, level):
        """NaN used to pass the check and fail later as a mismatch in
        `kl_divergence` or as non-finite outputs."""
        model, phi = _lab()
        family = adversarial_family(
            model, phi, 1.0, separation_for_code_length(model, phi, 1.0, 24), build_packing(24)
        )
        with pytest.raises(ParameterError, match="amplitude must be positive"):
            TwoPointMeasure(model, family.members[0], level)

    def test_infinite_amplitude_refused_by_name(self):
        """Infinity used to build a measure whose grid weights were all NaN, and
        `kl_divergence` then blamed the mean gap algebra."""
        model, phi = _lab()
        family = adversarial_family(
            model, phi, 1.0, separation_for_code_length(model, phi, 1.0, 24), build_packing(24)
        )
        with pytest.raises(ParameterError, match="amplitude must be positive and finite, got inf"):
            TwoPointMeasure(model, family.members[0], math.inf)

    def test_undersized_level_rejected(self):
        model, phi = _lab()
        packing = build_packing(24)
        eps = separation_for_code_length(model, phi, 1.0, 24)
        family = adversarial_family(model, phi, 1.0, eps, packing)
        measure = TwoPointMeasure(model, family.members[0], 1e-9)
        with pytest.raises(AmplitudeError):
            measure.grid_weights


class TestKLDivergence:
    def test_zero_for_identical_measures(self):
        model, phi = _lab()
        packing = build_packing(24)
        eps = separation_for_code_length(model, phi, 1.0, 24)
        family = adversarial_family(model, phi, 1.0, eps, packing)
        level = amplitude_for(phi, 1.0, model)
        measure = TwoPointMeasure(model, family.members[0], level)
        assert kl_divergence(measure, measure) == 0.0

    def test_all_pairs_below_the_ceiling(self):
        model, phi = _lab()
        packing = build_packing(24)
        eps = separation_for_code_length(model, phi, 1.0, 24)
        family = adversarial_family(model, phi, 1.0, eps, packing)
        level = amplitude_for(phi, 1.0, model)
        measures = [TwoPointMeasure(model, member, level) for member in family.members]
        for i, first in enumerate(measures):
            for second in measures[i + 1 :]:
                value = kl_divergence(first, second)
                assert value <= divergence_ceiling(first, second) * (1 + 1e-9)
                assert value >= 0.0

    def test_mismatched_measures_rejected(self):
        model, phi = _lab()
        packing = build_packing(24)
        eps = separation_for_code_length(model, phi, 1.0, 24)
        family = adversarial_family(model, phi, 1.0, eps, packing)
        level = amplitude_for(phi, 1.0, model)
        first = TwoPointMeasure(model, family.members[0], level)
        second = TwoPointMeasure(model, family.members[1], 2 * level)
        with pytest.raises(ParameterError):
            kl_divergence(first, second)


class TestFanoBound:
    def test_plateau_branch_for_small_samples(self):
        model, phi = _lab()
        eps = separation_for_code_length(model, phi, 1.0, 48)
        level = amplitude_for(phi, 1.0, model)
        out = fano_bound(48, m=1, epsilon=eps, d=1, amplitude=level)
        assert out["branch"] == "plateau"
        assert out["value"] == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)

    def test_information_branch_decays_with_m(self):
        model, phi = _lab()
        eps = separation_for_code_length(model, phi, 1.0, 48)
        level = amplitude_for(phi, 1.0, model)
        mid = fano_bound(48, m=10**7, epsilon=eps, d=1, amplitude=level)
        late = fano_bound(48, m=2 * 10**7, epsilon=eps, d=1, amplitude=level)
        assert mid["branch"] == "information"
        assert late["value"] < mid["value"]

    def test_prefactor_cancellation(self):
        assert FANO_CONSTANT == pytest.approx(math.exp(-3.0 / math.e), abs=1e-15)
        assert FANO_CONSTANT == pytest.approx(0.3316621915110052, abs=1e-12)

    def test_code_length_validation(self):
        with pytest.raises(ParameterError):
            fano_bound(20, m=1, epsilon=0.01, d=1, amplitude=1.0)

    @pytest.mark.parametrize(
        "name, bad",
        [("m", 0), ("d", 0), ("epsilon", 0.0), ("epsilon", math.nan), ("amplitude", 0.0),
         ("amplitude", math.nan)],
    )
    def test_rejection_names_the_argument(self, name, bad):
        args = {"m": 1, "epsilon": 0.01, "d": 1, "amplitude": 1.0, name: bad}
        with pytest.raises(ParameterError, match=f"^{name} must be"):
            fano_bound(48, **args)


class TestBayesError:
    def test_matches_the_normal_tail(self):
        assert bayes_error(np.array([3.0, 4.0]), 5.0) == pytest.approx(
            0.15865525393145707, rel=1e-12
        )

    @pytest.mark.parametrize("gamma", [[1e-3], [0.3, 0.4], [2.0], [3.0, 4.0], [30.0]])
    @pytest.mark.parametrize("sigma", [0.05, 0.5, 5.0])
    def test_matches_scipy_erfc(self, gamma, sigma):
        norm = float(np.linalg.norm(gamma))
        oracle = erfc(norm / (sigma * math.sqrt(2.0))) / 2.0
        assert bayes_error(np.array(gamma), sigma) == pytest.approx(oracle, rel=1e-14, abs=0)

    def test_noiseless_edge_cases(self):
        assert bayes_error(np.array([1.0]), 0.0) == 0.0
        assert bayes_error(np.array([0.0]), 0.0) == 0.5

    def test_shrinks_with_separation(self):
        near = bayes_error(np.array([0.5]), 1.0)
        far = bayes_error(np.array([2.0]), 1.0)
        assert far < near


class TestEmpiricalFano:
    def test_small_run_is_consistent_with_the_bound(self):
        model, phi = _lab()
        out = empirical_fano_check(model, phi, 1.0, ell=24, m=64, trials=60, seed=0)
        assert out["N"] == 3
        assert out["trials"] == 60
        assert 0.0 <= out["observed_frequency"] <= 1.0
        assert out["check"].passed
        assert out["check"].value == out["fano_bound"] - 3.0 * out["standard_error"]
        assert out["check"].limit == out["observed_frequency"]
