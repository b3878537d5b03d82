"""Tests for smoothness index functions, their flags, and the rate maps."""

import math

import numpy as np
import pytest

from ratelab.errors import (
    BracketUnderflowError,
    ConstructionError,
    ContractError,
    DomainError,
    NumericalError,
    ParameterError,
)
from ratelab.index_functions import (
    FLAG_GRID_POINTS,
    FLAG_RATIO_TOL,
    HolderIndex,
    LogIndex,
    MonotoneFlags,
    ProductIndex,
    check_monotone_flags,
    geometric_grid,
    index_from_dict,
    invert_monotone,
    make_rate_maps,
    nondecreasing,
)


class TestHolderIndex:
    def test_square_root_value(self):
        phi = HolderIndex(r=0.5, domain_max=4.0)
        assert phi.value(4.0) == 2.0
        assert phi.value(0.25) == 0.5

    def test_zero_exponent_vanishes_only_at_origin(self):
        phi = HolderIndex(r=0.0)
        assert phi.value(0.0) == 0.0
        assert phi.value(1e-300) == 1.0
        assert phi.value(1.0) == 1.0

    def test_array_and_scalar_agree(self):
        phi = HolderIndex(r=1.5)
        grid = np.array([0.0, 0.1, 0.5, 1.0])
        vals = phi.value(grid)
        assert vals.shape == grid.shape
        for t, v in zip(grid, vals):
            assert phi.value(float(t)) == v

    def test_domain_errors(self):
        phi = HolderIndex(r=1.0)
        with pytest.raises(DomainError):
            phi.value(-0.5)
        with pytest.raises(DomainError):
            phi.value(1.5)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParameterError):
            HolderIndex(r=-0.5)

    def test_nan_exponent_rejected(self):
        with pytest.raises(ParameterError, match="power exponent"):
            HolderIndex(r=math.nan)

    def test_infinite_exponent_rejected_by_name(self):
        """r = inf used to build, and a fit with it failed in a bisection that
        named neither the flag nor the exponent."""
        with pytest.raises(ParameterError, match="power exponent must be >= 0 and finite"):
            HolderIndex(r=math.inf)


class TestLogIndex:
    def test_power_with_log_correction(self):
        phi = LogIndex(p=1.0, nu=1.0)
        t = math.exp(-1.0)
        assert math.isclose(phi.value(t), math.exp(-1.0), rel_tol=1e-12)

    def test_frozen_beyond_099(self):
        phi = LogIndex(p=0.0, nu=1.0)
        assert phi.value(1.0) == phi.value(0.99)
        grower = LogIndex(p=1.0, nu=1.0)
        ratio = grower.value(1.0) / grower.value(0.99)
        assert math.isclose(ratio, 1.0 / 0.99, rel_tol=1e-12)

    def test_pure_log_needs_positive_nu(self):
        with pytest.raises(ParameterError):
            LogIndex(p=0.0, nu=0.0)
        with pytest.raises(ParameterError):
            LogIndex(p=0.0, nu=-1.0)

    @pytest.mark.parametrize(
        "p, nu, name",
        [(math.nan, 1.0, "power exponent"), (math.inf, 1.0, "power exponent"),
         (0.5, math.nan, "log exponent nu"), (0.5, math.inf, "log exponent nu")],
    )
    def test_non_finite_exponents_refused_by_name(self, p, nu, name):
        """NaN used to build a map that is NaN everywhere with every flag set,
        so it licensed every closed-form bound."""
        with pytest.raises(ParameterError, match=name):
            LogIndex(p=p, nu=nu)

    def test_vanishes_at_origin(self):
        phi = LogIndex(p=0.0, nu=2.0)
        assert phi.value(0.0) == 0.0
        assert phi.value(1e-200) > 0.0


class TestProductIndex:
    def test_matches_summed_exponents(self):
        prod = ProductIndex(factors=(HolderIndex(r=0.5), HolderIndex(r=1.0)))
        direct = HolderIndex(r=1.5)
        grid = np.linspace(0.0, 1.0, 50)
        np.testing.assert_allclose(prod.value(grid), direct.value(grid), rtol=1e-12)

    def test_rejects_nested_products(self):
        inner = ProductIndex(factors=(HolderIndex(r=1.0),))
        with pytest.raises(ParameterError):
            ProductIndex(factors=(inner,))

    def test_rejects_mismatched_domains(self):
        with pytest.raises(ParameterError):
            ProductIndex(
                factors=(HolderIndex(r=1.0, domain_max=2.0),),
                domain_max=1.0,
            )


class TestFromDict:
    def test_round_trip(self):
        for spec in (
            {"kind": "holder", "r": 0.5},
            {"kind": "log", "p": 1.0, "nu": 2.0},
            {"kind": "product", "factors": [{"kind": "holder", "r": 1.0}]},
        ):
            phi = index_from_dict(spec, domain_max=2.0)
            assert phi.domain_max == 2.0
            assert phi.describe()["kind"] == spec["kind"]

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            index_from_dict({"kind": "spline"})


class TestMonotoneFlags:
    def test_holder_flag_table(self):
        # (r, t/phi nondecr, sqrt(t)/phi nondecr); phi and phi*sqrt(t)
        # are nondecreasing for every power
        table = [
            (0.0, True, True),
            (0.5, True, True),
            (0.75, True, False),
            (1.0, True, False),
            (2.0, False, False),
        ]
        for r, t_over, sqrt_over in table:
            flags = HolderIndex(r=r).flags
            assert flags.phi_nondecreasing
            assert flags.phi_times_sqrt_t_nondecreasing
            assert flags.t_over_phi_nondecreasing == t_over, r
            assert flags.sqrt_t_over_phi_nondecreasing == sqrt_over, r

    def test_log_family_flags(self):
        # t**(1/2) * log-correction: the correction strengthens decay at 0,
        # so sqrt(t)/phi grows near 0 yet shrinks near the freeze point
        flags = LogIndex(p=0.5, nu=1.0).flags
        assert flags.phi_nondecreasing
        assert not flags.sqrt_t_over_phi_nondecreasing

    def test_check_returns_the_cached_flags(self):
        phi = HolderIndex(r=2.0)
        flags = check_monotone_flags(phi)
        assert isinstance(flags, MonotoneFlags)
        assert not flags.t_over_phi_nondecreasing
        assert phi.flags is flags

    def test_one_tolerance_for_every_nondecreasing_check(self):
        """A drop within FLAG_RATIO_TOL relative passes, a larger one fails."""
        flat = np.ones(FLAG_GRID_POINTS)
        assert nondecreasing(flat)
        flat[7] = 1.0 - 0.5 * FLAG_RATIO_TOL
        assert nondecreasing(flat)
        flat[7] = 1.0 - 2.0 * FLAG_RATIO_TOL
        assert not nondecreasing(flat)

    def test_a_map_with_nan_is_not_nondecreasing(self):
        values = np.ones(FLAG_GRID_POINTS)
        values[7] = math.nan
        assert not nondecreasing(values)
        assert not nondecreasing(np.full(FLAG_GRID_POINTS, math.nan))


class TestGeometricGrid:
    def test_span_and_size(self):
        grid = geometric_grid(4.0)
        assert grid.shape == (512,)
        assert math.isclose(grid[0], 4.0 * 1e-12, rel_tol=1e-9)
        assert grid[-1] == 4.0


class TestInvertMonotone:
    def test_cube_root(self):
        root = invert_monotone(lambda t: t**3, 8.0, 1e-6, 10.0)
        assert math.isclose(root, 2.0, rel_tol=1e-9)

    def test_bracket_expansion(self):
        # target below f(lo): the bracket must stretch down and still hit it
        root = invert_monotone(lambda t: t, 1e-20, 1e-3, 1.0)
        assert math.isclose(root, 1e-20, rel_tol=1e-9)

    def test_bracket_floor(self):
        with pytest.raises(BracketUnderflowError):
            invert_monotone(lambda t: t, 1e-302, 1e-3, 1.0)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(DomainError):
            invert_monotone(lambda t: t, 0.0, 1e-6, 1.0)

    def test_rejects_unreachable_target(self):
        with pytest.raises(DomainError):
            invert_monotone(lambda t: t, 2.0, 1e-6, 1.0)

    def test_rejects_decreasing_map(self):
        with pytest.raises(ContractError):
            invert_monotone(lambda t: 1.0 / t, 2.0, 1e-6, 1.0)

    def test_unconverged_bisection_raises(self):
        # the map jumps over the target, so no t is within tolerance
        with pytest.raises(NumericalError):
            invert_monotone(lambda t: 1.0 if t < 0.5 else 3.0, 2.0, 1e-3, 1.0)


class TestRateMaps:
    def test_holder_closed_forms(self):
        # for phi = t**r the two maps are pure powers
        maps = make_rate_maps(HolderIndex(r=0.5, domain_max=4.0), b=2.0)
        t = 0.3
        assert math.isclose(maps.schedule_rkhs(t), t ** (0.75 + 0.5), rel_tol=1e-12)
        assert math.isclose(maps.schedule_l2(t), t ** (0.25 + 0.5), rel_tol=1e-12)

    def test_inversion_round_trip(self):
        maps = make_rate_maps(HolderIndex(r=1.0), b=3.0)
        for y in (1e-6, 1e-3, 0.1):
            t = maps.invert_schedule_rkhs(y)
            assert math.isclose(maps.schedule_rkhs(t), y, rel_tol=1e-9)
            t = maps.invert_schedule_l2(y)
            assert math.isclose(maps.schedule_l2(t), y, rel_tol=1e-9)

    def test_low_decay_warns(self):
        with pytest.warns(UserWarning):
            make_rate_maps(HolderIndex(r=0.5), b=1.0)
        with pytest.raises(ParameterError):
            make_rate_maps(HolderIndex(r=0.5), b=0.0)
