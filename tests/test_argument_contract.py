"""One argument contract at the public entries: every number a public entry
takes is a finite real number (an integer for a count) within its bounds,
or the entry raises DomainError naming it (NoBracket for the n bracket)
before any weight pass.  Numpy scalars, Fractions and ints pass and give
the bits of the Python float of the same value."""

import math
import re
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from radial_extremals import (BvpProblem, CartesianPoint, DomainError,
                              ExtremalSpec, NoBracket, PolarPoint, Polyline,
                              PowerLaw, PowerLawCurve,
                              algebraic_relation_residual, beltrami_residual,
                              clairaut_constant, dphi_dz, el_residual,
                              first_integral_deviation, integrate_phi,
                              lagrangian_partials_cartesian, log_spiral_point,
                              minimize, power_law_point, solve_n,
                              trace_extremal, turning_radius)
from radial_extremals.errors import EvalError, real, real_array
from radial_extremals.weights import (eval_q, eval_slope, eval_v, eval_vq,
                                      eval_vq2, masked_v)

BAD = ["1.0", None, True, math.nan, math.inf, -math.inf]


class NoPass(PowerLaw):
    """v = z: every raw weight pass fails the test."""

    def _raw_v(self, z):
        raise AssertionError("a weight pass ran")

    _raw_vq2 = _raw_slope = _raw_v


def spec_without_passes():
    spec = ExtremalSpec(PowerLaw(1.0), 1.0)
    spec.weight = NoPass(1.0)
    return spec


def problem(a=(-1.047, 1.0), b=(1.047, 1.0)):
    return BvpProblem(PolarPoint(*a), PolarPoint(*b), NoPass(0.0))


ROWS = [(x, 1.0 + 0.1 * x * x) for x in np.linspace(0.5, 1.5, 9).tolist()]
VERTS = [(-0.65, 1.19), (0.0, 1.3), (0.65, 1.19)]


def with_row(x):
    return [ROWS[0], (ROWS[1][0], x), *ROWS[2:]]


# entry and argument: a call of one bad value, and the class it raises
ENTRIES = {
    "PowerLaw lam": (lambda x: PowerLaw(x), DomainError),
    "ExtremalSpec n": (lambda x: ExtremalSpec(NoPass(1.0), x), DomainError),
    "ExtremalSpec phi0": (lambda x: ExtremalSpec(NoPass(1.0), 1.0, x),
                          DomainError),
    "turning_radius n": (lambda x: turning_radius(NoPass(1.0), x),
                         DomainError),
    "integrate_phi z": (lambda x: integrate_phi(spec_without_passes(), x,
                                                1e-12), DomainError),
    "integrate_phi z entry": (lambda x: integrate_phi(
        spec_without_passes(), [2.0, x], 1e-12), DomainError),
    "integrate_phi tol": (lambda x: integrate_phi(spec_without_passes(), 2.0,
                                                  x), DomainError),
    "trace_extremal z_max": (lambda x: trace_extremal(
        spec_without_passes(), x, 5), DomainError),
    "trace_extremal num_samples": (lambda x: trace_extremal(
        spec_without_passes(), 3.0, x), DomainError),
    "trace_extremal tol": (lambda x: trace_extremal(
        spec_without_passes(), 3.0, 5, x), DomainError),
    "dphi_dz z": (lambda x: dphi_dz(x, spec_without_passes()), DomainError),
    "dphi_dz z entry": (lambda x: dphi_dz([2.0, x], spec_without_passes()),
                        DomainError),
    "clairaut_constant r": (lambda x: clairaut_constant(x, 0.5, NoPass(1.0)),
                            DomainError),
    "clairaut_constant r entry": (lambda x: clairaut_constant(
        [2.0, x], 0.5, NoPass(1.0)), DomainError),
    "lagrangian_partials_cartesian x": (
        lambda x: lagrangian_partials_cartesian(CartesianPoint(x, 1.0), 0.5,
                                                NoPass(1.0)), DomainError),
    "lagrangian_partials_cartesian y": (
        lambda x: lagrangian_partials_cartesian(CartesianPoint(1.0, x), 0.5,
                                                NoPass(1.0)), DomainError),
    "lagrangian_partials_cartesian p": (
        lambda x: lagrangian_partials_cartesian(CartesianPoint(1.0, 1.0), x,
                                                NoPass(1.0)), DomainError),
    "first_integral_deviation n": (lambda x: first_integral_deviation(
        NoPass(1.0), x, [2.0, 3.0]), DomainError),
    "first_integral_deviation z": (lambda x: first_integral_deviation(
        NoPass(1.0), 1.0, x), DomainError),
    "first_integral_deviation z entry": (lambda x: first_integral_deviation(
        NoPass(1.0), 1.0, [2.0, x]), DomainError),
    "BvpProblem a angle": (lambda x: problem(a=(x, 1.0)), DomainError),
    "BvpProblem a radius": (lambda x: problem(a=(-1.0, x)), DomainError),
    "BvpProblem b angle": (lambda x: problem(b=(x, 1.0)), DomainError),
    "BvpProblem b radius": (lambda x: problem(b=(1.0, x)), DomainError),
    "solve_n n bracket low": (lambda x: solve_n(problem(), (x, 3.5), 1e-10),
                              NoBracket),
    "solve_n n bracket high": (lambda x: solve_n(problem(), (1.2, x), 1e-10),
                               NoBracket),
    "solve_n tol": (lambda x: solve_n(problem(), (1.2, 3.5), x), DomainError),
    "PowerLawCurve lam": (lambda x: PowerLawCurve(x, 1.0), DomainError),
    "PowerLawCurve n": (lambda x: PowerLawCurve(1.0, x), DomainError),
    "PowerLawCurve phi0": (lambda x: PowerLawCurve(1.0, 1.0, x), DomainError),
    "power_law_point psi": (lambda x: power_law_point(
        PowerLawCurve(1.0, 1.0), x), DomainError),
    "log_spiral_point n": (lambda x: log_spiral_point(x, 1.0, 0.5),
                           DomainError),
    "log_spiral_point z0": (lambda x: log_spiral_point(2.0, x, 0.5),
                            DomainError),
    "log_spiral_point phi": (lambda x: log_spiral_point(2.0, 1.0, x),
                             DomainError),
    "algebraic_relation_residual phi": (lambda x: algebraic_relation_residual(
        PowerLawCurve(1.0, 2.0), PolarPoint(x, 1.0)), DomainError),
    "algebraic_relation_residual z": (lambda x: algebraic_relation_residual(
        PowerLawCurve(1.0, 2.0), PolarPoint(0.0, x)), DomainError),
    "Polyline vertex": (lambda x: Polyline([VERTS[0], (0.0, x), VERTS[2]]),
                        DomainError),
    "minimize max_iters": (lambda x: minimize(Polyline(VERTS), NoPass(1.0), x,
                                              1e-8), DomainError),
    "minimize grad_tol": (lambda x: minimize(Polyline(VERTS), NoPass(1.0), 20,
                                             x), DomainError),
    "el_residual sample": (lambda x: el_residual(with_row(x), NoPass(1.0)),
                           DomainError),
    "beltrami_residual sample": (lambda x: beltrami_residual(
        with_row(x), NoPass(1.0)), DomainError),
}


@pytest.mark.parametrize("value", BAD, ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_entry_refuses_a_value_that_is_not_a_finite_real_number(entry,
                                                                value):
    call, error = ENTRIES[entry]
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("value", BAD, ids=repr)
@pytest.mark.parametrize("shape", ["scalar", "entry"])
def test_clairaut_slope_takes_the_infinite_marker_only(value, shape):
    # dtheta_dr = +-inf marks a tangent perpendicular to the radius: v*r
    # with the marker's sign; anything else that is not a finite real
    # number is refused before the weight pass
    def call(w):
        got = clairaut_constant(2.0, value if shape == "scalar"
                                else [0.5, value], w)
        return got if shape == "scalar" else got[1]
    if value in (math.inf, -math.inf):
        assert call(PowerLaw(1.0)) == math.copysign(4.0, value)
        return
    with pytest.raises(DomainError, match="^dtheta_dr.* must be a real "
                                          r"number or \+-inf, got "):
        call(NoPass(1.0))


@pytest.mark.parametrize("call, message", [
    (lambda: dphi_dz("2", ExtremalSpec(PowerLaw(1.0), 1.0)),
     "z must be a finite real number, got '2'"),
    (lambda: dphi_dz(True, ExtremalSpec(PowerLaw(1.0), 1.0)),
     "z must be a finite real number, got True"),
    (lambda: clairaut_constant(2.0, "0.5", PowerLaw(1.0)),
     "dtheta_dr must be a real number or +-inf, got '0.5'"),
    (lambda: lagrangian_partials_cartesian(CartesianPoint("1", 1.0), 0.5,
                                           PowerLaw(1.0)),
     "x must be a finite real number, got '1'")])
def test_text_and_bools_are_refused_where_they_were_taken(call, message):
    # dphi_dz and clairaut_constant parsed text and took True as 1.0, and
    # lagrangian_partials_cartesian raised a bare TypeError from math.hypot
    with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
        call()


# the weight passes at z, z0 = 1.5 for the slope
PASSES = {"eval_v": eval_v, "eval_q": eval_q, "eval_vq": eval_vq,
          "eval_vq2": eval_vq2,
          "eval_slope": lambda w, z: eval_slope(w, z, 1.5, 0.5),
          "masked_v": masked_v}


@pytest.mark.parametrize("z", ["2", None, True, np.True_, 2j, ["2.0"],
                               [1.0, None], np.array([True, False])],
                         ids=repr)
@pytest.mark.parametrize("name", sorted(PASSES))
def test_weight_passes_refuse_z_that_is_not_a_real_number(name, z):
    # np.asarray(z, dtype=float) parsed text and took True as 1.0
    with pytest.raises(DomainError, match=r"^z(\[\d+\])? must be a real "
                                          r"number or \+-inf, got "):
        PASSES[name](NoPass(1.0), z)


@pytest.mark.parametrize("name", sorted(PASSES))
def test_weight_passes_keep_their_errors_at_infinite_z(name):
    for z in (math.inf, -math.inf, np.float64(math.inf), [2.0, math.inf],
              np.array([-math.inf, 2.0])):
        if name == "masked_v":
            assert not PASSES[name](PowerLaw(1.0), z)[1].all()
            continue
        error = EvalError if np.all(np.asarray(z) > 0.0) else DomainError
        with pytest.raises(error, match="^weight value is not finite"
                           if error is EvalError else "^z must exceed"):
            PASSES[name](PowerLaw(1.0), z)


@pytest.mark.parametrize("kind", [np.float32, np.int64, Fraction, int],
                         ids=lambda t: t.__name__)
@pytest.mark.parametrize("name", sorted(PASSES))
def test_weight_passes_take_every_real_type(name, kind):
    def parts(z):
        out = PASSES[name](PowerLaw(1.3), z)
        return [bits(x) for x in (out if isinstance(out, tuple) else [out])]
    for z, want in ((kind(2), 2.0), ([kind(2), 3.0], [2.0, 3.0]),
                    (np.array([2, 3]), [2.0, 3.0])):
        assert parts(z) == parts(np.asarray(want))


# entry and argument: the result of a call of one good value, as a float,
# or an array, that must not depend on the value's type
GOOD = {
    "PowerLaw lam": (2, lambda x: PowerLaw(x).lam),
    "ExtremalSpec n": (2, lambda x: ExtremalSpec(PowerLaw(0.5), x).z_turn),
    "ExtremalSpec phi0": (1, lambda x: trace_extremal(
        ExtremalSpec(PowerLaw(1.0), 1.0, x), 3.0, 5).phi),
    "turning_radius n": (2, lambda x: turning_radius(PowerLaw(0.5), x)),
    "integrate_phi z": (2, lambda x: integrate_phi(
        ExtremalSpec(PowerLaw(1.3), 0.9), x, 1e-12)),
    "integrate_phi z entry": (3, lambda x: integrate_phi(
        ExtremalSpec(PowerLaw(1.3), 0.9), [2.0, x], 1e-12)),
    "trace_extremal z_max": (3, lambda x: trace_extremal(
        ExtremalSpec(PowerLaw(1.3), 0.9), x, 5).phi),
    "dphi_dz": (2, lambda x: dphi_dz([x, 3.0], ExtremalSpec(PowerLaw(1.3),
                                                            0.9))),
    "clairaut_constant": (2, lambda x: clairaut_constant(x, [x / 4, math.inf],
                                                         PowerLaw(1.3))),
    "lagrangian_partials_cartesian": (2, lambda x: astuple(
        lagrangian_partials_cartesian(CartesianPoint(x, x + 1), x / 4,
                                      PowerLaw(1.3)))),
    "first_integral_deviation": (2, lambda x: first_integral_deviation(
        PowerLaw(1.3), x / 2, [x, 3.0])),
    "BvpProblem endpoints": (1, lambda x: solve_n(BvpProblem(
        PolarPoint(-x, x), PolarPoint(x, x), PowerLaw(0.0)), (1.2, 3.5),
        1e-10).n),
    "solve_n n bracket": (4, lambda x: solve_n(BvpProblem(
        PolarPoint(-1.047, 1.0), PolarPoint(1.047, 1.0), PowerLaw(0.0)),
        (1.2, x), 1e-10).n),
    "PowerLawCurve": (2, lambda x: PowerLawCurve(x, x, x).z_turn),
    "power_law_point": (1, lambda x: power_law_point(
        PowerLawCurve(x, x + 1, x), x / 4)),
    "log_spiral_point": (2, lambda x: log_spiral_point(x, x / 2, x / 2)),
    "algebraic_relation_residual": (2, lambda x: algebraic_relation_residual(
        PowerLawCurve(x, x + 1, x / 2), PolarPoint(x / 8, x / 2))),
    "Polyline": (1, lambda x: minimize(Polyline(
        [(-x, x), (0.0, x + 1), (x, x)]), PowerLaw(1.0), 20, 1e-8).value),
    "el_residual": (1, lambda x: el_residual(
        [(k * x, 2 * x + k * k * x / 8) for k in range(6)], PowerLaw(1.0))),
}
TYPES = [np.float64, np.float32, np.int64, Fraction, int]


def bits(result):
    if isinstance(result, PolarPoint):
        result = astuple(result)
    return np.asarray(result, dtype=float).tobytes()


@pytest.mark.parametrize("kind", TYPES, ids=lambda t: t.__name__)
@pytest.mark.parametrize("entry", sorted(GOOD))
def test_numbers_of_every_real_type_give_the_float_bits(entry, kind):
    value, call = GOOD[entry]
    assert bits(call(kind(value))) == bits(call(float(value)))


@pytest.mark.parametrize("kind", TYPES, ids=lambda t: t.__name__)
def test_counts_of_every_integer_type_give_the_int_bits(kind):
    if kind in (np.float64, np.float32, Fraction):
        with pytest.raises(DomainError, match="^num_samples must be an "
                                              "integer, got "):
            trace_extremal(ExtremalSpec(PowerLaw(1.3), 0.9), 3.0, kind(5))
        return
    spec = ExtremalSpec(PowerLaw(1.3), 0.9)
    assert bits(trace_extremal(spec, 3.0, kind(5)).phi) == \
        bits(trace_extremal(spec, 3.0, 5).phi)
    pl = Polyline(VERTS)
    assert minimize(pl, PowerLaw(1.0), kind(20), 1e-8).value == \
        minimize(pl, PowerLaw(1.0), 20, 1e-8).value


@pytest.mark.parametrize("value, message", [
    ("1.0", "x must be a finite real number, got '1.0'"),
    (True, "x must be a finite real number, got True"),
    (np.bool_(True), "x must be a finite real number, got np.True_"),
    (1j, "x must be a finite real number, got 1j"),
    (math.nan, "x must be a finite real number, got nan"),
    (10 ** 400, "x must be a finite real number, got 1" + "0" * 400),
    (Fraction(-10 ** 400), "x must be a finite real number, got "
                           f"Fraction(-1{'0' * 400}, 1)"),
    (-1.5, "x must be in [-1.0, 2.0], got -1.5"),
    (2.5, "x must be in [-1.0, 2.0], got 2.5")])
def test_real_names_the_argument_and_the_value(value, message):
    with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
        real("x", value, -1.0, 2.0)


def test_real_bounds_are_inclusive_and_positive_excludes_zero():
    assert real("x", -1.0, -1.0, 2.0) == -1.0
    assert real("x", 2, -1.0, 2.0) == 2.0
    assert real("x", 5e-324, positive=True) == 5e-324
    for zero in (0.0, -0.0, 0):
        with pytest.raises(DomainError, match="^x must be positive, got "):
            real("x", zero, positive=True)
    assert real("k", np.int64(3), 3, 4, integer=True) == 3
    assert type(real("k", np.int64(3), integer=True)) is int
    assert type(real("x", np.float32(0.5))) is float
    with pytest.raises(DomainError, match=r"^k must be in \[3, 4\], got 5$"):
        real("k", 5, 3, 4, integer=True)
    with pytest.raises(DomainError, match="^k must be an integer, got 3.0$"):
        real("k", 3.0, integer=True)


@pytest.mark.parametrize("values, message", [
    ([1.0, "2.0"], "v[1] must be a finite real number, got '2.0'"),
    ([[1.0, 2.0], [True, 3.0]], "v[1, 0] must be a finite real number, got "
                                "True"),
    (np.array([[1.0, 2.0], [3.0, np.inf]]), "v[1, 1] must be a finite real "
                                            "number, got inf"),
    (np.array([True, False]), "v[0] must be a finite real number, got True"),
    ([[1.0, 2.0], [3.0]], "v[0] must be a finite real number, got [1.0, "
                          "2.0]"),
    (None, "v must be a finite real number, got None")])
def test_real_array_names_the_first_bad_entry(values, message):
    with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
        real_array("v", values)


def test_real_array_converts_a_new_array():
    a = np.array([1.0, 2.0])
    got = real_array("v", a)
    assert got is not a and got.tolist() == [1.0, 2.0]
    got = real_array("v", [Fraction(1, 2), np.int64(2), np.float32(0.25)])
    assert got.dtype == float and got.tolist() == [0.5, 2.0, 0.25]
    assert real_array("v", np.arange(3)).dtype == float


def test_infinite_takes_the_markers_and_refuses_nan():
    assert real("x", -math.inf, infinite=True) == -math.inf
    assert real_array("v", [1.0, math.inf], infinite=True).tolist() == \
        [1.0, math.inf]
    for bad in (math.nan, "inf", True, None):
        with pytest.raises(DomainError, match=r"^x must be a real number or "
                                              r"\+-inf, got "):
            real("x", bad, infinite=True)
    with pytest.raises(DomainError, match=r"^v\[1\] must be a real number or "
                                          r"\+-inf, got nan$"):
        real_array("v", np.array([1.0, math.nan]), infinite=True)
