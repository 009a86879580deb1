import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radial_extremals import NoBracket
from radial_extremals.roots import find_root


def counted(f):
    calls = []

    def wrapper(x):
        y = f(x)
        calls.append((x, y))
        return y
    return wrapper, calls


def bisection_count(a, b):
    """Halvings bisection needs to shrink [a, b] to find_root's final width."""
    eps = 2.0 * math.ulp(max(abs(a), abs(b)))
    return math.ceil(math.log2((b - a) / (2.0 * eps)))


class TestFindRoot:
    def test_exact_zero_at_lower_end(self):
        f, calls = counted(lambda x: x - 1.0)
        assert find_root(f, 1.0, 3.0, 0.0, 2.0, 1e-12) == (1.0, 0.0)
        assert calls == []

    def test_exact_zero_at_upper_end(self):
        f, calls = counted(lambda x: x - 3.0)
        assert find_root(f, 1.0, 3.0, -2.0, 0.0, 0.0) == (3.0, 0.0)
        assert calls == []

    def test_same_sign_ends_raise(self):
        with pytest.raises(NoBracket):
            find_root(lambda x: x * x + 1.0, -1.0, 2.0, 2.0, 5.0, 1e-12)

    def test_nan_end_raises(self):
        with pytest.raises(NoBracket):
            find_root(lambda x: x, -1.0, 2.0, math.nan, 2.0, 1e-12)

    def test_empty_bracket_raises(self):
        with pytest.raises(NoBracket):
            find_root(lambda x: x, 2.0, 2.0, -1.0, 1.0, 1e-12)

    def test_decreasing_function(self):
        x, fx = find_root(lambda x: math.cos(x), 0.0, 3.0, 1.0,
                          math.cos(3.0), 1e-15)
        assert abs(fx) <= 1e-15
        assert x == pytest.approx(0.5 * math.pi, rel=1e-15)

    def test_smooth_root_is_superlinear(self):
        f, calls = counted(lambda x: math.exp(x) - 2.0)
        x, fx = find_root(f, 0.0, 2.0, -1.0, math.exp(2.0) - 2.0, 1e-14)
        assert abs(fx) <= 1e-14
        assert x == pytest.approx(math.log(2.0), rel=1e-14)
        assert len(calls) <= 6

    @pytest.mark.parametrize("ftol", [0.0, 1e-14])
    def test_strongly_curved_root_is_superlinear(self, ftol):
        # ITP's truncated regula falsi step alone spent its one step of
        # slack and fell back to bisection: 51 evaluations
        f, calls = counted(lambda x: x ** 3 - 2.0)
        x, fx = find_root(f, 0.0, 4.0, -2.0, 62.0, ftol)
        assert x == pytest.approx(2.0 ** (1.0 / 3.0), rel=4e-16)
        assert abs(fx) <= max(ftol, 4.0 * math.ulp(2.0))
        assert len(calls) <= 10

    @pytest.mark.parametrize("levels", [(-1.0, 1.0), (-1.0, 3.0),
                                        (-5.0, 1e-3), (-1e-9, 1.0)])
    @pytest.mark.parametrize("jump", [0.1, 1.0 / 3.0, 0.7, 0.999999])
    def test_step_function_keeps_bisection_worst_case(self, levels, jump):
        lo, hi = levels
        f, calls = counted(lambda x: lo if x < jump else hi)
        x, _ = find_root(f, 0.0, 1.0, lo, hi, 0.0)
        # ITP with n0 = 1: never more than one evaluation beyond bisection
        assert len(calls) <= bisection_count(0.0, 1.0) + 1
        assert abs(x - jump) <= 4.0 * math.ulp(1.0)


@st.composite
def monotone_cubics(draw):
    """c3*x^3 + c2*x^2 + c1*x + c0, strictly increasing: c2^2 < 3*c1*c3."""
    c3 = draw(st.floats(0.1, 10.0))
    c1 = draw(st.floats(0.1, 10.0))
    bound = math.sqrt(3.0 * c1 * c3)
    c2 = draw(st.floats(-0.99 * bound, 0.99 * bound))
    c0 = draw(st.floats(-50.0, 50.0))
    return c3, c2, c1, c0


def cubic_root(c3, c2, c1, c0):
    """The one real root of an increasing cubic, by bisection to an ulp."""
    lo = -1.0 - max(abs(c2), abs(c1), abs(c0)) / c3    # Cauchy's bound
    hi = -lo
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if ((c3 * mid + c2) * mid + c1) * mid + c0 < 0.0:
            lo = mid
        else:
            hi = mid


@settings(max_examples=300, deadline=None)
@given(coef=monotone_cubics(), u=st.floats(1e-3, 1.0 - 1e-3),
       width=st.floats(1e-6, 40.0), ftol=st.sampled_from([0.0, 1e-14, 1e-9]))
def test_monotone_cubic_property(coef, u, width, ftol):
    # the bracket straddles the root at u of its width from the lower end:
    # a slope of at least c1 - c2^2/(3*c3) >= 0.0199*c1 keeps f(a) and f(b)
    # clear of the rounding of f, so every draw holds a sign change
    c3, c2, c1, c0 = coef
    a = cubic_root(c3, c2, c1, c0) - u * width
    b = a + width
    f, calls = counted(lambda x: ((c3 * x + c2) * x + c1) * x + c0)
    fa, fb = f(a), f(b)
    assert fa < 0.0 < fb
    calls.clear()
    x, fx = find_root(f, a, b, fa, fb, ftol)
    assert len(calls) <= bisection_count(a, b) + 1
    assert a <= x <= b and fx == f(x)
    if abs(fx) <= ftol:
        return
    # otherwise the evaluated points pin a sign change to a few ulps of x
    seen = sorted([(a, fa), (b, fb)] + calls)
    below = max(p for p, y in seen if p <= x and y * fb <= 0.0)
    above = min(p for p, y in seen if p >= x and y * fa <= 0.0)
    assert above - below <= 4.0 * math.ulp(max(abs(a), abs(b)))
