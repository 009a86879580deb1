import copy
import math
import pickle
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radial_extremals import (DomainError, EvalError, ExpressionWeight,
                              ExtremalError, NonPositiveWeight, ParseError,
                              PowerLaw, RadialWeight, eval_q, eval_v, eval_vq,
                              parse_weight)
from radial_extremals import expressions
from radial_extremals.expressions import FUNCTIONS, parse_expression
from radial_extremals.weights import eval_slope, eval_vq2, wide_v

import dual_reference


def central_difference(w, z, h):
    return (eval_v(w, z + h) - eval_v(w, z - h)) / (2.0 * h)


class TestEvalV:
    def test_power_law_square(self):
        assert eval_v(PowerLaw(2.0), 3.0) == 9.0

    def test_constant_weight(self):
        assert eval_v(PowerLaw(0.0), 17.3) == 1.0

    def test_reciprocal_expression(self):
        assert eval_v(parse_weight("1/z"), 2.0) == 0.5

    def test_domain_error_at_or_below_minimum(self):
        with pytest.raises(DomainError):
            eval_v(PowerLaw(1.0), 0.0)
        with pytest.raises(DomainError):
            eval_v(PowerLaw(1.0), -1.0)
        w = parse_weight("1+z")
        for z in (0.0, -0.5, np.array([0.5, 0.0])):
            with pytest.raises(DomainError):
                eval_v(w, z)

    def test_non_positive_weight(self):
        w = parse_weight("z - 2")
        with pytest.raises(NonPositiveWeight):
            eval_v(w, 1.0)
        with pytest.raises(NonPositiveWeight):
            eval_v(w, 2.0)

    def test_eval_error_on_blowup(self):
        with pytest.raises(EvalError):
            eval_v(parse_weight("1/(z - 1)"), 1.0)

    def test_array_evaluation_matches_scalars(self):
        w = parse_weight("1/(1+z^2)")
        zs = np.array([0.5, 1.0, 2.0, 7.0])
        vals = eval_v(w, zs)
        assert vals.shape == (4,)
        for z, v in zip(zs, vals):
            assert v == eval_v(w, float(z))


class TestEvalQ:
    def test_power_law_square(self):
        assert eval_q(PowerLaw(2.0), 3.0) == 6.0

    def test_power_law_sqrt(self):
        assert eval_q(PowerLaw(0.5), 4.0) == 0.25

    def test_exp_derivative(self):
        w = parse_weight("exp(z)")
        assert eval_q(w, 1.0) == pytest.approx(math.e, rel=1e-15)
        # near the pole the derivative approaches exp(0) = 1
        assert eval_q(w, 1e-12) == pytest.approx(1.0, rel=1e-9)

    def test_power_law_zero_is_exact(self):
        w = PowerLaw(0.0)
        for z in (1e-6, 0.3, 1.0, 1e6):
            assert eval_v(w, z) == 1.0
            assert eval_q(w, z) == 0.0

    def test_matches_central_difference(self):
        pool = [PowerLaw(lam) for lam in (-1.5, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0)]
        pool += [parse_weight(t) for t in
                 ("1/(1+z^2)", "exp(-z)", "sqrt(z)", "2 + sin(z)/4",
                  "z^2/(1+z)", "log(1+z)+1", "exp(-z^2/8)*(1+z)")]
        rng = np.random.default_rng(20260811)
        checked = 0
        while checked < 100:
            w = pool[checked % len(pool)]
            z = float(rng.uniform(0.2, 5.0))
            q = eval_q(w, z)
            h = 1e-6 * max(1.0, z)
            fd = central_difference(w, z, h)
            assert abs(q - fd) <= 1e-6 * (1.0 + abs(q))
            checked += 1

    # each weight reaches one dual-number rule: Dual + Dual, Dual ** Dual,
    # number ** Dual and the derivative of cos
    DUAL_RULES = {"z + sqrt(z)": lambda m, z: z + m.sqrt(z),
                  "z^z": lambda m, z: z ** z,
                  "2^z": lambda m, z: 2 ** z,
                  "cos(z) + 2": lambda m, z: m.cos(z) + 2}

    @pytest.mark.parametrize("text", DUAL_RULES)
    def test_dual_rules_match_mpmath(self, text):
        mpmath = pytest.importorskip("mpmath")
        w, f = parse_weight(text), self.DUAL_RULES[text]
        z = np.linspace(0.2, 4.0, 39)
        with mpmath.workdps(30):
            ref = [float(mpmath.diff(lambda x: f(mpmath, x), mpmath.mpf(x)))
                   for x in z.tolist()]
        got = eval_q(w, z)
        assert got.tolist() == [eval_q(w, x) for x in z.tolist()]
        assert np.abs(got - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())


class _HandWeight(RadialWeight):
    """A fake weight 1 + z*z written out by hand, with all three raw
    passes."""

    def _raw_v(self, z):
        return 1.0 + z * z

    def _raw_vq2(self, z):
        return 1.0 + z * z, 2.0 * z, np.full_like(z, 2.0)

    def _raw_slope(self, z, z0, dz):
        return 1.0 + z * z, 2.0 * z0 + dz

    def text(self):
        return "1 + z*z, by hand"


def _separate_q(w, z):
    """eval_q from separate raw value and derivative passes, checked in
    eval_q's order: domain, value finite, value positive, derivative
    finite."""
    za = np.asarray(z, dtype=float)
    if not np.all(za > 0.0):
        raise DomainError("z must exceed the weight's domain minimum 0.0")
    with np.errstate(all="ignore"):
        val = w._raw_v(za)
        if isinstance(w, ExpressionWeight):
            der = np.broadcast_to(np.asarray(
                dual_reference.raw_vq(w.ast, za)[1], dtype=float), za.shape)
        elif isinstance(w, PowerLaw):
            der = w.lam * za ** (w.lam - 1.0) if w.lam else np.zeros_like(za)
        else:
            der = w._raw_vq2(za)[1]
    if not np.all(np.isfinite(val)):
        raise EvalError(f"weight value is not finite for {w!r}")
    if np.any(val <= 0.0):
        raise NonPositiveWeight(f"weight {w!r} is non-positive at some z")
    if not np.all(np.isfinite(der)):
        raise EvalError(f"weight derivative is not finite for {w!r}")
    return float(der) if za.ndim == 0 else der


def _outcome(fn):
    """fn()'s result as (type, shape, int64 bits) per part, or its error's
    class and message."""
    try:
        out = fn()
    except ExtremalError as exc:
        return type(exc), str(exc)
    return [(type(x), np.shape(x),
             np.asarray(x, dtype=float).view(np.int64).tolist())
            for x in (out if isinstance(out, tuple) else (out,))]


_VQ_POINTS = [0.3, 1.0, 1.7, np.linspace(0.1, 3.0, 7),
              np.array([[0.5, 1.2], [2.0, 1.41]]), 0.0, -1.0,
              np.array([0.5, 0.0])]


class _FloatWeight(RadialWeight):
    """A fake weight whose raw passes return preset values, whatever z:
    Python floats (q, also the slope, is 0.0 unless given, v'' is 0.0), or
    arrays."""

    def __init__(self, v, q=0.0):
        self.v, self.q = v, q

    def _raw_v(self, z):
        return self.v

    def _raw_vq2(self, z):
        return self.v, self.q, 0.0

    def _raw_slope(self, z, z0, dz):
        return self.v, self.q

    def text(self):
        return f"{self.v}, by hand"


def _checked_separately(w, z, derivative):
    """eval_v (eval_vq if derivative) from one raw pass and the separate
    checks in their order: domain, value finite, value positive, derivative
    finite; a float (a pair) for a scalar z, else the raw pass's result."""
    za = np.asarray(z, dtype=float)
    if not np.all(za > 0.0):
        raise DomainError("z must exceed the weight's domain minimum 0.0")
    with np.errstate(all="ignore"):
        out = w._raw_vq2(za)[:2] if derivative else (w._raw_v(za),)
    if not np.all(np.isfinite(out[0])):
        raise EvalError(f"weight value is not finite for {w!r}")
    if np.any(np.asarray(out[0]) <= 0.0):
        raise NonPositiveWeight(f"weight {w!r} is non-positive at some z")
    if derivative and not np.all(np.isfinite(out[1])):
        raise EvalError(f"weight derivative is not finite for {w!r}")
    if za.ndim == 0:
        out = tuple(float(x) for x in out)
    return out if derivative else out[0]


# (weight, z, the error eval_vq raises) for each check, on scalars and
# arrays of both weight kinds; an array's first point passes every check
_FUSED_CASES = [
    (PowerLaw(1.3), -1.0, DomainError),
    (PowerLaw(1.3), np.array([0.5, 0.0]), DomainError),
    (PowerLaw(-2.0), 1e-200, EvalError),            # v overflows to inf
    (PowerLaw(-2.0), np.array([1.0, 1e-200]), EvalError),
    (PowerLaw(2.0), 1e-200, NonPositiveWeight),     # v underflows to 0
    (PowerLaw(2.0), np.array([1.0, 1e-200]), NonPositiveWeight),
    (PowerLaw(-0.5), 1e-300, EvalError),            # q is -inf, v finite
    (PowerLaw(-0.5), np.array([1.0, 1e-300]), EvalError),
    (parse_weight("2.5*z^1.3"), 0.0, DomainError),
    (parse_weight("2.5*z^1.3"), np.array([1.0, -2.0]), DomainError),
    (parse_weight("1/(z-1)"), 1.0, EvalError),
    (parse_weight("-1/(z-1)"), np.array([2.0, 1.0]), EvalError),  # -inf
    (parse_weight("sqrt(z-2)-1"), np.array([2.5, 1.0]), EvalError),  # NaN
    (parse_weight("z - 1"), 1.0, NonPositiveWeight),
    (parse_weight("z - 1"), np.array([2.0, 0.5]), NonPositiveWeight),
    (parse_weight("1+sqrt(z-1)"), 1.0, EvalError),
    (parse_weight("1+sqrt(z-1)"), np.array([2.0, 1.0]), EvalError),
    (_FloatWeight(2.0), np.array([1.0, 2.0]), None),
    (_FloatWeight(-1.0), 1.0, NonPositiveWeight),
]


class TestEvalVQ:
    @pytest.mark.parametrize("weight", [
        PowerLaw(1.3), PowerLaw(0.0), PowerLaw(2.0817992419720928),
        # the five perfbench expression forms
        parse_weight("2.5*z^1.3"), parse_weight("z^1.3*2.5"),
        parse_weight("exp(1.3*log(z))"), parse_weight("z*sqrt(z)"),
        parse_weight("2.5*z*z"),
        parse_weight("1.0*z^2.0817992419720928"),
        parse_weight("1/(1+z^2)"), parse_weight("3"), parse_weight("2-1"),
        parse_weight("sqrt(2-z^2)"),     # undefined past sqrt(2)
        parse_weight("z - 1"),           # non-positive at and below 1
        parse_weight("1+sqrt(z-1)"),     # infinite derivative at 1
        parse_weight("1/(z-1)"),         # infinite value at 1
        _HandWeight()], ids=repr)
    def test_equals_eval_v_and_eval_q(self, weight):
        def reference():   # eval_q's checks first, then eval_v's value
            q = _separate_q(weight, z)
            return eval_v(weight, z), q

        for z in _VQ_POINTS:
            assert _outcome(lambda: eval_vq(weight, z)) == \
                _outcome(reference), z
            assert _outcome(lambda: (eval_q(weight, z),)) == \
                _outcome(lambda: (_separate_q(weight, z),)), z

    @pytest.mark.parametrize("weight,z,cls,match", [
        (PowerLaw(1.0), 0.0, DomainError, "domain minimum"),
        (parse_weight("sqrt(2-z^2)"), 1.5, EvalError, "value is not finite"),
        (parse_weight("z - 1"), 1.0, NonPositiveWeight, "non-positive"),
        (parse_weight("1+sqrt(z-1)"), 1.0, EvalError,
         "derivative is not finite")])
    def test_each_check_is_reached(self, weight, z, cls, match):
        with pytest.raises(cls, match=match):
            eval_vq(weight, z)

    @pytest.mark.parametrize("weight,z,cls", _FUSED_CASES,
                             ids=lambda x: repr(x).replace("\n", ""))
    def test_fused_check_picks_the_separate_checks_error(self, weight, z,
                                                         cls):
        # the fused test of a checked pass fails exactly where a separate
        # check would, and the error is the first separate check's
        got = _outcome(lambda: eval_vq(weight, z))
        assert got == _outcome(lambda: (_checked_separately(weight, z, False),
                                        _separate_q(weight, z)))
        if cls is not None:
            assert got[0] is cls
        assert _outcome(lambda: (eval_v(weight, z),)) == \
            _outcome(lambda: (_checked_separately(weight, z, False),))

    @pytest.mark.parametrize("z", [np.array([0.5, 2.0, 3.0]),
                                   np.array([[0.5], [2.0]]), 1.5])
    def test_constant_expression_takes_the_shape_of_z(self, z):
        w = parse_weight("2.5")
        v, q = eval_vq(w, z)
        assert np.shape(v) == np.shape(q) == np.shape(z)
        assert (np.asarray(v) == 2.5).all() and not np.any(q)
        assert np.shape(eval_v(w, z)) == np.shape(z)
        assert np.shape(w._raw_v(np.asarray(z))) == np.shape(z)

    def test_weight_z_never_aliases_its_input(self):
        w = parse_weight("z")
        z = np.array([0.5, 2.0, 3.0])
        results = [eval_v(w, z), eval_vq(w, z)[0], w._raw_v(z),
                   w._raw_vq2(z)[0]]
        for v in results:
            assert v.tolist() == [0.5, 2.0, 3.0]
            try:
                v[0] = 7.0
            except ValueError:   # a read-only view
                pass
            assert z.tolist() == [0.5, 2.0, 3.0]


_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-300,
            1e-200, 1.0, math.sqrt(2.0), 2.0]
_EXPRESSIONS = ["z - 1", "sqrt(2-z^2)", "1+sqrt(z-1)", "1/(z-1)", "-1/(z-1)",
                "2.5*z^1.3", "sin(z)", "log(z)", "z", "3"]


def _entries(data, shape, low, high):
    """A float array of the shape, uniform on [low, high] but for up to two
    entries drawn from _SPECIAL."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.uniform(low, high, shape)
    if x.size:
        for k, special in data.draw(st.lists(st.tuples(
                st.integers(0, x.size - 1), st.sampled_from(_SPECIAL)),
                max_size=2)):
            x.flat[k] = special
    return x


class TestFusedCheck:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_equals_the_separate_checks(self, data):
        # same error class and message, or the same bits and return types,
        # as one raw pass checked by the separate checks in order
        form = data.draw(st.sampled_from(
            ["float", "float64", "0-d", "1-d", "K x 15"]))
        shape = {"1-d": (data.draw(st.integers(0, 6)),),
                 "K x 15": (data.draw(st.integers(1, 3)), 15)}.get(form, ())
        z = _entries(data, shape, 0.05, 4.0)
        z = {"float": float, "float64": np.float64}.get(form, np.asarray)(z)
        kind = data.draw(st.sampled_from(["power", "expression", "preset"]))
        if kind == "power":
            w = PowerLaw(data.draw(st.sampled_from(
                [-2.0, -0.5, 0.0, 1.0, 1.3, 2.0])))
        elif kind == "expression":
            w = ExpressionWeight(data.draw(st.sampled_from(_EXPRESSIONS)))
        else:   # Python floats, or arrays of z's shape
            v, q = (data.draw(st.one_of(st.sampled_from(_SPECIAL),
                                        st.just(_entries(data, shape, *r))))
                    for r in ((0.1, 3.0), (-3.0, 3.0)))
            w = _FloatWeight(v, q)
        before = np.array(z)
        for derivative, fn in ((False, eval_v), (True, eval_vq)):
            got = _outcome(lambda: fn(w, z))
            assert got == _outcome(
                lambda: _checked_separately(w, z, derivative))
            if isinstance(got, list):
                out = fn(w, z)
                for x in out if derivative else (out,):
                    assert x is not z
                    if isinstance(z, np.ndarray) and np.shares_memory(x, z):
                        assert not x.flags.writeable
        assert _outcome(lambda: eval_q(w, z)) == \
            _outcome(lambda: _checked_separately(w, z, True)[1])
        if kind != "preset":   # v of a separate eval_v pass, q of the
            # dual reference or of lam*z**(lam-1), same bits and errors
            assert _outcome(lambda: eval_vq2(w, z)[:2]) == \
                _outcome(lambda: (eval_v(w, z), _separate_q(w, z)))
        assert np.array_equal(np.asarray(z), before, equal_nan=True)

    @pytest.mark.parametrize("v,q,z,cls,match", [
        # v broadcast against an empty q in one mask would count no entry
        (math.nan, np.zeros(0), np.zeros(0), EvalError, "value"),
        (-1.0, np.zeros(0), np.zeros(0), NonPositiveWeight, "non-positive"),
        # v = +inf with q finite: only the value test sees it
        (np.array([1.0, math.inf]), np.zeros(2), np.ones(2), EvalError,
         "value"),
        (math.inf, 0.0, 1.0, EvalError, "value"),
        (np.array([1.0, 2.0]), np.array([0.0, -math.inf]), np.ones(2),
         EvalError, "derivative"),
        (1.0, math.nan, np.float64(1.0), EvalError, "derivative"),
        (-0.0, 0.0, np.asarray(1.0), NonPositiveWeight, "non-positive")])
    def test_edge_cases(self, v, q, z, cls, match):
        w = _FloatWeight(v, q)
        with pytest.raises(cls, match=match):
            eval_vq(w, z)
        assert _outcome(lambda: eval_vq(w, z)) == \
            _outcome(lambda: _checked_separately(w, z, True))
        assert _outcome(lambda: eval_v(w, z)) == \
            _outcome(lambda: _checked_separately(w, z, False))


class TestParse:
    def test_bare_power_reduces_to_power_law(self):
        w = parse_weight("z^2")
        assert isinstance(w, PowerLaw)
        assert w.lam == 2.0
        w2 = parse_weight(" z ^ 0.5 ")
        assert isinstance(w2, PowerLaw) and w2.lam == 0.5

    @pytest.mark.parametrize("make", [parse_weight, ExpressionWeight])
    @pytest.mark.parametrize("text", [5, b"z", b"", None, ["z"]])
    def test_text_that_is_not_a_str_raises(self, make, text):
        # parse_weight(5) raised AttributeError and b"z" TypeError
        with pytest.raises(DomainError, match="^" + re.escape(
                f"weight expression must be a str, got {text!r}") + "$"):
            make(text)

    @pytest.mark.parametrize("text", ["", "   "])
    def test_empty_text_raises(self, text):
        with pytest.raises(DomainError,
                           match="^weight expression must be nonempty$"):
            parse_weight(text)

    def test_expression_tree(self):
        w = parse_weight("1/(1+z^2)")
        assert isinstance(w, ExpressionWeight)
        assert eval_v(w, 1.0) == 0.5

    def test_incomplete_expression_offset(self):
        with pytest.raises(ParseError) as err:
            parse_weight("z +")
        assert err.value.offset == 3
        assert err.value.expected

    def test_more_parse_errors(self):
        with pytest.raises(ParseError) as err:
            parse_weight("(z")
        assert err.value.offset == 2
        with pytest.raises(ParseError) as err:
            parse_weight("sin z")
        assert err.value.offset == 4
        with pytest.raises(ParseError) as err:
            parse_weight("w + 1")
        assert err.value.offset == 0
        with pytest.raises(ParseError, match="^unexpected character '\\$' "
                           "at offset 1 ") as err:
            parse_weight("z$2")
        assert err.value.offset == 1
        with pytest.raises(DomainError):
            parse_weight("   ")

    def test_precedence_and_right_associative_power(self):
        assert eval_v(parse_weight("2 + 3 * z"), 1.0) == 5.0
        assert eval_v(parse_weight("z^2^3"), 2.0) == 256.0  # 2^(2^3)
        assert eval_v(parse_weight("-z + 4"), 1.0) == 3.0
        assert eval_v(parse_weight("z^-1 + 1"), 2.0) == 1.5

    def test_functions(self):
        assert eval_v(parse_weight("sqrt(z)"), 9.0) == 3.0
        assert eval_v(parse_weight("cos(z) + 2"), 0.0 + 1.0) == \
            pytest.approx(math.cos(1.0) + 2.0, rel=1e-15)

    def test_scientific_literals(self):
        assert eval_v(parse_weight("1e-2 + z"), 1.0) == 1.01

    def test_literal_overflowing_to_inf(self):
        # inf would print as "inf", which does not parse back
        with pytest.raises(ParseError, match="'1e999' overflows") as err:
            parse_weight("2 * 1e999*z")
        assert err.value.offset == 4
        assert parse_expression("1e-999") == expressions.Num(0.0)

    @pytest.mark.parametrize("text,offset,match", [
        ("z+1/0", 3, "divides by zero"),
        ("z+0^(-1)", 3, "divides by zero"),
        ("z+10^400", 4, "overflows"),
        ("(-4)^0.5+z", 4, "has no real value"),
        ("z+(-8)^(1/3)", 6, "has no real value"),
        ("z*(-1)^0.5", 6, "has no real value"),
        ("sqrt(2-1/(3-3))*z", 8, "divides by zero"),
        ("z+1/0*(2/0)", 3, "divides by zero")])
    def test_constant_that_faults_in_python_floats(self, text, offset, match):
        # a ParseError at its operator, not a crash or a real part
        with pytest.raises(ParseError, match="constant subexpression " + match
                           ) as err:
            parse_weight(text)
        assert err.value.offset == offset

    def test_expression_weight_parses_its_text(self):
        # a ParseError at the operator, not a bare ZeroDivisionError at the
        # first pass
        with pytest.raises(ParseError, match="^constant subexpression "
                           "divides by zero at offset 3$") as err:
            ExpressionWeight("z+1/0")
        assert err.value.offset == 3
        w = ExpressionWeight("z^2")   # only parse_weight makes a PowerLaw
        assert w.text() == "z^2" and eval_vq(w, 3.0) == (9.0, 6.0)

    def test_constant_that_numpy_makes_inf_is_left_to_the_checks(self):
        assert eval_v(parse_weight("z^(1/exp(1000))"), 2.0) == 1.0
        with pytest.raises(EvalError):
            eval_v(parse_weight("exp(1000)+z"), 2.0)

    def test_trailing_token(self):
        for text, offset in (("z z", 2), ("(z))", 3), ("2 3", 2)):
            with pytest.raises(ParseError) as err:
                parse_expression(text)
            assert err.value.offset == offset
            assert err.value.expected == {"operator", "end of input"}

    def test_constant_fault_wins_over_a_later_syntax_error(self):
        # each operator is checked as it is read, before the rest of the
        # text is parsed
        with pytest.raises(ParseError, match="^constant subexpression "
                           "divides by zero at offset 1$") as err:
            parse_expression("1/0+)")
        assert err.value.offset == 1

    def test_long_constant_chain(self):
        # 2999 constant terms, each sum folded as it is read, then z
        tree = parse_expression("1+" * 2999 + "z")
        assert tree.ops[-1] == ("+", expressions.Var())
        assert expressions.evaluate(expressions.Chain(tree.first,
                                                      tree.ops[:-1]),
                                    0.0) == (2999.0, None, None)
        w = parse_weight("1+" * 2999 + "z")
        assert eval_vq(w, 1.3) == (1.3 + 2999.0, 1.0)

    @pytest.mark.parametrize("terms", [3000, 20000])
    def test_long_sums_compare_and_hash_without_recursion(self, terms):
        # a sum is one Chain, so == and hash recurse once, not once per
        # term as a binary tree's generated ones did
        text = "+".join(["z"] * terms)
        a, b = parse_expression(text), parse_expression(text)
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        leaves = ["z"] * terms
        leaves[terms // 2] = "2"
        other = parse_expression("+".join(leaves))
        assert a != other and not a == other and b != other
        assert parse_expression(text + "*z") != a != parse_expression(
            text.replace("+", "-", 1))

    @pytest.mark.parametrize("op", ["+", "*"])
    @pytest.mark.parametrize("terms", [3000, 20000])
    def test_long_runs_print_copy_and_pickle_without_recursion(self, op,
                                                               terms):
        # repr, pickle and deepcopy of a binary tree recursed once per term
        text = op.join(["z"] * terms)
        tree, w = parse_expression(text), parse_weight(text)
        z0 = 1.0 + 1e-5    # a product's terms keep z^terms finite near 1
        z = z0 + np.array([-1e-5, 0.0, 3e-5])
        for copy_of in (copy.deepcopy,
                        lambda x: pickle.loads(pickle.dumps(x))):
            tree2, w2 = copy_of(tree), copy_of(w)
            assert tree2 is not tree and tree2 == tree == w2.ast
            assert hash(tree2) == hash(tree) == hash(w2.ast)
            assert repr(tree2) == repr(tree) and repr(w2) == repr(w)
            for call in (lambda x: (eval_v(x, z), eval_v(x, z0)),
                         lambda x: eval_vq2(x, z),
                         lambda x: eval_slope(x, z, z0, z - z0)):
                want = _raw_outcome(lambda: call(w))
                assert isinstance(want, list)
                assert _raw_outcome(lambda: call(w2)) == want

    @pytest.mark.parametrize("nest", [
        lambda k: "-" * k + "z", lambda k: "z^" * k + "z",
        lambda k: "(" * k + "z" + ")" * k,
        lambda k: "(z+" * k + "z" + ")" * k,
        lambda k: "exp(" * k + "z" + ")" * k],
        ids=["minus", "power", "parentheses", "parenthesised-sums",
             "functions"])
    def test_deepest_accepted_nesting_hashes_prints_and_copies(self, nest):
        # 64 levels parse, and hash, repr, pickle and deepcopy take the
        # tree; "-" * 989 + "z" parsed, and all four raised RecursionError
        tree = parse_expression(nest(64))
        for copy_of in (copy.deepcopy,
                        lambda x: pickle.loads(pickle.dumps(x))):
            tree2 = copy_of(tree)
            assert tree2 == tree and hash(tree2) == hash(tree)
            assert repr(tree2) == repr(tree)
        with pytest.raises(ParseError, match="nests too deeply") as err:
            parse_expression(nest(65))
        assert err.value.offset == 0

    @pytest.mark.parametrize("text", ["-" * 5000 + "z",
                                      "(" * 2000 + "z" + ")" * 2000,
                                      "z^" * 3000 + "z"])
    def test_nesting_deeper_than_the_stack(self, text):
        with pytest.raises(ParseError, match="nests too deeply") as err:
            parse_weight(text)
        assert err.value.offset == 0

    @pytest.mark.parametrize("frames, parses", [(100, True), (600, False)])
    def test_accepted_nesting_from_deep_in_the_callers_stack(self, frames,
                                                             parses):
        # 64 parentheses, within the depth bound, take the parser about 450
        # frames: from 600 frames deep it runs out of Python's default 1000
        # and raises the bound's error, at offset 0, in place of
        # RecursionError
        text = "(" * 64 + "z" + ")" * 64

        def parse_below(k):   # k frames below the caller
            return parse_expression(text) if k <= 0 else parse_below(k - 1)

        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            if parses:
                assert parse_below(frames - depth) == parse_expression(text)
            else:
                with pytest.raises(ParseError, match="^expression nests too "
                                   "deeply") as err:
                    parse_below(frames - depth)
                assert err.value.offset == 0
        finally:
            sys.setrecursionlimit(limit)


def _chains(sub):
    """Chains as the parser builds them: a run of one to three '+'/'-'
    pairs or '*'/'/' pairs, or one '^' pair."""
    def run(ops, most):
        pairs = st.lists(st.tuples(st.sampled_from(ops), sub), min_size=1,
                         max_size=most)
        return st.builds(expressions.Chain, sub, pairs.map(tuple))
    return run("+-", 3) | run("*/", 3) | run("^", 1)


# expression trees as parse_expression builds them: literals are finite and
# not negative (a leading minus is a Neg node)
_TREES = st.recursive(
    st.builds(expressions.Num, st.floats(min_value=0.0, allow_nan=False,
                                         allow_infinity=False))
    | st.just(expressions.Var()),
    lambda sub: st.builds(expressions.Neg, sub) | _chains(sub)
    | st.builds(expressions.Fun, st.sampled_from(sorted(FUNCTIONS)), sub),
    max_leaves=12)


def _text(node, start=0):
    """(text, operators): a tree as fully parenthesized text that parses
    back to it, and for each operator of a Chain (the chain up to that
    operator's pair, the operator's offset in the text), operands before
    operators, as the parser reads them.  start is the offset of the tree's
    own text."""
    if isinstance(node, expressions.Num):
        return repr(node.value), []
    if isinstance(node, expressions.Var):
        return "z", []
    if isinstance(node, expressions.Neg):
        inner, ops = _text(node.operand, start + 2)
        return f"-({inner})", ops
    if isinstance(node, expressions.Fun):
        inner, ops = _text(node.arg, start + len(node.name) + 1)
        return f"{node.name}({inner})", ops
    text, ops = _text(node.first, start + 1)
    text = f"({text})"
    for k, (op, operand) in enumerate(node.ops):
        off = start + len(text)
        inner, inner_ops = _text(operand, off + 2)
        text += f"{op}({inner})"
        ops += inner_ops + [(expressions.Chain(node.first, node.ops[:k + 1]),
                             off)]
    return text, ops


def _first_fault(tree):
    """The offset in _text(tree) of the first operator, operands first,
    whose operands have no z and whose value raises or goes complex in
    Python floats by the reference walk; None if no operator does."""
    for node, off in _text(tree)[1]:
        if "z" in _text(node)[0]:   # no function name has a z
            continue
        try:
            with np.errstate(all="ignore"):
                value = dual_reference.walk(node, None)
        except (ZeroDivisionError, OverflowError):
            return off
        if isinstance(value, complex):
            return off
    return None


class TestTextRoundTrip:
    TEXTS = ["1/(1+z^2)", "exp(-z)", "sqrt(z) * (1 + z)",
             "2 + sin(z)/4 - cos(z)/8", "z^2/(1+z)", "-(z - 3) + z*z",
             "log(1+z) + 1", "z^-2 + 1", "exp(-z^2/8)*(1+z)"]

    @pytest.mark.parametrize("text", TEXTS + [
        "z - (z - 1) - 2", "-(-z)^2^-z / -(z*z)", "2^z^z", "(2^z)^z"])
    def test_printed_text_parses_back_to_the_tree(self, text):
        # the tree that precedence and associativity build is the one that
        # full parentheses spell out
        tree = parse_expression(text)
        assert parse_expression(_text(tree)[0]) == tree

    @settings(max_examples=300, deadline=None)
    @given(_TREES)
    def test_any_tree_parses_back(self, tree):
        # unless a subtree without z faults, which is a ParseError
        text = _text(tree)[0]
        if _constant_fault(tree):
            with pytest.raises(ParseError, match="constant subexpression"):
                parse_expression(text)
        else:
            assert parse_expression(text) == tree

    @settings(max_examples=300, deadline=None)
    @given(_TREES)
    def test_any_tree_weight_gets_the_parsers_check(self, tree):
        text = _text(tree)[0]
        if _constant_fault(tree):
            with pytest.raises(ParseError, match="constant subexpression"):
                ExpressionWeight(text)
        else:
            w = ExpressionWeight(text)
            assert w.ast == tree and w.text() == text

    @settings(max_examples=300, deadline=None)
    @given(_TREES)
    @example(expressions.Chain(expressions.Num(1.0), (   # 1/0*(2/0)
        ("/", expressions.Num(0.0)),
        ("*", expressions.Chain(expressions.Num(2.0),
                                (("/", expressions.Num(0.0)),))))))
    def test_constant_fault_is_reported_at_its_first_operator(self, tree):
        # the parser checks each operator as it reads it, operands first
        text = _text(tree)[0]
        off = _first_fault(tree)
        assert (off is not None) == _constant_fault(tree)
        if off is None:
            assert parse_expression(text) == tree
        else:
            with pytest.raises(ParseError, match="constant subexpression"
                               ) as err:
                parse_expression(text)
            assert err.value.offset == off

    def test_power_law_text_parses_back(self):
        w = parse_weight(PowerLaw(0.5).text())
        assert isinstance(w, PowerLaw) and w.lam == 0.5
        # negative exponents re-parse as expressions with equal values
        w2 = parse_weight(PowerLaw(-1.0).text())
        assert eval_v(w2, 2.0) == 0.5


def _constant_fault(tree) -> bool:
    """Whether a subtree without z raises or goes complex in Python floats,
    by the reference walk (it carries a complex value to the result)."""
    try:
        with np.errstate(all="ignore"):
            return np.iscomplexobj(dual_reference.walk(tree, np.ones(1)))
    except (ZeroDivisionError, OverflowError):
        return True


def _raw_outcome(fn):
    """fn()'s parts as (dtype, shape, int64 bits), or its error's type."""
    try:
        with np.errstate(all="ignore"):
            out = fn()
    except Exception as exc:   # the type is the outcome
        return type(exc)
    return [(x.dtype, x.shape, x.ravel().view(np.int64).tolist())
            for x in map(np.asarray, out)]


_WALK_POINTS = [np.linspace(0.1, 3.0, 7), np.asarray(1.3),
                np.array([2.0, 0.0, -1.5, 0.7])]


class TestOneWalk:
    """expressions.evaluate gives the value-only walk's v and a Dual pass's
    (v, q, v'') bit for bit, and a parsed weight never crashes a checked
    pass."""

    @staticmethod
    def assert_walk_matches_reference(tree):
        for z in _WALK_POINTS:
            def new():
                out = expressions.evaluate(tree, z, np.ones_like(z),
                                           np.zeros_like(z))
                return tuple(0.0 if x is None else x for x in out)
            assert _raw_outcome(new) == \
                _raw_outcome(lambda: dual_reference.raw_vq2(tree, z)), z
            assert _raw_outcome(lambda: expressions.evaluate(tree, z)[:1]) \
                == _raw_outcome(lambda: (dual_reference.walk(tree, z),)), z

    @pytest.mark.parametrize("text", [   # the benchmark's five first
        "2.5*z^1.3", "z^1.3*2.5", "exp(0.7*log(z))", "z*sqrt(z)", "1.5*z*z",
        "2-z", "2/z", "2^z", "z^z", "z-z", "-(-z)^2^-z / -(z*z)",
        "exp(1)*z + sin(2)/z - cos(z)^2", "(3*z+1)^1.3", "(z/7)^2.5*3",
        "2^(z/3)", "(z+1)^(z/3)",
        "sin(z)/(1+z^2)"])   # a quotient whose operands both curve
    def test_spellings_match_the_dual_reference(self, text):
        self.assert_walk_matches_reference(parse_expression(text))

    @settings(max_examples=500, deadline=None)
    @given(_TREES)
    def test_any_tree_matches_the_dual_reference(self, tree):
        # trees as built, constants that fault included
        self.assert_walk_matches_reference(tree)

    @settings(max_examples=300, deadline=None)
    @given(_TREES)
    def test_parsed_weight_never_crashes(self, tree):
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            try:
                w = parse_weight(_text(tree)[0])
            except ParseError:
                return
            for z in (np.linspace(0.1, 3.0, 7), 1.3):
                for fn in (eval_v, eval_vq, eval_vq2):
                    try:
                        fn(w, z)
                    except ExtremalError:
                        pass

    def test_long_flat_sum(self):
        # 3000 terms: one Chain, whose pairs the walk loops over
        z = np.linspace(0.1, 3.0, 7)
        w = parse_weight("+".join(["z"] * 3000))
        want = z
        for _ in range(2999):
            want = want + z
        v, q = eval_vq(w, z)
        assert v.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert eval_v(w, z).tolist() == v.tolist()
        assert q.tolist() == [3000.0] * 7
        scalar = 1.3
        for _ in range(2999):
            scalar += 1.3
        assert eval_v(w, 1.3) == scalar


def _mp_value(node, z, mpmath):
    """The value of an expression tree at the mpmath number z."""
    if isinstance(node, expressions.Num):
        return mpmath.mpf(node.value)
    if isinstance(node, expressions.Var):
        return z
    if isinstance(node, expressions.Neg):
        return -_mp_value(node.operand, z, mpmath)
    if isinstance(node, expressions.Fun):
        return getattr(mpmath, node.name)(_mp_value(node.arg, z, mpmath))
    a = _mp_value(node.first, z, mpmath)
    for op, operand in node.ops:
        b = _mp_value(operand, z, mpmath)
        a = mpmath.power(a, b) if op == "^" else expressions._OPS[op](a, b)
    return a


# one weight per slope rule: +, - and Neg; * and ^ with a constant
# exponent (the two spellings of c*z^p that the benchmark times); / ; exp
# and log; sqrt; sin; cos; ^ with a constant base and with both sides in z
_SLOPE_WEIGHTS = ["z-0.5+1", "-z+7", "2.5*z^1.3", "z^0.5*3", "1/(1+z^2)",
                  "exp(0.3*log(z))", "exp(-z)+0.2", "(2+log(z))/z",
                  "z*sqrt(z)", "2+sin(z)", "2+cos(z)", "2^z", "z^z"]


class TestSlope:
    """D = n*([v](z, z0)*z + v(z0)), the near integrand's slope of
    g = n*v*z - 1, against (g(z) - g(z0))/(z - z0) at 50 digits, within 8
    ulps of its terms' scale n*(|[v]*z| + v(z0)), for z - z0 from 1e-14*z0
    to z0."""

    @staticmethod
    def _check(w, z0, e, value):
        mpmath = pytest.importorskip("mpmath")
        z = z0 + z0 * 10.0 ** e
        dz = z - z0      # exact: z <= 2*z0
        v, s = eval_slope(w, np.array([z]), z0, np.array([dz]))
        assert v[0] == pytest.approx(eval_v(w, z), rel=1e-15)
        v0 = eval_v(w, z0)
        n = 1.0 / (v0 * z0)
        d = n * (s[0] * z + v0)
        with mpmath.workdps(50):
            Z, Z0 = mpmath.mpf(z), mpmath.mpf(z0)
            slope = (value(Z) - value(Z0)) / (Z - Z0)
            ref = n * (slope * Z + value(Z0))
            scale = n * (abs(slope * Z) + abs(value(Z0)))
            assert abs(d - ref) <= 8 * 2.0 ** -52 * scale, (d, float(ref))

    @pytest.mark.parametrize("text", _SLOPE_WEIGHTS)
    @settings(max_examples=40, deadline=None)
    @given(z0=st.floats(0.3, 3.0), e=st.floats(-14.0, 0.0))
    def test_expression_rules(self, text, z0, e):
        mpmath = pytest.importorskip("mpmath")
        w = parse_weight(text)
        assert isinstance(w, ExpressionWeight)
        self._check(w, z0, e, lambda x: _mp_value(w.ast, x, mpmath))

    @settings(max_examples=200, deadline=None)
    @given(lam=st.floats(-0.9, 3.5), z0=st.floats(1e-3, 1e3),
           e=st.floats(-14.0, 0.0))
    def test_power_law(self, lam, z0, e):
        mpmath = pytest.importorskip("mpmath")
        self._check(PowerLaw(lam), z0, e,
                    lambda x: mpmath.power(x, mpmath.mpf(lam)))

    @pytest.mark.parametrize("lam", [-0.98, -0.5, 1.3])
    def test_power_law_value_far_out(self, lam):
        # past 2*z*, where the near integrand takes D from v(z), v(z0) plus
        # the step cancelled: 1e-9 relative at z = 1e7*z0 for lam = -0.98;
        # v is eval_v's, bit for bit
        z0 = 0.7
        z = z0 + z0 * np.geomspace(1.0, 1e7, 8)
        v, _ = eval_slope(PowerLaw(lam), z, z0, z - z0)
        assert v.tobytes() == eval_v(PowerLaw(lam), z).tobytes()

    def test_zero_step_is_the_derivative(self):
        # a zero-width quadrature piece evaluates the integrand at t = 0
        for w in (PowerLaw(1.3), parse_weight("2+sin(3*z)"),
                  parse_weight("z^z")):
            v, s = eval_slope(w, np.array([1.2]), 1.2, np.array([0.0]))
            assert s[0] == pytest.approx(eval_q(w, 1.2), rel=1e-14)

    def test_base_through_zero_takes_the_difference_quotient(self):
        # (z - 1)^2 from z0 = 0.9 to 1.2: the base changes sign, where the
        # log1p form of a power has no value
        w = parse_weight("(z-1)^2+1")
        z0, dz = 0.9, np.array([0.3])
        v, s = eval_slope(w, z0 + dz, z0, dz)
        assert s[0] == pytest.approx((0.2 ** 2 - 0.1 ** 2) / 0.3, rel=1e-14)

    @pytest.mark.parametrize("text", ["(z-1)^2+1", "(z-1)^3+1"])
    def test_zero_step_at_a_vanishing_base_is_the_derivative(self, text):
        # at z0 = 1 the base is 0: the log1p form and the difference
        # quotient are both 0/0, and the power's limit p*a0^(p-1)*[a] is 0
        w = parse_weight(text)
        assert eval_slope(w, 1.0, 1.0, 0.0) == (1.0, eval_q(w, 1.0))
        _, s = eval_slope(w, np.array([1.0, 1.5]), 1.0, np.array([0.0, 0.5]))
        assert s.tolist() == [eval_q(w, 1.0), eval_slope(w, 1.5, 1.0, 0.5)[1]]

    def test_zero_step_at_a_vanishing_base_with_no_derivative_raises(self):
        # (z-1)^0.5 has an infinite derivative at z = 1, on both paths
        w = parse_weight("(z-1)^0.5+1")
        for call in (lambda: eval_q(w, 1.0),
                     lambda: eval_slope(w, 1.0, 1.0, 0.0)):
            with pytest.raises(EvalError, match="derivative is not finite"):
                call()

    @pytest.mark.parametrize("text", ["z/(1-1)+2", "2*z/(1-1)+2",
                                      "-z/(2-2)+2", "1+(z-1)/(3-3)"])
    def test_division_by_a_constant_zero_follows_eval_vq(self, text):
        # z's slope divided by the constant 0 was a bare ZeroDivisionError
        w = parse_weight(text)
        for call in (lambda: eval_vq(w, np.array([1.3])),
                     lambda: eval_slope(w, np.array([1.3]), 1.1,
                                        np.array([0.2])),
                     lambda: eval_slope(w, 1.3, 1.1, 0.2)):
            with pytest.raises(EvalError, match="value is not finite"):
                call()

    def test_checks_follow_eval_vq(self):
        w = parse_weight("sqrt(2-z^2)")
        with pytest.raises(EvalError, match="value is not finite"):
            eval_slope(w, np.array([1.0, 1.5]), 1.0, np.array([0.0, 0.5]))
        with pytest.raises(DomainError, match="domain minimum"):
            eval_slope(w, np.array([np.nan]), 1.0, np.array([np.nan]))


# every expression weight the tests parse or build that has points in its
# domain, the benchmark's five spellings of c*z^p first, and z^sqrt(z), a
# power whose exponent has a second derivative
_V2_WEIGHTS = [
    "2.5*z^1.3", "z^1.3*2.5", "exp(0.7*log(z))", "z*sqrt(z)", "1.5*z*z",
    "z", "3", "1", "0.7", "2.5", "2-1", "z^2", "z^-2", " z ^ 0.5 ", "z^2^3",
    "z^(1/exp(1000))", "z^z", "2^z", "1+z", "z - 1", "z - 2", "-z + 4",
    "-z+7", "z-0.5+1", "1e-2 + z", "3000+z", "2 + 3 * z", "z^2+1", "1/z",
    "z^-1 + 1", "1/(z-1)", "-1/(z-1)", "1/(2-z)", "1/(1+z^2)",
    "1.4/z-1/(z*(1+z))", "(1+(z-1)^3)/z", "(2+log(z))/z", "log(z)/z",
    "(z-1)^2+1", "(z-1)^0.5+1", "(2-z)^-0.01", "sqrt(z)", "sqrt(z-0.5)",
    "sqrt(2-z^2)", "sqrt(1+z^3)", "1+sqrt(z-1)", "1+sqrt(z-2)",
    "sqrt(z-2)-1", "z^0.5*3", "2.5*z*z", "1.0*z^1.3",
    "1.0*z^2.0817992419720928", "exp(z)", "exp(-z)", "exp(-z) + 1",
    "exp(-z)+0.2", "exp(1.3*log(z))", "exp(0.3*log(z))", "sin(z)",
    "2+sin(z)", "2+sin(3*z)", "1 + 0.3*sin(20*z)", "cos(z) + 2", "2+cos(z)",
    "2-z", "2/z", "exp(1)*z + sin(2)/z - cos(z)^2", "(3*z+1)^1.3",
    "(z/7)^2.5*3", "2^(z/3)", "(z+1)^(z/3)", "(2^z)^z", "2^z^z",
    "z^sqrt(z)", "z^1.0", "z^1.3", "1*z^2", "(2-1)*z^2", "z*3", "z*(1+2)",
    "2*z^1", "sqrt(2)*z", "1.4142135623730951*z", "exp(0)+z", "z-1",
    "1/(z-2)", "2 - z^2", "(z-1)^3+1", "-(z - 3) + z*z", "z^-2 + 1",
    "z^2/(1+z)", "z + sqrt(z)", "sqrt(z) * (1 + z)", "sqrt(z-1)", "log(z)",
    "log(1+z)+1", "2 + sin(z)/4", "2 + sin(z)/4 - cos(z)/8",
    "1+0.5*sin(5*z)", "exp(-z^2/8)*(1+z)", "2.0*z^(1.0)*(1/(1+(z^2.0)^2))",
    "0.5*z^(-0.5)*(2+sin(3*(z^0.5)))", "3.0*z^(2.0)*(exp(-(z^3.0))+0.2)"]
_V2_POINTS = np.concatenate([np.linspace(0.05, 3.0, 60),
                             [1e-3, 0.5, 1.0, 2.0, 7.0, 40.0]])


class TestSecondDerivative:
    """eval_vq2's v'' against mpmath at 40 digits, and its v and q bit for
    bit against references: z**lam and lam*z**(lam-1) (ones and zeros at
    lam 0) for a PowerLaw, the dual reference for an expression."""

    @staticmethod
    def assert_vq_bits(w, z):
        v, q, v2 = eval_vq2(w, z)
        za = np.asarray(z, dtype=float)
        with np.errstate(all="ignore"):
            if isinstance(w, ExpressionWeight):
                ref = dual_reference.raw_vq(w.ast, za)
            elif w.lam == 0.0:
                ref = np.ones_like(za), np.zeros_like(za)
            else:
                ref = za ** w.lam, w.lam * za ** (w.lam - 1.0)
        ref = tuple(float(x) if za.ndim == 0 else np.broadcast_to(x, za.shape)
                    for x in ref)
        assert _outcome(lambda: (v, q)) == _outcome(lambda: ref)
        assert np.shape(v2) == np.shape(z) and type(v2) is type(v)
        return v, q, v2

    @pytest.mark.parametrize("lam", [-0.9, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0,
                                     3.0])
    def test_power_law(self, lam):
        mpmath = pytest.importorskip("mpmath")
        w = PowerLaw(lam)
        z = np.array([1e-3, 0.1, 0.7, 1.0, 1.3, 2.0, 10.0, 1e3])
        _, _, v2 = self.assert_vq_bits(w, z)
        with mpmath.workdps(40):
            for zi, got in zip(z.tolist(), v2.tolist()):
                want = mpmath.diff(lambda x: x ** mpmath.mpf(lam),
                                   mpmath.mpf(zi), 2)
                for got in (got, self.assert_vq_bits(w, zi)[2]):
                    assert abs(got - want) <= 4 * 2.0 ** -52 * abs(want), zi

    @pytest.mark.parametrize("w", [PowerLaw(0.0), PowerLaw(1.0),
                                   ExpressionWeight("2*z^1")], ids=repr)
    def test_power_at_a_subnormal_radius_is_zero(self, w):
        # p*(p-1)*z**(p-2) would be 0*inf = NaN there
        z = np.array([5e-324, 1e-320, 2.2e-308, 1.0])
        assert self.assert_vq_bits(w, z)[2].tolist() == [0.0] * 4
        assert self.assert_vq_bits(w, 5e-324)[2] == 0.0

    @pytest.mark.parametrize("text", _V2_WEIGHTS)
    def test_expression(self, text):
        # at every point where eval_vq passes, within 16 ulps of the scale
        # |v''| + |q|/z + |v|/z^2 of the terms the rules add, plus |v'''|*z
        # for an inner argument rounded by an ulp (sin(20*z) at z = 1.1)
        mpmath = pytest.importorskip("mpmath")
        w = ExpressionWeight(text)
        good = [z for z in _V2_POINTS.tolist()
                if isinstance(_outcome(lambda: eval_vq(w, z)), list)]
        assert good
        v, q, v2 = self.assert_vq_bits(w, np.array(good))
        with mpmath.workdps(40):
            for i, z in enumerate(good):
                _, _, want, third = (mpmath.re(d) for d in mpmath.diffs(
                    lambda x: _mp_value(w.ast, x, mpmath), mpmath.mpf(z), 3))
                scale = abs(want) + abs(q[i]) / z + v[i] / z ** 2 \
                    + abs(third) * z
                for got in (v2[i], self.assert_vq_bits(w, z)[2]):
                    assert abs(got - want) <= 16 * 2.0 ** -52 * scale, z

    def test_tree_without_z(self):
        # a constant's v'' is 0, of z's shape
        w = ExpressionWeight("2-1")
        assert self.assert_vq_bits(w, np.ones((2, 3)))[2].tolist() == \
            [[0.0] * 3] * 2


_WIDE_WEIGHTS = [PowerLaw(0.0), PowerLaw(-0.9), PowerLaw(1.3),
                 parse_weight("exp(-z)+0.2"), parse_weight("2.5*z^1.3"),
                 parse_weight("z"), parse_weight("0.7")]
_WIDE_POINTS = [1e-3, 0.37, 1.0, 2.9, 41.0]


class TestWideV:
    """wide_v, v at a float z in long double, from each kind's raw value
    pass: the root of g next to z* is placed with it."""

    @pytest.mark.parametrize("w", _WIDE_WEIGHTS, ids=repr)
    def test_long_double_within_an_ulp_of_eval_v(self, w):
        for z in _WIDE_POINTS:
            got = wide_v(w, z)
            assert type(got) is np.longdouble
            want = eval_v(w, z)
            assert abs(float(got) - want) <= math.ulp(want), z

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="long double is no wider than float here")
    @pytest.mark.parametrize("w", _WIDE_WEIGHTS, ids=repr)
    def test_matches_mpmath_to_long_double(self, w):
        mpmath = pytest.importorskip("mpmath")
        for z in _WIDE_POINTS:
            with mpmath.workdps(30):
                x = mpmath.mpf(z)
                ref = (mpmath.power(x, mpmath.mpf(w.lam))
                       if isinstance(w, PowerLaw) else
                       _mp_value(w.ast, x, mpmath))
                ref = np.longdouble(mpmath.nstr(ref, 30))
            assert abs(wide_v(w, z) - ref) <= 1e-18 * ref, z
