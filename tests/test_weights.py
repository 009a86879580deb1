import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radial_extremals import (DomainError, EvalError, ExpressionWeight,
                              ExtremalError, NonPositiveWeight, ParseError,
                              PowerLaw, RadialWeight, eval_q, eval_v, eval_vq,
                              parse_weight)
from radial_extremals import expressions
from radial_extremals.expressions import FUNCTIONS, parse_expression

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


class _TwoMethodWeight(RadialWeight):
    """A user weight that defines only _raw_v and _raw_q."""

    def _raw_v(self, z):
        return 1.0 + z * z

    def _raw_q(self, z):
        return 2.0 * z

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
        else:
            der = w._raw_q(za)
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
    """A user weight whose raw passes return preset values, whatever z:
    Python floats (q is 0.0 unless given), or arrays."""

    def __init__(self, v, q=0.0):
        self.v, self.q = v, q

    def _raw_v(self, z):
        return self.v

    def _raw_q(self, z):
        return self.q

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
        out = w._raw_vq(za) if derivative else (w._raw_v(za),)
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
        _TwoMethodWeight()], ids=repr)
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
                   w._raw_vq(z)[0]]
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
        ("sqrt(2-1/(3-3))*z", 8, "divides by zero")])
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
        # 2999 constant terms, each sum recorded as it is read, then z
        tree = parse_expression("1+" * 2999 + "z")
        assert tree.rhs == expressions.Var()
        assert expressions.evaluate(tree.lhs, 0.0) == (2999.0, None)
        w = parse_weight("1+" * 2999 + "z")
        assert eval_vq(w, 1.3) == (1.3 + 2999.0, 1.0)

    @pytest.mark.parametrize("text", ["-" * 5000 + "z",
                                      "(" * 2000 + "z" + ")" * 2000,
                                      "z^" * 3000 + "z"])
    def test_nesting_deeper_than_the_stack(self, text):
        with pytest.raises(ParseError, match="nests too deeply") as err:
            parse_weight(text)
        assert err.value.offset == 0


# expression trees as parse_expression builds them: literals are finite and
# not negative (a leading minus is a Neg node)
_TREES = st.recursive(
    st.builds(expressions.Num, st.floats(min_value=0.0, allow_nan=False,
                                         allow_infinity=False))
    | st.just(expressions.Var()),
    lambda sub: st.builds(expressions.Neg, sub)
    | st.builds(expressions.Bin, st.sampled_from("+-*/^"), sub, sub)
    | st.builds(expressions.Fun, st.sampled_from(sorted(FUNCTIONS)), sub),
    max_leaves=12)


def _text(node, start=0):
    """(text, operators): a tree as fully parenthesized text that parses
    back to it, and (Bin, offset of its operator in the text) for each Bin,
    operands before operators, as the parser reads them.  start is the
    offset of the tree's own text."""
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
    lhs, lhs_ops = _text(node.lhs, start + 1)
    off = start + len(lhs) + 2
    rhs, rhs_ops = _text(node.rhs, off + 2)
    return f"({lhs}){node.op}({rhs})", lhs_ops + rhs_ops + [(node, off)]


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
    (v, q) bit for bit, and a parsed weight never crashes a checked pass."""

    @staticmethod
    def assert_walk_matches_reference(tree):
        for z in _WALK_POINTS:
            def new():
                v, q = expressions.evaluate(tree, z, np.ones_like(z))
                return v, 0.0 if q is None else q
            assert _raw_outcome(new) == _raw_outcome(
                lambda: dual_reference.raw_vq(tree, z)), z
            assert _raw_outcome(lambda: expressions.evaluate(tree, z)[:1]) \
                == _raw_outcome(lambda: (dual_reference.walk(tree, z),)), z

    @pytest.mark.parametrize("text", [   # the benchmark's five first
        "2.5*z^1.3", "z^1.3*2.5", "exp(0.7*log(z))", "z*sqrt(z)", "1.5*z*z",
        "2-z", "2/z", "2^z", "z^z", "z-z", "-(-z)^2^-z / -(z*z)",
        "exp(1)*z + sin(2)/z - cos(z)^2", "(3*z+1)^1.3", "(z/7)^2.5*3",
        "2^(z/3)", "(z+1)^(z/3)"])
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
                for fn in (eval_v, eval_vq):
                    try:
                        fn(w, z)
                    except ExtremalError:
                        pass

    def test_long_flat_sum(self):
        # 3000 terms: the walk loops down a chain's left spine
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
