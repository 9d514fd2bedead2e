import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfode.expr import (
    FUNCTIONS,
    BinOp,
    Call,
    EvalError,
    ExprError,
    ExprSyntaxError,
    Neg,
    Num,
    UnknownNameError,
    Var,
    affine_split,
    compile,
    evaluate,
    parse,
)

from _oracles import evaluate_reference


class TestParse:
    def test_simple_sum_of_power(self):
        assert parse("t^2 + u") == BinOp("+", BinOp("^", Var("t"), Num(2.0)), Var("u"))

    def test_benchmark_solution_shape(self):
        parse("exp(-lambda*t)*(t^8 + 2.25*t^alpha)")

    def test_incomplete_input_offset(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse("t +")
        assert ei.value.offset == 3

    def test_unknown_variable(self):
        with pytest.raises(UnknownNameError):
            parse("x + 1")

    def test_unknown_function(self):
        with pytest.raises(UnknownNameError):
            parse("tan(t)")

    def test_wrong_arity(self):
        with pytest.raises(ExprSyntaxError):
            parse("ml(1, 2)")

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExprSyntaxError):
            parse("2 t")

    def test_empty(self):
        with pytest.raises(ExprSyntaxError):
            parse("   ")

    def test_whitespace_insensitive(self):
        assert parse(" 1+ 2 *t ") == parse("1+2*t")


class TestPrecedence:
    def test_mul_and_power(self):
        assert evaluate(parse("2+3*4^2"), {}) == 50.0

    def test_unary_minus_binds_looser_than_power(self):
        assert evaluate(parse("-2^2"), {}) == -4.0

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2"), {}) == 512.0

    def test_unary_in_exponent(self):
        assert evaluate(parse("2^-2"), {}) == 0.25

    def test_division_left_associative(self):
        assert evaluate(parse("8/4/2"), {}) == 1.0


class TestEvaluate:
    def test_power(self):
        assert evaluate(parse("2^10"), {}) == 1024.0

    def test_gamma(self):
        assert evaluate(parse("gamma(9)"), {}) == pytest.approx(40320.0, rel=1e-13)

    def test_mittag_leffler(self):
        assert evaluate(parse("ml(1,1,1)"), {}) == pytest.approx(math.e, abs=1e-12)

    def test_bindings(self):
        env = {"t": 0.5, "u": 2.0, "alpha": 0.9, "lambda": 3.0}
        got = evaluate(parse("exp(-lambda*t)*u + t^alpha"), env)
        assert got == pytest.approx(math.exp(-1.5) * 2.0 + 0.5**0.9, rel=1e-14)

    def test_unbound_variable(self):
        with pytest.raises(EvalError):
            evaluate(parse("t + u"), {"t": 1.0})


# 20-expression corpus: source text paired with the hand-built AST
_T, _U, _AL, _LA = Var("t"), Var("u"), Var("alpha"), Var("lambda")
CORPUS = [
    ("1", Num(1.0)),
    ("2.5e-3", Num(2.5e-3)),
    (".5", Num(0.5)),
    ("t", _T),
    ("-t", Neg(_T)),
    ("t+u", BinOp("+", _T, _U)),
    ("t-u", BinOp("-", _T, _U)),
    ("t*u", BinOp("*", _T, _U)),
    ("t/u", BinOp("/", _T, _U)),
    ("t^u", BinOp("^", _T, _U)),
    ("t^2+u", BinOp("+", BinOp("^", _T, Num(2.0)), _U)),
    ("-t^2", Neg(BinOp("^", _T, Num(2.0)))),
    ("2^3^2", BinOp("^", Num(2.0), BinOp("^", Num(3.0), Num(2.0)))),
    ("(t+u)*alpha", BinOp("*", BinOp("+", _T, _U), _AL)),
    ("exp(-lambda*t)", Call("exp", (BinOp("*", Neg(_LA), _T),))),
    ("ln(t)+cos(t)", BinOp("+", Call("ln", (_T,)), Call("cos", (_T,)))),
    ("sin(t)*u", BinOp("*", Call("sin", (_T,)), _U)),
    ("pow(t,alpha)", Call("pow", (_T, _AL))),
    ("gamma(alpha+1)", Call("gamma", (BinOp("+", _AL, Num(1.0)),))),
    ("ml(alpha,1,-t^alpha)", Call("ml", (_AL, Num(1.0), Neg(BinOp("^", _T, _AL))))),
]


@pytest.mark.parametrize("src,ast", CORPUS, ids=[c[0] for c in CORPUS])
def test_roundtrip_corpus(src, ast):
    parsed = parse(src)
    assert parsed == ast
    env = {"t": 0.73, "u": 1.2, "alpha": 0.9, "lambda": 2.0}
    # bit-identical evaluation of parsed and hand-built trees
    assert evaluate(parsed, env) == evaluate(ast, env)


@given(st.text(alphabet="0123456789.+-*/^()abcdefglmnopstux, ", max_size=40))
@settings(max_examples=300, deadline=None)
def test_parse_is_total(src):
    # never crashes: either an AST comes back or a structured error is raised
    try:
        parse(src)
    except ExprError:
        pass


# ---------------------------------------------------------------------------
# compiled expressions against the recursive interpreter

_NAMES = ("t", "u", "alpha", "lambda")

_leaves = st.one_of(
    st.sampled_from([Var(name) for name in _NAMES]),
    st.sampled_from([0.0, 1.0, 2.0, 0.5, 3.0, 400.0, 1e-320]).map(Num),
)


def _extend(children):
    calls = st.sampled_from(sorted(FUNCTIONS)).flatmap(
        lambda name: st.tuples(*[children] * FUNCTIONS[name][0]).map(
            lambda args: Call(name, args)
        )
    )
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), children, children).map(lambda x: BinOp(*x)),
        calls,
    )


_trees = st.recursive(_leaves, _extend, max_leaves=8)
_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e300]),
)


def _outcome(fn):
    """repr of the result (bit-identical floats, signed zeros and nan), or
    the type of the exception it raised."""
    try:
        return repr(fn())
    except Exception as exc:  # every exception type is part of the contract
        return type(exc).__name__


def _bindings(values, unbound):
    return {name: v for name, v in zip(_NAMES, values) if name not in unbound}


class TestCompile:
    @given(_trees, st.tuples(*[_values] * 4), st.sets(st.sampled_from(_NAMES), max_size=2))
    @settings(max_examples=400, deadline=None)
    def test_matches_interpreter(self, tree, values, unbound):
        env = _bindings(values, unbound)
        want = _outcome(lambda: evaluate_reference(tree, env))
        names = tuple(env)
        fn = compile(tree, names)  # never raises: errors come at call time
        assert _outcome(lambda: fn(*env.values())) == want
        assert _outcome(lambda: evaluate(tree, env)) == want

    @given(st.text(alphabet="0123456789.+-*/^()abcdefglmnopstux, ", max_size=40),
           st.tuples(*[_values] * 4))
    @settings(max_examples=300, deadline=None)
    def test_matches_interpreter_on_parsed_text(self, src, values):
        try:
            tree = parse(src)
        except ExprError:
            return
        env = _bindings(values, ())
        assert _outcome(lambda: evaluate(tree, env)) == _outcome(
            lambda: evaluate_reference(tree, env)
        )

    @pytest.mark.parametrize("src,ast", CORPUS, ids=[c[0] for c in CORPUS])
    def test_corpus(self, src, ast):
        env = {"t": 0.73, "u": 1.2, "alpha": 0.9, "lambda": 2.0}
        fn = compile(parse(src), _NAMES)
        assert repr(fn(0.73, 1.2, 0.9, 2.0)) == repr(evaluate_reference(ast, env))

    def test_unbound_variable_raises_at_call_time(self):
        fn = compile(parse("t + u"), ("t",))
        with pytest.raises(EvalError, match="'u' is not bound"):
            fn(1.0)

    @pytest.mark.parametrize(
        "src, error",
        [("t/0", ZeroDivisionError), ("0^(0-1)", ZeroDivisionError),
         ("10^t", OverflowError), ("exp(t)", OverflowError),
         ("ln(0-t)", ValueError), ("gamma(0*t)", ValueError)],
    )
    def test_arithmetic_errors(self, src, error):
        fn = compile(parse(src), ("t",))
        with pytest.raises(error):
            fn(1000.0)
        with pytest.raises(error):
            evaluate_reference(parse(src), {"t": 1000.0})

    def test_calls_go_through_the_function_table(self, monkeypatch):
        # ml's entry looks up expr._ml per call, so replacing it after
        # compiling still takes effect
        from tfode import expr

        fn = compile(parse("ml(alpha, 1, t)"), ("t", "alpha"))
        monkeypatch.setattr(expr, "_ml", lambda al, be, z: 42.0)
        assert fn(0.5, 0.9) == 42.0


class TestArrayCompile:
    """``compile(..., array=True)``: one pass over a numpy array of times."""

    T = np.linspace(0.0, 1.1, 45)

    @pytest.mark.parametrize("src", [
        "exp(-lambda*t)*ml(alpha,1,-20*t^alpha)",
        "sin(3*t)*cos(t) + ln(1+t) - t^alpha",
        "pow(t, 2)/gamma(alpha+1) - -t",
        "2.5",
    ])
    def test_matches_scalar_calls(self, src):
        tree = parse(src)
        names = ("t", "alpha", "lambda")
        got = compile(tree, names, array=True)(self.T, 0.5, 5.0)
        scalar = compile(tree, names)
        want = np.array([scalar(t, 0.5, 5.0) for t in self.T])
        # numpy's exp, log, sin, cos and power may differ from math's in the last bit
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_ml_is_called_once_with_the_array(self, monkeypatch):
        from tfode import expr

        calls = []
        ml = expr._ml

        def counted(alpha, beta, z):
            calls.append(z)
            return ml(alpha, beta, z)

        monkeypatch.setattr(expr, "_ml", counted)
        compile(parse("ml(alpha, 1, -t)"), ("t", "alpha"), array=True)(self.T, 0.9)
        assert len(calls) == 1 and calls[0].shape == self.T.shape

    def test_numpy_rules(self):
        # where the scalar function raises, the array pass gives inf or nan,
        # or raises on an argument that must be a scalar
        with np.errstate(all="ignore"):
            assert np.isinf(compile(parse("1/t"), ("t",), array=True)(self.T)[0])
            assert np.isnan(compile(parse("(0-t)^0.5"), ("t",), array=True)(self.T)[1])
        with pytest.raises(TypeError):
            compile(parse("gamma(t)"), ("t",), array=True)(self.T)


def _uses_u(node):
    if isinstance(node, Var):
        return node.name == "u"
    if isinstance(node, Neg):
        return _uses_u(node.operand)
    if isinstance(node, BinOp):
        return _uses_u(node.left) or _uses_u(node.right)
    if isinstance(node, Call):
        return any(_uses_u(arg) for arg in node.args)
    return False


class TestAffineSplit:
    """``affine_split``: p and q with expression == p + q*u."""

    NAMES = ("t", "u", "alpha", "lambda")

    @pytest.mark.parametrize("src", [
        "-20*u",
        "u",
        "-u",
        "u*-2",
        "2.5",
        "t^2 - sin(t)",
        "u/(t-0.05)",
        "gamma(t+1)*u",
        "ln(t+1)*u",
        "2*(u + t)",
        "(u + 1)*t/3",
        "t - 3*u/2 + sin(t)",
        "(u*2 + 1)/3 - u",
        "-(u - t)*exp(-lambda*t)",
        "u*t*t - ml(alpha, 1, -t)",
        "u - u",
        "pow(t, alpha)*u + cos(t)",
    ])
    def test_affine(self, src):
        tree = parse(src)
        p, q = affine_split(tree)
        assert not _uses_u(p) and not _uses_u(q)
        f = compile(tree, self.NAMES)
        pf, qf = (compile(x, ("t", "alpha", "lambda")) for x in (p, q))
        rng = np.random.default_rng(7)
        for t, u in zip(rng.uniform(0.1, 2.0, 50), rng.uniform(-3.0, 3.0, 50)):
            pv, qv = pf(t, 0.7, 2.0), qf(t, 0.7, 2.0)
            assert abs(f(t, u, 0.7, 2.0) - (pv + qv * u)) <= 1e-14 * (abs(pv) + abs(qv * u) + 1e-300)

    def test_constant_parts_stay_constants(self):
        assert affine_split(parse("-20*u")) == (Num(0.0), Neg(Num(20.0)))
        assert affine_split(parse("t")) == (Var("t"), Num(0.0))

    @pytest.mark.parametrize("src", [
        "u*u", "u^2", "u^1", "u^0", "2^u", "exp(u)", "pow(u, 1)", "1/u", "t/(u+1)",
        "t*u*u", "(u + 1)/(u + 2)", "sin(u)*t", "u*(u - u)", "ml(alpha, 1, -u)",
    ])
    def test_not_affine(self, src):
        assert affine_split(parse(src)) is None

    def test_other_variable(self):
        p, q = affine_split(parse("3*t + u"), "t")
        assert p == Var("u") and q == Num(3.0)

    @pytest.mark.parametrize("name, alpha, lam", [
        ("example2", 0.5, 2.0), ("example2", 1.5, 0.0), ("example2", 0.3, 6.0),
        ("example3", 0.2, 5.0), ("example3", 1.8, 10.0),
    ])
    def test_builtin_parts_match_rhs(self, name, alpha, lam):
        from tfode.problems import builtin_problem

        problem = builtin_problem(name, alpha, lam)
        p, q = problem.affine
        rng = np.random.default_rng(11)
        t = rng.uniform(0.0, 1.1, 200)
        u = rng.uniform(-2.0, 2.0, 200)
        pv = np.broadcast_to(p(t), t.shape)
        qv = np.broadcast_to(q(t), t.shape)
        want = np.array([problem.rhs(ti, ui) for ti, ui in zip(t, u)])
        assert np.all(np.abs(pv + qv * u - want) <= 1e-15 * (np.abs(pv) + np.abs(qv * u)))
