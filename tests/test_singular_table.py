"""The per-form table of zeros and poles, and the code that reads it."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cscforge import (
    CASE_PLUS_MINUS,
    CASE_UNIT_RESIDUES,
    INFINITY,
    ComplexPolynomial,
    Divisor,
    HypothesesFailed,
    StandardFormCase,
    build_third_kind,
    check_hypotheses,
    classify_singular_points,
    cli,
    integrate_phi_along_path,
    is_infinity,
    negation_invariance_check,
    normalize_form,
    potential_f,
    solve_phi_closed,
    standard_form,
)

# two conical poles 1e-3 apart
CLOSE_POLES = ((0.5 + 0j, 2.0), (0.5 + 0.001j, 1.5), (-1.0 + 0.3j, -0.7))
CLOSE_FORM = json.dumps(
    {"poles": [{"a": [a.real, a.imag], "lambda": [lam, 0.0]} for a, lam in CLOSE_POLES]}
)


def random_form(seed, n_poles, close_gap=None, exact_part=None, sum_share=None):
    """Poles spread over |z| < 2, at least 0.05 apart; with ``close_gap`` the
    last pole sits that far from the first, and with ``sum_share`` the
    last residue makes the residues sum to that share of sum |lambda|."""
    rng = np.random.default_rng(seed)
    locs = []
    while len(locs) < n_poles - (close_gap is not None):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) < 2 and all(abs(z - w) >= 0.05 for w in locs):
            locs.append(z)
    if close_gap is not None:
        locs.append(locs[0] + close_gap * np.exp(2j * math.pi * rng.uniform()))
    residues = rng.choice((-1.0, 1.0), n_poles) * rng.uniform(0.3, 3.0, n_poles)
    if sum_share is not None:
        residues[-1] -= residues.sum()
        residues[-1] += sum_share * np.abs(residues).sum()
    return build_third_kind(list(zip(locs, residues)), exact_part)


class TestClosePoles:
    def test_inspect_reports_each_pole(self, capsys):
        assert cli.main(["inspect", "--form", CLOSE_FORM]) == 0
        doc = json.loads(capsys.readouterr().out)
        weights = {tuple(e["point"]): e["weight"] for e in doc["divisor"]
                   if e["point"] != "inf"}
        for a, _ in CLOSE_POLES:
            assert weights[(a.real, a.imag)] == -1.0

    def test_angles_from_given_residues(self):
        form = build_third_kind(CLOSE_POLES)
        poles = {i.location: i for i in classify_singular_points(form, 1)
                 if i.kind == "pole" and not is_infinity(i.location)}
        assert set(poles) == {a for a, _ in CLOSE_POLES}
        for a, lam in CLOSE_POLES:
            assert poles[a].residue == lam
            assert poles[a].predicted_angle == pytest.approx(2 * math.pi * abs(lam))
            assert poles[a].conical_expected

    @pytest.mark.parametrize("command", ["angles", "gauss-bonnet"])
    def test_crowded_cones_are_geometry_errors(self, capsys, command):
        assert cli.main([command, "--form", CLOSE_FORM, "--K", "1"]) == 3


@given(
    seed=st.integers(0, 2**32 - 1),
    n_poles=st.integers(2, 40),
    close_gap=st.one_of(st.none(), st.floats(1e-3, 1e-1)),
    sum_share=st.sampled_from([None, 0.0]),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_table_keeps_given_poles(seed, n_poles, close_gap, sum_share):
    form = random_form(seed, n_poles, close_gap, sum_share=sum_share)
    div = form.divisor()
    finite_poles = [p for p, w in div if w < 0 and not is_infinity(p)]
    assert len(finite_poles) == n_poles
    assert set(finite_poles) == {a for a, _ in form.poles}
    assert div.degree == -2
    assert form.residue_at_infinity() == -sum(lam for _, lam in form.poles)
    assert div.weight_at(INFINITY) == -form.infinity_pole_order()
    # zeros, infinity included: n - 1 beside a pole at infinity, else n - 2
    assert sum(w for _, w in div if w > 0) == n_poles - 2 + (form.infinity_pole_order() == 1)
    for z, w in div:
        if w == 1 and not is_infinity(z):
            terms = np.array([lam / (z - a) for a, lam in form.poles])
            assert abs(terms.sum()) <= 1e-8 * np.abs(terms).sum()
    assert form.negated().divisor().matches(div)


@given(
    case=st.sampled_from([CASE_UNIT_RESIDUES, CASE_PLUS_MINUS]),
    alpha=st.integers(2, 9),
    log_p=st.floats(-2.0, 2.0),
    turn_p=st.floats(0.0, 1.0),
    log_a=st.floats(-1.0, 1.0),
    turn_a=st.floats(0.0, 1.0),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_rescaled_standard_forms(case, alpha, log_p, turn_p, log_a, turn_a):
    """Standard forms moved by z = p w keep their exact divisor pattern,
    with the zero of order alpha - 1 at 0, and normalize back."""
    a = None
    if case == CASE_PLUS_MINUS:
        a = 10.0**log_a * cmath.exp(2j * math.pi * turn_a)
        assume(abs(a - 1.0) >= 0.3)
    p = 10.0**log_p * cmath.exp(2j * math.pi * turn_p)
    std = standard_form(StandardFormCase(case, alpha, a))
    form = build_third_kind([(p * z, lam) for z, lam in std.poles])
    at_infinity = -1 if case == CASE_UNIT_RESIDUES else alpha - 1
    pattern = Divisor.from_pairs([(0j, alpha - 1), (INFINITY, at_infinity)]
                                 + [(z, -1) for z, _ in form.poles])
    div = form.divisor()
    assert div.matches(pattern)
    zero = next(z for z, w in div if w > 0 and not is_infinity(z))
    assert abs(zero) <= 1e-9 * abs(p)
    found = normalize_form(form)
    assert (found.case, found.alpha) == (case, alpha)
    assert abs(found.scale) == pytest.approx(abs(p), rel=1e-8)
    if a is not None:
        assert abs(found.a - a) <= 1e-8 * abs(a)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_poles=st.integers(12, 16),
    log_share=st.floats(-11.0, -8.0),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_nearly_cancelling_residues_keep_the_pole_at_infinity(seed, n_poles, log_share):
    # the residue sum is small but far above rounding, so infinity is a
    # simple pole and the numerator of eta keeps its (tiny) top coefficient
    form = random_form(seed, n_poles, sum_share=10.0 ** log_share)
    inf = form.singular_point_at(INFINITY)
    assert inf is not None and inf.weight == -1
    assert inf.residue == -sum(lam for _, lam in form.poles)
    div = form.divisor()
    assert sum(w for p, w in div if w > 0 and not is_infinity(p)) == n_poles - 1
    assert div.degree == -2


def test_evaluation_builds_no_polynomials(monkeypatch):
    """No zero table expands a polynomial or calls a polynomial root finder:
    not for a form that satisfies the hypotheses, through the hypothesis
    check, the closed form, the RK4 oracle, the negation check and
    normalization (with the negated forms and standard representatives they
    build), nor for a form with a nonconstant H."""
    def refuse(*args, **kwargs):
        raise AssertionError("a polynomial was expanded or its roots taken")

    monkeypatch.setattr(ComplexPolynomial, "from_roots", refuse)
    monkeypatch.setattr(ComplexPolynomial, "roots", refuse)
    p = 1.3 * np.exp(0.4j)  # unit:alpha=3 moved by z = p w
    form = build_third_kind([(p * np.exp(1j * math.pi * (2 * k + 1) / 3), 1.0)
                             for k in range(3)])
    assert check_hypotheses(form).ok
    field = solve_phi_closed(form)
    integrate_phi_along_path(form, [field.p0, field.p0 + 0.3j], 2.0)
    assert form.divisor().weight_at(0j) == 2
    negation_invariance_check(form)
    normalize_form(form)
    exact = random_form(7, 6, exact_part=ComplexPolynomial([0.0, 0.0, 1.0]))
    assert sum(w for _, w in exact.divisor() if w > 0) == 7


@pytest.mark.parametrize("n_poles", [2, 5, 9])
@pytest.mark.parametrize("h_degree", [1, 2])
def test_exact_part_is_inspect_only(n_poles, h_degree):
    h = ComplexPolynomial([0.0] * h_degree + [0.7 - 0.2j])
    form = random_form(n_poles + h_degree, n_poles, exact_part=h)
    zeros = [w for p, w in form.divisor() if w > 0]
    assert sum(zeros) == n_poles + h_degree - 1
    start = 2.5 + 2.5j
    with pytest.raises(HypothesesFailed):
        solve_phi_closed(form, start, 2.0)
    with pytest.raises(HypothesesFailed):
        potential_f(form, start)
    with pytest.raises(HypothesesFailed):
        integrate_phi_along_path(form, [start, start + 0.5], 2.0)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_poles=st.integers(0, 40),
    h_degree=st.integers(1, 3),
    h_scale=st.floats(-1.0, 1.0),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_exact_part_zeros(seed, n_poles, h_degree, h_scale):
    """A nonconstant H: the zeros are the eigenvalues of the pole data's
    arrowhead bordered by H''s companion block, n + deg H - 1 of them, and
    eta = sum lambda_i/(z - a_i) + H' vanishes at each to rounding."""
    rng = np.random.default_rng(seed)
    h = (rng.normal(size=h_degree + 1) + 1j * rng.normal(size=h_degree + 1)) * 10.0**h_scale
    form = random_form(seed, n_poles, exact_part=ComplexPolynomial(h))
    div = form.divisor()
    assert div.degree == -2
    assert sum(w for p, w in div if w > 0) == n_poles + h_degree - 1
    assert div.weight_at(INFINITY) == -(h_degree + 1)
    dh = np.polynomial.polynomial.polyder(h)
    for z, w in div:
        if w > 0:
            terms = np.append([lam / (z - a) for a, lam in form.poles],
                              dh * z ** np.arange(h_degree))
            assert abs(terms.sum()) <= 1e-10 * np.abs(terms).sum()
