import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodeform import quadrature
from isodeform.quadrature import (
    DEFAULT_TOL,
    GL_NODES,
    GL_WEIGHTS,
    LEGENDRE_TRANSFORM,
    QuadratureError,
    _legendre,
    integrate_segment,
)


def test_polynomial_exact():
    out = integrate_segment(lambda t: t**7 - 3 * t**2, 0.0, 2.0)
    assert out == pytest.approx(2**8 / 8 - 8, abs=1e-12)


def test_oscillatory():
    out = integrate_segment(np.sin, 0.0, np.pi)
    assert out == pytest.approx(2.0, abs=1e-12)
    out = integrate_segment(lambda t: np.sin(40 * t), 0.0, 1.0)
    assert out == pytest.approx((1 - np.cos(40)) / 40, abs=1e-11)


def test_vector_valued():
    out = integrate_segment(lambda t: np.stack([t, np.exp(t)], axis=-1), 0.0, 1.0)
    assert np.allclose(out, [0.5, np.e - 1], atol=1e-12)


def test_reversed_and_empty():
    fwd = integrate_segment(np.cos, 0.0, 1.0)
    rev = integrate_segment(np.cos, 1.0, 0.0)
    assert rev == pytest.approx(-fwd, abs=1e-13)
    assert integrate_segment(np.cos, 0.7, 0.7) == pytest.approx(0.0)


def test_nonconvergent_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_LEVELS", 4)
    rng = np.random.default_rng(0)
    with pytest.raises(QuadratureError):
        integrate_segment(lambda t: rng.standard_normal(t.shape), 0.0, 1.0, tol=1e-14)


def _counted(fn):
    """fn, and a list that collects the node count of each call to it."""
    calls = []

    def counted(t):
        calls.append(len(t))
        return fn(t)

    return counted, calls


def test_smooth_integrand_accepted_after_one_panel():
    fn, calls = _counted(np.cos)
    out = integrate_segment(fn, 0.0, 1.0)
    assert calls == [16]
    assert out == pytest.approx(np.sin(1.0), abs=1e-14)


def test_oscillatory_integrand_still_bisects():
    fn, calls = _counted(lambda t: np.sin(40 * t))
    out = integrate_segment(fn, 0.0, 1.0)
    assert len(calls) > 1 and calls[-1] > 16
    assert out == pytest.approx((1 - np.cos(40)) / 40, abs=1e-11)


def test_one_unresolved_component_bisects_the_segment():
    fn, calls = _counted(lambda t: np.stack([np.cos(t), np.sin(40 * t)], axis=-1))
    out = integrate_segment(fn, 0.0, 1.0)
    assert len(calls) > 1
    assert np.allclose(out, [np.sin(1.0), (1 - np.cos(40)) / 40], atol=1e-11)


def test_nonconvergence_message_states_the_last_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_LEVELS", 4)
    rng = np.random.default_rng(0)
    with pytest.raises(QuadratureError, match=r"last error estimate \S+ at level 4"):
        integrate_segment(lambda t: rng.standard_normal(t.shape), 0.0, 1.0, tol=1e-14)


_RATE = st.floats(-10, 10, allow_nan=False)
_END = st.floats(-1, 1, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(a=_RATE, b=_RATE, lo=_END, hi=_END)
def test_damped_cosine_matches_closed_form(a, b, lo, hi):
    # int exp(a t) cos(b t) dt = Re exp(c lo) expm1(c L) / c with c = a + ib,
    # L = hi - lo; below |c| = 1e-6 the series L (1 + c L / 2) is within 1e-12
    c, L = complex(a, b), hi - lo
    part = L * (1 + c * L / 2) if abs(c) < 1e-6 else np.expm1(c * L) / c
    exact = (np.exp(c * lo) * part).real
    out = integrate_segment(lambda t: np.exp(a * t) * np.cos(b * t), lo, hi)
    scale = abs(hi - lo) * np.exp(abs(a) * max(abs(lo), abs(hi)))
    assert abs(out - exact) <= DEFAULT_TOL + 16 * np.finfo(float).eps * scale


def _legs(rows):
    """An integrand over the rows still running, the rows each call saw, and
    the retire callback that drops accepted rows."""
    live = list(range(len(rows)))
    seen = []

    def fn(t):
        seen.append(list(live))
        return np.stack([rows[i](t) for i in live], axis=1)

    def retire(keep):
        live[:] = [i for i, k in zip(live, keep) if k]

    return fn, seen, retire


def test_accepted_row_is_not_evaluated_again():
    fn, seen, retire = _legs([np.cos, lambda t: np.sin(40 * t)])
    out = integrate_segment(fn, 0.0, 1.0, retire=retire)
    assert seen[0] == [0, 1]
    assert len(seen) > 1 and all(rows == [1] for rows in seen[1:])
    assert np.allclose(out, [np.sin(1.0), (1 - np.cos(40)) / 40], atol=1e-11)


def test_each_row_matches_its_own_integral():
    rows = [
        lambda t: np.stack([np.cos(t), np.exp(3 * t)], axis=-1),
        lambda t: np.stack([np.sin(40 * t), t**3], axis=-1),
        lambda t: np.stack([1 / (1 + 25 * t**2), np.sqrt(t + 1)], axis=-1),
    ]
    fn, _, retire = _legs(rows)
    out = integrate_segment(fn, -0.5, 1.5, retire=retire)
    assert out.shape == (3, 2)
    for row, got in zip(rows, out):
        alone = integrate_segment(row, -0.5, 1.5)
        scale = 2.0 * np.abs(row(np.linspace(-0.5, 1.5, 201))).max()
        assert np.abs(got - alone).max() <= 1e-15 * scale


def test_unconverged_row_names_the_legs_still_running(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_LEVELS", 4)
    rng = np.random.default_rng(0)
    fn, seen, retire = _legs([np.cos, lambda t: rng.standard_normal(t.shape)])
    with pytest.raises(
        QuadratureError,
        match=r"1 of 2 legs above tol, last error estimate \S+ at level 4",
    ):
        integrate_segment(fn, 0.0, 1.0, tol=1e-14, retire=retire)
    assert seen[-1] == [1]


def test_node_table_matches_numpy_legendre():
    from numpy.polynomial.legendre import leggauss, legvander

    x, w = leggauss(16)
    assert np.array_equal(GL_NODES, x)
    assert np.abs(GL_WEIGHTS - w).max() <= 4e-16
    assert np.array_equal(_legendre(x, 15), legvander(x, 15).T)
    want = (np.arange(16) + 0.5)[:, None] * legvander(x, 15).T * w
    # the weights' last-bit differences, scaled by k + 1/2 <= 15.5
    assert np.abs(LEGENDRE_TRANSFORM - want).max() <= 1e-14
