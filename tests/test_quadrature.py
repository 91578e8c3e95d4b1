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


def _one_leg(fn, tol=DEFAULT_TOL):
    """The integral over [0, 1] of fn, (m,) -> (m,) or (m, d), as the batch
    of one leg that integrate_segment takes."""
    return integrate_segment(lambda t: np.asarray(fn(t))[:, None], tol, lambda keep: None)[0]


def test_polynomial_exact():
    out = _one_leg(lambda t: 2 * (2 * t) ** 7 - 6 * (2 * t) ** 2)  # t**7 - 3 t**2 on [0, 2]
    assert out == pytest.approx(2**8 / 8 - 8, abs=1e-12)


def test_oscillatory():
    out = _one_leg(lambda t: np.pi * np.sin(np.pi * t))  # sin on [0, pi]
    assert out == pytest.approx(2.0, abs=1e-12)
    out = _one_leg(lambda t: np.sin(40 * t))
    assert out == pytest.approx((1 - np.cos(40)) / 40, abs=1e-11)


def test_vector_valued():
    out = _one_leg(lambda t: np.stack([t, np.exp(t)], axis=-1))
    assert np.allclose(out, [0.5, np.e - 1], atol=1e-12)


def test_nonconvergent_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_LEVELS", 4)
    rng = np.random.default_rng(0)
    with pytest.raises(QuadratureError):
        _one_leg(lambda t: rng.standard_normal(t.shape), tol=1e-14)


def _counted(fn):
    """fn, and a list that collects the node count of each call to it."""
    calls = []

    def counted(t):
        calls.append(len(t))
        return fn(t)

    return counted, calls


def test_smooth_integrand_accepted_after_one_panel():
    fn, calls = _counted(np.cos)
    out = _one_leg(fn)
    assert calls == [16]
    assert out == pytest.approx(np.sin(1.0), abs=1e-14)


def test_oscillatory_integrand_still_bisects():
    fn, calls = _counted(lambda t: np.sin(40 * t))
    out = _one_leg(fn)
    assert len(calls) > 1 and calls[-1] > 16
    assert out == pytest.approx((1 - np.cos(40)) / 40, abs=1e-11)


def test_one_unresolved_component_bisects_the_segment():
    fn, calls = _counted(lambda t: np.stack([np.cos(t), np.sin(40 * t)], axis=-1))
    out = _one_leg(fn)
    assert len(calls) > 1
    assert np.allclose(out, [np.sin(1.0), (1 - np.cos(40)) / 40], atol=1e-11)


def test_nonconvergence_message_states_the_last_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_LEVELS", 4)
    rng = np.random.default_rng(0)
    with pytest.raises(
        QuadratureError,
        match=r"^no convergence to 1\.0e-14 after 4 bisection levels on \[0\.0, 1\.0\]: "
        r"1 of 1 legs above tol, last error estimate \S+ at level 4$",
    ):
        _one_leg(lambda t: rng.standard_normal(t.shape), tol=1e-14)


_RATE = st.floats(-10, 10, allow_nan=False)
_END = st.floats(-1, 1, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(a=_RATE, b=_RATE, lo=_END, hi=_END)
def test_damped_cosine_matches_closed_form(a, b, lo, hi):
    # int exp(a t) cos(b t) dt = Re exp(c lo) expm1(c L) / c with c = a + ib,
    # L = hi - lo; below |c| = 1e-6 the series L (1 + c L / 2) is within 1e-12.
    # t = lo + s L carries [lo, hi] onto [0, 1]
    c, L = complex(a, b), hi - lo
    part = L * (1 + c * L / 2) if abs(c) < 1e-6 else np.expm1(c * L) / c
    exact = (np.exp(c * lo) * part).real
    out = _one_leg(lambda s: L * np.exp(a * (lo + s * L)) * np.cos(b * (lo + s * L)))
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
    out = integrate_segment(fn, DEFAULT_TOL, retire)
    assert seen[0] == [0, 1]
    assert len(seen) > 1 and all(rows == [1] for rows in seen[1:])
    assert np.allclose(out, [np.sin(1.0), (1 - np.cos(40)) / 40], atol=1e-11)


def test_each_row_matches_its_own_integral():
    # each row on [-0.5, 1.5], carried onto [0, 1] by t = 2 s - 0.5
    rows = [
        lambda t: np.stack([np.cos(t), np.exp(3 * t)], axis=-1),
        lambda t: np.stack([np.sin(40 * t), t**3], axis=-1),
        lambda t: np.stack([1 / (1 + 25 * t**2), np.sqrt(t + 1)], axis=-1),
    ]
    on_unit = [lambda s, row=row: 2.0 * row(2.0 * s - 0.5) for row in rows]
    fn, _, retire = _legs(on_unit)
    out = integrate_segment(fn, DEFAULT_TOL, retire)
    assert out.shape == (3, 2)
    for row, unit, got in zip(rows, on_unit, out):
        alone = _one_leg(unit)
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
        integrate_segment(fn, 1e-14, retire)
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
