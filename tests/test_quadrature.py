import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodeform.quadrature import DEFAULT_TOL, QuadratureError, integrate_segment


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


def test_nonconvergent_raises():
    rng = np.random.default_rng(0)
    with pytest.raises(QuadratureError):
        integrate_segment(lambda t: rng.standard_normal(t.shape), 0.0, 1.0,
                          tol=1e-14, max_levels=4)


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


def test_nonconvergence_message_states_the_last_estimate():
    rng = np.random.default_rng(0)
    with pytest.raises(QuadratureError, match=r"last error estimate \S+ at level 4"):
        integrate_segment(lambda t: rng.standard_normal(t.shape), 0.0, 1.0,
                          tol=1e-14, max_levels=4)


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
