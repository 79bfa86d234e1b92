import hashlib
import json
import os

import numpy as np
import pytest

from bubblebem.mie import mie_monopole_amplitude, mie_solve

from conftest import FIXTURE_DIR
from reference import (fixture_payload, load_fixture, mie_eval,
                       mie_partial_wave_matrix)


def test_no_contrast_means_no_scattering():
    solution = mie_solve(1.0, 1.0, 1.3, 14)
    assert np.abs(solution.b).max() < 1e-14


def test_degree_zero_closed_form():
    # hand algebra with j_0 = sin x / x and h_0 = -i e^{ix}/x
    radius, eps, omega = 1.0, 0.05, 1.4
    x = omega * eps * radius
    j0 = np.sin(x) / x
    j0p = (x * np.cos(x) - np.sin(x)) / x ** 2
    h0 = -1j * np.exp(1j * x) / x
    h0p = np.exp(1j * x) * (x + 1j) / x ** 2
    b0_hand = j0 * j0p * (1.0 - eps ** -2) / (eps ** -2 * j0p * h0 - j0 * h0p)
    solution = mie_solve(radius, eps, omega, 12)
    assert solution.b[0] == pytest.approx(b0_hand, rel=1e-12)


def test_system_residuals_tiny():
    solution = mie_solve(1.0, 0.05, 1.7, 14)
    assert solution.system_residuals.max() <= 1e-12


def test_coefficients_decay():
    solution = mie_solve(1.0, 0.05, 1.9, 14)
    mags = np.abs(solution.b)
    assert np.all(np.diff(mags) < 0)          # x << 1: monotone decay
    assert mags[5] < 1e-12 * mags[0]


def test_resonance_peak_location():
    omegas = np.arange(1.5, 2.0001, 0.005)
    b0 = [abs(mie_solve(1.0, 0.05, w, 14).b[0]) for w in omegas]
    peak = omegas[int(np.argmax(b0))]
    assert abs(peak - np.sqrt(3)) < 0.02


def test_partial_wave_unitarity():
    solution = mie_solve(1.0, 0.05, 1.7, 14)
    s = mie_partial_wave_matrix(solution)
    assert np.abs(np.abs(s) - 1.0).max() <= 1e-10


def test_eval_zero_field_without_contrast():
    solution = mie_solve(1.0, 1.0, 1.3, 14)
    values, _ = mie_eval(solution, np.array([[2.0, 0.0, 0.5]]))
    assert np.abs(values).max() < 1e-14


def test_eval_far_field_is_monopole():
    # the degree-zero term alone is exactly b_0 (-i) e^{i w r}/(w r)
    from dataclasses import replace
    solution = mie_solve(1.0, 0.05, 1.0, 14)
    b_trunc = solution.b.copy()
    b_trunc[1:] = 0.0
    monopole_only = replace(solution, b=b_trunc)
    r = 800.0
    values, _ = mie_eval(monopole_only, np.array([[0.0, 0.0, r]]))
    closed_form = solution.b[0] * (-1j) * np.exp(1j * solution.omega * r) \
        / (solution.omega * r)
    assert values[0] == pytest.approx(closed_form, rel=1e-12)


def test_eval_rotational_symmetry():
    solution = mie_solve(1.0, 0.2, 1.5, 14)
    r, mu = 3.0, 0.4
    rho = r * np.sqrt(1 - mu ** 2)
    points = np.array([[rho, 0, r * mu],
                       [0, rho, r * mu],
                       [-rho / np.sqrt(2), rho / np.sqrt(2), r * mu]])
    values, _ = mie_eval(solution, points)
    assert np.abs(values - values[0]).max() <= 1e-13 * abs(values[0])


def test_eval_rejects_interior_points():
    solution = mie_solve(1.0, 0.2, 1.5, 14)
    with pytest.raises(ValueError, match="inside"):
        mie_eval(solution, np.array([[0.1, 0.0, 0.0]]))


def test_truncation_bound_controls_order_doubling():
    solution = mie_solve(1.0, 0.2, 1.9, 12)
    doubled = mie_solve(1.0, 0.2, 1.9, 24)
    points = np.array([[1.5, 0.3, -0.2], [0.0, 0.0, 3.0]])
    values, bound = mie_eval(solution, points)
    values2, _ = mie_eval(doubled, points)
    assert np.abs(values - values2).max() <= bound


def test_monopole_amplitude_normalization():
    solution = mie_solve(1.0, 0.05, 1.0, 14)
    amplitude = mie_monopole_amplitude(solution)
    assert amplitude == pytest.approx(-4j * np.pi * solution.b[0] / 1.0)


def test_monopole_matches_far_field_fit():
    # A G_omega is the degree-0 partial wave itself: on the r = 50 sphere
    # it misses the field by exactly the degrees l >= 1, which are
    # O(omega * eps * R) small
    from dataclasses import replace
    from bubblebem.scattering import green_function, spherical_point_set
    solution = mie_solve(1.0, 0.05, 1.2, 14)
    points = 50.0 * spherical_point_set(64)
    values, _ = mie_eval(solution, points)
    monopole = mie_monopole_amplitude(solution) * green_function(
        solution.omega, points)
    higher, _ = mie_eval(replace(solution, b=np.r_[0.0, solution.b[1:]]),
                         points)
    assert np.abs(values - monopole - higher).max() \
        <= 1e-13 * np.abs(values).max()
    misfit = np.linalg.norm(values - monopole) / np.linalg.norm(values)
    assert 1e-4 <= misfit <= 1e-2


def test_nonresonant_amplitude_rate():
    # formula eps w^2 c / (wM^2 - w^2) with c = 4 pi, wM^2 = 3; the gap
    # closes faster than eps^{3/2}
    omega = 1.0
    eps_list = (0.2, 0.1, 0.05)
    errors = []
    for eps in eps_list:
        amplitude = mie_monopole_amplitude(mie_solve(1.0, eps, omega, 14))
        formula = eps * omega ** 2 * 4 * np.pi / (3 - omega ** 2)
        errors.append(abs(amplitude - formula))
    slope = np.polyfit(np.log(eps_list), np.log(errors), 1)[0]
    assert slope >= 1.3


def test_resonant_amplitude_limit():
    omega = np.sqrt(3)
    target = 4j * np.pi / omega
    errors = []
    for eps in (0.2, 0.1, 0.05):
        amplitude = mie_monopole_amplitude(mie_solve(1.0, eps, omega, 14))
        errors.append(abs(amplitude - target))
    assert errors[0] > errors[1] > errors[2]
    assert errors[-1] <= 0.1 * abs(target)


def test_preconditions():
    with pytest.raises(ValueError):
        mie_solve(1.0, 0.05, 1.0, 5)      # order below omega*eps*R + 10
    with pytest.raises(ValueError):
        mie_solve(1.0, 1.5, 1.0, 14)      # eps out of range
    with pytest.raises(ValueError):
        mie_solve(-1.0, 0.5, 1.0, 14)


def test_frozen_fixtures_match_checksums_and_solver():
    with open(os.path.join(FIXTURE_DIR, "checksums.json")) as fh:
        checksums = json.load(fh)
    assert len(checksums) == 3
    for name, digest in checksums.items():
        path = os.path.join(FIXTURE_DIR, name)
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest
        record = load_fixture(path)
        solution = mie_solve(record["R"], record["eps"], record["omega"],
                             record["L"])
        assert fixture_payload(solution) == open(path).read()
        assert np.abs(solution.b - record["b"]).max() <= 1e-15 * (
            1 + np.abs(record["b"]).max())
