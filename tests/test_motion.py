import math
from dataclasses import replace

import numpy as np
import pytest

from fieldcycle.errors import DistanceExceedsTravel, InvalidTarget, OutOfDomain
from fieldcycle.motion import (JitterModel, MotionLimits, apply_jitter,
                               duration, duration_closed_form, plan,
                               sample_trajectory, states_at)


def integrate_trajectory(traj):
    """Oracle: trapezoid-integrate the sampled accelerations and velocities."""
    dt = np.diff(traj.t)
    v = np.concatenate([[traj.v[0]], traj.v[0] + np.cumsum(0.5 * (traj.a[1:] + traj.a[:-1]) * dt)])
    z = np.concatenate([[traj.z[0]], traj.z[0] + np.cumsum(0.5 * (traj.v[1:] + traj.v[:-1]) * dt)])
    return z, v


def sample_with_masks(profile, dt):
    """Oracle: ``sample_trajectory`` as it selected each segment's grid
    points, by two comparisons over the whole grid."""
    bounds = profile.boundary_times()
    grid = np.arange(0.0, bounds[-1] + 0.5 * dt, dt)
    parts = []
    for k, seg in enumerate(profile.segments):
        t0, t1 = bounds[k], bounds[k + 1]
        tk = np.concatenate([[t0], grid[(grid > t0) & (grid < t1)], [t1]])
        tau = tk - t0
        z = seg.z_start_m + seg.v_start_m_s * tau + 0.5 * seg.accel_m_s2 * tau ** 2
        v = seg.v_start_m_s + seg.accel_m_s2 * tau
        parts.append((tk, z, v, np.full_like(tk, seg.accel_m_s2)))
    return tuple(np.concatenate(col) for col in zip(*parts))


def field_vs_time(prof, fmap, dt):
    """B(t) along a move as ``plan-motion --out`` writes it to
    trajectory.csv: the sampled positions through the map."""
    traj = sample_trajectory(prof, dt)
    return traj.t, fmap.field_at(traj.z)


def field_rate(t, b):
    """|dB/dt| between samples; the zero-width intervals of the duplicated
    segment boundaries are dropped."""
    dt = np.diff(t)
    keep = dt > 0
    return np.abs(np.diff(b)[keep] / dt[keep])


def test_headline_shuttle_duration(limits):
    prof = plan(1.1627, limits)
    assert prof.shape == "trapezoidal"
    assert duration(prof) == pytest.approx(0.648, abs=0.5e-3)


def test_triangular_closed_form(limits):
    prof = plan(0.100, limits)
    assert prof.shape == "triangular"
    assert duration(prof) == pytest.approx(2 * math.sqrt(0.1 / 30.0), abs=1e-12)


def test_null_profile(limits):
    prof = plan(0.0, limits)
    assert prof.shape == "null"
    assert duration(prof) == 0.0
    traj = sample_trajectory(prof, 1e-3)
    assert traj.t.shape == (1,)
    assert traj.z[0] == prof.z_start_m and traj.v[0] == 0.0 and traj.a[0] == 0.0


def test_duration_matches_closed_form_random_cases():
    rng = np.random.default_rng(20260810)
    for _ in range(100):
        d = rng.uniform(0.001, 1.6)
        v = rng.uniform(0.1, 2.0)
        a = rng.uniform(1.0, 30.0)
        lim = MotionLimits(v_max=v, a_max=a)
        prof = plan(d, lim)
        assert abs(duration(prof) - duration_closed_form(d, v, a)) <= 1e-9
        traj = sample_trajectory(prof, 1e-3)
        z_int, v_int = integrate_trajectory(traj)
        assert abs(traj.t[-1] - duration_closed_form(d, v, a)) <= 1e-6
        assert abs(abs(z_int[-1] - z_int[0]) - d) < 1e-9
        assert np.max(np.abs(v_int - traj.v)) < 1e-9


def test_durations_strictly_decrease_with_velocity(limits):
    vs = np.linspace(0.5, 2.0, 13)
    ds = [duration(plan(1.1627, limits, v_target=float(v))) for v in vs]
    assert all(b < a for a, b in zip(ds, ds[1:]))


def test_duration_continuity_at_shape_transition():
    v, a = 1.5, 12.0
    d_star = v * v / a
    lim = MotionLimits(v_max=v, a_max=a)
    eps = 1e-10
    below = duration(plan(d_star - eps, lim))
    above = duration(plan(d_star + eps, lim))
    assert above == pytest.approx(below, abs=1e-8)
    assert duration_closed_form(d_star, v, a) == pytest.approx(2 * v / a, rel=1e-12)


def test_duration_strictly_increasing_in_distance(limits):
    ds = np.linspace(0.01, 1.5, 200)
    ts = [duration_closed_form(d, limits.v_max, limits.a_max) for d in ds]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_time_optimality_brute_force():
    # no feasible two-phase candidate beats the planner's closed form
    for d, v, a in ((0.05, 1.0, 10.0), (0.4, 2.0, 30.0), (1.2, 1.5, 5.0)):
        lim = MotionLimits(v_max=v, a_max=a)
        planned = duration(plan(d, lim))
        best = math.inf
        for vp in np.linspace(1e-3, v, 4000):
            if d >= vp * vp / a:
                cand = d / vp + vp / a
            else:
                cand = 2 * math.sqrt(d / a)  # vp unreachable; triangular
            best = min(best, cand)
        assert planned <= best + 1e-12


def test_sampled_trajectory_respects_limits(limits):
    prof = plan(0.9, limits)
    traj = sample_trajectory(prof, 1e-4)
    assert np.max(np.abs(traj.v)) <= limits.v_max + 1e-12
    assert np.max(np.abs(traj.a)) <= limits.a_max + 1e-12


def test_sampled_trajectory_integration_error_scales():
    lim = MotionLimits()
    prof = plan(1.1627, lim)
    errs = []
    for dt in (1e-3, 1e-4, 1e-5):
        traj = sample_trajectory(prof, dt)
        z_int, _ = integrate_trajectory(traj)
        errs.append(abs(z_int[-1] - prof.z_end_m))
    # boundary-duplicated sampling keeps the quadrature exact at any dt
    assert all(e < 1e-6 for e in errs)


def test_velocity_continuous_across_boundaries(limits):
    prof = plan(1.0, limits)
    for t_edge in prof.boundary_times()[1:-1]:
        _, v_before, _ = states_at(prof, np.array([t_edge - 1e-12]))
        _, v_after, _ = states_at(prof, np.array([t_edge + 1e-12]))
        assert v_before == pytest.approx(v_after, abs=1e-9)
    assert prof.segments[0].v_start_m_s == 0.0
    _, v_end, _ = states_at(prof, np.array([duration(prof)]))
    assert v_end[0] == pytest.approx(0.0, abs=1e-12)


def test_direction_and_start_position(limits):
    prof = plan(0.5, limits, z_start=1.2, direction=-1)
    assert prof.z_end_m == pytest.approx(0.7, abs=1e-12)
    traj = sample_trajectory(prof, 1e-3)
    assert np.all(np.diff(traj.z) <= 1e-12)


def test_plan_validation(limits):
    with pytest.raises(DistanceExceedsTravel):
        plan(2.0, limits)
    with pytest.raises(DistanceExceedsTravel):
        plan(-0.1, limits)
    with pytest.raises(InvalidTarget):
        plan(0.5, limits, v_target=3.0)
    with pytest.raises(InvalidTarget):
        plan(0.5, limits, v_target=0.0)


def test_field_vs_time_peak_rate_at_gslac(ref_map, limits):
    z_g = ref_map.position_of_field(0.102)
    z0 = z_g - limits.v_max ** 2 / (2 * limits.a_max)
    prof = plan(0.4, limits, z_start=z0, direction=1)
    rate = field_rate(*field_vs_time(prof, ref_map, 1e-5))
    assert np.max(rate) == pytest.approx(1.21, rel=0.02)
    # half-speed crossing halves the peak rate
    prof_h = plan(0.4, limits, v_target=1.0,
                  z_start=z_g - 1.0 / (2 * limits.a_max), direction=1)
    rate_h = field_rate(*field_vs_time(prof_h, ref_map, 1e-5))
    ratio = np.max(rate_h) / np.max(rate)
    assert ratio == pytest.approx(0.5, rel=1e-3)


def test_field_vs_time_stationary_and_bounds(ref_map, limits):
    prof = plan(0.0, limits, z_start=0.5)
    t, b = field_vs_time(prof, ref_map, 1e-3)
    assert np.all(b == b[0])
    # global bound: |dB/dt| <= max gradient * v_max
    zg = np.linspace(0.01, 1.59, 4000)
    gmax = np.max(np.abs(ref_map.gradient_at(zg)))
    prof2 = plan(1.1627, limits, z_start=1.1627, direction=-1)
    rate = field_rate(*field_vs_time(prof2, ref_map, 1e-5))
    assert np.max(rate) <= gmax * limits.v_max * (1 + 1e-3)


def test_field_vs_time_out_of_domain(ref_map, limits):
    prof = plan(0.5, limits, z_start=1.4, direction=1)
    with pytest.raises(OutOfDomain):
        field_vs_time(prof, ref_map, 1e-3)


def test_jitter_zero_sigma_identity():
    jm = JitterModel(sigma_s=0.0, seed=1)
    assert apply_jitter(0.648, jm) == 0.648


def test_realized_duration_is_clamped_at_zero():
    jm = JitterModel(sigma_s=2.6e-3, seed=1)
    draws = JitterModel(sigma_s=2.6e-3, seed=1).draw(8)
    assert np.any(draws < 0) and np.any(draws > 0)
    realized = apply_jitter(np.zeros(8), jm)
    assert realized.tolist() == np.where(draws > 0, draws, 0.0).tolist()
    assert apply_jitter(0.5, JitterModel(sigma_s=1.0, seed=4)) == 0.0  # draw -0.65


def test_jitter_statistics_1400_trials():
    jm = JitterModel(sigma_s=2.6e-3, seed=11)
    draws = np.array([apply_jitter(0.648, jm) for _ in range(1400)])
    sd = np.std(draws - 0.648, ddof=1)
    assert 2.4e-3 <= sd <= 2.8e-3


def test_jitter_deterministic_per_seed():
    a = JitterModel(sigma_s=2.6e-3, seed=99)
    b = JitterModel(sigma_s=2.6e-3, seed=99)
    assert [apply_jitter(1.0, a) for _ in range(10)] == \
           [apply_jitter(1.0, b) for _ in range(10)]


def test_limits_validation():
    with pytest.raises(ValueError):
        MotionLimits(v_max=0.0)
    with pytest.raises(ValueError):
        MotionLimits(precision_m=2.0)


@pytest.mark.parametrize("seed", [0, 7, 20260810])
def test_jitter_array_draws_equal_scalar_draws(seed):
    scalar = JitterModel(sigma_s=2.6e-3, seed=seed)
    vector = JitterModel(sigma_s=2.6e-3, seed=seed)
    expected = [float(scalar.draw()) for _ in range(2001)]
    got = np.concatenate([vector.draw(1000), vector.draw((500, 2)).ravel(),
                          [vector.draw()]])
    assert got.tolist() == expected


def test_apply_jitter_on_an_array_equals_scalar_calls():
    durations = np.linspace(0.1, 1.0, 400)
    a = JitterModel(sigma_s=2.6e-3, seed=5)
    b = JitterModel(sigma_s=2.6e-3, seed=5)
    loop = [apply_jitter(float(d), a) for d in durations]
    assert apply_jitter(durations, b).tolist() == loop
    assert apply_jitter(0.5, a) == apply_jitter(0.5, b)  # streams stay aligned
    with pytest.raises(ValueError):
        apply_jitter(np.array([0.5, -0.1]), b)


def test_zero_sigma_draws_zeros_and_consumes_nothing():
    jm = JitterModel(sigma_s=0.0, seed=3)
    assert jm.draw() == 0.0
    assert jm.draw((4, 2)).tolist() == [[0.0, 0.0]] * 4
    assert apply_jitter(np.full(3, 0.648), jm).tolist() == [0.648] * 3
    assert jm._rng.bit_generator.state == \
        np.random.default_rng(3).bit_generator.state


def test_replace_with_a_new_seed_starts_that_seed_stream():
    a = JitterModel(sigma_s=2.6e-3, seed=1)
    a.draw(3)
    b = replace(a, seed=2)
    assert b.draw(3).tolist() == JitterModel(sigma_s=2.6e-3, seed=2).draw(3).tolist()
    assert b._rng is not a._rng
    fresh = JitterModel(sigma_s=2.6e-3, seed=1)
    fresh.draw(3)
    assert a.draw(3).tolist() == fresh.draw(3).tolist()  # a's stream did not move


def test_sampling_matches_the_whole_grid_masks():
    """Byte for byte against the two-mask selection, on 600 random moves
    and steps, including steps that land grid points on segment bounds."""
    rng = np.random.default_rng(7)
    for i in range(600):
        limits = MotionLimits(v_max=float(rng.uniform(0.2, 3.0)),
                              a_max=float(rng.uniform(5.0, 60.0)))
        prof = plan(float(rng.uniform(0.0, 1.6)), limits,
                    z_start=float(rng.uniform(0.0, 1.6)),
                    direction=1.0 if i % 2 else -1.0)
        if not prof.segments:
            continue
        dt = (prof.boundary_times()[1] / int(rng.integers(1, 50)) if i % 3 == 0
              else float(10 ** rng.uniform(-4, -2)))
        traj = sample_trajectory(prof, dt)
        for got, want in zip((traj.t, traj.z, traj.v, traj.a),
                             sample_with_masks(prof, dt)):
            assert got.tobytes() == want.tobytes()
