import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokeswave import (BoundaryCollar, ConfigurationError, DampingProfile, Disk,
                        DiskPatch, GridSampler, PreconditionError, RandomSampler,
                        Rectangle, SideStrip, check_gcc, cli, raytracer, trace)
from stokeswave.raytracer import _arc, _hit_raw, _line, _reflected, _tangent

SQ = Rectangle(1.0, 1.0)
DK = Disk(1.0)

# The ray moves are the float kernels that trace runs, called here directly.


def test_free_flight_examples():
    x, xi = _line((0.5, 0.5), (1.0, 0.0))(0.25)
    assert np.allclose(x, [0.75, 0.5]) and xi == (1.0, 0.0)
    assert _line((0.3, 0.4), (0.0, 1.0))(0.0) == ((0.3, 0.4), (0.0, 1.0))


def test_boundary_hit_examples():
    s, hit = _hit_raw(SQ, (0.5, 0.5), (1.0, 0.0))
    assert s == 0.5 and np.allclose(hit, [1.0, 0.5])
    s, hit = _hit_raw(DK, (0.0, 0.0), (1.0, 0.0))
    assert abs(s - 1.0) <= 1e-15 and np.allclose(hit, [1.0, 0.0])
    # line-circle: x = 0.5, so the vertical chord exits at y = sqrt(1 - 0.25)
    s, hit = _hit_raw(DK, (0.5, 0.0), (0.0, 1.0))
    expected = math.sqrt(1.0 - 0.5 ** 2)
    assert abs(s - expected) <= 1e-14
    assert np.allclose(hit, [0.5, expected], atol=1e-14)


def test_reflect_examples():
    r = _reflected(SQ._normal((0.5, 0.0)), (1 / math.sqrt(2), -1 / math.sqrt(2)))
    assert np.allclose(r, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)
    r = _reflected(DK._normal((1.0, 0.0)), (1.0, 0.0))
    assert np.allclose(r, [-1.0, 0.0], atol=1e-15)
    r = _reflected(DK._normal((1.0, 0.0)), (1 / math.sqrt(2), 1 / math.sqrt(2)))
    assert np.allclose(r, [-1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)
    assert abs(np.hypot(*r) - 1.0) <= 1e-15
    # glancing incidence has no reflection: trace glides there
    assert _reflected(DK._normal((1.0, 0.0)), (0.0, 1.0)) is None
    # a rectangle corner, and a point within 1e-9 of it, has no normal to reflect off or
    # glide along: a ray there stops
    for x in ((1.0, 1.0), (0.0, 5e-10), (1.0 - 5e-10, 0.0)):
        assert SQ._normal(x) is None
        assert trace(SQ, None, x, (1.0, 0.0), 0.1).terminated == "corner"


def test_glide_examples():
    # quarter-circle glide from angle 0: position (0, 1), tangent rotated by 90 degrees
    x, xi = (1.0, 0.0), (0.0, 1.0)
    state = _arc(DK, x, _tangent(DK._normal(x), xi))[2]
    pos, direction = state(math.pi / 2)
    assert np.allclose(pos, [0.0, 1.0], atol=1e-15)
    assert np.allclose(direction, [-1.0, 0.0], atol=1e-15)
    assert state(0.0) == (x, xi)
    # on a side the glide is tangent flight
    t = _tangent(SQ._normal((0.2, 0.0)), (1.0, 0.0))
    assert np.allclose(_line((0.2, 0.0), t)(0.3)[0], [0.5, 0.0], atol=1e-15)
    # along the normal the tangent xi - (xi . nu) nu vanishes: no glide, by trace's rule
    for domain, x, xi in ((DK, (1.0, 0.0), (1.0, 0.0)), (DK, (0.0, -1.0), (0.0, 1.0)),
                          (SQ, (0.5, 0.0), (0.0, -1.0)), (SQ, (1.0, 0.4), (-1.0, 0.0))):
        with pytest.raises(PreconditionError, match="glancing"):
            _tangent(domain._normal(x), xi)
    # just past GLANCING_TOL off the tangent is not glancing either
    tilt = 2 * raytracer.GLANCING_TOL
    with pytest.raises(PreconditionError, match="glancing"):
        _tangent(SQ._normal((0.2, 0.0)), (math.sqrt(1 - tilt ** 2), -tilt))


def test_trace_square_example():
    path = trace(SQ, None, (0.5, 0.5), (1.0, 0.0), 2.0)
    refl = [e for e in path.events if e.kind == "reflection"]
    assert len(refl) == 2
    assert np.allclose(refl[0].start, [1.0, 0.5]) and np.allclose(refl[1].start, [0.0, 0.5])
    durations = [e.duration for e in path.events if e.kind == "free_segment"]
    assert np.allclose(durations, [0.5, 1.0, 0.5])
    assert abs(path.total_time - 2.0) <= 1e-12
    assert np.allclose(path.end[0], [0.5, 0.5], atol=1e-12)


def test_trace_disk_diameter_orbit():
    path = trace(DK, None, (0.0, 0.0), (1.0, 0.0), 4.0)
    refl = [e for e in path.events if e.kind == "reflection"]
    assert len(refl) == 2
    assert np.allclose(refl[0].start, [1.0, 0.0]) and np.allclose(refl[1].start, [-1.0, 0.0])
    assert np.allclose(path.end[0], [0.0, 0.0], atol=1e-12)
    durs = np.cumsum([e.duration for e in path.events if e.kind == "free_segment"])
    assert np.allclose(durs, [1.0, 3.0, 4.0])


def test_trace_tangential_start_glides_forever():
    path = trace(DK, None, (1.0, 0.0), (0.0, 1.0), 7.5)
    assert all(e.kind == "glide_arc" for e in path.events)
    assert abs(sum(e.duration for e in path.events) - 7.5) <= 1e-12
    assert abs(np.hypot(*path.end[0]) - 1.0) <= 1e-12


def test_trace_corner_stop():
    path = trace(SQ, None, (0.5, 0.5), (1 / math.sqrt(2), 1 / math.sqrt(2)), 2.0)
    assert path.terminated == "corner"
    assert path.events[-1].kind == "corner_stop"
    assert np.allclose(path.events[-1].start, [1.0, 1.0], atol=1e-12)
    assert abs(path.total_time - math.hypot(0.5, 0.5)) <= 1e-12


def test_corner_start_in_damped_set_keeps_its_entry():
    # a ray starting at a corner inside a sharp collar enters at t = 0 and
    # stops at the corner; with or without stop_at_entry the entry time agrees
    collar = DampingProfile(SQ, BoundaryCollar(0.1), 1.0, 0.0)
    start = (1.0, 1.0), (-0.6, -0.8)
    path = trace(SQ, collar, *start, 2.0)
    assert path.terminated == "corner"
    assert [e.kind for e in path.events] == ["damped_entry", "corner_stop"]
    assert path.first_entry_time == 0.0
    stopped = trace(SQ, collar, *start, 2.0, stop_at_entry=True)
    assert stopped.terminated == "entry"
    assert stopped.first_entry_time == path.first_entry_time


def test_trace_records_damped_entry_with_split_segment():
    collar = DampingProfile(SQ, BoundaryCollar(0.1), 1.0, 0.02)
    path = trace(SQ, collar, (0.5, 0.5), (1.0, 0.0), 1.0)
    entries = [e for e in path.events if e.kind == "damped_entry"]
    assert len(entries) == 1
    # support starts where distance to boundary is 0.12, i.e. at x = 0.88
    assert abs(entries[0].t - 0.38) <= 1e-9
    assert abs(entries[0].start[0] - 0.88) <= 1e-9
    # segment durations still sum to the total time
    total = sum(e.duration for e in path.events if hasattr(e, "duration"))
    assert abs(total - path.total_time) <= 1e-10


def test_speed_preserved_across_many_reflections():
    theta = 0.37
    path = trace(SQ, None, (0.3, 0.4), (math.cos(theta), math.sin(theta)), 100.0)
    drifts = [abs(np.hypot(*e.xi_out) - 1.0) for e in path.events if e.kind == "reflection"]
    assert len(drifts) > 100
    assert max(drifts) <= 1e-12


def test_reversibility():
    theta = 0.83
    x0 = np.array([0.21, 0.55])
    xi0 = np.array([math.cos(theta), math.sin(theta)])
    fwd = trace(SQ, None, x0, xi0, 30.0)
    back = trace(SQ, None, fwd.end[0], np.negative(fwd.end[1]), 30.0)
    assert np.linalg.norm(back.end[0] - x0) <= 1e-8
    assert np.linalg.norm(back.end[1] + xi0) <= 1e-8


def test_square_billiard_axis_period_two():
    path = trace(SQ, None, (0.0, 0.5), (1.0, 0.0), 2.0)
    assert np.linalg.norm(path.end[0] - np.array([0.0, 0.5])) <= 1e-10


def test_disk_chord_invariant():
    # tangential momentum |x cross xi| is conserved at every reflection
    theta = 1.1
    path = trace(DK, None, (0.3, -0.2), (math.cos(theta), math.sin(theta)), 120.0)
    vals = []
    for e in path.events:
        if e.kind == "reflection":
            vals.append(abs(e.start[0] * e.xi_out[1] - e.start[1] * e.xi_out[0]))
    assert len(vals) > 50
    assert max(vals) - min(vals) <= 1e-10


def test_trace_glide_enters_patch_at_the_arc_edge():
    dk = Disk(2.0)
    patch = DampingProfile(dk, DiskPatch((1.5, 0.0), 0.8), 1.0, 0.0)
    half = math.acos((4.0 + 2.25 - 0.64) / 6.0)
    for orient, angle in ((1.0, 2 * math.pi - 2.0 - half), (-1.0, 2.0 - half)):
        x = 2.0 * np.array([math.cos(2.0), math.sin(2.0)])
        xi = orient * np.array([-math.sin(2.0), math.cos(2.0)])
        path = trace(dk, patch, x, xi, 20.0, stop_at_entry=True)
        assert abs(path.first_entry_time - 2.0 * angle) <= 1e-12
        assert abs(math.hypot(*np.subtract(path.end[0], (1.5, 0.0))) - 0.8) <= 1e-12


def test_grazing_chords_of_sharp_patch_are_entered():
    patch = DampingProfile(DK, DiskPatch((0.0, 0.0), 0.2), 1.0, 0.0)
    offsets = np.linspace(0.199, 0.19999, 200)
    starts = np.random.default_rng(3).uniform(-0.9, -0.5, 200)
    times = [trace(DK, patch, (x0, d), (1.0, 0.0), 2.0,
                   stop_at_entry=True).first_entry_time for d, x0 in zip(offsets, starts)]
    exact = -starts - np.sqrt(0.04 - offsets ** 2)
    assert np.abs(np.array(times) - exact).max() <= 1e-12


def test_event_cap_rays_are_counted(monkeypatch):
    strip = DampingProfile(SQ, SideStrip("left", 0.1), 1.0, 0.0)
    monkeypatch.setattr(raytracer, "_MAX_EVENTS", 6)
    sampler = GridSampler(4, 8)
    rep = check_gcc(SQ, strip, 10.0, sampler)
    ends = [trace(SQ, strip, x, xi, 10.0, stop_at_entry=True).terminated
            for x, xi in zip(*sampler.samples(SQ))]
    assert rep.event_cap_terminated == ends.count("error") > 0
    assert rep.corner_terminated == ends.count("corner")
    assert rep.covered_fraction * rep.n_samples == ends.count("entry")


def test_check_gcc_positive_square_collar():
    collar = DampingProfile(SQ, BoundaryCollar(0.1), 1.0, 0.02)
    rep = check_gcc(SQ, collar, 2.0, GridSampler(8, 8))
    assert rep.covered_fraction == 1.0
    assert rep.max_first_entry_time <= 0.8 * math.sqrt(2) + 0.05
    assert rep.n_samples == 8 * 8 * 8


def test_check_gcc_negative_disk_patch():
    patch = DampingProfile(DK, DiskPatch((0.0, 0.0), 0.2), 1.0, 0.0)
    rep = check_gcc(DK, patch, 10.0, GridSampler(8, 8))
    assert rep.covered_fraction < 1.0
    assert math.isinf(rep.max_first_entry_time)
    # a chord at distance 0.5 from the center never meets the patch
    path = trace(DK, patch, (0.5, 0.0), (0.0, 1.0), 10.0)
    assert math.isinf(path.first_entry_time)


def test_check_gcc_negative_side_strip():
    strip = DampingProfile(SQ, SideStrip("left", 0.1), 1.0, 0.0)
    rep = check_gcc(SQ, strip, 10.0, GridSampler(8, 8))
    assert rep.covered_fraction < 1.0
    # vertical bouncing ray far from the strip never approaches it
    path = trace(SQ, strip, (0.9, 0.3), (0.0, 1.0), 10.0)
    assert math.isinf(path.first_entry_time)


def test_gcc_monotone_in_horizon():
    strip = DampingProfile(SQ, SideStrip("left", 0.1), 1.0, 0.0)
    fracs = [check_gcc(SQ, strip, t, GridSampler(6, 8)).covered_fraction
             for t in (0.5, 1.0, 2.0, 4.0)]
    assert all(a <= b for a, b in zip(fracs, fracs[1:]))


def test_gcc_counts_gliding_starts_on_disk():
    patch = DampingProfile(DK, DiskPatch((0.0, 0.0), 0.2), 1.0, 0.0)
    rep = check_gcc(DK, patch, 5.0, GridSampler(6, 4))
    interior = np.hypot(*GridSampler(6, 4).samples(DK)[0].T) < 1.0 - 1e-12
    assert rep.n_samples == interior.size
    # 2 * nx boundary gliding starts are part of the ensemble
    positions, directions = GridSampler(6, 4).samples(DK)
    on_bnd = np.isclose(np.hypot(positions[:, 0], positions[:, 1]), 1.0)
    assert on_bnd.sum() == 12


def _grid_samples_per_domain(sampler, domain):
    """GridSampler.samples written out once per domain, the reference for its shared grid."""
    angles = 2.0 * math.pi * np.arange(sampler.ndir) / sampler.ndir
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if isinstance(domain, Rectangle):
        xs = (np.arange(sampler.nx) + 0.5) * domain.width / sampler.nx
        ys = (np.arange(sampler.nx) + 0.5) * domain.height / sampler.nx
        px, py = np.meshgrid(xs, ys, indexing="ij")
        pos = np.stack([px.ravel(), py.ravel()], axis=1)
        return np.repeat(pos, sampler.ndir, axis=0), np.tile(dirs, (pos.shape[0], 1))
    r = domain.radius
    xs = (np.arange(sampler.nx) + 0.5) * (2 * r) / sampler.nx - r
    px, py = np.meshgrid(xs, xs, indexing="ij")
    pos = np.stack([px.ravel(), py.ravel()], axis=1)
    pos = pos[np.hypot(pos[:, 0], pos[:, 1]) < r * (1 - 1e-9)]
    th = 2.0 * math.pi * np.arange(sampler.nx) / sampler.nx
    bpos = r * np.stack([np.cos(th), np.sin(th)], axis=1)
    tang = np.stack([-np.sin(th), np.cos(th)], axis=1)
    return (np.concatenate([np.repeat(pos, sampler.ndir, axis=0), bpos, bpos], axis=0),
            np.concatenate([np.tile(dirs, (pos.shape[0], 1)), tang, -tang], axis=0))


@pytest.mark.parametrize("domain", [SQ, Rectangle(2.0, 0.7), DK, Disk(1.3)])
@pytest.mark.parametrize("nx, ndir", [(1, 1), (6, 4), (7, 5), (40, 16)])
def test_grid_sampler_positions_are_bit_identical_to_the_per_domain_grids(domain, nx, ndir):
    got = GridSampler(nx, ndir).samples(domain)
    want = _grid_samples_per_domain(GridSampler(nx, ndir), domain)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_random_sampler_deterministic():
    a = RandomSampler(50, seed=7).samples(SQ)
    b = RandomSampler(50, seed=7).samples(SQ)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = RandomSampler(50, seed=8).samples(SQ)
    assert not np.array_equal(a[0], c[0])


@pytest.mark.parametrize("domain", [Rectangle(2.0, 0.7), Disk(1.5)])
def test_random_sampler_draws_interior_unit_samples(domain):
    pos, dirs = RandomSampler(300, seed=11).samples(domain)
    assert pos.shape == dirs.shape == (300, 2)
    if isinstance(domain, Rectangle):
        assert np.all((pos > 0) & (pos < [domain.width, domain.height]))
    else:
        assert np.all(np.hypot(pos[:, 0], pos[:, 1]) < domain.radius)
    assert np.abs(np.hypot(dirs[:, 0], dirs[:, 1]) - 1.0).max() <= 1e-15
    again = RandomSampler(300, seed=11).samples(domain)
    assert np.array_equal(pos, again[0]) and np.array_equal(dirs, again[1])
    other = RandomSampler(300, seed=12).samples(domain)
    assert not np.array_equal(pos, other[0]) and not np.array_equal(dirs, other[1])
    with pytest.raises(ConfigurationError):
        RandomSampler(0).samples(domain)


def test_trace_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        trace(SQ, None, (0.5, 0.5), (1.0, 0.0), 0.0)
    with pytest.raises(PreconditionError):
        trace(SQ, None, (0.5, 0.5), (2.0, 0.0), 1.0)
    with pytest.raises(PreconditionError):
        trace(SQ, None, (0.0, 0.5), (-1.0, 0.0), 1.0)
    for domain in (SQ, DK):
        with pytest.raises(PreconditionError, match="closed domain"):
            trace(domain, None, (1.5, 0.5), (1.0, 0.0), 1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: GridSampler(0, 4), "sampler.nx: must be >= 1"),
    (lambda: GridSampler(4, 0), "sampler.ndir: must be >= 1"),
    (lambda: GridSampler(1.5, 4), "sampler.nx: must be an integer"),
    (lambda: RandomSampler(True), "sampler.n: must be an integer"),
    (lambda: check_gcc(SQ, DampingProfile(SQ, BoundaryCollar(0.1), 1.0), 0.0,
                       GridSampler(2, 2)), "horizon T must be positive"),
], ids=["grid_nx", "grid_ndir", "grid_float_nx", "random_bool_n", "gcc_horizon"])
def test_library_guards_name_the_bad_argument(call, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        call()


_SAMPLER_CLASSES = {"grid": GridSampler, "seeded_random": RandomSampler}
_COUNTS = [(kind, key) for kind, table in raytracer.SAMPLERS.items() for key in table]


@pytest.mark.parametrize("kind, key", _COUNTS, ids=[f"{k}.{key}" for k, key in _COUNTS])
def test_sampler_and_config_reject_an_out_of_range_count_alike(kind, key):
    # the library's path is "sampler", the config's "params.sampler"
    spec = {**{k: 2 for k in raytracer.SAMPLERS[kind]}, key: 0}
    with pytest.raises(ConfigurationError) as library:
        _SAMPLER_CLASSES[kind](**spec)
    cfg = {"experiment": "gcc", "domain": {"kind": "rectangle", "width": 1.0, "height": 1.0},
           "damping": {"shape": "boundary_collar", "width": 0.1},
           "params": {"T": 1.0, "sampler": {"kind": kind, **spec}}, "output_dir": "unused"}
    with pytest.raises(ConfigurationError) as config:
        cli.resolve_config(cfg)
    assert str(library.value) == f"sampler.{key}: must be >= 1"
    assert str(config.value) == f"params.{library.value}"


@pytest.mark.parametrize("x0, xi0, corner", [
    ((0.5, 1e-11), (1.0, -1e-10), (1.0, 0.0)),     # glancing hit on the bottom mid-flight
    ((0.3, 0.0), (1.0, -5e-10), (1.0, 0.0)),       # glancing start pointing slightly out
    ((1e-11, 0.5), (-1e-10, 1.0), (0.0, 1.0)),     # glancing hit on the left wall
], ids=["bottom_hit", "outward_start", "left_hit"])
def test_trace_flat_glide_is_tangent_flight_to_the_corner(x0, xi0, corner):
    path = trace(SQ, None, x0, np.array(xi0) / math.hypot(*xi0), 2.0)
    assert [e.kind for e in path.events][-2:] == ["glide_arc", "corner_stop"]
    assert all(SQ.contains(e.start) and SQ.contains(e.end) for e in path.events)
    assert path.terminated == "corner"
    assert np.array_equal(path.events[-1].start, corner)
    assert np.array_equal(path.end[0], corner)


RECT = Rectangle(2.0, 0.7)


def _walk_reflections(domain, x, xi, T):
    """(time, point, xi_in, xi_out) of each reflection reached within flow time T by walking
    _hit_raw -> _normal -> _reflected from (x, xi), up to the first corner or glancing
    hit; time is the walk's sum of hit times."""
    out, t = [], 0.0
    while t < T - 1e-15:
        s, hit = _hit_raw(domain, x, xi)
        if not s <= T - t:
            break
        t += s
        nu = domain._normal(hit)
        xi_out = None if nu is None else _reflected(nu, xi)
        if xi_out is None:      # a corner or a glancing hit
            break
        out.append((t, hit, xi, xi_out))
        x, xi = hit, xi_out
    return out


@settings(max_examples=150, deadline=None)
@given(disk=st.booleans(), u=st.floats(0.01, 0.99), v=st.floats(0.01, 0.99),
       angle=st.floats(0.0, 2 * math.pi))
def test_trace_reflections_are_the_kernel_walk(disk, u, v, angle):
    # an undamped interior start, uniform in the rectangle or in polar coordinates on the disk
    x0 = (u * math.cos(2 * math.pi * v), u * math.sin(2 * math.pi * v)) if disk \
        else (u * RECT.width, v * RECT.height)
    domain = DK if disk else RECT
    xi0 = (math.cos(angle), math.sin(angle))
    path = trace(domain, None, x0, xi0, 20.0)
    refl = [e for e in path.events if e.kind == "reflection"]
    walked = _walk_reflections(domain, x0, xi0, 20.0)
    assert len(refl) == len(walked)
    for ev, (t, point, xi_in, xi_out) in zip(refl, walked):
        assert ev.t == t
        assert np.array_equal(ev.start, point)
        assert np.array_equal(ev.xi_in, xi_in)
        assert np.array_equal(ev.xi_out, xi_out)
    # one clock: event times never decrease from 0, and the last move ends at total_time
    times = [0.0] + [e.t for e in path.events]
    assert all(a <= b for a, b in zip(times, times[1:]))
    last = [e for e in path.events if e.duration > 0][-1]
    assert abs(last.t + last.duration - path.total_time) <= 1e-12 * 20.0


@settings(max_examples=100, deadline=None)
@given(theta=st.floats(-math.pi, math.pi), ccw=st.booleans(), T=st.floats(0.01, 50.0))
def test_trace_boundary_glide_is_glide(theta, ccw, T):
    orient = 1.0 if ccw else -1.0
    x = (math.cos(theta), math.sin(theta))
    xi = (-orient * math.sin(theta), orient * math.cos(theta))
    path = trace(DK, None, x, xi, T)
    moved = _arc(DK, x, _tangent(DK._normal(x), xi))[2](T)
    assert all(e.kind == "glide_arc" for e in path.events)
    assert path.end == moved


STRIP_RECT = DampingProfile(RECT, SideStrip("left", 0.1), 1.0, 0.02)
# the sharp patch of the disk coverage benchmark
SHARP_PATCH = DampingProfile(DK, DiskPatch((0.3, 0.2), 0.2), 1.0, 0.0)


@settings(max_examples=150, deadline=None)
@given(disk=st.booleans(), u=st.floats(0.01, 0.99), v=st.floats(0.01, 0.99),
       angle=st.floats(0.0, 2 * math.pi), T=st.floats(0.1, 20.0))
def test_stopped_trace_enters_where_the_full_trace_does(disk, u, v, angle, T):
    # interior starts as in test_trace_reflections_are_the_kernel_walk
    x0 = (u * math.cos(2 * math.pi * v), u * math.sin(2 * math.pi * v)) if disk \
        else (u * RECT.width, v * RECT.height)
    domain, damping = (DK, SHARP_PATCH) if disk else (RECT, STRIP_RECT)
    xi0 = (math.cos(angle), math.sin(angle))
    full = trace(domain, damping, x0, xi0, T)
    stopped = trace(domain, damping, x0, xi0, T, stop_at_entry=True)
    assert stopped.first_entry_time == full.first_entry_time
    # the stopped path is the full one cut just after its damped_entry event
    assert stopped.events == full.events[:len(stopped.events)]
    if math.isfinite(full.first_entry_time):
        assert stopped.terminated == "entry" and stopped.events[-1].kind == "damped_entry"
        assert stopped.total_time == stopped.first_entry_time
    else:
        assert stopped.events == full.events and stopped.terminated == full.terminated


@settings(max_examples=20, deadline=None)
@given(disk=st.booleans(), seed=st.integers(0, 2 ** 32 - 1), T=st.floats(0.5, 10.0))
def test_check_gcc_covers_the_rays_whose_full_trace_enters_before_T(disk, seed, T):
    domain, damping = (DK, SHARP_PATCH) if disk else (RECT, STRIP_RECT)
    sampler = RandomSampler(25, seed)
    rep = check_gcc(domain, damping, T, sampler)
    entries = [trace(domain, damping, x, xi, T).first_entry_time
               for x, xi in zip(*sampler.samples(domain))]
    assert rep.covered_fraction == sum(e < T for e in entries) / len(entries)
    assert rep.worst_entry_times == sorted(entries, reverse=True)[:len(rep.worst_entry_times)]
