import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stokeswave import (BoundaryCollar, ConfigurationError, DampingProfile, Disk, DiskPatch,
                        PreconditionError, Rectangle, SideStrip, make_damping, make_domain)


def test_make_domain_examples():
    assert make_domain({"kind": "rectangle", "width": 1.0, "height": 1.0}) == Rectangle(1.0, 1.0)
    assert make_domain({"kind": "disk", "radius": 1.0}) == Disk(1.0)
    with pytest.raises(ConfigurationError, match="^domain.radius: must be positive$"):
        make_domain({"kind": "disk", "radius": -1.0})
    with pytest.raises(ConfigurationError, match="non-positive radius"):
        Disk(-1.0)
    with pytest.raises(ConfigurationError):
        make_domain({"kind": "rectangle", "width": 0.0, "height": 1.0})
    with pytest.raises(ConfigurationError, match="unknown key"):
        make_domain({"kind": "disk", "radius": 1.0, "color": "red"})


@pytest.mark.parametrize("domain", [Rectangle(1.0, 1.0), Disk(1.0)])
def test_outward_normal_points_outward(domain):
    t = np.linspace(0.05, 3.95, 23)    # once round the boundary, counterclockwise
    if isinstance(domain, Rectangle):
        side, s = np.divmod(t, 1.0)
        k = side.astype(int)
        points = (np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])[k]
                  + s[:, None] * np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])[k])
        points = points[(s > 1e-7) & (s < 1.0 - 1e-7)]    # corners have no normal
        with pytest.raises(PreconditionError):
            domain.outward_normal((0.0, 0.0))
    else:
        points = np.stack([np.cos(t), np.sin(t)], axis=1)
    for x in points:
        nu = domain.outward_normal(x)
        assert abs(np.hypot(nu[0], nu[1]) - 1.0) <= 1e-12
        assert not domain.contains(x + 1e-6 * nu)
        assert domain.contains(x - 1e-6 * nu)
        # off the boundary, inside and outside, there is no normal
        for off in (x - 1e-6 * nu, x + 1e-6 * nu):
            with pytest.raises(PreconditionError):
                domain.outward_normal(off)


def _at(profile, x):
    """a(x) at one point, through DampingProfile.values on a one-point array."""
    return profile.values(np.array([x], dtype=float))[0]


def test_eval_damping_collar_plateau_and_ramp():
    sq = Rectangle(1.0, 1.0)
    hard = DampingProfile(sq, BoundaryCollar(0.1), 1.0, 0.0)
    assert _at(hard, (0.5, 0.5)) == 0.0
    assert _at(hard, (0.02, 0.5)) == 1.0
    # ramp midpoint: the declared profile is amplitude * (1 - d / smoothing)
    # with d the distance past the plateau; at d = smoothing/2 that is amplitude/2
    smooth = DampingProfile(sq, BoundaryCollar(0.1), 2.0, 0.05)
    d_mid = 0.1 + 0.025  # distance to boundary = plateau width + smoothing/2
    expected = 2.0 * (1.0 - 0.025 / 0.05)
    assert abs(_at(smooth, (d_mid, 0.5)) - expected) <= 1e-12
    assert expected == 1.0


def test_eval_damping_shapes():
    sq = Rectangle(1.0, 1.0)
    patch = DampingProfile(sq, DiskPatch((0.5, 0.5), 0.2), 3.0, 0.0)
    assert _at(patch, (0.5, 0.5)) == 3.0
    assert _at(patch, (0.9, 0.9)) == 0.0
    strip = DampingProfile(sq, SideStrip("left", 0.1), 1.0, 0.0)
    assert _at(strip, (0.05, 0.8)) == 1.0
    assert _at(strip, (0.3, 0.8)) == 0.0
    with pytest.raises(ConfigurationError):
        DampingProfile(Disk(1.0), SideStrip("left", 0.1), 1.0, 0.0)


def test_damping_lipschitz_bound():
    sq = Rectangle(1.0, 1.0)
    prof = DampingProfile(sq, BoundaryCollar(0.1), 2.0, 0.05)
    lip = prof.amplitude / prof.smoothing_width
    rng = np.random.default_rng(3)
    pts = rng.random((400, 2))
    vals = prof.values(pts)
    for _ in range(200):
        i, j = rng.integers(0, 400, size=2)
        lhs = abs(vals[i] - vals[j])
        rhs = lip * np.linalg.norm(pts[i] - pts[j])
        assert lhs <= rhs + 1e-12


def test_make_damping_validation():
    sq = Rectangle(1.0, 1.0)
    with pytest.raises(ConfigurationError):
        make_damping(sq, {"shape": "nope"})
    with pytest.raises(ConfigurationError, match="unknown key"):
        make_damping(sq, {"shape": "boundary_collar", "width": 0.1, "extra": 1})
    prof = make_damping(sq, {"shape": "disk_patch", "center": [0.5, 0.5], "radius": 0.2,
                             "amplitude": 2.0, "smoothing_width": 0.01})
    assert _at(prof, (0.5, 0.5)) == 2.0
    with pytest.raises(ConfigurationError):
        DampingProfile(sq, BoundaryCollar(0.1), -1.0, 0.0)


_RECT = Rectangle(1.3, 0.8)
_DISK = Disk(1.0)
_SHAPES = ([(_RECT, BoundaryCollar(0.15)), (_DISK, BoundaryCollar(0.2)),
            (_DISK, DiskPatch((0.3, -0.2), 0.25)), (_RECT, DiskPatch((0.5, 0.35), 0.2))]
           + [(_RECT, SideStrip(side, 0.2)) for side in ("left", "right", "bottom", "top")])
_PROFILES = [DampingProfile(dom, sh, 1.0, g) for dom, sh in _SHAPES for g in (0.0, 0.05)]
_SPACING = 1e-3


@settings(max_examples=300, deadline=None)
@given(prof=st.sampled_from(_PROFILES), u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0),
       angle=st.floats(0.0, 2 * math.pi), s_max=st.floats(0.0, 2.5))
def test_entry_time_matches_dense_oracle(prof, u, v, angle, s_max):
    dom = prof.domain
    if isinstance(dom, Rectangle):
        x = np.array([u * dom.width, v * dom.height])
    else:
        x = dom.radius * math.sqrt(u) * np.array([math.cos(2 * math.pi * v),
                                                  math.sin(2 * math.pi * v)])
    xi = np.array([math.cos(angle), math.sin(angle)])
    taus = np.linspace(0.0, s_max, int(s_max / _SPACING) + 2)
    pts = x + taus[:, None] * xi
    # away from grazing: the closest approach to the edge of {a > 0} is clear
    # of it by more than the spacing, and the segment does not end on it
    gap = prof.support_distance(pts) - prof.smoothing_width
    assume(abs(gap.min()) > 2 * _SPACING and abs(gap[-1]) > 1e-9)
    hits = np.nonzero(prof.values(pts) > 0.0)[0]
    s = prof.entry_time(x, xi, s_max)
    if hits.size == 0:
        assert s is None
        return
    i = int(hits[0])
    assert s is not None
    assert (taus[i - 1] if i else 0.0) - 1e-12 <= s <= taus[i] + 1e-12


@pytest.mark.parametrize("smoothing", [0.0, 0.05])
def test_arc_entry_time_examples(smoothing):
    # patch centred at polar angle phi, distance 1.5, on the disk of radius 2
    phi = 0.7
    dk = Disk(2.0)
    prof = DampingProfile(dk, DiskPatch((1.5 * math.cos(phi), 1.5 * math.sin(phi)), 0.8), 1.0,
                          smoothing)
    rho = 0.8 + smoothing
    # circle-circle intersection: the damped arc is |theta - phi| < half
    half = math.acos((4.0 + 2.25 - rho * rho) / (2 * 2.0 * 1.5))
    theta0 = phi + 2.0
    assert abs(prof.arc_entry_time(theta0, -1.0, 20.0) - 2.0 * (2.0 - half)) <= 1e-12
    ccw = 2.0 * (2 * math.pi - 2.0 - half)
    assert abs(prof.arc_entry_time(theta0, 1.0, 20.0) - ccw) <= 1e-12
    assert prof.arc_entry_time(theta0, 1.0, ccw - 1e-6) is None
    assert prof.arc_entry_time(phi + 0.5 * half, -1.0, 1.0) == 0.0
    assert DampingProfile(dk, BoundaryCollar(0.1), 1.0, smoothing).arc_entry_time(
        theta0, 1.0, 5.0) == 0.0
    # patches that miss the boundary circle
    assert DampingProfile(dk, DiskPatch((0.0, 0.0), 1.0), 1.0, smoothing).arc_entry_time(
        theta0, 1.0, 50.0) is None
    assert DampingProfile(dk, DiskPatch((0.5, 0.0), 0.5), 1.0, smoothing).arc_entry_time(
        theta0, 1.0, 50.0) is None


def _near_edge(prof, q, t):
    """A point whose signed distance to the nominal support is about q, at parameter t
    in [0, 1) along the edge: round the circle for a patch or a disk collar, along the
    struck side for a strip, along side int(4 t) for a rectangle collar."""
    sh, dom = prof.shape, prof.domain
    if isinstance(sh, DiskPatch) or isinstance(dom, Disk):
        c, r = (sh.center, sh.radius + q) if isinstance(sh, DiskPatch) \
            else ((0.0, 0.0), dom.radius - sh.width - q)
        return (c[0] + r * math.cos(2 * math.pi * t), c[1] + r * math.sin(2 * math.pi * t))
    side, level = ((sh.side, sh.depth) if isinstance(sh, SideStrip)
                   else (("bottom", "right", "top", "left")[int(4 * t)], sh.width))
    wall, u = level + q, (4 * t) % 1.0
    return {"bottom": (u * dom.width, wall), "right": (dom.width - wall, u * dom.height),
            "top": (u * dom.width, dom.height - wall), "left": (wall, u * dom.height)}[side]


@settings(max_examples=500, deadline=None)
@given(prof=st.sampled_from(_PROFILES), ramp_edge=st.booleans(),
       offset=st.one_of(st.sampled_from([0.0, 1e-16, -1e-16, 1e-12, -1e-12]),
                        st.floats(-0.05, 0.05)),
       t=st.floats(0.0, 1.0, exclude_max=True), angle=st.floats(0.0, 2 * math.pi),
       seed=st.integers(0, 2 ** 32 - 1))
# edge points of a disk collar from which the exit chord rounds to a negative length
@example(prof=_PROFILES[2], ramp_edge=False, offset=0.0, t=0.768, angle=0.111, seed=0)
@example(prof=_PROFILES[3], ramp_edge=True, offset=0.0, t=0.565, angle=3.372, seed=0)
def test_float_kernel_is_the_array_path(prof, ramp_edge, offset, t, angle, seed):
    # on and next to the edge of the plateau (q = 0) or of the ramp (q = smoothing_width)
    x = _near_edge(prof, (prof.smoothing_width if ramp_edge else 0.0) + offset, t)
    one = prof.values(x)
    want = prof.values(np.array([x]))
    assert one.shape == want.shape == (1,) and one.dtype == want.dtype
    assert one.tobytes() == want.tobytes()
    # and bit for bit on a cloud round x: np.hypot and math.hypot differ in the last bit
    # at about one point in 170
    cloud = np.array(x) + 0.05 * np.random.default_rng(seed).standard_normal((16, 2))
    for p, a in zip(cloud.tolist(), prof.values(cloud)):
        assert prof.values(tuple(p)).tobytes() == a.tobytes()
    # the start check of trace and the entry rule agree on whether x is damped; an
    # undamped x is entered at once only from the edge, up to the rounding of a chord
    s = prof.entry_time(x, (math.cos(angle), math.sin(angle)), 0.0)
    assert s in (None, 0.0)
    if one[0] > 0.0:
        assert s == 0.0
    elif s == 0.0:
        assert prof.support_distance(x)[0] - prof.smoothing_width <= 1e-12
