import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stokeswave import (BoundaryCollar, ConfigurationError, DampingProfile, Disk, DiskPatch,
                        PreconditionError, Rectangle, SideStrip, make_damping, make_domain)
from stokeswave.geometry import DAMPINGS, DOMAINS
from stokeswave.geometry import _SHAPES as SHAPE_CLASSES
from stokeswave.schema import POSITIVE


def test_make_domain_examples():
    assert make_domain({"kind": "rectangle", "width": 1.0, "height": 1.0}) == Rectangle(1.0, 1.0)
    assert make_domain({"kind": "disk", "radius": 1.0}) == Disk(1.0)
    with pytest.raises(ConfigurationError, match="^domain.radius: must be positive$"):
        make_domain({"kind": "disk", "radius": -1.0})
    with pytest.raises(ConfigurationError, match="^domain.radius: must be positive$"):
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
        assert domain._normal((0.0, 0.0)) is None
    else:
        points = np.stack([np.cos(t), np.sin(t)], axis=1)
    for x in points:
        nu = np.array(domain._normal(x))
        assert abs(np.hypot(nu[0], nu[1]) - 1.0) <= 1e-12
        assert not domain.contains(x + 1e-6 * nu)
        assert domain.contains(x - 1e-6 * nu)
        # off the boundary, inside and outside, there is no normal
        for off in (x - 1e-6 * nu, x + 1e-6 * nu):
            with pytest.raises(PreconditionError):
                domain._normal(off)


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


_SQ = Rectangle(1.0, 1.0)


@dataclass(frozen=True)
class _Ring:
    """A shape that no damping table lists."""
    width: float


@pytest.mark.parametrize("build, message", [
    (lambda: Rectangle(0.0, 1.0), "domain.width: must be positive"),
    (lambda: Rectangle(1.0, -2.0), "domain.height: must be positive"),
    (lambda: Rectangle(math.inf, 1.0), "domain.width: must be a finite number"),
    (lambda: Disk(math.inf), "domain.radius: must be a finite number"),
    (lambda: DampingProfile(_SQ, BoundaryCollar(0.1), 1.0, -0.01),
     "damping.smoothing_width: must be nonnegative"),
    (lambda: DampingProfile(_SQ, BoundaryCollar(0.1), 1.0, math.nan),
     "damping.smoothing_width: must be a finite number"),
    (lambda: DampingProfile(_SQ, BoundaryCollar(0.0), 1.0), "damping.width: must be positive"),
    (lambda: DampingProfile(_SQ, DiskPatch((0.5, 0.5), 0.0), 1.0),
     "damping.radius: must be positive"),
    (lambda: DampingProfile(_SQ, DiskPatch((math.nan, 0.5), 0.2), 1.0),
     "damping.center: must be a finite number"),
    (lambda: DampingProfile(_SQ, SideStrip("middle", 0.1), 1.0),
     "damping.side: must be one of ('bottom', 'right', 'top', 'left'), got 'middle'"),
    (lambda: DampingProfile(_SQ, SideStrip("left", 0.0), 1.0), "damping.depth: must be positive"),
    (lambda: DampingProfile(Disk(1.0), SideStrip("left", 0.1), 1.0),
     "damping.shape: side_strip requires a rectangle domain"),
    (lambda: DampingProfile(_SQ, _Ring(0.1), 1.0),
     "damping.shape: must be one of ('boundary_collar', 'disk_patch', 'side_strip'), "
     "got '_Ring'"),
], ids=["zero_width", "negative_height", "infinite_width", "infinite_radius",
        "negative_smoothing", "nan_smoothing", "zero_collar", "zero_patch", "nan_center",
        "unknown_side", "zero_depth", "strip_on_disk", "unknown_shape"])
def test_library_guards_name_the_bad_argument(build, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        build()


# a valid spec of each entry of DOMAINS and DAMPINGS, without its defaulted keys
_VALID = {"rectangle": {"width": 1.0, "height": 1.0}, "disk": {"radius": 1.0},
          "boundary_collar": {"width": 0.1}, "disk_patch": {"center": (0.5, 0.5), "radius": 0.2},
          "side_strip": {"side": "left", "depth": 0.1}}
# every key whose rule bounds its value or lists the allowed ones
_BOUNDED = [(path, name, key, rule)
            for path, tables in (("domain", DOMAINS), ("damping", DAMPINGS))
            for name, table in tables.items() for key, rule in table.items()
            if rule[1] is not None or isinstance(rule[0], tuple)]


@pytest.mark.parametrize("path, name, key, rule", _BOUNDED,
                         ids=[f"{name}.{key}" for _, name, key, _ in _BOUNDED])
def test_constructor_and_factory_reject_an_out_of_range_value_alike(path, name, key, rule):
    kind, lo, _ = rule
    bad = "middle" if isinstance(kind, tuple) else 0.0 if lo == POSITIVE else lo - 1.0
    spec = {**_VALID[name], key: bad}
    if path == "domain":
        calls = (lambda: {"rectangle": Rectangle, "disk": Disk}[name](**spec),
                 lambda: make_domain({"kind": name, **spec}))
    else:
        profile = {"amplitude": spec.pop("amplitude", 1.0),
                   "smoothing_width": spec.pop("smoothing_width", 0.0)}
        calls = (lambda: DampingProfile(_SQ, SHAPE_CLASSES[name](**spec), **profile),
                 lambda: make_damping(_SQ, {"shape": name, **spec, **profile}))
    messages = []
    for call in calls:
        with pytest.raises(ConfigurationError) as info:
            call()
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"{path}.{key}: must be ")


def test_a_zero_amplitude_profile_is_never_entered():
    # each start lies on the plateau, where a positive amplitude would enter at s = 0
    collar = DampingProfile(_SQ, BoundaryCollar(0.1), 0.0, 0.02)
    patch = DampingProfile(Disk(1.0), DiskPatch((0.9, 0.0), 0.3), 0.0, 0.02)
    for prof, x in ((collar, (0.05, 0.5)), (patch, (0.9, 0.0))):
        assert _at(prof, x) == 0.0
        assert prof.entry_time(x, (1.0, 0.0), 10.0) is None
    assert patch.arc_entry_time(0.0, 1.0, 10.0) is None


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
