"""Planar domains and damping profiles.

Two concrete domains are supported: an axis-aligned rectangle [0,W]x[0,H]
and a disk of radius R centered at the origin.  Both are convex, so a
straight segment with endpoints in the closed domain stays inside it.
Whether a ray reflects or glides at the boundary is decided in raytracer,
by |xi . nu| against GLANCING_TOL.  DampingProfile.values evaluates a single
point given as a pair of floats on Python floats, bit for bit as on an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import PreconditionError
from .schema import POSITIVE, REQUIRED, Tagged, check_spec, check_value, fail

_SIDES = ("bottom", "right", "top", "left")
# outward unit normal of each rectangle side, in the order of _SIDES
_NORMALS = ((0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0))


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle [0, width] x [0, height]."""

    width: float
    height: float

    def __post_init__(self):
        check_spec(vars(self), DOMAINS["rectangle"], "domain")

    def contains(self, x) -> bool:
        return (-1e-12 <= x[0] <= self.width + 1e-12) and (-1e-12 <= x[1] <= self.height + 1e-12)

    def _normal(self, x) -> Optional[tuple]:
        """Outward unit normal, a float pair, at a point x = (px, py) within 1e-9 of a
        side, or None at a corner, a point within 1e-9 of two sides."""
        px, py = x
        on = (abs(py) <= 1e-9, abs(px - self.width) <= 1e-9,
              abs(py - self.height) <= 1e-9, abs(px) <= 1e-9)
        if not any(on):
            raise PreconditionError(f"no outward normal at {tuple(x)} (off boundary)")
        return None if (on[0] or on[2]) and (on[1] or on[3]) else _NORMALS[on.index(True)]


@dataclass(frozen=True)
class Disk:
    """Disk of given radius centered at the origin."""

    radius: float

    def __post_init__(self):
        check_spec(vars(self), DOMAINS["disk"], "domain")

    def contains(self, x) -> bool:
        return math.hypot(x[0], x[1]) <= self.radius + 1e-12

    def _normal(self, x) -> tuple:
        r = math.hypot(x[0], x[1])
        if abs(r - self.radius) > 1e-9 * max(1.0, self.radius):
            raise PreconditionError(f"point {tuple(x)} is not on the boundary")
        return x[0] / r, x[1] / r


Domain = Union[Rectangle, Disk]


_POS = (float, POSITIVE, REQUIRED)
# the config schema of the domain and the damping (format: see stokeswave.schema)
DOMAINS = {"rectangle": {"width": _POS, "height": _POS}, "disk": {"radius": _POS}}
DOMAIN = (Tagged("kind", DOMAINS), None, REQUIRED)


def make_domain(spec) -> Domain:
    """Build a domain from a spec mapping like {'kind': 'disk', 'radius': 1.0}; see DOMAINS."""
    spec = check_value(spec, DOMAIN, "domain")
    return {"rectangle": Rectangle, "disk": Disk}[spec.pop("kind")](**spec)


# ---------------------------------------------------------------------------
# Damping profiles


@dataclass(frozen=True)
class BoundaryCollar:
    """Plateau within `width` of the boundary, ramping to zero further inside."""
    width: float


@dataclass(frozen=True)
class DiskPatch:
    """Plateau on the ball of given radius around `center`."""
    center: tuple
    radius: float


@dataclass(frozen=True)
class SideStrip:
    """Plateau within `depth` of one rectangle side ('left'/'right'/'bottom'/'top')."""
    side: str
    depth: float


@dataclass(frozen=True)
class DampingProfile:
    """Continuous nonnegative damping coefficient a(x) on a domain.

    a = amplitude on the nominal support of `shape`, ramps linearly to zero
    over `smoothing_width` outside it, and vanishes beyond the ramp.  With
    smoothing_width = 0 the profile is the plain indicator plateau.
    """

    domain: Domain
    shape: Union[BoundaryCollar, DiskPatch, SideStrip]
    amplitude: float
    smoothing_width: float = 0.0

    def __post_init__(self):
        kind = type(self.shape)
        name = next((k for k, cls in _SHAPES.items() if cls is kind), kind.__name__)
        check_value({"shape": name, **vars(self.shape), "amplitude": self.amplitude,
                     "smoothing_width": self.smoothing_width}, DAMPING, "damping")
        if name == "side_strip" and not isinstance(self.domain, Rectangle):
            fail("damping.shape", "side_strip requires a rectangle domain")

    def support_distance(self, pts: np.ndarray) -> np.ndarray:
        """Signed distance to the nominal support (<= 0 on the plateau)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self._distance(pts[:, 0], pts[:, 1], np.minimum.reduce)

    def _distance(self, px, py, least=min):
        """support_distance at coordinates px, py: two arrays, or two floats with least=min."""
        sh = self.shape
        if isinstance(sh, DiskPatch):
            return np.hypot(px - sh.center[0], py - sh.center[1]) - sh.radius
        if isinstance(self.domain, Disk):
            return self.domain.radius - np.hypot(px, py) - sh.width
        walls = _walls(px, py, self.domain.width, self.domain.height)
        if isinstance(sh, BoundaryCollar):
            return least(walls) - sh.width
        return walls[_SIDES.index(sh.side)] - sh.depth

    def entry_time(self, x, xi, s_max: float) -> Optional[float]:
        """First time s in [0, s_max] at which x + s*xi enters {a > 0}, or None.

        {a > 0} is the nominal support grown by smoothing_width: open when
        smoothing_width > 0 (a vanishes on its edge), closed when it is 0.
        s is the boundary crossing, the infimum of {s >= 0 : a(x + s*xi) > 0},
        so a line that only touches the edge of an open set does not enter it.
        xi is a unit vector; the segment is not clipped to the domain.
        """
        if self.amplitude == 0:
            return None
        sh, grow = self.shape, self.smoothing_width
        x, xi = (float(x[0]), float(x[1])), (float(xi[0]), float(xi[1]))
        if self._value_at(*x) > 0.0:
            s = 0.0     # membership by the rule of values, which trace's start check uses
        elif isinstance(sh, DiskPatch) or isinstance(self.domain, Disk):
            # damped inside the circle |p - c| = rho (sign +1) or outside it (sign -1)
            c, rho, sign = ((sh.center, sh.radius + grow, 1.0) if isinstance(sh, DiskPatch)
                            else ((0.0, 0.0), self.domain.radius - sh.width - grow, -1.0))
            y = (x[0] - c[0], x[1] - c[1])
            b = y[0] * xi[0] + y[1] * xi[1]
            h = abs(y[0] * xi[1] - y[1] * xi[0])
            half_chord = math.sqrt(max((rho - h) * (rho + h), 0.0))
            if sign < 0:
                s = max(-b + half_chord, 0.0)
            elif self._reaches(h, rho) and -b + half_chord > 0:
                s = max(-b - half_chord, 0.0)
            else:
                return None
        else:
            # undamped until some wall distance f0 + s*rate falls to level + grow
            f0 = _walls(x[0], x[1], self.domain.width, self.domain.height)
            rate = _walls(xi[0], xi[1], 0.0, 0.0)
            sides, level = (((0, 1, 2, 3), sh.width) if isinstance(sh, BoundaryCollar)
                            else ((_SIDES.index(sh.side),), sh.depth))
            s = math.inf
            for k in sides:
                if rate[k] < 0:
                    s = min(s, (f0[k] - level - grow) / -rate[k])
        return s if s <= s_max else None

    def arc_entry_time(self, theta0: float, orient: float, s_max: float) -> Optional[float]:
        """entry_time for a unit-speed glide along the disk boundary.

        The glide starts at polar angle theta0, counterclockwise for orient = +1
        and clockwise for orient = -1.  A collar contains the boundary (0); a
        patch meets it in an arc whose half-angle is a circle-circle intersection.
        """
        if self.amplitude == 0:
            return None
        sh = self.shape
        if not isinstance(sh, DiskPatch):
            return 0.0
        r = self.domain.radius
        rho = sh.radius + self.smoothing_width
        dist = math.hypot(sh.center[0], sh.center[1])
        if dist == 0.0:
            return 0.0 if self._reaches(r, rho) else None
        # on the circle, |p - c|^2 = r^2 + dist^2 - 2*r*dist*cos(angle from the center's angle)
        cos_edge = (r * r + dist * dist - rho * rho) / (2.0 * r * dist)
        if not self._reaches(cos_edge, 1.0):
            return None
        half = math.acos(max(cos_edge, -1.0))
        rel = math.remainder(orient * (theta0 - math.atan2(sh.center[1], sh.center[0])),
                             2.0 * math.pi)
        if self._reaches(abs(rel), half):
            return 0.0
        s = r * ((-half - rel) % (2.0 * math.pi))
        return s if s <= s_max else None

    def _reaches(self, q: float, level: float) -> bool:
        """q < level, or q == level too for a sharp profile, whose damped set is closed."""
        return q < level or (self.smoothing_width == 0 and q == level)

    def values(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized a(x) over an (n, 2) array of points, or one float pair (no domain check)."""
        if type(pts) is tuple and len(pts) == 2 and isinstance(pts[0], float):
            return np.array([self._value_at(*pts)])
        d = self.support_distance(pts)
        if self.smoothing_width == 0.0:
            return np.where(d <= 0.0, self.amplitude, 0.0)
        ramp = np.clip(1.0 - d / self.smoothing_width, 0.0, 1.0)
        return self.amplitude * ramp

    def _value_at(self, px: float, py: float) -> float:
        """a(x) at the point (px, py) on floats, bit for bit the value on an array."""
        d, grow = float(self._distance(px, py)), self.smoothing_width
        return self.amplitude * (min(max(1.0 - d / grow, 0.0), 1.0) if grow else float(d <= 0.0))


def _walls(px, py, w, h) -> tuple:
    """Distances of (px, py) to the sides of [0, w] x [0, h] in _SIDES order; w = h = 0: rates."""
    return py, w - px, h - py, px


_PROFILE = {"amplitude": (float, 0, 1.0), "smoothing_width": (float, 0, 0.0)}
DAMPINGS = {
    "boundary_collar": {"width": _POS, **_PROFILE},
    "disk_patch": {"center": ([float, float], None, REQUIRED), "radius": _POS, **_PROFILE},
    "side_strip": {"side": (_SIDES, None, REQUIRED), "depth": _POS, **_PROFILE},
}
DAMPING = (Tagged("shape", DAMPINGS), None, None)
_SHAPES = {"boundary_collar": BoundaryCollar, "disk_patch": DiskPatch, "side_strip": SideStrip}


def make_damping(domain: Domain, spec) -> DampingProfile:
    """Build a DampingProfile from a spec mapping; see DAMPINGS."""
    spec = check_value(spec, DAMPING, "damping")
    shape = _SHAPES[spec.pop("shape")]
    amplitude, smoothing = spec.pop("amplitude"), spec.pop("smoothing_width")
    return DampingProfile(domain, shape(**spec), amplitude, smoothing)
