"""Generalized ray flow on rectangle and disk domains, and coverage checking.

Rays move at unit speed along straight lines in the interior, reflect
specularly at transversal boundary hits, and glide along the boundary at
tangential (glancing) hits along the unit tangent xi - (xi . nu) nu: on the
disk round the circle forever (it is strictly convex), on a flat rectangle
side by tangent flight that ends exactly at the corner.  Rectangle corners
terminate a ray: no reflection law is invented for them, they are counted.

trace is the one implementation of these moves.  It runs them through the
kernels _hit_raw, _reflected, _tangent, _arc and _line, and one start rule,
_start_kind, which the CLI's config check calls too.  The kernels, trace's
start point and direction and the RayPath it returns are (x, y) pairs of Python
floats; numpy stays in the samplers.  trace has two moves (the disk's arc
glide; a straight move to _hit_raw, a chord or a flat glide) and one boundary
rule on the normal of the hit (None at a corner: stop; glancing: glide;
otherwise reflect).  Its start check evaluates the damping at the start point
on floats.  It reports a ray as RayEvent records of float pairs, one record for
all five kinds of event, timed by its one clock.

The coverage checker samples phase points, traces each ray up to a time
horizon, and records the first time it meets the damped set {a > 0}.
First entry is exact: each segment and glide arc is intersected with the
damped set in closed form by DampingProfile.entry_time and
DampingProfile.arc_entry_time, so no chord is too short to be seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import ConfigurationError, NumericsError, PreconditionError
from .geometry import DampingProfile, Disk, Domain, Rectangle
from .schema import REQUIRED, check_spec

# |xi . normal| at or below this routes a boundary hit to glide handling.
GLANCING_TOL = 1e-9

_MAX_EVENTS = 200_000
# rays reported in GccReport.worst_rays
_N_WORST = 5


class RayEvent(NamedTuple):
    """One event of a traced ray: its kind ('free_segment', 'glide_arc', 'reflection',
    'corner_stop' or 'damped_entry'), the flow time t at which it starts, and a move
    from start to end over duration; a point event has end = start and duration 0.
    Only a reflection sets xi_in and xi_out.  Points and directions are float pairs."""

    kind: str
    t: float
    start: Tuple[float, float]
    end: Tuple[float, float]
    duration: float = 0.0
    xi_in: Optional[Tuple[float, float]] = None
    xi_out: Optional[Tuple[float, float]] = None


@dataclass
class RayPath:
    """Chronological event list of one traced ray, timed by trace's one clock.

    A reflection or corner stop has the t at which the move reaching it ends, and
    the last move ends at total_time.  terminated is 'horizon', 'corner' or
    'error'; tracing with stop_at_entry=True may additionally end with 'entry'.
    end is the final (position, direction) as float pairs.
    """

    events: List[RayEvent]
    total_time: float
    terminated: str
    end: Tuple[Tuple[float, float], Tuple[float, float]]

    @property
    def first_entry_time(self) -> float:
        for ev in self.events:
            if ev.kind == "damped_entry":
                return ev.t
        return math.inf


# ---------------------------------------------------------------------------
# Elementary moves


def _xy(v) -> tuple:
    return float(v[0]), float(v[1])


def _hit_raw(domain: Domain, x, xi) -> tuple:
    """Smallest s > 0 with x + s*xi on the boundary, and that hit point, in closed form."""
    (px, py), (dx, dy) = x, xi
    if isinstance(domain, Rectangle):
        w, h = domain.width, domain.height
        # time to the wall ahead on each axis; none along a (nearly) parallel axis
        sx = (w - px) / dx if dx > 1e-15 else -px / dx if dx < -1e-15 else math.inf
        sy = (h - py) / dy if dy > 1e-15 else -py / dy if dy < -1e-15 else math.inf
        s = min(sx, sy)
        if not (0 < s < math.inf):
            raise NumericsError("no forward boundary intersection (outward or degenerate ray)")
        hx, hy = px + s * dx, py + s * dy
        # snap the struck coordinate(s) exactly onto the wall
        if sx <= sy + 1e-15:
            hx = w if dx > 0 else 0.0
        if sy <= sx + 1e-15:
            hy = h if dy > 0 else 0.0
        return s, (min(max(hx, 0.0), w), min(max(hy, 0.0), h))
    r = domain.radius
    b = px * dx + py * dy
    c = (px * px + py * py) - r * r
    s = -b + math.sqrt(max(b * b - c, 0.0))
    if s <= 1e-12:
        raise NumericsError("no forward boundary intersection (ray leaves the disk)")
    hx, hy = px + s * dx, py + s * dy
    k = r / math.hypot(hx, hy)
    return s, (hx * k, hy * k)


def _reflected(nu, xi) -> Optional[tuple]:
    """Direction xi - 2 (xi . nu) nu after reflection off a wall with outward normal nu,
    or None at glancing incidence |xi . nu| <= GLANCING_TOL."""
    nx, ny = nu
    d = xi[0] * nx + xi[1] * ny
    if abs(d) <= GLANCING_TOL:
        return None
    return xi[0] - 2.0 * d * nx, xi[1] - 2.0 * d * ny


def _tangent(nu, xi) -> tuple:
    """Unit tangent xi - (xi . nu) nu on a wall with outward normal nu, where xi is
    glancing: |xi . nu| <= GLANCING_TOL, the rule by which trace glides.  Axis-parallel
    on a side."""
    nx, ny = nu
    d = xi[0] * nx + xi[1] * ny
    if abs(d) > GLANCING_TOL:
        raise PreconditionError("a glide needs a glancing direction, |xi . nu| <= GLANCING_TOL")
    tx, ty = xi[0] - d * nx, xi[1] - d * ny
    n = math.hypot(tx, ty)
    return tx / n, ty / n


def _arc(domain: Disk, x, xi):
    """Start angle, orientation (+1 counterclockwise) and state(s) = (position,
    direction) after flow time s of the glide along the circle from x along xi."""
    r = domain.radius
    th0 = math.atan2(x[1], x[0])
    orient = 1.0 if -xi[0] * math.sin(th0) + xi[1] * math.cos(th0) >= 0 else -1.0

    def state(s):
        th = th0 + orient * s / r
        return ((r * math.cos(th), r * math.sin(th)),
                (-orient * math.sin(th), orient * math.cos(th)))

    return th0, orient, state


def _line(x, xi):
    """state(s) = (position, direction) after flow time s on the line from x along xi."""
    return lambda s: ((x[0] + s * xi[0], x[1] + s * xi[1]), xi)


# ---------------------------------------------------------------------------
# Full trace


def trace(domain: Domain, damping: Optional[DampingProfile], x, xi, T: float,
          stop_at_entry: bool = False) -> RayPath:
    """Trace a generalized ray from position x along unit direction xi (two pairs)
    for time T, recording the first damped entry.

    With stop_at_entry=True the path is truncated at the first entry event
    (used by the coverage checker); such paths report terminated='entry'.
    """
    if T <= 0:
        raise ConfigurationError("horizon T must be positive")
    x, xi = _xy(x), _xy(xi)
    if abs(math.hypot(*xi) - 1.0) > 1e-12:
        raise PreconditionError("ray direction must be unit length")
    if not domain.contains(x):
        raise PreconditionError("ray start must lie in the closed domain")
    start = _start_kind(domain, x, xi)

    # whether the first entry into {a > 0} is still ahead
    seeking = damping is not None and damping.amplitude > 0
    events: List[RayEvent] = []
    t = 0.0
    terminated = "horizon"

    if seeking and damping.values(x)[0] > 0.0:
        events.append(_point("damped_entry", 0.0, x))
        seeking = False
        if stop_at_entry:
            return RayPath(events, 0.0, "entry", (x, xi))

    if start == "corner":
        events.append(_point("corner_stop", 0.0, x))
        return RayPath(events, 0.0, "corner", (x, xi))
    gliding = start == "glide"
    if gliding:
        xi = _tangent(domain._normal(x), xi)

    while t < T - 1e-15 and len(events) < _MAX_EVENTS:
        if gliding and isinstance(domain, Disk):
            th0, orient, state = _arc(domain, x, xi)
            kind, dur, s_hit = "glide_arc", T - t, math.inf    # the circle has no end
            entry = damping.arc_entry_time(th0, orient, dur) if seeking else None
        else:
            # a chord, or a flat glide: tangent flight that ends at the corner
            s_hit, hit = _hit_raw(domain, x, xi)
            kind, dur = "glide_arc" if gliding else "free_segment", min(s_hit, T - t)
            state = _line(x, xi)
            entry = damping.entry_time(x, xi, dur) if seeking else None
        t, stop = _emit(events, kind, x, state, t, dur, entry, stop_at_entry)
        if stop:
            return RayPath(events, t, "entry", state(entry))
        seeking = seeking and entry is None
        x, xi = state(dur)
        if dur < s_hit:          # horizon reached mid-move
            break
        x = hit
        if (nu := domain._normal(x)) is None:        # a rectangle corner
            events.append(_point("corner_stop", t, x))
            terminated = "corner"
            break
        xi_out = _reflected(nu, xi)
        if xi_out is None:
            gliding = True
            xi = _tangent(nu, xi)
            continue
        events.append(_point("reflection", t, x, xi, xi_out))
        xi = xi_out

    if len(events) >= _MAX_EVENTS:
        terminated = "error"
    return RayPath(events, t, terminated, (x, xi))


def _emit(events, kind, x, state, t, dur, entry, stop_at_entry):
    """Append the move from x along state(s), 0 <= s <= dur, from flow time t, split at
    the entry time; return the flow time after it and whether tracing stops at the entry."""
    if entry is None:
        if dur > 0:
            events.append(RayEvent(kind, t, x, state(dur)[0], dur))
        return t + dur, False
    pt = state(entry)[0]
    if entry > 0:
        events.append(RayEvent(kind, t, x, pt, entry))
    events.append(_point("damped_entry", t + entry, pt))
    if stop_at_entry:
        return t + entry, True
    if dur - entry > 0:
        events.append(RayEvent(kind, t + entry, pt, state(dur)[0], dur - entry))
    return t + dur, False


def _point(kind, t, x, xi_in=None, xi_out=None) -> RayEvent:
    """The point event of that kind at x and flow time t: start and end are both x."""
    return RayEvent(kind, t, x, x, 0.0, xi_in, xi_out)


def _start_kind(domain: Domain, x, xi) -> str:
    """'interior', 'corner', 'glide' (glancing) or 'wall' (inward) for a ray start x
    in the closed domain with unit direction xi; an outward boundary start raises."""
    if isinstance(domain, Rectangle):
        if min(x[0], domain.width - x[0], x[1], domain.height - x[1]) > 1e-12:
            return "interior"
    elif abs(math.hypot(x[0], x[1]) - domain.radius) > 1e-12 * max(1.0, domain.radius):
        return "interior"
    if (nu := domain._normal(x)) is None:
        return "corner"
    d = xi[0] * nu[0] + xi[1] * nu[1]
    if d > GLANCING_TOL:
        raise PreconditionError("ray on the boundary must not point outward")
    return "glide" if abs(d) <= GLANCING_TOL else "wall"


# ---------------------------------------------------------------------------
# Coverage checking


# the config schema of the samplers (format: see stokeswave.schema)
SAMPLERS = {"grid": {"nx": (int, 1, REQUIRED), "ndir": (int, 1, REQUIRED)},
            "seeded_random": {"n": (int, 1, REQUIRED)}}


@dataclass(frozen=True)
class GridSampler:
    """Uniform interior position grid x uniform direction grid.

    On the disk, nx boundary starts per orientation (gliding rays) are
    appended: the coverage definition quantifies over those too.
    """

    nx: int
    ndir: int

    def __post_init__(self):
        check_spec(vars(self), SAMPLERS["grid"], "sampler")

    def samples(self, domain: Domain) -> tuple[np.ndarray, np.ndarray]:
        angles = 2.0 * math.pi * np.arange(self.ndir) / self.ndir
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        # cell midpoints of an nx x nx grid over the bounding box, lo + (k + 1/2) (hi - lo) / nx
        if isinstance(domain, Rectangle):
            box = ((0.0, domain.width), (0.0, domain.height))
        else:
            r = domain.radius
            box = ((-r, r), (-r, r))
        k = np.arange(self.nx) + 0.5
        px, py = np.meshgrid(*(k * (hi - lo) / self.nx + lo for lo, hi in box), indexing="ij")
        pos = np.stack([px.ravel(), py.ravel()], axis=1)
        if isinstance(domain, Disk):
            pos = pos[np.hypot(pos[:, 0], pos[:, 1]) < r * (1 - 1e-9)]
        positions = np.repeat(pos, self.ndir, axis=0)
        directions = np.tile(dirs, (pos.shape[0], 1))
        if isinstance(domain, Disk):
            th = 2.0 * math.pi * np.arange(self.nx) / self.nx
            bpos = r * np.stack([np.cos(th), np.sin(th)], axis=1)
            tang = np.stack([-np.sin(th), np.cos(th)], axis=1)
            positions = np.concatenate([positions, bpos, bpos], axis=0)
            directions = np.concatenate([directions, tang, -tang], axis=0)
        return positions, directions


@dataclass(frozen=True)
class RandomSampler:
    """Seeded uniform samples of interior positions and directions."""

    n: int
    seed: int = 0

    def __post_init__(self):
        check_spec({"n": self.n}, SAMPLERS["seeded_random"], "sampler")

    def samples(self, domain: Domain) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        if isinstance(domain, Rectangle):
            pos = rng.random((self.n, 2)) * np.array([domain.width, domain.height])
        else:
            pos = np.empty((self.n, 2))
            filled = 0
            while filled < self.n:
                cand = (rng.random((2 * self.n, 2)) * 2 - 1) * domain.radius
                keep = cand[np.hypot(cand[:, 0], cand[:, 1]) < domain.radius * (1 - 1e-9)]
                take = min(self.n - filled, keep.shape[0])
                pos[filled:filled + take] = keep[:take]
                filled += take
        angles = rng.random(self.n) * 2 * math.pi
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return pos, dirs


Sampler = Union[GridSampler, RandomSampler]


@dataclass
class GccReport:
    """Coverage statistics of the damped set over a sampled ray ensemble."""

    horizon: float
    n_samples: int
    covered_fraction: float
    max_first_entry_time: float
    worst_rays: List[Tuple[List[float], List[float]]]
    worst_entry_times: List[float]
    corner_terminated: int
    event_cap_terminated: int


def check_gcc(domain: Domain, damping: DampingProfile, T: float, sampler: Sampler) -> GccReport:
    """Trace each sampled ray and report how much of phase space is covered.

    worst_rays are the starts (x, xi), two float pairs, of the _N_WORST rays that
    enter latest or never, in sample order among ties.

    corner_terminated counts rays that reached a rectangle corner, and
    event_cap_terminated rays that hit the cap of _MAX_EVENTS events, before
    entering the damped set (tracing stops at the first entry).  Both count
    as not covered.
    """
    positions, directions = sampler.samples(domain)
    starts = list(zip(positions.tolist(), directions.tolist()))
    n = len(starts)
    entry = np.full(n, math.inf)
    ends = []
    for i, (x, xi) in enumerate(starts):
        path = trace(domain, damping, x, xi, T, stop_at_entry=True)
        entry[i] = path.first_entry_time
        ends.append(path.terminated)
    covered = float(np.count_nonzero(entry < T)) / n
    # each entry time is finite and at most T, or inf: rays that never enter sort first
    order = np.argsort(-entry, kind="stable")
    worst = [starts[int(i)] for i in order[:_N_WORST]]
    worst_times = [float(entry[int(i)]) for i in order[:_N_WORST]]
    return GccReport(T, n, covered, float(entry.max()), worst, worst_times, ends.count("corner"),
                     ends.count("error"))
