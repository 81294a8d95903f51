"""The config schema format, tables of key -> (type, lower bound, default), and its validator.

The type is float, int or str; a tuple of allowed strings; [float] (a nonempty
list) or [float, float] (a pair), both checked into tuples; a nested table; or
Tagged, a table chosen by the value of a tag key.  The lower bound is None,
POSITIVE (> 0) or n (>= n), applied to each element of a list.  The default is
REQUIRED, None (optional: absent means None, and an optional object may also
be null) or the value filled in.  check_spec returns every key of the table,
floats as float; a violation raises ConfigurationError("<dotted path>: <reason>").
The tables are the only statement of each bound: the CLI checks a config
through them, and the constructors of the domains, damping profiles and ray
samplers check their own fields through the same tables.
"""

from __future__ import annotations

import numbers
import sys
from collections import namedtuple

from .errors import ConfigurationError

REQUIRED = "required"
POSITIVE = "positive"
# an object whose `tag` key names the table in `tables` that checks its other keys
Tagged = namedtuple("Tagged", "tag tables")


def fail(path: str, msg: str):
    raise ConfigurationError(f"{path}: {msg}")


def check_spec(spec, table: dict, path: str) -> dict:
    """spec checked against table, with every default filled in."""
    if not isinstance(spec, dict):
        fail(path, "must be an object")
    prefix = f"{path}." if path else ""
    unknown = sorted(set(spec) - set(table))
    if unknown:
        fail(prefix + unknown[0], "unknown key")
    out = {}
    for key, rule in table.items():
        where = prefix + key
        nullable = rule[2] is None and isinstance(rule[0], (dict, Tagged))
        if key in spec and not (nullable and spec[key] is None):
            out[key] = check_value(spec[key], rule, where)
        elif rule[2] is REQUIRED:
            fail(where, "required key is missing")
        else:
            out[key] = rule[2]
    return out


def check_value(val, rule: tuple, path: str):
    """One value checked against its rule (type, lo, default)."""
    kind, lo, _ = rule
    if isinstance(kind, Tagged):
        if not isinstance(val, dict):
            fail(path, "must be an object")
        tag = val.get(kind.tag)
        if not (isinstance(tag, str) and tag in kind.tables):
            fail(f"{path}.{kind.tag}", f"must be one of {tuple(kind.tables)}, got {tag!r}")
        rest = {k: v for k, v in val.items() if k != kind.tag}
        return {kind.tag: tag, **check_spec(rest, kind.tables[tag], path)}
    if isinstance(kind, dict):
        return check_spec(val, kind, path)
    if isinstance(kind, tuple):
        if not (isinstance(val, str) and val in kind):
            fail(path, f"must be one of {kind}, got {val!r}")
        return val
    if isinstance(kind, list):
        if not (isinstance(val, (list, tuple)) and val and len(kind) in (1, len(val))):
            fail(path, "must be a pair [x, y]" if len(kind) == 2 else "must be a nonempty list")
        return tuple(check_value(v, (kind[0], lo, REQUIRED), path) for v in val)
    if kind is str:
        if not (isinstance(val, str) and val):
            fail(path, "must be a nonempty string")
        return val
    if kind is int and (isinstance(val, bool) or not isinstance(val, int)):
        fail(path, "must be an integer")
    if isinstance(val, bool) or not isinstance(val, numbers.Real) \
            or not abs(val) <= sys.float_info.max:
        fail(path, "must be a finite number")
    if lo == POSITIVE and not val > 0:
        fail(path, "must be positive")
    if lo not in (None, POSITIVE) and val < lo:
        fail(path, "must be nonnegative" if lo == 0 else f"must be >= {lo}")
    return val if kind is int else float(val)
