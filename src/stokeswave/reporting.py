"""Deterministic CSV/JSON report writers.

Every output embeds the resolved experiment configuration and the package
version.  Floats are written with 17 significant digits and JSON keys are
sorted, so identical configurations produce byte-identical files.
Non-finite values serialize as the strings "inf", "-inf", "nan".
write_csv formats a row with one %-format string, cached per tuple of cell
types, that writes the bytes of fmt_float, str(int(x)) or str(x) in each cell.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._version import __version__


def fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def sanitize(obj):
    """Make an object JSON-safe and deterministic: tuples become lists, numpy floats
    Python floats, and non-finite floats strings; everything else passes through."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isinf(x) or math.isnan(x):
            return fmt_float(x)
        return x
    return obj


def write_json(path, payload: dict, config: dict) -> None:
    envelope = {"artifact": "stokeswave", "version": __version__, "config": config}
    envelope.update(payload)
    text = json.dumps(sanitize(envelope), sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _row_format(types) -> str:
    """The %-format of a row of cells of these types: %.17g for floats, %d for ints, %s
    otherwise, which write the bytes of fmt_float, str(int(x)) and str(x)."""
    return ",".join("%.17g" if issubclass(c, (float, np.floating)) else
                    "%d" if issubclass(c, (int, np.integer)) else "%s" for c in types)


def write_csv(path, columns: Sequence[str], rows: Iterable[Sequence], config: dict) -> None:
    lines = [f"# stokeswave {__version__}",
             "# config: " + json.dumps(sanitize(config), sort_keys=True),
             ",".join(columns)]
    formats = {}    # tuple of cell types -> its _row_format
    for row in map(tuple, rows):
        key = tuple(map(type, row))
        if key not in formats:
            formats[key] = _row_format(key)
        lines.append(formats[key] % row)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
