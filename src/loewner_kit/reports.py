"""Reports as strict JSON.

A report is a dataclass whose fields are its JSON keys.  One function,
:func:`strict_json`, owns the conversion, for a report's ``to_dict`` and
for the CLI's whole payload alike.
"""

from __future__ import annotations

import dataclasses
import math

__all__ = ["Report", "strict_json"]


def strict_json(obj):
    """``obj`` as strict JSON values: a dataclass as the dict of its fields,
    a tuple as a list, a complex number as ``[re, im]`` and a non-finite
    float, at any depth, as None."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [strict_json(v) for v in obj]
    if isinstance(obj, complex):
        return [strict_json(obj.real), strict_json(obj.imag)]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


class Report:
    """A report dataclass: ``to_dict`` is its :func:`strict_json`."""

    def to_dict(self) -> dict:
        return strict_json(self)
