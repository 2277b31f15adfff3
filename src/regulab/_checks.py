"""Argument checks shared by the time-stepped kernels."""

from __future__ import annotations

import math


def check_dt(dt: float) -> None:
    """Reject a step size that is not positive and finite."""
    if not (0 < dt < math.inf):  # also rejects nan
        raise ValueError(f"dt must be positive and finite, got {dt}")
