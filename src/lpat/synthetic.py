"""Deterministic synthetic SMART fleets for desk-scale experiments.

Healthy drives emit stationary Gaussian noise around fixed per-attribute
baselines. Failing drives add a monotone drift ramp to every attribute over
their final ``RAMP_DAYS`` (30) days, reaching the full drift magnitude on the
failure day. Identical seeds reproduce identical fleets byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .data import DriveTimeline, SmartRecord

RAMP_DAYS = 30
START_DATE = date(2016, 1, 1)
MODEL_NAME = "SYNTH-1"


@dataclass
class SynthConfig:
    healthy: int = 100
    failed: int = 10
    n_attrs: int = 8
    days: int = 60
    drift: float = 40.0
    noise: float = 2.0
    seed: int = 0
    drive_scatter: float = 0.0  # stddev of a fixed per-(drive, attribute) level offset

    def __post_init__(self):
        if self.healthy < 0 or self.failed < 0:
            raise ValueError("drive counts must be non-negative")
        if self.n_attrs < 1 or self.days < 1:
            raise ValueError("n_attrs and days must be positive")
        if self.drive_scatter < 0:
            raise ValueError("drive_scatter must be non-negative")


def attr_baselines(n_attrs: int) -> np.ndarray:
    """Spread baselines across attribute indices so raw magnitudes differ."""
    return 75.0 * (np.arange(n_attrs) + 1.0)


def generate_synthetic(config: SynthConfig) -> list[DriveTimeline]:
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 21]))
    base = attr_baselines(config.n_attrs)
    dates = [START_DATE + timedelta(days=t) for t in range(config.days)]
    residuals = np.arange(config.days - 1, -1, -1, dtype=float)
    ramp = config.drift * np.clip(1.0 - residuals / RAMP_DAYS, 0.0, 1.0)

    def level(serial_rng):
        # each drive sits at its own stationary level around the baselines
        return base + config.drive_scatter * serial_rng.standard_normal(config.n_attrs)

    timelines = []
    for i in range(config.healthy):
        values = level(rng) + config.noise * rng.standard_normal(
            (config.days, config.n_attrs))
        timelines.append(_timeline(f"SH{i:05d}", dates, values, fail=False))
    for i in range(config.failed):
        values = level(rng) + config.noise * rng.standard_normal(
            (config.days, config.n_attrs))
        values = values + ramp[:, None]
        timelines.append(_timeline(f"SF{i:05d}", dates, values, fail=True))
    return timelines


def _timeline(serial: str, dates, values: np.ndarray, fail: bool) -> DriveTimeline:
    rows = values.tolist()  # Python floats, converted once per drive
    records = [
        SmartRecord(serial=serial, date=d, model=MODEL_NAME,
                    failure=fail and t == len(dates) - 1,
                    attrs=tuple(rows[t]))
        for t, d in enumerate(dates)
    ]
    return DriveTimeline(serial=serial, records=records,
                         fail_date=dates[-1] if fail else None)
