"""Backward-compatible import path for the two-tier calibration cache.

The cache lives in :mod:`repro.pipeline.cache`; construct it with an
:class:`~repro.store.artifacts.ArtifactStore` to get the store tier.
"""

from repro.pipeline.cache import CalibrationCache as PersistentCalibrationCache  # noqa: F401
