"""Measurement utilities: time-series sampling and report formatting."""
