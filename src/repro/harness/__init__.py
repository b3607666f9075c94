"""Experiment harness: configuration, simulation wiring, searches, figures."""
