"""Seeded end-to-end and per-layer benchmark of the pminors command line."""
