"""Seeded benchmark harness for the ray-extract engine; see run.py."""
