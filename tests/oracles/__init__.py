"""Slow, obviously-correct references the package is tested against."""
