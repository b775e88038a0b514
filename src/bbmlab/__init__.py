"""Spectral simulation and verification lab for the BBM equation on the circle."""

__version__ = "0.1.0"
