"""Trainability laboratory: diagnostics and per-layer LR control for continual learning."""

__version__ = "0.1.0"
