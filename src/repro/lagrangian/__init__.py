"""Lagrangian relaxation lower bounding (paper Sections 3.2 and 4.3)."""

from .subgradient import LagrangianBound

__all__ = ["LagrangianBound"]
