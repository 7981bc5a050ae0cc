"""Tile-based rumex/background classification with moment-matching domain adaptation.

Every public name is imported from the module that defines it, e.g.
``from rumexda.tiling import build_splits``.
"""

__version__ = "0.1.0"
