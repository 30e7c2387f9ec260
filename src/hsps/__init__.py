"""Heralded single-photon source toolkit.

Closed-form photon-counting statistics for a pulse-pumped fiber pair
source, brute-force numerical oracles validating them, Schmidt-mode
analysis, a gated-detector Monte Carlo with Raman background and dark
counts, and the power-sweep data-reduction chain.

Names are imported from their modules (``hsps.config``, ``hsps.stats``,
``hsps.oracle``, ...); importing one module loads only what it needs.
"""

__version__ = "0.1.0"
