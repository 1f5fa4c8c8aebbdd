"""qfact: finite factual probability laws over a hidden quantum oracle.

Simulate generate-then-measure successions, judge the block stability of
the resulting frequency laws, organize them into probability trees,
reconstruct a predictively equivalent state expansion from the measured
statistics alone, and run desk-scale pilot-wave trace experiments.
"""

__version__ = "0.1.0"
