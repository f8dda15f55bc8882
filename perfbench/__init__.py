"""Benchmark of the spaneg CLI: end-to-end metrics and a per-layer trace."""
