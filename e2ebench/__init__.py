"""End-to-end, layer-attributed benchmark; entry point ``e2ebench/run.py``."""
