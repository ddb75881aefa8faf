"""Benchmark of the Ragnar reproduction: see README.md."""
