"""Benchmark for deduce_ray: see README.md."""
