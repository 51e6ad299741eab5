"""Benchmark for smclm: seeded workloads, output checks and an outside-in tracer."""
