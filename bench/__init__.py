"""Benchmark of the mucube deciders, the scan and the witness search."""
