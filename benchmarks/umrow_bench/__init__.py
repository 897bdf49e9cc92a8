"""Benchmark workloads for umrow.

``benchmarks/run.py`` is the entry point; ``benchmarks/worker.py`` runs one
cold pass of a workload in a fresh interpreter.  The workload modules drive
umrow only through its public (non-underscore) names.
"""
