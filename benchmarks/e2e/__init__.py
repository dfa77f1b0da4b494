"""The repo benchmark: end-to-end host cost of regenerating the paper's sweep.

See README.md in this directory; ``BENCHMARK.json`` at the repo root is the
machine-readable contract.
"""
