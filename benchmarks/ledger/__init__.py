"""The performance ledger: end-to-end and per-layer costs of campaigns.

Run it with ``PYTHONPATH=src:benchmarks python -m ledger`` from the
repository root (see README.md).  This package imports nothing at import
time: a child process must stamp its start before ``repro`` loads.
"""
