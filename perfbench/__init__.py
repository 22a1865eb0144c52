"""End-to-end benchmark of the shipped fountain delivery path.

Run it from the repository root::

    python3 perfbench/run.py --workload udp-lt --seed 1 --seconds 20 --trace 0

See ``perfbench/README.md`` for the workloads and metrics.
"""
