"""Benchmark of the circle-mimo simulator: workloads, metrics, tracing and checks.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` is the separate traced run that gives the
per-layer metrics.
"""
