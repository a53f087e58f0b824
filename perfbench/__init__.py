"""The repository benchmark: end-to-end and per-layer measurements.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints one JSON result as its last stdout line.
See ``perfbench/README.md`` for the workloads, the metric definitions and
the layer -> end-to-end map.  Nothing here is imported by ``src/``; every
layer is measured from outside, through its public functions.
"""
