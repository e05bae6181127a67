"""The repository benchmark: whole-process record, replay and serve wall.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints one JSON result line; see ``README.md``.
"""
