"""End-to-end variational-loop benchmark for the compilation service.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the root of a checkout and prints
one JSON result line; see ``perfbench/README.md`` and ``BENCHMARK.json``.
"""
