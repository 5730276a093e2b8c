"""The repository's benchmark: seven named workloads over the public facade.

Run ``python -m bench run --seed N`` from the repository root for every
workload, or add ``--workload NAME`` for one; ``python -m bench compare
A.json B.json`` referees two run files.  ``bench/README.md`` is the
written contract (input generation, pinned API surface, what each
workload exercises, how to read a trace).
"""
