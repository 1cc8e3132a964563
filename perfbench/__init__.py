"""End-to-end benchmark of the deployed serving path.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
builds a seeded store, boots ``repro-serve serve --workers <nproc>
--event-loop`` behind ``repro-serve balance``, drives one workload from
this process and prints one JSON result line (see ``run.py``).
"""
