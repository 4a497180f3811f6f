"""Interpreter start-up hook for traced benchmark runs.

``perfbench/run.py --trace 1`` puts this directory on ``PYTHONPATH`` and
sets ``PERFBENCH_LAYERS_DIR``, so every Python process the workload
starts -- the HTTP server, spawned pool replicas, DAG workers -- installs
the benchmark's layer timers before it imports the program.
``PERFBENCH_ROLE=setup`` marks a set-up process (the model export),
whose inference-path timings stay out of the serving metrics. Without
``PERFBENCH_LAYERS_DIR`` this file does nothing.
"""

import os

if os.environ.get("PERFBENCH_LAYERS_DIR"):
    import perfbench_layers

    perfbench_layers.install(os.environ["PERFBENCH_LAYERS_DIR"],
                             os.environ.get("PERFBENCH_ROLE", "main"))
