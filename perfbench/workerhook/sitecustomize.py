"""Start-up hook for the fleet workers of a traced benchmark run.

A traced run puts this directory on the workers' ``PYTHONPATH``, so the
interpreter imports this module before the worker starts; it installs the
span tracer when ``PERFBENCH_WORKER_TRACE`` names the directory for the
worker's span file.  Without that variable it does nothing.
"""

import os

if os.environ.get("PERFBENCH_WORKER_TRACE"):
    from perfbench.trace import install_worker

    install_worker(os.environ["PERFBENCH_WORKER_TRACE"])
