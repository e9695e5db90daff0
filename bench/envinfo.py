"""What a benchmark result was measured on: versions, machine, settings, code."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys

THREAD_VARS = ("RAMAN_SIM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    # the benchmark also runs from exported trees that are not repositories
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root):
    """sha256 over the package sources, names and bytes, in path order."""
    pkg = os.path.join(root, "src", "ramansim")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(root, env=None):
    import numpy
    import scipy
    env = os.environ if env is None else env
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "executable": os.path.basename(sys.executable),
        "thread_env": {k: env.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
    }
