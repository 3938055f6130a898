"""Facts about the host and the numerical stack, recorded with every result."""

import ctypes
import glob
import os
import platform


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches():
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(index, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(index, "size")) as f:
                size = f.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _openblas(package):
    """Config string and thread count of the OpenBLAS bundled with a package."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                          f"{package.__name__}.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    config.argtypes = []
                    threads.restype = ctypes.c_int
                    threads.argtypes = []
                    return {"config": config().decode(), "threads": threads()}
    return {"config": "unknown", "threads": None}


def _git_commit(root):
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_facts(root):
    import numpy
    import scipy

    import qelab

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _openblas(numpy),
        "openblas_scipy": _openblas(scipy),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "qelab": qelab.__version__,
        "qelab_kernel_backend": getattr(qelab, "kernel_backend", "unknown"),
        "git_commit": _git_commit(root),
    }
