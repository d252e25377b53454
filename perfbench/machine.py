"""BLAS thread pinning and machine facts.

Import this module before numpy: OpenBLAS reads its thread count once, when
the library loads. On a 2-core machine one BLAS thread measured about 15%
faster per base iteration than the default, so an inherited shell setting
would move the results by more than the benchmark's bounds.
"""

import os

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

INHERITED_BLAS_ENV = {k: os.environ.get(k) for k in BLAS_ENV}
for _key in BLAS_ENV:
    os.environ[_key] = str(BLAS_THREADS)


def facts():
    """Machine facts recorded with every result."""
    import platform

    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    return dict(nproc=os.cpu_count(), python=platform.python_version(),
                numpy=np.__version__, blas=blas,
                blas_env={k: os.environ.get(k) for k in BLAS_ENV},
                inherited_blas_env=INHERITED_BLAS_ENV)
