"""``import longlasso`` loads no SciPy; the solver imports it on first use."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import scipy.special

import longlasso
from longlasso._lazy import LazyModule

SRC = str(Path(longlasso.__file__).resolve().parents[1])


def _fresh_python(code: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy():
    out = _fresh_python("""
        import sys
        import longlasso
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
    """)
    assert out == "[]\n"


def test_an_attribute_read_once_is_kept_on_the_instance():
    special = LazyModule("scipy.special")
    assert vars(special) == {"_name": "scipy.special"}
    assert special.expit is scipy.special.expit
    # later reads find it without calling __getattr__, so run no import
    assert vars(special)["expit"] is scipy.special.expit


def test_first_reads_from_many_threads_bind_one_function():
    # a fresh interpreter, so the threads race the real first import
    out = _fresh_python("""
        import sys
        import threading

        from longlasso._lazy import LazyModule

        blas = LazyModule("scipy.linalg.blas")
        barrier = threading.Barrier(8)
        seen = []

        def first_read():
            barrier.wait(timeout=60)
            seen.append(blas.dgemv)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        import scipy.linalg.blas
        assert len(seen) == 8 and all(f is scipy.linalg.blas.dgemv for f in seen)
        print("ok")
    """)
    assert out == "ok\n"
