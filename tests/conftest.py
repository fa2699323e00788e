"""Session setup: numpy's bundled OpenBLAS runs 1 thread for the whole
session, so on two CPUs or more the library's worker thread is on and each
train step and evaluation batch runs its halves on two threads, as a
command run with OPENBLAS_NUM_THREADS=1 does. A test that compares thread
counts sets its own through `helpers.blas_threads`."""
import pytest

from riformer import bench


@pytest.fixture(autouse=True, scope="session")
def one_blas_thread():
    blas = bench._openblas()  # None where numpy bundles no OpenBLAS
    if blas is None:
        yield
        return
    before = blas.get_threads()
    blas.set_threads(1)
    try:
        yield
    finally:
        blas.set_threads(before)
