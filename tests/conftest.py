import pytest

from gbcausal.numerics import blas_threads


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Run the suite at one OpenBLAS thread, as `gbcausal` itself runs: the
    many small dense solves are slower on several threads. Tests of the pin
    set their own counts inside it."""
    with blas_threads(1):
        yield
