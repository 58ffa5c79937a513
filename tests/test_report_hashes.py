"""Golden sha256 of small reports, one per command at a fixed seed.

Reports are byte-deterministic, so any change to them (a new key, a
moved last digit, a different random stream) shows here.  A change that
means to move report bytes updates the hash and says why.  The hashes
were recorded under numpy 2.4 with OpenBLAS 0.3 on x86-64; another BLAS
may round a Gram product differently.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from cohaudit.cli import main

GOLDEN = {
    "audit-gaussian": (
        "audit --ensemble gaussian --rows 60 --cols 150 --seed 3",
        "4ff6a144f3a4657e2e7bd3aea3400a921a1e603e214f65b18613122b46693ad0"),
    "audit-bernoulli": (
        "audit --ensemble bernoulli --rows 40 --cols 120 --seed 4",
        "bff6e754508021da907f06708986fe5868586eae7549afb3207110caf4524b92"),
    "audit-partial-fourier": (
        "audit --ensemble partial_fourier --rows 30 --cols 90 --seed 5",
        "a9d71b72b4801220b1798d68d8693c9716c9bae57d4c164f49de749a64da7b25"),
    "verify": (
        "verify --ensemble gaussian --rows 40 --cols 80 --k 4 --trials 600 --seed 6",
        "067560c8c8119d30d6c52eec9dc147bfc15e5686c97164f97a264c8794a944f7"),
    "phase-omp": (
        "phase --ensemble gaussian --rows 40 --cols 100 --solver omp --k-list 2,6,10,14"
        " --trials 12 --seed 7",
        "f722b6701be789ebfa355249970144b291a11411c4e6b02d73ba11bba68d6c05"),
    "phase-bpdn": (
        "phase --ensemble gaussian --rows 30 --cols 60 --solver bpdn --k-list 2,5,8"
        " --trials 4 --seed 8",
        "b17988ac48e1527909eaa855395909c5102fcba508bd59a4298d6fb616764415"),
    "separate": (
        "separate --preset spikes-fourier --n 32 --nx 2 --ne 2 --trials 10 --seed 9",
        "4ab9f2831499387beb80ae03cb0b25d9156135b814f5368f107c54e6b292fc45"),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_report_bytes_are_pinned(name):
    command, digest = GOLDEN[name]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(command.split()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
