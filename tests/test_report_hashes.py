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
    "audit-two-strips": (  # 1600 columns read 5 strips of 327 rows: every other audit is one strip
        "audit --ensemble gaussian --rows 40 --cols 1600 --seed 12",
        "ac186464329226ca1d91ab42cdeade576a2642e5719114debca0832e372fe594"),
    "audit-partial-fourier": (
        "audit --ensemble partial_fourier --rows 30 --cols 90 --seed 5",
        "59fa20ad89d91841d4ed8dbd780796ea011841b60bf60885feec48dc088fc1bf"),
    "verify": (
        "verify --ensemble gaussian --rows 40 --cols 80 --k 4 --trials 600 --seed 6",
        "067560c8c8119d30d6c52eec9dc147bfc15e5686c97164f97a264c8794a944f7"),
    "phase-omp": (
        "phase --ensemble gaussian --rows 40 --cols 100 --solver omp --k-list 2,6,10,14"
        " --trials 12 --seed 7",
        "9507eee18a797c8986432f48dcc4a27654d1e84c7f65b63a7820c15a7a284a05"),
    "phase-omp-noisy": (
        "phase --ensemble gaussian --rows 40 --cols 100 --solver omp --k-list 2,6,10,14"
        " --trials 12 --noise 0.01 --seed 15",
        "e09e183982311bb736a58b45bd32d85b0b960580764eef39a863e2859c260453"),
    "phase-iht": (
        "phase --ensemble gaussian --rows 40 --cols 100 --solver iht --k-list 2,6,10,14"
        " --trials 12 --seed 13",
        "d3ee2f6e3619ac54ea6d055fb04639f89c34b00e5defb03d42abfc16dbb5f340"),
    "phase-iht-noisy": (
        "phase --ensemble gaussian --rows 40 --cols 100 --solver iht --k-list 2,6,10"
        " --trials 12 --noise 0.01 --seed 14",
        "fd1baf5906bcc17666c82a1b1899dffa5319a34c544c6e6091d413e4cc6d7b87"),
    "phase-bpdn": (
        "phase --ensemble gaussian --rows 30 --cols 60 --solver bpdn --k-list 2,5,8"
        " --trials 4 --seed 8",
        "0ecde92ed199416091fdd643ab458b7da620386cd9fbc429bfc80d0847eb1aaf"),
    "phase-cosamp-noisy": (
        "phase --ensemble gaussian --rows 40 --cols 100 --solver cosamp --k-list 2,6,10"
        " --trials 12 --noise 0.01 --seed 10",
        "d7bda59f280af39a38a48ebd1165a3dddfa40343c82dd1136405548075573c51"),
    "separate": (
        "separate --preset spikes-fourier --n 32 --nx 2 --ne 2 --trials 10 --seed 9",
        "2f63d5e5d3c30eab5dd53c8cea2877f83fc939d9badf448f71ac39a77c5051c5"),
    "separate-noisy": (
        "separate --preset spikes-fourier --n 32 --nx 2 --ne 2 --trials 10 --noise 0.01"
        " --seed 11",
        "1be0266a55fd6dbe3c23b2571631934ecbb83ad1c7b66c97571cc1ffdf9dd05c"),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_report_bytes_are_pinned(name):
    command, digest = GOLDEN[name]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(command.split()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
