from fractions import Fraction
from pathlib import Path

import pytest

from cfspectra.cf_builder import DeltaBlock
from cfspectra.session import SessionConfig, synth

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _load(name):
    return SessionConfig.from_json((CONFIG_DIR / f"{name}.json").read_text())


@pytest.fixture(scope="session")
def shipped_direct():
    return synth(_load("direct_12"))


@pytest.fixture(scope="session")
def shipped_product():
    return synth(_load("product_23"))


@pytest.fixture(scope="session")
def shipped_staircase():
    return synth(_load("staircase_mixing"))


@pytest.fixture(scope="session")
def probe_direct():
    # warm-up stages, then 64-column translate and rotate stages
    return synth(SessionConfig(
        mode="direct", targets=(1, 2),
        blocks=(DeltaBlock(Fraction(1, 2), 4, r_seq=(8, 8, 64, 64)),),
    ))


@pytest.fixture(scope="session")
def probe_product():
    # the fifth stage is a 64-column delayed-translate stage
    return synth(SessionConfig(
        mode="product", targets=(2, 3),
        blocks=(DeltaBlock(Fraction(1, 2), 5, r_seq=(6, 6, 6, 6, 64)),),
    ))


@pytest.fixture(scope="session")
def probe_kappa3():
    # stage 4 rotates by k = 1 with kappa = 3, so eta(k) is not real
    return synth(SessionConfig(
        mode="direct", targets=(1, 3),
        blocks=(DeltaBlock(Fraction(1, 2), 4, r_seq=(4, 4, 4, 4)),),
    ))


@pytest.fixture(scope="session")
def probe_kappa3_wide():
    # kappa = 3, and stage 4 rotates by k = 1; the gaps of stages 3 and 4
    # reach the column heights below them, h_1 = 5 and h_2 = 21, so both
    # stages pair columns at lags past a column's height
    return synth(SessionConfig(
        mode="direct", targets=(1, 3),
        blocks=(DeltaBlock(Fraction(1, 2), 4, r_seq=(4, 4, 14, 46)),),
    ))


@pytest.fixture(scope="session")
def probe_large():
    # the probed stage tops out just under a million levels
    return synth(SessionConfig(
        mode="direct", targets=(1, 2),
        blocks=(DeltaBlock(Fraction(1, 2), 3, r_seq=(45, 45, 64)),),
    ))


# the benchmark's two larger probe sessions, each one delta = 1/2 block in
# direct mode; stage 4 of the first is a rotate stage, so beta != 0 there
@pytest.fixture(scope="session")
def scaled_16x16x128x16():
    return synth(SessionConfig(
        mode="direct", targets=(1, 2),
        blocks=(DeltaBlock(Fraction(1, 2), 4, r_seq=(16, 16, 128, 16)),),
    ))


@pytest.fixture(scope="session")
def scaled_32x32x256():
    return synth(SessionConfig(
        mode="direct", targets=(1, 2),
        blocks=(DeltaBlock(Fraction(1, 2), 3, r_seq=(32, 32, 256)),),
    ))
