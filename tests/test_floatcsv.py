"""The array formatter behind the CSV export prints what ``"%.17g"`` prints."""

import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from ifsmeasure._floatcsv import csv_bytes

SRC = Path(__file__).resolve().parents[1] / "src"


def _reference(table):
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return ((row * len(table)) % tuple(table.ravel().tolist())).encode()


def _assert_prints_as_percent(values, n_cols=1):
    table = np.asarray(values, dtype=np.float64).reshape(-1, n_cols)
    got, want = csv_bytes(table), _reference(table)
    if got != want:
        for v in table.ravel():
            one = np.array([[v]])
            assert csv_bytes(one) == _reference(one), repr(float(v))
        assert got == want


def _uniform(rng, n):
    return rng.uniform(-1.0, 1.0, n)


def _log_normal(rng, n):
    # sigma 60 in the natural log: 1e-26 to 1e26 within one sigma
    return rng.choice([-1.0, 1.0], n) * np.exp(60.0 * rng.standard_normal(n))


def _wide(rng, n):
    """Every decimal exponent alike, out to both ends of the fast range."""
    return (rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-300, 301, n)
            * rng.choice([-1.0, 1.0], n))


def _dyadic(rng, n):
    return (rng.integers(1, 2**53, n) * 2.0 ** rng.integers(-80, 20, n)
            * rng.choice([-1.0, 1.0], n))


def _ties(rng, n):
    """N + j/2^k with 18 - k integer digits: 18 significant digits, the last a 5."""
    k = rng.integers(2, 13, n)
    low, high = 10.0 ** (17 - k), np.minimum(10.0 ** (18 - k), 2.0 ** (53 - k))
    whole = np.floor(rng.uniform(low, high))
    odd = 2 * rng.integers(0, 2 ** (k - 1)) + 1
    return (whole + odd / 2.0 ** k) * rng.choice([-1.0, 1.0], n)


def _decades():
    """Powers of ten, the carries into them and the notation switches."""
    p = 10.0 ** np.arange(-300, 301)
    nines = np.array([float(f"9.9999999999999999e{e}") for e in range(-301, 300)])
    switch = np.array([1e-5, 1e-4, 1e16, 1e17])
    out = []
    for v in (p, nines, switch):
        down, up = np.nextafter(v, 0.0), np.nextafter(v, np.inf)
        out += [v, down, up, np.nextafter(down, 0.0), np.nextafter(up, np.inf)]
    out = np.concatenate(out)
    return np.concatenate([out, -out])


def _edges():
    tiny, big = 2.2250738585072014e-308, 1.7976931348623157e308
    v = np.array([0.0, 5e-324, tiny, np.nextafter(tiny, 0.0), 1e-300, 1e300,
                  1e-290, 1e-289, np.nextafter(1e-289, 0.0),
                  np.nextafter(1e300, np.inf), big, np.inf, np.nan])
    return np.concatenate([v, -v, np.linspace(-1.0, 1.0, 1001) * tiny])


@pytest.mark.parametrize("family,n", [(_uniform, 100_000), (_log_normal, 50_000),
                                      (_wide, 50_000), (_dyadic, 50_000),
                                      (_ties, 10_000)],
                         ids=["uniform", "log-normal", "wide", "dyadic", "ties"])
def test_generated_values_print_as_percent(family, n):
    _assert_prints_as_percent(family(np.random.default_rng(0), n))


def test_tie_family_holds_exact_ties():
    for v in _ties(np.random.default_rng(1), 200):
        digits = Decimal(float(v)).normalize().as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5


def test_decades_edges_and_non_finite_print_as_percent():
    _assert_prints_as_percent(_decades())
    _assert_prints_as_percent(_edges())


@pytest.mark.parametrize("n_cols", [1, 2, 3, 5])
def test_separators_follow_the_columns(n_cols):
    rng = np.random.default_rng(n_cols)
    mixed = np.concatenate([_uniform(rng, 600), _wide(rng, 600),
                            _ties(rng, 60), _edges()[:15],
                            np.zeros(300), -np.zeros(300)])
    values = rng.permutation(mixed)
    _assert_prints_as_percent(values[:len(values) // n_cols * n_cols], n_cols)


def test_start_up_neither_loads_the_formatter_nor_builds_its_tables():
    code = ("import sys, ifsmeasure.cli; print('ifsmeasure._floatcsv' in sys.modules); "
            "import ifsmeasure._floatcsv as f; "
            "print(f._pow10.cache_info().currsize, f._tables.cache_info().currsize)")
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.split() == ["False", "0", "0"]


@pytest.mark.campaign
@pytest.mark.parametrize("seed", range(4))
def test_campaign_millions_of_values(seed):
    # export-sized chunks, 24,576 values each
    rng = np.random.default_rng(100 + seed)
    for family, n in ((_uniform, 400_000), (_log_normal, 400_000),
                      (_wide, 400_000), (_dyadic, 400_000), (_ties, 100_000)):
        values = family(rng, n)
        for i in range(0, n, 24_576):
            _assert_prints_as_percent(values[i:i + 24_576])
    _assert_prints_as_percent(_decades())
