"""Unit tests for the LUT function units."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fixedpoint import (
    ErfLUT,
    ExpLUT,
    FunctionLUT,
    ReciprocalLUT,
    RsqrtLUT,
    lut_resource_estimate,
)


class TestFunctionLUT:
    def test_entries_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            FunctionLUT(fn=np.exp, lo=0, hi=1, entries=100)

    def test_interval_must_be_nonempty(self):
        with pytest.raises(ValueError):
            FunctionLUT(fn=np.exp, lo=1.0, hi=1.0)

    def test_exact_at_sample_points(self):
        lut = FunctionLUT(fn=lambda x: x * 2, lo=0, hi=1, entries=16)
        xs = np.linspace(0, 1, 16)
        assert np.allclose(lut(xs), xs * 2)

    def test_clamps_out_of_range(self):
        lut = FunctionLUT(fn=lambda x: x, lo=0.0, hi=1.0, entries=16)
        assert lut(np.array([-5.0]))[0] == 0.0
        assert lut(np.array([5.0]))[0] == 1.0

    def test_interpolation_better_than_nearest(self):
        near = FunctionLUT(fn=np.exp, lo=-4, hi=0, entries=64)
        interp = FunctionLUT(fn=np.exp, lo=-4, hi=0, entries=64,
                             interpolate=True)
        assert interp.max_error() <= near.max_error()

    def test_vectorized_shapes(self):
        lut = ExpLUT()
        x = np.zeros((4, 7))
        assert lut(x).shape == (4, 7)

    @given(st.integers(4, 10))
    def test_error_shrinks_with_entries(self, log_entries):
        small = FunctionLUT(fn=np.exp, lo=-8, hi=0, entries=2 ** log_entries)
        big = FunctionLUT(fn=np.exp, lo=-8, hi=0,
                          entries=2 ** (log_entries + 1))
        assert big.max_error() <= small.max_error() * 1.01


class TestSpecificLUTs:
    def test_exp_lut_accuracy_softmax_grade(self):
        """512-entry exp table must stay under half an 8-bit prob LSB."""
        lut = ExpLUT(entries=512)
        assert lut.max_error() < 1 / 64

    def test_exp_lut_at_zero(self):
        assert ExpLUT()(np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-6)

    def test_reciprocal_requires_positive_lo(self):
        with pytest.raises(ValueError):
            ReciprocalLUT(lo=0.0)

    def test_reciprocal_accuracy(self):
        lut = ReciprocalLUT(lo=1.0, hi=64.0, entries=1024)
        xs = np.linspace(1.0, 64.0, 999)
        assert np.max(np.abs(lut(xs) - 1 / xs)) < 0.01

    def test_rsqrt_requires_positive_lo(self):
        with pytest.raises(ValueError):
            RsqrtLUT(lo=-1.0)

    def test_rsqrt_accuracy_near_one(self):
        lut = RsqrtLUT(lo=0.5, hi=4.0, entries=1024)
        xs = np.linspace(0.5, 4.0, 777)
        assert np.max(np.abs(lut(xs) - 1 / np.sqrt(xs))) < 5e-3

    def test_erf_lut_symmetry(self):
        lut = ErfLUT(entries=512)
        xs = np.linspace(-3, 3, 101)
        assert np.allclose(lut(xs), -lut(-xs), atol=2e-2)


class TestResourceEstimate:
    def test_small_table_uses_lutram_not_bram(self):
        lut = FunctionLUT(fn=np.exp, lo=-1, hi=0, entries=64)
        res = lut_resource_estimate(lut, value_bits=16)
        assert res["brams"] == 0
        assert res["luts"] > 0

    def test_huge_table_spills_to_bram(self):
        lut = FunctionLUT(fn=np.exp, lo=-1, hi=0, entries=4096)
        res = lut_resource_estimate(lut, value_bits=18)
        assert res["brams"] >= 1

    def test_interpolation_costs_a_dsp(self):
        base = FunctionLUT(fn=np.exp, lo=-1, hi=0, entries=64)
        interp = FunctionLUT(fn=np.exp, lo=-1, hi=0, entries=64,
                             interpolate=True)
        assert lut_resource_estimate(base)["dsps"] == 0
        assert lut_resource_estimate(interp)["dsps"] == 1


class TestLazyTables:
    """Tables are built on first use, bit-identical to eager tables."""

    @pytest.mark.parametrize("make,fn", [
        (lambda: ExpLUT(), np.exp),
        (lambda: ReciprocalLUT(), lambda x: 1.0 / x),
        (lambda: RsqrtLUT(), lambda x: 1.0 / np.sqrt(x)),
        (lambda: ErfLUT(entries=1024), None),
        (lambda: ErfLUT(half_range=3.0, entries=256, interpolate=False),
         None),
    ], ids=["exp", "recip", "rsqrt", "erf-1024", "erf-256-nearest"])
    def test_table_equals_eager_build(self, make, fn):
        if fn is None:
            from scipy.special import erf as fn
        lut = make()
        assert lut._values is None  # nothing built at construction
        eager = np.asarray(fn(np.linspace(lut.lo, lut.hi, lut.entries)),
                           dtype=np.float64)
        xs = np.linspace(lut.lo - 1.0, lut.hi + 1.0, 333)
        out = lut(xs)
        assert np.array_equal(lut._table, eager)
        assert lut._table is lut._table  # built once, then cached
        fresh = make()
        assert np.array_equal(out, fresh(xs))

    def test_max_error_builds_the_table(self):
        lut = ExpLUT(entries=64)
        assert lut._values is None
        assert 0.0 < lut.max_error() < 0.2
        assert lut._values is not None

    def test_default_accelerator_leaves_scipy_unimported(self):
        code = ("import sys\n"
                "from repro.experiments.common import default_accelerator\n"
                "default_accelerator()\n"
                "print('scipy.special' in sys.modules)\n")
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=120, check=True)
        assert proc.stdout.strip() == "False"
