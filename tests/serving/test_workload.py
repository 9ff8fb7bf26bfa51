"""Unit tests for the serving workload generators."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serving import (
    BurstyArrivals,
    DiurnalArrivals,
    ModelMix,
    PoissonArrivals,
    Request,
    TraceReplay,
)

MIX = ModelMix("bert-variant")
TWO = ModelMix({"model1-peng-isqed21": 1.0, "model3-efa-trans": 3.0})


class TestModelMix:
    def test_single_name_shorthand(self):
        assert ModelMix("bert-variant").names == ["bert-variant"]

    def test_weights_normalized(self):
        assert sum(w for _, w in TWO.weights) == pytest.approx(1.0)

    def test_sampling_matches_weights(self):
        import random

        rng = random.Random(7)
        draws = [TWO.sample(rng) for _ in range(4000)]
        frac = draws.count("model3-efa-trans") / len(draws)
        assert 0.70 < frac < 0.80  # nominal 0.75

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            ModelMix({})
        with pytest.raises(ValueError):
            ModelMix({"a": -1.0, "b": 2.0})


class TestPoisson:
    def test_deterministic_given_seed(self):
        a = PoissonArrivals(200, TWO, seed=5).generate(2000)
        b = PoissonArrivals(200, TWO, seed=5).generate(2000)
        assert a == b

    def test_seed_changes_stream(self):
        a = PoissonArrivals(200, MIX, seed=1).generate(2000)
        b = PoissonArrivals(200, MIX, seed=2).generate(2000)
        assert a != b

    def test_rate_approximately_respected(self):
        reqs = PoissonArrivals(500, MIX, seed=0).generate(4000)
        assert 1700 <= len(reqs) <= 2300  # 2000 expected, generous CI

    def test_sorted_with_sequential_ids(self):
        reqs = PoissonArrivals(300, MIX, seed=3).generate(1000)
        assert [r.rid for r in reqs] == list(range(len(reqs)))
        assert all(a.t_ms <= b.t_ms for a, b in zip(reqs, reqs[1:]))
        assert all(0 <= r.t_ms < 1000 for r in reqs)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0, MIX)

    @pytest.mark.parametrize("qps", [math.inf, math.nan])
    def test_rejects_nonfinite_rate(self, qps):
        """Regression: inf never advanced time (expovariate(inf) == 0)
        and NaN slipped past ``qps <= 0`` into an empty stream."""
        with pytest.raises(ValueError, match="qps must be finite"):
            PoissonArrivals(qps, MIX)


class TestBursty:
    def test_deterministic_and_bounded(self):
        a = BurstyArrivals(400, MIX, seed=9).generate(3000)
        assert a == BurstyArrivals(400, MIX, seed=9).generate(3000)
        assert all(0 <= r.t_ms < 3000 for r in a)

    def test_long_run_average_rate(self):
        reqs = BurstyArrivals(400, MIX, seed=0, dwell_ms=50).generate(20000)
        assert 6400 <= len(reqs) <= 9600  # 8000 expected

    def test_burst_rate_solves_average(self):
        gen = BurstyArrivals(100, MIX, burst_factor=4, burst_fraction=0.2)
        avg = 0.8 * gen.quiet_qps + 0.2 * gen.burst_qps
        assert avg == pytest.approx(100)
        assert gen.burst_qps == pytest.approx(4 * gen.quiet_qps)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BurstyArrivals(100, MIX, burst_factor=0.5)
        with pytest.raises(ValueError):
            BurstyArrivals(100, MIX, burst_fraction=1.0)

    @pytest.mark.parametrize("kwargs", [
        {"qps": math.inf}, {"qps": math.nan},
        {"burst_factor": math.inf}, {"dwell_ms": math.nan},
    ])
    def test_rejects_nonfinite_parameters(self, kwargs):
        params = {"qps": 100.0, **kwargs}
        with pytest.raises(ValueError, match="must be finite"):
            BurstyArrivals(mix=MIX, **params)


class TestDiurnal:
    def test_deterministic(self):
        a = DiurnalArrivals(300, MIX, seed=2).generate(1000)
        assert a == DiurnalArrivals(300, MIX, seed=2).generate(1000)

    def test_rate_shape(self):
        gen = DiurnalArrivals(100, MIX, period_ms=1000, floor=0.1)
        assert gen.rate_qps(0) == pytest.approx(10)       # valley = floor
        assert gen.rate_qps(500) == pytest.approx(100)    # mid-period peak
        for t in range(0, 1000, 50):
            assert 10 - 1e-9 <= gen.rate_qps(t) <= 100 + 1e-9

    @pytest.mark.parametrize("kwargs", [
        {"peak_qps": math.inf}, {"peak_qps": math.nan},
        {"period_ms": math.nan}, {"period_ms": math.inf},
    ])
    def test_rejects_nonfinite_parameters(self, kwargs):
        params = {"peak_qps": 100.0, **kwargs}
        with pytest.raises(ValueError, match="must be finite"):
            DiurnalArrivals(mix=MIX, **params)

    def test_peak_heavier_than_valley(self):
        reqs = DiurnalArrivals(400, MIX, seed=0, period_ms=2000).generate(2000)
        mid = [r for r in reqs if 500 <= r.t_ms < 1500]
        edge = [r for r in reqs if r.t_ms < 500 or r.t_ms >= 1500]
        assert len(mid) > 2 * len(edge)


class TestTraceReplay:
    def test_replay_sorts_and_ids(self):
        trace = [(5.0, "b"), (1.0, "a"), (3.0, "c")]
        reqs = TraceReplay(trace).generate()
        assert reqs == [Request(0, 1.0, "a"), Request(1, 3.0, "c"),
                        Request(2, 5.0, "b")]

    def test_duration_filter(self):
        reqs = TraceReplay([(1.0, "a"), (10.0, "b")]).generate(5.0)
        assert [r.model for r in reqs] == ["a"]

    def test_default_duration_is_unbounded(self):
        assert math.isinf(float("inf"))
        assert len(TraceReplay([(1e9, "a")]).generate()) == 1

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            TraceReplay([(-1.0, "a")])

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_nonfinite_time_rejected(self, t):
        """Regression: a NaN timestamp compares false both ways and
        broke the engines' stable-sort merge of the arrival stream."""
        with pytest.raises(ValueError, match="finite"):
            TraceReplay([(1.0, "a"), (t, "a")])

    def test_nan_duration_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            TraceReplay([(1.0, "a")]).generate(math.nan)


#: One generator per rate-driven arrival process.
ARRIVALS = {
    "poisson": lambda: PoissonArrivals(100.0, MIX, seed=1),
    "bursty": lambda: BurstyArrivals(100.0, MIX, seed=1),
    "diurnal": lambda: DiurnalArrivals(100.0, MIX, seed=1),
}


class TestDurationValidation:
    """``generate`` rejects a horizon that is not positive and finite."""

    @pytest.mark.parametrize("duration", [-5.0, 0.0, math.nan])
    @pytest.mark.parametrize("kind", sorted(ARRIVALS))
    def test_empty_horizon_rejected(self, kind, duration):
        """Regression: these returned a plausible empty stream."""
        with pytest.raises(ValueError, match="positive and finite"):
            ARRIVALS[kind]().generate(duration)

    def test_infinite_horizon_rejected(self):
        """Regression: an infinite horizon drew arrivals forever.  The
        calls run in a child process with a timeout and a 1 GiB address
        space, so a regression fails this test instead of hanging the
        suite or exhausting the host's memory."""
        code = "\n".join([
            "import math, resource",
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))",
            "from repro.serving import (BurstyArrivals, DiurnalArrivals,",
            "                           ModelMix, PoissonArrivals)",
            "mix = ModelMix('bert-variant')",
            "for cls in (PoissonArrivals, BurstyArrivals, DiurnalArrivals):",
            "    try:",
            "        cls(100.0, mix, seed=1).generate(math.inf)",
            "    except ValueError as exc:",
            "        print(cls.__name__, exc)",
        ])
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert [line.split()[0] for line in lines] == [
            "PoissonArrivals", "BurstyArrivals", "DiurnalArrivals"]
        assert all("positive and finite" in line for line in lines)


class TestDegenerateDistributions:
    """Regression: degenerate (zero-variance / single-token) parameters
    must sample cleanly, never ZeroDivisionError (or worse)."""

    def test_zero_variance_uniform(self):
        import random

        from repro.serving import LengthSampler

        sampler = LengthSampler("uniform", 5, 5)
        rng = random.Random(0)
        assert all(sampler.sample(rng) == 5 for _ in range(50))

    def test_single_token_fixed(self):
        import random

        from repro.serving import LengthSampler

        sampler = LengthSampler("fixed", 1)
        assert sampler.sample(random.Random(0)) == 1

    def test_geometric_zero_mean_collapses_to_fixed(self):
        import random

        from repro.serving import LengthSampler

        sampler = LengthSampler("geometric", 4, 64, mean_extra=0.0)
        rng = random.Random(3)
        assert all(sampler.sample(rng) == 4 for _ in range(50))

    def test_geometric_zero_mean_parses(self):
        from repro.serving import LengthSampler

        sampler = LengthSampler.parse("geo:7:0")
        import random

        assert sampler.sample(random.Random(1)) == 7

    def test_geometric_single_token_bounds(self):
        import random

        from repro.serving import LengthSampler

        sampler = LengthSampler("geometric", 1, 1, mean_extra=8.0)
        rng = random.Random(9)
        assert all(sampler.sample(rng) == 1 for _ in range(50))

    def test_negative_mean_still_rejected(self):
        from repro.serving import LengthSampler

        with pytest.raises(ValueError, match="mean_extra"):
            LengthSampler("geometric", 4, mean_extra=-1.0)

    def test_bursty_zero_dwell_named_error(self):
        """A zero dwell used to die with ZeroDivisionError inside
        expovariate at generate() time; now it's a named ValueError
        at construction."""
        with pytest.raises(ValueError, match="dwell_ms"):
            BurstyArrivals(100, MIX, dwell_ms=0.0)

    def test_bursty_unit_burst_factor_is_degenerate_but_fine(self):
        reqs = BurstyArrivals(200, MIX, seed=1,
                              burst_factor=1.0).generate(500)
        assert reqs
        times = [r.t_ms for r in reqs]
        assert times == sorted(times)

    def test_diurnal_zero_floor(self):
        reqs = DiurnalArrivals(300, MIX, seed=2, floor=0.0).generate(1000)
        assert reqs

    def test_attach_lengths_with_degenerate_samplers(self):
        from repro.serving import (LengthSampler,
                                   attach_generation_lengths)

        arrivals = PoissonArrivals(100, TWO, seed=4).generate(200)
        reqs = attach_generation_lengths(
            arrivals,
            LengthSampler("uniform", 3, 3),
            LengthSampler("geometric", 1, 1, mean_extra=0.0))
        assert all(r.prompt_tokens == 3 and r.output_tokens == 1
                   for r in reqs)
