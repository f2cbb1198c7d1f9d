"""Load-harness unit tests: seeded arrivals and open-loop accounting.

All tier-1: the server runs on a virtual clock with an injected constant
service time, so a full load run is pure simulation — no wall sleeps.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.infer import engine_for
from repro.serve import LoadProfile, TrafficMix, generate_arrivals, run_load
from tests.serve.conftest import make_registry, make_server

MIXES = [
    TrafficMix("cnn0/wt@0.5", (3, 8, 8), weight=2.0),
    TrafficMix("cnn1/wt@0.5", (3, 8, 8), weight=1.0),
]


class TestArrivals:
    def test_deterministic_for_a_seed(self):
        profile = LoadProfile(mixes=MIXES, n_requests=50, seed=7)
        assert generate_arrivals(profile) == generate_arrivals(profile)
        different = LoadProfile(mixes=MIXES, n_requests=50, seed=8)
        assert generate_arrivals(profile) != generate_arrivals(different)

    def test_lognormal_mean_matches_configuration(self):
        profile = LoadProfile(
            mixes=MIXES, n_requests=20000, mean_interarrival=0.002, seed=0
        )
        arrivals = generate_arrivals(profile)
        gaps = np.diff([0.0] + [a.t for a in arrivals])
        # mu = ln(mean) - sigma^2/2 makes the configured mean the true one.
        assert np.mean(gaps) == pytest.approx(0.002, rel=0.05)
        # Heavy tail: the max gap dwarfs the mean.
        assert gaps.max() > 10 * np.mean(gaps)

    def test_mix_weights_respected(self):
        profile = LoadProfile(mixes=MIXES, n_requests=6000, seed=1)
        arrivals = generate_arrivals(profile)
        share = sum(a.mix is MIXES[0] for a in arrivals) / len(arrivals)
        assert share == pytest.approx(2 / 3, abs=0.03)

    def test_rows_bounded_by_max_rows(self):
        profile = LoadProfile(mixes=MIXES, n_requests=500, max_rows=3, seed=2)
        rows = {a.rows for a in generate_arrivals(profile)}
        assert rows == {1, 2, 3}

    def test_profile_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            LoadProfile(mixes=[])
        with pytest.raises(ValueError, match="n_requests"):
            LoadProfile(mixes=MIXES, n_requests=0)
        with pytest.raises(ValueError, match="mean_interarrival"):
            LoadProfile(mixes=MIXES, mean_interarrival=0.0)


class TestRunLoad:
    def run(self, n_requests=80, seed=0, **server_kw):
        registry = make_registry(n_models=2)
        server = make_server(registry, **server_kw)
        profile = LoadProfile(mixes=MIXES, n_requests=n_requests, seed=seed)
        report, records = run_load(server, profile, keep_responses=True)
        return registry, server, report, records

    def test_zero_lost_and_accounting_adds_up(self):
        _, _, report, _ = self.run()
        assert report.lost == 0
        assert report.n_requests == 80
        assert (
            report.ok + report.shed + report.deadline_miss + report.errors == 80
        )
        assert report.batches > 0
        assert sum(report.occupancy_hist.values()) == report.batches
        assert set(report.per_model) == {"cnn0/wt@0.5", "cnn1/wt@0.5"}
        assert sum(report.per_model.values()) == 80

    def test_coalescing_happens_under_bursty_arrivals(self):
        _, _, report, _ = self.run()
        # Heavy-tail bursts + an 8-row batch limit: strictly fewer batches
        # than requests, mean occupancy above one request's worth of rows.
        assert report.batches < 80
        assert report.occupancy_max > 1

    def test_latency_percentiles_ordered(self):
        _, _, report, _ = self.run()
        assert 0 < report.latency_p50_s <= report.latency_p99_s
        assert report.throughput_rps > 0
        d = report.to_dict()
        assert d["latency_p50_ms"] == round(1e3 * report.latency_p50_s, 4)
        assert d["lost"] == 0

    def test_served_responses_bitwise_match_direct_engine(self):
        registry, _, _, records = self.run()
        checked = 0
        for arrival, images, response in records:
            if response.status != "ok":
                continue
            direct = engine_for(registry.model(arrival.mix.key)).logits(images)
            np.testing.assert_array_equal(response.value, direct)
            checked += 1
        assert checked > 0

    def test_identical_seeds_identical_outcomes(self):
        _, _, first, first_records = self.run(seed=11)
        _, _, second, second_records = self.run(seed=11)
        assert first.to_dict() == second.to_dict()
        for (_, a_img, a_resp), (_, b_img, b_resp) in zip(
            first_records, second_records
        ):
            np.testing.assert_array_equal(a_img, b_img)
            assert a_resp.status == b_resp.status
            assert a_resp.latency == b_resp.latency

    def test_latency_counts_from_the_scheduled_arrival(self):
        """A batch that holds the clock past later arrivals delays their
        submits; the report charges that wait, the responses' own
        latencies (from submit) do not."""
        server = make_server(make_registry(n_models=2), service_s=0.02)
        profile = LoadProfile(
            mixes=MIXES, n_requests=60, mean_interarrival=0.001, sigma=0.0
        )
        report, records = run_load(server, profile, keep_responses=True)
        own = [r.latency for _, _, r in records if r.status == "ok"]
        assert report.ok == len(own) > 0
        assert report.latency_p99_s > np.percentile(own, 99)
