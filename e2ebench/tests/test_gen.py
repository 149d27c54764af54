import pytest

import gen
import workloads


def test_job_mix_same_seed_same_jobs_other_seed_other_jobs():
    catalogue = workloads.BATCH_CATALOGUE
    a = gen.job_mix(catalogue, 100, 1, "batch")
    assert a == gen.job_mix(catalogue, 100, 1, "batch")
    assert a != gen.job_mix(catalogue, 100, 2, "batch")


def test_job_mix_keeps_the_catalogue_and_the_repeat_share():
    catalogue = workloads.BATCH_CATALOGUE
    for seed in range(5):
        mix = gen.job_mix(catalogue, 100, seed, "batch")
        assert set(mix) == set(catalogue)
        assert gen.repeat_share(mix) == pytest.approx(0.4)


def test_zipf_repeats_favour_the_top_of_the_ranking():
    ranking = [f"j{k}" for k in range(20)]
    counts = gen.zipf_counts(ranking, 500)
    assert sum(counts.values()) == 500
    assert counts["j0"] > 10 * counts["j19"]
    assert all(counts[a] >= counts[b] for a, b in zip(ranking, ranking[1:]))


def test_seeds_change_the_order_not_the_work():
    catalogue = workloads.BATCH_CATALOGUE
    a = gen.job_mix(catalogue, 100, 1, "batch")
    b = gen.job_mix(catalogue, 100, 2, "batch")
    assert sorted(a) == sorted(b) and a != b


def test_arrivals_and_rounds_are_seeded():
    a = gen.poisson_arrivals(50, 10.0, 1, "serve")
    assert a == gen.poisson_arrivals(50, 10.0, 1, "serve")
    assert a != gen.poisson_arrivals(50, 10.0, 2, "serve")
    assert all(0.0 <= x <= y <= 10.0 for x, y in zip(a, a[1:]))
    r = gen.round_orders(gen.FAST_TABLE1, 3, 1)
    assert r == gen.round_orders(gen.FAST_TABLE1, 3, 1)
    assert r != gen.round_orders(gen.FAST_TABLE1, 3, 2)


def test_serve_plan_is_seeded_and_its_inputs_are_not():
    entries1, due1 = workloads.serve_plan(1, 10)
    entries2, due2 = workloads.serve_plan(2, 10)
    assert (entries1, due1) == workloads.serve_plan(1, 10)
    assert entries1 != entries2 and due1 != due2
    assert set(entries1) == set(entries2)


def test_dc_plane_pla_is_seeded():
    registry = pytest.importorskip("repro.bench.registry")
    import oracle
    base = oracle.WireReference(registry.benchmark("f51m").to_wire())
    one = gen.dc_plane_pla(base, 0.1, gen.rng_for(1, "dc", "f51m", 0.1))
    assert one == gen.dc_plane_pla(base, 0.1,
                                   gen.rng_for(1, "dc", "f51m", 0.1))
    assert one != gen.dc_plane_pla(base, 0.1,
                                   gen.rng_for(2, "dc", "f51m", 0.1))
