"""The generator contract: inputs are a pure function of (seed, workload, index)."""

from bench import loadgen

KEYWORDS = [f"keyword {n}" for n in range(200)]
STRUCTURED = [f"make:m{n}" for n in range(30)]
TABLES = [f"col{n} col{n + 1}" for n in range(12)]


def mixed(seed: int) -> loadgen.MixedStream:
    return loadgen.MixedStream(seed, "federated_mixed", KEYWORDS, STRUCTURED, TABLES)


def test_same_seed_same_inputs_different_seed_different_inputs():
    first = loadgen.inputs_sha256([r.text for r in mixed(5).requests(300)])
    again = loadgen.inputs_sha256([r.text for r in mixed(5).requests(300)])
    other = loadgen.inputs_sha256([r.text for r in mixed(6).requests(300)])
    assert first == again
    assert first != other


def test_request_regenerated_alone_equals_request_of_the_full_stream():
    stream = mixed(11).requests(200)
    for index in (0, 1, 57, 199):
        assert mixed(11).request(index) == stream[index]
    keywords = loadgen.KeywordStream(11, "serve_miss", KEYWORDS)
    full = keywords.requests(100)
    assert loadgen.KeywordStream(11, "serve_miss", KEYWORDS).request(42) == full[42]


def test_streams_of_different_workloads_are_independent():
    hit = loadgen.KeywordStream(3, "serve_hit", KEYWORDS).requests(50)
    miss = loadgen.KeywordStream(3, "serve_miss", KEYWORDS).requests(50)
    assert hit != miss


def test_mode_mix_and_live_flag():
    stream = mixed(2).requests(4000)
    share = {
        mode: sum(r.mode == mode for r in stream) / len(stream)
        for mode in (loadgen.MODE_KEYWORD, loadgen.MODE_STRUCTURED, loadgen.MODE_TABLE)
    }
    assert abs(share[loadgen.MODE_KEYWORD] - 0.60) < 0.03
    assert abs(share[loadgen.MODE_STRUCTURED] - 0.25) < 0.03
    assert abs(share[loadgen.MODE_TABLE] - 0.15) < 0.03
    assert all(r.live == (r.mode == loadgen.MODE_STRUCTURED) for r in stream)


def test_zipf_head_is_heavier_than_tail():
    ranks = loadgen.ZipfRanks(100)
    draws = [ranks.rank(loadgen.unit(1, "w", "rank", i)) for i in range(5000)]
    assert draws.count(0) > draws.count(1) > draws.count(10)
    assert 0 <= min(draws) and max(draws) < 100
    assert ranks.rank(0.0) == 0 and ranks.rank(0.999999999) == 99


def test_shuffled_is_a_permutation_fixed_by_its_coordinates():
    items = list(range(40))
    first = loadgen.shuffled(9, "surface_cold", "sites", items)
    assert sorted(first) == items and first != items
    assert first == loadgen.shuffled(9, "surface_cold", "sites", items)
    assert first != loadgen.shuffled(10, "surface_cold", "sites", items)
