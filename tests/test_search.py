"""Minimum-volume searches: exhaustive branch and bound, local walk."""

import pytest

from bitrades import (
    HammingParams,
    SearchConfig,
    SearchResult,
    alt_bitrade,
    find_spherical,
    lift_to_perfect,
    min_perfect_volume,
    verify_perfect,
    verify_spherical,
)


def test_h33_spherical_minimum_is_three():
    result = find_spherical(SearchConfig(HammingParams(3, 3)))
    assert result.proven_minimum
    assert result.volume == 3
    assert verify_spherical(result.best).passed
    assert result.nodes_explored > 0
    assert result.wall_time >= 0


def test_h33_without_symmetry_breaking_agrees():
    seeded = find_spherical(SearchConfig(HammingParams(3, 3)))
    plain = find_spherical(
        SearchConfig(HammingParams(3, 3), symmetry_breaking=False)
    )
    assert plain.proven_minimum
    assert plain.volume == seeded.volume == 3
    # dropping the seeding multiplies the explored tree
    assert plain.nodes_explored > seeded.nodes_explored


def test_h43_perfect_minimum_is_six():
    result = min_perfect_volume(SearchConfig(HammingParams(4, 3)))
    assert result.proven_minimum
    assert result.volume == 6
    assert verify_perfect(result.best).passed
    # the minimum matches the lifted three-symbol construction
    assert result.volume == lift_to_perfect(alt_bitrade(3)).volume


def test_h43_no_perfect_bitrade_below_six():
    result = min_perfect_volume(
        SearchConfig(HammingParams(4, 3), volume_upper_bound=5)
    )
    assert result.proven_minimum
    assert result.best is None
    assert result.volume is None


def test_h43_upper_bound_six_still_finds_it():
    result = min_perfect_volume(
        SearchConfig(HammingParams(4, 3), volume_upper_bound=6)
    )
    assert result.proven_minimum
    assert result.volume == 6


def test_exhaustive_runs_are_deterministic():
    cfg = SearchConfig(HammingParams(4, 3))
    a = min_perfect_volume(cfg)
    b = min_perfect_volume(cfg)
    assert a.best == b.best
    assert a.nodes_explored == b.nodes_explored


def test_budget_exhaustion_is_reported_honestly():
    cfg = SearchConfig(HammingParams(5, 5), time_budget=0.3)
    result = find_spherical(cfg)
    assert not result.proven_minimum
    assert result.nodes_explored > 0


def test_parameter_feasibility_errors():
    with pytest.raises(ValueError, match=r"n must be 1 \(mod q\)"):
        min_perfect_volume(SearchConfig(HammingParams(5, 3)))
    with pytest.raises(ValueError, match="multiple of q"):
        find_spherical(SearchConfig(HammingParams(4, 3)))


def test_exhaustive_ceiling():
    with pytest.raises(ValueError, match="ceiling is 3"):
        min_perfect_volume(SearchConfig(HammingParams(13, 3)))


def test_config_validation():
    p = HammingParams(3, 3)
    with pytest.raises(ValueError, match="mode"):
        SearchConfig(p, mode="annealing")
    with pytest.raises(ValueError):
        SearchConfig(p, volume_upper_bound=-1)
    with pytest.raises(ValueError, match="time_budget"):
        SearchConfig(p, time_budget=0)
    with pytest.raises(ValueError, match="move_budget"):
        SearchConfig(p, move_budget=0)


def test_upper_bound_zero_means_nothing_fits():
    result = find_spherical(
        SearchConfig(HammingParams(3, 3), volume_upper_bound=0)
    )
    assert result.proven_minimum
    assert result.best is None


def test_local_walk_finds_h33_minimum():
    cfg = SearchConfig(HammingParams(3, 3), mode="local", seed=0, move_budget=4000)
    result = find_spherical(cfg)
    assert not result.proven_minimum
    assert result.volume == 3
    assert verify_spherical(result.best).passed


def test_local_walk_is_deterministic():
    cfg = SearchConfig(HammingParams(3, 3), mode="local", seed=1, move_budget=4000)
    a = find_spherical(cfg)
    b = find_spherical(cfg)
    assert a.best == b.best
    assert a.nodes_explored == b.nodes_explored


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_local_walk_finds_h43_perfect(seed):
    cfg = SearchConfig(
        HammingParams(4, 3), mode="local", seed=seed, move_budget=20000
    )
    result = min_perfect_volume(cfg)
    assert result.volume == 6
    assert verify_perfect(result.best).passed


def test_local_walk_records_its_start():
    start = alt_bitrade(5)
    cfg = SearchConfig(
        HammingParams(5, 5), mode="local", seed=3, move_budget=100, start=start
    )
    result = find_spherical(cfg)
    assert result.best is not None
    assert result.volume <= start.volume
    assert not result.proven_minimum


def test_local_start_must_match_parameters():
    with pytest.raises(ValueError, match="does not match"):
        find_spherical(
            SearchConfig(
                HammingParams(3, 3), mode="local", start=alt_bitrade(4)
            )
        )


def test_result_volume_property():
    empty = SearchResult(None, True, 5, 0.1)
    assert empty.volume is None


# Node counts and a walk recorded before the searches moved onto the shared
# integer kernel: candidates are still tried in sorted id order, so neither
# the trees nor the walks may change.
PINNED_NODE_COUNTS = [
    (find_spherical, HammingParams(3, 3), None, 20),
    (find_spherical, HammingParams(3, 3), 2, 14),
    (min_perfect_volume, HammingParams(4, 3), None, 224),
    (min_perfect_volume, HammingParams(4, 3), 5, 221),
    (min_perfect_volume, HammingParams(5, 4), 8, 771_085),
]


@pytest.mark.parametrize("search,params,bound,nodes", PINNED_NODE_COUNTS)
def test_exhaustive_node_counts_are_pinned(search, params, bound, nodes):
    result = search(SearchConfig(params, volume_upper_bound=bound))
    assert result.proven_minimum
    assert result.nodes_explored == nodes


def test_seeded_walk_is_pinned():
    cfg = SearchConfig(HammingParams(3, 3), mode="local", seed=1, move_budget=4000)
    result = find_spherical(cfg)
    assert result.nodes_explored == 4000
    assert result.best.sorted_parts() == (
        [(0, 1, 1), (1, 0, 0), (2, 2, 2)],
        [(0, 0, 2), (1, 2, 1), (2, 1, 0)],
    )
