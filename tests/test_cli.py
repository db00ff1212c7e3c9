"""End-to-end command line behaviour via main(argv)."""

import json
import time

import pytest

from bitrades import alt_bitrade, check_bitrade, lift_to_perfect, tensor_power
from bitrades.cli import main
from bitrades.serialize import dumps_json, load_bitrade, loads_json, save_bitrade


def test_construct_to_stdout(capsys):
    assert main(["construct", "--construction", "alt", "--q", "3"]) == 0
    out, err = capsys.readouterr()
    assert loads_json(out) == alt_bitrade(3)
    assert "alt bitrade in H(3, 3): kind spherical, volume 3" in err


def test_construct_to_file(tmp_path, capsys):
    path = tmp_path / "alt4.json"
    code = main(["construct", "--construction", "alt", "--q", "4", "--out", str(path)])
    assert code == 0
    out, _ = capsys.readouterr()
    assert "volume 12" in out
    assert f"wrote {path}" in out
    assert load_bitrade(path) == alt_bitrade(4)


def test_construct_text_format(tmp_path):
    path = tmp_path / "alt3.txt"
    main([
        "construct", "--construction", "alt", "--q", "3",
        "--out", str(path), "--format", "text",
    ])
    assert path.read_text().splitlines()[0] == "3 3 spherical"
    assert load_bitrade(path) == alt_bitrade(3)


def test_construct_lift_volume(capsys):
    assert main(["construct", "--construction", "lift", "--q", "3", "--r", "2"]) == 0
    out, err = capsys.readouterr()
    b = loads_json(out)
    assert b.params.n == 7
    assert b.volume == 36
    assert "volume 36" in err


def test_construct_tensor(capsys):
    assert main(["construct", "--construction", "tensor", "--q", "3", "--r", "2"]) == 0
    out, err = capsys.readouterr()
    assert loads_json(out) == tensor_power(alt_bitrade(3), 2)
    assert "tensor bitrade in H(6, 3): kind spherical, volume 18" in err


def test_construct_mds_defaults_to_swap(capsys):
    assert main(["construct", "--construction", "mds", "--q", "4"]) == 0
    out, _ = capsys.readouterr()
    assert loads_json(out).volume == 12


def test_construct_rejects_non_prime_power(capsys):
    assert main(["construct", "--construction", "mds", "--q", "6"]) == 2
    _, err = capsys.readouterr()
    assert "not a prime power" in err


def test_construct_flag_combinations(capsys):
    assert main([
        "construct", "--construction", "alt", "--q", "3", "--variant", "swap",
    ]) == 2
    _, err = capsys.readouterr()
    assert "--variant applies only to the mds construction" in err
    assert main(["construct", "--construction", "alt", "--q", "3", "--r", "2"]) == 2
    _, err = capsys.readouterr()
    assert "--r applies only to the tensor and lift constructions" in err


@pytest.mark.parametrize("construction", ["tensor", "lift"])
@pytest.mark.parametrize("r", ["0", "-4"])
def test_construct_refuses_tensor_depth_below_one(construction, r, capsys):
    assert main(["construct", "--construction", construction, "--q", "3", "--r", r]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"--r must be at least 1, got {r}" in err


@pytest.mark.parametrize("args", [("alt", "--q", "11"), ("tensor", "--q", "5", "--r", "4")])
def test_construct_refuses_oversized_builds_at_once(args, capsys):
    started = time.perf_counter()
    assert main(["construct", "--construction", *args]) == 2
    assert time.perf_counter() - started < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: refusing ")
    assert err.endswith(": too many words in each part; the ceiling is 2**19\n")


def test_verify_passes_on_good_file(tmp_path, capsys):
    path = tmp_path / "lift.json"
    save_bitrade(lift_to_perfect(alt_bitrade(3)), path)
    assert main(["verify", "--in", str(path)]) == 0
    out, _ = capsys.readouterr()
    assert "definition: PASS" in out
    assert "eigen (lambda = -1): PASS" in out
    assert "dist2: PASS" in out
    assert "delsarte (m = 3): PASS" in out


def test_verify_subset_of_checks(tmp_path, capsys):
    path = tmp_path / "alt.json"
    save_bitrade(alt_bitrade(3), path)
    assert main(["verify", "--in", str(path), "--checks", "eigen"]) == 0
    out, _ = capsys.readouterr()
    assert "eigen (lambda = 0): PASS" in out
    assert "definition" not in out


def test_verify_fails_on_corrupted_file(tmp_path, capsys):
    b = alt_bitrade(3)
    doc = json.loads(dumps_json(b))
    doc["t1"] = doc["t1"][:-1]  # drop one word
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--in", str(path)]) == 1
    out, _ = capsys.readouterr()
    assert "FAIL" in out
    assert "witness:" in out


def test_verify_unknown_check(tmp_path, capsys):
    path = tmp_path / "alt.json"
    save_bitrade(alt_bitrade(3), path)
    assert main(["verify", "--in", str(path), "--checks", "parity"]) == 2
    _, err = capsys.readouterr()
    assert "unknown check 'parity'" in err


def test_verify_refuses_an_empty_check_list(tmp_path, capsys):
    path = tmp_path / "alt.json"
    save_bitrade(alt_bitrade(3), path)
    assert main(["verify", "--in", str(path), "--checks", ","]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: --checks must name at least one check" in err


def test_verify_refuses_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"x": ' + "[" * 200_000)
    assert main(["verify", "--in", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: invalid JSON: maximum recursion depth exceeded")


def test_verify_missing_file(capsys):
    assert main(["verify", "--in", "/nonexistent/bitrade.json"]) == 2
    _, err = capsys.readouterr()
    assert "error:" in err


def test_search_h43(tmp_path, capsys):
    path = tmp_path / "best.json"
    code = main(["search", "--n", "4", "--q", "3", "--out", str(path)])
    assert code == 0
    out, _ = capsys.readouterr()
    assert "search H(4, 3) perfect mode=exhaustive seed=0" in out
    assert "minimum volume 6 (proven)" in out
    assert "nodes explored" in out
    found = load_bitrade(path)
    assert check_bitrade(found, ["definition"])["definition"].passed


def test_search_upper_bound_emptiness(capsys):
    code = main(["search", "--n", "4", "--q", "3", "--upper-bound", "5"])
    assert code == 0
    out, _ = capsys.readouterr()
    assert "no bitrade found with volume <= 5 (proven)" in out


def test_search_infeasible_parameters(capsys):
    assert main(["search", "--n", "5", "--q", "3"]) == 2
    _, err = capsys.readouterr()
    assert (
        "no bitrade parameters fit H(5, 3): n must be 1 (mod q) for perfect "
        "bitrades or a multiple of q for spherical bitrades" in err
    )


def test_search_local_mode_refuses_upper_bound(capsys):
    code = main([
        "search", "--n", "3", "--q", "3", "--mode", "local", "--upper-bound", "4",
    ])
    assert code == 2
    _, err = capsys.readouterr()
    assert "volume_upper_bound is not used in local mode" in err


def test_search_exhaustive_mode_refuses_seed(capsys):
    assert main(["search", "--n", "4", "--q", "3", "--seed", "3"]) == 2
    _, err = capsys.readouterr()
    assert "seed is not used in exhaustive mode" in err


def test_search_local_mode(capsys):
    code = main([
        "search", "--n", "3", "--q", "3", "--mode", "local", "--budget", "0.5",
    ])
    assert code == 0
    out, _ = capsys.readouterr()
    assert "search H(3, 3) spherical mode=local seed=0" in out
    assert "best volume 3 (not proven minimal)" in out


def test_search_budget_exhaustion(capsys):
    code = main(["search", "--n", "5", "--q", "5", "--budget", "0.3"])
    assert code == 0
    out, _ = capsys.readouterr()
    assert "(proven)" not in out


def test_info_on_perfect_bitrade(tmp_path, capsys):
    path = tmp_path / "lift.json"
    save_bitrade(lift_to_perfect(alt_bitrade(3)), path)
    assert main(["info", "--in", str(path)]) == 0
    out, _ = capsys.readouterr()
    assert "H(4, 3) perfect bitrade" in out
    assert "volume 6" in out
    assert "min distance t0: 3" in out
    assert "min distance t1: 3" in out
    assert "d(t0, t1): 1" in out


def test_info_on_spherical_bitrade(tmp_path, capsys):
    path = tmp_path / "alt5.json"
    save_bitrade(alt_bitrade(5), path)
    assert main(["info", "--in", str(path)]) == 0
    out, _ = capsys.readouterr()
    assert "H(5, 5) spherical bitrade" in out
    assert "volume 60" in out
    assert "d(t0, t1): 2" in out


def test_info_reports_size_imbalance(tmp_path, capsys):
    doc = json.loads(dumps_json(alt_bitrade(3)))
    doc["t1"] = doc["t1"][:2]
    path = tmp_path / "lop.json"
    path.write_text(json.dumps(doc))
    assert main(["info", "--in", str(path)]) == 0
    out, _ = capsys.readouterr()
    assert "part sizes 3 and 2 (not a bitrade)" in out


def test_info_prints_infinite_distance_for_a_single_word(tmp_path, capsys):
    doc = json.loads(dumps_json(alt_bitrade(3)))
    doc["t1"] = doc["t1"][:1]
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    assert main(["info", "--in", str(path)]) == 0
    out, _ = capsys.readouterr()
    assert "min distance t0: 3" in out
    assert "min distance t1: inf" in out


def test_info_on_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("")
    assert main(["info", "--in", str(path)]) == 2
    _, err = capsys.readouterr()
    assert "is empty" in err


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["construct"]) == 2
    capsys.readouterr()
    assert main(["construct", "--construction", "warp", "--q", "3"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out, _ = capsys.readouterr()
    assert "construct" in out
