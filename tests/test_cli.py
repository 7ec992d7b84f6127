import json

import pytest

from trigasket.cli import main
from trigasket.metric import corner_distances, distance
from trigasket.word import DomainError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_corners(capsys):
    code, out, _ = run(capsys, "corners", "rru")
    assert code == 0
    assert out == "U=2 L=4 R=2\n"


def test_dist_both_matches(capsys):
    code, out, _ = run(capsys, "dist", "--level", "3", "lll", "uuu",
                       "--method", "both")
    assert code == 0
    assert out == "closed=4 bfs=4 MATCH\n"


def test_dist_single_methods(capsys):
    assert run(capsys, "dist", "--level", "2", "lu", "rr")[1] == "closed=2\n"
    assert run(capsys, "dist", "--level", "2", "lu", "rr",
               "--method", "bfs")[1] == "bfs=2\n"


def test_dist_level_mismatch_is_a_domain_error(capsys):
    code, _, err = run(capsys, "dist", "--level", "3", "lu", "uuu")
    assert code == 1
    assert "'lu'" in err


def test_bad_letter_reports_the_token(capsys):
    code, _, err = run(capsys, "corners", "lxu")
    assert code == 1
    assert "'x'" in err


@pytest.mark.parametrize("word", ["", "l0r", "l1r", "l_r", " lr", "lr\n", "+lr", "0b1",
                                  "l\u0661r", "lxr", "LRU", "\u00e9", "\ud800"])
def test_non_addresses_are_domain_errors_everywhere(capsys, word):
    # int(..., 2) would accept several of these; none may get through
    good = "l" * max(len(word), 1)
    for call in (lambda: distance(word, good), lambda: distance(good, word),
                 lambda: corner_distances(word)):
        with pytest.raises(DomainError):
            call()
    level = str(len(good))
    for argv in (("dist", "--level", level, word, good),
                 ("dist", "--level", level, good, word), ("corners", word)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dist", "--level", "3", "lll"])  # missing positional
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])


def test_build_dot_deterministic(capsys):
    code, first, _ = run(capsys, "build", "--level", "2", "--format", "dot")
    assert code == 0
    assert first.startswith("graph level2 {")
    _, second, _ = run(capsys, "build", "--level", "2", "--format", "dot")
    assert first == second


def test_build_json_to_file(tmp_path, capsys):
    out_path = tmp_path / "g.json"
    code, out, _ = run(capsys, "build", "--level", "3", "--word", "(ul)",
                       "--format", "json", "--out", str(out_path))
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text())
    assert payload["level"] == 3
    assert payload["word"] == "(ul)"
    assert len(payload["vertices"]) == 15


def test_build_over_cap_fails_cleanly(capsys):
    code, _, err = run(capsys, "build", "--level", "13", "--format", "dot")
    assert code == 1
    assert "oracle scale exceeded" in err


def test_horo_classify_alternating(capsys):
    code, out, _ = run(capsys, "horo", "classify", "--family", "alt",
                       "--radius", "2", "--max-level", "10")
    assert code == 0
    assert out == "DIVERGENT witness=u values={0,1}\n"


def test_horo_classify_corner(capsys):
    code, out, _ = run(capsys, "horo", "classify", "--family", "U",
                       "--radius", "2,4", "--max-level", "8")
    assert code == 0
    assert out == "BUSEMANN_U exact=yes bound=0\n"


def test_horo_classify_seq_file(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("# perturbed symmetric points\n" + "\n".join(
        "u" + "r" * (n - 1) + "u" for n in range(1, 13)) + "\n")
    code, out, _ = run(capsys, "horo", "classify", "--seq", str(seq),
                       "--radius", "2,4,8", "--max-level", "12")
    assert code == 0
    assert out == "SYMMETRIC exact=no bound=1\n"


def test_horo_eval_csv(capsys):
    code, out, _ = run(capsys, "horo", "eval", "--family", "U",
                       "--radius", "1", "--max-level", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# status=stabilized stable_from=1 window=3 radius=1 evaluated=3"
    assert lines[1] == "address,distance_to_o,value"
    assert lines[2:] == ["l,0,0", "r,1,0", "u,1,1"]


def test_horo_eval_json_unstable_history(capsys):
    code, out, _ = run(capsys, "horo", "eval", "--family", "alt", "--radius", "1",
                       "--max-level", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "unstable"
    assert payload["table"] is None
    assert payload["history"]["u"] == [0, 1, 0, 1, 0, 1]


def test_horo_eval_rejects_radius_list(capsys):
    code, _, err = run(capsys, "horo", "eval", "--family", "U",
                       "--radius", "2,4", "--max-level", "6")
    assert code == 1
    assert "single radius" in err


def test_iso_output(capsys):
    code, out, _ = run(capsys, "iso", "(l)", "(u)")
    assert code == 0
    assert out.startswith("ISOMORPHIC witnesses=")
    assert "(l u)" in out
    code, out, _ = run(capsys, "iso", "(l)", "(ul)")
    assert code == 0
    assert out == "NOT_ISOMORPHIC degree2_census=1,0\n"


def test_orbit_output(capsys):
    code, out, _ = run(capsys, "orbit", "(l)")
    assert code == 0
    assert out == "size=3 members=(l),(r),(u)\n"
    assert run(capsys, "orbit", "(ul)")[1].startswith("size=6 ")


def test_census_output(capsys):
    assert run(capsys, "census", "(l)")[1] == "degree2=1 vertex=(l)\n"
    assert run(capsys, "census", "(ul)")[1] == "degree2=0\n"


def test_bench_smoke(capsys):
    code, out, _ = run(capsys, "bench", "--level", "4", "--pairs", "5",
                       "--seed", "3")
    assert code == 0
    assert "level=4 pairs=5 seed=3" in out
    assert "kernel_s=" in out and "backend" not in out
    assert "match=yes" in out
    assert "speedup=" in out


def test_bench_above_cap_skips_bfs(capsys):
    code, out, _ = run(capsys, "bench", "--level", "20", "--pairs", "5")
    assert code == 0
    assert "bfs=skipped(level-above-oracle-cap)" in out


def test_selftest_smoke(capsys):
    code, out, _ = run(capsys, "selftest", "--max-level", "5")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 11
    assert all(ln.startswith("PASS") for ln in lines)
    assert out.splitlines()[-1] == "11/11 criteria passed"
