"""Exit codes and output shapes of the hmslines command line interface."""
import json
from importlib import resources

from hmslines import cli
from hmslines.search import find_lines, load_config

REAL_LINE = [[4, 0, -3, 3, 0, -2], [0, 20, -23, 7, 40, 6]]


def config_path(name):
    return str(resources.files("hmslines").joinpath(f"configs/{name}"))


def write_config(tmp_path, name="cfg.json", base="rho0-demo.json", **overrides):
    with open(config_path(base)) as fh:
        data = json.load(fh)
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def assert_counters_add_up(stats):
    """Every candidate of an exhausted search is counted exactly once."""
    assert sum(v for k, v in stats.items() if k != "candidates") == stats["candidates"]


def test_verify_paper_passes(capsys):
    assert cli.main(["verify-paper"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "verify-paper: all checks passed"
    checks = out[:-1]
    assert len(checks) >= 10
    assert all(line.startswith("PASS") for line in checks)


def test_verify_paper_json(capsys):
    assert cli.main(["verify-paper", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert all(row["passed"] is True for row in payload["checks"])
    names = [row["name"] for row in payload["checks"]]
    assert len(names) == len(set(names))


def test_verify_paper_failure_exits_1(capsys, monkeypatch):
    rows = [("kept", True, ""), ("broken", False, "detail")]
    monkeypatch.setattr(cli, "verify_paper", lambda: (False, rows))
    assert cli.main(["verify-paper"]) == 1
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["PASS  kept", "FAIL  broken  (detail)", "verify-paper: FAILED"]
    assert cli.main(["verify-paper", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    assert [row["passed"] for row in payload["checks"]] == [True, False]


def test_find_line_demo_text_output(capsys):
    rc = cli.main(["find-line", "--config", config_path("rho0-demo.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "result 0:" in out
    assert "real_four_roots: pass" in out
    assert "[4, 0, -3, 3, 0, -2]" in out


def test_find_line_demo_json_output(capsys):
    rc = cli.main(
        ["find-line", "--config", config_path("char3-demo.json"), "--json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    cert = payload["results"][0]
    assert cert["line"]["primitive_rows"] == [
        [59046, 0, -1, 59049, 243, -243],
        [0, 19682, -19683, 3, 243, -243],
    ]
    assert cert["summary"]["checks"] == {"unramified_at_3": True}


def test_find_line_missing_config(capsys):
    rc = cli.main(["find-line", "--config", "/no/such/file.json"])
    assert rc == 3
    assert "invalid configuration" in capsys.readouterr().err


def test_find_line_rejects_unknown_keys(tmp_path, capsys):
    path = write_config(tmp_path, plume=1)
    assert cli.main(["find-line", "--config", path]) == 3
    assert "invalid configuration" in capsys.readouterr().err


def test_find_line_refuses_a_float_before_searching(tmp_path, capsys, monkeypatch):
    def search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "find_lines", search)
    path = write_config(tmp_path, base="char3-demo.json", lambda1=0.5)
    assert cli.main(["find-line", "--config", path]) == 3
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "0.5" in err


def test_find_line_rejects_bad_max_results(tmp_path, capsys):
    path = write_config(tmp_path)
    rc = cli.main(["find-line", "--config", path, "--max-results", "0"])
    assert rc == 3
    capsys.readouterr()


def test_find_line_exhausted_search(tmp_path, capsys):
    path = write_config(
        tmp_path,
        targets=[{"place": "real", "params": ["1/16", "1/16", "1/16"]}],
        height_bound=1,
    )
    assert cli.main(["find-line", "--config", path]) == 2
    message, stats = capsys.readouterr().err.splitlines()
    assert message.startswith("no line found")
    assert_counters_add_up(json.loads(stats))


def test_find_line_max_results_partial(tmp_path, capsys):
    # one certified line lives in this tiny ball; asking for two
    # succeeds with a single result instead of exhausting
    path = write_config(
        tmp_path,
        targets=[{"place": "real", "params": ["0", "0", "0"]}],
        height_bound=1,
    )
    rc = cli.main(["find-line", "--config", path, "--max-results", "2", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1


def test_certify_inline_line(capsys):
    rc = cli.main([
        "certify",
        "--line", json.dumps(REAL_LINE),
        "--config", config_path("rho0-demo.json"),
    ])
    assert rc == 0
    assert "real_four_roots: pass" in capsys.readouterr().out


def test_certify_json_matches_search(capsys):
    rc = cli.main([
        "certify",
        "--line", json.dumps(REAL_LINE),
        "--config", config_path("rho0-demo.json"),
        "--json",
    ])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    (_, cert), = find_lines(
        load_config(config_path("rho0-demo.json")), max_results=1
    )
    assert printed == cert.to_json()


def test_certify_line_from_file(tmp_path, capsys):
    path = tmp_path / "line.json"
    path.write_text(json.dumps([[str(c) for c in row] for row in REAL_LINE]))
    rc = cli.main([
        "certify", "--line", str(path),
        "--config", config_path("rho0-demo.json"),
    ])
    assert rc == 0
    capsys.readouterr()


def test_certify_rejects_a_line_file_that_is_not_json(tmp_path, capsys):
    path = tmp_path / "line.json"
    path.write_text("[[1, 0, 0")
    rc = cli.main([
        "certify", "--line", str(path),
        "--config", config_path("rho0-demo.json"),
    ])
    assert rc == 3
    assert "--line file is not valid JSON" in capsys.readouterr().err


def test_certify_rejects_malformed_line(capsys):
    cfg = config_path("rho0-demo.json")
    for bad in (
        "[[1,2],[3]]",
        "definitely not json",
        json.dumps([[1, 2, 3, 4, 5, 6], [2, 4, 6, 8, 10, 12]]),
        json.dumps([["1", "2", "x", "4", "5", "6"], ["0", "1", "2", "3", "4", "5"]]),
    ):
        assert cli.main(["certify", "--line", bad, "--config", cfg]) == 3
        assert "invalid configuration" in capsys.readouterr().err


def test_certify_off_surface_line(capsys):
    rc = cli.main([
        "certify",
        "--line", json.dumps([[1, 0, 0, -1, -1, 1], [0, 1, -1, -1, 0, 1]]),
        "--config", config_path("char3-demo.json"),
    ])
    assert rc == 2
    assert "cannot be certified" in capsys.readouterr().err


def test_certify_line_inside_degree_8_locus(capsys):
    rc = cli.main([
        "certify",
        "--line", json.dumps([[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]),
        "--config", config_path("char3-demo.json"),
    ])
    assert rc == 2
    assert "degree-8 locus" in capsys.readouterr().err


def test_certify_line_through_a_cusp_point(capsys):
    # the line meets the cusp line at [1 : 0], a root of its quartic
    # whose cusp depth no precision decides: a degenerate line, exit 2
    rc = cli.main([
        "certify",
        "--line", json.dumps([[0, 1, 0, 0, 0, 0], [0, 0, 1, -1, -1, 1]]),
        "--config", config_path("char3-demo.json"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == (
        "line cannot be certified: the line meets the cusp line at [1 : 0], a root "
        "of its quartic, whose cusp depth no precision decides\n"
    )


def test_certify_line_failing_gates(capsys):
    # on the surface and certifiable, but ramified at 3, or (the second,
    # outside the labc chart) inconclusive at 3, so the gate fails
    for rows in (
        [[1, -1, 0, 2, 1, -1], [0, 0, 1, -1, -1, 1]],
        [[1, 0, 0, 0, 0, 0], [0, 0, 1, -1, 1, -1]],
    ):
        rc = cli.main([
            "certify",
            "--line", json.dumps(rows),
            "--config", config_path("char3-demo.json"),
        ])
        assert rc == 2
        assert "unramified_at_3: fail" in capsys.readouterr().out


CHAR3_LINE = [[59046, 0, -1, 59049, 243, -243], [0, 19682, -19683, 3, 243, -243]]


def test_exit_code_4_when_precision_is_starved(tmp_path, capsys):
    # at 5 digits the 3-adic evidence for this line cannot be completed
    cfg = write_config(tmp_path, base="char3-demo.json", precision=5)
    rc = cli.main(["certify", "--line", json.dumps(CHAR3_LINE), "--config", cfg])
    assert rc == 4
    assert "precision exhausted" in capsys.readouterr().err

    rc = cli.main(["find-line", "--config", cfg])
    assert rc == 4
    message, stats = capsys.readouterr().err.splitlines()
    assert "precision" in message
    stats = json.loads(stats)
    assert stats["precision_failures"] > 0
    assert_counters_add_up(stats)


def test_certify_recovers_with_enough_precision(tmp_path, capsys):
    cfg = write_config(tmp_path, base="char3-demo.json", precision=7)
    rc = cli.main(["certify", "--line", json.dumps(CHAR3_LINE), "--config", cfg])
    assert rc == 0
    capsys.readouterr()


def test_a_target_that_is_not_a_p_adic_integer_is_refused(tmp_path, capsys):
    # only residues mod 3^k3 matter at place 3, and 1/3 has none: certify
    # refuses the config as find-line does, before any line is certified
    cfg = write_config(
        tmp_path,
        base="char3-demo.json",
        targets=[{"place": 3, "params": ["1/3", 243, 243]}],
    )
    for argv in (["certify", "--line", json.dumps(CHAR3_LINE)], ["find-line"]):
        assert cli.main([*argv, "--config", cfg]) == 3
        assert "target parameter 1/3 is not a 3-adic integer" in capsys.readouterr().err
