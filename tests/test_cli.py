"""Command-line interface: formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from tandemqbd import SingularSystemError, cli, lambda_max, validate_config
from tandemqbd.cli import SWEEP_HEADER, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_two_server(capsys):
    code, out, _ = run(capsys, "analyze", "--mu", "1,1", "--buffers", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda_max"] == pytest.approx(0.8, abs=1e-12)
    assert payload["M"] == 5
    assert payload["residual"] <= 1e-12
    assert (payload["solver"], payload["iterations"]) == ("block-lu", 0)
    assert payload["closed_form_check"]["abs_diff"] <= 1e-10


def test_analyze_three_server_no_closed_form(capsys):
    code, out, _ = run(capsys, "analyze", "--mu", "0.8,1,1", "--buffers", "0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda_max"] == pytest.approx(0.519989942, abs=5e-9)
    assert "closed_form_check" not in payload


def test_analyze_single_server(capsys):
    code, out, _ = run(capsys, "analyze", "--mu", "1")
    assert code == 0
    assert json.loads(out)["lambda_max"] == 1.0
    code, dumped, err = run(capsys, "analyze", "--mu", "1", "--dump-blocks")
    assert code == 0
    assert dumped == out
    assert err.splitlines() == [
        "# level-preserving block 1 x 1",
        "0 0 -1",
        "# level-decreasing block 1 x 1",
        "0 0 1",
    ]


def test_analyze_buffer_shorthand(capsys):
    code, out, _ = run(capsys, "analyze", "--mu", "1,1,1,1", "--buffers", "2")
    assert code == 0
    explicit = run(capsys, "analyze", "--mu", "1,1,1,1", "--buffers", "2,2,2")[1]
    assert out == explicit


def test_analyze_from_config_file(capsys, tmp_path):
    path = tmp_path / "line.json"
    path.write_text('{"service_rates": [1.0, 1.0], "buffer_capacities": [2]}')
    code, out, _ = run(capsys, "analyze", "--config", str(path))
    assert code == 0
    assert json.loads(out)["lambda_max"] == pytest.approx(0.8, abs=1e-12)


def test_analyze_config_conflicts_with_inline(capsys, tmp_path):
    path = tmp_path / "line.json"
    path.write_text('{"service_rates": [1.0], "buffer_capacities": []}')
    code, _, err = run(capsys, "analyze", "--config", str(path), "--mu", "1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "make",
    [
        lambda path: None,
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b"\xff\xfe"),
    ],
    ids=["missing", "directory", "not-utf8"],
)
def test_unreadable_config_file_exits_two(capsys, tmp_path, make):
    path = tmp_path / "line.json"
    make(path)
    code, out, err = run(capsys, "analyze", "--config", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and str(path) in err


@pytest.mark.parametrize(
    "rates",
    ['["abc", 1]', "[null, 1]", "[1%s, 1]" % ("0" * 400), '["1.5", true]',
     "[1%s, 1]" % ("0" * 5000)],
    ids=["word", "null", "huge-int", "string-and-bool", "too-long-to-parse"],
)
def test_config_rate_that_is_not_a_number_exits_two(capsys, tmp_path, rates):
    path = tmp_path / "line.json"
    path.write_text('{"service_rates": %s, "buffer_capacities": [0]}' % rates)
    code, out, err = run(capsys, "analyze", "--config", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_analyze_rejects_bad_rates(capsys):
    code, out, err = run(capsys, "analyze", "--mu", "1,-0.5", "--buffers", "0")
    assert code == 2
    assert out == ""
    assert "positive" in err


def test_analyze_dump_pi(capsys):
    code, out, _ = run(capsys, "analyze", "--mu", "1,1", "--buffers", "2", "--dump-pi")
    payload = json.loads(out)
    assert code == 0
    assert payload["pi"] == pytest.approx([0.2] * 5, abs=1e-12)


def test_analyze_dump_blocks(capsys, monkeypatch):
    import tandemqbd.cli as cli_module
    import tandemqbd.throughput as throughput

    calls = []
    for module in (throughput, cli_module):
        for name in ("enumerate_phases", "build_blocks"):
            if not hasattr(module, name):
                continue
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    code, out, err = run(
        capsys, "analyze", "--mu", "1,1", "--buffers", "2", "--dump-blocks"
    )
    assert code == 0
    # the dump reuses the analysis's blocks instead of building them again
    assert sorted(calls) == ["build_blocks", "enumerate_phases"]
    json.loads(out)  # stdout stays machine readable
    assert "# level-preserving block 5 x 5" in err
    assert "# level-decreasing block 5 x 5" in err
    triplets = [l for l in err.splitlines() if l and not l.startswith("#")]
    assert all(len(l.split()) == 3 for l in triplets)


def test_analyze_max_states_cap(capsys):
    code, _, err = run(
        capsys, "analyze", "--mu", "1,1,1,1,1", "--buffers", "3", "--max-states", "10"
    )
    assert code == 2
    assert "cap" in err
    # one cap for every solver: 496 phases, level reduction
    line = ["analyze", "--mu", "1,1,1,1", "--buffers", "5", "--max-states"]
    code, out, err = run(capsys, *line, "495")
    assert (code, out) == (2, "")
    assert "above the cap of 495" in err
    code, out, _ = run(capsys, *line, "496")
    assert code == 0
    assert json.loads(out)["solver"] == "block-lu"


def test_analyze_sparse_lu_cap(capsys):
    # 60,003 phases on a two-server line, under the one default cap; sparse
    # LU had a lower cap of its own, 50,000 phases, and refused this line
    code, out, _ = run(capsys, "analyze", "--mu", "1,1", "--buffers", "60000")
    assert code == 0
    payload = json.loads(out)
    assert (payload["M"], payload["solver"]) == (60_003, "block-lu")
    assert payload["closed_form_check"]["abs_diff"] <= 1e-12


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_overflowing_rate_sum_exits_two(capsys, command):
    # each rate is finite but their sum is not: refused before any work,
    # with no numpy warning on stderr
    rates = "1e308,1e308,1e308" if command == "analyze" else "1e308,1e308"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command, "--mu", rates, "--buffers", "0")
    assert code == 2
    assert out == ""
    assert "sum" in err
    assert "Warning" not in err


def test_sweep_csv_reference_values(capsys):
    code, out, _ = run(
        capsys, "sweep", "--servers", "3..6", "--mu0", "0.8,1.0,1.25",
        "--mu-rest", "1.0", "--buffer", "0",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 13
    assert lines[1] == "3,0,0.8,1.0,8,0.519989942"
    assert lines[2] == "3,0,1.0,1.0,8,0.564102564"
    # every value is printed with exactly nine decimals
    for row in lines[1:]:
        assert len(row.rsplit(".", 1)[1]) == 9


def test_sweep_round_trip(capsys):
    _, out, _ = run(
        capsys, "sweep", "--servers", "3..4", "--mu0", "0.8,1.25",
        "--mu-rest", "1.0", "--buffer", "1",
    )
    for row in out.strip().splitlines()[1:]:
        servers, cap, mu0, mu_rest, m, printed = row.split(",")
        cfg = validate_config(
            [float(mu0)] + [float(mu_rest)] * (int(servers) - 1),
            [int(cap)] * (int(servers) - 1),
        )
        report = lambda_max(cfg)
        assert report.num_phases == int(m)
        assert f"{report.lambda_max:.9f}" == printed


@pytest.mark.parametrize("servers", ["6..3", "0..2", "0", "3,-1", ""])
def test_sweep_rejects_bad_server_counts(capsys, servers):
    code, out, err = run(capsys, "sweep", "--servers", servers, "--mu0", "1.0")
    assert code == 2
    assert out == ""
    assert "server count" in err


@pytest.mark.parametrize("servers", ["1", "3", "1..3"])
def test_sweep_rejects_negative_buffer(capsys, servers):
    # a one-server line has no buffer, so the flag is checked before any line
    code, out, err = run(capsys, "sweep", "--servers", servers, "--mu0", "1",
                         "--buffer", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --buffer must be non-negative, got -1\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("mu0", [",", ""])
def test_sweep_rejects_empty_mu0(capsys, fmt, mu0):
    code, out, err = run(capsys, "sweep", "--servers", "3", "--mu0", mu0, "--format", fmt)
    assert code == 2
    assert out == ""
    assert "first-server rate" in err


def test_sweep_json_and_full_precision(capsys):
    code, out, _ = run(
        capsys, "sweep", "--servers", "3", "--mu0", "1.0", "--format", "json",
        "--precision", "full",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    row = payload[0]
    assert row["servers"] == 3
    assert row["M"] == 8
    assert row["lambda_max"] == pytest.approx(22.0 / 39.0, abs=1e-12)


def test_sweep_output_is_deterministic(capsys):
    args = ("sweep", "--servers", "3..4", "--mu0", "0.8,1.0")
    first = run(capsys, *args)[1]
    second = run(capsys, *args)[1]
    assert first == second


def test_main_builds_its_parser_once(capsys, monkeypatch):
    run(capsys, "phases", "--k", "1")
    built = []
    original = cli.build_parser

    def counted():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    for _ in range(3):
        assert run(capsys, "phases", "--k", "2")[0] == 0
    assert built == []
    assert cli.build_parser() is not cli.build_parser()


def test_no_state_leaks_between_calls(capsys):
    line = ("analyze", "--mu", "1,1", "--buffers", "2")
    code, out, _ = run(capsys, *line, "--dump-pi")
    assert code == 0 and "pi" in json.loads(out)
    code, out, _ = run(capsys, *line)
    assert code == 0 and "pi" not in json.loads(out)


def test_parse_error_leaves_next_call_unchanged(capsys):
    line = ("sweep", "--servers", "3..4", "--mu0", "0.8,1.25", "--buffer", "1",
            "--precision", "full")
    first = run(capsys, *line)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--servers", "3", "--mu0", "1", "--format", "xml"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run(capsys, *line) == first


def test_dump_blocks_are_pinned(capsys):
    # both dumps as the COO-built blocks printed them, byte for byte
    err = ""
    for rates, buffers in (("0.8,1,1", "1"), ("0.7,0.83,0.96,1.09", "0,3,1")):
        code, _, dumped = run(
            capsys, "analyze", "--mu", rates, "--buffers", buffers, "--dump-blocks"
        )
        assert code == 0
        err += dumped
    golden = Path(__file__).with_name("dump_blocks_golden.txt")
    assert err.encode() == golden.read_bytes()


def test_simulate_json_and_determinism(capsys):
    args = (
        "simulate", "--mu", "1,1", "--buffers", "0",
        "--departures", "20000", "--seed", "42",
    )
    code, out, _ = run(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"estimate", "ci95", "departures", "seed"}
    assert payload["departures"] == 20000
    assert payload["seed"] == 42
    assert abs(payload["estimate"] - 2.0 / 3.0) <= max(3 * payload["ci95"], 0.005)
    assert run(capsys, *args)[1] == out


def test_simulate_target_too_small(capsys):
    code, _, err = run(
        capsys, "simulate", "--mu", "1,1", "--buffers", "0", "--departures", "100"
    )
    assert code == 2
    assert "departures" in err


def test_simulate_target_too_large(capsys):
    code, _, err = run(
        capsys, "simulate", "--mu", "1", "--departures", "1000000000000000"
    )
    assert code == 2
    assert "departures" in err


def test_phases_count(capsys):
    assert run(capsys, "phases", "--k", "1", "--buffer", "2")[1] == "5\n"
    assert run(capsys, "phases", "--k", "0")[1] == "1\n"


@pytest.mark.parametrize("k", ["0", "2"])
def test_phases_rejects_negative_buffer(capsys, k):
    code, out, err = run(capsys, "phases", "--k", k, "--buffer", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --buffer must be non-negative, got -1\n"


def test_phases_list(capsys):
    code, out, _ = run(capsys, "phases", "--k", "2", "--buffer", "0", "--list")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "8"
    assert len(lines) == 9
    assert "0,2" not in lines[1:]
    assert "2,2" in lines[1:]


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize(
    "command",
    [
        ["analyze", "--mu", "1,1,1", "--buffers", "0"],
        ["sweep", "--servers", "3..6", "--mu0", "1"],
        ["phases", "--k", "2"],
    ],
)
def test_cap_below_one_exits_two_before_any_line(capsys, command, cap):
    # it said "line has 8 phases, above the cap of -5; raise max_phases"
    code, out, err = run(capsys, *command, "--max-states", cap)
    assert (code, out) == (2, "")
    assert err == f"error: --max-states must be at least 1, got {cap}\n"


def test_phases_past_memory_exits_two(capsys):
    # under an address-space limit it ended in a raw _ArrayMemoryError
    # traceback, exit 1
    code, out, err = run(capsys, "phases", "--k", "40", "--max-states", str(10**18))
    assert (code, out) == (2, "")
    assert "about 10^16 phases" in err and "bytes" in err


def test_phases_over_cap_message_is_short(capsys):
    code, out, err = run(capsys, "phases", "--k", "1200")
    assert code == 2
    assert out == ""
    assert "about 10^501 phases" in err
    assert "--max-states" in err
    assert len(err) < 200


# both reference grids at full precision, as the package gave them when the
# generator was still summed from two sparse blocks, save the three
# 780-phase GMRES lines, taken when GMRES began to start from zero (each
# closer to sparse LU than before); every digit must stay
PINNED_GRIDS = {
    0: [
        "3,0,0.8,1.0,8,0.51998994216746297",
        "3,0,1.0,1.0,8,0.5641025641025641",
        "3,0,1.25,1.0,8,0.59843778830186356",
        "4,0,0.8,1.0,21,0.48502935270767916",
        "4,0,1.0,1.0,21,0.51477548931815287",
        "4,0,1.25,1.0,21,0.53504970033608024",
        "5,0,0.8,1.0,55,0.46399370409886787",
        "5,0,1.0,1.0,55,0.48579812156929331",
        "5,0,1.25,1.0,55,0.49916808733617096",
        "6,0,0.8,1.0,144,0.44986986077791108",
        "6,0,1.0,1.0,144,0.46671326300698318",
        "6,0,1.25,1.0,144,0.47618501746917863",
    ],
    1: [
        "3,1,0.8,1.0,15,0.61552879880715072",
        "3,1,1.0,1.0,15,0.67046615832088674",
        "3,1,1.25,1.0,15,0.70725438637740001",
        "4,1,0.8,1.0,56,0.59239377998662646",
        "4,1,1.0,1.0,56,0.63115268537705316",
        "4,1,1.25,1.0,56,0.65259831740766217",
        "5,1,0.8,1.0,209,0.57820781585309577",
        "5,1,1.0,1.0,209,0.6075832861062771",
        "5,1,1.25,1.0,209,0.6215856101675169",
        "6,1,0.8,1.0,780,0.56852108261129153",
        "6,1,1.0,1.0,780,0.59182577960502547",
        "6,1,1.25,1.0,780,0.60167738951746363",
    ],
}


@pytest.mark.parametrize("buffer", [0, 1])
def test_reference_grid_is_pinned_to_the_bit(capsys, buffer):
    code, out, _ = run(capsys, "sweep", "--servers", "3..6", "--mu0", "0.8,1.0,1.25",
                       "--buffer", str(buffer), "--precision", "full")
    assert code == 0
    assert out.splitlines() == [SWEEP_HEADER, *PINNED_GRIDS[buffer]]


def test_huge_phases_request_is_refused_fast():
    # a fresh interpreter, as a user runs it; the exact count of 200,000
    # stations took 2.4 s to fold before the line was refused
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys\nfrom tandemqbd.cli import main\n"
    probe += "sys.exit(main(['phases', '--k', '200000', '--buffer', '0']))"
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    seconds = time.perf_counter() - start
    assert result.returncode == 2 and result.stdout == ""
    assert "about 10^83595 phases" in result.stderr
    assert seconds < 1.5


def test_numerical_errors_exit_three(capsys, monkeypatch):
    import tandemqbd.cli as cli_module

    def boom(config, max_phases):
        raise SingularSystemError("synthetic failure")

    monkeypatch.setattr(cli_module, "lambda_max", boom)
    code, _, err = run(capsys, "analyze", "--mu", "1,1", "--buffers", "0")
    assert code == 3
    assert "synthetic failure" in err


def command(*argv):
    return f"from tandemqbd.cli import main; main({list(argv)!r})"


@pytest.mark.parametrize(
    "code,loads,leaves_out",
    [
        ("import tandemqbd", [], ["scipy"]),
        ("import tandemqbd.cli", [], ["scipy"]),
        (
            command("simulate", "--mu", "0.8,1,1", "--buffers", "1", "--departures", "10000"),
            [],
            ["scipy"],
        ),
        (command("phases", "--k", "3", "--buffer", "1", "--list"), [], ["scipy"]),
        (command("analyze", "--mu", "1,-1", "--buffers", "0"), [], ["scipy"]),
        # 15 phases: one level, solved from the dense generator
        (command("analyze", "--mu", "0.8,1,1", "--buffers", "1"), [], ["scipy"]),
        # lines of 15 to 209 phases, each one level
        (command("sweep", "--servers", "3..5", "--mu0", "0.8,1", "--buffer", "1"), [], ["scipy"]),
        # 496 phases: level reduction on the sparse generator
        (
            command("analyze", "--mu", "1,1,1,1", "--buffers", "5"),
            ["scipy.sparse"],
            ["scipy.sparse.linalg"],
        ),
        # 2,911 phases: the GMRES tier
        (
            command("analyze", "--mu", "1.25,1,1,1,1,1,1", "--buffers", "1"),
            ["scipy.sparse.linalg"],
            [],
        ),
    ],
    ids=[
        "import-package",
        "import-cli",
        "simulate",
        "phases",
        "input-error",
        "analyze-dense",
        "sweep-dense",
        "analyze-levels",
        "analyze-gmres",
    ],
)
def test_scipy_loads_only_where_a_solver_needs_it(code, loads, leaves_out):
    # a fresh interpreter, so that nothing this test run imported counts
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = f"{code}\nimport sys\nprint(*sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    modules = out.splitlines()[-1].split()
    for name in loads:
        assert name in modules
    for name in leaves_out:
        assert not [m for m in modules if m == name or m.startswith(name + ".")]
