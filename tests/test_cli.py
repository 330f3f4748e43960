"""End-to-end command-line behavior: formats, seeds, exit codes."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import beadproc
from beadproc import cli
from beadproc.cli import run
from beadproc.model import HexagonSpec


def _capture(capsys):
    out = capsys.readouterr()
    return out.out, out.err


# ------------------------------------------------------------------ kernel


def test_kernel_prints_bare_value(capsys):
    code = run(
        "kernel --p 1 --q 2 --s 1 --t 1 --y 0.25 --x 0.25".split()
    )
    out, _ = _capture(capsys)
    assert code == 0
    assert out == "1.5\n"  # 2(1 - y) on the first line


def test_correlate_two_point_value(capsys):
    code = run("correlate --p 1 --q 2 --point 1:0.25 --point 2:0.75".split())
    out, _ = _capture(capsys)
    assert code == 0
    assert float(out) == pytest.approx(2.0, abs=1e-12)


def test_correlate_rejects_malformed_point(capsys):
    code = run("correlate --p 1 --q 2 --point nonsense".split())
    _, err = _capture(capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        "kernel --p 64 --q 192 --s 132 --t 1 --y 0.05 --x 0.5",
        "correlate --p 64 --q 192 --point 132:0.05 --point 1:0.5",
    ],
)
def test_kernel_beyond_a_double_is_an_error_line(argv, capsys):
    # K(132, 0.05; 1, 0.5) at (64, 192) is about 10^332: one error line and
    # exit 2, as for any other error, not a traceback
    code = run(argv.split())
    out, err = _capture(capsys)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err == (
        "error: K(132, y; 1, x) at (y, x) = (0.05, 0.5) is beyond the range of a double: log10|K| = 332.0\n"
    )


# ------------------------------------------------------------------ sample


def test_sample_csv_deterministic_under_seed(capsys):
    argv = "sample --p 2 --q 3 --count 5 --seed 7".split()
    assert run(argv) == 0
    first, _ = _capture(capsys)
    assert run(argv) == 0
    second, _ = _capture(capsys)
    assert first == second
    lines = first.strip().split("\n")
    assert lines[0] == "sample,line,index,position"
    assert len(lines) == 1 + 5 * (1 + 2 + 2 + 1)  # count * beads per config


def test_sample_json_envelope(capsys):
    assert run("sample --p 1 --q 2 --count 2 --seed 3 --format json".split()) == 0
    out, _ = _capture(capsys)
    payload = json.loads(out)
    assert set(payload) == {"spec", "seed", "rows"}
    assert payload["spec"] == {"p": 1, "q": 2}
    assert payload["seed"] == 3
    assert all(set(r) == {"sample", "line", "index", "position"} for r in payload["rows"])
    assert len(payload["rows"]) == 2 * 2


def test_sample_echoes_usable_seed_when_unseeded(capsys):
    assert run("sample --p 1 --q 1 --count 3".split()) == 0
    out, err = _capture(capsys)
    m = re.search(r"seed: (\d+)", err)
    assert m is not None
    assert run(f"sample --p 1 --q 1 --count 3 --seed {m.group(1)}".split()) == 0
    replay, _ = _capture(capsys)
    assert replay == out


def test_sample_out_file_and_svg(tmp_path, capsys):
    csv_path = tmp_path / "beads.csv"
    svg_path = tmp_path / "beads.svg"
    argv = (
        f"sample --p 1 --q 2 --count 3 --seed 11 --out {csv_path} --svg {svg_path}".split()
    )
    assert run(argv) == 0
    _capture(capsys)
    text = csv_path.read_text()
    assert text.startswith("sample,line,index,position\n")
    svg = svg_path.read_text()
    assert svg.count("<polyline") == 2  # lower and upper boundary curves
    assert svg.count("<circle") == 3 * 2  # one dot per bead
    assert svg.count("<line") == 2  # one vertical rule per bead line
    assert "<rect" in svg and 'fill="white"' in svg


# sha256 of both files the README's figure invocation writes: every CSV row,
# bead circle and boundary point is pinned to the byte
_FIGURE_DIGESTS = {
    "beads.csv": "dbca34b1ad9cf3091c10364a5ba58458fd8f7be6ac9f8251a126e2dc598733e7",
    "beads.svg": "3f4475bfb2616b42193ae5fa6737fccead4a07cf6b3244fb00b60fcf22774c9d",
}


def test_figure_files_match_the_pinned_digests(tmp_path, capsys):
    argv = f"sample --p 4 --q 12 --count 60 --seed 7 --out {tmp_path / 'beads.csv'} --svg {tmp_path / 'beads.svg'}"
    assert run(argv.split()) == 0
    _capture(capsys)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in _FIGURE_DIGESTS}
    assert got == _FIGURE_DIGESTS


def test_svg_band_ends_on_the_last_line_label():
    # at (171, 511) the grid's last label (2 + k) * 255 / 255.0 rounds an ulp
    # past 2 + k, which support_interval refuses
    svg = cli._svg_document(HexagonSpec(171, 511), [], np.empty((0, 0)))
    assert svg.count("<polyline") == 2


def test_a_failing_svg_leaves_no_file(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise ValueError("no figure")

    monkeypatch.setattr(cli, "_svg_document", refuse)
    svg_path = tmp_path / "beads.svg"
    assert run(f"sample --p 1 --q 2 --seed 1 --svg {svg_path}".split()) == 2
    assert _capture(capsys)[1] == "error: no figure\n"
    assert not svg_path.exists()


# --------------------------------------------------------------- enumerate


def test_enumerate_total_only(capsys):
    assert run("enumerate --n 2 --p 2 --q 2 --total-only".split()) == 0
    out, _ = _capture(capsys)
    assert out == "20\n"


def test_enumerate_rows(capsys):
    assert run("enumerate --n 1 --p 1 --q 1".split()) == 0
    out, _ = _capture(capsys)
    lines = out.strip().split("\n")
    assert lines[0] == "sample,line,index,position"
    assert len(lines) == 3  # two one-bead configurations
    assert {ln.split(",")[3] for ln in lines[1:]} == {"1", "-1"}


def test_enumerate_budget_is_usage_error(capsys):
    code = run("enumerate --n 3 --p 3 --q 3".split())
    _, err = _capture(capsys)
    assert code == 2
    assert "budget" in err


# ------------------------------------------------------------ scaling cmds


def test_limit_shape_rows(capsys):
    assert run("limit-shape --k 2 --points 3".split()) == 0
    out, _ = _capture(capsys)
    lines = out.strip().split("\n")
    assert lines[0] == "S,c,d"
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[3].split(",")]
    assert first == pytest.approx([0.0, 0.25, 0.25], abs=1e-12)
    assert last == pytest.approx([4.0, 0.75, 0.75], abs=1e-12)


@pytest.mark.parametrize("k,points", [(0.6, 100), (0.7, 7)])
def test_limit_shape_ends_exactly_on_the_last_label(k, points, capsys):
    # (2 + k) * (points - 1) / (points - 1) rounds an ulp past 2 + k here;
    # the last row is the closed band (k + 1)/(k + 2)
    assert run(f"limit-shape --k {k} --points {points}".split()) == 0
    lines = _capture(capsys)[0].splitlines()
    assert len(lines) == points + 1
    S, c, d = (float(v) for v in lines[-1].split(","))
    assert S == 2.0 + k and c == d == pytest.approx((k + 1.0) / (k + 2.0), rel=1e-15)
    if k == 0.6:
        assert lines[-1] == "2.6000000000000001,0.61538461538461531,0.61538461538461531"


@pytest.mark.parametrize(
    "cmd,least,points",
    [("limit-shape --k 2", 2, 1), ("limit-shape --k 2", 2, 0), ("density --p 1 --q 2 --t 1", 1, 0)],
)
def test_too_few_points_is_usage_error(cmd, least, points, capsys):
    # limit-shape needs both ends of the fan, density at least one node
    assert run(f"{cmd} --points {points}".split()) == 2
    assert _capture(capsys) == ("", f"error: --points must be >= {least}, got {points}\n")


def test_density_grid(capsys):
    assert run("density --p 1 --q 2 --t 1 --points 4".split()) == 0
    out, _ = _capture(capsys)
    lines = out.strip().split("\n")
    assert lines[0] == "s,y,t,x,value"
    assert len(lines) == 5
    for ln in lines[1:]:
        s, y, t, x, value = ln.split(",")
        assert (s, t) == ("1", "1")
        assert float(value) == pytest.approx(2.0 * (1.0 - float(x)), abs=1e-12)


def test_bulk_point_values(capsys):
    assert run("bulk --k 2 --S 2".split()) == 0
    out, _ = _capture(capsys)
    assert float(out) == pytest.approx(1.0, abs=1e-12)
    assert run("bulk --k 2 --S 2 --gamma-form".split()) == 0
    out, _ = _capture(capsys)
    assert float(out) == pytest.approx(1.0 / math.pi, abs=1e-12)


@pytest.mark.parametrize("flag,scientific,decimal", [("--Y", "-1e-3", "-0.001"), ("--X", "-2.5E-1", "-0.25")])
def test_negative_values_in_scientific_notation_are_values(flag, scientific, decimal, capsys):
    # argparse alone reads "-1e-3" after a flag as an option, not a number
    outs = []
    for argv in ([flag, scientific], [flag, decimal], [f"{flag}={scientific}"]):
        assert run(["bulk", "--k", "2", "--S", "2", *argv]) == 0
        outs.append(_capture(capsys))
    assert outs[0] == outs[1] == outs[2]
    assert run("enumerate --n 1 --p 1 --q 1 --total-only -1".split()) == 2


def test_bulk_tail_at_large_k(capsys):
    # nu = 0.286: the tail's continued fraction does not converge here, so the
    # series takes over; the figure is mpmath quadosc at 40 digits
    assert run("bulk --k 50 --S 26 --s0 0 --t0 1 --X 0.35".split()) == 0
    out, _ = _capture(capsys)
    assert float(out) == pytest.approx(0.64724817053755433, abs=1e-12)


@pytest.mark.parametrize(
    "args,want",
    [
        # the upward recurrence printed -2450387807433324 and 1.08257; the
        # figures are mpmath quadosc of the tail
        ("--k 10000 --S 5001 --t0 30 --X 1", 0.22276804484987991),
        ("--k 1000 --S 501 --t0 30 --X 1", 0.72633558081558976),
    ],
)
def test_bulk_tail_far_from_its_recurrence(args, want, capsys):
    assert run(["bulk", *args.split()]) == 0
    out, _ = _capture(capsys)
    assert float(out) == pytest.approx(want, rel=1e-8)


def test_bulk_tail_where_the_fraction_gives_up(capsys):
    # tau nu = 6e-5 with d = 8 near |z|: the residue form serves; the figure is
    # mpmath's expint at 50 digits
    assert run("bulk --k 1e6 --S 500001 --t0 8 --X 0.01".split()) == 0
    out, err = _capture(capsys)
    assert err == ""
    assert float(out) == pytest.approx(-10.0828165717211838, rel=1e-12)


def test_bulk_at_the_aspect_ratio_cap(capsys):
    # A = e^(pi/nu) overflows at k = 1e6, which the bulk kernel does not need
    assert run("bulk --k 1e6 --S 500001 --s0 1 --X 0.25".split()) == 0
    out, err = _capture(capsys)
    assert err == "" and math.isfinite(float(out))


def test_bulk_value_outside_a_double_is_an_error_line(capsys):
    # (1 + i nu t)^1100 overflows: one error line and exit 2
    code = run("bulk --k 2 --S 2 --s0 1100 --X 0.5".split())
    out, err = _capture(capsys)
    assert code == 2 and out == ""
    assert err == "error: bulk_kernel(1.7320508075688772, 1100, 0.0, 0, 0.5) is outside the range of a double\n"


def test_bulk_nu_outside_a_double_names_nu_and_its_arguments(capsys):
    # nu = (2 + k)/k = 2e320: the error names the value and the (k, S) it comes from
    code = run("bulk --k 1e-320 --S 1".split())
    out, err = _capture(capsys)
    assert code == 2 and out == ""
    assert err == "error: scaling_context(1e-320, 1.0) is outside the range of a double\n"


def test_gamma_form_value_outside_a_double_is_an_error_line(capsys):
    # gamma^(s0 - t0) = gamma^-1100 overflows in the J form
    code = run("bulk --k 2 --S 2 --t0 1100 --gamma-form".split())
    out, err = _capture(capsys)
    assert code == 2 and out == ""
    assert err == "error: boutillier_kernel(0.5000000000000001, 0, 0.0, 1100, 0.0) is outside the range of a double\n"


def test_gamma_form_with_nu_squared_past_a_double(capsys):
    # nu = 2e160 at k = 1e-160: gamma = 5e-161 is small but valid
    assert run("bulk --k 1e-160 --S 1 --gamma-form".split()) == 0
    out, err = _capture(capsys)
    assert err == ""
    assert out == format(beadproc.scaling.boutillier_kernel(5e-161, 0, 0.0, 0, 0.0), ".17g") + "\n"


def test_bulk_probe_table(capsys):
    argv = "bulk --k 2 --S 2 --s0 0 --t0 0 --X 0.5 --Y -0.25 --probe-p 8,16".split()
    assert run(argv) == 0
    out, _ = _capture(capsys)
    lines = out.strip().split("\n")
    assert lines[0] == "p,s0,t0,X,Y,normalized,limit,abs_err"
    assert len(lines) == 3
    err8 = float(lines[1].split(",")[-1])
    err16 = float(lines[2].split(",")[-1])
    assert err16 < err8


def test_bulk_probe_names_an_x_off_the_line(capsys):
    # X = 100 at p = 16 puts the point past position 1: the error names X,
    # p and the range of X, not only the kernel's (0, 1)
    assert run("bulk --k 2 --S 2 --probe-p 16 --X 100".split()) == 2
    err = "error: offset X = 100.0 at p = 16 puts X_S + X/(p u_S) outside (0, 1); X must lie in about (-8.82126, 8.82126)"
    assert _capture(capsys) == ("", err + "\n")


def test_bulk_probe_flag_repeats(capsys):
    # the README form: one row per repeated flag, in order
    assert run("bulk --k 2 --S 2 --probe-p 16 --probe-p 32".split()) == 0
    out, _ = _capture(capsys)
    lines = out.strip().split("\n")
    assert lines[0] == "p,s0,t0,X,Y,normalized,limit,abs_err"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["16", "32"]


@pytest.mark.parametrize(
    "argv",
    [
        "bulk --k 2 --S 2 --X nan",
        "bulk --k 2 --S 2 --s0 0 --t0 1 --Y nan",
        "bulk --k 2 --S 2 --gamma-form --X inf",
    ],
)
def test_bulk_non_finite_position_is_usage_error(argv, capsys):
    code = run(argv.split())
    out, err = _capture(capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize("value,bad", [("16,,32", ""), ("16,32,", ""), ("0", "0"), ("-3", "-3"), ("x", "x")])
def test_bulk_probe_bad_item_names_the_flag(value, bad, capsys):
    code = run(["bulk", "--k", "2", "--S", "2", "--probe-p", value])
    assert code == 2
    assert _capture(capsys) == ("", f"error: --probe-p takes integers >= 1, got {bad!r}\n")


def test_bulk_gamma_form_and_probe_exclude_each_other(capsys):
    # the probe has no gamma form; asking for both is refused, not half-honoured
    code = run("bulk --k 2 --S 2 --probe-p 16 --gamma-form".split())
    out, err = _capture(capsys)
    assert code == 2
    assert out == ""
    assert "not allowed with argument" in err


# ------------------------------------------------------------ table format

# Each tabular command with its column types; the writer formats a whole table
# from one template typed by the first row, so every row must keep these.
_TABLES = [
    ("sample --p 2 --q 3 --count 3 --seed 1", (int, int, int, float)),
    ("density --p 2 --q 3 --t 2 --points 5", (int, float, int, float, float)),
    ("enumerate --n 1 --p 1 --q 2", (int, int, int, int)),
    ("limit-shape --k 2 --points 5", (float, float, float)),
    ("bulk --k 2 --S 2 --probe-p 8 --probe-p 16", (int, int, int, float, float, float, float, float)),
    ("validate --suite discrete", (str, str, str, float, float)),
]


@pytest.mark.parametrize("argv,types", _TABLES, ids=[a.split()[0] for a, _ in _TABLES])
def test_tables_are_written_in_the_documented_format(argv, types, capsys):
    assert run(argv.split()) == 0
    csv_rows = [ln.split(",") for ln in _capture(capsys)[0].splitlines()[1:]]
    assert run(argv.split() + ["--format", "json"]) == 0
    json_rows = [list(r.values()) for r in json.loads(_capture(capsys)[0])["rows"]]
    assert csv_rows and len(json_rows) == len(csv_rows)
    for fields, values in zip(csv_rows, json_rows):
        assert len(fields) == len(values) == len(types)
        for field, value, kind in zip(fields, values, types):
            # ".17g" prints 1.0 as "1", so a field's type shows in JSON only
            assert type(value) is kind
            if kind is float:
                assert field == format(float(field), ".17g") and float(field) == value
            elif kind is int:
                assert field == str(int(field)) and int(field) == value
            else:
                assert field == value


# ------------------------------------------------------------- flag table

# One short command per subcommand; each takes --out, and only the tables
# take --format.
_COMMANDS = {
    "sample": "sample --p 1 --q 2 --seed 1",
    "kernel": "kernel --p 1 --q 2 --s 1 --t 1 --y 0.25 --x 0.25",
    "density": "density --p 1 --q 2 --t 1 --points 3",
    "correlate": "correlate --p 1 --q 2 --point 1:0.25",
    "enumerate": "enumerate --n 1 --p 1 --q 1",
    "limit-shape": "limit-shape --k 2 --points 3",
    "bulk": "bulk --k 2 --S 2",
    "validate": "validate --suite discrete",
}


def test_every_subcommand_has_help_and_writes_out(tmp_path, capsys):
    assert run(["--help"]) == 0
    assert "{" + ",".join(_COMMANDS) + "}" in _capture(capsys)[0]
    for name, argv in _COMMANDS.items():
        assert run([name, "--help"]) == 0
        assert "--out" in _capture(capsys)[0]
        path = tmp_path / f"{name}.txt"
        assert run(argv.split() + ["--out", str(path)]) == 0
        assert _capture(capsys)[0] == ""
        assert path.read_text()


@pytest.mark.parametrize("name", ["kernel", "correlate"])
def test_single_value_commands_take_no_format(name, capsys):
    assert run(_COMMANDS[name].split() + ["--format", "json"]) == 2
    out, err = _capture(capsys)
    assert out == "" and "unrecognized arguments: --format json" in err


# ---------------------------------------------------------------- validate


def test_validate_quick_all_passes(capsys):
    assert run("validate --suite all --level quick".split()) == 0
    out, _ = _capture(capsys)
    lines = out.strip().split("\n")
    assert lines[0] == "suite,check,status,measure,threshold"
    assert len(lines) > 10
    statuses = {ln.split(",")[2] for ln in lines[1:]}
    assert statuses == {"pass"}


def test_validate_full_all_passes(capsys):
    assert run("validate --suite all --level full".split()) == 0
    out, _ = _capture(capsys)
    rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
    assert {r[0] for r in rows} == {"kernel", "sampler", "discrete", "scaling"}
    assert {r[2] for r in rows} == {"pass"}


def test_validate_suite_choices_are_all_and_the_suites(capsys):
    assert run("validate --help".split()) == 0
    out, _ = _capture(capsys)
    assert "--suite {all,kernel,sampler,discrete,scaling}" in out
    assert run("validate --suite bogus".split()) == 2
    _capture(capsys)


# sha256 of ``validate --suite all`` stdout per level and format: every row's
# measure, threshold and verdict, and their order, are pinned to the byte
_VALIDATE_DIGESTS = {
    ("quick", "csv"): "1b8fd38b07936bd6ab0bbde89f41adc48f5ee12a1437f42d97b02488bd3e94d5",
    ("quick", "json"): "2f05e1a9375fafb0e717922243f02b308963143b8dcc9e2286a8f7d1cd037785",
    ("full", "csv"): "ed9d4f8005c370820ae179dc19488eb69cf4b285f59e08c73afce19808b94a64",
    ("full", "json"): "f9241be21ea09e67984ec340af010e08a1fc5996671dedea52a18d0d66fb7946",
}


@pytest.mark.parametrize("level,fmt", list(_VALIDATE_DIGESTS))
def test_validate_output_matches_the_pinned_digest(level, fmt, capsys):
    assert run(f"validate --suite all --level {level} --format {fmt}".split()) == 0
    out, _ = _capture(capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == _VALIDATE_DIGESTS[level, fmt]


def test_validate_single_suite(capsys):
    assert run("validate --suite discrete".split()) == 0
    out, _ = _capture(capsys)
    suites = {ln.split(",")[0] for ln in out.strip().split("\n")[1:]}
    assert suites == {"discrete"}


# -------------------------------------------------------------- exit codes


def test_domain_error_exits_two(capsys):
    code = run("sample --p 2 --q 1 --count 1".split())
    _, err = _capture(capsys)
    assert code == 2
    assert "error: need 1 <= p <= q, got p=2, q=1" in err
    code = run("limit-shape --k inf".split())
    _, err = _capture(capsys)
    assert code == 2
    assert "error: aspect ratio k must lie in [0, 1e+06], got inf" in err


def test_missing_subcommand_exits_two(capsys):
    assert run([]) == 2
    _capture(capsys)


def test_reused_parser_carries_no_state_between_runs(monkeypatch, capsys):
    builds = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
    assert run(["sample", "--p"]) == 2
    assert run(["--help"]) == 0
    _capture(capsys)
    for argv in ("correlate --p 1 --q 2 --point 1:0.25 --point 2:0.75",
                 "bulk --k 2 --S 2 --probe-p 16 --probe-p 32"):
        assert run(argv.split()) == 0
        first = _capture(capsys)
        assert run(argv.split()) == 0
        assert _capture(capsys) == first  # append flags do not pile up
    assert len(first[0].splitlines()) == 3
    assert run("sample --p 1 --q 1 --seed 4".split()) == 0
    assert "seed:" not in _capture(capsys)[1]
    assert run("sample --p 1 --q 1".split()) == 0
    assert re.search(r"^seed: \d+$", _capture(capsys)[1], re.M)
    assert builds == [1]


def test_a_replaced_command_handler_is_the_one_that_runs(monkeypatch, capsys):
    argv = "kernel --p 1 --q 2 --s 1 --t 1 --y 0.25 --x 0.25".split()
    assert run(argv) == 0  # the parser exists before the handler is replaced
    monkeypatch.setattr(cli, "_cmd_kernel", lambda args: 7)
    assert run(argv) == 7
    assert _capture(capsys) == ("1.5\n", "")


def test_module_entry_point():
    # pytest's ``pythonpath`` setting reaches only its own sys.path, so hand
    # the child the directory that holds the imported package
    src = os.path.dirname(os.path.dirname(beadproc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "beadproc.cli", "kernel", "--p", "1", "--q", "1",
         "--s", "1", "--t", "1", "--y", "0.5", "--x", "0.5"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n"
    # the ``beadproc`` console script runs cli.main, which is run itself
    assert cli.main is run
