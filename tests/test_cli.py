import argparse
import csv
import dataclasses
import importlib.util
import json
import os
import shlex
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import steinpoisson
from steinpoisson import bounds, exact_laws, multivariate, pair_models
from steinpoisson.cli import (
    CSV_COLUMNS,
    CertRecord,
    DEFAULT_SEED,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    FAMILIES,
    UsageError,
    _certify,
    build_grid,
    build_parser,
    feasibility_error,
    main,
    parse_float_list,
    parse_int_list,
    parse_p_vector,
)


def run(argv, capsys=None):
    code = main(argv)
    return code


def exit_code(argv):
    """``main``'s exit code, also where argparse itself exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def perfbench_module(name):
    """A module of the benchmark directory, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# schema=stein-poisson-cert-v1")
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == CSV_COLUMNS
    return rows[1:]


def strip_seconds(rows):
    return [row[:-1] for row in rows]


class TestParsers:
    def test_int_list(self):
        assert parse_int_list("4..7,10", "--n") == [4, 5, 6, 7, 10]
        assert parse_int_list("3", "--n") == [3]
        assert parse_int_list("5..5", "--n") == [5]

    def test_reversed_range_refused(self):
        # it used to be dropped: "10..5,20" gave [20]
        with pytest.raises(UsageError, match="reversed range '10..5'"):
            parse_int_list("10..5,20", "--n")

    @pytest.mark.parametrize("text", ["inf", "1,nan", "-inf,0"])
    def test_non_finite_float_refused(self, text):
        with pytest.raises(UsageError, match="not a list of finite floats"):
            parse_float_list(text)

    def test_p_recipes(self):
        assert parse_p_vector("uniform:2.0", 4) == (0.5, 0.5, 0.5, 0.5)
        assert parse_p_vector("harmonic", 3) == (1.0, 0.5, 1 / 3)
        assert parse_p_vector("0.1,0.9", None) == (0.1, 0.9)


class TestBoundCommand:
    def test_matching(self, capsys):
        assert run(["bound", "matching", "--n", "100"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "value:       0.02" in out
        assert "set_distance" in out

    def test_birthday(self, capsys):
        assert run(["bound", "birthday-pairs", "--n", "100", "--k", "10"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "0.21333333333333335" in out

    def test_usage_error(self, capsys):
        assert run(["bound", "matching", "--n", "1"]) == EXIT_USAGE
        assert run(["bound", "matching"]) == EXIT_USAGE
        assert run(["bound", "wat", "--n", "5"]) == EXIT_USAGE

    @pytest.mark.parametrize("kind", ["default", "coupling"])
    def test_nan_probability_is_no_bound(self, capsys, kind):
        argv = ["bound", "poisson-binomial", "--p", "0.5,nan", "--bound", kind]
        assert run(argv) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: success probabilities must lie in [0, 1]\n"

    @pytest.mark.parametrize("kind", ["default", "coupling"])
    def test_zero_rate_is_no_bound(self, capsys, kind):
        # the coupling bound used to print a degenerate value 0.0 here
        argv = ["bound", "poisson-binomial", "--p", "0,0", "--bound", kind]
        assert run(argv) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: lam must be a positive finite real\n"

    def test_zero_rate_refused_alike_by_every_entry_point(self, capsys):
        for argv in (["bound", "poisson-binomial", "--p", "0,0", "--bound", "default"],
                     ["bound", "poisson-binomial", "--p", "0,0", "--bound", "coupling"],
                     ["exact-tv", "poisson-binomial", "--p", "0,0"],
                     ["sweep", "poisson-binomial", "--p", "0,0"]):
            assert run(argv) == EXIT_USAGE, argv
            assert capsys.readouterr().err.endswith("lam must be a positive finite real\n"), argv


class TestExactTvCommand:
    def test_matching_pass(self, capsys):
        assert run(["exact-tv", "matching", "--n", "8"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: pass" in out
        assert "bound: 0.25" in out

    def test_process_matching(self, capsys):
        assert run(["exact-tv", "process-matching", "--n", "6"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: pass" in out

    def test_process_matching_at_cap(self, capsys):
        n = exact_laws.MATCHING_CAP
        assert run(["exact-tv", "process-matching", "--n", str(n)]) == EXIT_OK
        out = fields(capsys.readouterr().out)
        assert out["verdict"] == "pass"
        assert float(out["exact_tv"]) * n < 0.5  # the bound is 4/n

    def test_joint(self, capsys):
        assert run(["exact-tv", "joint-matching-succession", "--n", "6"]) == EXIT_OK

    def test_birthday_triples(self, capsys):
        assert run(["exact-tv", "birthday-triples", "--n", "30", "--k", "9"]) == EXIT_OK

    def test_generalized_matching_deck_of_cards(self, capsys):
        argv = ["exact-tv", "generalized-matching", "--l", ",".join(["4"] * 13)]
        assert run(argv) == EXIT_OK
        assert "verdict: pass" in capsys.readouterr().out

    def test_coupon_theta(self, capsys):
        assert run(["exact-tv", "coupon", "--n", "100", "--theta", "0.5"]) == EXIT_OK

    @pytest.mark.parametrize("n,k", [(50000, 350000), (5000, 23126)])
    def test_coupon_certified_near_cap(self, capsys, n, k):
        # n*exp(-k/n) = 45.6 and 49.0, inside the certified path's cap of 50
        assert run(["exact-tv", "coupon", "--n", str(n), "--k", str(k)]) == EXIT_OK
        assert fields(capsys.readouterr().out)["verdict"] == "pass"

    def test_over_cap_names_the_cap(self, capsys):
        assert run(["exact-tv", "matching", "--n", "9999"]) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"error: point n=9999: matching capped at n={exact_laws.MATCHING_CAP}"
                           " (requested n=9999)\n")


class TestSweepCommand:
    def test_matching_sweep(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["sweep", "matching", "--n", "4..12", "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 9
        assert all(row[9] == "pass" for row in rows)

    def test_random_poisson_binomial_sweep(self, tmp_path):
        out = tmp_path / "pb.csv"
        code = run(
            ["sweep", "poisson-binomial", "--count", "25", "--maxlen", "8",
             "--seed", "7", "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 25

    def test_empty_grid_usage_error(self, tmp_path):
        assert run(["sweep", "matching", "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE

    def test_maxlen_below_one_usage_error(self, capsys):
        argv = ["sweep", "poisson-binomial", "--count", "3", "--maxlen", "0"]
        assert run(argv) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: --maxlen must be >= 1\n"

    @pytest.mark.parametrize("flags, err", [
        (["--count", "0"], "--count must be >= 1"),
        (["--count=-3"], "--count must be >= 1"),
        ([], "poisson-binomial needs --p (or, in sweep, --count)"),
    ])
    def test_count_below_one_usage_error(self, capsys, flags, err):
        assert run(["sweep", "poisson-binomial", *flags]) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {err}\n"

    def test_negative_seed_usage_error(self, capsys):
        assert run(["sweep", "poisson-binomial", "--count", "2", "--seed=-1"]) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: expected non-negative integer\n"

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("kind", ["default", "coupling"])
    def test_seeded_sweep_matches_independent_reference(self, capsys, seed, kind):
        # the benchmark's reference redraws each vector from its own
        # SeedSequence and recomputes law, TV and bound from scratch
        checks = perfbench_module("checks")
        argv = ["sweep", "poisson-binomial", "--count", "300", "--seed", str(seed), "--bound", kind]
        assert run(argv) == EXIT_OK
        got = list(csv.DictReader(capsys.readouterr().out.splitlines()[1:]))
        want = checks.poisson_binomial_rows(seed, 300, 12, kind == "coupling")
        assert len(got) == len(want) == 300
        exact = ("params", "lambda", "bound", "verdict")
        for g, w in zip(got, want):
            assert [g[key] for key in exact] == [w[key] for key in exact]
            assert abs(float(g["exact_tv"]) - float(w["exact_tv"])) <= checks.TV_TOL

    @pytest.mark.parametrize("kind", ["default", "coupling"])
    def test_poisson_binomial_blocks_match_reference(self, capsys, monkeypatch, kind):
        import steinpoisson.cli as cli_mod

        checks = perfbench_module("checks")
        argv = ["sweep", "poisson-binomial", "--count", "60", "--maxlen", "8",
                "--seed", "11", "--bound", kind]
        assert run(argv) == EXIT_OK
        one_block = capsys.readouterr().out

        rows_per_call = []
        real = exact_laws.poisson_binomial_pmf

        def counted(p):
            rows_per_call.append(len(p))
            return real(p)

        monkeypatch.setattr(exact_laws, "poisson_binomial_pmf", counted)
        monkeypatch.setattr(cli_mod, "PB_BLOCK_ENTRIES", 40)
        assert run(argv) == EXIT_OK
        blocks = capsys.readouterr().out
        # at most 40 entries of 2..9 each: many blocks, each with several lengths
        assert sum(rows_per_call) == 60 and len(rows_per_call) > 8
        assert strip_seconds(list(csv.reader(blocks.splitlines()[1:]))) == strip_seconds(
            list(csv.reader(one_block.splitlines()[1:])))
        want = checks.poisson_binomial_rows(11, 60, 8, kind == "coupling")
        attempted, failures = checks.check_output(argv, EXIT_OK, blocks, {"kind": "sweep", "rows": want})
        assert (attempted, failures) == (60, [])

    def test_tagged_points_build_no_params_string(self, capsys, monkeypatch):
        import steinpoisson.cli as cli_mod

        built = []
        real = cli_mod._params_string

        def counted(params):
            built.append(params)
            return real(params)

        monkeypatch.setattr(cli_mod, "_params_string", counted)
        assert run(["sweep", "poisson-binomial", "--count", "4", "--seed", "2"]) == EXIT_OK
        assert run(["sweep", "poisson-binomial", "--p", "uniform:1", "--n", "3,4"]) == EXIT_OK
        assert built == []
        rows = [line.split(",")[1] for line in capsys.readouterr().out.splitlines()
                if line.startswith("poisson-binomial,")]
        assert [tag.split()[0] for tag in rows[:4]] == [f"random#{i}" for i in range(4)]
        assert rows[4:] == ["n=3 recipe=uniform:1", "n=4 recipe=uniform:1"]
        assert run(["sweep", "matching", "--n", "4..6"]) == EXIT_OK
        assert built == [{"n": 4}, {"n": 5}, {"n": 6}]

    def test_underflowing_vector_refused_before_any_record(self, capsys, monkeypatch):
        import dataclasses

        import steinpoisson.cli as cli_mod

        # both vectors would share a block; the second one's target
        # underflows, so the precheck refuses the grid before the first record
        grid = [{"p": (0.5, 0.25), "tag": "small"}, {"p": (1.0,) * 800, "tag": "large"}]
        family = dataclasses.replace(cli_mod.FAMILIES["poisson-binomial"], grid=lambda args: grid)
        monkeypatch.setitem(cli_mod.FAMILIES, "poisson-binomial", family)
        monkeypatch.setattr(exact_laws, "poisson_binomial_pmf", None)  # nothing is evaluated
        assert run(["sweep", "poisson-binomial", "--count", "2"]) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: point large: lam=800.0 too large: exp(-lam) underflows\n"

    @pytest.mark.parametrize("where, reason", [
        ("missing/x.csv", "No such file or directory"), (".", "Is a directory")])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, where, reason):
        path = tmp_path / where
        assert run(["sweep", "matching", "--n", "4", "--out", str(path)]) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: cannot write --out {path}: {reason}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_full_device_is_usage_error(self, capsys, fmt):
        argv = ["sweep", "matching", "--n", "4..6", "--format", fmt, "--out", "/dev/full"]
        assert run(argv) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: cannot write --out /dev/full: No space left on device\n"

    def test_closed_pipe_is_one_usage_line(self):
        # the records far outrun a pipe's buffer, so writing fails once the
        # reader has gone, however fast the sweep runs
        src = os.path.dirname(os.path.dirname(steinpoisson.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        argv = [sys.executable, "-m", "steinpoisson.cli", "sweep", "poisson-binomial",
                "--count", "5000"]
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        assert proc.stdout.readline() == "# schema=stein-poisson-cert-v1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == EXIT_USAGE
        assert err == "error: cannot write stdout: Broken pipe\n"

    def test_point_refusal_comes_before_out_path(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        assert run(["sweep", "matching", "--n", "4,9999", "--out", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: point n=9999: matching capped")

    def test_over_cap_grid_rejected_before_running(self, tmp_path):
        assert (
            run(["sweep", "matching", "--n", "4,9999", "--out", str(tmp_path / "x.csv")])
            == EXIT_USAGE
        )

    def test_determinism_modulo_seconds(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "poisson-binomial", "--count", "10", "--maxlen", "6",
                "--seed", "99"]
        assert run(argv + ["--out", str(a)]) == EXIT_OK
        assert run(argv + ["--out", str(b)]) == EXIT_OK
        assert strip_seconds(read_csv(a)) == strip_seconds(read_csv(b))

    def test_interrupt_flushes_partial_results(self, tmp_path, monkeypatch):
        import steinpoisson.cli as cli_mod

        out = tmp_path / "partial.csv"
        real = cli_mod.compute_record
        calls = {"n": 0}

        def flaky(problem, params, evaluation, tag=None):
            if calls["n"] >= 3:
                raise KeyboardInterrupt
            calls["n"] += 1
            return real(problem, params, evaluation, tag)

        monkeypatch.setattr(cli_mod, "compute_record", flaky)
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "matching", "--n", "4..12", "--out", str(out)])
        rows = read_csv(out)
        assert len(rows) == 3  # completed records survived the interrupt

    def test_json_mirrors_csv(self, tmp_path):
        c, j = tmp_path / "r.csv", tmp_path / "r.json"
        argv = ["sweep", "matching", "--n", "5..7", "--seed", "1"]
        assert run(argv + ["--format", "csv", "--out", str(c)]) == EXIT_OK
        assert run(argv + ["--format", "json", "--out", str(j)]) == EXIT_OK
        rows = read_csv(c)
        payload = json.loads(j.read_text())
        assert payload["schema"] == "stein-poisson-cert-v1"
        assert len(payload["records"]) == len(rows)
        for rec, row in zip(payload["records"], rows):
            assert list(rec.keys()) == CSV_COLUMNS
            # seconds is the only timing field and the only expected difference
            assert [rec[col] for col in CSV_COLUMNS[:-1]] == row[:-1]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_verdicts_counted_as_they_stream(self, tmp_path, monkeypatch, capsys, fmt):
        import steinpoisson.cli as cli_mod

        real = cli_mod.compute_record
        kept = []

        def every_third_fails(problem, params, evaluation, tag=None):
            rec = real(problem, params, evaluation, tag)
            if params["n"] % 3 == 0:
                rec.verdict = "fail"
            return rec

        def write(self, rec):
            real_write(self, rec)
            kept.append(len(self.records))

        real_write = cli_mod.RecordWriter.write
        monkeypatch.setattr(cli_mod, "compute_record", every_third_fails)
        monkeypatch.setattr(cli_mod.RecordWriter, "write", write)
        argv = ["sweep", "matching", "--n", "4..12", "--format", fmt,
                "--out", str(tmp_path / f"r.{fmt}")]
        assert run(argv) == EXIT_FAIL
        assert capsys.readouterr().err == "3/9 dominance verdicts FAILED\n"
        # only JSON, which is dumped whole at the end, holds the records
        assert kept == (list(range(1, 10)) if fmt == "json" else [0] * 9)

    def test_coupling_bound_sweep(self, tmp_path):
        out = tmp_path / "c.csv"
        # negative values need the --flag=value form (argparse limitation)
        code = run(
            ["sweep", "coupon", "--n", "100", "--theta=-0.5,0,0.5",
             "--bound", "coupling", "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 3
        assert all(row[9] == "pass" for row in rows)


#: the text of a record field by the field value's exact type: the
#: reference that ``CertRecord.row`` formats each column as
FIELD_TEXT = {float: repr, str: str, bool: lambda b: "true" if b else "false",
              type(None): lambda _: ""}


class TestCertRecordRow:
    @pytest.mark.parametrize("values", [
        ("matching", "n=8", 1.0, 0.0015, None, None, 0.25, "set_distance", False, "pass", 1e-05),
        ("poisson-binomial", "random#3 len=2", 5e-324, None, 0.125, 2.5e-05, 1.0, "tv", True,
         "fail", 1e16),
        ("coupon", "k=60 n=20", 1e16, 5e-324, 1e-300, 0.0, 5e-324, "tv", True, "pass", 0.0),
        ("p,q", 'a "b"', -0.0, 1.7976931348623157e308, None, 1e16, 0.1, "x", False, "fail",
         123456.789),
    ])
    def test_row_formats_each_field_as_its_type(self, values):
        rec = CertRecord(*values)
        assert rec.row() == [FIELD_TEXT[type(x)](x) for x in vars(rec).values()]
        assert rec.as_dict() == dict(zip(CSV_COLUMNS, rec.row()))


class TestVerifyPairCommand:
    def test_matching_exact(self, capsys):
        assert run(["verify-pair", "matching", "--n", "4", "--exact"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "symmetric: True" in out
        assert "verdict: pass" in out

    def test_birthday_exact(self, capsys):
        assert run(["verify-pair", "birthday-pairs", "--n", "3", "--k", "2", "--exact"]) == EXIT_OK

    def test_monte_carlo(self, capsys):
        code = run(
            ["verify-pair", "coupon", "--n", "20", "--k", "70",
             "--trials", "20000", "--seed", "5"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "monte-carlo" in out

    def test_exact_over_cap(self, capsys):
        assert run(["verify-pair", "matching", "--n", "30", "--exact"]) == EXIT_USAGE

    def test_exact_past_joint_transition_cap_skips_the_joint_check(self, capsys, monkeypatch):
        monkeypatch.setattr(pair_models, "JOINT_TRANSITION_CAP", 1000)
        assert run(["verify-pair", "matching", "--n", "6", "--exact"]) == EXIT_OK
        out = capsys.readouterr().out
        assert ("joint measure check skipped: joint measure enumeration capped at 1000 "
                "transitions (instance has 10800)\n") in out
        assert out.endswith("verdict: pass\n")

    @pytest.mark.parametrize("command", ["verify-pair", "mc-tv"])
    def test_zero_trials_is_usage_error(self, capsys, command):
        assert run([command, "matching", "--n", "50", "--trials", "0"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")


class TestMcTvCommand:
    def test_matching(self, capsys):
        code = run(["mc-tv", "matching", "--n", "40", "--trials", "20000", "--seed", "3"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "mc_tv:" in out
        assert "verdict: pass" in out

    def test_same_seed_same_output(self, capsys):
        argv = ["mc-tv", "birthday-pairs", "--n", "200", "--k", "20", "--trials", "20000",
                "--seed", "4"]
        outs = []
        for _ in range(2):
            assert run(argv) == EXIT_OK
            outs.append([line for line in capsys.readouterr().out.splitlines()
                         if not line.startswith("seconds:")])
        assert outs[0] == outs[1]
        assert any(line.startswith("mc_tv: 0.") for line in outs[0])


#: one small point per family, as flags
POINTS = {
    "matching": ["--n", "8"],
    "generalized-matching": ["--l", "2,2,2"],
    "poisson-binomial": ["--p", "0.1,0.2,0.3"],
    "birthday-pairs": ["--n", "365", "--k", "23"],  # k^2/2n and theta^2/2 differ here
    "birthday-pair-count": ["--n", "30", "--k", "6"],
    "birthday-triples": ["--n", "30", "--k", "9"],
    "coupon": ["--n", "20", "--k", "60"],
    "coloring": ["--n", "8", "--k", "3", "--c", "3"],
    "joint-matching-succession": ["--n", "5"],
    "process-matching": ["--n", "6"],
}


def fields(out):
    """``key: value`` lines of bound / exact-tv / mc-tv output."""
    pairs = (line.split(":", 1) for line in out.splitlines() if ":" in line)
    return {key.strip(): val.strip() for key, val in pairs}


class TestFamilyTable:
    def test_points_cover_every_family(self):
        assert set(POINTS) == set(FAMILIES)

    @pytest.mark.parametrize(
        "problem,kind",
        [(problem, kind) for problem, fam in FAMILIES.items() for kind in fam.bounds],
    )
    def test_bound_and_exact_tv_share_convention(self, capsys, problem, kind):
        flags = POINTS[problem] + ["--bound", kind]
        assert run(["bound", problem] + flags) == EXIT_OK
        bound = fields(capsys.readouterr().out)
        assert run(["exact-tv", problem] + flags) in (EXIT_OK, EXIT_FAIL)
        exact = fields(capsys.readouterr().out)
        assert bound["convention"] == exact["convention"]
        assert float(bound["value"].split()[0]) == float(exact["bound"])
        assert float(bound["lambda"]) == float(exact["lambda"])

    @pytest.mark.parametrize("problem,flags", [
        # a vector whose left-to-right float sum differs from the rate the
        # bound report takes (7.0809999999999995 against 7.081)
        ("poisson-binomial", ["--p", "0.615,0.384,0.997,0.981,0.686,0.65,0.688,0.389,0.135,"
                                     "0.721,0.525,0.31"]),
    ] + [(problem, POINTS[problem]) for problem, fam in FAMILIES.items() if fam.pair_model])
    def test_mc_tv_and_exact_tv_share_lambda(self, capsys, problem, flags):
        assert run(["exact-tv", problem] + flags) in (EXIT_OK, EXIT_FAIL)
        exact = fields(capsys.readouterr().out)
        assert run(["mc-tv", problem] + flags + ["--trials", "10000"]) in (EXIT_OK, EXIT_FAIL)
        mc = fields(capsys.readouterr().out)
        assert mc["lambda"] == exact["lambda"]

    def test_process_matching_bound_is_set_distance(self, capsys):
        assert run(["bound", "process-matching", "--n", "10"]) == EXIT_OK
        out = fields(capsys.readouterr().out)
        assert out["convention"] == "set_distance"
        assert out["as tv"] == "0.2"
        # the bound is not limited by the exact law's cap
        assert run(["bound", "process-matching", "--n", str(exact_laws.MATCHING_CAP + 1)]) == EXIT_OK


class TestGeneralizedMatchingPair:
    def test_mc_tv_uses_generalized_bound(self, capsys):
        argv = ["mc-tv", "generalized-matching", "--l", "4,4", "--trials", "20000", "--seed", "1"]
        assert run(argv) == EXIT_OK
        out = fields(capsys.readouterr().out)
        assert out["lambda"] == "4.0"
        assert out["convention"] == "tv"  # bound_generalized_matching, not 2/n
        assert out["verdict"] == "pass"

    def test_verify_pair_exact(self, capsys):
        assert run(["verify-pair", "generalized-matching", "--l", "2,2,2", "--exact"]) == EXIT_OK
        assert "verdict: pass" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["mc-tv", "matching", "--n", "8", "--l", "4,4", "--trials", "20000", "--seed", "1"],
        ["verify-pair", "matching", "--n", "6", "--l", "2,2,2", "--exact"],
        ["exact-tv", "matching", "--n", "8", "--l", "4,4"],
        ["bound", "coupon", "--n", "20", "--k", "60", "--l", "2,2"],
        ["sweep", "birthday-pairs", "--n", "20", "--k", "5", "--l", "2,2"],
    ])
    def test_l_without_l_axis_is_usage_error(self, capsys, argv):
        assert run(argv) == EXIT_USAGE
        assert "--l" in capsys.readouterr().err


class TestPointFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["mc-tv", "birthday-pairs", "--n", "365", "--k", "23", "--p", "0.9",
          "--trials", "10000"], "--p"),
        (["exact-tv", "matching", "--n", "8", "--theta", "1"], "--theta"),
        (["exact-tv", "coloring", "--n", "8", "--k", "3", "--c", "3", "--theta", "2"], "--theta"),
        (["bound", "poisson-binomial", "--p", "0.5", "--k", "3"], "--k"),
        (["sweep", "generalized-matching", "--l", "2,2", "--n", "4"], "--n"),
        (["verify-pair", "coupon", "--n", "4", "--k", "5", "--c", "2", "--exact"], "--c"),
    ])
    def test_flag_the_family_does_not_read_is_usage_error(self, capsys, argv, flag):
        assert run(argv) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert f"does not read {flag}" in out.err

    def test_explicit_p_list_sweeps_as_one_point(self, capsys):
        assert run(["sweep", "poisson-binomial", "--p", "0.1,0.2"]) == EXIT_OK
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()[1:]))
        assert [row["params"] for row in rows] == ["p=0.1,0.2"]

    @pytest.mark.parametrize("argv, err", [
        (["exact-tv", "poisson-binomial", "--p", "0.1,0.2", "--n", "2"],
         "an explicit --p list takes no --n"),
        (["sweep", "poisson-binomial", "--count", "3", "--n", "5"],
         "--n is read by the --p recipes only"),
    ])
    def test_n_without_a_p_recipe_is_usage_error(self, capsys, argv, err):
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize("argv", [
        ["exact-tv", "matching", "--n", "4..6"],
        ["bound", "birthday-pairs", "--n", "100", "--theta", "0.5,1"],
        ["verify-pair", "generalized-matching", "--l", "2,2", "--l", "3,3", "--exact"],
        ["mc-tv", "poisson-binomial", "--p", "uniform:1", "--n", "3,4", "--trials", "10000"],
    ])
    def test_single_point_subcommands_take_one_point(self, capsys, argv):
        assert run(argv) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert "takes one point" in out.err

    def test_single_point_recipe_drops_its_tag(self, capsys):
        argv = ["mc-tv", "poisson-binomial", "--p", "uniform:1", "--n", "4", "--trials", "10000"]
        assert run(argv) == EXIT_OK
        assert fields(capsys.readouterr().out)["params"] == "p=0.25,0.25,0.25,0.25"

    @pytest.mark.parametrize("argv", [
        ["sweep", "birthday-pair-count", "--n", "10,11", "--k", "2,1"],
        ["exact-tv", "birthday-pairs", "--n", "10", "--k", "0"],
    ])
    def test_zero_rate_points_refused_before_output(self, capsys, argv):
        assert run(argv) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert "lam must be a positive finite real" in out.err

    def test_bound_still_reports_a_zero_rate(self, capsys):
        assert run(["bound", "birthday-pair-count", "--n", "10", "--k", "1"]) == EXIT_OK
        assert fields(capsys.readouterr().out)["degenerate"] == "true"

    def test_precheck_error_names_the_point_briefly(self, capsys):
        argv = ["sweep", "poisson-binomial", "--p", "uniform:746", "--n", "745..747"]
        assert run(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "n=745 recipe=uniform:746" in err
        assert len(err) < 200


class TestDispatchHoles:
    def test_unsupported_bound_kind_exits_2(self, capsys, tmp_path):
        argv = ["exact-tv", "matching", "--n", "10", "--bound", "negative-association"]
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr().out == ""
        out = tmp_path / "s.csv"
        argv = ["sweep", "matching", "--n", "4..6", "--bound", "negative-association"]
        assert run(argv + ["--out", str(out)]) == EXIT_USAGE
        assert not out.exists()  # rejected before any record is written

    def test_joint_point_outside_bound_domain_refused_before_output(self, capsys):
        # the law takes n = 2, but the bound needs n >= 3
        assert feasibility_error("joint-matching-succession", {"n": 2})
        assert run(["sweep", "joint-matching-succession", "--n", "2..4"]) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: point n=2: joint fixed-point/succession bound needs n >= 3\n"

    def test_theta_scales_k_for_every_scaled_family(self, capsys):
        assert run(["exact-tv", "birthday-pairs", "--n", "100", "--theta", "1"]) == EXIT_OK
        assert fields(capsys.readouterr().out)["params"] == "k=10 n=100"
        assert run(["exact-tv", "birthday-triples", "--n", "64", "--theta", "0.5"]) == EXIT_OK
        assert fields(capsys.readouterr().out)["params"] == "k=8 n=64"

    def test_bound_covers_every_family_by_kind(self, capsys):
        assert run(["bound", "birthday-pair-count", "--n", "100", "--k", "10"]) == EXIT_OK
        assert fields(capsys.readouterr().out)["theorem_id"] == "coupling_birthday"
        argv = ["bound", "coupon", "--n", "100", "--k", "500", "--bound", "coupling"]
        assert run(argv) == EXIT_OK
        assert fields(capsys.readouterr().out)["theorem_id"] == "coupling_coupon"
        # the old pseudo-problem and its flag are gone
        assert run(["bound", "coupling", "--n", "10"]) == EXIT_USAGE


#: one over-cap point per family with a cap, and the law call that refuses it;
#: poisson-binomial has no cap
OVER_CAP = {
    "matching": ({"n": 501}, lambda: exact_laws.matching_pmf(exact_laws.MatchingSpec(501))),
    "generalized-matching": (
        {"l": (2,) * 250 + (1,)},
        lambda: exact_laws.matching_pmf(exact_laws.MatchingSpec(501, (2,) * 250 + (1,))),
    ),
    "birthday-pairs": (
        {"n": 10_000, "k": 2000},
        lambda: exact_laws.occupancy_pmf(exact_laws.OccupancySpec(10_000, 2000, "pairs")),
    ),
    "birthday-pair-count": (
        {"n": 1000, "k": 300},
        lambda: exact_laws.occupancy_pmf(exact_laws.OccupancySpec(1000, 300, "pair_count")),
    ),
    "birthday-triples": (
        {"n": 4000, "k": 300},
        lambda: exact_laws.occupancy_pmf(exact_laws.OccupancySpec(4000, 300, "triples")),
    ),
    "coupon": (
        {"n": 5000, "k": 100},
        lambda: exact_laws.occupancy_pmf(exact_laws.OccupancySpec(5000, 100, "empty")),
    ),
    "coloring": (
        {"n": 60, "k": 5, "c": 100},
        lambda: exact_laws.coloring_pmf(exact_laws.ColoringSpec(60, 5, 100)),
    ),
    "joint-matching-succession": (
        {"n": multivariate.JOINT_CAP + 1},
        lambda: multivariate.joint_fixed_point_succession_pmf(multivariate.JOINT_CAP + 1),
    ),
    "process-matching": (
        {"n": exact_laws.MATCHING_CAP + 1},
        lambda: multivariate.matching_config_law(exact_laws.MATCHING_CAP + 1),
    ),
}


def test_over_cap_points_cover_capped_families():
    assert set(OVER_CAP) == set(FAMILIES) - {"poisson-binomial"}


@pytest.mark.parametrize("problem", sorted(OVER_CAP))
def test_over_cap_rejected_by_precheck_and_law_alike(problem):
    point, law = OVER_CAP[problem]
    message = feasibility_error(problem, point)
    assert message
    with pytest.raises(ValueError) as exc:
        law()
    assert str(exc.value) == message


#: an integer with 401 digits, past the float range
HUGE = "1" + "0" * 400


@pytest.mark.parametrize("command, err", [
    # in range, but its state count is past the float range
    ("exact-tv coloring --n 2000 --k 500 --c 2", None),
    ("bound coloring --n 2000 --k 500 --c 2", None),
    # the parser refuses the value itself, naming its flag
    (f"bound matching --n {HUGE}", "--n: a 401-digit integer is past the float range"),
    (f"exact-tv birthday-pairs --n {HUGE} --k 2",
     "--n: a 401-digit integer is past the float range"),
    (f"exact-tv coupon --n {HUGE} --k 3", "--n: a 401-digit integer is past the float range"),
    (f"mc-tv matching --n {HUGE} --trials 10000",
     "--n: a 401-digit integer is past the float range"),
])
def test_integer_past_float_range_is_usage_error(capsys, command, err):
    assert exit_code(shlex.split(command)) == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")
    assert out.err.count("\n") == 1 and out.err.endswith("\n")
    if err is not None:
        assert out.err == f"error: {err}\n"


@pytest.mark.parametrize("flags, flag", [
    (["exact-tv", "birthday-pairs", "--n", "10", "--k", HUGE], "--k"),
    (["exact-tv", "coloring", "--n", "10", "--k", "2", "--c", HUGE], "--c"),
    (["exact-tv", "generalized-matching", "--l", f"2,{HUGE}"], "--l"),
    (["exact-tv", "poisson-binomial", "--p", "harmonic", "--n", HUGE], "--n"),
    (["exact-tv", "matching", "--n", f"1..{HUGE}"], "--n"),  # not expanded first
])
def test_every_integer_flag_names_itself_past_the_float_range(capsys, flags, flag):
    assert run(flags) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {flag}: a 401-digit integer is past the float range\n"


#: each refusal rule with one owner, and the one line it prints
OWNED_REFUSALS = [
    # the allocation engine's cap, for occupancy counts and colorings alike
    ("exact-tv birthday-triples --n 4000 --k 126",
     "point k=126 n=4000: allocation engine needs ~2.54e+08 states (cap 1e+08)"),
    ("exact-tv coloring --n 100 --k 3 --c 10",
     "point c=10 k=3 n=100: allocation engine needs ~1.62e+08 states (cap 1e+08)"),
    # the empty-box route
    ("exact-tv coupon --n 5000 --k 100",
     "point k=100 n=5000: empty-box law infeasible: exact path needs about 370-digit integers "
     "over 5001 support points (caps: n<=400, 20000 digits) and the certified path needs "
     "n*exp(-k/n) <= 50.0 (got 4.9e+03)"),
    # the pair-enumeration cap
    ("verify-pair matching --n 30 --exact",
     "instance is not enumerable: 2.653e+32 states, 1.154e+35 transitions (caps 4e+05 / 3e+07)"),
    # the probability rule, from the precheck and from the bound
    ("exact-tv poisson-binomial --p 0.5,1.5",
     "point p=0.5,1.5: success probabilities must lie in [0, 1]"),
    ("bound poisson-binomial --p 0.5,1.5", "success probabilities must lie in [0, 1]"),
]


@pytest.mark.parametrize("command, err", OWNED_REFUSALS)
def test_each_refusal_prints_its_owner_line(capsys, command, err):
    assert run(shlex.split(command)) == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {err}\n"


def test_insertion_reach_past_the_join_count(capsys):
    # the joins would need 9.80e+08 states; ball insertion reads ~2.35e+06 values
    assert run(shlex.split("exact-tv birthday-triples --n 1000 --k 50")) == 0
    assert "verdict: pass" in capsys.readouterr().out


def test_over_cap_state_count_is_exact():
    message = feasibility_error("coloring", {"n": 2000, "k": 500, "c": 2})
    assert message == "allocation engine needs ~2.26e+490 states (cap 1e+08)"


def test_imports_without_mpmath():
    src = os.path.dirname(os.path.dirname(steinpoisson.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = 'import sys; sys.modules["mpmath"] = None; import steinpoisson.cli'
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestFlagsReadOnly:
    POINT_FLAGS = {"--n", "--k", "--c", "--theta", "--l", "--p"}

    def test_each_subcommand_has_only_the_flags_it_reads(self):
        [subs] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {name: {opt for action in sub._actions for opt in action.option_strings
                        if opt.startswith("--") and opt != "--help"}
                 for name, sub in subs.choices.items()}
        assert flags == {
            "bound": {"--bound"} | self.POINT_FLAGS,
            "exact-tv": {"--bound"} | self.POINT_FLAGS,
            "mc-tv": {"--trials", "--seed"} | self.POINT_FLAGS,
            "sweep": {"--bound", "--count", "--maxlen", "--format", "--out", "--seed"}
            | self.POINT_FLAGS,
            "verify-pair": {"--exact", "--trials", "--seed"} | self.POINT_FLAGS,
        }
        assert sum(map(len, flags.values())) == 43

    @pytest.mark.parametrize("command, err", [
        # a flag that another flag leaves unread
        ("exact-tv birthday-pairs --n 100 --k 10 --theta 3",
         "birthday-pairs does not read --theta with --k"),
        ("sweep birthday-triples --n 64 --k 8 --theta 0.5",
         "birthday-triples does not read --theta with --k"),
        ("mc-tv coupon --n 100 --k 500 --theta 1 --trials 1000",
         "coupon does not read --theta with --k"),
        ("sweep poisson-binomial --p 0.1,0.2 --count 5",
         "poisson-binomial does not read --count with --p"),
        ("sweep poisson-binomial --p uniform:1 --n 3,4 --maxlen 4",
         "poisson-binomial does not read --maxlen with --p"),
        ("verify-pair matching --n 6 --exact --trials 1000",
         "matching does not read --trials with --exact"),
        # random-grid flags of a family without a random grid
        ("sweep matching --n 4 --count 5", "matching does not read --count"),
        ("sweep coupon --n 10 --theta 1 --maxlen 4", "coupon does not read --maxlen"),
        ("sweep coloring --n 8 --k 3 --c 3 --theta 1", "coloring does not read --theta"),
        # flags no longer in the subcommand's parser
        ("bound matching --n 100 --convention tv", "unrecognized arguments: --convention tv"),
        ("sweep matching --n 4..6 --convention set", "unrecognized arguments: --convention set"),
        ("bound matching --n 100 --seed 1", "unrecognized arguments: --seed 1"),
        ("exact-tv matching --n 8 --seed 1", "unrecognized arguments: --seed 1"),
        # points refused by the precheck, with no hint that does not apply
        ("exact-tv matching --n 1", "point n=1: matching bound needs n >= 2"),
        ("exact-tv poisson-binomial --p uniform:720 --n 1000", "too large: exp(-lam) underflows"),
        ("sweep poisson-binomial --p uniform:740 --n 1000", "too large: exp(-lam) underflows"),
        # a recipe's --n below 1, and a --p word that is no float, name their flag
        ("exact-tv poisson-binomial --p uniform:1 --n -3",
         "error: --n must be >= 1 for the --p recipes (got -3)\n"),
        ("exact-tv poisson-binomial --p 0.5,abc", "error: --p '0.5,abc': 'abc' is not a float\n"),
        # --seed that --exact leaves unread, and point lists that are no grid
        ("verify-pair matching --n 6 --exact --seed 5", "matching does not read --seed with --exact"),
        ("sweep matching --n 10..5,20", "reversed range '10..5' in '10..5,20'"),
        ("sweep coupon --n 10 --theta inf", "not a list of finite floats: 'inf'"),
        ("sweep coupon --n 10 --theta 1,nan", "not a list of finite floats: '1,nan'"),
        # a finite --theta whose k overflows
        ("sweep coupon --n 10 --theta 1e308", "--theta 1e308 gives coupon no finite k"),
        ("sweep birthday-pairs --n 10 --theta 1e308",
         "--theta 1e308 gives birthday-pairs no finite k"),
        ("sweep coupon --n 10 --theta=-1e308", "--theta -1e308 gives coupon no finite k"),
    ])
    def test_refusal_exits_2_before_output(self, capsys, command, err):
        assert exit_code(shlex.split(command)) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert err in out.err
        assert "mc-tv for" not in out.err
        if "does not read" in err:
            assert out.err == f"error: {err}\n"

    def test_seed_default_applied_where_read(self, capsys):
        argv = ["verify-pair", "matching", "--n", "6", "--trials", "10000"]
        assert run(argv) == EXIT_OK
        default = capsys.readouterr().out
        assert run(argv + ["--seed", str(DEFAULT_SEED)]) == EXIT_OK
        assert capsys.readouterr().out == default
        # a sweep without a random grid still takes --seed
        assert run(["sweep", "matching", "--n", "4", "--seed", "3"]) == EXIT_OK

    @pytest.mark.parametrize("argv, report, other", [
        (["bound", "poisson-binomial", "--p", "0.1,0.2"],
         bounds.bound_poisson_binomial((0.1, 0.2)), "set_distance"),
        (["bound", "matching", "--n", "100"], bounds.bound_matching(100), "tv"),
    ])
    def test_bound_prints_both_conventions(self, capsys, argv, report, other):
        assert run(argv) == EXIT_OK
        out = fields(capsys.readouterr().out)
        assert out["convention"] == report.convention != other
        assert float(out["value"].split()[0]) == report.value
        assert float(out[f"as {other}"]) == report.in_convention(other)
        assert not any(key.startswith("requested") for key in out)


def readme_cli_commands():
    """The argument lists of the ``stein-poisson`` lines of README's CLI block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("stein-poisson ")]


def test_readme_cli_examples_build_their_points():
    # parse and grid only: no law, bound or record is evaluated
    commands = readme_cli_commands()
    assert len(commands) >= 12
    for argv in commands:
        args = build_parser().parse_args(argv)
        grid = build_grid(args.problem, args)
        assert len(grid) == 1 or args.command == "sweep", argv


#: the theorem that each family's bound kind reports at its ``POINTS`` point
THEOREM_IDS = {
    ("matching", "default"): "matching_fixed_points",
    ("matching", "coupling"): "coupling_matching",
    ("generalized-matching", "default"): "generalized_matching",
    ("poisson-binomial", "default"): "poisson_binomial_independent",
    ("poisson-binomial", "coupling"): "coupling_poisson_binomial",
    ("birthday-pairs", "default"): "birthday_pairs",
    ("birthday-pair-count", "default"): "coupling_birthday",
    ("birthday-pair-count", "coupling"): "coupling_birthday",
    ("birthday-triples", "default"): "birthday_triples_surrogate",
    ("coupon", "default"): "coupon_collector_chain",
    ("coupon", "coupling"): "coupling_coupon",
    ("coupon", "negative-association"): "negative_association",
    ("coloring", "default"): "monochromatic_tuples",
    ("joint-matching-succession", "default"): "joint_fixed_point_succession",
    ("process-matching", "default"): "config_matching",
}

#: small values of each point axis; a family's grid is their product over its axes
AXIS_VALUES = {
    "n": (1, 2, 3, 4, 5, 7, 10),
    "k": (0, 1, 2, 3, 4, 6, 9, 13),
    "c": (1, 2, 3),
    "l": ((1,), (2,), (1, 1), (2, 1), (3, 1, 2), (2, 2, 2)),
    "p": ((0.0,), (0.3,), (1.0,), (0.1, 0.9), (1.0, 1.0), (0.0, 0.5, 0.2)),
}


class TestBoundDomains:
    """Each bound owns its domain: the precheck asks the point's own bound
    and its Poisson rate, never a copy of either."""

    def test_theorem_ids_cover_every_kind(self):
        assert set(THEOREM_IDS) == {(problem, kind) for problem, fam in FAMILIES.items()
                                    for kind in fam.bounds}

    @pytest.mark.parametrize("problem, kind", sorted(THEOREM_IDS))
    def test_theorem_id_of_each_kind(self, capsys, problem, kind):
        assert run(["bound", problem, *POINTS[problem], "--bound", kind]) == EXIT_OK
        assert fields(capsys.readouterr().out)["theorem_id"] == THEOREM_IDS[problem, kind]

    @pytest.mark.parametrize("problem, kind", sorted(THEOREM_IDS))
    def test_report_of_each_kind_equals_its_constructed_report(self, problem, kind):
        args = build_parser().parse_args(["bound", problem, *POINTS[problem]])
        [point] = build_grid(problem, args)
        report = FAMILIES[problem].bounds[kind](point)
        built = bounds.BoundReport(**{f.name: getattr(report, f.name)
                                      for f in dataclasses.fields(bounds.BoundReport)})
        assert type(report) is bounds.BoundReport
        assert report == built and repr(report) == repr(built)
        assert list(vars(report)) == list(vars(built))
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.lam = 2.0

    def test_every_accepted_point_is_certified(self):
        failed, certified = [], 0
        for problem, fam in FAMILIES.items():
            grid = [dict(zip(fam.axes, combo))
                    for combo in product(*(AXIS_VALUES[axis] for axis in fam.axes))]
            for kind, bound in fam.bounds.items():
                accepted = [pt for pt in grid if feasibility_error(problem, pt, bound) is None]
                for rec in _certify(problem, accepted, bound):
                    certified += 1
                    if rec.verdict != "pass":
                        failed.append((problem, kind, rec.params))
        assert certified > 300
        assert failed == []

    @pytest.mark.parametrize("problem", ["birthday-pairs", "birthday-pair-count",
                                         "birthday-triples"])
    def test_bounds_past_one_more_ball_than_boxes_are_one(self, problem):
        # a birthday point joins its tables only when k > n + 1 (below that
        # it inserts its balls), and there each bound kind prints exactly 1.0,
        # so no verdict rests on those joins.  A new kind (say two-moment or
        # negative association) may be below 1 there: when one is, time the
        # joins of those points before a verdict relies on them.
        fam = FAMILIES[problem]
        points = [{"n": n, "k": k} for n in range(2, 41) for k in range(n + 2, n + 61)]
        for kind in ("default", "coupling"):
            bound = fam.bounds.get(kind)
            if bound is None:
                continue
            admitted = [pt for pt in points if feasibility_error(problem, pt, bound) is None]
            assert len(admitted) > 1000
            assert [pt for pt in admitted if bound(pt).value != 1.0] == []

    @pytest.mark.parametrize("command, err", [
        # rates past stein_core.MAX_LAM, once refused only when the target was built
        ("sweep birthday-pairs --n 100 --k 10,400",
         "point k=400 n=100: lam=800.0 too large: exp(-lam) underflows"),
        ("sweep birthday-pair-count --n 20 --k 5,200",
         "point k=200 n=20: lam=995.0 too large: exp(-lam) underflows"),
        ("sweep coloring --n 10,45 --k 2 --c 1",
         "point c=1 k=2 n=45: lam=990.0 too large: exp(-lam) underflows"),
        # one ball: W = n - 1 for sure, so sigma^2 = 0
        ("sweep coupon --bound negative-association --n 10 --k 2,1",
         "point k=1 n=10: sigma2 must be positive"),
        # W = 1 for sure, and the coupling value 0.474 is below the TV 0.632
        ("exact-tv coupon --n 2 --k 1 --bound coupling",
         "point k=1 n=2: coupon coupling needs n >= 3 boxes and k >= 1 balls"),
        ("bound coupon --n 2 --k 1 --bound coupling",
         "coupon coupling needs n >= 3 boxes and k >= 1 balls"),
        # the chain's rate exp(-theta) underflows to 0, once a ZeroDivisionError
        ("exact-tv coupon --n 3 --k 5000", "point k=5000 n=3: lam must be a positive finite real"),
        ("sweep coupon --n 3 --k 10,5000", "point k=5000 n=3: lam must be a positive finite real"),
        ("bound coupon --n 3 --k 5000", "lam must be a positive finite real"),
        ("bound coupon --n 1000 --k 100", "lam=904.8374180359589 too large: exp(-lam) underflows"),
    ])
    def test_refused_before_output(self, capsys, command, err):
        assert run(shlex.split(command)) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {err}\n"

    def test_default_kind_without_a_bound(self):
        assert feasibility_error("coupon", {"n": 10, "k": 1}) is None
        assert feasibility_error("coupon", {"n": 10, "k": 1},
                                 FAMILIES["coupon"].bounds["negative-association"])
