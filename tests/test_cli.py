import csv
import json

import pytest

from steinpoisson import exact_laws, multivariate
from steinpoisson.cli import (
    CSV_COLUMNS,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    FAMILIES,
    feasibility_error,
    main,
    parse_int_list,
    parse_p_vector,
)


def run(argv, capsys=None):
    code = main(argv)
    return code


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
        assert parse_int_list("4..7,10") == [4, 5, 6, 7, 10]
        assert parse_int_list("3") == [3]

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

    def test_over_cap_suggests_mc(self, capsys):
        assert run(["exact-tv", "matching", "--n", "9999"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "mc-tv" in err


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

        def flaky(problem, params, bound_kind="default"):
            if calls["n"] >= 3:
                raise KeyboardInterrupt
            calls["n"] += 1
            return real(problem, params, bound_kind)

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

        def every_third_fails(problem, params, bound_kind="default"):
            rec = real(problem, params, bound_kind)
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
        assert capsys.readouterr().out == ""

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
        {"n": 10_000, "k": 300},
        lambda: exact_laws.occupancy_pmf(exact_laws.OccupancySpec(10_000, 300, "pairs")),
    ),
    "birthday-pair-count": (
        {"n": 1000, "k": 100},
        lambda: exact_laws.occupancy_pmf(exact_laws.OccupancySpec(1000, 100, "pair_count")),
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
        {"n": 40, "k": 5, "c": 100},
        lambda: exact_laws.coloring_pmf(exact_laws.ColoringSpec(40, 5, 100)),
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
