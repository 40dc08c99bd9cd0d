"""CLI behaviors: exit codes, report formats, determinism, config merging."""

import argparse
import json
import time

import pytest

from polysieve import cli
from polysieve.cli import main


def read_csv(path):
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    return comments, body


def strip_volatile_json(doc):
    doc = dict(doc)
    doc.pop("generated_at", None)
    doc["results"] = [{k: v for k, v in r.items() if k != "wall_time"}
                      for r in doc["results"]]
    return doc


class TestFourierScan:
    def test_basic_grid(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(["fourier-scan", "--p", "3,5,7", "--n", "3",
                   "--rule", "mobius-half", "--out", str(out)])
        assert rc == 0
        comments, body = read_csv(out)
        assert any("config:" in c for c in comments)
        assert body[0].startswith("p,n,mode,rule,zero_phase")
        assert len(body) == 4
        for line in body[1:]:
            assert line.split(",")[4] == "0.5"

    def test_empty_grid(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(["fourier-scan", "--p", "", "--out", str(out)])
        assert rc == 0
        _, body = read_csv(out)
        assert len(body) == 1  # header only

    def test_small_budget_still_exhaustive(self, tmp_path):
        # the budget charges the table build and its FFT (30,870 here), not a
        # quadratic scan of 343^2 = 117,649
        out = tmp_path / "scan.csv"
        rc = main(["fourier-scan", "--p", "7", "--n", "3", "--rule", "squarefree",
                   "--budget", "50000", "--out", str(out)])
        assert rc == 0
        _, body = read_csv(out)
        assert body[1].endswith(",exhaustive")

    def test_budget_refusal(self, tmp_path):
        rc = main(["fourier-scan", "--p", "7", "--n", "3", "--budget", "10",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3

    def test_budget_charges_transform_cost(self, tmp_path):
        # building the table splits 343 cubics at 3^3 * ceil(log2 7) each
        # (27,783); transforming it costs 343 * ceil(log2 343) = 3087
        argv = ["fourier-scan", "--p", "7", "--n", "3", "--out", str(tmp_path / "x.csv")]
        assert main(argv + ["--budget", "30870"]) == 0
        assert main(argv + ["--budget", "30869"]) == 3

    def test_table_build_cost_refused(self, tmp_path, capsys):
        # 61^4 = 1.4e7 monic quartics cost 61^4 * 4^3 * 6 = 5.3e9 to
        # classify, over the 2e9 default, though their FFT costs only 3.3e8
        started = time.perf_counter()
        rc = main(["fourier-scan", "--p", "61", "--n", "4", "--mode", "monic",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith("budget refusal:") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_oversized_table_refused(self, tmp_path, capsys):
        # 61^5 = 8.4e8 entries cost 2.5e10 to transform, over the 2e9 default
        started = time.perf_counter()
        rc = main(["fourier-scan", "--p", "61", "--n", "4", "--mode", "general",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith("budget refusal:") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["fourier-scan", "--p", "3,5", "--n", "3", "--seed", "9"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        _, body_a = read_csv(a)
        _, body_b = read_csv(b)
        assert body_a == body_b


class TestSieveVerify:
    def test_small_grid_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        rc = main(["sieve-verify", "--n", "3", "--H", "3", "--D", "1,4",
                   "--mode", "both", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        assert len(doc["results"]) == 4
        for r in doc["results"]:
            assert r["margin"] >= -1e-9
            assert set(r) >= {"n", "H", "D", "mode", "lhs", "rhs", "margin", "wall_time"}

    def test_bad_level_usage_error(self, tmp_path):
        rc = main(["sieve-verify", "--n", "3", "--H", "3", "--D", "0",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_normalized_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["sieve-verify", "--n", "3", "--H", "3", "--D", "4", "--mode", "monic"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        da = strip_volatile_json(json.loads(a.read_text()))
        db = strip_volatile_json(json.loads(b.read_text()))
        assert da == db

    def test_budget_refusal(self, tmp_path):
        rc = main(["sieve-verify", "--n", "3", "--H", "8", "--D", "10",
                   "--mode", "general", "--budget", "1000",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 3


class TestCount:
    def test_an_count_slope_and_theory(self, tmp_path):
        out = tmp_path / "count.csv"
        rc = main(["count", "--kind", "an-count", "--n", "3", "--H", "5,10",
                   "--mode", "monic", "--out", str(out)])
        assert rc == 0
        _, body = read_csv(out)
        assert body[0] == "n,H,mode,count,weighted_sum,slope,theory_exponent"
        assert len(body) == 3
        first = body[1].split(",")
        second = body[2].split(",")
        assert first[5] == ""  # no slope for the first height
        assert float(second[5]) > 0
        assert float(first[6]) == 2.5

    def test_an_count_rejects_quadratics(self, tmp_path):
        rc = main(["count", "--kind", "an-count", "--n", "2",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_almost_prime(self, tmp_path):
        out = tmp_path / "ap.csv"
        rc = main(["count", "--kind", "almost-prime", "--n", "3", "--H", "5,10",
                   "--r", "3", "--out", str(out)])
        assert rc == 0
        _, body = read_csv(out)
        assert body[0] == "n,H,r,count,normalized,slope,theory_exponent"
        assert len(body) == 3
        assert int(body[1].split(",")[3]) > 0

    def test_almost_prime_beyond_int64_refused(self, tmp_path, capsys):
        # degree-10 discriminants of height-3 boxes can leave the int64 range
        rc = main(["count", "--kind", "almost-prime", "--n", "10", "--H", "3",
                   "--r", "3", "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("budget refusal:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_almost_prime_bareiss_cost_refused(self, tmp_path, capsys):
        # 61^4 = 13.8M quartics fit a 2e9 point budget, but at 7^3 per
        # Bareiss determinant they cost 4.7e9
        started = time.perf_counter()
        rc = main(["count", "--kind", "almost-prime", "--n", "4", "--H", "30",
                   "--r", "3", "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith("budget refusal:") and err.count("\n") == 1


class TestAdmissibility:
    def test_table(self, tmp_path):
        out = tmp_path / "adm.csv"
        rc = main(["admissibility", "--n", "3", "--r", "1,2,3,4",
                   "--out", str(out)])
        assert rc == 0
        _, body = read_csv(out)
        assert body[0] == "n,r,delta_r,density_exponent,admissible"
        rows = [line.split(",") for line in body[1:]]
        admissible = {int(r[1]): int(r[4]) for r in rows}
        assert admissible == {1: 0, 2: 0, 3: 1, 4: 1}


class TestExponents:
    def test_rows(self, tmp_path):
        out = tmp_path / "exp.csv"
        rc = main(["exponents", "--n", "3", "--cn", "1", "--out", str(out)])
        assert rc == 0
        _, body = read_csv(out)
        table = {r.split(",")[1]: r.split(",")[2] for r in body[1:]}
        assert table["hit_exponent_monic"] == "5/2"
        assert table["hit_exponent_general"] == "7/2"
        assert table["field_count_exponent"] == "3/5"


class TestPoissonCheck:
    def test_small_grid(self, tmp_path):
        out = tmp_path / "poisson.csv"
        rc = main(["poisson-check", "--n", "3", "--d", "1,5", "--H", "4",
                   "--mode", "monic", "--rule", "both", "--out", str(out)])
        assert rc == 0
        _, body = read_csv(out)
        assert len(body) == 5
        for line in body[1:]:
            assert float(line.split(",")[-1]) <= 1e-6

    def test_budget_charges_both_contractions(self, tmp_path, capsys):
        # d=30 monic n=3, split 6 * 5: two contractions of 3,071 plus the
        # p = 2, 3, 5 table builds (216 + 1,458 + 10,125) and transforms
        # (24 + 135 + 875) cost 18,975
        argv = ["poisson-check", "--n", "3", "--d", "30", "--H", "4",
                "--mode", "monic", "--rule", "mobius-half",
                "--out", str(tmp_path / "p.csv")]
        assert main(argv + ["--budget", "18975"]) == 0
        assert main(argv + ["--budget", "18974"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("budget refusal:") and err.count("\n") == 1


class TestConfigFile:
    def test_config_fills_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("p=3\nn=3\nrule=mobius-half\n")
        out = tmp_path / "a.csv"
        rc = main(["fourier-scan", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        _, body = read_csv(out)
        assert len(body) == 2 and body[1].startswith("3,3,monic")
        # now override p from the command line
        out2 = tmp_path / "b.csv"
        rc = main(["fourier-scan", "--config", str(cfg), "--p", "5",
                   "--out", str(out2)])
        assert rc == 0
        _, body2 = read_csv(out2)
        assert body2[1].startswith("5,3,monic")

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("just some words\n")
        rc = main(["fourier-scan", "--config", str(cfg)])
        assert rc == 2

    @pytest.mark.parametrize("text", ["sigma=2\n", "p=3\nbogus=1\n", "mode=bogus\n"])
    def test_key_or_value_not_taken_exits_two(self, tmp_path, capsys, text):
        # fourier-scan takes no sigma: a config key is held to the flag set
        cfg = tmp_path / "run.conf"
        cfg.write_text(text)
        out = tmp_path / "x.csv"
        assert main(["fourier-scan", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()

    def test_config_echoed_in_header(self, tmp_path):
        out = tmp_path / "a.csv"
        main(["fourier-scan", "--p", "3", "--n", "3", "--out", str(out)])
        comments, _ = read_csv(out)
        config_line = next(c for c in comments if c.startswith("# config:"))
        assert "p=3" in config_line and "rule=mobius-half" in config_line


class TestUsage:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["fourier-scan", "--bogus", "1"])
        assert exc.value.code == 2

    def test_flags_are_the_defaults_keys(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(cli._COMMANDS)
        for name, parser in sub.choices.items():
            flags = {o for a in parser._actions for o in a.option_strings}
            defaults = cli._COMMANDS[name][1]
            assert flags - {"-h", "--help"} == {"--config"} | {f"--{k}" for k in defaults}

    @pytest.mark.parametrize("argv", [["exponents", "--budget", "1"],
                                      ["admissibility", "--seed", "1"],
                                      ["fourier-scan", "--sigma", "2"],
                                      ["count", "--sigma", "2"]])
    def test_flag_the_report_ignores_exits_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["sieve-verify", "--n", "3", "--H", "3", "--D", "1", "--sigma", "0"],
        ["count", "--kind", "almost-prime", "--H", "5", "--mode", "general"],
        ["count", "--kind", "almost-prime", "--H", "5", "--mode", "both"],
    ])
    def test_input_never_silently_replaced(self, tmp_path, capsys, argv):
        # sigma 0 once ran at sigma 1; almost-prime counts are monic only
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()

    def test_sigma_overflow_is_usage_error(self, tmp_path, capsys):
        # exp(pi*dim/sigma^2) once overflowed into an internal error (exit 4)
        out = tmp_path / "x"
        rc = main(["sieve-verify", "--n", "3", "--H", "3", "--D", "1",
                   "--sigma", "0.01", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: sigma 0.01 is too small")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_missing_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_tolerance_failure_exits_one(self, tmp_path, monkeypatch):
        # fault injection: make one dual-sum check report a large mismatch
        import polysieve.charsum as charsum_mod
        from polysieve.charsum import PoissonReport

        monkeypatch.setattr(charsum_mod, "poisson_check",
                            lambda *a, **k: PoissonReport(1.0, 2.0, 1.0))
        rc = main(["poisson-check", "--n", "3", "--d", "1", "--H", "4",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_unexpected_error_exits_four(self, tmp_path, monkeypatch, capsys):
        import polysieve.almostprime as almostprime_mod

        def boom(*_a, **_k):
            raise RuntimeError("boom")

        monkeypatch.setattr(almostprime_mod, "admissibility", boom)
        rc = main(["admissibility", "--n", "3", "--r", "1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 4
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
