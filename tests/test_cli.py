"""CLI behaviors: exit codes, report formats, determinism, config merging."""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from polysieve import _ints, almostprime, charsum, cli, sieve, zpoly
from polysieve._ints import omega_batch
from polysieve.cli import DEFAULT_BUDGET, main


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
        # building the table classifies 343 cubics at 3^3 * ceil(log2 7) each
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

    @pytest.mark.parametrize("p", ["1", "4", "0", "-3"])
    def test_non_prime_modulus_is_usage_error(self, tmp_path, capsys, p):
        rc = main(["fourier-scan", "--p", p, "--n", "3",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert f"p={p}" in err
        assert not (tmp_path / "x.csv").exists()

    def test_degree_zero_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["fourier-scan", "--p", "3", "--n", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "n=0" in err and "Traceback" not in err
        assert not out.exists()


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

    def test_prime_above_table_cap_refused_at_once(self, tmp_path, capsys):
        # p = 89 over the dim-4 bound of 84: once refused after minutes of
        # table builds, though the estimate is within the budget
        out = tmp_path / "x.json"
        started = time.perf_counter()
        rc = main(["sieve-verify", "--n", "4", "--H", "1", "--D", "89", "--mode", "monic",
                   "--budget", "10000000000000", "--out", str(out)])
        assert rc == 3
        assert time.perf_counter() - started < 1.0
        assert "prime factor above 84" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sigma, code, message", [
        ("1e150", 3, "int64"),
        ("1e160", 3, "int64"),             # sigma^2 overflows: once exit 2, "too small"
        ("1e300", 3, "int64"),
        ("1e308", 3, "not finite"),        # sigma * H overflows too
        ("0.01", 2, "too small"),
    ])
    def test_sigma_extremes(self, tmp_path, capsys, sigma, code, message):
        out = tmp_path / "x.json"
        rc = main(["sieve-verify", "--n", "3", "--H", "3", "--D", "1", "--mode", "monic",
                   "--sigma", sigma, "--out", str(out)])
        assert rc == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not out.exists()


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

    def test_almost_prime_box_cost_refused(self, tmp_path, capsys):
        # 107^4 = 131M quartics fit the 2e9 default budget as points, but at
        # the closed form's 16 terms each they cost 2.10e9; one step lower,
        # H = 52 costs 105^4 * 16 = 1.94e9 and would run
        assert zpoly.box_cost(4, 53, True)[1] == 107 ** 4 * 16 > DEFAULT_BUDGET
        assert zpoly.box_cost(4, 52, True)[1] == 105 ** 4 * 16 <= DEFAULT_BUDGET
        started = time.perf_counter()
        rc = main(["count", "--kind", "almost-prime", "--n", "4", "--H", "53",
                   "--r", "3", "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith("budget refusal:") and err.count("\n") == 1

    # CSV body of `count --kind almost-prime --n 3 --H 5,10,12 --r 0,1,2,3,4`
    # as written when the count made one pass over the box per (r, H)
    MULTI_R_GOLDEN = """\
n,H,r,count,normalized,slope,theory_exponent
3,5,0,0,0.0,,3
3,10,0,0,0.0,,3
3,12,0,0,0.0,,3
3,5,1,344,4.429173135018644,,3
3,10,1,1370,3.154541577401843,1.993695423145791,3
3,12,1,2138,3.0744967692400142,2.4410721397349167,3
3,5,2,1114,14.343310675612702,,3
3,10,2,6058,13.94906049335793,2.443092345455341,3
3,12,2,9440,13.574952994212223,2.4329337427370623,3
3,5,3,1300,16.738154289314643,,3
3,10,3,8842,20.359457392253354,2.7658611110382494,3
3,12,3,14702,21.14183886874027,2.788866289258804,3
3,5,4,1304,16.789656302512533,,3
3,10,4,9198,21.179177685359235,2.8183763281488563,3
3,12,4,15534,22.338275403823378,2.874290402598733,3
"""

    def test_almost_prime_every_r_from_one_pass(self, tmp_path, monkeypatch):
        # the r list is read from one omega distribution per box: the body
        # is unchanged and omega_batch sees exactly the values of one r
        seen = []

        def recording(vals):
            seen.append(vals.size)
            return omega_batch(vals)

        monkeypatch.setattr(_ints, "omega_batch", recording)
        out = tmp_path / "ap.csv"
        argv = ["count", "--kind", "almost-prime", "--n", "3", "--H", "5,10,12"]
        assert main(argv + ["--r", "0,1,2,3,4", "--out", str(out)]) == 0
        _, body = read_csv(out)
        assert "\n".join(body) + "\n" == self.MULTI_R_GOLDEN
        multi = sum(seen)
        seen.clear()
        assert main(argv + ["--r", "3", "--out", str(out)]) == 0
        assert multi == sum(seen) > 0

    @pytest.mark.parametrize("kind, flags", [
        ("an-count", ["--H", "3,3"]),
        ("almost-prime", ["--H", "3,3"]),
        ("an-count", ["--H=-2,0"]),
        ("almost-prime", ["--H=-2,0"]),
        ("almost-prime", ["--H", "4", "--r=-1"]),
        ("almost-prime", ["--H", "4", "--r", "3,-1"]),
    ])
    def test_bad_height_or_cap_refused_before_work(self, tmp_path, monkeypatch, capsys,
                                                   kind, flags):
        # --H 3,3 once exited 4 (ZeroDivisionError in the slopes), and
        # an-count once wrote count-0 rows for H < 1
        def fail(*_a, **_k):
            raise AssertionError("a box was counted")

        monkeypatch.setattr(almostprime, "count_almost_prime", fail)
        monkeypatch.setattr(sieve, "count_an_box", fail)
        out = tmp_path / "x.csv"
        assert main(["count", "--kind", kind, "--n", "3", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert not out.exists()


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

    def test_degree_one_exits_two(self, tmp_path, capsys):
        # n = 1 once divided by zero in n / (2(n-1)^2): exit 4
        out = tmp_path / "adm.csv"
        assert main(["admissibility", "--n", "3,1", "--r", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "n >= 2" in err
        assert not out.exists()


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

    def test_bad_fraction_exits_two(self, tmp_path, capsys):
        # --cn is read by Fraction on the flag and the config path alike
        with pytest.raises(SystemExit) as exc:
            main(["exponents", "--cn", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("cn=x\n")
        assert main(["exponents", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("usage error:")


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

    def test_non_squarefree_modulus_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert main(["poisson-check", "--d", "12", "--H", "4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "squarefree" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [["--d", "210"], ["--d", "210", "--budget", "10"],
                                       ["--d", "30030"]])
    def test_rule_outside_mode_is_usage_error(self, tmp_path, capsys, extra):
        # once exit 2, 3 and 3: the rule was checked only when a table was built
        out = tmp_path / "p.csv"
        argv = ["poisson-check", "--n", "3", "--mode", "general", "--rule", "squarefree",
                "--H", "4", "--out", str(out)]
        assert main(argv + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "monic-only" in err
        assert not out.exists()

    def test_zero_height_is_usage_error(self, tmp_path, capsys):
        # once exit 4 with ZeroDivisionError
        out = tmp_path / "p.csv"
        argv = ["poisson-check", "--n", "3", "--d", "6", "--H", "0", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "H must be a finite positive number" in err
        assert not out.exists()

    def test_degree_zero_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        argv = ["poisson-check", "--n", "0", "--d", "5", "--H", "4", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "n=0" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("d, code", [
        (2 ** 63 + 29, 3),     # a prime: once still in trial division after 15 s
        (373 ** 2, 3),         # repeated prime above 368: exit 2 before the bound
        (12, 2),
    ])
    def test_modulus_checked_up_to_the_table_bound(self, tmp_path, capsys, d, code):
        out = tmp_path / "p.csv"
        argv = ["poisson-check", "--n", "3", "--d", str(d), "--H", "4", "--out", str(out)]
        started = time.perf_counter()
        assert main(argv) == code
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith("budget refusal:" if code == 3 else "usage error:")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["1e12", "1e308", "5e-324", "1e300"])
    def test_profile_refused_before_allocation(self, monkeypatch, tmp_path, capsys, sigma):
        # once exit 4 with MemoryError (1e12) or OverflowError (1e308,
        # 5e-324), and exit 2 with numpy's size error (1e300)
        def fail(*_a, **_k):
            raise AssertionError("a table or profile was built")

        monkeypatch.setattr(charsum, "weight_table", fail)
        monkeypatch.setattr(charsum.SmoothWeight, "coord_profile", fail)
        out = tmp_path / "p.csv"
        argv = ["poisson-check", "--n", "3", "--d", "5", "--H", "4", "--sigma", sigma,
                "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("budget refusal:") and err.count("\n") == 1
        assert not out.exists()


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
    def test_import_loads_only_the_version(self):
        # a fresh interpreter: the package import pulls in neither numpy
        # nor any submodule, and the entry point still reports the version
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = ("import sys, polysieve; print(polysieve.__version__); "
                 "print(sorted(m for m in sys.modules "
                 "if m == 'numpy' or m.startswith('polysieve.')))")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines() == ["0.1.0", "[]"]
        out = subprocess.run([sys.executable, "-m", "polysieve", "--version"], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout == "polysieve 0.1.0\n"
        # the runtime modules pull in no F_p polynomial module, and the
        # package has none: the distinct-degree split is a test oracle
        probe = ("import sys, polysieve.cli, polysieve.sieve, polysieve.almostprime\n"
                 "print([m for m in sys.modules if 'fppoly' in m])\n"
                 "try:\n    import polysieve.fppoly\n"
                 "except ModuleNotFoundError:\n    print('gone')\n")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines() == ["[]", "gone"]

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
