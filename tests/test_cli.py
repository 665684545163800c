import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time

import pytest

import dynzeta
import dynzeta.cli
from dynzeta.automata import christol_series
from dynzeta.cli import (JobSpec, compile_spec, main, make_parser,
                         parse_poly_string, run_job)
from dynzeta.errors import NonIntegerOrbitCount
from dynzeta.families import SubadditiveMap, per_n_closed
from dynzeta.field import field_make
from dynzeta.limits import (AUTOMATA_KERNEL_BUDGET, CHRISTOL_TERMS_CAP,
                            CROSSCHECK_INDEX_CAP, ELL_SEARCH_CAP, ENUM_CAP,
                            EXTENSION_DEGREE_CAP, PRIME_CAP)
from dynzeta.twisted import TwistedPoly, v_phi_pow_minus


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec("count", {"family": "power", "p": 3, "d": 2, "n_max": 4})
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_flags_compile_to_spec(self):
        parser = make_parser()
        args = parser.parse_args(["count", "--family", "power", "--p", "3",
                                  "--d", "2", "--n-max", "4"])
        spec = compile_spec(args)
        assert spec.command == "count"
        assert spec.params == {"family": "power", "p": 3, "d": 2, "n_max": 4}

    def test_job_file(self, tmp_path):
        path = tmp_path / "job.json"
        spec = JobSpec("zeta", {"family": "power", "p": 3, "d": 2, "terms": 8})
        path.write_text(json.dumps(spec.to_dict()))
        code, text = run_cli(["--job", str(path)])
        assert code == 0
        assert '"record":"zeta"' in text


class TestDeterminism:
    def test_byte_identical_runs(self):
        argv = ["count", "--family", "chebyshev", "--p", "5", "--d", "2",
                "--n-max", "5"]
        _, first = run_cli(argv)
        _, second = run_cli(argv)
        assert first == second

    def test_numbers_are_decimal_strings(self):
        _, text = run_cli(["zeta", "--family", "power", "--p", "3", "--d",
                           "3", "--terms", "6"])
        for line in text.splitlines():
            record = json.loads(line)
            if record["record"] == "zeta":
                assert all(isinstance(c, str) for c in record["coefficients"])
                assert record["coefficients"][1] == "4"


class TestCommands:
    def test_count_matches(self):
        code, text = run_cli(["count", "--family", "power", "--p", "3",
                              "--d", "2", "--n-max", "8"])
        assert code == 0
        rows = [json.loads(l) for l in text.splitlines()]
        matches = [r for r in rows if r["record"] == "row"]
        assert len(matches) == 8 and all(r["match"] for r in matches)

    def test_count_inseparable(self):
        code, text = run_cli(["count", "--family", "power", "--p", "3",
                              "--d", "3", "--n-max", "4"])
        rows = [json.loads(l) for l in text.splitlines() if '"row"' in l]
        assert [r["closed"] for r in rows] == ["4", "10", "28", "82"]

    def test_additive_count(self):
        code, text = run_cli(["count", "--family", "additive", "--p", "3",
                              "--sigma=-1,1", "--n-max", "4"])
        rows = [json.loads(l) for l in text.splitlines() if '"row"' in l]
        assert [r["closed"] for r in rows] == ["4", "4", "28", "28"]
        assert all(r["match"] for r in rows)

    def test_oracle_raw_map(self):
        code, text = run_cli(["oracle", "--num", "0,0,1", "--p", "3",
                              "--n-max", "3"])
        rows = [json.loads(l) for l in text.splitlines() if '"row"' in l]
        assert [r["count"] for r in rows] == ["3", "3", "9"]

    def test_census(self):
        code, text = run_cli(["census", "--family", "power", "--p", "3",
                              "--d", "2", "--ext-degree", "2",
                              "--max-period", "4"])
        assert code == 0
        cycles = [json.loads(l) for l in text.splitlines() if '"cycle"' in l]
        assert {c["length"]: c["count"] for c in cycles} == {"1": "3"}

    def test_christol(self):
        code, text = run_cli(["automata", "--kind", "christol", "--poly",
                              "y^2+y+t", "--p", "2", "--terms", "16"])
        record = [json.loads(l) for l in text.splitlines()][-1]
        assert record["values"][:5] == ["0", "1", "1", "0", "1"]

    @pytest.mark.parametrize("argv", [
        "--p 2 --poly y^2+y+t --prefix 0 --terms 300",
        "--p 7 --poly y^7+6*y+6*t --prefix 0 --terms 300",
        "--p 2 --poly t+y+t^2*y+y^2+t*y^2+t^2*y^2+t^3*y^2 --prefix 0,1 "
        "--terms 300",
        # object arrays of Python ints
        "--p 2305843009213693951 --poly y^2+y+t --prefix 0 --terms 300",
        "--p 5 --poly y^2+y+t --prefix 0 --terms 0",
    ])
    def test_christol_record_writes_every_coefficient(self, argv):
        # the record renders each distinct residue once; the line is the
        # one a str() per coefficient gives, in JSON and in table mode
        argv = ["automata", "--kind", "christol"] + argv.split()
        params = compile_spec(make_parser().parse_args(argv)).params
        poly_y = dynzeta.cli._poly_to_y_coeffs(
            parse_poly_string(params["poly"], ["t", "y"]), params["p"])
        coeffs = christol_series(poly_y, params["p"], params["prefix"],
                                 params["terms"])
        code, text = run_cli(argv)
        assert code == 0
        assert text.splitlines()[-1] == json.dumps(
            {"record": "coefficients", "values": [str(c) for c in coeffs]},
            separators=(",", ":"))
        code, table = run_cli(argv + ["--table"])
        assert code == 0
        assert table.splitlines()[-1] == (
            f"{'coefficients':12s} values=[" + ",".join(map(str, coeffs)) + "]")

    def test_christol_at_a_large_prime_pinned(self):
        # the object-array path; the digest is the stdout of the series
        # evaluated on lists of Python ints
        code, text = run_cli(["automata", "--kind", "christol", "--p",
                              "2305843009213693951", "--poly", "y^2+y+t",
                              "--prefix", "0", "--terms", "4096"])
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2685079173e88d0f51e325b2e3c7f7666912aea6fd6e59715b5c8fb421eda6d0")

    def test_vp_kernel_command(self):
        code, text = run_cli(["automata", "--kind", "vp-geometric", "--a", "2",
                              "--p", "3", "--ell", "5", "--alpha", "1",
                              "--beta", "0", "--depth", "2",
                              "--terms", "2000"])
        assert code == 0
        records = [json.loads(l) for l in text.splitlines()]
        kernel = next(r for r in records if r["record"] == "kernel")
        assert kernel["classification"] == "growing"
        period = next(r for r in records if r["record"] == "period")
        assert period["found"] is False

    def test_table_mode(self):
        code, text = run_cli(["count", "--family", "power", "--p", "3",
                              "--d", "2", "--n-max", "2", "--table"])
        assert code == 0 and "closed=3" in text

    def test_zero_terms_is_the_empty_prefix(self):
        code, text = run_cli("zeta --family power --p 3 --d 2 --terms 0".split())
        assert code == 0
        assert json.loads(text.splitlines()[1])["coefficients"] == ["1"]

    def test_readme_cli_examples_run(self):
        # every `dynzeta ...` line of the README's CLI block exits 0
        path = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(path, encoding="utf-8") as handle:
            block = handle.read().split("## CLI", 1)[1].split("```sh", 1)[1]
        lines = [line for line in block.split("```", 1)[0].splitlines()
                 if line.startswith("dynzeta ")]
        assert len(lines) == 6
        for line in lines:
            assert run_cli(shlex.split(line)[1:])[0] == 0, line


class TestExitCodes:
    def test_invalid_spec(self):
        code, _ = run_cli(["count", "--family", "power", "--p", "4", "--d",
                           "2", "--n-max", "2"])
        assert code == 2

    # psi_12 and psi_13 (Sorenson and Webster 2017): the least strong
    # pseudoprimes to the first 12 and 13 prime bases
    PSI_12 = 399_165_290_221 * 798_330_580_441
    PSI_13 = 1_287_836_182_261 * 2_575_672_364_521

    @pytest.mark.parametrize("p,code,reason", [
        (PSI_12, 2, "is not prime"),
        (PSI_13, 3, "primality proof cap"),
    ])
    def test_strong_pseudoprimes_are_refused(self, p, code, reason, capsys):
        assert p < PRIME_CAP if code == 2 else p == PRIME_CAP
        assert run_cli(["count", "--family", "power", "--p", str(p), "--d",
                        "2", "--n-max", "2"]) == (code, "")
        assert reason in capsys.readouterr().err

    def test_a_prime_below_the_proof_cap_is_accepted(self):
        code, text = run_cli(["count", "--family", "power", "--p",
                              str(2 ** 61 - 1), "--d", "2", "--n-max", "2"])
        assert code == 0 and '"record":"row"' in text

    def test_degree_one_power_rejected(self):
        code, _ = run_cli(["count", "--family", "power", "--p", "3", "--d",
                           "1", "--n-max", "2"])
        assert code == 2

    def test_missing_map(self):
        code, _ = run_cli(["count", "--n-max", "2"])
        assert code == 2

    def test_scale_exceeded(self):
        code, _ = run_cli(["oracle", "--num", "0,0,1", "--p", "3",
                           "--n-min", "20", "--n-max", "20"])
        # out-of-scale oracle rows are reported as nulls, not failures
        assert code == 0

    def test_count_disagreement_exits_4(self, monkeypatch, capsys):
        # every row is printed, then the summary, then the refusal
        closed = dynzeta.cli.per_n_counts
        monkeypatch.setattr(dynzeta.cli, "per_n_counts", lambda fam, first: (
            count + 1 for count in closed(fam, first)))
        code, text = run_cli(["count", "--family", "power", "--p", "3",
                              "--d", "2", "--n-max", "3"])
        assert code == 4
        records = [json.loads(line) for line in text.splitlines()]
        rows = [r for r in records if r["record"] == "row"]
        assert [r["match"] for r in rows] == [False] * 3
        assert all(int(r["closed"]) == int(r["oracle"]) + 1 for r in rows)
        assert records[-1]["record"] == "summary"
        assert records[-1]["mismatches"] == "3"
        assert "internal consistency failure" in capsys.readouterr().err

    def test_christol_length_cap(self, capsys):
        # a root of CHRISTOL_TERMS_CAP terms is written; a longer one is
        # refused before any series is formed
        argv = ["automata", "--kind", "christol", "--poly", "y^2+y+t",
                "--p", "2", "--prefix", "0", "--terms"]
        code, text = run_cli(argv + [str(CHRISTOL_TERMS_CAP)])
        assert code == 0
        values = json.loads(text.splitlines()[-1])["values"]
        assert len(values) == CHRISTOL_TERMS_CAP
        for terms in (CHRISTOL_TERMS_CAP + 1, 10 ** 9):
            start = time.perf_counter()
            assert run_cli(argv + [str(terms)]) == (3, "")
            assert time.perf_counter() - start < 1.0
            assert "over the cap" in capsys.readouterr().err

    def test_census_past_the_extension_degree_cap(self, capsys):
        # F_(3^25) is refused as an invalid spec before any field is made
        start = time.perf_counter()
        assert run_cli(["census", "--family", "power", "--p", "3", "--d", "2",
                        "--ext-degree", str(EXTENSION_DEGREE_CAP + 1)]) == (2, "")
        assert time.perf_counter() - start < 1.0
        assert f"outside [1, {EXTENSION_DEGREE_CAP}]" in capsys.readouterr().err

    def test_automata_kernel_past_its_budget(self, capsys):
        # depth 9 over base ell = 7 would compare (7^10 - 1)/6 rows of 64
        # terms, 3013069312 in all; the plan is refused before any term of
        # the sequence is formed
        start = time.perf_counter()
        assert run_cli(["automata", "--kind", "vp-geometric", "--a", "2",
                        "--p", "3", "--ell", "7", "--depth", "9"]) == (3, "")
        assert time.perf_counter() - start < 1.0
        assert (f"kernel exploration cost 3013069312 over budget "
                f"{AUTOMATA_KERNEL_BUDGET}") in capsys.readouterr().err

    def test_subadditive_mu_past_the_enumeration_cap(self, capsys):
        # d = p^2 + 1 > ENUM_CAP divides p^4 - 1, so mu_d lies in F_(p^4),
        # and is never listed: for sigma = 1 + F^4 only w = 1 has
        # v_phi(sigma - w) = 4 > 0, so #Per_1 = 1 + ((d - 1) p^4 + 1) / d
        # = 1 + (p^6 + 1) / (p^2 + 1) = p^4 - p^2 + 2
        p = 1_000_003
        d = p * p + 1
        assert d > ENUM_CAP
        start = time.perf_counter()
        code, text = run_cli(["count", "--family", "subadditive", "--p", str(p),
                              "--sigma", "1,0,0,0,1", "--d", str(d),
                              "--n-max", "1"])
        assert time.perf_counter() - start < 1.0
        assert (code, capsys.readouterr().err) == (0, "")
        rows = [r for r in map(json.loads, text.splitlines())
                if r["record"] == "row"]
        assert [(r["closed"], r["oracle"]) for r in rows] == [
            (str(p ** 4 - p ** 2 + 2), None)]

    def test_non_integer_orbit_sum_exits_4(self, monkeypatch, capsys):
        # sigma = 1 + F^2 + F^4 descends by mu_3 at p = 2 (4 = 16 = 1 mod
        # 3); every v = v_phi(sigma^n - 1) is even, so one more than v
        # leaves the orbit sum 2 * 16^n + 2^(4n - v - 1) = 1 mod 3
        def off_by_one(*args):
            return v_phi_pow_minus(*args) + 1

        monkeypatch.setattr("dynzeta.families.v_phi_pow_minus", off_by_one)
        fam = SubadditiveMap(TwistedPoly.from_ints(field_make(2),
                                                   [1, 0, 1, 0, 1]), 3)
        with pytest.raises(NonIntegerOrbitCount):
            per_n_closed(fam, 1)
        assert run_cli(["count", "--family", "subadditive", "--p", "2",
                        "--sigma", "1,0,1,0,1", "--d", "3", "--n-max", "2"]) == (
            4, "")
        assert ("not divisible by group order 3"
                in capsys.readouterr().err)

    @staticmethod
    def _scale_additive_valuation(monkeypatch):
        # a valuation p times too large
        def scaled(sigma, n, omega):
            v = v_phi_pow_minus(sigma, n, omega)
            return v * sigma.ctx.p if v > 0 else v

        monkeypatch.setattr("dynzeta.families.v_phi_pow_minus", scaled)

    @pytest.mark.parametrize("argv", [
        "verdict --family additive --p 3 --sigma 1,1",
        "verdict --family subadditive --p 3 --sigma 1,1 --d 2",
        "verdict --family additive --ratfunc --p 3 --sigma 1,u",
    ])
    def test_scaled_additive_valuation_exits_4(self, monkeypatch, argv):
        # the tower certificate re-derives its counts off the full power
        # sigma^m, so it disagrees with the scaled formula
        self._scale_additive_valuation(monkeypatch)
        assert run_cli(argv.split()) == (4, "")

    def test_scaled_additive_valuation_fails_the_oracle(self, monkeypatch,
                                                        capsys):
        # the count verb's oracle realizes the map, so it disagrees with
        # the scaled formula
        self._scale_additive_valuation(monkeypatch)
        code, text = run_cli("count --family additive --p 3 --sigma 1,1 "
                             "--n-max 4".split())
        assert code == 4
        summary = json.loads(text.splitlines()[-1])
        assert summary["record"] == "summary" and summary["mismatches"] != "0"
        assert "internal consistency failure" in capsys.readouterr().err

    def test_auxiliary_prime_past_the_search_cap(self, capsys):
        # no prime ell below ELL_SEARCH_CAP is admissible for Chebyshev
        # d = 3 at this p, and the search stops at the cap
        start = time.perf_counter()
        assert run_cli(["verdict", "--family", "chebyshev", "--p", "1000003",
                        "--d", "3"]) == (3, "")
        assert time.perf_counter() - start < 1.0
        assert (f"no admissible prime below {ELL_SEARCH_CAP}"
                in capsys.readouterr().err)

    def test_supersingular_step_past_the_crosscheck_cap(self, capsys):
        # p = 149 is inert here: the step no count re-derives passes
        # CROSSCHECK_INDEX_CAP
        start = time.perf_counter()
        assert run_cli(["verdict", "--family", "lattes-supersingular",
                        "--p", "149", "--sigma-tn", "1,3"]) == (3, "")
        assert time.perf_counter() - start < 1.0
        assert (f"crosscheck index cap {CROSSCHECK_INDEX_CAP}"
                in capsys.readouterr().err)

    def test_a_wrong_valuation_fails_the_rational_verdict(self, monkeypatch,
                                                          capsys):
        # a valuation of 1 everywhere calls power d = 2 inseparable; its
        # counts, read off the same valuation, then disagree with
        # 1/((1 - t)(1 - 2t)) on the 30 checked terms
        monkeypatch.setattr(dynzeta.families._Quotient, "valuation",
                            lambda self, x: 1)
        assert run_cli(["verdict", "--family", "power", "--p", "5",
                        "--d", "2"]) == (4, "")
        assert ("closed form disagrees with the count series"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("cls,argv", [
        ("_Quotient", ["power", "--p", "3", "--d", "3"]),
        ("_AdditiveQuotient", ["additive", "--p", "3", "--sigma", "0,1"]),
        ("_RingMultiplier", ["lattes-ordinary", "--p", "11", "--tau", "1,11",
                             "--sigma", "0,1"]),
        ("LattesGenericJ", ["lattes-generic", "--p", "5", "--s", "5"]),
    ])
    def test_an_off_by_one_degree_fails_the_rational_verdict(
            self, cls, argv, monkeypatch, capsys):
        # the closed form 1/((1 - t)(1 - D t)) reads the degree D, and the
        # counts it is checked on read only sigma, size and valuation
        code, text = run_cli(["verdict", "--family"] + argv)
        assert code == 0 and '"outcome":"rational"' in text
        owner = getattr(dynzeta.families, cls)
        degree = owner.degree
        monkeypatch.setattr(owner, "degree",
                            property(lambda self: degree.fget(self) + 1))
        assert run_cli(["verdict", "--family"] + argv) == (4, "")
        assert ("closed form disagrees with the count series"
                in capsys.readouterr().err)

    def test_identity_iterate_rejected(self):
        code, _ = run_cli(["oracle", "--num", "1", "--den", "0,1", "--p", "3",
                           "--n-min", "2", "--n-max", "2"])
        assert code == 2


class TestSpecValidation:
    """Missing or mistyped params exit 2 before the header is written."""

    def test_missing_d(self):
        assert run_cli(["count", "--family", "power", "--p", "3"]) == (2, "")

    def test_missing_p(self):
        assert run_cli(["count", "--family", "power", "--d", "2"]) == (2, "")

    def test_string_param_in_job_file(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"command": "count", "params": {
            "family": "power", "p": 3, "d": "2"}}))
        assert run_cli(["--job", str(path)]) == (2, "")

    def test_retired_seed_and_variant_refused(self, tmp_path, capsys):
        # a job asking for the absolute Lattes convention must not be
        # answered with norm counts, as an unknown key would be; nor a
        # job asking for a ground field F_(p^k), even k = 1, since every
        # CLI map is defined over F_p
        argv = ["count", "--family", "lattes-generic", "--p", "5", "--s", "2"]
        for flag in (["--variant", "absolute"], ["--seed", "1"], ["--k", "2"]):
            with pytest.raises(SystemExit) as exc:
                run_cli(argv + flag)
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""
        path = tmp_path / "job.json"
        for key, value in (("variant", "absolute"), ("seed", 0), ("k", 1)):
            path.write_text(json.dumps({"command": "count", "params": {
                "family": "lattes-generic", "p": 5, "s": 2, key: value}}))
            assert run_cli(["--job", str(path)]) == (2, "")
            assert f"parameter {key!r} is retired" in capsys.readouterr().err

    def test_job_params_must_be_an_object(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"command": "count", "params": [3, 2]}))
        assert run_cli(["--job", str(path)]) == (2, "")

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8",
                                      "list-command", "object-command"])
    def test_unreadable_job_file_or_command_refused(self, kind, tmp_path,
                                                    capsys):
        path = tmp_path / "job.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf-8":
            path.write_bytes(b'{"command": "count\xff"}')
        elif kind != "missing":
            command = ["count"] if kind == "list-command" else {"c": "count"}
            path.write_text(json.dumps({"command": command, "params": {
                "family": "power", "p": 3, "d": 2}}))
        assert run_cli(["--job", str(path)]) == (2, "")
        assert capsys.readouterr().err.startswith("error: job ")

    def test_job_file_not_json(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text("{\"command\": \"count\",")
        assert run_cli(["--job", str(path)]) == (2, "")

    @pytest.mark.parametrize("extra", [["--ext-degree", "0"],
                                       ["--ext-degree", "25"],
                                       ["--max-period", "0"],
                                       ["--max-period", "-1"]])
    def test_census_ranges(self, extra):
        argv = ["census", "--family", "power", "--p", "3", "--d", "2"]
        assert run_cli(argv + extra) == (2, "")
        assert run_cli(argv + ["--ext-degree", "2", "--max-period", "1"])[0] == 0

    @pytest.mark.parametrize("argv", [
        "count --family lattes-ordinary --p 11 --tau 1,x --sigma-quad 2,0",
        "count --family lattes-ordinary --p 11 --tau 1,11 --sigma-quad 2,y",
        "count --family lattes-supersingular --p 7 --sigma-tn 1,z",
        "count --family lattes-supersingular --p 7 --sigma-quat 1,1,1,w",
        "oracle --p 5 --num 1,a",
        "oracle --p 5 --num 0,0,1 --den 1,b",
        "automata --kind christol --p 3 --poly y+t --prefix 0,z",
    ])
    def test_comma_list_flags_take_integers(self, argv):
        assert run_cli(argv.split()) == (2, "")

    @pytest.mark.parametrize("argv", [
        "count --family power --p 4 --d 2",
        "verdict --family chebyshev --p 5 --d 1",
        "zeta --family lattes-ordinary --p 11 --tau 5,2 --sigma-quad 2,0",
        "verdict --family lattes-supersingular --p 7 --sigma-tn 1,1",
        "oracle --p 5 --num 0,0,1 --n-min 0 --n-max 1",
        "count --family power --p 5 --d 2 --n-min 0",
        "census --p 5 --num 1",
        "automata --kind vp-geometric --a 2 --p 4 --ell 5",
        "automata --kind vp-tower --a 1 --p 3 --ell 5",
        "automata --kind christol --p 4 --poly y+t",
        # T^2 > 4N: the degree form is positive definite
        "count --family lattes-supersingular --p 7 --sigma-tn 3,2 --n-max 2",
        "verdict --family lattes-supersingular --p 7 --sigma-tn 5,4",
        # x -> (x^2+x)/(x^2+1) is an involution: n = 1 has a count, n = 2
        # is refused
        "oracle --p 2 --num 0,1,1 --den 1,0,1 --n-max 3",
        # empty period ranges
        "count --family power --p 3 --d 2 --n-min 5 --n-max 2",
        "oracle --p 3 --num 0,0,1 --n-min 6",
        # kernel parameters no exploration can use
        "automata --kind vp-geometric --a 2 --p 3 --ell 5 --terms 9000 --base 1",
        "automata --kind vp-geometric --a 2 --p 3 --ell 5 --terms 9000 --depth -1",
        "automata --kind vp-geometric --a 2 --p 3 --ell 5 --terms 9000 "
        "--prefix-len 0",
        # x^d and T_d past the polynomial degree cap have no realization
        "census --family power --p 5 --d 20001 --max-period 1",
        "oracle --family chebyshev --p 5 --d 10001 --n-max 1",
        # sigma = (1+i+j+k)/2 does not normalise the 12 units at p = 3, so
        # the default quotient by all of them carries no map
        "count --family lattes-supersingular --p 3 --sigma-quat 1,1,1,1 "
        "--n-max 3",
        "verdict --family lattes-supersingular --p 3 --sigma-quat 1,1,1,1",
        # negative lengths and orders (validate_params refuses them)
        "zeta --family power --p 3 --d 2 --terms -3",
        "automata --kind christol --poly y^2+y+t --p 2 --terms -4",
        "automata --kind vp-geometric --a 2 --p 3 --ell 5 --terms 8000 "
        "--show -3",
        "zeta --family power --p 3 --d 2 --max-order -1",
    ])
    def test_refused_before_the_first_record(self, argv):
        # each is refused, by validate_params or by its handler, before
        # its first record
        assert run_cli(argv.split()) == (2, "")

    def test_supersingular_step_past_two_thousand(self):
        # sigma has order 3480 in F_(59^2)^*; the certificate is formed
        # (or refused for scale), never an internal failure
        code, text = run_cli("verdict --family lattes-supersingular --p 59 "
                             "--sigma-tn 1,2".split())
        assert code in (0, 3)
        if code == 0:
            cert = json.loads(text.splitlines()[2])
            assert cert["m"] == "3480"

    def test_inconsistent_evidence_is_inconclusive(self):
        code, text = run_cli("verdict --family power --p 101 --d 2".split())
        records = [json.loads(line) for line in text.splitlines()]
        assert code == 0
        assert records[1]["outcome"] == "inconclusive"
        assert records[2]["consistent"] is False

    def test_verdict_and_zeta_build_no_realization(self, monkeypatch):
        def refuse(fam, curve=None):
            raise AssertionError("realize called")
        monkeypatch.setattr("dynzeta.cli.realize", refuse)
        for verb in ("verdict", "zeta"):
            code, text = run_cli([verb, "--family", "chebyshev", "--p", "5",
                                  "--d", "3"])
            assert code == 0 and text

    def test_zeta_of_a_power_map_at_a_large_prime(self):
        # x^p at p = 10^8 + 7: x^p is not built, and the root p of the
        # characteristic polynomial is found by Newton steps
        code, text = run_cli("zeta --family power --p 100000007 --d 100000007 "
                             "--terms 12".split())
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2c55abe17221c1c73fbec4846230c2bb79f9d8d109fe0dc89dabbaeae756a140")

    def test_count_past_the_degree_cap_has_no_oracle(self):
        code, text = run_cli("count --family power --p 5 --d 20001 "
                             "--n-max 1".split())
        assert code == 0 and '"oracle":null' in text

    def test_supersingular_trace_at_the_norm_bound(self):
        # T^2 = 4N is sigma = T/2, an integer
        code, _ = run_cli("count --family lattes-supersingular --p 7 "
                          "--sigma-tn 4,4 --n-max 2".split())
        assert code == 0

    def test_parser_built_once(self):
        assert make_parser() is make_parser()
        assert run_cli(["count", "--family", "power", "--p", "3", "--d", "2",
                        "--n-max", "1"])[0] == 0
        assert run_cli(["count", "--family", "power", "--p", "3"]) == (2, "")


class TestFlagSpellings:
    @pytest.mark.parametrize("argv", [
        "count --family lattes-ordinary --p 1009 --tau -1,2 --sigma-quad 2,0",
        "count --family lattes-ordinary --p 1009 --tau 1,2 --sigma-quad -2,1",
        "count --family lattes-supersingular --p 7 --sigma-tn -1,2 --n-max 3",
        "count --family lattes-supersingular --p 3 --sigma-quat -1,1,1,1",
        "count --family additive --p 3 --sigma -1,1 --n-max 4",
        "count --family additive --p 3 --ratfunc --sigma -u,1 --n-max 2",
        "oracle --p 5 --num -1,0,1 --n-max 3",
        "oracle --p 5 --num 1,0,1 --den -1,1 --n-max 3",
        "automata --kind christol --p 3 --poly y+t --prefix -1,1",
    ])
    def test_negative_list_value_without_equals(self, argv):
        joined = re.sub(r"(--[a-z-]+) (-[0-9u])", r"\1=\2", argv)
        assert joined != argv
        assert run_cli(argv.split()) == run_cli(joined.split())

    @pytest.mark.parametrize("argv", [["count", "--family", "power", "--p",
                                       "3", "--d", "2", "--num"],
                                      ["oracle", "--p", "5", "--num", "--n-max",
                                       "2"]])
    def test_list_flag_without_value(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_table_before_the_verb(self):
        argv = ["count", "--family", "power", "--p", "3", "--d", "2"]
        before = run_cli(["--table"] + argv)
        assert before == run_cli(argv + ["--table"])
        assert before[0] == 0 and "closed=3" in before[1]

    def test_job_before_the_verb(self):
        path = os.path.join(os.path.dirname(__file__), "..", "jobs",
                            "power_count.json")
        before = run_cli(["--job", path, "count"])
        assert before == run_cli(["count", "--job", path])
        assert before == run_cli(["--job", path])
        assert before[0] == 0

    def test_show_flag(self):
        argv = ["automata", "--kind", "vp-geometric", "--a", "2", "--p", "3",
                "--ell", "5", "--depth", "2", "--terms", "2000"]
        code, text = run_cli(argv + ["--show", "3"])
        assert code == 0
        header, sequence = map(json.loads, text.splitlines()[:2])
        assert header["params"]["show"] == "3"
        assert sequence["values"] == json.loads(
            run_cli(argv)[1].splitlines()[1])["values"][:3]

    def test_params_follow_the_flag_table(self):
        # the header lists params in table order, whatever the flag order
        flags = ("--ratfunc --sigma 1 --tau 1,2 --sigma-quad 1,1 --sigma-tn 1,2 "
                 "--sigma-quat 2,0,0,0 --num 0,1 --den 1 --s 2 "
                 "--translation 0 --gamma-order 2 --gamma mu2 --unit-root 1 "
                 "--ext-degree 1 --max-order 2 --max-period 3 "
                 "--n-max 2 --n-min 1 --terms 4 --d 2 --p 3 --family power")
        spec = compile_spec(make_parser().parse_args(["zeta"] + flags.split()))
        assert list(spec.params) == [
            "family", "p", "d", "s", "translation",
            "gamma_order", "unit_root", "gamma", "ratfunc", "sigma", "tau",
            "sigma_tn", "sigma_quat", "num", "den", "n_min", "n_max", "terms",
            "max_order", "ext_degree", "max_period"]
        assert spec.params["sigma"] == [1, 1]
        spec = compile_spec(make_parser().parse_args(
            "zeta --tau 1,2 --sigma-quad 1,1 --p 3".split()))
        assert list(spec.params) == ["p", "tau", "sigma"]


class TestRegressions:
    def test_additive_p5_verdict_within_budget(self):
        # its first re-derivation term is #Per_12544, whose twisted power
        # would have 12545 coefficients; the count forms none
        start = time.perf_counter()
        code, text = run_cli(["verdict", "--family", "additive", "--p", "5",
                              "--sigma", "2,1"])
        elapsed = time.perf_counter() - start
        assert code == 0
        cert = next(r for r in map(json.loads, text.splitlines())
                    if r["record"] == "certificate")
        assert (cert["m"], cert["ell"]) == ("4", "3137")
        assert elapsed < 10.0

    def test_closed_pipe_exits_141_without_traceback(self):
        # stdout is a pipe whose reader is already gone, as in `| head -c 100`
        # once head has exited
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(dynzeta.__file__)))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dynzeta.cli", "verdict", "--family",
                 "power", "--p", "5", "--d", "2"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""

    def test_count_past_the_old_twisted_power_cap(self):
        # (top + 1) * n = 32800 passed the old whole-power guard; the
        # valuation 5^(v_5(16400)) = 25 is read off sigma
        code, text = run_cli(["count", "--family", "additive", "--p", "5",
                              "--sigma=2,1", "--n-min", "16400",
                              "--n-max", "16400"])
        assert code == 0
        row = next(r for r in map(json.loads, text.splitlines())
                   if r["record"] == "row")
        assert row["closed"] == str(5 ** (16400 - 25) + 1)

    def test_transcendental_additive_count_at_once(self):
        # sigma = 1 + u F over F_3(u), n = 3^10: (1 + u F)^n is not formed,
        # and v_phi(sigma - 1) = 1 lifts to v_phi(sigma^n - 1) = 3^10 = n,
        # so one kernel point, plus infinity
        start = time.perf_counter()
        code, text = run_cli("count --family additive --ratfunc --p 3 "
                             "--sigma 1,u --n-min 59049 --n-max 59049".split())
        assert time.perf_counter() - start < 1.0
        assert code == 0
        row = next(r for r in map(json.loads, text.splitlines())
                   if r["record"] == "row")
        assert (row["n"], row["closed"], row["oracle"]) == ("59049", "2", None)

    def test_counts_past_the_int_string_limit(self):
        # about 5^16384: some 11,452 digits, past Python's default 4300
        argv = ["count", "--family", "additive", "--p", "5", "--sigma=2,1",
                "--n-min", "16384", "--n-max", "16384"]
        code, text = run_cli(argv)
        assert code == 0
        row = next(r for r in map(json.loads, text.splitlines())
                   if r["record"] == "row")
        assert len(row["closed"]) > 4300 and row["closed"].isdigit()
        code, table = run_cli(argv + ["--table"])
        assert code == 0 and f"closed={row['closed']}" in table

    def test_zeta_rationality_order_forty_within_budget(self):
        # 250 separable counts: no recurrence of order <= 40 fits, found by
        # one Berlekamp-Massey pass instead of forty exact solves
        start = time.perf_counter()
        code, text = run_cli("zeta --family power --p 3 --d 2 --terms 250 "
                             "--max-order 40".split())
        elapsed = time.perf_counter() - start
        assert code == 0
        rationality = json.loads(text.splitlines()[-1])
        assert rationality["record"] == "rationality"
        assert rationality["found"] is False
        assert elapsed < 5.0

    def test_zeta_rational_prefix_of_4000_terms_within_budget(self):
        # the certified closed form 1 / ((1 - t)(1 - 3t)) is expanded in
        # linear time; the quadratic exponential formula takes about 30 s
        # on 4000 counts of up to 1900 digits.  The digest is the stdout
        # of the exponential formula.
        start = time.perf_counter()
        code, text = run_cli("zeta --family power --p 3 --d 3 --terms 4000"
                             .split())
        elapsed = time.perf_counter() - start
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2878849a0bcdeefa1c243f2ad11e43d31d619a2972ebe01295bc8fa1a1122b4c")
        assert elapsed < 5.0

    def test_zeta_root_of_a_hard_semiprime_within_budget(self):
        # d = 3 * 10000000000000061 * 30000000000000029: the root d of the
        # characteristic polynomial is found without factoring d
        d = 900000000000006360000000000005307
        start = time.perf_counter()
        code, text = run_cli(["zeta", "--family", "power", "--p", "3",
                              "--d", str(d), "--terms", "12"])
        elapsed = time.perf_counter() - start
        assert code == 0
        rationality = json.loads(text.splitlines()[-1])
        assert rationality["found"] is True
        assert rationality["numerator"] == ["1"]
        assert rationality["denominator"] == ["1", str(-(d + 1)), str(d)]
        assert elapsed < 5.0

    @pytest.mark.parametrize("p", [1000003, 9999991])
    def test_tower_bound_past_the_prime_cap_refused_at_once(self, p, capsys):
        # the auxiliary prime must exceed p^(a1 p^a1) = p^p, an integer of
        # over 10^7 bits; its exponent alone shows it is past the cap
        start = time.perf_counter()
        code, text = run_cli(["verdict", "--family", "additive", "--p", str(p),
                              "--sigma", "1,1"])
        elapsed = time.perf_counter() - start
        assert (code, text) == (3, "")
        assert "past the prime search cap" in capsys.readouterr().err
        assert elapsed < 1.0

    @pytest.mark.parametrize("argv,reason", [
        ("verdict --family power --p 1000003 --d 2", "no admissible prime"),
        ("verdict --family lattes-generic --p 1000003 --s 3",
         "no admissible prime"),
        ("verdict --family chebyshev --p 999983 --d 2", "kernel"),
        ("verdict --family power --p 99991 --d 2", "kernel"),
    ])
    def test_auxiliary_prime_searched_in_its_class_within_budget(
            self, argv, reason, capsys):
        # ell = 2 mod p above p: at p near 10^6 the class holds about ten
        # candidates below the prime search cap, and an exhausted search
        # is a scale refusal (exit 3)
        start = time.perf_counter()
        result = run_cli(argv.split())
        elapsed = time.perf_counter() - start
        assert result == (3, "")
        assert reason in capsys.readouterr().err
        assert elapsed < 1.0

    @pytest.mark.parametrize("argv", [
        "verdict --family chebyshev --p 1000000007 --d 3",
        "verdict --family lattes-generic --p 1000000007 --s 2",
        "verdict --family lattes-ordinary --p 1000000007 --tau 1,1000000007 "
        "--sigma 2,0",
        "verdict --family chebyshev --p 10000019 --d 3",
        # the class's only candidate below 10^7 is 9999993 = 3 * 3333331
        "verdict --family lattes-generic --p 9999991 --s 2",
    ])
    def test_auxiliary_prime_class_past_the_cap_refused_before_any_power(
            self, argv, capsys):
        # the class ell = 2 mod p from p + 2 holds no prime below the
        # prime search cap: refused before sigma^m (m up to p - 1) is formed
        start = time.perf_counter()
        result = run_cli(argv.split())
        elapsed = time.perf_counter() - start
        assert result == (3, "")
        assert "no admissible prime below 10000000" in capsys.readouterr().err
        assert elapsed < 1.0

    @pytest.mark.parametrize("argv", [
        "verdict --family lattes-ordinary --p 2000003 --tau 1,2000003 "
        "--sigma 2,0",
        "verdict --family lattes-generic --p 4000037 --s 2",
    ])
    def test_least_auxiliary_prime_over_the_kernel_budget_refused_at_once(
            self, argv, capsys):
        # every prime of the class exceeds 312,499, whose base-ell kernel
        # of depth 1 already costs over four budgets: refused before
        # sigma^m, the ell search and the strides
        start = time.perf_counter()
        result = run_cli(argv.split())
        elapsed = time.perf_counter() - start
        assert result == (3, "")
        assert "over budget 20000000" in capsys.readouterr().err
        assert elapsed < 1.0

    def test_scale_caps_ignore_the_environment(self, monkeypatch):
        # 3^6 = 729 points: within the enumeration cap whatever is set
        argv = ("census --family power --p 3 --d 2 --ext-degree 6 "
                "--max-period 4").split()
        expected = run_cli(argv)
        monkeypatch.setenv("DYNZETA_SCALE_BUDGET", "1")
        assert run_cli(argv) == expected
        assert expected[0] == 0

    def test_mobius_oracle_at_a_huge_n_within_budget(self):
        # x + 1 has order 5 over F_5: f^(10^8 + 1) = x + 1 is formed by
        # square-and-multiply, not by 10^8 compositions
        start = time.perf_counter()
        code, text = run_cli(["oracle", "--p", "5", "--num", "1,1", "--n-min",
                              "100000001", "--n-max", "100000001"])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert json.loads(text.splitlines()[-1])["count"] == "1"
        assert elapsed < 1.0

    def test_mobius_identity_iterate_at_a_huge_n_refused_within_budget(
            self, capsys):
        start = time.perf_counter()
        result = run_cli(["oracle", "--p", "5", "--num", "1,1", "--n-min",
                          "100000000", "--n-max", "100000000"])
        elapsed = time.perf_counter() - start
        assert result == (2, "")
        assert "f^100000000 is the identity map" in capsys.readouterr().err
        assert elapsed < 1.0

    @pytest.mark.parametrize("a,p", [(4, 31), (20, 3)])
    def test_vp_tower_bound_refused_before_the_power(self, a, p):
        # 31^(4 * 31^4) has some 1.8 * 10^7 bits, 3^(20 * 3^20) about
        # 1.1 * 10^11: neither is formed to compare with ell
        start = time.perf_counter()
        code, text = run_cli(["automata", "--kind", "vp-tower", "--a", str(a),
                              "--p", str(p), "--ell", "7"])
        elapsed = time.perf_counter() - start
        assert (code, text) == (2, "")
        assert elapsed < 1.0

    @pytest.mark.parametrize("p,tn", [(5, "2,12"), (5, "5,19"), (5, "6,23"),
                                      (5, "1,13"), (5, "6,13"), (11, "1,21"),
                                      (11, "5,28")])
    def test_split_supersingular_count_zero_mod_ell(self, p, tn, capsys):
        # a re-derived count is 0 mod ell, which no unit-valued term of the
        # residue sequence can be: the re-derivation mismatch, not a
        # ValueError from inverting it
        code, text = run_cli(["verdict", "--family", "lattes-supersingular",
                              "--p", str(p), "--sigma-tn", tn])
        assert (code, text) == (4, "")
        assert "fails count re-derivation" in capsys.readouterr().err


# specs over F_(p^k) spelled with the retired --k, the spelling over F_p
# that answers for each (census --k K --ext-degree E walked F_(p^(K E))),
# and the sha256 of the records the --k spelling printed after its header
TOWER_INPUT_DIGESTS = [
    ("census --p 3 --k 2 --num 0,0,1 --ext-degree 2 --max-period 4",
     "census --p 3 --num 0,0,1 --ext-degree 4 --max-period 4",
     "715a83b1ced6fad4a9f69f0a1d7d47cc89085510871d52dbb4f4c5dd677f64da"),
    ("census --p 3 --k 2 --num 0,0,1 --ext-degree 4 --max-period 3",
     "census --p 3 --num 0,0,1 --ext-degree 8 --max-period 3",
     "d5a216d42a621111dfebf4dec8c53924d40a5b21fd273ebccdbd857d6da887d7"),
    ("census --p 3 --k 3 --num 0,1,1 --ext-degree 3 --max-period 3",
     "census --p 3 --num 0,1,1 --ext-degree 9 --max-period 3",
     "ee1683fdf0446b1b982bcbbd6cbbdcc325483e9c4a8047ec45b4854601e1ee9a"),
    ("census --p 2 --k 3 --num 0,0,1 --ext-degree 5 --max-period 3",
     "census --p 2 --num 0,0,1 --ext-degree 15 --max-period 3",
     "05b182a1dfa8ac41ea2266415170136fa6896621b4007fb228ae7fa57d5a37af"),
    ("count --family subadditive --p 2 --k 2 --sigma 1,0,0,1 --d 7 "
     "--n-min 1 --n-max 4",
     "count --family subadditive --p 2 --sigma 1,0,0,1 --d 7 "
     "--n-min 1 --n-max 4",
     "25f2719b42ffbf48274b26413c78048abda1812105b82eedefeab5c8eb65aec1"),
    # mu_11 lives in F_(3^10) and mu_5 in F_(2^20)
    ("count --family subadditive --p 3 --k 2 --sigma 1,0,0,0,0,1 --d 11 "
     "--n-min 1 --n-max 3",
     "count --family subadditive --p 3 --sigma 1,0,0,0,0,1 --d 11 "
     "--n-min 1 --n-max 3",
     "c121ef7adfb277527f6e0ae433c6371a833cb0bd05e731be2f6a1e6aac11b047"),
    ("count --family subadditive --p 2 --k 10 --sigma 1,0,0,0,1 --d 5 "
     "--n-max 3",
     "count --family subadditive --p 2 --sigma 1,0,0,0,1 --d 5 --n-max 3",
     "9b98133de9c53b5d60d350fb79da63b006346564b3bf4055aacb5fbfaeaf0a4a"),
]


# stdout sha256 of the job files in jobs/
JOB_FILE_DIGESTS = [
    ("additive_verdict",
     "e73d1cc4d3b9735489d29028d851c0765ef018d6f6c356bf716cefc82f653c18"),
    ("christol_powers_of_two",
     "d52d8629cb1e1669086e2a6810a873f21cfb90140b74fbdd64c3ffa20cd0e57b"),
    # the verdict pool's lattes-supersingular p = 11, (0, 3) job
    ("lattes_supersingular_verdict",
     "a0538e8d7f658327ae527812d8bffa0d60057ca1603b357b6ebad107321e1b2e"),
    ("power_count",
     "114d57af08eb77151093618182ee4748d4a580155ada41053e97cdc26a4ca806"),
]


@pytest.mark.parametrize("name,digest", JOB_FILE_DIGESTS)
def test_job_file_stdout_pinned(name, digest):
    path = os.path.join(os.path.dirname(__file__), "..", "jobs", f"{name}.json")
    code, text = run_cli(["--job", path])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# stdout sha256 and exit code of verdicts through every branch of the
# geometric certificate (p in {2, 3}, negative multipliers, every
# automorphism group) and of the tower certificate;
# e3b0c442... is the empty stdout of a refusal
VERDICT_DIGESTS = [
    ("verdict --family power --p 2 --d=3", 0,
     "2007a42bbcf1c45c89c76b7aca2d4e49f9b331f1302a732e05a5d842845e1570"),
    ("verdict --family power --p 2 --d=-3", 0,
     "3cb11767aad076d745ee901aa0ccf4d313d13fadb308ef5909531c74b4798038"),
    ("verdict --family power --p 3 --d=2", 0,
     "39601b2ca988f5a89215019b931beae98ac96d4723794611db5d5c8e6c593415"),
    ("verdict --family power --p 3 --d=-2", 0,
     "7531c39c7a358643438a20cd8dbc1fa5aa936dd8fdca781ead82b409acc41c7f"),
    ("verdict --family power --p 13 --d=2", 0,
     "6bfeb941662064661d4d24d45a9d8c86e39ec566b9de7b74531e95f9540c3971"),
    ("verdict --family power --p 7 --d=-5", 0,
     "0a78ab2f18abeb8043efe7bb082bb040fcfc8342b6dc425288c71ce1f7ac48b5"),
    ("verdict --family chebyshev --p 2 --d 3", 0,
     "05cdc28c4fab56d50e11a9aed920c4028c76fdb025e12ff8159dea8daebc697d"),
    ("verdict --family chebyshev --p 3 --d 2", 0,
     "d04eaa37464178455918a3908f3b866f2bd895d1917c0762cdc9958c56184590"),
    ("verdict --family chebyshev --p 7 --d 4", 0,
     "da925d7eaf175285de2b80eda5f65ace7d0102a92ce970cd0e9c8d42643e2f02"),
    ("verdict --family lattes-generic --p 2 --s=3", 0,
     "5aaecd9bfba2c79380dba5323914ee974abad69b99a6326492148237fa2cebd5"),
    ("verdict --family lattes-generic --p 3 --s=2", 0,
     "2ec25b6aec220ab2ca125daba890f0f74faff4da2a4fdb9aa72ad764312fb3b9"),
    ("verdict --family lattes-generic --p 7 --s=-3", 0,
     "1e841097b31cb215cde981082ceded6c51ce0f16c23d18848423b9f47c0d7d0a"),
    ("verdict --family lattes-ordinary --p 5 --tau 0,1 "
     "--sigma-quad 1,1 --gamma-order 2", 0,
     "5f7882e954f7d958a984ecb47c60db1cde28ae75e9dea0ada7e8c6121b32c743"),
    ("verdict --family lattes-ordinary --p 5 --tau 0,1 "
     "--sigma-quad 1,1 --gamma-order 4", 0,
     "3ea13ef661fe3eeea05396ba3100da2af5590d112f2fbee3f0c88a262b3f680b"),
    ("verdict --family lattes-ordinary --p 7 --tau 1,1 "
     "--sigma-quad 2,1 --gamma-order 3", 0,
     "a205716e8c703e236e741230abef0bdfaaebc791bceb5ab2d88ac69e8875b183"),
    ("verdict --family lattes-ordinary --p 7 --tau 1,1 "
     "--sigma-quad 2,1 --gamma-order 6", 0,
     "2ebeb17ea58cead9168f91ba0915112617e45c466909c68d0820d76be6590b07"),
    ("verdict --family lattes-ordinary --p 2 --tau 1,2 --sigma-quad 1,1", 0,
     "d169420c03b55138d20bb083d9728d6c172d0139eb909b6555f3d48f8ea5a26b"),
    ("verdict --family lattes-ordinary --p 3 --tau 1,3 --sigma-quad 2,1", 0,
     "e9a84a741e51767d7a95d26886672a1e4d56e07f8e159a470f9cfd76fd3c32b9"),
    ("verdict --family lattes-supersingular --p 2 "
     "--sigma-quat 3,1,1,1 --gamma mu2", 0,
     "902b1b81b1033a080b5da77af76bf71c1fc15aa81c1e0866e3dc727035d94c8f"),
    ("verdict --family lattes-supersingular --p 2 --sigma-quat 3,1,1,1", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verdict --family lattes-supersingular --p 3 --sigma-quat 4,0,0,0", 0,
     "2ad38b708d69da89bd118fd2bf883d87fb26823155fe9497aae60827d2b5adea"),
    ("verdict --family lattes-supersingular --p 3 "
     "--sigma-quat 4,0,0,0 --gamma mu2", 0,
     "e25eb50d21e9aa1af7f79de30cce14ad979579ce441020ef56e73bbab5b1965e"),
    ("verdict --family lattes-supersingular --p 7 --sigma-tn 4,4", 0,
     "e90909098ec9e49e354cbdec00259dea4f7e98ef144032deef772e4115be40d3"),
    ("verdict --family lattes-supersingular --p 7 --sigma-tn 1,2", 0,
     "1f3f0f8ed29e91f47533d0e8f3adc2505bbc70267aa6c4f07d366803c2fb782d"),
    ("verdict --family lattes-supersingular --p 5 --sigma-tn 0,2", 0,
     "e4c986d1b36db91769db8685815ff311cf034d01616a774b3ac4afa461576482"),
    ("verdict --family additive --p 3 --sigma 1,0,1", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verdict --family additive --p 2 --sigma 1,0,1", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verdict --family additive --p 2 --sigma 1,1", 0,
     "9081d47709cbb3b7aca475dedef84ad15043601fd31fff955b56d78062c19d83"),
    ("verdict --family subadditive --p 5 --sigma 1,1 --d 4", 0,
     "c752d3a02726d8de9be476343d9e028ddf4879d64dbf4184e95af04febaf2344"),
]


@pytest.mark.parametrize("argv,code,digest", VERDICT_DIGESTS)
def test_verdict_stdout_pinned(argv, code, digest):
    status, text = run_cli(argv.split())
    assert status == code
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestTowerInputs:
    @pytest.mark.parametrize("retired,argv,digest", TOWER_INPUT_DIGESTS,
                             ids=[row[0] for row in TOWER_INPUT_DIGESTS])
    def test_stdout_pinned(self, retired, argv, digest, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(retired.split())
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        code, text = run_cli(argv.split())
        assert code == 0
        records = "".join(text.splitlines(True)[1:])
        assert hashlib.sha256(records.encode()).hexdigest() == digest

    def test_subadditive_mu_19_over_f5_accepted(self):
        # mu_19 lives in F_(5^9); no oracle reaches these degrees, so the
        # counts are not pinned
        code, text = run_cli(["count", "--family", "subadditive", "--p", "5",
                              "--sigma", "1,0,0,0,0,0,0,0,0,1", "--d", "19",
                              "--n-max", "2"])
        assert code == 0
        assert json.loads(text.splitlines()[-1])["mismatches"] == "0"

    def test_subadditive_large_d_within_budget(self):
        # psi = x + x^4096, d = 4095: the quotient y (1 + y)^4095 is built
        # with no product past degree 4096 (psi^d has degree about 1.7e7)
        start = time.perf_counter()
        code, text = run_cli(["count", "--family", "subadditive", "--p", "2",
                              "--sigma", "1,0,0,0,0,0,0,0,0,0,0,0,1",
                              "--d", "4095", "--n-max", "2"])
        elapsed = time.perf_counter() - start
        assert code == 0
        rows = [r for r in map(json.loads, text.splitlines())
                if r["record"] == "row"]
        assert (rows[0]["closed"], rows[0]["oracle"]) == ("4096", "4096")
        assert elapsed < 5.0

    def test_subadditive_over_f3u_reads_as_the_additive_map(self):
        # over F_3(u): c0 = u has no power in mu_2, so #Per_n = 1 + 3^n, and
        # the verdict is rational; c0 = 2 reads one valuation per count
        def records(argv):
            code, text = run_cli(argv.split())
            assert code == 0
            return [json.loads(line) for line in text.splitlines()]

        def closed(argv):
            return [int(r["closed"]) for r in records(argv)
                    if r["record"] == "row"]

        sub = "--family subadditive --ratfunc --p 3 --d 2 --sigma"
        assert closed(f"count {sub} u,1 --n-max 4") == [
            1 + 3 ** n for n in range(1, 5)]
        assert closed(f"count {sub} 2,u --n-max 4") == [3, 7, 15, 55]
        assert records(f"verdict {sub} u,1")[1]["denominator"] == [
            "1", "-4", "3"]
        # the tower certificate's terms divide the orbit sum's d back out,
        # so mu_2 changes no record of sigma = 2 + uF but the family
        ours = records(f"verdict {sub} 2,u")
        theirs = records("verdict --family additive --ratfunc --p 3 "
                         "--sigma 2,u")
        for record in ours + theirs:
            record.pop("family", None)
            record.get("params", {}).pop("family", None)
        del ours[0]["params"]["d"]
        assert ours == theirs

    def test_subadditive_mu_past_the_extension_cap(self, capsys):
        # ord_601(2) = 25: mu_601 lives in F_(2^25), past the extension
        # degree cap 24, and is never listed: for sigma = 1 + F^25 only
        # w = 1 has v_phi(sigma^n - w) > 0, namely 25 * 2^(v_2(n)), so
        # #Per_n = 1 + (600 * 2^(25 n) + 2^(25 n - v)) / 601, which is
        # 1 + (600 * 2^(25 n) + 1) / 601 at n = 1 and 2
        start = time.perf_counter()
        code, text = run_cli(["count", "--family", "subadditive", "--p", "2",
                              "--sigma", ",".join(["1"] + ["0"] * 24 + ["1"]),
                              "--d", "601", "--n-max", "2"])
        elapsed = time.perf_counter() - start
        assert (code, capsys.readouterr().err) == (0, "")
        rows = [r for r in map(json.loads, text.splitlines())
                if r["record"] == "row"]
        assert [int(r["closed"]) for r in rows] == [
            33_498_602, 1_124_026_529_293_802] == [
            1 + (600 * 2 ** (25 * n) + 1) // 601 for n in (1, 2)]
        assert elapsed < 1.0

    @pytest.mark.parametrize("d,top,rows", [
        # mu_8191 lives in F_(2^13), mu_241 in F_(2^24), past the
        # enumeration cap: neither field is made, nor mu_d listed
        (8191, 13, [("8192", "8192")]),
        (241, 24, [("16707602", None), ("280307030749202", None)])])
    def test_subadditive_mu_within_the_extension_cap(self, d, top, rows):
        sigma = ",".join(["1"] + ["0"] * (top - 1) + ["1"])
        start = time.perf_counter()
        code, text = run_cli(["count", "--family", "subadditive", "--p", "2",
                              "--sigma", sigma, "--d", str(d),
                              "--n-max", str(len(rows))])
        elapsed = time.perf_counter() - start
        assert code == 0
        records = map(json.loads, text.splitlines())
        assert [(r["closed"], r["oracle"]) for r in records
                if r["record"] == "row"] == rows
        assert elapsed < 5.0

    def test_subadditive_mu_in_a_degree_13_extension_of_a_large_prime_field(self):
        # 10139 = 16 mod 53 has order 13: mu_53 lives in F_(10139^13),
        # which no count makes; stdout as when a walk of that field found
        # each of the 53 roots (64 s)
        start = time.perf_counter()
        code, text = run_cli(["count", "--family", "subadditive", "--p", "10139",
                              "--sigma", ",".join(["1"] + ["0"] * 12 + ["1"]),
                              "--d", "53", "--n-max", "2"])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a960097453cc7e374f3609a8d5fb544fa10ca90da9e523c6bd9e1ce7a07c2551")
        assert elapsed < 2.0

    def test_transcendental_coefficient_count_pinned_within_budget(self):
        # no power of the non-constant u + 1 is a root of unity, so
        # (u + 1)^100000 is not formed; stdout as before that shortcut
        start = time.perf_counter()
        code, text = run_cli(["count", "--family", "additive", "--p", "3",
                              "--ratfunc", "--sigma", "u+1,1", "--n-min",
                              "100000", "--n-max", "100000"])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "6273de05e34dea7e3c5def81ebcb0dca4953a128bb7f9b74497f16612e70a637")
        assert elapsed < 1.0

    def test_subadditive_roots_of_unity_at_a_large_prime_within_budget(self):
        # mu_2 = {1, -1} in F_p, p = 100000007: one generator, no field walk
        start = time.perf_counter()
        code, text = run_cli(["count", "--family", "subadditive", "--p",
                              "100000007", "--sigma", "1,1", "--d", "2",
                              "--n-max", "1"])
        elapsed = time.perf_counter() - start
        assert code == 0
        row = next(r for r in map(json.loads, text.splitlines())
                   if r["record"] == "row")
        assert row["closed"] == str((100000007 + 3) // 2)
        assert elapsed < 1.0


class TestPolyParser:
    def test_simple(self):
        table = parse_poly_string("y^2+y+t", ["t", "y"])
        assert table == {(0, 2): 1, (0, 1): 1, (1, 0): 1}

    def test_coefficients_and_products(self):
        table = parse_poly_string("3*t^2*y - 2t + 1", ["t", "y"])
        assert table == {(2, 1): 3, (1, 0): -2, (0, 0): 1}

    def test_u_polynomials(self):
        table = parse_poly_string("u^2+2u+1", ["u"])
        assert table == {(2,): 1, (1,): 2, (0,): 1}
