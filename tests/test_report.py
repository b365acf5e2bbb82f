import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import pathlib
import sys
from collections import Counter

import pytest

import greenbox.boxes
import greenbox.green
import greenbox.modules
import greenbox.report
from greenbox.cli import main
from greenbox.fields import finite_field, prime_field
from greenbox.mackey import InternalCheckError
from greenbox.green import GreenFunctor
from greenbox.mackey import check_axioms, corrupt_transfer
from greenbox.report import (MAX_GROUP_ORDER, ConfigError, EtaleReport,
                             RunConfig, emit, fuzz, load_config, run_pipeline)

from reference import cyclic_algebra, products

HERE = pathlib.Path(__file__).parent
CONFIGS = HERE.parent / "configs"
GOLDEN = HERE / "golden"
RECORDED_SHA256 = json.loads(
    (HERE.parent / "bench" / "expected_sha256.json").read_text())


def cfg(name):
    return load_config(str(CONFIGS / f"{name}.cfg"))


def test_config_parsing():
    c = cfg("kummer_f5_n4")
    assert c.p == 5 and c.n == 4 and c.flavor == "kummer"
    assert c.a_raw == "2" and c.zeta_raw == "2"


def test_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.cfg"))
    bad = tmp_path / "bad.cfg"
    bad.write_text("[extension]\nflavor = artin_schreier\nn = 3\na = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    nofield = tmp_path / "nofield.cfg"
    nofield.write_text("[extension]\nflavor = kummer\nn = 2\na = 2\n"
                       "zeta = -1\n")
    c = load_config(str(nofield))
    with pytest.raises(ConfigError):
        c.base_field()
    negcount = tmp_path / "negcount.cfg"
    negcount.write_text(NEGATIVE_COUNT)
    with pytest.raises(ConfigError):
        fuzz(load_config(str(negcount)))
    for name, text in MALFORMED.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(str(path))


# configs that fail to parse or name an impossible group order
MALFORMED = {
    "headerless": "p = 5\n[extension]\nn = 2\n",
    "duplicate_option": "[field]\np = 5\np = 7\n",
    "bad_line": "[field]\np = 5\nthis line has no separator\n",
    "zero_order": "[field]\np = 5\n\n[extension]\nflavor = kummer\n"
                  "n = 0\na = 2\nzeta = 1\n",
    "unknown_flavor": "[field]\np = 5\n\n[extension]\nflavor = bogus\n"
                      "n = 2\na = 2\nzeta = -1\n",
    "unknown_key": "[field]\np = 5\n\n[extension]\nflavor = kummer\n"
                   "nn = 4\na = 2\nzeta = -1\n",
    "unknown_section": "[field]\np = 5\n\n[extension]\nflavor = kummer\n"
                       "n = 2\na = 2\nzeta = -1\n\n[runn]\nseed = 1\n",
    "rationals_with_p": "[field]\np = 5\nrationals = true\n"
                        "modulus = 1,0,1\n\n[extension]\nflavor = kummer\n"
                        "n = 2\na = 2\nzeta = -1\n",
    "rationals_with_modulus": "[field]\nrationals = true\nmodulus = 1,0,1\n"
                              "\n[extension]\nflavor = kummer\n"
                              "n = 2\na = 2\nzeta = -1\n",
    # Artin-Schreier data has no root of unity to set
    "artin_schreier_zeta": "[field]\np = 2\n\n[extension]\n"
                           "flavor = artin_schreier\nn = 2\na = 1\n"
                           "zeta = 5\n",
}


# a config that loads but asks fuzz for a negative number of rounds
NEGATIVE_COUNT = ("[field]\np = 7\n\n[extension]\nflavor = kummer\n"
                  "n = 3\na = 3\nzeta = 2\n\n[run]\ncount = -2\n")


@pytest.mark.parametrize("verb", ["check-etale", "fuzz"])
def test_cli_malformed_config_exits_2(tmp_path, capsys, verb):
    for name, text in MALFORMED.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        assert main([verb, str(path)]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


# rational scalars with a zero denominator, in a and in zeta
ZERO_DENOMINATOR = {
    "a": "[field]\nrationals = true\n\n[extension]\nflavor = kummer\n"
         "n = 2\na = 1/0\nzeta = -1\n",
    "zeta": "[field]\nrationals = true\n\n[extension]\nflavor = kummer\n"
            "n = 2\na = 2\nzeta = -1/0\n",
}


@pytest.mark.parametrize("verb", ["check-etale", "report", "fuzz"])
def test_cli_zero_denominator_exits_2(tmp_path, capsys, verb):
    for name, text in ZERO_DENOMINATOR.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        assert main([verb, str(path)]) == 2, name
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


# configs that parse but describe no cyclic Galois extension
INVALID_EXTENSION = {
    "a_zero": "[field]\np = 5\n\n[extension]\nflavor = kummer\n"
              "n = 2\na = 0\nzeta = -1\n",
    "zeta_not_primitive": "[field]\np = 5\n\n[extension]\nflavor = kummer\n"
                          "n = 3\na = 2\nzeta = 2\n",
    "a_square": "[field]\np = 5\n\n[extension]\nflavor = kummer\n"
                "n = 2\na = 4\nzeta = -1\n",
    # over F_9 = F_3[t]/(t^2 + 1), t^2 = -1 = 2 is a square ...
    "a_unreduced_square": "[field]\np = 3\nmodulus = 1,0,1\n\n"
                          "[extension]\nflavor = kummer\n"
                          "n = 2\na = 0,0,1\nzeta = 2\n",
    # ... and 1 + t + t^2 + t^3 = 0
    "a_unreduced_zero": "[field]\np = 3\nmodulus = 1,0,1\n\n"
                        "[extension]\nflavor = kummer\n"
                        "n = 2\na = 1,1,1,1\nzeta = 2\n",
}


@pytest.mark.parametrize("verb", ["check-etale", "box", "decompose",
                                  "report", "fuzz"])
@pytest.mark.parametrize("name", sorted(INVALID_EXTENSION))
def test_cli_invalid_extension_exits_2(tmp_path, capsys, verb, name):
    path = tmp_path / f"{name}.cfg"
    path.write_text(INVALID_EXTENSION[name])
    assert main([verb, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["check-etale"], ["report"],
                                  ["fuzz", "--count", "2"]])
def test_cli_field_order_above_the_bound_exits_2(tmp_path, capsys, argv):
    """A field order above ``fields.MAX_FIELD_ORDER`` is refused at once,
    before the field's elements or a primality test are computed."""
    path = tmp_path / "large.cfg"
    path.write_text("[field]\np = 100000000003\n\n[extension]\n"
                    "flavor = kummer\nn = 2\na = 2\nzeta = -1\n")
    assert main(argv + [str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("verb", ["check-etale", "box", "decompose",
                                  "report", "fuzz"])
def test_cli_group_order_above_the_bound_exits_2(tmp_path, capsys,
                                                 monkeypatch, verb):
    """A group order above ``report.MAX_GROUP_ORDER`` is refused by
    ``load_config``, before a primality test, a prime factorisation or an
    extension is built."""
    def fail(*args, **kwargs):
        raise AssertionError("built past the group-order bound")

    for module in ("fields", "mackey", "report"):
        monkeypatch.setattr(f"greenbox.{module}.is_prime", fail)
    for module in ("fields", "extensions", "mackey"):
        monkeypatch.setattr(f"greenbox.{module}.prime_factors", fail)
    for builder in ("kummer_extension", "artin_schreier_extension"):
        monkeypatch.setattr(f"greenbox.report.{builder}", fail)
    path = tmp_path / "large_n.cfg"
    path.write_text("[field]\np = 10007\n\n[extension]\nflavor = kummer\n"
                    "n = 5003\na = 2\nzeta = 5\n")
    assert main([verb, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "5003" in err


def test_group_order_bound_accepts_c16(tmp_path):
    path = tmp_path / "c16.cfg"
    path.write_text("[field]\np = 17\n\n[extension]\nflavor = kummer\n"
                    "n = 16\na = 3\nzeta = 3\n")
    assert load_config(str(path)).n == 16 <= MAX_GROUP_ORDER


def test_cli_closed_stdout_is_no_invalid_input(capsys, monkeypatch):
    """A reader that closes stdout early (``greenbox box cfg | head -1``)
    gets neither an ``error:`` line nor a traceback, and the exit code is
    not the invalid-input code 2."""
    class ClosedPipe:
        def write(self, data):
            raise BrokenPipeError(32, "Broken pipe")

        flush = write
        buffer = property(lambda self: self)

    for verb in ("box", "check-etale", "report"):
        monkeypatch.setattr("sys.stdout", ClosedPipe())
        code = main([verb, str(CONFIGS / "kummer_f5_n2.cfg")])
        monkeypatch.undo()
        assert code not in (0, 2), verb
        assert capsys.readouterr().err == "", verb


def test_invalid_extension_parameters_diagnosed(tmp_path):
    square = tmp_path / "square.cfg"
    square.write_text("[field]\np = 5\n\n[extension]\nflavor = kummer\n"
                      "n = 2\na = 4\nzeta = -1\n")
    c = load_config(str(square))
    from greenbox.extensions import ConstructionError
    with pytest.raises(ConstructionError):
        c.extension()


def test_report_determinism():
    r1 = run_pipeline(cfg("kummer_f7_n3"))
    r2 = run_pipeline(cfg("kummer_f7_n3"))
    assert emit(r1, "json") == emit(r2, "json")
    assert emit(r1, "text") == emit(r2, "text")


def test_json_round_trip():
    r = run_pipeline(cfg("kummer_f5_n2"))
    blob = emit(r, "json")
    parsed = json.loads(blob.decode("utf-8"))
    assert parsed["schema_version"] == 1
    assert parsed == json.loads(emit(r, "json").decode("utf-8"))
    assert parsed["verdict"]["green_etale"] is True


def test_golden_text_report():
    r = run_pipeline(cfg("artin_schreier_f2"))
    expected = (GOLDEN / "artin_schreier_f2_report.txt").read_bytes()
    assert emit(r, "text") == expected


def test_golden_json_report():
    r = run_pipeline(cfg("artin_schreier_f2"))
    expected = (GOLDEN / "artin_schreier_f2_report.json").read_bytes()
    assert emit(r, "json") == expected


def test_report_contains_displayed_values():
    text = emit(run_pipeline(cfg("artin_schreier_f2")), "text").decode()
    assert "1⊗1 + [α⊗α]" in text                       # the ideal generator
    assert "res[α⊗α] = 1⊗1 + 1⊗α + α⊗1" in text
    assert "tr(1⊗α) = 1⊗1" in text
    assert "norm of 1⊗α + α⊗1: 1⊗1 + [α⊗α]" in text
    text2 = emit(run_pipeline(cfg("kummer_f5_n2")), "text").decode()
    assert "res[α⊗α] = 2·α⊗α" in text2
    assert "tr(1⊗1) = 2·1⊗1" in text2


def test_out_of_scope_notices_present():
    parsed = json.loads(emit(run_pipeline(cfg("kummer_f7_n3")),
                             "json").decode())
    notes = " ".join(parsed["out_of_scope"])
    assert "norm" in notes and "C_3" in notes


def test_cli_check_etale_exit_codes(capsys):
    assert main(["check-etale", str(CONFIGS / "kummer_f5_n2.cfg")]) == 0
    out = capsys.readouterr().out
    assert "Green étale: YES" in out
    assert main(["check-etale", "/does/not/exist.cfg"]) == 2


def test_cli_report_json(capsys):
    assert main(["report", str(CONFIGS / "artin_schreier_f2.cfg"),
                 "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["schema_version"] == 1


def test_cli_box_and_decompose(capsys):
    assert main(["box", str(CONFIGS / "kummer_f5_n2.cfg")]) == 0
    assert "[α⊗α]" in capsys.readouterr().out
    assert main(["decompose", str(CONFIGS / "kummer_f5_n4.cfg")]) == 0
    out = capsys.readouterr().out
    assert "eigenpiece 0" in out and "eigen_free" in out


def test_cli_fuzz(capsys):
    assert main(["fuzz", "--count", "6", str(CONFIGS / "kummer_f7_n3.cfg")
                 ]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["fuzz", "--count", "4", "--corrupt",
                 str(CONFIGS / "kummer_f5_n4.cfg")]) == 0
    assert "corruptions detected: 4/4" in capsys.readouterr().out


@pytest.mark.parametrize("corrupt", [[], ["--corrupt"]])
def test_cli_fuzz_negative_count_exits_2(tmp_path, capsys, corrupt):
    negcount = tmp_path / "negcount.cfg"
    negcount.write_text(NEGATIVE_COUNT)
    for argv in (["--count", "-3", str(CONFIGS / "kummer_f7_n3.cfg")],
                 [str(negcount)]):
        assert main(["fuzz", *corrupt, *argv]) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["fuzz", "--count", "abc", str(CONFIGS / "kummer_f7_n3.cfg")],
    ["frobnicate", "x"],
    [],
], ids=["bad-count", "unknown-verb", "no-verb"])
def test_cli_usage_errors_exit_2(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cli_leaves_no_argparse_garbage(capsys):
    """The parser is built once, so a repeated call leaves no argparse
    reference cycles behind."""
    argv = ["check-etale", str(CONFIGS / "kummer_f5_n2.cfg")]
    assert main(argv) == 0
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        found = [type(o).__name__ for o in gc.garbage if isinstance(
            o, (argparse.ArgumentParser, argparse.HelpFormatter,
                argparse._ArgumentGroup))]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert found == []


DEGREE_ONE = ("[field]\np = 5\n\n[extension]\nflavor = kummer\nn = 1\n"
              "a = 3\nzeta = 1\n")


def test_cli_fuzz_corrupt_refuses_a_group_without_transfers(tmp_path, capsys):
    """C_1 has no covering pair, so no transfer to corrupt: corruption mode
    exits 2 with one error line, before any round; plain fuzz still runs."""
    c1 = tmp_path / "c1.cfg"
    c1.write_text(DEGREE_ONE)
    for count in ("3", "0"):
        assert main(["fuzz", "--count", count, "--corrupt", str(c1)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: fuzz --corrupt needs a transfer to corrupt, " \
            "and C_1 has none\n"
        assert "Traceback" not in err
    assert main(["fuzz", "--count", "3", str(c1)]) == 0
    assert capsys.readouterr().out.endswith("result: PASS\n")


def test_functor_checks_count_every_mackey_violation():
    """The report's functor checks count every axiom violation, not only
    the first one that fuzz rounds stop at."""
    r = EtaleReport(cfg("kummer_f5_n4"))
    bad = corrupt_transfer(r.fixed.mackey, seed=1)
    full = check_axioms(bad)
    assert len(full) > 1
    r.fixed = GreenFunctor(bad, products(r.fixed), r.fixed.unit)
    assert r.functor_checks["mackey_axioms"] == len(full)


def test_fuzz_deterministic():
    c = cfg("kummer_f7_n3")
    s1 = fuzz(c, count=8, seed=5)
    s2 = fuzz(c, count=8, seed=5)
    assert s1.text() == s2.text()
    assert s1.ok


def test_fuzz_corruption_detection():
    c = cfg("kummer_f5_n4")
    s = fuzz(c, count=10, seed=2, corrupt=True)
    assert s.corruptions_detected == 10
    assert s.ok


def test_fuzz_extension_field_prime_order(tmp_path):
    f9 = tmp_path / "f9.cfg"
    f9.write_text("[field]\np = 3\nmodulus = 1,0,1\n\n[extension]\n"
                  "flavor = kummer\nn = 2\na = 1,1\nzeta = 2\n")
    s = fuzz(load_config(str(f9)), count=2)
    assert s.ok
    assert "oracle mismatches: not applicable" in s.text()


def test_rational_config(tmp_path):
    q = tmp_path / "rational.cfg"
    q.write_text("[field]\nrationals = true\n\n[extension]\n"
                 "flavor = kummer\nn = 2\na = 2\nzeta = -1\n")
    r = run_pipeline(load_config(str(q)))
    assert r.verdict["green_etale"]


def test_extension_base_config(tmp_path):
    f4 = tmp_path / "f4base.cfg"
    f4.write_text("[field]\np = 2\nmodulus = 1,1,1\n\n[extension]\n"
                  "flavor = kummer\nn = 3\na = 0,1\nzeta = 0,1\n")
    r = run_pipeline(load_config(str(f4)))
    assert r.verdict["green_etale"]
    # oracles that need prime scalars are reported as not applicable
    assert r.oracle_agreement["coequalizer"] is None


def test_degenerate_identity_extension_pipeline():
    r = run_pipeline(RunConfig(p=5, n=1, flavor="kummer", a_raw="3",
                               zeta_raw="1"))
    assert r.verdict["green_etale"]
    assert r.ideal[1]["dim"] == 0
    assert r.certificate["kind"] == "trivial"


@pytest.mark.parametrize("invocation", sorted(
    inv for inv in RECORDED_SHA256 if inv.split()[-1].startswith("configs/")
    or inv.endswith("kummer_f11_n5.cfg")))
def test_cli_stdout_matches_recorded_sha256(invocation):
    *args, config = invocation.split()
    # report writes bytes to sys.stdout.buffer, the other verbs write text
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out):
        assert main(args + [str(HERE.parent / config)]) == 0
    out.flush()
    digest = hashlib.sha256(out.buffer.getvalue()).hexdigest()
    assert digest == RECORDED_SHA256[invocation]


def _recorded_stdout_holds(invocation):
    """Run a recorded invocation; True when it exits 0 with the recorded
    stdout SHA-256."""
    *args, config = invocation.split()
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out):
        code = main(args + [str(HERE.parent / config)])
    out.flush()
    digest = hashlib.sha256(out.buffer.getvalue()).hexdigest()
    return code == 0 and digest == RECORDED_SHA256[invocation]


# every greenbox.report stage that the benchmark's traced run spans
STAGES = ("kummer_extension", "artin_schreier_extension", "fix_functor",
          "check_green", "check_norms", "check_axioms", "random_mackey",
          "small_random_mackey", "relative_box", "box", "coequalizer_oracle",
          "prime_box_oracle", "compare_boxes", "mult_map", "ideal_and_square",
          "unit_section_check", "kummer_congruence_checks",
          "classical_etale_oracle", "projectivity_certificate",
          "verify_certificate", "eigen_decompose", "check_eigen")


def _forbidden(name):
    def stage(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return stage


@pytest.mark.parametrize("verb, unused", [
    ("box", ("coequalizer_oracle", "prime_box_oracle",
             "classical_etale_oracle", "kummer_congruence_checks",
             "projectivity_certificate", "ideal_and_square")),
    ("decompose", ("relative_box", "mult_map")),
])
def test_verb_computes_only_what_it_prints(monkeypatch, verb, unused):
    for name in unused:
        monkeypatch.setattr(greenbox.report, name, _forbidden(name))
    assert _recorded_stdout_holds(f"{verb} configs/kummer_f7_n3.cfg")


@pytest.mark.parametrize("invocation", sorted(
    inv for inv in RECORDED_SHA256 if inv.startswith("check-etale ")))
def test_check_etale_reads_no_formatting_section(monkeypatch, invocation):
    """check-etale prints its verdict, which reads every check but none of
    the report's formatting sections."""
    for name in ("structure_values", "mult_matrices", "extension",
                 "box_levels", "eigen"):
        monkeypatch.setattr(EtaleReport, name,
                            property(_forbidden(f"section {name} read")))
    assert _recorded_stdout_holds(invocation)


# stage calls of one full pipeline on kummer_f7_n3 (the prime closed form
# is compared with the relative box; the coequalizer checks it and returns
# no box); every other stage in STAGES is not called
PIPELINE_CALLS = {
    "kummer_extension": 1, "fix_functor": 1, "check_axioms": 1,
    "check_green": 1, "check_norms": 1, "relative_box": 1, "mult_map": 1,
    "ideal_and_square": 1, "unit_section_check": 1, "coequalizer_oracle": 1,
    "prime_box_oracle": 1, "compare_boxes": 1, "kummer_congruence_checks": 1,
    "projectivity_certificate": 1, "verify_certificate": 1,
    "eigen_decompose": 1, "check_eigen": 1, "classical_etale_oracle": 1,
}


@pytest.mark.parametrize("verb", ["report --format text", "check-etale"])
def test_full_pipeline_runs_every_check(monkeypatch, verb):
    calls = Counter()

    def counted(name, fn):
        def stage(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return stage

    for name in STAGES:
        monkeypatch.setattr(greenbox.report, name,
                            counted(name, getattr(greenbox.report, name)))
    assert _recorded_stdout_holds(f"{verb} configs/kummer_f7_n3.cfg")
    assert dict(calls) == PIPELINE_CALLS


def test_full_pipeline_builds_each_stage_once(monkeypatch):
    """One pipeline builds L^fix once and two boxes: the relative box and
    the coequalizer's T □ K^c (it presents the threefold box by its
    generators and relations only, and its quotient is the relative box
    itself; the prime closed form uses no builder)."""
    calls = Counter()

    def counted(name, fn):
        def stage(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return stage

    for name, fn in (("build_box", greenbox.boxes.build_box),
                     ("fix_functor", greenbox.green.fix_functor)):
        wrapped = counted(name, fn)
        # every module that bound the function by name
        for key, module in list(sys.modules.items()):
            if key.startswith("greenbox") and \
                    getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, wrapped)
    run_pipeline(cfg("kummer_f7_n3")).to_dict()
    assert calls == {"build_box": 2, "fix_functor": 1}


@pytest.mark.parametrize("verb", ["report --format text", "check-etale",
                                  "decompose"])
def test_each_verb_decomposes_l_fix_once(monkeypatch, verb):
    """The certificate and the eigen section share one decomposition and
    one ``check_eigen`` run, in every module that bound them by name."""
    calls = Counter()

    def counted(name, fn):
        def stage(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return stage

    for name in ("eigen_decompose", "check_eigen"):
        fn = getattr(greenbox.modules, name)
        for key, module in list(sys.modules.items()):
            if key.startswith("greenbox") and \
                    getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    assert _recorded_stdout_holds(f"{verb} configs/kummer_f7_n3.cfg")
    assert calls == {"eigen_decompose": 1, "check_eigen": 1}


def test_verb_exit_codes_cover_their_own_checks(monkeypatch, capsys):
    path = str(CONFIGS / "kummer_f5_n2.cfg")
    with monkeypatch.context() as mp:
        mp.setattr(greenbox.report, "verify_certificate",
                   lambda cert: ["forged violation"])
        assert main(["check-etale", path]) == 1
        assert main(["decompose", path]) == 1
        assert main(["box", path]) == 0
    with monkeypatch.context() as mp:
        mp.setattr(greenbox.report, "check_eigen", lambda dec: ["forged"])
        assert main(["decompose", path]) == 1

    def failing_box(*args, **kwargs):
        raise InternalCheckError("forged descent failure", witness=(1, 2))

    monkeypatch.setattr(greenbox.report, "relative_box", failing_box)
    capsys.readouterr()
    assert main(["box", path]) == 1
    assert "witness: (1, 2)" in capsys.readouterr().err


def test_layer_trace_attaches_to_the_cli():
    """The benchmark's per-layer trace still hooks into the modules it
    spans: a traced check-etale run reports box sizes, and canonical forms
    are counted.  The pipeline itself reads every box through its reduced
    Green functor and canonicalizes nothing, so the one counted call is
    made here, on a level of the traced run's relative box."""
    spec = importlib.util.spec_from_file_location(
        "greenbox_bench_tracing", HERE.parent / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    out = io.StringIO()
    with tracing.instrumented(tracing.Tracer()) as tracer, \
            contextlib.redirect_stdout(out):
        code = main(["check-etale", str(CONFIGS / "kummer_f5_n2.cfg")])
        assert tracing.layer_metrics(
            tracer, 0.0)["presented.canonicalize_calls"] == 0
        (_, _, bx), = tracer.kept["boxes.relative_box"]
        lvl = bx.levels[2]
        lvl.canonicalize((bx.scalars.zero,) * lvl.ngens)
    assert code == 0
    metrics = tracing.layer_metrics(tracer, 0.0)
    assert metrics["boxes.ambient_gens"] > 0
    assert metrics["presented.canonicalize_calls"] == 1


# ---------------------------------------------------------------------------
# NO verdicts as tested facts: K[x]/(x^n − a) over F_13, a = 0 and a = 1


def _cyclic_report(n, a, zeta, K=None):
    """The report of K[x]/(x^n − a) with σ(x) = ζx, over F_13 unless K is
    given; a and ζ are integers, or elements of K."""
    K = K or prime_field(13)
    a, zeta = (K.from_int(c) if isinstance(c, int) else c
               for c in (a, zeta))
    r = EtaleReport(RunConfig())
    r.__dict__["galois"] = cyclic_algebra(K, n, a, zeta)
    return r


# n, ζ -> box dims, (dim I, dim I²) per level, failing / run congruences
CYCLIC_NO = {
    (3, 3): ({1: 9, 3: 3}, {1: (6, 4), 3: (2, 0)}, (2, 66)),
    (4, 5): ({1: 16, 2: 8, 4: 4}, {1: (12, 9), 2: (6, 4), 4: (3, 0)},
             (7, 252)),
}


@pytest.mark.parametrize("n,zeta", CYCLIC_NO, ids=["C3/F13", "C4/F13"])
@pytest.mark.parametrize("a", [0, 1])
def test_cyclic_algebra_verdicts(n, zeta, a):
    """K[x]/(x^n) is not étale: every section that decides étaleness says
    NO, while the functor checks and the box oracles still pass.  With
    a = 1 the same algebra is a product of fields and every section says
    YES."""
    dims, ideal_dims, (failing, run) = CYCLIC_NO[(n, zeta)]
    r = _cyclic_report(n, a, zeta)
    assert {m: r.rel_box.dim(m) for m in r.divisors} == dims
    assert r.functor_checks == {"mackey_axioms": 0, "green_axioms": 0,
                                "norm_rules": 0}
    assert all(v is not False for v in r.oracle_agreement.values())
    assert r.congruences["checks_run"] == run
    assert r.verdict["levels"][1] == r.classical["etale"]
    assert r.certificate["valid"]
    top_ideal, top_square = ideal_dims[1]
    if a == 1:
        assert {m: (v["dim"], v["square_dim"]) for m, v in r.ideal.items()} \
            == {m: (i, i) for m, (i, _) in ideal_dims.items()}
        assert r.congruences["failures"] == []
        assert r.classical["etale"]
        assert all(v is True or isinstance(v, dict) and all(v.values())
                   for v in r.verdict.values())
        return
    assert {m: (v["dim"], v["square_dim"]) for m, v in r.ideal.items()} == \
        ideal_dims
    assert len(r.congruences["failures"]) == failing
    assert (r.classical["ideal_dim"], r.classical["square_dim"]) == \
        (top_ideal, top_square)
    assert not r.classical["separability_unit_found"]
    v = r.verdict
    for key in ("kahler_all_zero", "classical_ok", "congruences_ok",
                "green_etale"):
        assert v[key] is False, key
    assert not any(v["levels"].values())
    assert "Green étale: NO" in emit(r).decode()


# ROADMAP item 15's table, over F_11, F_13 and F_9 = F_3[t]/(t² + 1):
# K, n, ζ -> (dim I, dim I²) per level at a = 0, and the units a for which
# K[x]/(x^n − a) is a product of fields (split, two cubics, three quadratics)
F9 = finite_field(3, 2)
CYCLIC_TABLE = {
    "C5/F11": (prime_field(11), 5, 3, {1: (20, 16), 5: (4, 0)}, ()),
    "C6/F13": (prime_field(13), 6, 4, {1: (30, 25), 2: (15, 12),
                                       3: (10, 7), 6: (5, 0)},
               (2 ** 6, 2 ** 2, 2 ** 3)),
    "C4/F9": (F9, 4, F9.gen, {1: (12, 9), 2: (6, 4), 4: (3, 0)}, (1,)),
}
CYCLIC_TABLE_RUNS = [(name, 0) for name in CYCLIC_TABLE] + [
    (name, a) for name, row in CYCLIC_TABLE.items() for a in row[4]]


@pytest.mark.parametrize("name,a", CYCLIC_TABLE_RUNS,
                         ids=[f"{name} a={a}" for name, a in
                              CYCLIC_TABLE_RUNS])
def test_cyclic_algebra_table_rows(name, a):
    """With a = 0 every level and the classical oracle say NO, with the
    listed (dim I, dim I²): I² never fills, so the early stop and the μ
    tests meet their NO path.  With a unit a that makes K[x]/(x^n − a) a
    product of fields, I = I² everywhere and every section says YES."""
    K, n, zeta, ideal_dims, _ = CYCLIC_TABLE[name]
    r = _cyclic_report(n, a, zeta, K)
    assert r.functor_checks == {"mackey_axioms": 0, "green_axioms": 0,
                                "norm_rules": 0}
    got = {m: (v["dim"], v["square_dim"]) for m, v in r.ideal.items()}
    v, c = r.verdict, r.classical
    if a == 0:
        assert got == ideal_dims
        assert (c["ideal_dim"], c["square_dim"]) == ideal_dims[1]
        assert not c["separability_unit_found"]
        assert r.congruences["failures"]
        assert not any(v["levels"].values())
        for key in ("kahler_all_zero", "classical_ok", "congruences_ok",
                    "green_etale"):
            assert v[key] is False, key
        return
    assert got == {m: (i, i) for m, (i, _) in ideal_dims.items()}
    assert c["etale"] and c["separability_unit_found"]
    assert r.congruences["failures"] == []
    assert all(v["levels"].values()) and v["green_etale"]
