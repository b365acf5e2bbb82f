import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib
from collections import Counter

import pytest

import greenbox.report
from greenbox.cli import main
from greenbox.mackey import InternalCheckError
from greenbox.report import (ConfigError, RunConfig, emit, fuzz, load_config,
                             run_pipeline)

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
    or inv.split()[0] != "fuzz" and inv.endswith("kummer_f11_n5.cfg")))
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


# stage calls of one full pipeline on kummer_f7_n3 (the prime closed form
# and the coequalizer are each compared with the relative box); every other
# stage in STAGES is not called
PIPELINE_CALLS = {
    "kummer_extension": 1, "fix_functor": 1, "check_axioms": 1,
    "check_green": 1, "check_norms": 1, "relative_box": 1, "mult_map": 1,
    "ideal_and_square": 1, "unit_section_check": 1, "coequalizer_oracle": 1,
    "prime_box_oracle": 1, "compare_boxes": 2, "kummer_congruence_checks": 1,
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
    spans: a traced check-etale run reports box sizes and canonical forms."""
    spec = importlib.util.spec_from_file_location(
        "greenbox_bench_tracing", HERE.parent / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    out = io.StringIO()
    with tracing.instrumented(tracing.Tracer()) as tracer, \
            contextlib.redirect_stdout(out):
        code = main(["check-etale", str(CONFIGS / "kummer_f5_n2.cfg")])
    assert code == 0
    metrics = tracing.layer_metrics(tracer, 0.0)
    assert metrics["boxes.ambient_gens"] > 0
    assert metrics["presented.canonicalize_calls"] > 0
