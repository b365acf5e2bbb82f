"""Config ingestion, pipeline orchestration, and report emission.

A run configuration is a flat declarative INI file:

    [field]
    p = 5
    # modulus = 2,0,1      optional: F_{p^k} = F_p[t]/(modulus), ascending
    # rationals = true     optional: use Q instead of a finite field

    [extension]
    flavor = kummer        # kummer | artin_schreier
    n = 4
    a = 2
    zeta = 2               # kummer only

    [run]
    seed = 0
    count = 100
    format = text

The pipeline builds the extension, its fixed-point functor, the relative box
with its multiplication-kernel ideal, runs both oracles and the certificate
machinery, and assembles an EtaleReport whose every verdict is accompanied
by the witness data justifying it.  Identical configs produce byte-identical
serialized reports.
"""

from __future__ import annotations

import configparser
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .boxes import absolute_box_supported, box, compare_boxes, \
    coequalizer_oracle, norm_on_c2_box, prime_box_oracle, relative_box
from .etale import classical_etale_oracle, green_kahler_dims, \
    ideal_and_square, kummer_congruence_checks, mult_map, unit_section_check
from .extensions import GaloisExtension, artin_schreier_extension, \
    kummer_extension
from .fields import Field, extension_field, is_prime, prime_field, rationals
from .green import check_green, check_norms, fix_functor, zero_green
from .linalg import Span
from .mackey import check_axioms, corrupt_transfer, random_mackey, \
    small_random_mackey, subgroup_lattice
from .modules import projectivity_certificate, eigen_decompose, check_eigen, \
    verify_certificate

SCHEMA_VERSION = 1

OUT_OF_SCOPE_NOTICES = (
    "The Tambara-level ideal with norm contributions is not computed; the "
    "reported quotients are the Green-level I/I^2, whose vanishing forces "
    "the Tambara Kaehler differentials to vanish.",
    "The C_3 norm identity on box products is not evaluated: the norm of a "
    "sum is expanded for C_2 only.",
    "Box products and constant-functor identifications are verified for "
    "cyclic groups only.",
)


class ConfigError(ValueError):
    """The configuration file is missing, malformed, or inconsistent."""


@dataclass
class RunConfig:
    p: int | None = None
    modulus: tuple | None = None
    use_rationals: bool = False
    n: int = 2
    flavor: str = "kummer"
    a_raw: str = "1"
    zeta_raw: str | None = None
    seed: int = 0
    count: int = 100
    fmt: str = "text"

    def base_field(self) -> Field:
        if self.use_rationals:
            return rationals()
        if self.p is None:
            raise ConfigError("field section needs p or rationals = true")
        if self.modulus:
            return extension_field(self.p, tuple(self.modulus))
        return prime_field(self.p)

    def parse_scalar(self, raw: str):
        K = self.base_field()
        raw = raw.strip()
        try:
            if self.use_rationals:
                return Fraction(raw)
            if "," in raw:
                coeffs = [int(x) for x in raw.split(",")]
                return K.from_coeffs(coeffs)
            return K.from_int(int(raw))
        except (ValueError, AttributeError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot parse scalar {raw!r} in {K}") from exc

    def extension(self) -> GaloisExtension:
        K = self.base_field()
        a = self.parse_scalar(self.a_raw)
        if self.flavor == "kummer":
            if self.zeta_raw is None:
                raise ConfigError("kummer data needs zeta")
            zeta = self.parse_scalar(self.zeta_raw)
            return kummer_extension(K, self.n, a, zeta)
        if self.flavor == "artin_schreier":
            return artin_schreier_extension(K, a)
        raise ConfigError(f"unknown flavor {self.flavor!r}")


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser()
    cfg = RunConfig()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        if parser.has_section("field"):
            sec = parser["field"]
            if "p" in sec:
                cfg.p = sec.getint("p")
            if "modulus" in sec:
                cfg.modulus = tuple(int(x) for x in
                                    sec["modulus"].split(","))
            cfg.use_rationals = sec.getboolean("rationals", fallback=False)
        sec = parser["extension"]
        cfg.flavor = sec.get("flavor", "kummer").strip()
        cfg.n = sec.getint("n", fallback=2)
        cfg.a_raw = sec.get("a", "1")
        cfg.zeta_raw = sec.get("zeta", fallback=None)
        if parser.has_section("run"):
            sec = parser["run"]
            cfg.seed = sec.getint("seed", fallback=0)
            cfg.count = sec.getint("count", fallback=100)
            cfg.fmt = sec.get("format", fallback="text").strip()
    except ConfigError:
        raise
    except (KeyError, ValueError, configparser.Error) as exc:
        # parser messages span lines; the CLI prints one
        detail = " ".join(str(exc).split())
        raise ConfigError(f"malformed config {path}: {detail}") from exc
    if cfg.n < 1:
        raise ConfigError(f"group order n must be positive, got {cfg.n}")
    if cfg.fmt not in ("text", "json"):
        raise ConfigError(f"unknown output format {cfg.fmt!r}")
    if cfg.flavor == "artin_schreier" and cfg.n != 2:
        raise ConfigError("artin_schreier data is quadratic; set n = 2")
    return cfg


# ---------------------------------------------------------------------------
# element formatting


def format_element(K, coeffs, labels) -> str:
    """Deterministic sum-of-terms form, e.g. ``1⊗1 + 2·[α⊗α]``."""
    terms = []
    for c, lab in zip(coeffs, labels):
        if c == K.zero:
            continue
        terms.append(lab if c == K.one else f"{c}·{lab}")
    return " + ".join(terms) if terms else "0"


def _poly_str(K, coeffs, var="x") -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == K.zero:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            mono = var if i == 1 else f"{var}^{i}"
            terms.append(mono if c == K.one else f"{c}·{mono}")
    return " + ".join(reversed(terms)) if terms else "0"


# ---------------------------------------------------------------------------
# the pipeline


@dataclass
class EtaleReport:
    config: dict
    extension: dict
    functor_checks: dict
    box_levels: dict
    structure_values: dict
    ideal: dict
    oracle_agreement: dict
    norm_remark: dict
    congruences: dict
    certificate: dict
    eigen: dict | None
    classical: dict
    verdict: dict
    mult_matrices: dict = field(default_factory=dict)
    out_of_scope: tuple = OUT_OF_SCOPE_NOTICES
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        out = {
            "schema_version": self.schema_version,
            "config": self.config,
            "extension": self.extension,
            "functor_checks": self.functor_checks,
            "box_levels": _strkeys(self.box_levels),
            "structure_values": self.structure_values,
            "multiplication_matrices": self.mult_matrices,
            "ideal": _strkeys(self.ideal),
            "oracle_agreement": self.oracle_agreement,
            "norm_remark": self.norm_remark,
            "congruences": self.congruences,
            "certificate": self.certificate,
            "eigen": self.eigen,
            "classical": self.classical,
            "out_of_scope": list(self.out_of_scope),
            "verdict": _strkeys_shallow(self.verdict),
        }
        return out


def _strkeys(d: dict) -> dict:
    return {str(k): v for k, v in sorted(d.items())}


def _strkeys_shallow(d: dict) -> dict:
    out = {}
    for k, v in d.items():
        out[k] = _strkeys(v) if isinstance(v, dict) else v
    return out


def run_pipeline(cfg: RunConfig) -> EtaleReport:
    E = cfg.extension()
    K = E.base
    n = E.degree
    lattice = subgroup_lattice(n)
    L = fix_functor(E)

    checks = {
        "mackey_axioms": len(check_axioms(L.mackey)),
        "green_axioms": len(check_green(L)),
        "norm_rules": len(check_norms(L)),
    }

    rb = relative_box(L, K)
    mm = mult_map(rb)
    data = ideal_and_square(rb, mm)
    kahler = green_kahler_dims(data)

    box_levels = {}
    for m in lattice.divisors:
        box_levels[m] = {
            "dim": rb.dim(m),
            "basis": list(rb.levels[m].reduced_labels),
            "ambient_components": {str(d): L.dim(d) ** 2
                                   for d in lattice.divisors if m % d == 0},
        }

    structure_values = _structure_table(rb)
    mult_witness = {str(m): _mat_strs(mm.components[m])
                    for m in lattice.divisors}
    ideal = {}
    for m in lattice.divisors:
        gens = [format_element(K, v, rb.levels[m].reduced_labels)
                for v in data.ideal[m]]
        ideal[m] = {
            "dim": len(data.ideal[m]),
            "generators": gens,
            "generator_coords": [[str(c) for c in v]
                                 for v in data.ideal[m]],
            "square_dim": len(data.square[m]),
            "equals_square": data.verdicts[m],
            "kahler_dim": kahler[m],
        }

    oracle_agreement = {"unit_section": unit_section_check(rb, mm)}
    if absolute_box_supported(K):
        co = coequalizer_oracle(L, K)
        oracle_agreement["coequalizer"] = not compare_boxes(rb, co)
        if is_prime(n):
            # rb has the generators and relations of the absolute L □ L
            po = prime_box_oracle(L, L, n)
            oracle_agreement["prime_closed_form"] = not compare_boxes(rb, po)
        else:
            oracle_agreement["prime_closed_form"] = None
    else:
        oracle_agreement["coequalizer"] = None
        oracle_agreement["prime_closed_form"] = None

    norm_remark = {"applicable": n == 2}
    if n == 2:
        norm_remark.update(_norm_remark(rb, data))

    congruences = {"applicable": E.flavor == "kummer" and n > 1}
    if congruences["applicable"]:
        rep = kummer_congruence_checks(rb, E, data)
        congruences["checks_run"] = rep.checks_run
        congruences["failures"] = list(rep.failures)
        congruences["ok"] = rep.ok

    cert = projectivity_certificate(E) if n > 1 else None
    if cert is not None:
        cert_violations = verify_certificate(cert)
        certificate = {
            "kind": cert.kind,
            "valid": not cert_violations,
            "violations": [str(v) for v in cert_violations],
            "witnesses": [w.description for w in cert.witnesses],
            "witness_components": [
                {str(m): _mat_strs(w.morphism.components[m])
                 for m in lattice.divisors}
                for w in cert.witnesses],
            "details": _details_strs(cert.details),
        }
    else:
        certificate = {"kind": "trivial", "valid": True, "violations": [],
                       "witnesses": [], "witness_components": [],
                       "details": {}}

    eigen = None
    if E.flavor == "kummer" and n > 1:
        dec = eigen_decompose(L.mackey, E.zeta)
        eigen_violations = check_eigen(dec)
        eigen = {
            "valid": not eigen_violations,
            "piece_dims": {str(i): {str(m): dec.pieces[i].functor.dim(m)
                                    for m in lattice.divisors}
                           for i in range(n)},
        }

    classical_rep = classical_etale_oracle(E)
    classical = {
        "tensor_dim": classical_rep.tensor_dim,
        "ideal_dim": classical_rep.ideal_dim,
        "square_dim": classical_rep.square_dim,
        "etale": classical_rep.etale,
        "separability_unit_found": classical_rep.has_separability_unit,
    }

    verdict = {
        "levels": dict(data.verdicts),
        "kahler_all_zero": all(v == 0 for v in kahler.values()),
        "classical_ok": classical_rep.etale,
        "oracles_ok": all(v is not False
                          for v in oracle_agreement.values()),
        "functor_checks_ok": all(v == 0 for v in checks.values()),
        "certificate_valid": certificate["valid"],
        "congruences_ok": congruences.get("ok", True),
        "norm_remark_ok": norm_remark.get("spans_ideal", True),
    }
    verdict["green_etale"] = all(
        v if not isinstance(v, dict) else all(v.values())
        for v in verdict.values())

    config_echo = {
        "field": str(K), "n": n, "flavor": E.flavor,
        "a": str(E.a), "zeta": str(E.zeta) if E.zeta is not None else None,
    }
    extension_info = {
        "base": str(K),
        "degree": n,
        "modulus": _poly_str(K, [c for c in _modulus_coeffs(E)], var="x"),
        "fixed_level_dims": {str(m): L.dim(m) for m in lattice.divisors},
        "fixed_level_bases": {str(m): list(L.labels(m))
                              for m in lattice.divisors},
    }
    return EtaleReport(config_echo, extension_info, checks,
                       box_levels, structure_values, ideal,
                       oracle_agreement, norm_remark, congruences,
                       certificate, eigen, classical, verdict,
                       mult_matrices=mult_witness)


def _modulus_coeffs(E: GaloisExtension):
    if E.flavor == "kummer":
        K = E.base
        return [-E.a] + [K.zero] * (E.degree - 1) + [K.one]
    return [E.a, E.base.one, E.base.one]


def _mat_strs(mat) -> list:
    return [[str(c) for c in row] for row in mat.rows]


def _details_strs(details: dict) -> dict:
    out = {}
    for k, v in details.items():
        if isinstance(v, dict):
            out[k] = {str(kk): str(vv) if not isinstance(vv, dict)
                      else {str(k3): str(v3) for k3, v3 in vv.items()}
                      for kk, vv in v.items()}
        else:
            out[k] = str(v)
    return out


def _structure_table(rb) -> dict:
    """Formatted images of every reduced basis vector under res and tr on
    covering pairs (witness data for the golden reports)."""
    K = rb.scalars
    out = {}
    for (d, m) in rb.lattice.covering_pairs:
        res = rb.green.mackey.res[(d, m)]
        tr = rb.green.mackey.tr[(m, d)]
        entry = {}
        for idx, lab in enumerate(rb.levels[m].reduced_labels):
            vec = res.col(idx)
            name = f"res{lab}" if lab.startswith("[") else f"res({lab})"
            entry[name] = format_element(
                K, vec, rb.levels[d].reduced_labels)
        for idx, lab in enumerate(rb.levels[d].reduced_labels):
            vec = tr.col(idx)
            entry[f"tr({lab})"] = format_element(
                K, vec, rb.levels[m].reduced_labels)
        out[f"C{m}/C{d}"] = entry
    return out


def _norm_remark(rb, data) -> dict:
    """Evaluate the norm of 1⊗α ∓ α⊗1 on a C_2 box and compare its span
    with the multiplication-kernel ideal at the fixed level."""
    K = rb.scalars
    char2 = K.characteristic == 2
    v = [K.zero] * rb.amb_dim(1)
    idx_1a = rb.gen_index(1, 1, 0, 1)
    idx_a1 = rb.gen_index(1, 1, 1, 0)
    v[idx_1a] = K.one
    v[idx_a1] = K.one if char2 else -K.one
    arg = rb.reduce(1, tuple(v))
    value = norm_on_c2_box(rb, arg)
    span = Span(K, rb.dim(2), data.ideal[2])
    labels2 = rb.levels[2].reduced_labels
    labels1 = rb.levels[1].reduced_labels
    return {
        "argument": format_element(K, arg, labels1),
        "value": format_element(K, value, labels2),
        "spans_ideal": span.contains(value) and
        Span(K, rb.dim(2), [value]).contains_all(data.ideal[2]),
    }


# ---------------------------------------------------------------------------
# emission


def emit(report: EtaleReport, fmt: str = "text") -> bytes:
    if fmt == "json":
        return (json.dumps(report.to_dict(), sort_keys=True, indent=2,
                           ensure_ascii=False) + "\n").encode("utf-8")
    if fmt != "text":
        raise ConfigError(f"unknown output format {fmt!r}")
    return _text_report(report).encode("utf-8")


def _text_report(r: EtaleReport) -> str:
    lines = []
    add = lines.append
    add(f"étale verification report (schema {r.schema_version})")
    add("=" * 54)
    c = r.config
    add(f"extension: {c['flavor']} of degree {c['n']} over {c['field']}, "
        f"a = {c['a']}" + (f", ζ = {c['zeta']}" if c["zeta"] else ""))
    add(f"modulus:   {r.extension['modulus']}")
    add("fixed-level bases: " + "; ".join(
        f"level {m}: {{{', '.join(v)}}}"
        for m, v in sorted(r.extension["fixed_level_bases"].items(),
                           key=lambda kv: int(kv[0]))))
    add("")
    add("relative box product")
    add("-" * 54)
    for m, info in sorted(r.box_levels.items()):
        add(f"level C{_n_of(r)}/C{m}: dim {info['dim']}, "
            f"basis {{{', '.join(info['basis'])}}}")
    add("")
    add("structure maps (reduced bases)")
    add("-" * 54)
    for pair, entry in sorted(r.structure_values.items()):
        add(f"covering {pair}:")
        for k, v in entry.items():
            add(f"  {k} = {v}")
    add("")
    add("multiplication-kernel ideal")
    add("-" * 54)
    for m, info in sorted(r.ideal.items()):
        gens = "; ".join(info["generators"]) if info["generators"] else "0"
        add(f"level C{_n_of(r)}/C{m}: dim {info['dim']}, generators: {gens}")
        add(f"  I = I²: {_yn(info['equals_square'])}   "
            f"dim I/I²: {info['kahler_dim']}")
    add("")
    add("oracles and checks")
    add("-" * 54)
    oa = r.oracle_agreement
    add(f"unit section of multiplication: {_yn(oa['unit_section'])}")
    add(f"coequalizer oracle agreement:   {_tristate(oa['coequalizer'])}")
    add(f"prime closed-form agreement:    "
        f"{_tristate(oa['prime_closed_form'])}")
    add(f"classical étale oracle: tensor dim {r.classical['tensor_dim']}, "
        f"dim I = {r.classical['ideal_dim']}, I = I²: "
        f"{_yn(r.classical['etale'])}, separability unit: "
        f"{_yn(r.classical['separability_unit_found'])}")
    if r.congruences.get("applicable"):
        add(f"kernel-generator congruences: "
            f"{r.congruences['checks_run']} checks, "
            f"{len(r.congruences['failures'])} failures")
    if r.norm_remark.get("applicable"):
        add(f"norm of {r.norm_remark['argument']}: "
            f"{r.norm_remark['value']} "
            f"(spans the fixed-level ideal: "
            f"{_yn(r.norm_remark['spans_ideal'])})")
    add("")
    add("projectivity certificate")
    add("-" * 54)
    add(f"kind: {r.certificate['kind']}   "
        f"valid: {_yn(r.certificate['valid'])}")
    for w in r.certificate["witnesses"]:
        add(f"  witness: {w}")
    if r.eigen is not None:
        add("eigenpiece dimensions (piece: level -> dim):")
        for i, dims in sorted(r.eigen["piece_dims"].items(),
                              key=lambda kv: int(kv[0])):
            row = ", ".join(f"{m}: {v}" for m, v in
                            sorted(dims.items(), key=lambda kv: int(kv[0])))
            add(f"  piece {i}: {row}")
    add("")
    add("out-of-scope notices")
    add("-" * 54)
    for note in r.out_of_scope:
        add(f"* {note}")
    add("")
    v = r.verdict
    add(f"VERDICT: Green étale: {'YES' if v['green_etale'] else 'NO'}")
    add(f"  levels I = I²: " + ", ".join(
        f"{m}: {_yn(val)}" for m, val in sorted(
            v["levels"].items(), key=lambda kv: int(kv[0]))))
    add(f"  Kähler dims all zero: {_yn(v['kahler_all_zero'])}")
    add(f"  classical oracle: {_yn(v['classical_ok'])}")
    add(f"  certificate: {_yn(v['certificate_valid'])}")
    return "\n".join(lines) + "\n"


def _n_of(r: EtaleReport) -> int:
    return r.config["n"]


def _yn(b) -> str:
    return "yes" if b else "no"


def _tristate(b) -> str:
    if b is None:
        return "not applicable"
    return "yes" if b else "NO"


# ---------------------------------------------------------------------------
# fuzz harness


@dataclass
class FuzzSummary:
    count: int
    seed: int
    n: int
    field: str
    axiom_failures: list = field(default_factory=list)
    oracle_mismatches: list = field(default_factory=list)
    oracle_applicable: bool = True
    corruption_mode: bool = False
    corruptions_detected: int = 0

    @property
    def ok(self) -> bool:
        if self.corruption_mode:
            return self.corruptions_detected == self.count
        return not self.axiom_failures and not self.oracle_mismatches

    def text(self) -> str:
        head = (f"fuzz: {self.count} functors over {self.field}, C_{self.n}, "
                f"base seed {self.seed}")
        if self.corruption_mode:
            return (f"{head} [corruption mode]\n"
                    f"corruptions detected: {self.corruptions_detected}"
                    f"/{self.count}\nresult: "
                    f"{'PASS' if self.ok else 'FAIL'}\n")
        oracle = (f"{len(self.oracle_mismatches)}"
                  f"{self.oracle_mismatches[:3]}"
                  if self.oracle_applicable else "not applicable")
        return (f"{head}\naxiom failures: {len(self.axiom_failures)}"
                f"{self.axiom_failures[:3]}\n"
                f"oracle mismatches: {oracle}\n"
                f"result: {'PASS' if self.ok else 'FAIL'}\n")


# fuzz rounds between two closed-form oracle comparisons
ORACLE_EVERY = 10


def fuzz(cfg: RunConfig, count: int | None = None, seed: int | None = None,
         corrupt: bool = False) -> FuzzSummary:
    """Seeded axiom/oracle fuzzing; failures reproduce from the seed.

    Each round draws a random functor and checks the Mackey axioms; in
    corruption mode a transfer entry is perturbed first and the run counts
    how many corruptions the checker caught.  For prime group order every
    ``ORACLE_EVERY``-th round also compares the generic box of a random
    pair against the closed-form construction, when the scalars admit an
    absolute box.
    """
    K = cfg.base_field()
    n = cfg.n
    lattice = subgroup_lattice(n)
    count = cfg.count if count is None else count
    if count < 0:
        raise ConfigError(f"fuzz count must be non-negative, got {count}")
    seed = cfg.seed if seed is None else seed
    summary = FuzzSummary(count, seed, n, str(K), corruption_mode=corrupt,
                          oracle_applicable=absolute_box_supported(K))
    for k in range(count):
        s = seed + k
        M = random_mackey(lattice, K, seed=s)
        if corrupt:
            bad = corrupt_transfer(M, seed=s)
            if check_axioms(bad):
                summary.corruptions_detected += 1
            continue
        violations = check_axioms(M)
        if violations:
            summary.axiom_failures.append((s, str(violations[0])))
        if summary.oracle_applicable and is_prime(n) and \
                k % ORACLE_EVERY == 0:
            rng = random.Random(10 ** 6 + s)
            A = zero_green(small_random_mackey(lattice, K,
                                               seed=rng.randrange(2 ** 30)))
            B = zero_green(small_random_mackey(lattice, K,
                                               seed=rng.randrange(2 ** 30)))
            diffs = compare_boxes(box(A, B), prime_box_oracle(A, B, n))
            if diffs:
                summary.oracle_mismatches.append((s, diffs[0]))
    return summary
