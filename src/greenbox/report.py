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

Any other section or key is an error, and so is a field of order p^k
above ``fields.MAX_FIELD_ORDER`` = 2^16 or a group order n above
``MAX_GROUP_ORDER`` = 32.

An EtaleReport holds one section per fact (the relative box and its ideal,
both oracles, the certificate, the classical oracle, the verdict, ...), each
computed on first use with the witness data justifying it; ``run_pipeline``
computes them all.  Identical configs produce byte-identical serialized
reports.
"""

from __future__ import annotations

import configparser
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .boxes import absolute_box_supported, box, compare_boxes, \
    coequalizer_oracle, norm_on_c2_box, prime_box_oracle, relative_box
from .etale import classical_etale_oracle, ideal_and_square, \
    kummer_congruence_checks, mult_map, unit_section_check
from .extensions import GaloisExtension, artin_schreier_extension, \
    kummer_extension
from .fields import Field, extension_field, is_prime, prime_field, rationals
from .green import check_green, check_norms, fix_functor, zero_green
from .linalg import Span, tensor_vec, unit_vec, vec_sub
from .mackey import check_axioms, corrupt_transfer, random_mackey, \
    small_random_mackey, subgroup_lattice
from .modules import projectivity_certificate, eigen_decompose, check_eigen, \
    verify_certificate
from .presented import format_element

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


# The largest group order a config may ask for.  The box has about n²
# tensor generators per divisor of n and C_16 takes about a minute, so a much
# larger order would not finish; n = 5003 over F_10007 did not even get
# through building the extension.
MAX_GROUP_ORDER = 32


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

    def scalars(self) -> tuple:
        """``(a, zeta)`` in the base field; zeta is None for non-Kummer data."""
        a = self.parse_scalar(self.a_raw)
        if self.flavor != "kummer":
            return a, None
        if self.zeta_raw is None:
            raise ConfigError("kummer data needs zeta")
        return a, self.parse_scalar(self.zeta_raw)

    def extension(self) -> GaloisExtension:
        K = self.base_field()
        a, zeta = self.scalars()
        if self.flavor == "kummer":
            return kummer_extension(K, self.n, a, zeta)
        if self.flavor == "artin_schreier":
            return artin_schreier_extension(K, a)
        raise ConfigError(f"unknown flavor {self.flavor!r}")


# section -> the keys it may hold; anything else is rejected, so a typo
# cannot fall back to a default silently
CONFIG_KEYS = {"field": ("p", "modulus", "rationals"),
               "extension": ("flavor", "n", "a", "zeta"),
               "run": ("seed", "count", "format")}


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser()
    cfg = RunConfig()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        for name in parser.sections():
            if name not in CONFIG_KEYS:
                raise ConfigError(f"unknown section [{name}] in {path}")
            unknown = sorted(set(parser[name]) - set(CONFIG_KEYS[name]))
            if unknown:
                raise ConfigError(f"unknown key {', '.join(unknown)} in "
                                  f"[{name}] of {path}")
        if parser.has_section("field"):
            sec = parser["field"]
            if "p" in sec:
                cfg.p = sec.getint("p")
            if "modulus" in sec:
                cfg.modulus = tuple(int(x) for x in
                                    sec["modulus"].split(","))
            cfg.use_rationals = sec.getboolean("rationals", fallback=False)
            if cfg.use_rationals and ("p" in sec or "modulus" in sec):
                raise ConfigError("[field] sets rationals = true together "
                                  f"with p or modulus in {path}")
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
    if cfg.n > MAX_GROUP_ORDER:
        raise ConfigError(f"group order n = {cfg.n} exceeds {MAX_GROUP_ORDER}")
    if cfg.fmt not in ("text", "json"):
        raise ConfigError(f"unknown output format {cfg.fmt!r}")
    if cfg.flavor not in ("kummer", "artin_schreier"):
        raise ConfigError(f"unknown flavor {cfg.flavor!r}")
    if cfg.flavor == "artin_schreier" and cfg.n != 2:
        raise ConfigError("artin_schreier data is quadratic; set n = 2")
    if cfg.flavor == "artin_schreier" and cfg.zeta_raw is not None:
        raise ConfigError("artin_schreier data takes no zeta; remove it")
    return cfg


# ---------------------------------------------------------------------------
# element formatting


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
# the report


class EtaleReport:
    """The verification report of one config, one section per fact.  Each
    section runs the stages it needs on first use; ``to_dict`` reads them
    all, in report order."""

    out_of_scope = OUT_OF_SCOPE_NOTICES
    schema_version = SCHEMA_VERSION

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg

    # -- stages shared by several sections --------------------------------

    @cached_property
    def galois(self) -> GaloisExtension:
        return self.cfg.extension()

    @cached_property
    def divisors(self) -> tuple:
        return subgroup_lattice(self.galois.degree).divisors

    @cached_property
    def fixed(self):
        """The fixed-point functor L^fix."""
        return fix_functor(self.galois)

    @cached_property
    def rel_box(self):
        """L^fix □_{K^c} L^fix, with every structure map checked to descend."""
        return relative_box(self.fixed, self.galois.base)

    @cached_property
    def mult_morphism(self):
        return mult_map(self.rel_box)

    @cached_property
    def ideal_data(self):
        return ideal_and_square(self.rel_box, self.mult_morphism)

    @cached_property
    def eigen_decomposition(self):
        """L^fix's ζ-eigen decomposition and its ``check_eigen``
        violations, built once for the certificate and the eigen section;
        None unless E is Kummer with n ≥ 2."""
        E = self.galois
        if E.flavor != "kummer" or E.degree < 2:
            return None
        dec = eigen_decompose(self.fixed.mackey, E.zeta)
        return dec, check_eigen(dec)

    # -- sections -----------------------------------------------------------

    @cached_property
    def config(self) -> dict:
        E = self.galois
        return {"field": str(E.base), "n": E.degree, "flavor": E.flavor,
                "a": str(E.a),
                "zeta": str(E.zeta) if E.zeta is not None else None}

    @cached_property
    def extension(self) -> dict:
        E, L = self.galois, self.fixed
        return {
            "base": str(E.base),
            "degree": E.degree,
            "modulus": _poly_str(E.base, _modulus_coeffs(E), var="x"),
            "fixed_level_dims": {str(m): L.dim(m) for m in self.divisors},
            "fixed_level_bases": {str(m): list(L.labels(m))
                                  for m in self.divisors},
        }

    @cached_property
    def functor_checks(self) -> dict:
        L = self.fixed
        return {"mackey_axioms": len(check_axioms(L.mackey)),
                "green_axioms": len(check_green(L)),
                "norm_rules": len(check_norms(L))}

    @cached_property
    def box_levels(self) -> dict:
        rb, L = self.rel_box, self.fixed
        return {m: {"dim": rb.dim(m),
                    "basis": list(rb.levels[m].reduced_labels),
                    "ambient_components": {str(d): L.dim(d) ** 2
                                           for d in self.divisors
                                           if m % d == 0}}
                for m in self.divisors}

    @cached_property
    def structure_values(self) -> dict:
        """Formatted images of every reduced basis vector under res and tr
        on covering pairs (witness data for the golden reports)."""
        rb = self.rel_box
        K = rb.scalars
        out = {}
        for (d, m) in rb.lattice.covering_pairs:
            res = rb.green.mackey.res[(d, m)]
            tr = rb.green.mackey.tr[(m, d)]
            entry = {}
            for idx, lab in enumerate(rb.levels[m].reduced_labels):
                name = f"res{lab}" if lab.startswith("[") else f"res({lab})"
                entry[name] = format_element(
                    K, res.col(idx), rb.levels[d].reduced_labels)
            for idx, lab in enumerate(rb.levels[d].reduced_labels):
                entry[f"tr({lab})"] = format_element(
                    K, tr.col(idx), rb.levels[m].reduced_labels)
            out[f"C{m}/C{d}"] = entry
        return out

    @cached_property
    def mult_matrices(self) -> dict:
        return {str(m): _mat_strs(self.mult_morphism.components[m])
                for m in self.divisors}

    @cached_property
    def ideal(self) -> dict:
        K, data = self.galois.base, self.ideal_data
        out = {}
        for m in self.divisors:
            labels = self.rel_box.levels[m].reduced_labels
            out[m] = {
                "dim": len(data.ideal[m]),
                "generators": [format_element(K, v, labels)
                               for v in data.ideal[m]],
                "generator_coords": [[str(c) for c in v]
                                     for v in data.ideal[m]],
                "square_dim": len(data.square[m]),
                "equals_square": data.verdicts[m],
                "kahler_dim": data.quotient_dims[m],
            }
        return out

    @cached_property
    def oracle_agreement(self) -> dict:
        rb, L, K = self.rel_box, self.fixed, self.galois.base
        n = self.galois.degree
        out = {"unit_section": unit_section_check(rb, self.mult_morphism),
               "coequalizer": None, "prime_closed_form": None}
        if absolute_box_supported(K):
            coequalizer_oracle(rb)          # raises where it fails
            out["coequalizer"] = True
            if is_prime(n):
                # rb has the generators and relations of the absolute L □ L
                po = prime_box_oracle(L, L, n)
                out["prime_closed_form"] = not compare_boxes(rb, po)
        return out

    @cached_property
    def norm_remark(self) -> dict:
        """On a C_2 box: the norm of 1⊗α ∓ α⊗1, and whether it spans the
        multiplication-kernel ideal at the fixed level."""
        if self.galois.degree != 2:
            return {"applicable": False}
        rb, ideal = self.rel_box, self.ideal_data.ideal[2]
        K = rb.scalars
        one, alpha = (unit_vec(K, rb.left.dim(1), t) for t in (0, 1))
        # level 1 has no relations: the tensor is its own reduced form
        arg = vec_sub(tensor_vec(K, one, alpha), tensor_vec(K, alpha, one))
        value = norm_on_c2_box(rb, arg)
        return {
            "applicable": True,
            "argument": format_element(K, arg, rb.levels[1].reduced_labels),
            "value": format_element(K, value, rb.levels[2].reduced_labels),
            "spans_ideal": Span(K, rb.dim(2), ideal).contains(value) and
            Span(K, rb.dim(2), [value]).contains_all(ideal),
        }

    @cached_property
    def congruences(self) -> dict:
        E = self.galois
        out = {"applicable": E.flavor == "kummer" and E.degree > 1}
        if out["applicable"]:
            rep = kummer_congruence_checks(self.rel_box, E, self.ideal_data)
            out["checks_run"] = rep.checks_run
            out["failures"] = list(rep.failures)
            out["ok"] = rep.ok
        return out

    @cached_property
    def certificate(self) -> dict:
        if self.galois.degree < 2:
            return {"kind": "trivial", "valid": True, "violations": [],
                    "witnesses": [], "witness_components": [],
                    "details": {}}
        cert = projectivity_certificate(self.galois, self.fixed,
                                        self.eigen_decomposition)
        violations = verify_certificate(cert)
        return {
            "kind": cert.kind,
            "valid": not violations,
            "violations": [str(v) for v in violations],
            "witnesses": [w.description for w in cert.witnesses],
            "witness_components": [
                {str(m): _mat_strs(w.morphism.components[m])
                 for m in self.divisors}
                for w in cert.witnesses],
            "details": _details_strs(cert.details),
        }

    @cached_property
    def eigen(self) -> dict | None:
        if self.eigen_decomposition is None:
            return None
        dec, bad = self.eigen_decomposition
        return {
            "valid": not bad,
            "piece_dims": {str(i): {str(m): dec.pieces[i].functor.dim(m)
                                    for m in self.divisors}
                           for i in range(len(dec.pieces))},
        }

    @cached_property
    def classical(self) -> dict:
        rep = classical_etale_oracle(self.galois)
        return {
            "tensor_dim": rep.tensor_dim,
            "ideal_dim": rep.ideal_dim,
            "square_dim": rep.square_dim,
            "etale": rep.etale,
            "separability_unit_found": rep.has_separability_unit,
        }

    @cached_property
    def verdict(self) -> dict:
        verdict = {
            "levels": dict(self.ideal_data.verdicts),
            "kahler_all_zero": all(info["kahler_dim"] == 0
                                   for info in self.ideal.values()),
            "classical_ok": self.classical["etale"],
            "oracles_ok": all(v is not False
                              for v in self.oracle_agreement.values()),
            "functor_checks_ok": all(v == 0
                                     for v in self.functor_checks.values()),
            "certificate_valid": self.certificate["valid"],
            "congruences_ok": self.congruences.get("ok", True),
            "norm_remark_ok": self.norm_remark.get("spans_ideal", True),
        }
        verdict["green_etale"] = all(
            v if not isinstance(v, dict) else all(v.values())
            for v in verdict.values())
        return verdict

    def to_dict(self) -> dict:
        return {
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
            "verdict": {k: _strkeys(v) if isinstance(v, dict) else v
                        for k, v in self.verdict.items()},
        }


def _strkeys(d: dict) -> dict:
    return {str(k): v for k, v in sorted(d.items())}


def run_pipeline(cfg: RunConfig) -> EtaleReport:
    """The report of ``cfg`` with every section computed, in report order."""
    report = EtaleReport(cfg)
    report.to_dict()
    return report


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
        add(f"level C{c['n']}/C{m}: dim {info['dim']}, "
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
        add(f"level C{c['n']}/C{m}: dim {info['dim']}, generators: {gens}")
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
    absolute box.  The config's extension is built first, so data that
    no other verb accepts fails here too; corruption mode is refused for
    C_1, which has no transfer to corrupt.

    A round needs only whether the axioms fail (corruption mode) or the
    first violation (the one it prints), so both modes call
    ``check_axioms(..., first=True)``, which stops at that violation.
    Every call goes through this module's attributes (``check_axioms``,
    ``random_mackey``, ``box``, ``prime_box_oracle``, ``compare_boxes``),
    so a tracer that replaces them sees each one.
    """
    K = cfg.extension().base
    n = cfg.n
    lattice = subgroup_lattice(n)
    count = cfg.count if count is None else count
    if count < 0:
        raise ConfigError(f"fuzz count must be non-negative, got {count}")
    if corrupt and not lattice.covering_pairs:
        raise ConfigError(f"fuzz --corrupt needs a transfer to corrupt, "
                          f"and C_{n} has none")
    seed = cfg.seed if seed is None else seed
    summary = FuzzSummary(count, seed, n, str(K), corruption_mode=corrupt,
                          oracle_applicable=absolute_box_supported(K))
    for k in range(count):
        s = seed + k
        M = random_mackey(lattice, K, seed=s)
        if corrupt:
            bad = corrupt_transfer(M, seed=s)
            if check_axioms(bad, first=True):
                summary.corruptions_detected += 1
            continue
        violations = check_axioms(M, first=True)
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
