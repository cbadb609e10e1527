"""Command-line interface.

Subcommands: invariants, enumerate, count, theta, abelian-exists, scan,
verify. One structured document goes to stdout (canonical JSON by default,
CSV for scan tables); diagnostics go to stderr. Exit codes: 0 success,
1 user error or failed verification, 2 budget exhaustion.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from . import __version__
from .abelian import (
    AbelianProfile,
    admits_unmixed_abelian,
    brute_force_admits,
    n_count,
    quadruple_classes,
    quadruple_count,
    sandwich_bounds,
    theta,
    theta_is_integral,
)
from .errors import BudgetExceeded, UserInputError
from .groups import AbelianGroup, CayleyGroup, Group, construct_group
from .moves import MoveID, apply_move, available_moves
from .orbits import (
    EquivalenceConfig,
    component_bound_warning,
    count_components,
    count_components_one_stage,
    scan_invariants,
    verify_inn_lemma,
)
from .ramification import (
    SignatureType,
    candidate_tuples,
    enumerate_systems,
    fraction_to_json,
    is_beauville,
    long_relation_holds,
    sigma_set,
    surface_invariants,
)

SCHEMA_VERSION = 1
CACHE_ENV_VAR = "HURWITZ_CACHE_DIR"
DEFAULT_CACHE_DIR = "~/.cache/hurwitz-components"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2); budget owns 2
        raise UserInputError(message)


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _cache_dir(args) -> Path:
    if getattr(args, "cache_dir", None):
        return Path(args.cache_dir)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path(DEFAULT_CACHE_DIR).expanduser()


def _cache_key(payload: dict) -> str:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def _config_from_args(args) -> EquivalenceConfig:
    cfg = EquivalenceConfig()
    if getattr(args, "budget", None) is not None:
        cfg.max_systems = args.budget
    cfg.seed = getattr(args, "seed", 0)
    cfg.representatives = bool(getattr(args, "representatives", False))
    return cfg


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_invariants(args) -> str:
    G = construct_group(args.group)
    t1 = SignatureType.parse(args.type1)
    t2 = SignatureType.parse(args.type2)
    inv = surface_invariants(G.order, t1, t2)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "group": G.name,
        "order": G.order,
        "type1": str(t1.with_sorted_periods()),
        "type2": str(t2.with_sorted_periods()),
        "beauville": is_beauville(t1, t2),
    }
    doc.update(inv.to_json_dict())
    return _canonical_json(doc)


def _cmd_enumerate(args) -> str:
    G = construct_group(args.group)
    tau = SignatureType.parse(args.type)
    cfg = _config_from_args(args)
    est = candidate_tuples(G, tau)
    if est > cfg.max_systems:
        raise BudgetExceeded(
            f"enumeration needs {est} candidate tuples (> {cfg.max_systems})", required=est
        )
    systems = enumerate_systems(G, tau).tolist()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "group": G.name,
        "type": str(tau),
        "count": len(systems),
        "systems": [[G.element_label(x) for x in ent] for ent in systems],
    }
    return _canonical_json(doc)


def _cmd_count(args) -> str:
    G = construct_group(args.group)
    t1 = SignatureType.parse(args.type1)
    t2 = SignatureType.parse(args.type2)
    cfg = _config_from_args(args)
    key_payload = {
        "engine": __version__,
        "command": "count",
        "group": G.name,
        "type1": str(t1.with_sorted_periods()),
        "type2": str(t2.with_sorted_periods()),
        "oracle": args.oracle,
        "representatives": cfg.representatives,
        "budget": cfg.max_systems,
        "seed": cfg.seed,
    }
    cache_file = None
    if not args.no_cache:
        cache_file = _cache_dir(args) / f"{_cache_key(key_payload)}.json"
        if cache_file.is_file():
            cached = _read_cache_entry(cache_file)
            if cached is not None:
                text, h = cached
                print("cache hit", file=sys.stderr)
                _print_bound_warning(G, t1, t2, h)
                return text
            print(f"cache entry {cache_file} is damaged; recomputing it", file=sys.stderr)
    t0 = time.monotonic()
    if args.oracle == "one-stage":
        report = count_components_one_stage(G, t1, t2, cfg)
    else:
        report = count_components(G, t1, t2, cfg)
    elapsed = time.monotonic() - t0
    print(f"count finished in {elapsed * 1000.0:.1f} ms", file=sys.stderr)
    _print_bound_warning(G, t1, t2, report.h)
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(report.to_json_dict())
    out = _canonical_json(doc)
    if cache_file is not None:
        try:
            _write_cache_entry(cache_file, out)
        except OSError as exc:
            print(f"warning: result not cached: {exc}", file=sys.stderr)
    return out


def _print_bound_warning(G: Group, t1: SignatureType, t2: SignatureType, h: int) -> None:
    warning = component_bound_warning(G, t1, t2, h)
    if warning is not None:
        print(f"warning: {warning}", file=sys.stderr)


def _read_cache_entry(path: Path) -> tuple[str, int] | None:
    """The entry's text and h if it parses as a document of this schema, else None."""
    try:
        text = path.read_text()
        doc = json.loads(text)
    except (OSError, ValueError):
        return None
    if (
        isinstance(doc, dict)
        and doc.get("schema_version") == SCHEMA_VERSION
        and type(doc.get("h")) is int
    ):
        return text, doc["h"]
    return None


def _write_cache_entry(path: Path, text: str) -> None:
    """Write through a temporary file and rename it, so no reader sees a torn entry."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cmd_theta(args) -> str:
    n = args.n
    value = theta(n)
    lo, hi = sandwich_bounds(n)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n": n,
        "theta": fraction_to_json(value),
        "integral": theta_is_integral(n),
        "n_count": n_count(n),
        "lower_bound": fraction_to_json(lo),
        "upper_bound": fraction_to_json(hi),
    }
    if not doc["integral"]:
        print(
            f"warning: closed-form value {value} is not an integer; "
            "enumeration (count) is the ground truth at n = " + str(n),
            file=sys.stderr,
        )
    if args.cross_check:
        if n > 60:
            raise BudgetExceeded(
                f"cross-check enumerates {n}^4 quadruples; refusing for n > 60",
                required=n**4,
            )
        classes, sizes = quadruple_classes(n)  # the sizes sum to the valid quadruples
        doc["quadruple_count"] = sum(sizes)
        doc["quadruple_count_agrees"] = doc["quadruple_count"] == doc["n_count"]
        doc["quadruple_classes"] = classes
        doc["classes_match_theta"] = (classes == value) if doc["integral"] else None
        if doc["classes_match_theta"] is False:
            print(
                f"warning: closed-form value {value} is an integer but the class count "
                f"is {classes} at n = {n}",
                file=sys.stderr,
            )
    return _canonical_json(doc)


def _cmd_abelian_exists(args) -> str:
    G = construct_group(args.group)
    if not isinstance(G, AbelianGroup):
        raise UserInputError("existence test requires an abelian group (Zn:...)")
    profile = AbelianProfile.from_group(G)
    report = admits_unmixed_abelian(profile, args.r1, args.r2)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "group": G.name,
        "chain": list(profile.chain),
        "r1": args.r1,
        "r2": args.r2,
    }
    doc.update(report.to_json_dict())
    return _canonical_json(doc)


def ingest_catalog(path: str) -> tuple[list[Group], list[str]]:
    """Newline-delimited group specs; invalid rows are skipped with warnings."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UserInputError(f"cannot read catalog {path}: {exc}") from exc
    catalog: list[Group] = []
    warnings: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            catalog.append(construct_group(line))
        except UserInputError as exc:
            warnings.append(f"line {lineno}: skipped {line!r}: {exc}")
    if not catalog:
        warnings.append("catalog is empty")
    return catalog, warnings


def _cmd_scan(args) -> str:
    catalog: list[Group] = []
    warnings: list[str] = []
    if args.catalog:
        catalog, warnings = ingest_catalog(args.catalog)
    for spec in args.group or []:
        catalog.append(construct_group(spec))
    if not catalog and not args.catalog:
        raise UserInputError("scan needs --catalog or at least one --group")
    cfg = _config_from_args(args)
    result = scan_invariants(catalog, args.chi, args.q, cfg)
    warnings = warnings + result.warnings
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.format == "csv":
        buf = io.StringIO()
        buf.write("group,type1,type2,h,g1,g2\n")
        for row in result.rows:
            buf.write(f"{row.group},{row.type1},{row.type2},{row.h},{row.g1},{row.g2}\n")
        print(f"total_h={result.total_h}", file=sys.stderr)
        return buf.getvalue()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "chi": result.chi,
        "q": result.q,
        "rows": [vars(r) for r in result.rows],
        "total_h": result.total_h,
        "warning_count": len(warnings),
    }
    return _canonical_json(doc)


# ---------------------------------------------------------------------------
# verify: cross-module property suites


def _verify_moves(rng_seed: int) -> tuple[bool, str]:
    import random

    rng = random.Random(rng_seed)
    G = construct_group("Sym:4")
    shapes = [(0, (2, 2, 3)), (0, (2, 3, 4)), (1, (2, 2)), (2, (3,))]
    checked = 0
    for gp, periods in shapes:
        tau = SignatureType(gp, periods)
        systems = enumerate_systems(G, tau)
        if not len(systems):
            continue
        sample = systems[rng.sample(range(len(systems)), min(40, len(systems)))]
        sigmas = [sigma_set(G, gp, ent) for ent in sample.tolist()]
        moves = available_moves(gp, tau.r)
        moves += [mv.inverted() for mv in moves]
        order_multiset = sorted(periods)
        for mv in moves:
            out = apply_move(G, gp, sample, mv)
            branch_orders = G.orders[out[:, 2 * gp :]]
            branch_orders.sort(axis=1)
            ok = (
                out.shape == sample.shape
                and (branch_orders == order_multiset).all()
                and long_relation_holds(G, gp, out).all()
                and all(map(G.generates, out.tolist()))
            )
            if not ok:
                return False, f"move {mv} broke a system invariant on {tau}"
            if [sigma_set(G, gp, ent) for ent in out.tolist()] != sigmas:
                return False, f"move {mv} changed the Sigma set on {tau}"
            if not (apply_move(G, gp, out, mv.inverted()) == sample).all():
                return False, f"move {mv} is not inverted by {mv.inverted()} on {tau}"
            checked += len(sample)
    return True, f"{checked} move applications preserved all invariants"


def _verify_braid_relations() -> tuple[bool, str]:
    G = construct_group("Sym:3")
    tau = SignatureType(0, (2, 2, 3, 3))
    systems = enumerate_systems(G, tau)[:120]
    if not len(systems):
        return False, "no systems available for the braid relation check"
    s1 = MoveID("sigma", 1)
    s2 = MoveID("sigma", 2)
    s3 = MoveID("sigma", 3)

    def word(*moves):
        rows = systems
        for mv in moves:
            rows = apply_move(G, 0, rows, mv)
        return rows

    if not (word(s1, s2, s1) == word(s2, s1, s2)).all():
        return False, "sigma_1 sigma_2 sigma_1 != sigma_2 sigma_1 sigma_2"
    if not (word(s1, s3) == word(s3, s1)).all():
        return False, "distant braid generators fail to commute"
    return True, f"braid relations hold as map identities on {len(systems)} systems"


def _verify_inn(args_cfg: EquivalenceConfig) -> tuple[bool, str]:
    for spec, type_str in (("Sym:3", "0|2,2,3"), ("Sym:4", "0|2,3,4")):
        G = construct_group(spec)
        rep = verify_inn_lemma(G, SignatureType.parse(type_str), args_cfg)
        if not rep.passed:
            return False, f"inner automorphisms do not preserve orbits for {spec} {type_str}"
    return True, "inner automorphisms preserve every braid orbit (exhaustive)"


def _verify_closed_form(cfg: EquivalenceConfig) -> tuple[bool, str]:
    notes = []
    for p in (5, 7, 11, 13):
        G = construct_group(f"Zn:{p},{p}")
        tau = SignatureType(0, (p, p, p))
        rep = count_components(G, tau, tau, cfg)
        classes, _ = quadruple_classes(p)
        if classes != rep.h:
            return False, f"normalized-class route gives {classes} but orbit route gives {rep.h} at n={p}"
        lo, hi = sandwich_bounds(p)
        if not (lo <= rep.h <= hi):
            return False, f"h={rep.h} violates the sandwich bounds at n={p}"
        th = theta(p)
        if theta_is_integral(p):
            if th != rep.h:
                return False, f"integral closed form {th} != enumerated h {rep.h} at n={p}"
            notes.append(f"n={p}: closed form = enumeration = {rep.h}")
        else:
            notes.append(
                f"n={p}: closed form {th} is non-integral (flagged); enumeration h={rep.h} is ground truth"
            )
    return True, "; ".join(notes)


def _quaternion_group() -> CayleyGroup:
    """Q8 as a Cayley table, the document of tests/data/q8.json: element
    2u + s is (-1)^s times the unit u of 1, i, j, k. Units multiply as
    u * v = +-(u XOR v), negative where sign[u][v] is 1."""
    sign = ((0, 0, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1))
    table = [
        [2 * ((a // 2) ^ (b // 2)) + (a + b + sign[a // 2][b // 2]) % 2 for b in range(8)]
        for a in range(8)
    ]
    labels = [s + u for u in ("1", "i", "j", "k") for s in ("", "-")]
    return CayleyGroup({"order": 8, "labels": labels, "table": table}, "<quaternion group>")


def _two_route_panel() -> list:
    """The (group, type1, type2) cases on which verify compares the two routes."""
    # Q8 is the one group here whose centre and Inn(G) are both non-trivial.
    return [
        (construct_group("Zn:5,5"), "0|5,5,5", "0|5,5,5"),
        (construct_group("Zn:2"), "1|2,2", "2|"),
        (construct_group("Sym:4"), "0|2,3,4", "0|2,3,4"),
        (construct_group("Zn:1"), "2|", "2|"),
        (construct_group("Sym:4"), "0|2,2,2,4", "1|3"),
        (construct_group("Sym:4"), "0|3,4,4", "1|2,2"),
        (_quaternion_group(), "0|4,4,4", "2|"),
    ]


def _verify_two_routes(cfg: EquivalenceConfig) -> tuple[bool, str]:
    cfg = dataclasses.replace(cfg, representatives=True)
    cases = _two_route_panel()
    for G, t1s, t2s in cases:
        t1, t2 = SignatureType.parse(t1s), SignatureType.parse(t2s)
        a = count_components(G, t1, t2, cfg)
        b = count_components_one_stage(G, t1, t2, cfg)
        if a.to_json_dict() != b.to_json_dict():
            return False, f"routes disagree on {G.name} ({t1s}) x ({t2s}): {a.h} vs {b.h}"
    return True, f"both orbit routes agree on {len(cases)} instances"


def _verify_quadruples() -> tuple[bool, str]:
    for n in (5, 7, 25):
        if quadruple_count(n) != n_count(n):
            return False, f"quadruple enumeration disagrees with the closed form at n={n}"
    return True, "quadruple enumeration matches the closed form at n in {5, 7, 25}"


def _verify_existence() -> tuple[bool, str]:
    chains = [(5, 5), (3, 3), (2, 2, 2), (2, 2, 4), (6, 6), (2, 2, 2, 2), (4, 4)]
    checked = 0
    for chain in chains:
        for r1 in (3, 4, 5):
            for r2 in (r1, 5):
                want = brute_force_admits(chain, r1, r2)
                got = admits_unmixed_abelian(AbelianProfile(chain), r1, r2).admits
                if want != got:
                    return False, f"criterion disagrees with search on {chain} ({r1},{r2})"
                checked += 1
    return True, f"existence criterion matches the search on {checked} instances"


def _cmd_verify(args) -> tuple[str, bool]:
    cfg = _config_from_args(args)
    checks = []
    suite = [
        ("move-invariants", lambda: _verify_moves(cfg.seed)),
        ("braid-relations", _verify_braid_relations),
        ("inner-automorphism-lemma", lambda: _verify_inn(cfg)),
        ("closed-form-vs-enumeration", lambda: _verify_closed_form(cfg)),
        ("two-route-agreement", lambda: _verify_two_routes(cfg)),
        ("quadruple-count", _verify_quadruples),
        ("existence-criterion-vs-search", _verify_existence),
    ]
    all_ok = True
    for name, fn in suite:
        t0 = time.monotonic()
        try:
            ok, detail = fn()
        except BudgetExceeded:
            raise  # a refusal, not a failed check: main exits 2
        except Exception as exc:  # a crash is a failed check, not a crash of verify
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        checks.append({"name": name, "passed": ok, "detail": detail})
        print(
            f"[{'ok' if ok else 'FAIL'}] {name} ({time.monotonic() - t0:.1f}s)",
            file=sys.stderr,
        )
    doc = {"schema_version": SCHEMA_VERSION, "passed": all_ok, "checks": checks}
    return _canonical_json(doc), all_ok


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="hurwitz", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, cache: bool = False, budget: bool = True):
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="accepted for compatibility; has no effect (the engine is single-threaded)",
        )
        if budget:
            p.add_argument(
                "--budget", type=_positive_int, default=None, help="max candidate systems"
            )
        if cache:
            p.add_argument("--no-cache", action="store_true")
            p.add_argument("--cache-dir", default=None)

    p = sub.add_parser("invariants", help="numerical invariants of the paired covering")
    p.add_argument("--group", required=True)
    p.add_argument("--type1", required=True)
    p.add_argument("--type2", required=True)
    common(p, budget=False)

    p = sub.add_parser("enumerate", help="list all generator systems of a type")
    p.add_argument("--group", required=True)
    p.add_argument("--type", required=True)
    common(p)

    p = sub.add_parser("count", help="count components h(G; type1, type2)")
    p.add_argument("--group", required=True)
    p.add_argument("--type1", required=True)
    p.add_argument("--type2", required=True)
    p.add_argument("--oracle", choices=["two-stage", "one-stage"], default="two-stage")
    p.add_argument("--representatives", action="store_true")
    common(p, cache=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("theta", help="closed-form class count for (Z/n)^2 triples")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cross-check", action="store_true")
    common(p, budget=False)

    p = sub.add_parser("abelian-exists", help="existence of an unmixed pair of sizes (r1, r2)")
    p.add_argument("--group", required=True)
    p.add_argument("--r1", type=int, required=True)
    p.add_argument("--r2", type=int, required=True)
    common(p, budget=False)

    p = sub.add_parser("scan", help="census of component counts at fixed chi and q")
    p.add_argument("--catalog", default=None, help="file of newline-delimited group specs")
    p.add_argument("--group", action="append", default=None)
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    common(p)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", help="run the cross-module property suites")
    common(p)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand == "invariants":
            out = _cmd_invariants(args)
        elif args.subcommand == "enumerate":
            out = _cmd_enumerate(args)
        elif args.subcommand == "count":
            out = _cmd_count(args)
        elif args.subcommand == "theta":
            out = _cmd_theta(args)
        elif args.subcommand == "abelian-exists":
            out = _cmd_abelian_exists(args)
        elif args.subcommand == "scan":
            out = _cmd_scan(args)
        else:
            out, ok = _cmd_verify(args)
            sys.stdout.write(out)
            return 0 if ok else 1
        sys.stdout.write(out)
        return 0
    except UserInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
