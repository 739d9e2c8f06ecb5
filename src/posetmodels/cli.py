"""Command-line interface.

Exit codes: 0 success/YES, 1 NO or verification failure (witnesses are in
the report), 2 input error (diagnostic on stderr).  Reports are
byte-deterministic for identical inputs and flags; timings are attached
only when --timings is passed, since they would break that guarantee.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import equivalence, fixtures, models, oracle
from .centers import enumerate_centers, find_centers
from .dot import export_dot
from .errors import HypothesisFailed, InvalidInput, PosetModelError, RecognitionFailed, S2OF3Failed
from .formats import (
    ReportFile,
    build_relative,
    build_structure,
    center_map_names,
    parse_instance,
    print_instance,
    print_report,
    report_to_dict,
    structure_to_dict,
    witness_to_names,
)
from .relative import recognize_finite


def _read_instance(ns, path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise PosetModelError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise InvalidInput(f"cannot read {path}: not UTF-8 text: {e}") from e
    inst = parse_instance(text)
    if ns.add_identities:
        inst.add_identities = True
    return inst


def _emit(ns, text: str) -> None:
    if ns.out:
        try:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise PosetModelError(f"cannot write {ns.out}: {e}") from e
    else:
        sys.stdout.write(text)


def _finish(ns, rep: ReportFile, exit_code: int, started: float) -> int:
    if ns.timings:
        rep.timings = {"seconds": round(time.perf_counter() - started, 6)}
    _emit(ns, print_report(rep))
    return exit_code


def _witnesses(lattice, report) -> list[dict]:
    return [
        {"check": c.name, "witness": witness_to_names(lattice, c.witness)}
        for c in report.failures()
    ]


def cmd_validate(ns) -> int:
    t0 = time.perf_counter()
    inst = _read_instance(ns, ns.instance)
    rel = build_relative(inst)
    from .formats import class_name_pairs

    rep = ReportFile(
        command=ns.echo,
        decision="valid",
        structures=[{"we": class_name_pairs(rel.weq)}],
    )
    return _finish(ns, rep, 0, t0)


def cmd_recognize(ns) -> int:
    t0 = time.perf_counter()
    rel = build_relative(_read_instance(ns, ns.instance))
    decision = recognize_finite(rel)
    if decision.yes:
        rep = ReportFile(
            command=ns.echo,
            decision="yes",
            structures=[structure_to_dict(decision.structure)],
        )
        return _finish(ns, rep, 0, t0)
    rep = ReportFile(
        command=ns.echo,
        decision="no",
        witnesses=_witnesses(rel.lattice, decision.report),
    )
    return _finish(ns, rep, 1, t0)


def cmd_centers(ns) -> int:
    t0 = time.perf_counter()
    rel = build_relative(_read_instance(ns, ns.instance))
    try:
        if ns.action == "find":
            chi = find_centers(rel)
            found = [chi] if chi is not None else []
            truncated = False
        else:
            result = enumerate_centers(rel, limit=ns.limit)
            found = list(result.maps)
            truncated = result.truncated
    except S2OF3Failed as e:
        rep = ReportFile(
            command=ns.echo,
            decision="absent",
            witnesses=[{"check": "s2of3", "witness": witness_to_names(rel.lattice, e.witness)}],
        )
        return _finish(ns, rep, 1, t0)
    rep = ReportFile(
        command=ns.echo,
        decision="found" if found else "absent",
        centers=[center_map_names(rel, chi) for chi in found],
    )
    if truncated:
        rep.witnesses.append({"check": "enumeration_truncated", "witness": []})
    return _finish(ns, rep, 0 if found else 1, t0)


def cmd_synthesize(ns) -> int:
    t0 = time.perf_counter()
    inst = _read_instance(ns, ns.instance)
    centers_used = []
    try:
        if ns.method == "terminal":
            rel = build_relative(inst)
            result = models.construct_terminal(rel)
        elif ns.method in ("centers", "centers-dual"):
            rel = build_relative(inst)
            chi = find_centers(rel)
            if chi is None:
                rep = ReportFile(command=ns.echo, decision="failed",
                                 witnesses=[{"check": "centers_exist", "witness": []}])
                return _finish(ns, rep, 1, t0)
            centers_used.append(chi)
            build = models.construct_from_centers if ns.method == "centers" else models.construct_from_centers_dual
            result = build(rel, chi)
        elif ns.method == "genmc":
            rel = build_relative(inst)
            if not ns.generators:
                raise PosetModelError("--generators FILE is required for the genmc method")
            gen_inst = _read_instance(ns, ns.generators)
            from .classes import MorphClass

            j = MorphClass.from_pairs(rel.lattice, gen_inst.weq, add_identities=True)
            result = models.construct_genMC(rel, j)
        else:  # newcofib
            base = build_structure(inst)
            models.verify_model(base)
            if not base.report.ok:
                rep = ReportFile(command=ns.echo, decision="failed",
                                 witnesses=_witnesses(base.lattice, base.report))
                return _finish(ns, rep, 1, t0)
            chi = models.extract_centers(base)
            centers_used.append(chi)
            result = models.construct_newcofib(base, chi)
            rel = base.rel
    except (RecognitionFailed, S2OF3Failed, HypothesisFailed) as e:
        witness = getattr(e, "witness", None)
        lattice = build_relative(inst).lattice
        rep = ReportFile(
            command=ns.echo,
            decision="failed",
            witnesses=[{"check": type(e).__name__, "witness": witness_to_names(lattice, witness)}],
        )
        return _finish(ns, rep, 1, t0)
    rep = ReportFile(
        command=ns.echo,
        decision="synthesized",
        structures=[structure_to_dict(result)],
        centers=[center_map_names(rel, chi) for chi in centers_used],
    )
    return _finish(ns, rep, 0, t0)


def cmd_verify(ns) -> int:
    t0 = time.perf_counter()
    m = build_structure(_read_instance(ns, ns.instance))
    report = models.verify_model(m)
    rep = ReportFile(
        command=ns.echo,
        decision="verified" if report.ok else "failed",
        witnesses=_witnesses(m.lattice, report),
        structures=[structure_to_dict(m)],
    )
    return _finish(ns, rep, 0 if report.ok else 1, t0)


def cmd_enumerate(ns) -> int:
    t0 = time.perf_counter()
    rel = build_relative(_read_instance(ns, ns.instance))
    found = oracle.enumerate_model_structures(
        rel, max_elements=ns.max_elements, max_generators=ns.max_generators
    )
    rep = ReportFile(
        command=ns.echo,
        decision="yes" if found else "no",
        structures=[structure_to_dict(m) for m in found],
    )
    return _finish(ns, rep, 0 if found else 1, t0)


def cmd_zigzag(ns) -> int:
    t0 = time.perf_counter()
    m1 = build_structure(_read_instance(ns, ns.first))
    m2 = build_structure(_read_instance(ns, ns.second))
    for m in (m1, m2):
        models.verify_model(m)
        if not m.report.ok:
            rep = ReportFile(command=ns.echo, decision="failed",
                             witnesses=_witnesses(m.lattice, m.report))
            return _finish(ns, rep, 1, t0)
    z = equivalence.build_zigzag(m1, m2, contract=ns.contract)
    rep = ReportFile(
        command=ns.echo,
        decision="equivalent",
        structures=[structure_to_dict(node) for node in z.nodes],
        zigzag={"directions": list(z.directions)},
    )
    return _finish(ns, rep, 0, t0)


def cmd_reduce(ns) -> int:
    t0 = time.perf_counter()
    m = build_structure(_read_instance(ns, ns.instance))
    models.verify_model(m)
    if not m.report.ok:
        rep = ReportFile(command=ns.echo, decision="failed",
                         witnesses=_witnesses(m.lattice, m.report))
        return _finish(ns, rep, 1, t0)
    d_lat, d_model, maps = equivalence.homotopy_reduce(m)
    rep = ReportFile(
        command=ns.echo,
        decision="reduced",
        structures=[structure_to_dict(d_model)],
        centers=[[[m.lattice.name(a), d_lat.name(maps.gamma[a])] for a in range(m.lattice.n)]],
    )
    return _finish(ns, rep, 0, t0)


def cmd_export_dot(ns) -> int:
    inst = _read_instance(ns, ns.instance)
    if inst.cof is not None and inst.fib is not None:
        target = build_structure(inst)
    else:
        target = build_relative(inst)
    _emit(ns, export_dot(target))
    return 0


def cmd_fixture(ns) -> int:
    inst = fixtures.fixture(ns.name)
    _emit(ns, print_instance(inst))
    return 0


def _common_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # registered on the main parser with real defaults and on every
    # subparser with suppressed defaults, so the flags work in either
    # position without the subparser clobbering a value given up front
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--out", default=default(None),
                        help="write output to FILE instead of stdout")
    parser.add_argument("--add-identities", action="store_true", default=default(False),
                        help="auto-complete the weak equivalences with all identities")
    parser.add_argument("--timings", action="store_true", default=default(False),
                        help="attach wall-clock timings to the report (breaks byte-determinism)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetmodels",
        description="Decide, construct, verify, and compare model structures on finite bounded lattices.",
    )
    _common_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate an instance file")
    _common_options(p, suppress=True)
    p.add_argument("instance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("recognize", help="decide existence of a model structure")
    _common_options(p, suppress=True)
    p.add_argument("instance")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("centers", help="search for choices of centers")
    _common_options(p, suppress=True)
    p.add_argument("action", choices=["find", "enumerate"])
    p.add_argument("instance")
    p.add_argument("--limit", type=int, default=1024)
    p.set_defaults(func=cmd_centers)

    p = sub.add_parser("synthesize", help="construct a model structure")
    _common_options(p, suppress=True)
    p.add_argument("instance")
    p.add_argument("--method", required=True,
                   choices=["terminal", "centers", "centers-dual", "genmc", "newcofib"])
    p.add_argument("--generators", help="instance-format file whose weq field lists the generators (genmc)")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify", help="verify a full structure file")
    _common_options(p, suppress=True)
    p.add_argument("instance")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="exhaustively enumerate all model structures")
    _common_options(p, suppress=True)
    p.add_argument("instance")
    p.add_argument("--max-elements", type=int, default=oracle.DEFAULT_MAX_ELEMENTS)
    p.add_argument("--max-generators", type=int, default=oracle.DEFAULT_MAX_GENERATORS)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("zigzag", help="connect two structures by identity Quillen equivalences")
    _common_options(p, suppress=True)
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--contract", action="store_true", help="shorten the zigzag where possible")
    p.set_defaults(func=cmd_zigzag)

    p = sub.add_parser("reduce", help="reduce a structure to its homotopy category")
    _common_options(p, suppress=True)
    p.add_argument("instance")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("export-dot", help="render a decorated Hasse diagram as DOT")
    _common_options(p, suppress=True)
    p.add_argument("instance")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("fixture", help="print a built-in instance")
    _common_options(p, suppress=True)
    p.add_argument("name")
    p.set_defaults(func=cmd_fixture)
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    ns.echo = list(argv) if argv is not None else list(sys.argv[1:])
    try:
        return ns.func(ns)
    except PosetModelError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
