"""Command-line interface.

Exit codes: 0 success/YES, 1 NO or verification failure (witnesses are in
the report), 2 input error (diagnostic on stderr).  Reports are
byte-deterministic for identical inputs and flags; timings are attached
only when --timings is passed, since they would break that guarantee.

An argument that argparse rejects, such as an unknown flag, a missing
positional or a flag value of the wrong type, is an input error like any
other: one line on stderr and exit 2, with no usage block.  ``-h`` and
``--help`` print the full help and exit 0.

Each subcommand imports the library modules it runs when it runs; the
module itself loads only the file formats and the layers they build on.
"""

from __future__ import annotations

import argparse
import sys
import time

from .errors import HypothesisFailed, InvalidInput, PosetModelError, RecognitionFailed, S2OF3Failed
from .formats import (
    ReportFile,
    build_relative,
    build_structure,
    center_map_names,
    class_name_pairs,
    parse_instance,
    print_instance,
    print_report,
    structure_to_dict,
    witness_to_names,
)


class _Failed(Exception):
    """Ends a command with a ``failed`` report listing `witnesses`."""

    def __init__(self, witnesses: list[dict]):
        self.witnesses = witnesses


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


def _report(ns, decision: str, exit_code: int, **fields) -> int:
    """Emit the report of this command and return its exit code."""
    rep = ReportFile(command=ns.echo, decision=decision, **fields)
    if ns.timings:
        rep.timings = {"seconds": round(time.perf_counter() - ns.started, 6)}
    _emit(ns, print_report(rep))
    return exit_code


def _witness(lattice, check: str, witness) -> dict:
    return {"check": check, "witness": witness_to_names(lattice, witness)}


def _witnesses(lattice, report) -> list[dict]:
    return [_witness(lattice, c.name, c.witness) for c in report.failures()]


def _verified(m):
    """`m`, once :func:`~posetmodels.models.verify_model` passes it; else the command fails."""
    from .models import verify_model

    verify_model(m).require(lambda _: _Failed(_witnesses(m.lattice, m.report)))
    return m


def cmd_validate(ns) -> int:
    rel = build_relative(_read_instance(ns, ns.instance))
    return _report(ns, "valid", 0, structures=[{"we": class_name_pairs(rel.weq)}])


def cmd_recognize(ns) -> int:
    from .relative import recognize_finite

    rel = build_relative(_read_instance(ns, ns.instance))
    decision = recognize_finite(rel)
    if decision.yes:
        return _report(ns, "yes", 0, structures=[structure_to_dict(decision.structure)])
    return _report(ns, "no", 1, witnesses=_witnesses(rel.lattice, decision.report))


def cmd_centers(ns) -> int:
    from .centers import enumerate_centers, find_centers

    # a limit left out takes enumerate_centers' default; find takes none
    limit = {"limit": ns.limit} if hasattr(ns, "limit") else {}
    if ns.action == "find" and limit:
        raise InvalidInput("posetmodels centers: --limit applies to enumerate only")
    rel = build_relative(_read_instance(ns, ns.instance))
    truncated = False
    try:
        if ns.action == "find":
            chi = find_centers(rel)
            found = [] if chi is None else [chi]
        else:
            result = enumerate_centers(rel, **limit)
            found, truncated = list(result.maps), result.truncated
    except S2OF3Failed as e:
        return _report(ns, "absent", 1, witnesses=[_witness(rel.lattice, "s2of3", e.witness)])
    exists = bool(found) or truncated  # a truncated enumeration saw a map past the limit
    return _report(ns, "found" if exists else "absent", 0 if exists else 1,
                   witnesses=[{"check": "enumeration_truncated", "witness": []}] if truncated else [],
                   centers=[center_map_names(rel, chi) for chi in found])


def cmd_synthesize(ns) -> int:
    from . import models
    from .centers import find_centers
    from .classes import MorphClass

    inst = _read_instance(ns, ns.instance)
    if ns.method == "newcofib":
        base = _verified(build_structure(inst))
        rel = base.rel
    else:
        rel = build_relative(inst)
    centers_used = []
    try:
        if ns.method == "terminal":
            result = models.construct_terminal(rel)
        elif ns.method in ("centers", "centers-dual"):
            chi = find_centers(rel)
            if chi is None:
                raise _Failed([{"check": "centers_exist", "witness": []}])
            centers_used.append(chi)
            build = models.construct_from_centers if ns.method == "centers" else models.construct_from_centers_dual
            result = build(rel, chi)
        elif ns.method == "genmc":
            if not ns.generators:
                raise PosetModelError("--generators FILE is required for the genmc method")
            gen_inst = _read_instance(ns, ns.generators)
            j = MorphClass.from_pairs(rel.lattice, gen_inst.weq, add_identities=True)
            result = models.construct_genMC(rel, j)
        else:  # newcofib
            chi = models.extract_centers(base)
            centers_used.append(chi)
            result = models.construct_newcofib(base, chi)
    except (RecognitionFailed, S2OF3Failed, HypothesisFailed) as e:
        raise _Failed([_witness(rel.lattice, type(e).__name__, e.witness)]) from e
    return _report(ns, "synthesized", 0, structures=[structure_to_dict(result)],
                   centers=[center_map_names(rel, chi) for chi in centers_used])


def cmd_verify(ns) -> int:
    from .models import verify_model

    m = build_structure(_read_instance(ns, ns.instance))
    report = verify_model(m)
    return _report(ns, "verified" if report.ok else "failed", 0 if report.ok else 1,
                   witnesses=_witnesses(m.lattice, report), structures=[structure_to_dict(m)])


def cmd_enumerate(ns) -> int:
    from .oracle import enumerate_model_structures

    rel = build_relative(_read_instance(ns, ns.instance))
    # a cap left out takes the oracle's default
    caps = {name: getattr(ns, name) for name in ("max_elements", "max_generators") if hasattr(ns, name)}
    found = enumerate_model_structures(rel, **caps)
    return _report(ns, "yes" if found else "no", 0 if found else 1,
                   structures=[structure_to_dict(m) for m in found])


def cmd_zigzag(ns) -> int:
    from . import equivalence

    m1 = build_structure(_read_instance(ns, ns.first))
    m2 = build_structure(_read_instance(ns, ns.second))
    z = equivalence.build_zigzag(_verified(m1), _verified(m2), contract=ns.contract)
    return _report(ns, "equivalent", 0, structures=[structure_to_dict(node) for node in z.nodes],
                   zigzag={"directions": list(z.directions)})


def cmd_reduce(ns) -> int:
    from . import equivalence

    m = _verified(build_structure(_read_instance(ns, ns.instance)))
    d_lat, d_model, maps = equivalence.homotopy_reduce(m)
    return _report(ns, "reduced", 0, structures=[structure_to_dict(d_model)],
                   centers=[[[m.lattice.name(a), d_lat.name(maps.gamma[a])] for a in range(m.lattice.n)]])


def cmd_export_dot(ns) -> int:
    from .dot import export_dot

    inst = _read_instance(ns, ns.instance)
    # a structure file needs both fields: build_structure rejects one alone
    target = build_relative(inst) if inst.cof is None and inst.fib is None else build_structure(inst)
    _emit(ns, export_dot(target))
    return 0


def cmd_fixture(ns) -> int:
    from .fixtures import fixture

    inst = fixture(ns.name)
    _emit(ns, print_instance(inst))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise :class:`InvalidInput`, naming the
    (sub)command, where argparse prints its usage block and exits; every
    subparser is one too, as argparse makes them of the parser's class."""

    def error(self, message):
        raise InvalidInput(f"{self.prog}: {message}")


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
    parser = _Parser(
        prog="posetmodels",
        description="Decide, construct, verify, and compare model structures on finite bounded lattices.",
    )
    _common_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *positionals):
        p = sub.add_parser(name, help=help)
        _common_options(p, suppress=True)
        for arg in positionals:
            p.add_argument(arg)
        p.set_defaults(func=func)
        return p

    command("validate", cmd_validate, "parse and validate an instance file", "instance")
    command("recognize", cmd_recognize, "decide existence of a model structure", "instance")
    p = command("centers", cmd_centers, "search for choices of centers")
    p.add_argument("action", choices=["find", "enumerate"])
    p.add_argument("instance")
    p.add_argument("--limit", type=int, default=argparse.SUPPRESS, help="most maps to list (enumerate only)")
    p = command("synthesize", cmd_synthesize, "construct a model structure", "instance")
    p.add_argument("--method", required=True,
                   choices=["terminal", "centers", "centers-dual", "genmc", "newcofib"])
    p.add_argument("--generators", help="instance-format file whose weq field lists the generators (genmc)")
    command("verify", cmd_verify, "verify a full structure file", "instance")
    p = command("enumerate", cmd_enumerate, "exhaustively enumerate all model structures", "instance")
    p.add_argument("--max-elements", type=int, default=argparse.SUPPRESS)
    p.add_argument("--max-generators", type=int, default=argparse.SUPPRESS)
    p = command("zigzag", cmd_zigzag, "connect two structures by identity Quillen equivalences", "first", "second")
    p.add_argument("--contract", action="store_true", help="shorten the zigzag where possible")
    command("reduce", cmd_reduce, "reduce a structure to its homotopy category", "instance")
    command("export-dot", cmd_export_dot, "render a decorated Hasse diagram as DOT", "instance")
    command("fixture", cmd_fixture, "print a built-in instance", "name")
    return parser


def run_cli(argv=None) -> int:
    try:
        try:
            ns = build_parser().parse_args(argv)
        except SystemExit as e:  # -h or --help, after printing the help
            return e.code if isinstance(e.code, int) else 2
        ns.echo = list(argv) if argv is not None else list(sys.argv[1:])
        ns.started = time.perf_counter()
        try:
            return ns.func(ns)
        except _Failed as e:
            return _report(ns, "failed", 1, witnesses=e.witnesses)
    except PosetModelError as e:
        # one line, whatever the message holds: an argument or a path may hold a line break
        line = f"error: {type(e).__name__}: {e}".replace("\r", "\\r").replace("\n", "\\n")
        print(line, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
