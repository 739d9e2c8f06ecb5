"""The four benchmark workloads.

Each workload generates its inputs from the seed in `setup`, groups them
into passes of fixed composition, and runs one op per input.  `op` makes
the op's calls, each inside a span when a tracer is given; `probe`, run
only when tracing and outside the op's time, records the op's counts and
prices single layers with warm caches; `check` verifies an op's outputs
after the clock stops.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from posetmodels import (
    InstanceGen,
    ModelStruct,
    MorphClass,
    build_lattice,
    build_zigzag,
    check_cw_factorization,
    check_s2of3,
    compute_Wc,
    compute_Wf,
    construct_from_centers,
    construct_from_centers_dual,
    construct_terminal,
    enumerate_centers,
    enumerate_model_structures,
    find_centers,
    homotopy_reduce,
    is_composition_closed,
    is_pushout_closed,
    left_complement,
    random_instances,
    recognize_finite,
    right_complement,
    validate_relative,
    verify_model,
)
from posetmodels.cli import run_cli
from posetmodels.errors import S2OF3Failed
from posetmodels.formats import (
    ReportFile,
    build_relative,
    center_map_names,
    instance_to_dict,
    parse_instance,
    parse_report,
    print_report,
    structure_to_dict,
    witness_to_names,
)
from posetmodels.relative import recognition_report

import gen
import speed
from spans import maybe_span

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class CheckFailed(Exception):
    """An op's output disagrees with the known answer or another route."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def masks(m: ModelStruct) -> tuple[int, int]:
    """A structure's identity for comparisons: never MorphClass hashing."""
    return (m.cof.mask, m.fib.mask)


def find_or_none(rel):
    """The center route: None when no center map exists, including when
    strong 2-of-3 fails."""
    try:
        return find_centers(rel)
    except S2OF3Failed:
        return None


def centers_or_empty(rel):
    try:
        return enumerate_centers(rel).maps
    except S2OF3Failed:
        return ()


class Workload:
    """A workload's seeded inputs, its op, its probe and its checks.

    `tiny` makes one pass of the smallest inputs, for tests.  `npasses`
    overrides the number of passes generated.
    """

    name = ""
    npasses = 1
    reference = speed.Kernel  # what an op's wall time is scaled by

    def __init__(self, seed: int, tiny: bool = False, tracer=None, npasses: int | None = None):
        self.seed = seed
        self.tiny = tiny
        if npasses is not None:
            self.npasses = npasses
        self.rng = random.Random(f"{self.name}:{seed}")
        self.passes: list[list] = []
        self.setup(tracer)

    def setup(self, tracer) -> None:
        raise NotImplementedError

    @property
    def pass_count(self) -> int:
        return 1 if self.tiny else self.npasses

    def inputs(self) -> list[gen.Instance]:
        """Every generated instance."""
        raise NotImplementedError

    def descriptors(self) -> list[dict]:
        return [it.descriptor() for it in self.inputs()]

    def fingerprint(self) -> str:
        """Text that changes whenever a generated input does."""
        return "".join(it.text for it in self.inputs())

    def op(self, item, tr=None):
        raise NotImplementedError

    def probe(self, item, out, tr) -> None:
        """Counts and warm-cache calls of a traced op, after its clock stops."""

    def check(self, item, out) -> None:
        raise NotImplementedError

    def lattice_inputs(self) -> list[gen.Instance]:
        """The first pass's inputs that have a lattice, for the memory probe."""
        return []

    def table_peak_kb(self) -> float | None:
        """tracemalloc peak while the lattice tables of the first pass's
        median-size input are built.  The peak is a function of the input,
        and tracemalloc slows the build several-fold, so one input stands
        for the per-op median."""
        inputs = sorted(self.lattice_inputs(), key=lambda it: it.pairs)
        if not inputs:
            return None
        inst = parse_instance(inputs[(len(inputs) - 1) // 2].text)
        lat = build_lattice(inst.elements, inst.leq)
        lat.pairs
        tracemalloc.start()
        try:
            lat.pushout_targets
            lat.pullback_targets
            lat.nonlift_left
            return tracemalloc.get_traced_memory()[1] / 1024.0
        finally:
            tracemalloc.stop()

    def close(self) -> None:
        pass


# -- recognize-large ---------------------------------------------------------

LARGE_GRIDS = [(7, 6), (9, 5), (8, 6), (7, 7), (10, 5), (12, 4)]


@dataclass
class RecognizeResult:
    rel: object
    decision: object
    chi: object
    built: tuple
    text: str


class RecognizeLarge(Workload):
    """op: instance JSON text -> parse -> build -> recognize -> find centers
    -> both center constructions -> printed report."""

    name = "recognize-large"
    npasses = 6

    def make_pass(self, rng):
        if self.tiny:
            return [gen.named_fixture("trunc-1", "yes", rng, family="trunc"), gen.chain(rng, 6),
                    gen.gap_chain(rng, 6), gen.grid(rng, [2, 1], [2, 1]), gen.cw_product(rng, 2)]
        # A pass is 23 ops whose cost ranks do not depend on the seed: 9 cheap
        # ones; six 6x5 grids of equal |W| around the median; three chains
        # drawn from 16-26 and one grid of 42-50 elements; three chain-28 around
        # the p90; chain-32 on top.  The seed varies element order, block order,
        # gaps and the drawn sizes.
        items = [gen.named_fixture(f"trunc-{k}", "yes", rng, family="trunc") for k in range(1, 5)]
        items += [gen.cw_product(rng, 3) for _ in range(2)]
        items += [gen.gap_chain(rng, 16) for _ in range(2)]
        items += [gen.chain(rng, 12)]
        items += [gen.grid(rng, gen.shuffled(rng, (2, 2, 1, 1)), gen.shuffled(rng, (2, 2, 1)))
                  for _ in range(6)]
        items += [gen.chain(rng, rng.randint(lo, lo + 3)) for lo in (16, 20)]
        items += [gen.chain(rng, rng.randint(24, 26))]
        a, b = rng.choice(LARGE_GRIDS)
        items += [gen.grid(rng, gen.random_blocks(rng, a, 3), gen.random_blocks(rng, b, 3))]
        items += [gen.chain(rng, 28) for _ in range(3)] + [gen.chain(rng, 32)]
        rng.shuffle(items)
        return items

    def setup(self, tracer) -> None:
        self.passes = [self.make_pass(self.rng) for _ in range(self.pass_count)]
        first = min(self.passes[0], key=lambda it: (it.n, it.weq))
        self.op(first)

    def inputs(self):
        return [it for p in self.passes for it in p]

    def _report(self, item, rel, decision, chi, built) -> ReportFile:
        lat = rel.lattice
        structures = [decision.structure] if decision.yes else []
        return ReportFile(
            command=["recognize", item.name],
            decision="yes" if decision.yes else "no",
            witnesses=[{"check": c.name, "witness": witness_to_names(lat, c.witness)}
                       for c in decision.report.failures()],
            structures=[structure_to_dict(m) for m in structures + list(built)],
            centers=[center_map_names(rel, chi)] if chi is not None else [],
        )

    def op(self, item, tr=None):
        with maybe_span(tr, "formats.parse"):
            inst = parse_instance(item.text)
        # build_relative, split so that the lattice and the validation each
        # have a span
        with maybe_span(tr, "lattice.build"):
            lat = build_lattice(inst.elements, inst.leq)
            lat.pairs
        with maybe_span(tr, "relative.validate"):
            rel = validate_relative(lat, inst.weq, add_identities=inst.add_identities)
        # recognize_finite's parts, called first so that each has a span;
        # all are cached on the lattice or on rel, so the work is the same
        with maybe_span(tr, "lattice.targets"):
            lat.pushout_targets
            lat.pullback_targets
        with maybe_span(tr, "relative.s2of3"):
            s2 = check_s2of3(rel)
        with maybe_span(tr, "relative.wc_wf"):
            compute_Wc(rel)
            compute_Wf(rel)
        with maybe_span(tr, "relative.cw"):
            cw = check_cw_factorization(rel)
        if s2.ok and cw.ok:
            # recognize_finite goes on to the terminal structure, whose
            # complements are the first use of the lift tables
            with maybe_span(tr, "lattice.lift_tables"):
                lat.nonlift_left
        with maybe_span(tr, "relative.recognize"):
            decision = recognize_finite(rel)
        with maybe_span(tr, "centers.find"):
            chi = find_or_none(rel)
        built = ()
        if chi is not None:
            with maybe_span(tr, "models.construct"):
                built = (construct_from_centers(rel, chi), construct_from_centers_dual(rel, chi))
        with maybe_span(tr, "formats.print"):
            text = print_report(self._report(item, rel, decision, chi, built))
        return RecognizeResult(rel, decision, chi, built, text)

    def probe(self, item, out, tr) -> None:
        rel = out.rel
        wc = compute_Wc(rel)
        tr.count("lattice.pairs", len(rel.lattice.pairs))
        tr.count("relative.weq", len(rel.weq))
        tr.count("relative.wc", len(wc))
        tr.count("relative.wf", len(compute_Wf(rel)))
        tr.count("relative.components", len(rel.components))
        tr.count("family." + item.family, 1)
        with tr.span("probe"):
            with tr.span("relative.report"):
                recognition_report(rel)
            with tr.span("classes.closure_checks"):
                is_composition_closed(rel.weq)
                is_pushout_closed(wc)
            if out.decision.yes:
                with tr.span("models.terminal"):
                    terminal = construct_terminal(rel)
                with tr.span("classes.complements"):
                    fib = right_complement(wc)
                    left_complement(fib & rel.weq)
                with tr.span("models.verify"):
                    verify_model(ModelStruct(rel, terminal.cof, terminal.fib))

    def check(self, item, out) -> None:
        yes = out.decision.yes
        require(yes == (item.expect == "yes"), f"{item.name}: verdict {yes}, expected {item.expect}")
        require((out.chi is not None) == yes, f"{item.name}: center route disagrees with recognition")
        if yes:
            require(out.decision.structure.verified, f"{item.name}: terminal structure not verified")
            require(all(m.verified for m in out.built), f"{item.name}: center structure not verified")
            require(len(out.built) == 2, f"{item.name}: center constructions missing")
        rep = parse_report(out.text)
        require(rep.decision == ("yes" if yes else "no"), f"{item.name}: printed decision wrong")
        require(len(rep.structures) == (3 if yes else 0), f"{item.name}: printed structures wrong")

    def lattice_inputs(self):
        return self.passes[0]


# -- oracle-small ------------------------------------------------------------


@dataclass
class OracleResult:
    rel: object
    decision: object
    centers: tuple
    structures: list


def random_instance(rel, index: int) -> gen.Instance:
    lat = rel.lattice
    leq = [lat.pair_names(p) for p in lat.cover_pairs()]
    weq = [lat.pair_names(p) for p in rel.weq.nonidentity_pairs()]
    return gen.make_instance(f"random-{index}", "random", lat.names, leq, weq, None)


class RandomStream:
    """The library's seeded `random_instances` stream, cut to the oracle's
    default cap of 14 non-identity weak equivalences."""

    max_generators = 14

    def __init__(self, seed: int):
        self.stream = random_instances(InstanceGen(seed=seed))
        self.drawn = 0

    def draw(self, tracer=None) -> gen.Instance:
        while True:
            if tracer is not None:
                tracer.begin_op()
            with maybe_span(tracer, "oracle.instances"):
                rel = next(self.stream)
            self.drawn += 1
            if len(rel.weq.nonidentity_pairs()) <= self.max_generators:
                return random_instance(rel, self.drawn)


class OracleSmall(Workload):
    """op: small instance -> build -> recognize -> enumerate centers ->
    enumerate model structures with the brute-force oracle."""

    name = "oracle-small"
    # a run goes round the pool many times; a large pool keeps the medians
    # of one seed's draws close to those of another's
    npasses = 40
    # block chains per pass by band of structure count: one low, two mid
    # around the p90, one high
    bands = (((40, 99), 1), ((100, 199), 2), ((200, 400), 1))
    shapes_per_band = 20  # divides npasses times each band's count

    def shape_deck(self, lo: int, hi: int, count: int) -> list[tuple[int, ...]]:
        """`count` block shapes with lo..hi structures, in seeded order.
        They are `shapes_per_band` fixed shapes spread over the band's
        structure counts, each used equally often, so every seed draws the
        same multiset: within a band the cost of an op varies by half."""
        shapes = sorted(gen.oracle_block_shapes(lo, hi),
                        key=lambda s: (math.prod(gen.catalan(b) for b in s), s))
        step = len(shapes) / self.shapes_per_band
        chosen = [shapes[int(i * step)] for i in range(self.shapes_per_band)]
        deck = (chosen * (count // len(chosen) + 1))[:count]
        self.rng.shuffle(deck)
        return deck

    def make_pass(self, rng, tracer, shapes):
        if self.tiny:
            items = [self.random.draw(tracer) for _ in range(3)]
            items += [gen.block_chain(rng, (2, 2)), gen.named_fixture("two-structures", "yes", rng)]
        else:
            # 18 ops: 8 random instances (almost all under 1 ms) below the
            # p50; five two-structures (about 2 ms) around it, whatever the
            # seed's mix of random sizes; forced; four block chains on top
            items = [self.random.draw(tracer) for _ in range(8)]
            items += [gen.named_fixture("two-structures", "yes", rng, 10) for _ in range(5)]
            items += [gen.named_fixture("forced", "yes", rng, 1)]
            items += [gen.block_chain(rng, shape) for shape in shapes]
        rng.shuffle(items)
        return [(it, parse_instance(it.text)) for it in items]

    def setup(self, tracer) -> None:
        self.random = RandomStream(self.seed)
        decks = [] if self.tiny else [self.shape_deck(lo, hi, n * self.npasses)
                                      for (lo, hi), n in self.bands]
        self.passes = []
        for k in range(self.pass_count):
            shapes = [deck.pop() for (_, n), deck in zip(self.bands, decks) for _ in range(n)]
            self.passes.append(self.make_pass(self.rng, tracer, shapes))
        self.op(self.passes[0][0])

    def inputs(self):
        return [it for p in self.passes for it, _ in p]

    def op(self, item, tr=None):
        _, inst = item
        # build_relative, split as in recognize-large
        with maybe_span(tr, "lattice.build"):
            lat = build_lattice(inst.elements, inst.leq)
            lat.pairs
        with maybe_span(tr, "relative.validate"):
            rel = validate_relative(lat, inst.weq, add_identities=inst.add_identities)
        # tables that later calls fill anyway: the oracle takes the
        # complements of at least the identities, so it always needs the
        # lift tables
        with maybe_span(tr, "lattice.targets"):
            lat.pushout_targets
            lat.pullback_targets
        with maybe_span(tr, "lattice.lift_tables"):
            lat.nonlift_left
        with maybe_span(tr, "relative.recognize"):
            decision = recognize_finite(rel)
        with maybe_span(tr, "centers.enumerate"):
            centers = centers_or_empty(rel)
        with maybe_span(tr, "oracle.enumerate"):
            structures = enumerate_model_structures(rel)
        return OracleResult(rel, decision, centers, structures)

    def probe(self, item, out, tr) -> None:
        rel = out.rel
        tr.count("lattice.pairs", len(rel.lattice.pairs))
        tr.count("relative.weq", len(rel.weq))
        tr.count("relative.components", len(rel.components))
        tr.count("centers.maps", len(out.centers))
        tr.count("oracle.structures", len(out.structures))
        tr.count("oracle.generators", len(rel.weq.nonidentity_pairs()))
        with tr.span("probe"):
            with tr.span("centers.find"):
                chi = find_or_none(rel)
            if chi is not None:
                with tr.span("models.construct"):
                    construct_from_centers(rel, chi)

    def check(self, item, out) -> None:
        it, _ = item
        yes = out.decision.yes
        require(bool(out.centers) == yes, f"{it.name}: centers disagree with recognition")
        require(bool(out.structures) == yes, f"{it.name}: oracle disagrees with recognition")
        if it.expect is not None:
            require(yes == (it.expect == "yes"), f"{it.name}: verdict {yes}, expected {it.expect}")
        if it.structures is not None:
            require(len(out.structures) == it.structures,
                    f"{it.name}: {len(out.structures)} structures, expected {it.structures}")
        require(all(m.verified for m in out.structures), f"{it.name}: unverified structure")
        if yes:
            found = {masks(m) for m in out.structures}
            require(masks(out.decision.structure) in found, f"{it.name}: terminal structure not enumerated")
            center = construct_from_centers(out.rel, out.centers[0])
            require(masks(center) in found, f"{it.name}: center structure not enumerated")

    def lattice_inputs(self):
        return [it for it, _ in self.passes[0]]


# -- compare-reduce ----------------------------------------------------------


@dataclass
class Comparison:
    name: str
    rel: object
    terminal: tuple[int, int]
    target: tuple[int, int]


class CompareReduce(Workload):
    """op: one enumerated structure -> zigzag from the terminal structure,
    full and contracted -> homotopy reduction.  Each op rebuilds both
    structures from their masks, so nothing memoised on a structure carries
    over to a later op; the relative structures and their tables are shared
    and warm."""

    name = "compare-reduce"

    def instances(self):
        if self.tiny:
            return [gen.named_fixture("two-structures", "yes")]
        # Two nine-element block chains whose comparisons all cost about the
        # same, so the percentiles fall inside one band.  Block order and
        # element order are fixed, because either moves that cost by half;
        # the seed sets the order of the ops.
        items = [gen.block_chain(None, blocks) for blocks in ((4, 2, 2, 1), (2, 2, 3, 2))]
        return items + [gen.named_fixture("two-structures", "yes"), gen.named_fixture("forced", "yes")]

    def setup(self, tracer) -> None:
        self.generated = self.instances()
        comparisons = []
        for it in self.generated:
            rel = build_relative(parse_instance(it.text))
            if tracer is not None:
                tracer.begin_op()
            with maybe_span(tracer, "oracle.enumerate"):
                structures = enumerate_model_structures(rel)
            if not structures:
                continue
            with maybe_span(tracer, "models.terminal"):
                terminal = masks(construct_terminal(rel))
            comparisons += [Comparison(it.name, rel, terminal, masks(m)) for m in structures]
        self.rng.shuffle(comparisons)
        self.passes = [comparisons]
        self.op(comparisons[0])

    def inputs(self):
        return self.generated

    def fingerprint(self) -> str:
        return super().fingerprint() + repr([(c.name, c.target) for c in self.passes[0]])

    @staticmethod
    def structures(c: Comparison):
        lat = c.rel.lattice
        return [ModelStruct(c.rel, MorphClass(lat, cof), MorphClass(lat, fib))
                for cof, fib in (c.terminal, c.target)]

    def op(self, item, tr=None):
        terminal, target = self.structures(item)
        # build_zigzag verifies both ends first; verifying here gives that
        # work a span of its own
        with maybe_span(tr, "models.verify"):
            verify_model(terminal)
            verify_model(target)
        with maybe_span(tr, "equivalence.zigzag"):
            full = build_zigzag(terminal, target)
            short = build_zigzag(terminal, target, contract=True)
        with maybe_span(tr, "equivalence.reduce"):
            reduced = homotopy_reduce(target)
        return full, short, reduced

    def probe(self, item, out, tr) -> None:
        full, short, reduced = out
        tr.count("equivalence.full_nodes", len(full.nodes))
        tr.count("equivalence.contracted_nodes", len(short.nodes))
        tr.count("equivalence.contracted_ratio", len(short.nodes) / len(full.nodes))
        tr.count("equivalence.reduced_elements", reduced[0].n)

    def check(self, item, out) -> None:
        full, short, (d_lat, d_model, _) = out
        for z in (full, short):
            require(z.all_edges_ok(), f"{item.name}: zigzag edge is not left Quillen")
            require(masks(z.nodes[0]) == item.terminal and masks(z.nodes[-1]) == item.target,
                    f"{item.name}: zigzag ends are not the compared structures")
        require(len(short.nodes) <= len(full.nodes), f"{item.name}: contraction grew the zigzag")
        require(d_lat.n == len(item.rel.components), f"{item.name}: reduced lattice size wrong")
        require(d_model.verified, f"{item.name}: reduced structure not verified")

    def lattice_inputs(self):
        return self.generated


# -- cli ---------------------------------------------------------------------

REPORT_COMMANDS = {"validate", "recognize", "centers", "synthesize", "verify", "enumerate",
                   "zigzag", "reduce"}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import posetmodels.cli; "
                "print(time.perf_counter() - t)")


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_python(args, env, timeout=120):
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=timeout,
                          check=False, cwd=ROOT)


def run_cli_in_process(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(list(argv))
    return code, out.getvalue()


@dataclass
class Call:
    argv: tuple
    expect_code: int
    stdout: bytes = b""
    code: int = -1


class Cli(Workload):
    """op: one `posetmodels` subprocess; commands go round-robin over all
    ten subcommands, one subprocess at a time."""

    name = "cli"
    npasses = 4
    reference = speed.Process

    def write(self, name: str, data: dict) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
        return str(path)

    def instance_files(self, rng):
        """(path, instance) of small instances of known answer."""
        fixtures = [gen.named_fixture(n, "yes", rng) for n in ("two-structures", "forced", "trunc-1")]
        yes = fixtures + [gen.block_chain(rng, rng.choice([(2, 2, 2), (3, 2), (2, 3), (3, 3)]))]
        no = [gen.named_fixture("s2of3-fail", "no", rng), gen.gap_chain(rng, 6), gen.cw_product(rng, 1)]
        return [(self.write(f"{it.name}.json", json.loads(it.text)), it) for it in yes + no]

    def structure_files(self, rng, files):
        """Per YES instance within the oracle caps: its path and up to two
        full-structure files of its enumerated structures."""
        out = {}
        for path, it in files:
            if it.expect != "yes" or it.n > 10:
                continue
            inst = parse_instance(it.text)
            structures = enumerate_model_structures(build_relative(inst))
            paths = []
            for k, m in enumerate(rng.sample(structures, min(2, len(structures)))):
                data = instance_to_dict(inst)
                data.update({key: structure_to_dict(m)[key] for key in ("cof", "fib")})
                paths.append(self.write(f"{it.name}.s{k}.json", data))
            out[it.name] = (path, paths)
        return out

    def generators_file(self, structure_path) -> str:
        """genmc generators: the acyclic cofibrations of a verified structure."""
        text = Path(structure_path).read_text(encoding="utf-8")
        inst = parse_instance(text)
        rel = build_relative(inst)
        acof = MorphClass.from_pairs(rel.lattice, inst.cof, add_identities=True) & rel.weq
        data = json.loads(text)
        data["weq"] = [list(p) for p in acof.name_pairs() if p[0] != p[1]]
        del data["cof"], data["fib"]
        return self.write(Path(structure_path).stem + ".gens.json", data)

    def make_pass(self, rng, files, structures):
        """One call of each subcommand, on seeded choices of the files."""
        path, it = rng.choice(files)
        answer = 0 if it.expect == "yes" else 1
        small_path, small = rng.choice([(p, i) for p, i in files if i.n <= 10])
        yes_path = rng.choice([p for p, i in files if i.expect == "yes"])
        s_inst, s_files = structures[rng.choice(sorted(structures))]
        method = rng.choice(["terminal", "centers", "centers-dual", "genmc", "newcofib"])
        if method == "genmc":
            synth = (s_inst, "--method", "genmc", "--generators", self.generators_file(rng.choice(s_files)))
        elif method == "newcofib":
            synth = (rng.choice(s_files), "--method", "newcofib")
        else:
            synth = (yes_path, "--method", method)
        contract = ("--contract",) if rng.random() < 0.5 else ()
        calls = [
            Call(("validate", path), 0),
            Call(("recognize", path), answer),
            Call(("centers", rng.choice(["find", "enumerate"]), path), answer),
            Call(("synthesize",) + synth, 0),
            Call(("verify", rng.choice(s_files)), 0),
            Call(("enumerate", small_path), 0 if small.expect == "yes" else 1),
            Call(("zigzag", s_files[0], s_files[-1]) + contract, 0),
            Call(("reduce", rng.choice(s_files)), 0),
            Call(("export-dot", rng.choice([path, rng.choice(s_files)])), 0),
            Call(("fixture", rng.choice(["two-structures", "forced", "trunc-2", "s2of3-fail", "chain-8"])), 0),
        ]
        rng.shuffle(calls)
        return calls

    def setup(self, tracer) -> None:
        self.workdir = ROOT / ".bench_work" / f"{self.name}-{os.getpid()}-{id(self)}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = cli_env()
        self.files = self.instance_files(self.rng)
        structures = self.structure_files(self.rng, self.files)
        self.passes = [self.make_pass(self.rng, self.files, structures) for _ in range(self.pass_count)]
        for call in (c for p in self.passes for c in p):
            call.code, text = run_cli_in_process(call.argv)
            call.stdout = text.encode("utf-8")
        self.op(self.passes[0][0])

    def inputs(self):
        return [it for _, it in self.files]

    def fingerprint(self) -> str:
        argvs = [" ".join(Path(a).name for a in c.argv) for p in self.passes for c in p]
        return super().fingerprint() + "\n".join(argvs)

    def op(self, item, tr=None):
        with maybe_span(tr, "cli.subprocess"):
            return run_python(["-m", "posetmodels.cli", *item.argv], self.env)

    def probe(self, item, out, tr) -> None:
        with tr.span("probe"):
            with tr.span("cli.interpreter"):
                run_python(["-c", "pass"], self.env)
            probe = run_python(["-c", IMPORT_PROBE], self.env)
            tr.count("cli.import_ms", float(probe.stdout) * 1000.0)
            with tr.span("cli.run"):
                run_cli_in_process(item.argv)
            if item.argv[0] in REPORT_COMMANDS:
                text = out.stdout.decode("utf-8")
                with tr.span("formats.parse"):
                    rep = parse_report(text)
                with tr.span("formats.print"):
                    print_report(rep)

    def check(self, item, out) -> None:
        label = " ".join(Path(a).name for a in item.argv)
        require(item.code == item.expect_code, f"{label}: in-process exit {item.code}, expected {item.expect_code}")
        require(out.returncode == item.expect_code, f"{label}: exit {out.returncode}, expected {item.expect_code}")
        require(out.stdout == item.stdout, f"{label}: stdout differs from in-process run_cli")
        require(out.stderr == b"", f"{label}: unexpected stderr {out.stderr[:200]!r}")
        text = out.stdout.decode("utf-8")
        if item.argv[0] in REPORT_COMMANDS:
            rep = parse_report(text)
            require(print_report(rep) == text, f"{label}: report does not round-trip")
        elif item.argv[0] == "fixture":
            parse_instance(text)
        else:
            require(text.startswith("digraph"), f"{label}: not a DOT graph")

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass


WORKLOADS = {w.name: w for w in (RecognizeLarge, OracleSmall, CompareReduce, Cli)}
