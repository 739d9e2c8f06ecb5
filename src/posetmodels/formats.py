"""Instance and report files: JSON-compatible, schema version 1, round-trip safe.

Pair lists in files name elements; identities are implied and never listed.
Report emission is deterministic: fixed key order, pair lists sorted by
element index, no environment-dependent content.

Emission contract: a report or instance file is exactly
``json.dumps(obj, indent=2) + "\n"`` of its dict, produced by one renderer,
:func:`_render`.  ``json.dumps`` falls back to a pure-Python encoder,
one recursive call per value, whenever `indent` is set; most of a report
is pair lists of two labels, which the renderer emits with one
``str.join`` each.  Strings go through json's own C escaper and every
other scalar through ``json.dumps`` of that value alone, so no spelling
can drift from json's.  Parsing is ``json.loads``.

The lattice, class and relative layers load only inside the functions
that build or render classes: ``fixture`` loads none of them.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING

from .errors import InvalidInput
from .report import Record

if TYPE_CHECKING:
    from .classes import MorphClass
    from .lattice import FiniteLattice
    from .models import ModelStruct
    from .relative import RelStruct

SCHEMA_VERSION = 1
_SEQUENCES = {list, tuple}


def _render(obj, pad: str = "") -> str:
    """``json.dumps(obj, indent=2)`` for `obj` nested at indentation `pad`."""
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        if set(map(type, obj)) <= _SEQUENCES and set(map(len, obj)) == {2}:
            # a list of pairs, in one join over its quoted labels, taken two at a time
            open_leaves, leaf_sep, close_leaves = "[\n" + inner + "  ", ",\n" + inner + "  ", "\n" + inner + "]"
            labels = map(_quote, chain.from_iterable(obj))
            try:
                pairs = (close_leaves + ",\n" + inner + open_leaves).join(map(leaf_sep.join, zip(labels, labels)))
            except TypeError:  # _quote takes strings only
                pass
            else:
                return "[\n" + inner + open_leaves + pairs + close_leaves + "\n" + pad + "]"
        items = [_render(item, inner) for item in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = [_key(k) + ": " + _render(v, inner) for k, v in obj.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    return json.dumps(obj)


def _key(k) -> str:
    """A dict key, spelled as json spells it."""
    if isinstance(k, str):
        return _quote(k)
    if k is None or isinstance(k, (int, float)):  # bool is an int
        return _quote(json.dumps(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


class InstanceFile(Record):
    """A (lattice, weak equivalences) instance; cof/fib present only for
    full-structure files."""

    __slots__ = ("elements", "leq", "weq", "add_identities", "cof", "fib", "version")

    def __init__(self, elements: list[str], leq: list[tuple[str, str]], weq: list[tuple[str, str]],
                 add_identities: bool = False, cof: list[tuple[str, str]] | None = None,
                 fib: list[tuple[str, str]] | None = None, version: int = SCHEMA_VERSION):
        self.elements = elements
        self.leq = leq
        self.weq = weq
        self.add_identities = add_identities
        self.cof = cof
        self.fib = fib
        self.version = version


def _pair_list(raw, name: str) -> list[tuple[str, str]]:
    """`raw` as label pairs, checked in C-level passes; only a bad list is
    walked item by item, to name its first bad item."""
    if not isinstance(raw, list):
        raise InvalidInput(f"field {name!r} must be a list of two-element label arrays")
    if all(map(isinstance, raw, repeat(list))) and set(map(len, raw)) <= {2} \
            and all(map(isinstance, chain.from_iterable(raw), repeat(str))):
        return list(map(tuple, raw))
    for k, item in enumerate(raw):
        if not isinstance(item, list) or len(item) != 2 or not all(isinstance(x, str) for x in item):
            raise InvalidInput(f"field {name}[{k}] must be a two-element label array")


def _check_version(data: dict) -> None:
    """Require schema version 1 as a JSON integer: ``true`` and ``1.0``
    compare equal to 1 but are not versions."""
    version = data.get("version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise InvalidInput(f"field 'version' must be {SCHEMA_VERSION}, got {version!r}")


def _loads(text: str):
    """``json.loads``, with every malformed document an input error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidInput(f"JSON parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError:
        raise InvalidInput("JSON nesting too deep") from None


def instance_from_dict(data: dict) -> InstanceFile:
    if not isinstance(data, dict):
        raise InvalidInput("instance file must be a JSON object")
    _check_version(data)
    elements = data.get("elements")
    if not isinstance(elements, list) or not all(isinstance(x, str) for x in elements):
        raise InvalidInput("field 'elements' must be a list of labels")
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise InvalidInput("field 'options' must be an object")
    add_ids = options.get("addIdentities", False)
    if not isinstance(add_ids, bool):
        raise InvalidInput("field 'options.addIdentities' must be a boolean")
    inst = InstanceFile(
        elements=list(elements),
        leq=_pair_list(data.get("leq", []), "leq"),
        weq=_pair_list(data.get("weq", []), "weq"),
        add_identities=add_ids,
    )
    if "cof" in data:
        inst.cof = _pair_list(data["cof"], "cof")
    if "fib" in data:
        inst.fib = _pair_list(data["fib"], "fib")
    return inst


def instance_to_dict(inst: InstanceFile) -> dict:
    data = {
        "version": inst.version,
        "elements": list(inst.elements),
        "leq": [list(p) for p in inst.leq],
        "weq": [list(p) for p in inst.weq],
        "options": {"addIdentities": inst.add_identities},
    }
    if inst.cof is not None:
        data["cof"] = [list(p) for p in inst.cof]
    if inst.fib is not None:
        data["fib"] = [list(p) for p in inst.fib]
    return data


def parse_instance(text: str) -> InstanceFile:
    return instance_from_dict(_loads(text))


def print_instance(inst: InstanceFile) -> str:
    return _render(instance_to_dict(inst)) + "\n"


def build_relative(inst: InstanceFile) -> RelStruct:
    from .lattice import build_lattice
    from .relative import validate_relative

    return validate_relative(build_lattice(inst.elements, inst.leq), inst.weq, add_identities=inst.add_identities)


def build_structure(inst: InstanceFile) -> ModelStruct:
    """Build the (unverified) structure of a full-structure file.

    Identities are always implied for cof and fib; run verify_model on the
    result to obtain the report.
    """
    if inst.cof is None or inst.fib is None:
        raise InvalidInput("structure file requires 'cof' and 'fib' fields")
    from .classes import MorphClass
    from .models import ModelStruct

    rel = build_relative(inst)
    lat = rel.lattice
    cof = MorphClass.from_pairs(lat, inst.cof, add_identities=True)
    fib = MorphClass.from_pairs(lat, inst.fib, add_identities=True)
    return ModelStruct(rel, cof, fib)


def class_name_pairs(s: MorphClass) -> list[list[str]]:
    """Non-identity members as name pairs in the lattice's pair order:
    ``lat.pairs`` selected by the mask's bits, lowest first."""
    lat = s.lattice
    return list(map(list, lat._select(lat._label_index, s.mask & ~lat.identity_mask)))


def structure_to_dict(m: ModelStruct) -> dict:
    return {
        "we": class_name_pairs(m.we),
        "cof": class_name_pairs(m.cof),
        "fib": class_name_pairs(m.fib),
    }


def witness_to_names(lattice: FiniteLattice, witness) -> list:
    """Flatten a witness tuple of elements and pairs into labels."""
    if witness is None:
        return []
    out = []
    for item in witness:
        if isinstance(item, tuple):
            out.append([lattice.name(x) for x in item])
        else:
            out.append(lattice.name(item))
    return out


class ReportFile(Record):
    """A report; the list fields default to a fresh empty list each."""

    __slots__ = ("command", "decision", "witnesses", "structures", "centers", "zigzag", "timings", "version")

    def __init__(self, command: list[str], decision: str, witnesses: list[dict] | None = None,
                 structures: list[dict] | None = None, centers: list[list[list[str]]] | None = None,
                 zigzag: dict | None = None, timings: dict | None = None, version: int = SCHEMA_VERSION):
        self.command = command
        self.decision = decision
        self.witnesses = [] if witnesses is None else witnesses
        self.structures = [] if structures is None else structures
        self.centers = [] if centers is None else centers
        self.zigzag = zigzag
        self.timings = timings
        self.version = version


def report_to_dict(rep: ReportFile) -> dict:
    data = {
        "version": rep.version,
        "command": list(rep.command),
        "decision": rep.decision,
        "witnesses": rep.witnesses,
        "structures": rep.structures,
        "centers": rep.centers,
    }
    if rep.zigzag is not None:
        data["zigzag"] = rep.zigzag
    if rep.timings is not None:
        data["timings"] = rep.timings
    return data


_REPORT_FIELDS = {  # name: (its type, the type of each item, as a diagnostic names it)
    "command": (list, str, "a list of strings"),
    "decision": (str, object, "a string"),
    "witnesses": (list, dict, "a list of objects"),
    "structures": (list, dict, "a list of objects"),
    "centers": (list, object, "a list"),
    "zigzag": (dict, object, "an object"),
    "timings": (dict, object, "an object"),
}


def report_from_dict(data: dict) -> ReportFile:
    """A report, each field of the type :func:`report_to_dict` writes;
    absent fields take their defaults."""
    if not isinstance(data, dict):
        raise InvalidInput("report file must be a JSON object")
    _check_version(data)
    fields = {"command": [], "decision": ""}
    for name, (kind, item, what) in _REPORT_FIELDS.items():
        if name in data:
            value = data[name]
            if not isinstance(value, kind) or not all(isinstance(x, item) for x in value):
                raise InvalidInput(f"field {name!r} must be {what}")
            fields[name] = list(value) if kind is list else value
    return ReportFile(**fields, version=data["version"])


def parse_report(text: str) -> ReportFile:
    return report_from_dict(_loads(text))


def print_report(rep: ReportFile) -> str:
    return _render(report_to_dict(rep)) + "\n"


def center_map_names(rel: RelStruct, chi) -> list[list[str]]:
    lat = rel.lattice
    return [[lat.name(a), lat.name(chi.chi[a])] for a in range(lat.n)]
