"""Seeded instance families for the benchmark.

Every generator takes a `random.Random` and returns an `Instance`: the
instance file text (schema version 1), the answer the family is known to
have, and its size descriptors.  The text is produced here, not by the
library, so the same seed gives byte-identical files whatever the library
does; only the named built-in fixtures are taken from the library.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property

from posetmodels import build_lattice
from posetmodels.fixtures import fixture
from posetmodels.formats import instance_to_dict, parse_instance

# An eight-element lattice whose W satisfies strong 2-of-3 but has no
# W_c-then-W_f factorization of x2 -> x6.  Its product with any block chain
# keeps that failure, which gives NO instances of every size.
CW_GADGET_LEQ = [
    ("x0", "x1"), ("x1", "x2"), ("x1", "x3"), ("x1", "x4"), ("x2", "x5"),
    ("x2", "x6"), ("x3", "x6"), ("x4", "x5"), ("x5", "x7"), ("x6", "x7"),
]
CW_GADGET_WEQ = [("x0", "x1"), ("x2", "x6"), ("x3", "x6")]


@dataclass(frozen=True)
class Instance:
    """One generated instance.

    `expect` is "yes" or "no" when the family's answer is known, else None.
    `structures` is the known number of model structures, when known.
    """

    name: str
    family: str
    text: str
    expect: str | None
    n: int
    weq: int
    structures: int | None = None

    @cached_property
    def pairs(self) -> int:
        """P, the comparable pairs (identities included).  Built on first
        use, outside setup, since it takes a lattice build."""
        inst = parse_instance(self.text)
        return len(build_lattice(inst.elements, inst.leq).pairs)

    def descriptor(self) -> dict:
        return {
            "name": self.name, "family": self.family, "n": self.n, "P": self.pairs,
            "W": self.weq, "expect": self.expect,
        }


def make_instance(name, family, elements, leq, weq, expect, rng=None, structures=None) -> Instance:
    """Serialize an instance; with `rng`, list the elements in a seeded order.

    The element order fixes the library's element indices, so a seeded
    order varies the bitmask layout without changing the answer.
    """
    elements = list(elements)
    if rng is not None:
        rng.shuffle(elements)
    data = {
        "version": 1,
        "elements": elements,
        "leq": [list(p) for p in leq],
        "weq": [list(p) for p in weq],
        "options": {"addIdentities": True},
    }
    text = json.dumps(data, indent=2) + "\n"
    return Instance(name, family, text, expect, len(elements), len(weq), structures)


def named_fixture(name: str, expect: str, rng=None, structures=None, family="fixture") -> Instance:
    data = instance_to_dict(fixture(name))
    return make_instance(name, family, data["elements"], data["leq"], data["weq"], expect,
                         rng, structures)


def block_chain_parts(blocks, prefix="c"):
    """A chain of sum(blocks) elements; W is every pair inside one block."""
    elements = [f"{prefix}{i}" for i in range(sum(blocks))]
    leq = [(elements[i], elements[i + 1]) for i in range(len(elements) - 1)]
    weq = []
    start = 0
    for b in blocks:
        weq += [(elements[i], elements[j]) for i in range(start, start + b) for j in range(i + 1, start + b)]
        start += b
    return elements, leq, weq


def product_parts(left, right):
    """Product of two (elements, leq, weq) relative posets; W is W1 x W2."""
    e1, l1, w1 = left
    e2, l2, w2 = right

    def nm(a, b):
        return f"{a}.{b}"

    elements = [nm(a, b) for a in e1 for b in e2]
    leq = [(nm(a, b), nm(c, b)) for (a, c) in l1 for b in e2]
    leq += [(nm(a, b), nm(a, d)) for a in e1 for (b, d) in l2]
    w1 = list(w1) + [(a, a) for a in e1]
    w2 = list(w2) + [(b, b) for b in e2]
    weq = [(nm(a, b), nm(c, d)) for (a, c) in w1 for (b, d) in w2 if (a, b) != (c, d)]
    return elements, leq, weq


def catalan(k: int) -> int:
    out = 1
    for i in range(k):
        out = out * 2 * (2 * i + 1) // (i + 2)
    return out


def random_blocks(rng: random.Random, length: int, max_block: int) -> list[int]:
    blocks = []
    while sum(blocks) < length:
        blocks.append(min(rng.randint(1, max_block), length - sum(blocks)))
    return blocks


def shuffled(rng: random.Random, blocks) -> list[int]:
    """The blocks in a seeded order: W changes shape but not size."""
    blocks = list(blocks)
    rng.shuffle(blocks)
    return blocks


def chain(rng: random.Random, n: int) -> Instance:
    return named_fixture(f"chain-{n}", "yes", rng, family="chain")


def gap_chain(rng: random.Random, n: int) -> Instance:
    """chain-n with middle m_k dropped from W: strong 2-of-3 fails at m_k."""
    k = rng.randint(2, n - 1)
    data = instance_to_dict(fixture(f"chain-{n}"))
    gap = f"m{k}"
    weq = [p for p in data["weq"] if gap not in p]
    return make_instance(f"gap-chain-{n}-{k}", "gap-chain", data["elements"], data["leq"], weq,
                         "no", rng)


def grid(rng: random.Random, blocks_a, blocks_b) -> Instance:
    """Product of two chains cut into the given blocks; W is
    block-diagonal, so the instance is a product of YES instances."""
    parts = product_parts(block_chain_parts(blocks_a, "p"), block_chain_parts(blocks_b, "q"))
    tag = "-".join(map(str, blocks_a)) + "x" + "-".join(map(str, blocks_b))
    return make_instance(f"grid-{tag}", "grid", *parts, "yes", rng)


def cw_product(rng: random.Random, length: int) -> Instance:
    """The c/w gadget times a seeded block chain: a NO instance."""
    blocks = random_blocks(rng, length, 3)
    gadget = ([f"x{i}" for i in range(8)], CW_GADGET_LEQ, CW_GADGET_WEQ)
    parts = product_parts(gadget, block_chain_parts(blocks, "c"))
    return make_instance(f"cw-gadget-x{'-'.join(map(str, blocks))}", "cw-product", *parts, "no", rng)


def block_chain(rng: random.Random, blocks) -> Instance:
    """A chain with full W inside each block.  Its model structures number
    the product of the Catalan numbers of the block sizes."""
    count = 1
    for b in blocks:
        count *= catalan(b)
    return make_instance(f"blocks-{'-'.join(map(str, blocks))}", "block-chain",
                         *block_chain_parts(blocks), "yes", rng, count)


def oracle_block_shapes(lo: int, hi: int) -> list[tuple[int, ...]]:
    """Block compositions within the oracle's default caps (at most 10
    elements and 14 non-identity W) with lo..hi model structures."""
    out = []

    def extend(prefix, total):
        if prefix:
            weq = sum(b * (b - 1) // 2 for b in prefix)
            count = 1
            for b in prefix:
                count *= catalan(b)
            if weq <= 14 and lo <= count <= hi:
                out.append(tuple(prefix))
        for b in range(1, 11 - total):
            extend(prefix + [b], total + b)

    extend([], 0)
    return out
