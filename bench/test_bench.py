"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gen
import run
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic(name):
    cls = workloads.WORKLOADS[name]
    first, again, other = cls(7), cls(7), cls(8)
    try:
        assert first.fingerprint() == again.fingerprint()
        assert first.fingerprint() != other.fingerprint()
    finally:
        for w in (first, again, other):
            w.close()


def test_instance_text_is_byte_identical_for_a_seed():
    import random

    def texts(seed):
        rng = random.Random(seed)
        return [gen.grid(rng, gen.random_blocks(rng, 6, 3), [2, 3]).text, gen.cw_product(rng, 4).text,
                gen.gap_chain(rng, 20).text, gen.chain(rng, 12).text]

    assert texts(3) == texts(3)
    assert texts(3) != texts(4)


def test_block_chain_structure_counts_are_catalan_products():
    assert gen.block_chain(None, (4, 4, 2)).structures == 392
    shapes = gen.oracle_block_shapes(40, 400)
    assert (4, 4, 2) in shapes and (5, 5) not in shapes  # (5, 5) has 20 W pairs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(name):
    cls = workloads.WORKLOADS[name]
    loop, metrics, notes = run.untraced(cls, 1, 0, tiny=True)
    assert loop.failed == 0, loop.errors
    assert loop.attempted >= 1 and notes["deterministic"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run_emits_every_declared_layer_metric(name):
    declared = {m["name"] for m in SPEC["per_layer"]}
    metrics, notes, errors, attempted, failed = run.traced(
        workloads.WORKLOADS[name], 1, 0, declared, tiny=True)
    assert failed == 0, errors
    assert set(metrics) == declared
    assert notes["samples"] >= 1
    assert notes["borrowed"] and set(notes["borrowed"]) < declared


@pytest.mark.parametrize("traced", [False, True])
def test_a_failed_check_is_counted_and_the_run_goes_on(traced):
    class Flaky:
        passes = [[1, 2, 3, 4]]

        def op(self, item, tr=None):
            if item == 2:
                raise ValueError("boom")
            return item

        def probe(self, item, out, tr):
            if item == 4:
                raise ValueError("probe failed")

        def check(self, item, out):
            workloads.require(item != 3, "wrong answer")

    loop = run.Loop(speed.Kernel())
    loop.run(Flaky(), 0, spans.Tracer() if traced else None, min_ops=0)
    assert (loop.attempted, loop.failed, len(loop.latencies)) == (4, 3 if traced else 2, 4)


def test_self_time_excludes_children():
    tr = spans.Tracer()
    tr.begin_op()
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(10000))
    outer, inner = tr.spans
    assert inner.parent == 0 and outer.parent is None
    self_outer, self_inner = tr.self_times()
    assert self_outer == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))
    assert self_inner == inner.end - inner.start
    assert set(tr.medians()) == {"outer_ms", "inner_ms"}


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"] and SPEC["command"][1] == "bench/run.py"
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class FixedReference:
    """A reference that always reads twice its nominal time: the machine
    runs at half speed."""

    nominal_s = 0.001
    tick_s = 0.01

    def sample(self) -> float:
        time.sleep(0.002)
        return 0.002


def test_wall_times_are_scaled_to_the_nominal_speed():
    scaler = speed.Scaler(FixedReference())
    with scaler.ticking():
        for seconds in (0.001, 0.05):
            scaler.start()
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                pass
            scaler.stop()
    walls = [wall for _, _, wall in scaler.timings]
    # the tick handler's time is taken out of the long timing
    assert len(scaler.samples) > 4 and walls[1] < 0.05
    assert scaler.scaled() == pytest.approx([w / 2 for w in walls])
