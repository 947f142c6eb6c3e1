"""Self-tests of the end-to-end benchmark: small runs, no timing claims."""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import bench_workloads
import run
from bench_speed import REFERENCE_S, Speed, calibrate
from bench_trace import WRAP_SITES, NullTracer, Tracer, resolve_owner, unit_of
from bench_workloads import WORKLOADS, InputNote, battery_grid, digest

BENCHMARK_JSON = Path(run.__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.fixture(autouse=True)
def small_runs(monkeypatch):
    """Small pools and one set-up pass; bundlehunt modules restored afterwards.

    The benchmark re-imports bundlehunt on every set-up; the test run's
    own modules go back into sys.modules so later tests see the objects they
    imported.
    """
    monkeypatch.setattr(bench_workloads, "HUNT_POOL", 4)
    monkeypatch.setattr(bench_workloads, "GENERIC_POOL", 1)  # one block
    monkeypatch.setattr(bench_workloads, "ORACLE_CELLS_PER_DESC", 1)
    monkeypatch.setattr(bench_workloads, "CLASSIFY_POOL", 16)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "bundlehunt"}
    yield
    for k in [k for k in sys.modules if k.split(".")[0] == "bundlehunt"]:
        del sys.modules[k]
    sys.modules.update(saved)


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_battery_grid_matches_the_acceptance_battery():
    grid = battery_grid()
    assert len(grid) == 12456
    assert len(set(grid)) == len(grid)


@pytest.mark.parametrize("name", ["hunt-generic", "oracle-recheck", "classify"])
def test_smoke_runs_verify_every_item(name):
    lib, items, _, _ = run.setup(WORKLOADS[name], 3, Speed())
    out = run.measure(lib, WORKLOADS[name], items, NullTracer(), count=3)
    assert len(out.latencies) == 3
    assert not out.failures, out.examples


def test_smoke_hunt_battery_accounts_for_every_item():
    # hunt failures are reported, not raised: each item is verified or counted
    wl = WORKLOADS["hunt-battery"]
    lib, items, _, _ = run.setup(wl, 3, Speed())
    out = run.measure(lib, wl, items, NullTracer(), count=2)
    verified = sum(1 for x in out.latencies if x != float("inf"))
    assert len(out.latencies) == 2
    assert verified + sum(out.failures.values()) == 2
    assert set(out.failures) == set(out.examples)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    wl = WORKLOADS[name]
    lib = run.load_library()
    first = digest(wl.make_inputs(lib, 11)[1])
    assert digest(wl.make_inputs(lib, 11)[1]) == first
    assert digest(wl.make_inputs(lib, 12)[1]) != first


def test_wrappers_restore_every_attribute():
    lib = run.load_library()
    owners = [(resolve_owner(lib, path), attr) for path, attr, _ in WRAP_SITES]
    sites = [(o, a) for o, a in owners if o is not None and a in vars(o)]
    before = [vars(owner)[attr] for owner, attr in sites]
    wl = WORKLOADS["classify"]
    items, _ = wl.make_inputs(lib, 5)
    tracer = Tracer()
    tracer.install(lib)
    assert all(vars(o)[a] is not b for (o, a), b in zip(sites, before))
    tracer.uninstall()
    assert [vars(owner)[attr] for owner, attr in sites] == before
    tracer, traced, untraced = run.measure_traced(lib, wl, items, seconds=0.0)
    assert [vars(owner)[attr] for owner, attr in sites] == before
    assert len(traced.latencies) == len(untraced.latencies) == 1
    assert not traced.failures and not untraced.failures
    metrics = tracer.layer_metrics()
    assert metrics["bench.item.calls"] == 1
    assert metrics["p1.splitting_from_transition.calls"] == 1
    assert metrics["kernels.rank_rows.calls"] > 0


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
    inner, outer = tracer.spans
    assert tracer.link_parents() == [1, -1]
    assert outer[3] >= 0 and inner[3] > 0


def test_benchmark_json_names_what_is_printed(capsys):
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == unit_of(m["name"]) for m in spec["per_layer"])
    for w in spec["workloads"]:
        for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            argv = ["--workload", w["name"], "--seed", "2", "--seconds", "0.6", "--trace", str(trace)]
            assert run.main(argv) == 0
            result = last_json(capsys)
            assert set(result["metrics"]) == set(names)
            assert result["correct"] and result["attempted"] >= 1
            assert all(v["value"] is not None for v in result["metrics"].values())


class CheckedByKernel:
    """A workload whose check is slow and calls a traced layer; its operation does neither."""

    name = "check-only"

    @staticmethod
    def operate(lib, item, tracer):
        return item

    @staticmethod
    def check(lib, item, out):
        lib.kernels.rank_rows([([0], [1])], 1)
        time.sleep(0.02)
        return None


def test_check_stays_out_of_item_time_and_spans():
    lib = run.load_library()
    tracer = Tracer()
    tracer.install(lib)
    try:
        out = run.measure(lib, CheckedByKernel, [1, 2], tracer, count=2)
    finally:
        tracer.uninstall()
    assert not out.failures
    assert out.busy < 0.02 <= out.wall / 2
    assert max(out.latencies) < 0.02
    assert {s[0] for s in tracer.spans} == {"bench.item"}


def test_hunt_generic_blocks_keep_the_rank_mix():
    lib = run.load_library()
    items, _ = WORKLOADS["hunt-generic"].make_inputs(lib, 4)
    block = sum(bench_workloads.GENERIC_BLOCK.values())
    ranks = [sorted(t[3] for t in items[i : i + block]) for i in range(0, len(items), block)]
    assert all(r == ranks[0] for r in ranks)
    assert len(set(items)) == len(items)


def test_speed_samples_and_scales():
    assert calibrate() == calibrate()
    speed = Speed()
    speed.sample()
    speed.sample_if_due()  # too soon after the last sample: skipped
    assert len(speed.samples) == 1 and speed.slowdown() > 0
    # a machine twice as slow as the reference around every item
    speed.times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    speed.samples = [2 * REFERENCE_S] * 6
    run_ = run.Measured(
        latencies=[0.01, 0.02, 0.03], durations=[0.01, 0.02, 0.03], mids=[1.0, 2.0, 3.0]
    )
    raw = run.end_to_end(run_, [1.0])
    scaled = run.end_to_end(run_, [1.0], speed, setup_slowdown=2.0)
    assert scaled["item_p50_ms"] == pytest.approx(raw["item_p50_ms"] / 2)
    assert scaled["items_per_s"] == pytest.approx(raw["items_per_s"] * 2)
    assert scaled["setup_s"] == 0.5


def test_oracle_check_separates_input_defects_from_wrong_output():
    # rank 2, alpha 3/2: passes the genericity check, yet its pushforward in
    # normalized column 2 is O + O(-1)^3 + O(-2), so E(1, 0) is not natural
    lib = run.load_library()
    q, w = lib.qbundle, "w"
    f1, f2 = lib.p1.SplittingType([-3]), lib.p1.SplittingType([2])

    def eta(top):
        poly = lib.exactalg.LaurentPoly(w, {-1: -1, 0: -1, 1: -8, 2: top})
        return lib.ext1.ExtCocycle(f1, f2, [poly], w)

    desc = q.ConstantBundleDesc(1, 1, f1, f2, q.BigradedEta(eta(-5), eta(9)), shift=(1, 0))
    params = q.HilbertParams(Fraction(3, 2), Fraction(1, 2), Fraction(5, 4), 2)
    assert lib.hunter.genericity_check(desc).ok
    wl = WORKLOADS["oracle-recheck"]
    item = (params, desc, 1, 0)
    out = wl.operate(lib, item, NullTracer())
    assert out == (1, 1, 0)
    assert isinstance(wl.check(lib, item, out), InputNote)
    assert not isinstance(wl.check(lib, item, (0, 1, 1)), (InputNote, type(None)))
