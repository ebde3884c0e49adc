"""BENCHMARK.json says what the code measures, within the contract's limits."""

import json
import re
from pathlib import Path

from benchmarks.e2e import run
from benchmarks.e2e.agree import verdict
from benchmarks.e2e.layers import PER_LAYER, complete
from benchmarks.e2e.workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_exact_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in SPEC[key]]
    assert len(set(names)) == len(names) and all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_spec_and_code_name_the_same_things():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert list(complete({})) == [m["name"] for m in SPEC["per_layer"]]
    paths = SPEC["paths"]
    assert any(Path(a).parts[:len(Path(p).parts)] == Path(p).parts
               for a in SPEC["command"][1:] for p in paths)


def test_agree_verdicts():
    steady = [100.0, 100.5, 99.5, 100.2, 99.8]
    assert verdict(steady, [x * 1.02 for x in steady], "lower", 0.08)[3] == "ok"
    assert verdict(steady, [x * 1.10 for x in steady], "lower", 0.08)[3] == "BREACH"
    assert verdict(steady, [x * 1.10 for x in steady], "higher", 0.08)[3] == "ok"
    assert verdict(steady, [x * 0.90 for x in steady], "higher", 0.08)[3] == "BREACH"
    noisy = [80.0, 120.0, 100.0, 90.0, 110.0]
    assert verdict(steady, noisy, "lower", 0.08)[3] == "unresolved"
