"""Pinned content addresses and wire forms of two specs.

A spec travels as UPS text (spool and fabric requests) and as its dict
form (the request journal), and its fingerprint addresses the result
cache. All four must stay byte-identical across refactors of
:mod:`repro.ups`, or existing journals, spool files and cache entries
stop matching the specs that wrote them.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.ups import (
    GridSpec,
    ProblemSpec,
    SpectralSpec,
    parse_ups,
    scene_fingerprint,
    spec_fingerprint,
    spec_to_dict,
    spec_to_ups,
)

EXAMPLE = Path(__file__).resolve().parent.parent / "examples" / "rmcrt_bench.ups"

PINS = {
    # the distributed two-level example input, gray
    "rmcrt_bench": (
        lambda: parse_ups(str(EXAMPLE)),
        "d9be2827361cd09de09444aafd4cd411d8b71fcfaef49bf7243fd34d2c861fa8",
        "ba04754674c4b04a3d56d526a36e9829eae340cd3080e8e20bb9eee38b92dc18",
        "6a14a4494e4ba983ba43542b2949425ebe582ac80702bdd07838e7580a7b2b71",
        "623f95822c43d38508b5057837b25d1f1e56bf6839b50a2b7367b777c5e53497",
    ),
    # a serial spectral spec with explicit edges, one of them infinite
    "spectral_edges": (
        lambda: ProblemSpec(
            grid=GridSpec(12, 2, 2, 6),
            spectral=SpectralSpec(3, (0.5, 1.0, 3.0, math.inf), 1400.0, 0.8, "tungsten"),
        ),
        "f8833f3e9707268b47b7ff0c2b1c5d20fac8a8f5cdfb62af73075bf5f3691b4d",
        "3e935d758068e3055b777fca76e6d85989e1505d3bfc88105f269b0bef5ff17a",
        "73a2bd98a710f58875ec3d402e8bd2b99b1309cbe93a8dc9f642fc7d8961d8d7",
        "754783c80481103a2be0c9bba65f19b406f37d33fb8b58600a39e79dfc887582",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_content_addresses_and_wire_forms_are_pinned(name):
    make, spec_fp, scene_fp, ups_sha, dict_sha = PINS[name]
    spec = make()
    assert spec_fingerprint(spec) == spec_fp
    assert scene_fingerprint(spec) == scene_fp
    assert sha256(spec_to_ups(spec)) == ups_sha
    assert sha256(json.dumps(spec_to_dict(spec), sort_keys=True)) == dict_sha
