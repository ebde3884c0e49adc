"""Tests for the UPS spec/scene fingerprints.

The service layer's correctness rests on the fingerprint being a true
content address: stable across processes for the same spec, distinct
for any result-affecting field change, and *insensitive* to scheduler
choice (which is execution strategy, not content — the pipeline is
bit-identical to the direct solvers on every scheduler).
"""

import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ups import (
    GridSpec,
    ProblemSpec,
    RMCRTSpec,
    SchedulerSpec,
    SpectralSpec,
    parse_ups,
    scene_fingerprint,
    spec_fingerprint,
    spec_from_dict,
    spec_to_dict,
    spec_to_ups,
)

UPS_TEXT = """
<Uintah_specification>
  <Grid>
    <resolution> 12 </resolution>
    <levels> 2 </levels>
    <refinement_ratio> 2 </refinement_ratio>
    <patch_size> 6 </patch_size>
  </Grid>
  <RMCRT>
    <nDivQRays> 5 </nDivQRays>
    <Threshold> 0.001 </Threshold>
    <halo> 2 </halo>
    <randomSeed> 3 </randomSeed>
  </RMCRT>
  <Scheduler type="serial"/>
</Uintah_specification>
"""


def base_spec() -> ProblemSpec:
    return parse_ups(UPS_TEXT)


class TestStability:
    def test_same_spec_same_fingerprint(self):
        assert spec_fingerprint(parse_ups(UPS_TEXT)) == spec_fingerprint(
            parse_ups(UPS_TEXT)
        )

    def test_fingerprint_is_hex_sha256(self):
        fp = spec_fingerprint(base_spec())
        assert len(fp) == 64
        int(fp, 16)

    def test_fingerprint_stable_across_processes(self, tmp_path):
        """The content address must not depend on process state (hash
        randomization, import order): a fresh interpreter computes the
        same digest."""
        ups = tmp_path / "fp.ups"
        ups.write_text(UPS_TEXT)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        script = (
            "import sys; from repro.ups import parse_ups, spec_fingerprint; "
            f"print(spec_fingerprint(parse_ups({str(ups)!r})))"
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        assert child.stdout.strip() == spec_fingerprint(base_spec())


def _mutations():
    """(name, mutator) pairs, each changing one result-affecting field."""

    def m(**kw):
        def apply(spec):
            for attr, value in kw.items():
                obj = spec.rmcrt if hasattr(spec.rmcrt, attr) else spec.grid
                setattr(obj, attr, value)
            return spec

        return apply

    return [
        ("rays", m(n_divq_rays=7)),
        ("threshold", m(threshold=1e-3 * 2)),
        ("halo", m(halo=3)),
        ("seed", m(random_seed=4)),
        ("resolution", m(resolution=24)),
        ("levels", m(levels=1)),
        ("refinement_ratio", m(refinement_ratio=3)),
        ("patch_size", m(patch_size=12)),
        ("allow_reflect", m(allow_reflect=True)),
        ("cc_rays", m(cc_rays=True)),
    ]


class TestSensitivity:
    @pytest.mark.parametrize("name,mutate", _mutations())
    def test_any_field_change_changes_fingerprint(self, name, mutate):
        assert spec_fingerprint(mutate(base_spec())) != spec_fingerprint(
            base_spec()
        ), f"fingerprint ignored {name}"

    def test_every_trace_option_and_the_seed_change_the_fingerprint(self):
        """Every field of the solvers' one options block is content: a
        field added to TraceOptions without a spec field digested here
        fails this test, while the scheduler is not content."""
        from dataclasses import fields

        from repro.core import TraceOptions

        def rmcrt(attr, value):
            return lambda spec: setattr(spec.rmcrt, attr, value)

        mutate = {
            "rays_per_cell": rmcrt("n_divq_rays", 7),
            "threshold": rmcrt("threshold", 2e-3),
            "halo": rmcrt("halo", 3),
            "reflections": rmcrt("allow_reflect", True),
            "centered_origins": rmcrt("cc_rays", True),
            "spectral": lambda spec: setattr(spec, "spectral", SpectralSpec()),
            "seed": rmcrt("random_seed", 4),
        }
        assert set(mutate) == {f.name for f in fields(TraceOptions)} | {"seed"}
        base = spec_fingerprint(base_spec())
        for option, apply in mutate.items():
            spec = base_spec()
            apply(spec)
            assert spec_fingerprint(spec) != base, f"fingerprint ignored {option}"
        rescheduled = base_spec()
        rescheduled.scheduler = SchedulerSpec(type="threaded", ranks=3, pool="locked", threads=2)
        assert spec_fingerprint(rescheduled) == base

    def test_scheduler_choice_does_not_change_fingerprint(self):
        """Execution strategy is not content: serial, threaded, and
        distributed runs of one spec are bit-identical (pinned by
        test_distributed_rmcrt), so they share a cache entry — gray,
        two-level spectral, or with reflections and cell-centred rays."""
        from repro.ups import run_ups

        spectral = base_spec()
        spectral.spectral = SpectralSpec(
            bands=3, temperature=1400.0, kappa_exponent=0.8, emissivity="tungsten"
        )
        reflect_cc = base_spec()
        reflect_cc.rmcrt.allow_reflect = reflect_cc.rmcrt.cc_rays = True
        for serial in (base_spec(), spectral, reflect_cc):
            distributed = copy.deepcopy(serial)
            distributed.scheduler = SchedulerSpec(
                type="distributed", ranks=4, pool="locked", threads=8
            )
            assert spec_fingerprint(serial) == spec_fingerprint(distributed)
            assert run_ups(serial).divq.tobytes() == run_ups(distributed).divq.tobytes()


class TestSceneKey:
    def test_param_changes_share_the_scene(self):
        """Rays/seed changes keep the scene key (same grid + properties
        -> same micro-batch), while the full fingerprint splits."""
        a, b = base_spec(), base_spec()
        b.rmcrt.n_divq_rays = 50
        b.rmcrt.random_seed = 99
        assert scene_fingerprint(a) == scene_fingerprint(b)
        assert spec_fingerprint(a) != spec_fingerprint(b)

    def test_resolution_changes_the_scene(self):
        a, b = base_spec(), base_spec()
        b.grid.resolution = 24
        assert scene_fingerprint(a) != scene_fingerprint(b)

    def test_request_carries_both_keys(self):
        from repro.service import SolveRequest

        request = SolveRequest(spec=base_spec())
        assert request.fingerprint == spec_fingerprint(base_spec())
        assert request.scene_key == scene_fingerprint(base_spec())


def gray_spec() -> ProblemSpec:
    """A single-level gray spec — the baseline the spectral variants
    must separate from."""
    spec = base_spec()
    spec.grid.levels = 1
    return spec


def spectral_spec(**kw) -> ProblemSpec:
    spec = gray_spec()
    params = dict(bands=3, temperature=1400.0, kappa_exponent=0.8,
                  emissivity="tungsten")
    params.update(kw)
    spec.spectral = SpectralSpec(**params)
    return spec


class TestSpectralSeparation:
    """The spectral block is result-affecting content: it must split
    both the full fingerprint (cache entries) and the scene key
    (per-band marching fields reshape the scene)."""

    def test_gray_vs_spectral_distinct(self):
        assert spec_fingerprint(gray_spec()) != spec_fingerprint(spectral_spec())
        assert scene_fingerprint(gray_spec()) != scene_fingerprint(spectral_spec())

    def test_gray_limit_spectral_does_not_collide_with_gray(self):
        """One full-spectrum band, no kappa shaping, identity
        emissivity is *numerically* the gray solve — but it runs the
        spectral code path, so it must still cache separately."""
        limit = spectral_spec(bands=1, kappa_exponent=0.0, emissivity="gray")
        assert spec_fingerprint(limit) != spec_fingerprint(gray_spec())

    def test_emissivity_tables_distinct(self):
        a = spectral_spec(emissivity="tungsten")
        b = spectral_spec(emissivity="steel")
        assert spec_fingerprint(a) != spec_fingerprint(b)
        assert scene_fingerprint(a) != scene_fingerprint(b)

    @pytest.mark.parametrize(
        "name,kw",
        [
            ("bands", dict(bands=4)),
            ("temperature", dict(temperature=1500.0)),
            ("kappa_exponent", dict(kappa_exponent=0.4)),
            ("band_edges", dict(band_edges_um=(0.0, 2.0, 6.0, float("inf")))),
        ],
    )
    def test_model_field_changes_split_the_fingerprint(self, name, kw):
        assert spec_fingerprint(spectral_spec(**kw)) != spec_fingerprint(
            spectral_spec()
        ), f"fingerprint ignored spectral {name}"

    def test_ray_params_still_share_the_spectral_scene(self):
        a, b = spectral_spec(), spectral_spec()
        b.rmcrt.n_divq_rays = 50
        b.rmcrt.random_seed = 99
        assert scene_fingerprint(a) == scene_fingerprint(b)
        assert spec_fingerprint(a) != spec_fingerprint(b)

    def test_ups_round_trip_preserves_fingerprint(self):
        spec = spectral_spec(band_edges_um=(0.0, 2.0, 6.0, float("inf")))
        assert spec_fingerprint(parse_ups(spec_to_ups(spec))) == spec_fingerprint(
            spec
        )

    def test_dict_round_trip_preserves_fingerprint(self):
        import json

        spec = spectral_spec(band_edges_um=(0.0, 2.0, 6.0, float("inf")))
        doc = json.loads(json.dumps(spec_to_dict(spec)))
        assert spec_fingerprint(spec_from_dict(doc)) == spec_fingerprint(spec)
