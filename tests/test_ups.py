"""Tests for the UPS input-file front end and the CLI."""

import numpy as np
import pytest

from repro.ups import GridSpec, ProblemSpec, parse_ups, run_ups
from repro.util.errors import ReproError

MINIMAL = """
<Uintah_specification>
  <Grid><resolution> 8 </resolution><levels> 1 </levels></Grid>
  <RMCRT><nDivQRays> 4 </nDivQRays></RMCRT>
</Uintah_specification>
"""

FULL = """
<Uintah_specification>
  <Grid>
    <resolution>16</resolution>
    <levels>2</levels>
    <refinement_ratio>4</refinement_ratio>
    <patch_size>8</patch_size>
  </Grid>
  <RMCRT>
    <nDivQRays>8</nDivQRays>
    <Threshold>0.001</Threshold>
    <halo>2</halo>
    <allowReflect>false</allowReflect>
    <CCRays>false</CCRays>
    <randomSeed>7</randomSeed>
  </RMCRT>
  <Scheduler type="distributed" ranks="2" pool="waitfree" threads="4"/>
</Uintah_specification>
"""


class TestParsing:
    def test_minimal(self):
        spec = parse_ups(MINIMAL)
        assert spec.grid.resolution == 8
        assert spec.grid.levels == 1
        assert spec.rmcrt.n_divq_rays == 4
        assert spec.scheduler.type == "serial"  # defaults

    def test_full(self):
        spec = parse_ups(FULL)
        assert spec.grid.patch_size == 8
        assert spec.rmcrt.threshold == 0.001
        assert spec.rmcrt.random_seed == 7
        assert spec.scheduler.type == "distributed"
        assert spec.scheduler.ranks == 2

    def test_file_path(self, tmp_path):
        p = tmp_path / "in.ups"
        p.write_text(MINIMAL)
        assert parse_ups(str(p)).grid.resolution == 8

    def test_wrong_root(self):
        with pytest.raises(ReproError):
            parse_ups("<Wrong><Grid/></Wrong>")

    def test_malformed_xml(self):
        with pytest.raises(ReproError):
            parse_ups("<Uintah_specification><Grid>")

    def test_unknown_section(self):
        with pytest.raises(ReproError):
            parse_ups("<Uintah_specification><Physics/></Uintah_specification>")

    def test_unknown_grid_tag(self):
        with pytest.raises(ReproError):
            parse_ups(
                "<Uintah_specification><Grid><cells>8</cells></Grid>"
                "</Uintah_specification>"
            )

    def test_unknown_rmcrt_tag(self):
        with pytest.raises(ReproError):
            parse_ups(
                "<Uintah_specification><RMCRT><rays>8</rays></RMCRT>"
                "</Uintah_specification>"
            )

    def test_unknown_scheduler_attr(self):
        with pytest.raises(ReproError):
            parse_ups(
                '<Uintah_specification><Scheduler type="serial" gpus="4"/>'
                "</Uintah_specification>"
            )

    def test_bad_bool(self):
        with pytest.raises(ReproError):
            parse_ups(
                "<Uintah_specification><RMCRT><CCRays>maybe</CCRays></RMCRT>"
                "</Uintah_specification>"
            )

    def test_validation_rules(self):
        with pytest.raises(ReproError):
            parse_ups(
                "<Uintah_specification><Grid><levels>3</levels></Grid>"
                "</Uintah_specification>"
            )
        with pytest.raises(ReproError):
            parse_ups(
                "<Uintah_specification><RMCRT><Threshold>2.0</Threshold>"
                "</RMCRT></Uintah_specification>"
            )
        with pytest.raises(ReproError):
            # distributed without patch size
            parse_ups(
                '<Uintah_specification><Scheduler type="distributed"/>'
                "</Uintah_specification>"
            )

    @pytest.mark.parametrize("ratio", [0, -2])
    @pytest.mark.parametrize("entry", ["parse_ups", "spec_from_dict", "run_ups"])
    def test_a_refinement_ratio_below_one_fails_typed(self, entry, ratio):
        """Not a ZeroDivisionError from the grid build, which no caller
        of a spec catches: every entry names the bad ratio."""
        from repro.ups import spec_from_dict, spec_to_dict

        text = FULL.replace("<refinement_ratio>4<", f"<refinement_ratio>{ratio}<")
        spec = parse_ups(FULL)
        spec.grid.refinement_ratio = ratio
        check = {
            "parse_ups": lambda: parse_ups(text),
            "spec_from_dict": lambda: spec_from_dict(spec_to_dict(spec)),
            "run_ups": lambda: run_ups(spec),
        }[entry]
        with pytest.raises(ReproError, match="refinement_ratio must be >= 1"):
            check()

    @pytest.mark.parametrize("tag,good,bad", [
        ("resolution", "<resolution>16<", "<resolution>sixteen<"),
        ("nDivQRays", "<nDivQRays>8<", "<nDivQRays>three<"),
        ("Threshold", "<Threshold>0.001<", "<Threshold>low<"),
        ("CCRays", "<CCRays>false<", "<CCRays>maybe<"),
        ("bands", "<bands>2<", "<bands>x<"),
        ("bandEdges", "<bandEdges>0 2 inf<", "<bandEdges>0 two inf<"),
        ("temperature", "<temperature>900<", "<temperature>hot<"),
        ("Scheduler ranks", 'ranks="2"', 'ranks="two"'),
        ("Scheduler threads", 'threads="4"', 'threads="4.5"'),
    ])
    def test_a_value_its_tag_cannot_convert_names_the_tag(self, tag, good, bad):
        """A typed error, not the ValueError of int() or float(), which
        no caller of a spec catches."""
        text = FULL.replace(
            "</RMCRT>",
            "</RMCRT><Spectral><bands>2</bands><bandEdges>0 2 inf</bandEdges>"
            "<temperature>900</temperature></Spectral>",
        )
        assert good in text and parse_ups(text).spectral.bands == 2
        with pytest.raises(ReproError, match=f"^<{tag}[ >=].* expects "):
            parse_ups(text.replace(good, bad))

    @pytest.mark.parametrize("field,value", [
        ("n_divq_rays", "three"), ("threshold", "low"), ("cc_rays", "maybe"),
        ("random_seed", 1.5), ("halo", None),
    ])
    def test_an_ill_typed_dict_field_fails_typed(self, field, value):
        from repro.ups import spec_from_dict, spec_to_dict

        doc = spec_to_dict(parse_ups(FULL))
        doc["rmcrt"][field] = value
        with pytest.raises(ReproError, match="expects"):
            spec_from_dict(doc)

    @pytest.mark.parametrize("tag,field,value", [
        ("randomSeed", "random_seed", 7), ("halo", "halo", 2),
    ])
    @pytest.mark.parametrize("entry", ["parse_ups", "spec_from_dict", "run_ups"])
    def test_a_negative_seed_or_halo_fails_typed_before_any_solve(
        self, entry, tag, field, value, monkeypatch
    ):
        """Not an error from SeedSequence or from the scheduler at solve
        time, which differed by path: every entry names the value."""
        import repro.ups as ups

        def no_solve(spec):
            raise AssertionError("a refused spec reached its solve")

        monkeypatch.setattr(ups, "prepare_scene", no_solve)
        spec = parse_ups(FULL)
        setattr(spec.rmcrt, field, -1)
        check = {
            "parse_ups": lambda: parse_ups(FULL.replace(f"<{tag}>{value}<", f"<{tag}>-1<")),
            "spec_from_dict": lambda: ups.spec_from_dict(ups.spec_to_dict(spec)),
            "run_ups": lambda: ups.run_ups(spec),
        }[entry]
        with pytest.raises(ReproError, match=f"^{tag} must be >= 0"):
            check()

    @pytest.mark.parametrize("attr,value", [
        ("ranks", "0"), ("ranks", "-2"), ("threads", "0"),
        ("pool", "bogus"), ("pool", "legacy-racy"),
    ])
    @pytest.mark.parametrize("entry", ["parse_ups", "run_ups"])
    def test_a_bad_scheduler_attribute_fails_typed_before_any_solve(
        self, entry, attr, value, monkeypatch
    ):
        """Not a GridError, SchedulerError or CommError from inside the
        solve, after a spool has accepted the request; and the racy demo
        pool never runs a solve cached beside a safe one."""
        import re

        import repro.ups as ups

        def no_solve(spec):
            raise AssertionError("a refused spec reached its solve")

        monkeypatch.setattr(ups, "prepare_scene", no_solve)
        spec = parse_ups(FULL)
        setattr(spec.scheduler, attr, int(value) if attr != "pool" else value)
        check = {
            "parse_ups": lambda: parse_ups(re.sub(f'{attr}="[^"]*"', f'{attr}="{value}"', FULL)),
            "run_ups": lambda: run_ups(spec),
        }[entry]
        with pytest.raises(ReproError, match=f"^<Scheduler {attr}=\\.\\.\\.> must be ") as err:
            check()
        assert str(err.value).endswith(f"got {value}" if attr != "pool" else f"got {value!r}")

    @pytest.mark.parametrize("block,match", [
        ("<kappaExponent>nan</kappaExponent>", "kappaExponent must be finite"),
        ("<bands>2</bands><bandEdges>nan 1 2</bandEdges>", "bandEdges must be numbers"),
        ("<bandEdges>0 nan 5 inf</bandEdges>", "bandEdges must be numbers"),
        ("<temperature>nan</temperature>", "temperature must be positive and finite"),
    ], ids=["kappaExponent", "first-edge", "inner-edge", "temperature"])
    def test_a_non_finite_spectral_value_fails_at_parse(self, block, match, monkeypatch):
        """Refused before the model build: an all-NaN divq would be
        cached and published, and a NaN edge would read as 0."""
        import repro.ups as ups

        def no_build(sp):
            raise AssertionError("validation built the spectral model")

        monkeypatch.setattr(ups, "spectral_model", no_build)
        with pytest.raises(ReproError, match=f"^<Spectral> {match}"):
            parse_ups(FULL.replace("</RMCRT>", f"</RMCRT><Spectral>{block}</Spectral>"))

    def test_spectral_reflections_and_cc_rays_run_on_every_path(self):
        """One trace serves every scheduler and level count: only
        band-resolved reflections are still refused."""
        spectral = FULL.replace(
            "</RMCRT>", "</RMCRT><Spectral><bands>3</bands></Spectral>"
        )
        assert parse_ups(spectral).spectral.bands == 3
        reflect_cc = FULL.replace(
            "<allowReflect>false", "<allowReflect>true"
        ).replace("<CCRays>false", "<CCRays>true")
        assert parse_ups(reflect_cc).rmcrt.cc_rays
        with pytest.raises(ReproError, match="band-resolved reflections"):
            parse_ups(reflect_cc.replace(
                "</RMCRT>", "</RMCRT><Spectral><bands>3</bands></Spectral>"
            ))


class TestRun:
    def test_serial_single_level(self):
        result = run_ups(parse_ups(MINIMAL))
        assert result.divq.shape == (8, 8, 8)
        assert (result.divq > 0).all()

    def test_distributed_matches_serial_pipeline(self):
        spec = parse_ups(FULL)
        dist = run_ups(spec)
        serial_spec = parse_ups(FULL)
        serial_spec.scheduler.type = "threaded"
        thr = run_ups(serial_spec)
        np.testing.assert_array_equal(dist.divq, thr.divq)

    def test_spectral_model_built_once_per_spec(self, monkeypatch):
        """A spec's spectral model is built once and shared read-only by
        every later solve and fingerprint of an equal spec."""
        from repro.radiation.spectral.model import SpectralModel
        from repro.ups import SpectralSpec, spec_fingerprint, spectral_model

        builds = []
        build = SpectralModel.build.__func__
        monkeypatch.setattr(SpectralModel, "build", classmethod(
            lambda cls, **kw: builds.append(kw) or build(cls, **kw)))
        # a temperature no other test uses, so the cache starts cold
        spec = parse_ups(MINIMAL)
        spec.spectral = SpectralSpec(bands=3, temperature=1234.5)
        first = run_ups(spec)
        spec.spectral = SpectralSpec(bands=3, temperature=1234.5)
        second = run_ups(spec)
        spec_fingerprint(spec)
        assert len(builds) == 1
        np.testing.assert_array_equal(first.divq, second.divq)
        with pytest.raises(ValueError):  # read-only: no solve can change it
            spectral_model(spec.spectral).kappa_scales[0] = 2.0

    def test_cli_end_to_end(self, tmp_path, capsys):
        from repro.__main__ import main

        p = tmp_path / "in.ups"
        p.write_text(MINIMAL)
        assert main([str(p), "--centerline"]) == 0
        out = capsys.readouterr().out
        assert "rays traced" in out
        assert "divQ" in out

    def test_cli_error_path(self, tmp_path, capsys):
        from repro.__main__ import main

        p = tmp_path / "bad.ups"
        p.write_text("<nope/>")
        assert main([str(p)]) == 1
        assert "error:" in capsys.readouterr().err
