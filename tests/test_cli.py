"""Runner tests: config parsing, artifacts, determinism, and the SVG renderer.

Oracles: direct library calls compared against CSV contents, byte
comparison of repeated runs, and exact error/exit-code contracts, which
generated configs with edge values must keep too.
"""

import contextlib
import io
import math
import re
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubelab.cli import (
    KINDS,
    ExperimentConfig,
    UsageError,
    config_text,
    generate_config,
    main,
    parse_config,
    replot,
    run,
    split_sections,
)
from tubelab import maximal, setgen
from tubelab.domains import affine_dim_estimate, gcs_domain
from tubelab.setgen import PRESETS, build_moran, moran_spec_from_config
from tubelab.svg import svg_loglog

S_LOG23 = math.log(2) / math.log(3)


class TestSvgRenderer:
    def test_structure(self):
        text = svg_loglog([(0.25, 4.0), (0.125, 8.0), (0.0625, 16.0)], title="demo")
        assert text.startswith("<svg ") and text.endswith("</svg>")
        assert text.count("<circle") == 3
        assert "fitted slope = 1" in text
        assert "demo" in text and "log2(1/delta)" in text

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            svg_loglog([(0.5, 1.0)])

    def test_positive_values_required(self):
        with pytest.raises(ValueError, match="positive"):
            svg_loglog([(0.5, 1.0), (0.25, -2.0)])

    def test_distinct_deltas_required(self):
        with pytest.raises(ValueError, match="distinct"):
            svg_loglog([(0.5, 1.0), (0.5, 2.0)])

    def test_constant_values_still_render(self):
        text = svg_loglog([(0.5, 3.0), (0.25, 3.0)])
        assert "fitted slope = 0" in text


class TestConfigParsing:
    def test_sections_split(self):
        s = split_sections("a = 1\n[moran]\nn = 2\n[experiment]\nkind = dims\n")
        assert s[""] == "a = 1"
        assert s["moran"] == "n = 2"
        assert s["experiment"] == "kind = dims"

    def test_missing_kind(self):
        with pytest.raises(UsageError, match="kind"):
            parse_config("[experiment]\ndeltas = 1/4\n")

    def test_unknown_kind(self):
        with pytest.raises(UsageError, match="unknown kind"):
            parse_config("[experiment]\nkind = quux\ndeltas = 1/4\n")

    def test_empty_deltas(self):
        with pytest.raises(UsageError, match="empty"):
            parse_config("[experiment]\nkind = dims\n")

    def test_non_dyadic_delta(self):
        with pytest.raises(UsageError, match="dyadic"):
            parse_config("[experiment]\nkind = dims\ndeltas = 1/6\n")
        with pytest.raises(UsageError, match="dyadic"):
            parse_config("[experiment]\nkind = dims\ndeltas = 3/8\n")

    def test_p_required_for_operators(self):
        with pytest.raises(UsageError, match="needs a nonempty p"):
            parse_config("[experiment]\nkind = nikodym\ndeltas = 1/32\n")

    def test_r_required_for_incidence(self):
        with pytest.raises(UsageError, match="nonempty r"):
            parse_config("[experiment]\nkind = incidence\ndeltas = 1/256\n")

    def test_unknown_preset(self):
        with pytest.raises(UsageError, match="unknown preset"):
            parse_config("[experiment]\nkind = dims\ndeltas = 1/4\npreset = nope\n")

    def test_delta_range_forms(self):
        cfg = parse_config(
            "[experiment]\nkind = domain\ndelta_min_exp = 8\ndelta_max_exp = 12\ndelta_step = 2\n"
        )
        assert cfg.deltas == [F(1, 256), F(1, 1024), F(1, 4096)]
        cfg = parse_config("[experiment]\nkind = energy\ndelta_exps = 12, 20\n")
        assert cfg.deltas == [F(1, 1 << 12), F(1, 1 << 20)]
        cfg = parse_config("[experiment]\nkind = energy\ndelta_exps = 20, 12\n")
        assert cfg.deltas == [F(1, 1 << 20), F(1, 1 << 12)]  # in the order given
        with pytest.raises(UsageError, match="delta_step"):
            parse_config(
                "[experiment]\nkind = domain\ndelta_min_exp = 12\ndelta_max_exp = 8\n"
            )

    def test_partial_or_mixed_delta_forms_rejected(self):
        base = "[experiment]\nkind = dims\n"
        cases = {
            "delta_min_exp = 3\ndeltas = 1/4\n": "go together",
            "delta_max_exp = 3\n": "go together",
            "delta_step = 2\ndelta_exps = 3, 5\n": "delta_step needs",
            "delta_step = 2\n": "delta_step needs",
            "delta_min_exp = 2\ndelta_max_exp = 3\ndeltas = 1/4\n": "one way",
            "delta_exps = 3\ndeltas = 1/4\n": "one way",
        }
        for text, msg in cases.items():
            with pytest.raises(UsageError, match=msg):
                parse_config(base + text)

    def test_headerless_keyvals_accepted(self):
        cfg = parse_config("kind = dims\ndeltas = 1/4\ndepth = 3\n")
        assert cfg.kind == "dims" and cfg.depth == 3

    def test_roundtrip_through_canonical_text(self):
        cfg = parse_config(
            "[experiment]\nkind = nikodym\ndeltas = 1/32, 1/64\np = 1, 2\n"
            "s = 0.63\n"
        )
        again = parse_config(config_text(cfg))
        assert again == cfg

    def test_inline_moran_block(self):
        cfg = parse_config(
            "[experiment]\nkind = dims\ndeltas = 1/4\ndepth = 2\n"
            "[moran]\nn = 2\nc = 1/4\noffsets = 0, 3/4\n"
        )
        ms = cfg.moran()
        assert ms.interval_count(2) == 4
        assert ms.length(2) == F(1, 16)

    def test_unknown_moran_key_rejected(self, tmp_path, capsys):
        cases = [
            ("n = 2^k\nc = 2^-3k\noffsets = searched\nsede = 5\nlabl = x\n", "labl, sede"),
            # [moran] has no label key either: naming one is an error, not a silent no-op
            ("n = 2\nc = 1/4\noffsets = 0, 3/4\nlabel = x\n", "label"),
        ]
        for block, keys in cases:
            text = f"[experiment]\nkind = dims\ndeltas = 1/4\ndepth = 2\n[moran]\n{block}"
            with pytest.raises(UsageError, match=rf"^unknown \[moran\] key\(s\): {keys}$"):
                parse_config(text)
            (tmp_path / "c.cfg").write_text(text)
            assert main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr() == ("", f"error: unknown [moran] key(s): {keys}\n")
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("block, msg", [
        ("n = 2\noffsets = 0, 3/4\n", "config missing 'c'"),
        ("c = 1/4\n", "config missing 'n'"),
        ("n = 2\nc = x\n", "Invalid literal for Fraction: 'x'"),
        ("n = 2\nc = 1/0\n", "[moran] c = 1/0 divides by zero"),
        ("n = 2\nc = 0^-2\n", "[moran] c = 0^-2 divides by zero"),
        ("n = 2\nc = 1/4, 1/0\n", "[moran] c = 1/4, 1/0 divides by zero"),
        ("n = 1/0\nc = 1/4\n", "[moran] n = 1/0 divides by zero"),
        ("n = 2\nc = 1/4\noffsets = 0, 1/0\n", "[moran] offsets = 0, 1/0 divides by zero"),
        ("n = 2\nc = 1/4\noffsets = 0, y\n", "Invalid literal for Fraction: 'y'"),
        ("n = 8\nc = 8^-3\noffsets = searched\nbudget = lots\n", "invalid literal for int() with base 10: 'lots'"),
    ])
    def test_moran_value_errors_are_usage_errors(self, block, msg, tmp_path, capsys):
        # the [moran] block is built when the config is read, for each kind
        # that reads one; only a level's errors wait for the run
        for kind in CONSTRUCTION_KINDS:
            text = f"[experiment]\nkind = {kind}\ndeltas = 1/4\n\n[moran]\n{block}"
            with pytest.raises(UsageError, match=re.escape(msg)):
                parse_config(text)
            (tmp_path / "c.cfg").write_text(text)
            assert main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "o")]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and msg in err and err.count("\n") == 1
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("block, msg", [
        ("n = 2\nc = 0^-k\n", "rule '0^-k' raises 0 to a negative power"),
        ("n = 0^-2k\nc = 1/4\n", "rule '0^-2k' raises 0 to a negative power"),
        ("n = 2\nc = 1/4\noffsets = even\nm = x\n", "[moran] key(s) read only by offsets = searched: m"),
        ("n = 2\nc = 1/4\noffsets = 0, 3/4\nseed = 1\nbudget = 5\n",
         "[moran] key(s) read only by offsets = searched: budget, seed"),
        ("n = 2\nc = 1/4\nm = 2\n", "[moran] key(s) read only by offsets = searched: m"),
    ])
    def test_moran_rule_and_layout_key_refused(self, block, msg, tmp_path, capsys):
        # 0^-k would divide by zero at every level, and m, budget and seed
        # set only a searched layout: both are refused when the config is read
        text = f"[experiment]\nkind = dims\ndeltas = 1/4\ndepth = 3\n\n[moran]\n{block}"
        with pytest.raises(UsageError, match=f"^{re.escape(msg)}$"):
            parse_config(text)
        (tmp_path / "c.cfg").write_text(text)
        assert main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr() == ("", f"error: {msg}\n")
        assert not (tmp_path / "o").exists()


KIND_NAMES = ["incidence", "nikodym", "kakeya", "dims", "domain", "energy", "dualsum"]
# the [experiment] keys each kind reads besides the sweep, and a non-default
# value for every key
READS = {
    "incidence": {"s", "r"},
    "nikodym": {"s", "p"},
    "kakeya": {"s", "p"},
    "dims": {"preset", "depth", "gamma"},
    "domain": {"preset", "depth", "eta"},
    "energy": {"preset", "depth", "m", "eta"},
    "dualsum": {"s", "p"},
}
VALUES = {"p": "1.5", "r": "16", "s": "0.6", "m": "2", "gamma": "0.3", "eta": "0.1",
          "preset": "doubling", "depth": "3"}
RETIRED = {"max_cells": "1000000"}  # removed keys, unknown to every kind
MORAN_BLOCK = "n = 2\nc = 1/4\noffsets = 0, 3/4"
CONSTRUCTION_KINDS = ("dims", "domain", "energy")


def _kind_config(kind, key=None):
    """A minimal valid config of kind, plus a 'key = value' line from VALUES or RETIRED."""
    required = {"nikodym": "p", "kakeya": "p", "incidence": "r"}.get(kind)
    lines = [f"kind = {kind}", "deltas = 1/32"]
    if required and required != key:
        lines.append(f"{required} = 2")
    if key:
        lines.append(f"{key} = {(VALUES | RETIRED)[key]}")
    return "[experiment]\n" + "\n".join(lines) + "\n"


class TestKindKeys:
    """Each kind reads only its own keys: the rest are rejected, and the
    canonical text carries exactly the ones it reads."""

    @pytest.mark.parametrize("key", sorted(VALUES) + sorted(RETIRED))
    @pytest.mark.parametrize("kind", KIND_NAMES)
    def test_key_read_or_rejected(self, kind, key):
        text = _kind_config(kind, key)
        if key in RETIRED:
            with pytest.raises(UsageError, match=rf"^unknown \[experiment\] key\(s\): {key}$"):
                parse_config(text)
            return
        if key not in READS[kind]:
            with pytest.raises(
                UsageError, match=rf"^kind '{kind}' does not read \[experiment\] key\(s\): {key}$"
            ):
                parse_config(text)
            return
        cfg = parse_config(text)
        assert getattr(cfg, key) != getattr(ExperimentConfig(kind, []), key)
        canon = config_text(cfg)
        assert f"\n{key} = " in canon
        assert parse_config(canon) == cfg

    @pytest.mark.parametrize("kind", KIND_NAMES)
    def test_moran_block_read_or_rejected(self, kind):
        text = _kind_config(kind) + "\n[moran]\n" + MORAN_BLOCK + "\n"
        if kind not in CONSTRUCTION_KINDS:
            with pytest.raises(UsageError, match=rf"^kind '{kind}' does not read a \[moran\] block$"):
                parse_config(text)
            return
        cfg = parse_config(text)
        assert cfg.moran_text == MORAN_BLOCK
        assert parse_config(config_text(cfg)) == cfg

    @pytest.mark.parametrize("kind", KIND_NAMES)
    def test_canonical_text_holds_only_read_keys(self, kind):
        cfg = parse_config(_kind_config(kind))
        keys = [ln.split(" = ")[0] for ln in config_text(cfg).splitlines()[1:]]
        assert keys[:2] == ["kind", "deltas"]
        # dualsum's p is optional and absent here; every other read key is written
        assert set(keys[2:]) == READS[kind] - ({"p"} if kind == "dualsum" else set())

    def test_several_unread_keys_named_sorted(self):
        with pytest.raises(UsageError, match=r"'nikodym' does not read \[experiment\] key\(s\): depth, m, preset$"):
            parse_config(_kind_config("nikodym") + "preset = doubling\nm = 2\ndepth = 3\n")

    def test_unread_setting_on_config_object_rejected(self):
        with pytest.raises(UsageError, match=r"'nikodym' does not read \[experiment\] key\(s\): preset"):
            ExperimentConfig("nikodym", [F(1, 32)], p=[2.0], preset="doubling").validate()
        with pytest.raises(UsageError, match=r"'kakeya' does not read a \[moran\] block"):
            ExperimentConfig("kakeya", [F(1, 32)], p=[2.0], moran_text=MORAN_BLOCK).validate()

    def test_dualsum_reads_one_p(self, tmp_path, capsys):
        assert parse_config(_kind_config("dualsum", "p")).p == [1.5]
        (tmp_path / "c.cfg").write_text(_kind_config("dualsum") + "p = 1.5, 2\n")
        rc = main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error: kind 'dualsum' reads one p" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestGen:
    @pytest.mark.parametrize(
        "kind", ["incidence", "nikodym", "kakeya", "dims", "domain", "energy", "dualsum"]
    )
    def test_generated_configs_parse(self, kind, tmp_path):
        rc = main(["gen", kind, "--out", str(tmp_path / "c.cfg")])
        assert rc == 0
        cfg = parse_config((tmp_path / "c.cfg").read_text())
        assert cfg.kind == kind

    def test_overrides(self, tmp_path):
        out = tmp_path / "c.cfg"
        main(
            ["gen", "domain", "--out", str(out), "--preset", "middle-thirds",
             "--depth", "6", "--delta-min-exp", "8", "--delta-max-exp", "12"]
        )
        cfg = parse_config(out.read_text())
        assert cfg.preset == "middle-thirds" and cfg.depth == 6
        assert cfg.deltas[0] == F(1, 256) and cfg.deltas[-1] == F(1, 4096)

    def test_unknown_kind_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["gen", "quux", "--out", str(tmp_path / "c.cfg")])
        assert e.value.code == 2

    @pytest.mark.parametrize(
        "kind, flags, key",
        [("incidence", ["--preset", "doubling"], "preset"),
         ("nikodym", ["--depth", "6"], "depth"),
         ("dualsum", ["--preset", "middle-thirds"], "preset")],
    )
    def test_construction_flags_only_for_construction_kinds(self, kind, flags, key, tmp_path, capsys):
        out = tmp_path / "c.cfg"
        assert main(["gen", kind, "--out", str(out), *flags]) == 2
        assert f"error: kind '{kind}' does not read [experiment] key(s): {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, msg", [
        (["--depth", "0"], "depth must be >= 1"),
        (["--preset", ""], "unknown preset ''; known: middle-thirds, constant-branch-8, doubling"),
    ])
    def test_given_construction_flag_is_checked(self, flags, msg, tmp_path, capsys):
        # a flag given as 0 or '' replaces the default line like any other
        # value, and the self-check refuses it
        out = tmp_path / "c.cfg"
        assert main(["gen", "domain", "--out", str(out), *flags]) == 2
        assert capsys.readouterr() == ("", f"error: {msg}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--delta-min-exp", "6", "--delta-max-exp", "7"],
                                       ["--delta-max-exp", "30"]])
    def test_energy_range_flags_rejected(self, flags, tmp_path, capsys):
        # energy's generated sweep is a delta_exps list, which the range flags cannot move
        out = tmp_path / "c.cfg"
        assert main(["gen", "energy", "--out", str(out), *flags]) == 2
        assert "delta_exps" in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    def test_dims_column_constant(self, tmp_path):
        cfg = parse_config(
            "[experiment]\nkind = dims\ndeltas = 1/4\npreset = middle-thirds\ndepth = 5\n"
        )
        art = run(cfg, tmp_path / "out")
        lines = art.csv_path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "scale,depth,intervals,box_dim_ratio,qa_profile,gamma"
        ratios = {ln.split(",")[3] for ln in lines[1:]}
        assert len(lines) == 6
        assert ratios == {f"{S_LOG23:.12g}"}

    def test_domain_beta_matches_library(self, tmp_path):
        cfg = parse_config(
            "[experiment]\nkind = domain\ndelta_min_exp = 8\ndelta_max_exp = 16\n"
            "delta_step = 2\npreset = doubling\ndepth = 4\n"
        )
        art = run(cfg, tmp_path / "out")
        lines = art.csv_path.read_text().strip().splitlines()
        beta_csv = float(lines[1].split(",")[-1])
        dom = gcs_domain(build_moran(moran_spec_from_config(PRESETS["doubling"]), 4))
        want = affine_dim_estimate(dom, cfg.deltas).beta
        assert beta_csv == pytest.approx(want, rel=1e-10)
        svg = (tmp_path / "out" / "domain.svg").read_text()
        assert "fitted slope" in svg

    def test_incidence_ratio_floor(self, tmp_path):
        cfg = parse_config(
            "[experiment]\nkind = incidence\ndeltas = 1/256\nr = 4, 16\ns = 0.5\n"
        )
        art = run(cfg, tmp_path / "out")
        rows = art.csv_path.read_text().strip().splitlines()[1:]
        assert len(rows) == 2
        assert all(float(r.split(",")[-1]) >= 1 / 64 for r in rows)

    def test_manifest_rerun_byte_identical(self, tmp_path):
        argv = lambda out: [
            "run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / out)
        ]  # noqa: E731
        (tmp_path / "c.cfg").write_text(
            "[experiment]\nkind = energy\ndelta_exps = 12, 16, 20\npreset = doubling\ndepth = 4\n"
        )
        assert main(argv("a")) == 0
        assert main(
            ["run", "--spec", str(tmp_path / "a" / "manifest.txt"), "--out", str(tmp_path / "b")]
        ) == 0
        for name in ("energy.csv", "energy.svg", "manifest.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("fail_at", [0, 1, 2], ids=["csv", "svg", "manifest"])
    def test_failed_write_keeps_earlier_artifact(self, tmp_path, monkeypatch, fail_at):
        # a rerun whose fail_at-th write stops half-way leaves that file as
        # the earlier run wrote it, and no temporary file beside it
        spec = "[experiment]\nkind = dims\ndeltas = 1/4\npreset = middle-thirds\ndepth = {}\n"
        out = tmp_path / "out"
        run(parse_config(spec.format(3)), out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        write_text, calls = Path.write_text, []

        def half_write(path, text, *args, **kwargs):
            calls.append(path)
            if len(calls) <= fail_at:
                return write_text(path, text, *args, **kwargs)
            write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", half_write)
        with pytest.raises(OSError, match="disk full"):
            run(parse_config(spec.format(4)), out)
        monkeypatch.undo()
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(after) == sorted(before) == ["dims.csv", "dims.svg", "manifest.txt"]
        failed = sorted(before)[fail_at]
        assert calls[-1].parent == out and calls[-1].name != failed
        assert after[failed] == before[failed]
        # the writes before the failed one replaced their files whole
        fresh = run(parse_config(spec.format(4)), tmp_path / "fresh").out_dir
        for name in sorted(before)[:fail_at]:
            assert after[name] == (fresh / name).read_bytes()

    @pytest.mark.parametrize("command", ["gen", "plot"])
    def test_failed_gen_or_plot_write_keeps_earlier_file(self, tmp_path, monkeypatch, command):
        # gen and plot write through the same temporary-file replace as run
        csv = tmp_path / "t.csv"
        csv.write_text("delta,ratio\n0.25,2\n0.125,4\n")
        argv = {
            "gen": ["gen", "dims", "--out", str(tmp_path / "out" / "c.cfg")],
            "plot": ["plot", "--spec", str(csv), "--out", str(tmp_path / "out")],
        }[command]
        (tmp_path / "out").mkdir()
        assert main(argv) == 0
        (target,) = (tmp_path / "out").iterdir()
        before = target.read_bytes()
        write_text = Path.write_text

        def half_write(path, text, *args, **kwargs):
            write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", half_write)
        with pytest.raises(OSError, match="disk full"):
            main(argv)
        monkeypatch.undo()
        assert list((tmp_path / "out").iterdir()) == [target]
        assert target.read_bytes() == before

    def test_lone_delta_exp_override_rejected(self, tmp_path, capsys):
        (tmp_path / "c.cfg").write_text(
            "[experiment]\nkind = dualsum\ndelta_min_exp = 5\ndelta_max_exp = 9\ns = 0.63\n"
        )
        for flag in ("--delta-min-exp", "--delta-max-exp"):
            rc = main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "o"),
                       flag, "3"])
            assert rc == 2
            assert "error: --delta-min-exp and --delta-max-exp" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind,exp", [("domain", 8), ("energy", 12), ("dualsum", 6)])
    def test_single_scale_run_writes_csv_and_manifest(self, kind, exp, tmp_path, capsys):
        # one scale has no slope to plot: the run writes its CSV row and its
        # manifest, and no SVG
        cfg = tmp_path / "c.cfg"
        assert main(["gen", kind, "--out", str(cfg)]) == 0
        out = tmp_path / "out"
        rc = main(["run", "--spec", str(cfg), "--out", str(out),
                   "--delta-min-exp", str(exp), "--delta-max-exp", str(exp)])
        assert rc == 0
        assert "FAIL" not in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == sorted([f"{kind}.csv", "manifest.txt"])
        rows = (out / f"{kind}.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 1 and rows[0].startswith(f"{2.0 ** -exp:.12g},")

    def test_domain_run_with_two_listed_levels(self, tmp_path, capsys):
        # the spec lists two contractions; K(2^-8) = 2 must not ask for c_3
        (tmp_path / "c.cfg").write_text(
            "[experiment]\nkind = domain\ndelta_min_exp = 7\ndelta_max_exp = 8\ndepth = 2\n\n"
            "[moran]\nn = 2, 2\nc = 1/4, 1/4\noffsets = 0, 3/4\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(out)]) == 0
        assert "FAIL" not in capsys.readouterr().out
        rows = (out / "domain.csv").read_text().strip().splitlines()[1:]
        assert [r.split(",")[2:6] for r in rows] == [["1", "2", "8", "4"], ["2", "4", "8", "5.65685424949"]]
        assert (out / "manifest.txt").exists()

    def test_generated_incidence_config_runs(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        assert main(["gen", "incidence", "--out", str(cfg)]) == 0
        assert main(["run", "--spec", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert "FAIL" not in capsys.readouterr().out
        rows = (tmp_path / "out" / "incidence.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 9  # 2^-10..2^-12 times r = 4, 16, 64

    def test_grid_cap_failure_row(self, tmp_path, capsys):
        # the operator pass refuses 2^-13 before it allocates a (2^13)^2 grid
        (tmp_path / "c.cfg").write_text("[experiment]\nkind = kakeya\ndeltas = 1/8192\np = 2\n")
        rc = main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().out == (
            "FAIL,kakeya,delta 1/8192: a 8192x8192 grid would exceed 16777216 cells\n"
        )

    def test_nikodym_grid_cap_failure_row(self, tmp_path, capsys):
        (tmp_path / "c.cfg").write_text("[experiment]\nkind = nikodym\ndeltas = 1/8192\np = 2\n")
        rc = main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().out == (
            "FAIL,nikodym,delta 1/8192: a 8192x8192 grid would exceed 16777216 cells\n"
        )

    @pytest.mark.parametrize("kind", ["nikodym", "kakeya", "dualsum"])
    def test_cantor_slope_cap_failure_row(self, tmp_path, capsys, monkeypatch, kind):
        # the Cantor set is refused before it is built, and before the
        # operator's own guard: 2^9 slopes at s = 1, 2^-9 exceed a 2^8 cap
        monkeypatch.setattr(maximal, "_MAX_GRID_CELLS", 1 << 8)  # read at call time
        (tmp_path / "c.cfg").write_text(f"[experiment]\nkind = {kind}\ndeltas = 1/512\np = 2\ns = 1\n")
        rc = main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().out == f"FAIL,{kind},delta 1/512: 512 Cantor slopes would exceed 256\n"

    def test_dualsum_grid_cap_failure_row(self, tmp_path, capsys, monkeypatch):
        # the dual sum's guard bounds its multiplicity histogram: 409 entries
        # at 2^-5, 1413 at 2^-6 for s = 1/2
        monkeypatch.setattr(maximal, "_MAX_GRID_CELLS", 1024)  # read at call time
        (tmp_path / "c.cfg").write_text("[experiment]\nkind = dualsum\ndeltas = 1/32, 1/64\ns = 0.5\n")
        rc = main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().out == (
            "FAIL,dualsum,delta 1/64: a multiplicity histogram of up to 1413 entries would exceed 1024\n"
        )

    def test_dualsum_refused_before_column_walk(self, tmp_path, capsys):
        # 8 Cantor slopes at s = 0.1, 2^-30: refused by n alone, at once
        (tmp_path / "c.cfg").write_text("[experiment]\nkind = dualsum\ndeltas = 1/1073741824\ns = 0.1\n")
        rc = main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().out == (
            "FAIL,dualsum,delta 1/1073741824: a multiplicity histogram of at least 1431655769 "
            "entries would exceed 16777216\n"
        )

    def test_domain_depth_failure_row(self, tmp_path, capsys):
        # K(2^-18) = 2 for the doubling preset, one level past the built depth
        (tmp_path / "c.cfg").write_text(
            "[experiment]\nkind = domain\ndeltas = 1/262144\npreset = doubling\ndepth = 1\n"
        )
        rc = main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().out == "FAIL,domain,built depth 1 is insufficient: K(delta) = 2\n"

    @pytest.mark.parametrize("kind, extra", [("dualsum", ""), ("dualsum", "p = 2\n"), ("nikodym", "p = 2\n")])
    def test_zero_s_failure_row(self, tmp_path, capsys, kind, extra):
        # the Cantor set refuses s before dualsum's default p' = 1 + 1/s divides by it
        (tmp_path / "c.cfg").write_text(f"[experiment]\nkind = {kind}\ndeltas = 1/32\ns = 0\n{extra}")
        rc = main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr() == (f"FAIL,{kind},s must lie in (0, 1]\n", "")

    def test_moran_child_count_failure_row(self, tmp_path, capsys):
        # n_k is checked before the 'even' layout divides by n_k - 1
        (tmp_path / "c.cfg").write_text(
            "[experiment]\nkind = dims\ndeltas = 1/256\ndepth = 2\n\n[moran]\nn = 1\nc = 1/3\n"
        )
        rc = main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().out == "FAIL,dims,level 1: need n_k >= 2, got 1\n"

    def test_energy_fallback_overflow_failure_row(self, tmp_path, capsys, monkeypatch):
        # every fold overflows, so the chord classes fall back to the product
        # bound, whose own gap fold overflows too: that is a FAIL row
        monkeypatch.setattr(setgen, "_FOLD_CAP", 1)
        (tmp_path / "c.cfg").write_text(
            "[experiment]\nkind = energy\ndeltas = 1/1048576\npreset = doubling\ndepth = 4\nm = 3\n"
        )
        rc = main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "out")])
        assert rc == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL,energy,") and out.endswith("per-level product bound\n")

    def test_incidence_threshold_failure_row(self, tmp_path, capsys):
        # incidence has no scale guard: its counts stream in blocks
        (tmp_path / "c.cfg").write_text("[experiment]\nkind = incidence\ndeltas = 1/32\nr = 64\n")
        rc = main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().out == "FAIL,incidence,r = 64 exceeds 2 * delta^-s = 11.3\n"

    def test_missing_spec_usage_error(self, tmp_path, capsys):
        rc = main(["run", "--spec", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "no such config" in capsys.readouterr().err


class TestReplot:
    def test_roundtrip(self, tmp_path):
        csv = tmp_path / "t.csv"
        csv.write_text("delta,ratio\n0.25,2\n0.125,4\n0.0625,8\n")
        target = replot(csv, "ratio", tmp_path / "plots")
        text = target.read_text()
        assert "fitted slope = 1" in text and target.name == "t_ratio.svg"

    def test_missing_column(self, tmp_path):
        csv = tmp_path / "t.csv"
        csv.write_text("delta,x\n0.25,1\n")
        with pytest.raises(UsageError, match="'ratio'"):
            replot(csv, "ratio", tmp_path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="no such CSV"):
            replot(tmp_path / "nope.csv", "ratio", tmp_path)

    def test_cli_exit_codes(self, tmp_path):
        csv = tmp_path / "t.csv"
        csv.write_text("delta,ratio\n0.25,2\n0.125,4\n")
        assert main(["plot", "--spec", str(csv), "--out", str(tmp_path)]) == 0
        assert main(["plot", "--spec", str(csv), "--out", str(tmp_path), "--column", "nope"]) == 2


class TestVerifyCommand:
    def test_invariants_suite_passes(self, capsys):
        assert main(["verify", "invariants"]) == 0
        out = capsys.readouterr().out
        assert "7/7 checks passed" in out
        assert out.count("PASS") == 7

    def test_unknown_suite(self):
        with pytest.raises(SystemExit) as e:
            main(["verify", "nosuch"])
        assert e.value.code == 2


class TestConfigValidation:
    def test_direct_config_object(self):
        cfg = ExperimentConfig(kind="dims", deltas=[F(1, 4)], depth=2)
        assert cfg.validate() is cfg
        with pytest.raises(UsageError, match="depth"):
            ExperimentConfig(kind="dims", deltas=[F(1, 4)], depth=0).validate()

    @pytest.mark.parametrize("kind", ["domain", "energy"])
    @pytest.mark.parametrize("eta", ["0", "-0.05"])
    def test_nonpositive_eta_rejected(self, kind, eta, tmp_path, capsys):
        # eta is recorded in the CSV but no cap reads it: a bad value is a
        # usage error before any counting, not a FAIL row
        text = f"[experiment]\nkind = {kind}\ndeltas = 1/256\neta = {eta}\n"
        with pytest.raises(UsageError, match="^eta must be positive$"):
            parse_config(text)
        (tmp_path / "c.cfg").write_text(text)
        rc = main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: eta must be positive\n")
        assert not (tmp_path / "o").exists()

    def test_removed_and_unknown_keys_rejected(self, tmp_path, capsys):
        base = "[experiment]\nkind = dims\ndeltas = 1/4\n"
        for line in ("seeds = 0, 1", "threads = 2", "max_cells = 1000000", "sede = 3"):
            key = line.split(" =")[0]
            with pytest.raises(UsageError, match=f"unknown \\[experiment\\] key.*{key}"):
                parse_config(base + line + "\n")
        (tmp_path / "c.cfg").write_text(base + "threads = 2\n")
        rc = main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error: unknown [experiment] key(s): threads" in capsys.readouterr().err
        (tmp_path / "c.cfg").write_text(base)
        with pytest.raises(SystemExit) as e:
            main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "o"),
                  "--threads", "2"])
        assert e.value.code == 2

    @pytest.mark.parametrize("text,msg", [
        pytest.param("[experiment]\nkind = nikodym\ndeltas = 1/32\np = 1\np = 2\n",
                     "[experiment] line 4: repeated key 'p'", id="experiment"),
        pytest.param("[experiment]\nkind = dims\ndeltas = 1/4\ndepth = 2\n\n[moran]\nn = 2\nc = 1/4\nn = 3\n",
                     "[moran] line 3: repeated key 'n'", id="moran"),
    ])
    def test_repeated_key_rejected(self, text, msg, tmp_path, capsys):
        # the later line would silently win; line numbers count within the block
        with pytest.raises(UsageError, match=f"^{re.escape(msg)}$"):
            parse_config(text)
        (tmp_path / "c.cfg").write_text(text)
        rc = main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {msg}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind,key,values", [("nikodym", "p", "2, 2"), ("kakeya", "p", "1.5, 2, 1.5"),
                                                 ("incidence", "r", "4, 16, 4")])
    def test_repeated_list_value_rejected(self, kind, key, values, tmp_path, capsys):
        # a repeated p or r would write its rows twice
        text = f"[experiment]\nkind = {kind}\ndeltas = 1/64\n{key} = {values}\n"
        with pytest.raises(UsageError, match=f"^{key} lists a value more than once: {values}$"):
            parse_config(text)
        (tmp_path / "c.cfg").write_text(text)
        assert main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "o")]) == 2
        assert "more than once" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sweep, values", [("deltas = 1/256, 1/256, 1/1024", "1/256, 1/256, 1/1024"),
                                               ("delta_exps = 10, 8, 10", "1/1024, 1/256, 1/1024")])
    def test_repeated_delta_rejected(self, sweep, values, tmp_path, capsys):
        # a repeated delta would write its row twice and fit beta_hat over it twice
        text = f"[experiment]\nkind = domain\n{sweep}\n"
        with pytest.raises(UsageError, match=f"^deltas lists a value more than once: {values}$"):
            parse_config(text)
        (tmp_path / "c.cfg").write_text(text)
        assert main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr() == ("", f"error: deltas lists a value more than once: {values}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sweep,key,value", [
        ("deltas = 1/4", "depth", "x"),
        ("deltas = 1/4", "depth", "2.5"),
        ("deltas = 1/4", "gamma", "1/4"),
        ("", "delta_exps", "8, x"),
        ("", "deltas", "1/0"),
        ("", "deltas", "x"),
        ("delta_max_exp = 8", "delta_min_exp", "x"),
        ("delta_min_exp = 2", "delta_max_exp", "8.0"),
        ("delta_min_exp = 2\ndelta_max_exp = 8", "delta_step", "y"),
    ])
    def test_unconvertible_value_names_its_key(self, sweep, key, value, tmp_path, capsys):
        text = f"[experiment]\nkind = dims\n{sweep}\n{key} = {value}\n"
        with pytest.raises(UsageError, match=f"^{key} = {re.escape(value)}: "):
            parse_config(text)
        (tmp_path / "c.cfg").write_text(text)
        assert main(["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} = {value}: ")
        assert not (tmp_path / "o").exists()

    def test_sub_unit_exponents_refused_as_not_dyadic(self, tmp_path, capsys):
        # 2^-j with j < 1 is no delta: refused by the dyadic check, not a shift error
        for line in ("delta_exps = -3", "delta_min_exp = -1\ndelta_max_exp = 2"):
            with pytest.raises(UsageError, match="is not dyadic"):
                parse_config(f"[experiment]\nkind = energy\n{line}\n")
        (tmp_path / "c.cfg").write_text("[experiment]\nkind = dualsum\ndeltas = 1/32\n")
        argv = ["run", "--spec", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "o")]
        assert main(argv + ["--delta-min-exp", "-2", "--delta-max-exp", "5"]) == 2
        assert "error: delta 4 is not dyadic" in capsys.readouterr().err


# ------------------------------------------------- run outcome contract

EDGE = ["0", "-1", "1/2", "0.5", "1", "2", "1, 2", "nan", "inf"]  # values for s, p, r, m and gamma
RULE_N = ["2", "3", "0", "1", "1/2", "2^k", "0^k", "0^-k", "1^-k", "2^-k", "2, 3", "3, 2, 2"]
RULE_C = ["1/3", "1/4", "0", "1", "-1/3", "2^-3k", "2^-k", "0^-k", "1^-2k", "0^-2", "8^-3", "1/3, 1/5"]
OFFSETS = ["even", "searched", "0, 2/3", "0, 1/2", "0, 1/4, 3/4", "1"]
LAYOUT = ["0", "-1", "1", "2", "3", "1/2", "20"]  # values for m, budget and seed


def _optional(key, values):
    return st.one_of(st.none(), st.sampled_from(values).map(lambda v: f"{key} = {v}"))


@st.composite
def run_configs(draw):
    """A config text: a kind, one delta >= 2^-6, edge values for the keys
    the kind reads (and now and then for one it does not), and for the
    construction kinds a preset or a [moran] block of depth <= 3."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    lines = [f"kind = {kind}", f"deltas = 1/{2 ** draw(st.integers(1, 6))}"]
    for key in ("s", "p", "r", "m", "gamma"):
        if key in KINDS[kind].keys or draw(st.integers(0, 7)) == 0:
            lines.append(draw(_optional(key, EDGE)))
    moran = []
    if "preset" in KINDS[kind].keys:
        lines.append(f"depth = {draw(st.integers(0, 3))}")
        lines.append(draw(_optional("preset", sorted(PRESETS))))
        if draw(st.booleans()):
            moran = [f"n = {draw(st.sampled_from(RULE_N))}", f"c = {draw(st.sampled_from(RULE_C))}",
                     draw(_optional("offsets", OFFSETS)),
                     *(draw(_optional(key, LAYOUT)) for key in ("m", "budget", "seed"))]
    text = "[experiment]\n" + "".join(f"{ln}\n" for ln in lines if ln)
    if moran:
        text += "\n[moran]\n" + "".join(f"{ln}\n" for ln in moran if ln)
    return kind, text


@given(run_configs())
@example(("nikodym", "[experiment]\nkind = nikodym\ndeltas = 1/32\np = nan\n"))  # wrote a 4-field row
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
def test_run_has_three_outcomes(drawn):
    # tubelab run exits 0 with its artifacts, 1 with one FAIL row, or 2 with
    # one error line and no output directory; no config raises past main
    kind, text = drawn
    with tempfile.TemporaryDirectory() as tmp:
        spec, out_dir = Path(tmp) / "c.cfg", Path(tmp) / "out"
        spec.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["run", "--spec", str(spec), "--out", str(out_dir)])
        out, err = out.getvalue(), err.getvalue()
        if rc == 0:
            assert err == "" and (out_dir / f"{kind}.csv").exists() and (out_dir / "manifest.txt").exists()
            assert all(line.startswith("wrote ") for line in out.splitlines())
            header, *rows = (out_dir / f"{kind}.csv").read_text().splitlines()
            assert all(row.count(",") == header.count(",") for row in rows)
        elif rc == 1:
            assert err == "" and out.startswith(f"FAIL,{kind},") and out.count("\n") == 1
            assert not out_dir.exists()
        else:
            assert rc == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
            assert not out_dir.exists()
