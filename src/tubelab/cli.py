"""Experiment runner: sectioned config files, scale sweeps, CSV and SVG artifacts.

Subcommands:

- ``gen``    write a ready-to-run config file for an experiment kind;
- ``run``    execute a config: sweep scales, stream CSV rows, render plots,
             and write a manifest that reproduces the run;
- ``verify`` run a named check suite and print per-check status lines;
- ``plot``   re-render a log-log SVG from a CSV produced by ``run``.

Config files are plain ``key = value`` text in ``[section]`` blocks: an
``[experiment]`` block with the sweep parameters, an optional ``[moran]``
block holding an inline nested-interval construction, and an optional
``[manifest]`` block (written by ``run``, ignored on re-parse). ``KINDS``
lists the keys each kind reads besides the sweep; any other key is rejected.
Identical configs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction as F
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints

from tubelab import __version__
from tubelab.acceptance import SUITES, run_suite
from tubelab.core import DyadicScale
from tubelab.domains import additive_energy_estimate, cap_count, gcs_domain
from tubelab.incidence import sharp_example, verify_incidence_bound
from tubelab.maximal import (
    DirectionSet,
    GridFunction,
    aim_at_origin_assignment,
    bush_construction,
    dual_sum_norm,
    exponent_fit,
    kakeya_apply,
    kakeya_norm,
    nikodym_apply,
)
from tubelab.setgen import (
    PRESETS,
    build_moran,
    box_dim_ratio,
    moran_spec_from_config,
    parse_keyvals,
    qa_profile,
)
from tubelab.svg import svg_loglog

S_LOG23 = math.log(2) / math.log(3)


class UsageError(ValueError):
    """Invalid configuration or command line."""


# ------------------------------------------------------------- config


@dataclass
class ExperimentConfig:
    """A run: its kind, its sweep, and the settings named after the
    [experiment] keys; a kind reads only the settings KINDS lists for it."""

    kind: str
    deltas: list[F]  # strictly dyadic 2^-j, in the order the config gives them
    p: list[float] = field(default_factory=list)
    r: list[int] = field(default_factory=list)
    s: float = 0.5
    m: int = 3
    gamma: float = 0.25
    eta: float = 0.05
    preset: str = "middle-thirds"
    depth: int = 4
    moran_text: str = ""

    def validate(self):
        _refuse_unread(self.kind, [k for k in _SETTINGS if getattr(self, k) != getattr(_DEFAULT, k)])
        if self.moran_text and "preset" not in KINDS[self.kind].keys:
            raise UsageError(f"kind '{self.kind}' does not read a [moran] block")
        if not self.deltas:
            raise UsageError("delta list is empty")
        for d in self.deltas:
            dd = F(d)
            if dd <= 0 or dd >= 1 or dd.numerator != 1 or (dd.denominator & (dd.denominator - 1)):
                raise UsageError(f"delta {d} is not dyadic (need 2^-j with j >= 1)")
        if self.kind in ("nikodym", "kakeya") and not self.p:
            raise UsageError(f"kind '{self.kind}' needs a nonempty p list")
        if self.kind == "dualsum" and len(self.p) > 1:
            raise UsageError(f"kind 'dualsum' reads one p (its p'), got {len(self.p)}")
        if self.kind == "incidence" and not self.r:
            raise UsageError("kind 'incidence' needs a nonempty r list")
        for key in ("deltas", "p", "r"):  # a repeated value would repeat its CSV rows
            values = getattr(self, key)
            if len(set(values)) < len(values):
                raise UsageError(f"{key} lists a value more than once: {_setting_text(key, values)}")
        if not self.moran_text and self.preset not in PRESETS:
            raise UsageError(f"unknown preset '{self.preset}'; known: {', '.join(PRESETS)}")
        try:  # key and value errors; those of a level show when it is built
            self._spec()
        except ValueError as e:
            raise UsageError(str(e)) from e
        if self.depth < 1:
            raise UsageError("depth must be >= 1")
        if self.eta <= 0:
            raise UsageError("eta must be positive")
        return self

    def _spec(self):
        return moran_spec_from_config(self.moran_text or PRESETS[self.preset])

    def moran(self):
        return build_moran(self._spec(), self.depth)


_DEFAULT = ExperimentConfig("", [])
_TYPES = get_type_hints(ExperimentConfig)
# the settable [experiment] keys, in canonical order; the sweep keys are apart
_SETTINGS = tuple(k for k in _TYPES if k not in ("kind", "deltas", "moran_text"))
_SWEEP_KEYS = frozenset("kind deltas delta_exps delta_min_exp delta_max_exp delta_step".split())


def _kind(name: str) -> Kind:
    if name not in KINDS:
        raise UsageError(f"unknown kind '{name}'; known: {', '.join(KINDS)}")
    return KINDS[name]


def _refuse_unread(kind: str, keys) -> None:
    unread = sorted(set(keys) - _kind(kind).keys)
    if unread:
        raise UsageError(f"kind '{kind}' does not read [experiment] key(s): {', '.join(unread)}")


def split_sections(text: str) -> dict[str, str]:
    """Split '[name]'-headed blocks; text before any header lands in ''."""
    sections: dict[str, list[str]] = {"": []}
    current = ""
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, [])
        else:
            sections.setdefault(current, []).append(raw)
    return {k: "\n".join(v) for k, v in sections.items()}


def _parse_list(text: str, conv):
    return [conv(x.strip()) for x in text.split(",") if x.strip()]


def _convert(key: str, text: str, conv):
    """conv(text); a value that does not convert is a UsageError naming its key."""
    try:
        return conv(text)
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"{key} = {text}: {e}") from e


def _setting(key: str, text: str):
    """The value of setting key, converted by the type of its field."""
    ftype = _TYPES[key]
    conv = partial(_parse_list, conv=get_args(ftype)[0]) if get_origin(ftype) is list else ftype
    return _convert(key, text, conv)


def _setting_text(key: str, value) -> str:
    ftype = _TYPES[key]
    items, conv = (value, get_args(ftype)[0]) if get_origin(ftype) is list else ([value], ftype)
    return ", ".join(_fmt(x) if conv is float else str(x) for x in items)


def _keyvals(section: str, text: str) -> dict[str, str]:
    try:
        return parse_keyvals(text)
    except ValueError as e:
        raise UsageError(f"[{section}] {e}") from e


def parse_config(text: str) -> ExperimentConfig:
    sections = split_sections(text)
    kv = _keyvals("experiment", sections.get("experiment", "") or sections.get("", ""))
    _keyvals("moran", sections.get("moran", ""))  # its line errors name the section
    unknown = sorted(kv.keys() - _SWEEP_KEYS - set(_SETTINGS))
    if unknown:
        raise UsageError(f"unknown [experiment] key(s): {', '.join(unknown)}")
    if "kind" not in kv:
        raise UsageError("config missing 'kind'")
    _refuse_unread(kv["kind"], kv.keys() - _SWEEP_KEYS)

    has_range = "delta_min_exp" in kv or "delta_max_exp" in kv
    if has_range and not ("delta_min_exp" in kv and "delta_max_exp" in kv):
        raise UsageError("delta_min_exp and delta_max_exp go together")
    if "delta_step" in kv and not has_range:
        raise UsageError("delta_step needs delta_min_exp and delta_max_exp")
    if ("deltas" in kv) + ("delta_exps" in kv) + has_range > 1:
        raise UsageError(
            "give the sweep one way: deltas, delta_exps, or delta_min_exp/delta_max_exp"
        )

    # 2^-j as F(2) ** -j, so an exponent j < 1 reaches validate's dyadic check
    deltas: list = []
    if "delta_exps" in kv:
        deltas = [F(2) ** -j for j in _convert("delta_exps", kv["delta_exps"], partial(_parse_list, conv=int))]
    elif has_range:
        step = _convert("delta_step", kv.get("delta_step", "1"), int)
        lo, hi = (_convert(key, kv[key], int) for key in ("delta_min_exp", "delta_max_exp"))
        if step < 1 or hi < lo:
            raise UsageError("need delta_min_exp <= delta_max_exp and delta_step >= 1")
        deltas = [F(2) ** -j for j in range(lo, hi + 1, step)]
    elif "deltas" in kv:
        deltas = _convert("deltas", kv["deltas"], partial(_parse_list, conv=F))

    settings = {k: _setting(k, v) for k, v in kv.items() if k in _SETTINGS}
    moran_text = sections.get("moran", "").strip()
    return ExperimentConfig(kv["kind"], deltas, moran_text=moran_text, **settings).validate()


def config_text(cfg: ExperimentConfig) -> str:
    """Canonical serialization of the kind's keys; parsing it back reproduces the config."""
    lines = ["[experiment]", f"kind = {cfg.kind}"]
    lines.append(f"deltas = {_setting_text('deltas', cfg.deltas)}")
    for key in _SETTINGS:
        value = getattr(cfg, key)
        if key in KINDS[cfg.kind].keys and value != []:
            lines.append(f"{key} = {_setting_text(key, value)}")
    if cfg.moran_text:
        lines += ["", "[moran]", cfg.moran_text]
    return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    return f"{float(x):.12g}"


# ------------------------------------------------------------- artifact


@dataclass
class RunArtifact:
    out_dir: Path
    csv_path: Path
    svg_paths: list
    manifest_path: Path


def _write_atomic(path: Path, text: str) -> None:
    """path.write_text(text), but path holds its old bytes or all the new
    ones: the text goes to a temporary file beside it, which then replaces it."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    cells = ([c if isinstance(c, str) else _fmt(c) for c in row] for row in rows)
    _write_atomic(path, "\n".join(",".join(line) for line in [header, *cells]) + "\n")


def _scale(delta: F) -> DyadicScale:
    """delta = 2^-k as a DyadicScale."""
    return DyadicScale(delta.denominator.bit_length() - 1)


def _fit_beta(rows: list, col: int) -> list:
    """Append to every row the exponent fitted to column col against delta
    (NaN below three rows); return the (delta, value) samples."""
    samples = [(row[0], row[col]) for row in rows]
    beta = exponent_fit(samples).beta if len(samples) >= 3 else float("nan")
    for row in rows:
        row.append(beta)
    return samples


# ------------------------------------------------------- kind runners


def _run_incidence(cfg: ExperimentConfig):
    rows = []
    for delta in cfg.deltas:
        sc = _scale(delta)
        for r in cfg.r:
            ex = sharp_example(cfg.s, sc, r)
            rho = verify_incidence_bound(ex.family, cfg.s, r)
            rows.append([delta, cfg.s, r, len(ex.family), rho.details["rich_cells"], float(rho)])
    plots = {}
    for r in cfg.r:
        samples = [(row[0], row[5]) for row in rows if row[2] == r and row[5] > 0]
        plots[f"incidence_r{r}"] = (samples, f"rich-point ratio, r = {r}", "log2(ratio)")
    return ["delta", "s", "r", "tubes", "rich_cells", "ratio"], rows, plots


def _run_maximal(operator: str, cfg: ExperimentConfig):
    rows = []
    for delta in cfg.deltas:
        sc = _scale(delta)
        th = DirectionSet.cantor(cfg.s, sc)
        # one operator pass per scale, reduced at every p as norm_ratio does
        if operator == "nikodym":
            f = bush_construction(th, F(1, 2), F(1, 2)).core.indicator(sc)
            out = nikodym_apply(f, th)
            ratios = [out.lp_norm(p) / f.lp_norm(p) for p in cfg.p]
        else:
            f = GridFunction.ball_indicator(sc)
            values = kakeya_apply(f, th)
            ratios = [kakeya_norm(values, th, p) / f.lp_norm(p) for p in cfg.p]
        rows += [[delta, cfg.s, p, float(r)] for p, r in zip(cfg.p, ratios)]
    plots = {}
    for p in cfg.p:
        samples = _fit_beta([row for row in rows if row[2] == p], 3)
        plots[f"{operator}_p{_fmt(p)}"] = (samples, f"{operator} ratio at p = {_fmt(p)}", "log2(ratio)")
    return ["delta", "s", "p", "ratio", "beta_hat"], rows, plots


def _run_dims(cfg: ExperimentConfig):
    ms = cfg.moran()
    rows, samples = [], []
    for K in range(1, ms.K + 1):
        scale = ms.length(K)
        prof = float(qa_profile(ms.endpoint_values(K), cfg.gamma, scale)) if K >= 2 else 0.0
        rows.append([str(scale), K, ms.interval_count(K), box_dim_ratio(ms, 1, K), prof, cfg.gamma])
        samples.append((scale, ms.interval_count(K)))
    plots = {"dims": (samples, "surviving intervals per generation", "log2(count)")}
    return ["scale", "depth", "intervals", "box_dim_ratio", "qa_profile", "gamma"], rows, plots


def _run_domain(cfg: ExperimentConfig):
    dom = gcs_domain(cfg.moran())
    rows = []
    for delta in cfg.deltas:
        cc = cap_count(dom, delta)
        rows.append([delta, cfg.eta, cc.k_delta, cc.lower, cc.upper, math.sqrt(cc.lower * cc.upper)])
    plots = {"domain": (_fit_beta(rows, 5), "boundary caps vs scale", "log2(cap count)")}
    return ["delta", "eta", "k_delta", "lower", "upper", "geo_mean", "beta_hat"], rows, plots


def _run_energy(cfg: ExperimentConfig):
    dom = gcs_domain(cfg.moran())
    rows = []
    for delta in cfg.deltas:
        rec = additive_energy_estimate(dom, delta, cfg.m)
        rows.append([delta, cfg.m, cfg.eta, rec["K_delta"], rec["M0"], rec["M1"],
                     rec["Xi_bound"], rec["energy_exponent"]])
    samples = [(row[0], row[6]) for row in rows]
    plots = {"energy": (samples, f"{cfg.m}-fold interaction count", "log2(count)")}
    return ["delta", "m", "eta", "k_delta", "M0", "M1", "Xi_bound", "energy_exponent"], rows, plots


def _run_dualsum(cfg: ExperimentConfig):
    rows = []
    for delta in cfg.deltas:
        th = DirectionSet.cantor(cfg.s, _scale(delta))  # refuses s outside (0, 1] first
        pprime = cfg.p[0] if cfg.p else 1 + 1 / cfg.s
        norm = dual_sum_norm(aim_at_origin_assignment(th), pprime)
        rows.append([delta, cfg.s, pprime, float(norm)])
    plots = {"dualsum": (_fit_beta(rows, 3), "adversarial dual sum norm", "log2(norm)")}
    return ["delta", "s", "pprime", "dual_norm", "beta_hat"], rows, plots


class Kind(NamedTuple):
    run: Callable  # ExperimentConfig -> (CSV header, rows, {plot name: (samples, title, ylabel)})
    keys: frozenset  # the settings it reads besides the sweep; "preset" also admits [moran]


_CONSTRUCTION = frozenset({"preset", "depth"})
KINDS = {
    "incidence": Kind(_run_incidence, frozenset({"s", "r"})),
    "nikodym": Kind(partial(_run_maximal, "nikodym"), frozenset({"s", "p"})),
    "kakeya": Kind(partial(_run_maximal, "kakeya"), frozenset({"s", "p"})),
    "dims": Kind(_run_dims, _CONSTRUCTION | {"gamma"}),
    "domain": Kind(_run_domain, _CONSTRUCTION | {"eta"}),
    "energy": Kind(_run_energy, _CONSTRUCTION | {"m", "eta"}),
    "dualsum": Kind(_run_dualsum, frozenset({"s", "p"})),
}


def run(cfg: ExperimentConfig, out_dir) -> RunArtifact:
    """Execute a validated config and write CSV + SVG + manifest artifacts."""
    cfg.validate()
    header, rows, plots = KINDS[cfg.kind].run(cfg)  # a run that fails makes no directory
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    csv_path = out / f"{cfg.kind}.csv"
    _write_csv(csv_path, header, rows)

    svg_paths = []
    for name, (samples, title, ylabel) in sorted(plots.items()):
        if len(samples) < 2:  # one scale has no slope to draw
            continue
        p = out / f"{name}.svg"
        _write_atomic(p, svg_loglog(samples, title=title, ylabel=ylabel))
        svg_paths.append(p)

    canon = config_text(cfg)
    digest = hashlib.sha256(canon.encode()).hexdigest()
    manifest_path = out / "manifest.txt"
    _write_atomic(manifest_path, f"{canon}\n[manifest]\nconfig_hash = {digest}\n"
                  f"code_version = {__version__}\ntable = {csv_path.name}\n")
    return RunArtifact(out, csv_path, svg_paths, manifest_path)


# ----------------------------------------------------------------- gen


_GEN_DEFAULTS = {
    "incidence": dict(delta="10:12:1", extra=["r = 4, 16, 64", "s = 0.5"]),
    "nikodym": dict(delta="5:9:1", extra=["p = 1, 2", f"s = {S_LOG23:.12g}"]),
    "kakeya": dict(delta="6:9:1", extra=[f"p = {1 + S_LOG23:.12g}", f"s = {S_LOG23:.12g}"]),
    "dims": dict(delta="8:8:1", extra=["preset = middle-thirds", "depth = 16", "gamma = 0.25"]),
    "domain": dict(delta="8:24:2", extra=["preset = doubling", "depth = 4", "eta = 0.05"]),
    "energy": dict(delta_exps="12, 20, 28, 40", extra=["preset = doubling", "depth = 4", "m = 3"]),
    "dualsum": dict(delta="5:9:1", extra=[f"s = {S_LOG23:.12g}", f"p = {1 + 1 / S_LOG23:.12g}"]),
}


def generate_config(kind: str, args) -> str:
    _kind(kind)
    d = _GEN_DEFAULTS[kind]
    lines = ["[experiment]", f"kind = {kind}"]
    if "delta_exps" in d:
        if args.delta_min_exp is not None or args.delta_max_exp is not None:
            raise UsageError(f"kind '{kind}' sweeps delta_exps = {d['delta_exps']}, not a range")
        lines.append(f"delta_exps = {d['delta_exps']}")
    else:
        lo, hi, step = (int(x) for x in d["delta"].split(":"))
        lo = args.delta_min_exp if args.delta_min_exp is not None else lo
        hi = args.delta_max_exp if args.delta_max_exp is not None else hi
        lines += [f"delta_min_exp = {lo}", f"delta_max_exp = {hi}", f"delta_step = {step}"]
    lines += d["extra"]
    for key, value in (("preset", args.preset), ("depth", args.depth)):
        if value is not None:  # an override replaces the default line, or comes last
            lines = [ln for ln in lines if not ln.startswith(f"{key} = ")] + [f"{key} = {value}"]
    text = "\n".join(lines) + "\n"
    parse_config(text)  # self-check before handing it out
    return text


# ---------------------------------------------------------------- plot


def replot(csv_path, column: str, out_dir) -> Path:
    path = Path(csv_path)
    if not path.exists():
        raise UsageError(f"no such CSV: {path}")
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    if "delta" not in header or column not in header:
        raise UsageError(f"CSV must have 'delta' and '{column}' columns; has {header}")
    di, ci = header.index("delta"), header.index(column)
    cells = [ln.split(",") for ln in lines[1:]]
    samples = [(d, v) for d, v in ((F(c[di]), float(c[ci])) for c in cells) if v > 0]
    if len(samples) < 2:
        raise UsageError("need at least 2 rows with positive values to plot")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    target = out / f"{path.stem}_{column}.svg"
    _write_atomic(target, svg_loglog(samples, title=f"{path.stem}: {column}", ylabel=f"log2({column})"))
    return target


# ---------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tubelab", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a config file for an experiment kind")
    g.add_argument("kind", choices=KINDS)
    g.add_argument("--out", required=True, help="config file to write")
    g.add_argument("--preset", default=None, help=f"construction preset ({', '.join(PRESETS)})")
    g.add_argument("--depth", type=int, default=None, help="construction depth override")
    g.add_argument("--delta-min-exp", type=int, default=None)
    g.add_argument("--delta-max-exp", type=int, default=None)

    r = sub.add_parser("run", help="execute a config file")
    r.add_argument("--spec", required=True, help="config file (or a manifest) to run")
    r.add_argument("--out", required=True, help="output directory")
    r.add_argument("--delta-min-exp", type=int, default=None)
    r.add_argument("--delta-max-exp", type=int, default=None)

    v = sub.add_parser("verify", help="run a named check suite")
    v.add_argument("suite", choices=sorted(SUITES))

    p = sub.add_parser("plot", help="re-render a log-log SVG from a run CSV")
    p.add_argument("--spec", required=True, help="CSV file from a previous run")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--column", default="ratio", help="value column to plot")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            _write_atomic(Path(args.out), generate_config(args.kind, args))
            print(f"wrote {args.out}")
            return 0

        if args.command == "run":
            spec_path = Path(args.spec)
            if not spec_path.exists():
                raise UsageError(f"no such config: {spec_path}")
            cfg = parse_config(spec_path.read_text(encoding="utf-8"))
            if (args.delta_min_exp is None) != (args.delta_max_exp is None):
                raise UsageError("--delta-min-exp and --delta-max-exp go together")
            if args.delta_min_exp is not None:
                cfg.deltas = [F(2) ** -j for j in range(args.delta_min_exp, args.delta_max_exp + 1)]
            cfg.validate()
            try:
                art = run(cfg, args.out)
            except ValueError as e:
                print(f"FAIL,{cfg.kind},{e}")
                return 1
            for p in (art.csv_path, *art.svg_paths, art.manifest_path):
                print(f"wrote {p}")
            return 0

        if args.command == "verify":
            results = run_suite(args.suite)
            for res in results:
                print(res.line())
            failed = [r for r in results if not r.passed]
            print(f"{len(results) - len(failed)}/{len(results)} checks passed")
            return 0 if not failed else 1

        if args.command == "plot":
            target = replot(args.spec, args.column, args.out)
            print(f"wrote {target}")
            return 0
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
