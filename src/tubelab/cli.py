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
``[manifest]`` block (written by ``run``, ignored on re-parse). An
``[experiment]`` key that ``parse_config`` does not read is rejected.
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
from pathlib import Path

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
    build_moran,
    box_dim_ratio,
    constant_branch_spec,
    doubling_branch_spec,
    middle_thirds_spec,
    moran_spec_from_config,
    parse_keyvals,
    qa_profile,
)
from tubelab.svg import svg_loglog

KINDS = ("incidence", "nikodym", "kakeya", "dims", "domain", "energy", "dualsum")
PRESETS = ("middle-thirds", "constant-branch-8", "doubling")
S_LOG23 = math.log(2) / math.log(3)
DEFAULT_MAX_CELLS = 1 << 26


class UsageError(ValueError):
    """Invalid configuration or command line."""


# ------------------------------------------------------------- config


@dataclass
class ExperimentConfig:
    kind: str
    deltas: list  # Fractions, strictly dyadic 2^-j, sorted by increasing j
    p_list: list = field(default_factory=list)
    r_list: list = field(default_factory=list)
    s: float = 0.5
    m: int = 3
    gamma: float = 0.25
    eta: float = 0.05
    preset: str = "middle-thirds"
    depth: int = 4
    moran_text: str = ""
    max_cells: int = DEFAULT_MAX_CELLS

    def validate(self):
        if self.kind not in KINDS:
            raise UsageError(f"unknown kind '{self.kind}'; known: {', '.join(KINDS)}")
        if not self.deltas:
            raise UsageError("delta list is empty")
        for d in self.deltas:
            dd = F(d)
            if dd <= 0 or dd >= 1 or dd.numerator != 1 or (dd.denominator & (dd.denominator - 1)):
                raise UsageError(f"delta {d} is not dyadic (need 2^-j with j >= 1)")
        if self.kind in ("nikodym", "kakeya") and not self.p_list:
            raise UsageError(f"kind '{self.kind}' needs a nonempty p list")
        if self.kind == "incidence" and not self.r_list:
            raise UsageError("kind 'incidence' needs a nonempty r list")
        if not self.moran_text and self.preset not in PRESETS:
            raise UsageError(f"unknown preset '{self.preset}'; known: {', '.join(PRESETS)}")
        if self.depth < 1:
            raise UsageError("depth must be >= 1")
        return self

    def moran(self):
        if self.moran_text:
            return build_moran(moran_spec_from_config(self.moran_text), self.depth)
        spec = {
            "middle-thirds": middle_thirds_spec,
            "constant-branch-8": lambda: constant_branch_spec(8, 3),
            "doubling": lambda: doubling_branch_spec(3),
        }[self.preset]()
        return build_moran(spec, self.depth)


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
    items = [x.strip() for x in text.split(",") if x.strip()]
    return [conv(x) for x in items]


EXPERIMENT_KEYS = frozenset(
    "kind deltas delta_exps delta_min_exp delta_max_exp delta_step "
    "p r s m gamma eta preset depth max_cells".split()
)


def parse_config(text: str) -> ExperimentConfig:
    sections = split_sections(text)
    try:
        kv = parse_keyvals(sections.get("experiment", "") or sections.get("", ""))
    except ValueError as e:
        raise UsageError(str(e)) from e
    unknown = sorted(kv.keys() - EXPERIMENT_KEYS)
    if unknown:
        raise UsageError(f"unknown [experiment] key(s): {', '.join(unknown)}")
    if "kind" not in kv:
        raise UsageError("config missing 'kind'")

    has_range = "delta_min_exp" in kv or "delta_max_exp" in kv
    if has_range and not ("delta_min_exp" in kv and "delta_max_exp" in kv):
        raise UsageError("delta_min_exp and delta_max_exp go together")
    if "delta_step" in kv and not has_range:
        raise UsageError("delta_step needs delta_min_exp and delta_max_exp")
    if ("deltas" in kv) + ("delta_exps" in kv) + has_range > 1:
        raise UsageError(
            "give the sweep one way: deltas, delta_exps, or delta_min_exp/delta_max_exp"
        )

    deltas: list = []
    if "delta_exps" in kv:
        deltas = [F(1, 1 << int(j)) for j in _parse_list(kv["delta_exps"], int)]
    elif has_range:
        step = int(kv.get("delta_step", "1"))
        lo, hi = int(kv["delta_min_exp"]), int(kv["delta_max_exp"])
        if step < 1 or hi < lo:
            raise UsageError("need delta_min_exp <= delta_max_exp and delta_step >= 1")
        deltas = [F(1, 1 << j) for j in range(lo, hi + 1, step)]
    elif "deltas" in kv:
        deltas = _parse_list(kv["deltas"], F)

    cfg = ExperimentConfig(
        kind=kv["kind"],
        deltas=deltas,
        p_list=_parse_list(kv.get("p", ""), float),
        r_list=_parse_list(kv.get("r", ""), int),
        s=float(kv.get("s", "0.5")),
        m=int(kv.get("m", "3")),
        gamma=float(kv.get("gamma", "0.25")),
        eta=float(kv.get("eta", "0.05")),
        preset=kv.get("preset", "middle-thirds"),
        depth=int(kv.get("depth", "4")),
        moran_text=sections.get("moran", "").strip(),
        max_cells=int(kv.get("max_cells", str(DEFAULT_MAX_CELLS))),
    )
    return cfg.validate()


def config_text(cfg: ExperimentConfig) -> str:
    """Canonical serialization; parsing it back reproduces the config."""
    lines = ["[experiment]", f"kind = {cfg.kind}"]
    lines.append("deltas = " + ", ".join(str(d) for d in cfg.deltas))
    if cfg.p_list:
        lines.append("p = " + ", ".join(_fmt(p) for p in cfg.p_list))
    if cfg.r_list:
        lines.append("r = " + ", ".join(str(r) for r in cfg.r_list))
    lines.append(f"s = {_fmt(cfg.s)}")
    lines.append(f"m = {cfg.m}")
    lines.append(f"gamma = {_fmt(cfg.gamma)}")
    lines.append(f"eta = {_fmt(cfg.eta)}")
    lines.append(f"preset = {cfg.preset}")
    lines.append(f"depth = {cfg.depth}")
    lines.append(f"max_cells = {cfg.max_cells}")
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
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else _fmt(c) for c in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _grid_guard(cfg: ExperimentConfig, delta: F, cells: int) -> None:
    if cells > cfg.max_cells:
        raise ValueError(
            f"delta {delta}: grid needs {cells} cells > max_cells {cfg.max_cells}"
        )


# ------------------------------------------------------- kind runners


def _run_incidence(cfg: ExperimentConfig):
    def work(delta):
        sc = DyadicScale(delta.denominator.bit_length() - 1)
        _grid_guard(cfg, delta, (1 << sc.k) ** 2)  # multiplicity grids cover [0, 1)^2
        out = []
        for r in cfg.r_list:
            ex = sharp_example(cfg.s, sc, r)
            rho = verify_incidence_bound(ex.family, cfg.s, r)
            out.append([delta, cfg.s, r, len(ex.family), rho.details["rich_cells"], float(rho)])
        return out

    rows = [row for d in cfg.deltas for row in work(d)]
    plots = {}
    for r in cfg.r_list:
        samples = [(row[0], row[5]) for row in rows if row[2] == r and row[5] > 0]
        if len(samples) >= 2:
            plots[f"incidence_r{r}"] = (samples, f"rich-point ratio, r = {r}", "log2(ratio)")
    return ["delta", "s", "r", "tubes", "rich_cells", "ratio"], rows, plots


def _maximal_rows(cfg: ExperimentConfig, operator: str):
    def work(delta):
        sc = DyadicScale(delta.denominator.bit_length() - 1)
        _grid_guard(cfg, delta, (4 << sc.k) ** 2)  # operator grids cover [-2, 2]^2
        th = DirectionSet.cantor(cfg.s, sc)
        # one operator pass per scale, reduced at every p as norm_ratio does
        if operator == "nikodym":
            f = bush_construction(th, F(1, 2), F(1, 2)).core.indicator(sc)
            out = nikodym_apply(f, th)
            ratios = [out.lp_norm(p) / f.lp_norm(p) for p in cfg.p_list]
        else:
            f = GridFunction.ball_indicator(sc, (0, 0), sc.delta)
            values = kakeya_apply(f, th)
            ratios = [kakeya_norm(values, th, p) / f.lp_norm(p) for p in cfg.p_list]
        return [[delta, cfg.s, p, float(r)] for p, r in zip(cfg.p_list, ratios)]

    rows = [row for d in cfg.deltas for row in work(d)]
    header = ["delta", "s", "p", "ratio", "beta_hat"]
    plots = {}
    for p in cfg.p_list:
        samples = [(row[0], row[3]) for row in rows if row[2] == p]
        beta = exponent_fit(samples).beta if len(samples) >= 3 else float("nan")
        for row in rows:
            if row[2] == p:
                row.append(beta)
        if len(samples) >= 2:
            plots[f"{operator}_p{_fmt(p)}"] = (
                samples,
                f"{operator} ratio at p = {_fmt(p)}",
                "log2(ratio)",
            )
    return header, rows, plots


def _run_dims(cfg: ExperimentConfig):
    ms = cfg.moran()
    rows = []
    samples = []
    for K in range(1, ms.K + 1):
        scale = ms.length(K)
        prof = float(qa_profile(ms.endpoint_values(K), cfg.gamma, scale)) if K >= 2 else 0.0
        rows.append([str(scale), K, ms.interval_count(K), box_dim_ratio(ms, 1, K), prof, cfg.gamma])
        samples.append((scale, ms.interval_count(K)))
    plots = {"dims": (samples, "surviving intervals per generation", "log2(count)")}
    return ["scale", "depth", "intervals", "box_dim_ratio", "qa_profile", "gamma"], rows, plots


def _run_domain(cfg: ExperimentConfig):
    dom = gcs_domain(cfg.moran())

    def work(delta):
        cc = cap_count(dom, delta, eta=cfg.eta)
        return [delta, cfg.eta, cc.k_delta, cc.lower, cc.upper, math.sqrt(cc.lower * cc.upper)]

    rows = [work(d) for d in cfg.deltas]
    samples = [(row[0], row[5]) for row in rows]
    beta = exponent_fit(samples).beta if len(samples) >= 3 else float("nan")
    for row in rows:
        row.append(beta)
    plots = {"domain": (samples, "boundary caps vs scale", "log2(cap count)")}
    return ["delta", "eta", "k_delta", "lower", "upper", "geo_mean", "beta_hat"], rows, plots


def _run_energy(cfg: ExperimentConfig):
    dom = gcs_domain(cfg.moran())

    def work(delta):
        rec = additive_energy_estimate(dom, delta, cfg.m, eta=cfg.eta)
        return [
            delta, cfg.m, cfg.eta, rec["K_delta"], rec["M0"], rec["M1"],
            rec["Xi_bound"], rec["energy_exponent"],
        ]

    rows = [work(d) for d in cfg.deltas]
    samples = [(row[0], row[6]) for row in rows]
    plots = {"energy": (samples, f"{cfg.m}-fold interaction count", "log2(count)")}
    return ["delta", "m", "eta", "k_delta", "M0", "M1", "Xi_bound", "energy_exponent"], rows, plots


def _run_dualsum(cfg: ExperimentConfig):
    pprime = cfg.p_list[0] if cfg.p_list else 1 + 1 / cfg.s

    def work(delta):
        sc = DyadicScale(delta.denominator.bit_length() - 1)
        _grid_guard(cfg, delta, (4 << sc.k) ** 2)
        th = DirectionSet.cantor(cfg.s, sc)
        v = float(dual_sum_norm(aim_at_origin_assignment(th), pprime))
        return [delta, cfg.s, pprime, v]

    rows = [work(d) for d in cfg.deltas]
    samples = [(row[0], row[3]) for row in rows]
    beta = exponent_fit(samples).beta if len(samples) >= 3 else float("nan")
    for row in rows:
        row.append(beta)
    plots = {"dualsum": (samples, "adversarial dual sum norm", "log2(norm)")}
    return ["delta", "s", "pprime", "dual_norm", "beta_hat"], rows, plots


_RUNNERS = {
    "incidence": _run_incidence,
    "nikodym": lambda cfg: _maximal_rows(cfg, "nikodym"),
    "kakeya": lambda cfg: _maximal_rows(cfg, "kakeya"),
    "dims": _run_dims,
    "domain": _run_domain,
    "energy": _run_energy,
    "dualsum": _run_dualsum,
}


def run(cfg: ExperimentConfig, out_dir) -> RunArtifact:
    """Execute a validated config and write CSV + SVG + manifest artifacts."""
    cfg.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header, rows, plots = _RUNNERS[cfg.kind](cfg)

    csv_path = out / f"{cfg.kind}.csv"
    _write_csv(csv_path, header, rows)

    svg_paths = []
    for name, (samples, title, ylabel) in sorted(plots.items()):
        p = out / f"{name}.svg"
        _write_atomic(p, svg_loglog(samples, title=title, ylabel=ylabel))
        svg_paths.append(p)

    canon = config_text(cfg)
    digest = hashlib.sha256(canon.encode()).hexdigest()
    manifest = (
        canon
        + "\n[manifest]\n"
        + f"config_hash = {digest}\n"
        + f"code_version = {__version__}\n"
        + f"table = {csv_path.name}\n"
    )
    manifest_path = out / "manifest.txt"
    _write_atomic(manifest_path, manifest)
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
    if kind not in KINDS:
        raise UsageError(f"unknown kind '{kind}'; known: {', '.join(KINDS)}")
    d = _GEN_DEFAULTS[kind]
    lines = ["[experiment]", f"kind = {kind}"]
    if "delta_exps" in d:
        lines.append(f"delta_exps = {d['delta_exps']}")
    else:
        lo, hi, step = (int(x) for x in d["delta"].split(":"))
        lo = args.delta_min_exp if args.delta_min_exp is not None else lo
        hi = args.delta_max_exp if args.delta_max_exp is not None else hi
        lines.append(f"delta_min_exp = {lo}")
        lines.append(f"delta_max_exp = {hi}")
        lines.append(f"delta_step = {step}")
    lines += d["extra"]
    if args.preset:
        lines = [ln for ln in lines if not ln.startswith("preset = ")]
        lines.append(f"preset = {args.preset}")
    if args.depth:
        lines = [ln for ln in lines if not ln.startswith("depth = ")]
        lines.append(f"depth = {args.depth}")
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
    samples = []
    for ln in lines[1:]:
        cells = ln.split(",")
        d, v = F(cells[di]), float(cells[ci])
        if v > 0:
            samples.append((d, v))
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
    g.add_argument("--preset", default="", help=f"construction preset ({', '.join(PRESETS)})")
    g.add_argument("--depth", type=int, default=0, help="construction depth override")
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
            text = generate_config(args.kind, args)
            _write_atomic(Path(args.out), text)
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
                cfg.deltas = [
                    F(1, 1 << j) for j in range(args.delta_min_exp, args.delta_max_exp + 1)
                ]
            cfg.validate()
            try:
                art = run(cfg, args.out)
            except ValueError as e:
                print(f"FAIL,{cfg.kind},{e}")
                return 1
            print(f"wrote {art.csv_path}")
            for p in art.svg_paths:
                print(f"wrote {p}")
            print(f"wrote {art.manifest_path}")
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
