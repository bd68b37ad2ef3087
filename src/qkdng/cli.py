"""Command line front end: point evaluation, pmf dumps and boundary sweeps.

Every run resolves its full configuration (flags over an optional key=value
config file over a preset over built-in defaults) and records it in a
manifest, so results are reproducible without implicit state.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .channels import (
    EFFECTIVE_DETECTOR_MAPPING,
    ChannelConfig,
    NoiseModel,
    NoiseStatistics,
    assess,
    check_pairing,
)
from .errors import ConfigurationError, DomainError, check_range
from .photodetection import DetectorKind, DetectorModel, photocount_pmf
from .scan import (
    ALL_CRITERIA, MAX_PROBE_POINTS, Criterion, ScanConfig, classify_assessment, sweep,
)

CSV_HEADER = "T,nu_nongauss,nu_bb84,nu_di,capped_nongauss,capped_bb84,capped_di"

# presets bundle the channel recipes used for the headline boundary figures;
# the poissonian recipe does not fix detector imperfections, so fig5 keeps
# --eta and --dark mandatory
PRESETS = {
    "fig3": {"noise": "thermal", "detector": "pnrd", "eta": 1.0, "dark": 0.0, "p": 1.0},
    "fig4": {"noise": "thermal", "detector": "pnrd", "eta": 0.7, "dark": 0.001, "p": 1.0},
    "fig5": {"noise": "poisson", "detector": "spad", "p": 1.0},
}

_REQUIRED = object()

# exit's final collections skip frozen objects: numpy's ~22k cost 11-25 ms a run
atexit.register(gc.freeze)


def _read_config(path: str | None) -> dict[str, str]:
    """Parse a flat key=value config file mirroring the flag names."""
    if path is None:
        return {}
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"--config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"--config {path}: line {lineno} is not key=value")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


class _Resolver:
    """Layered option lookup: explicit flag, config file, preset, default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_values = _read_config(getattr(args, "config", None))
        preset = getattr(args, "preset", None)
        self.preset_values = PRESETS[preset] if preset else {}

    def get(self, name: str, cast, default=_REQUIRED):
        attr = name.replace("-", "_")
        value = getattr(self.args, attr, None)
        if value is None and attr in self.file_values:
            try:
                value = cast(self.file_values[attr])
            except ValueError as exc:
                raise ConfigurationError(f"--config value for {name}: {exc}") from exc
        if value is None and attr in self.preset_values:
            value = self.preset_values[attr]
        if value is None:
            if default is _REQUIRED:
                raise ConfigurationError(f"missing required flag --{name}")
            return default
        return value


def _resolve_detector(res: _Resolver) -> tuple[NoiseStatistics, DetectorModel, float]:
    noise_name = res.get("noise", str)
    detector_name = res.get("detector", str)
    try:
        statistics = NoiseStatistics(noise_name)
    except ValueError:
        raise ConfigurationError(f"--noise must be thermal or poisson, got {noise_name}")
    try:
        kind = DetectorKind(detector_name)
    except ValueError:
        raise ConfigurationError(f"--detector must be pnrd or spad, got {detector_name}")
    try:
        check_pairing(statistics, kind)
    except ConfigurationError as exc:
        raise ConfigurationError(f"--noise/--detector: {exc}") from exc
    if res.preset_values and "eta" not in res.preset_values:
        # a preset without detector numbers insists on explicit values
        if getattr(res.args, "eta", None) is None and "eta" not in res.file_values:
            raise ConfigurationError(f"--preset {res.args.preset} requires an explicit --eta")
        if getattr(res.args, "dark", None) is None and "dark" not in res.file_values:
            raise ConfigurationError(f"--preset {res.args.preset} requires an explicit --dark")
    eta = res.get("eta", float, 1.0)
    dark = res.get("dark", float, 0.0)
    p = res.get("p", float, 1.0)
    try:
        detector = DetectorModel(kind=kind, eta=eta, dark=dark)
    except DomainError as exc:
        raise ConfigurationError(f"--eta/--dark: {exc}") from exc
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"--p must lie in [0, 1], got {p}")
    return statistics, detector, p


def _manifest(command: str, parameters: dict) -> dict:
    return {
        "tool": "qkdng",
        "version": __version__,
        "command": command,
        "generated_utc": datetime.now(timezone.utc).isoformat(),
        "parameters": parameters,
    }


def _json_num(x: float):
    return None if x != x else x  # NaN marks undefined quantities; JSON gets null


def _cmd_eval(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    statistics, detector, p = _resolve_detector(res)
    t = res.get("T", float)
    nu = res.get("nu", float)
    try:
        cfg = ChannelConfig(t=t, p=p)
        noise = NoiseModel(statistics=statistics, nbar=nu)
    except DomainError as exc:
        raise ConfigurationError(f"--T/--nu: {exc}") from exc
    assessment = assess(cfg, noise, detector)
    regions = classify_assessment(assessment)
    doc = {
        "q": _json_num(assessment.q),
        "s": _json_num(assessment.s),
        "r_bb84": assessment.rates.bb84 if assessment.coincidence_defined else None,
        "r_di": assessment.rates.di if assessment.rates.di_defined else None,
        "di_defined": assessment.rates.di_defined,
        "p_s": assessment.stats.p_s,
        "p_e": assessment.stats.p_e,
        "witness": {"passed": assessment.nongauss, "margin": assessment.witness.margin},
        "coincidence_defined": assessment.coincidence_defined,
        "region": {proto.value: label.value for proto, label in regions.items()},
        "manifest": _manifest("eval", {
            "noise": statistics.value,
            "detector": detector.kind.value,
            "T": t,
            "nu": nu,
            "eta": detector.eta,
            "dark": detector.dark,
            "p": p,
            "effective_detector_mapping": EFFECTIVE_DETECTOR_MAPPING,
        }),
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv_fields(curve, criterion: Criterion) -> tuple[list[str], list[str]]:
    """The nu and capped CSV columns of one criterion; empty where not scanned."""
    if criterion not in curve.criteria:
        blank = [""] * len(curve.t_grid)
        return blank, blank
    column = curve.column(criterion)
    # empty sentinel at undefined points: plotting tools show a gap, not a false zero
    nu = ["" if undefined else repr(nu_star)
          for nu_star, undefined in zip(column.nu_star, column.undefined)]
    capped = ["" if undefined else "true" if flag else "false"
              for flag, undefined in zip(column.capped, column.undefined)]
    return nu, capped


def _csv_text(curve) -> str:
    nu_fields, capped_fields = zip(*(_csv_fields(curve, c) for c in ALL_CRITERIA))
    rows = zip(map(repr, curve.t_grid), *nu_fields, *capped_fields)
    return "\n".join([CSV_HEADER, *map(",".join, rows)]) + "\n"


def _curve_doc(curve) -> dict:
    names = [c.value for c in curve.criteria]
    points = [{"T": t, "bounds": {}} for t in curve.t_grid]
    for name, column in zip(names, curve.columns):
        for point, nu_star, capped, undefined, warning in zip(points, *column):
            point["bounds"][name] = {
                "nu_star": None if undefined else nu_star,
                "capped": capped,
                "undefined": undefined,
                "monotone_warning": warning,
            }
    return {"criteria": names, "points": points}


def _diagnostics(curve, phase_s: dict[str, float]) -> dict:
    """What the scan did: search cost, boundary outcome counts, phase times, versions."""
    return {
        "bisection_steps": curve.bisection_steps,
        "evaluations": curve.evaluations,
        "boundaries": len(curve.criteria) * len(curve.t_grid),
        "capped": sum(sum(column.capped) for column in curve.columns),
        "undefined": sum(sum(column.undefined) for column in curve.columns),
        "monotone_warning": sum(sum(column.monotone_warning) for column in curve.columns),
        "phase_s": phase_s,
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "numpy": np.__version__,
    }


def _cmd_scan(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    res = _Resolver(args)
    statistics, detector, p = _resolve_detector(res)
    t_min = res.get("t-min", float, 0.02)
    t_max = res.get("t-max", float, 1.0)
    t_points = res.get("t-points", int, 96)
    nu_cap = res.get("nu-cap", float, 10.0)
    tol = res.get("tol", float, 1e-4)
    probe_points = res.get("probe-points", int, 0)
    criteria_raw = res.get("criteria", str, "nongauss,bb84,di")
    try:
        criteria = tuple(Criterion(name.strip()) for name in criteria_raw.split(","))
    except ValueError:
        raise ConfigurationError(
            f"--criteria must be a comma list drawn from nongauss,bb84,di; got {criteria_raw}"
        )
    if t_points < 1:
        raise ConfigurationError(f"--t-points must be at least 1, got {t_points}")
    check_range("--t-min", t_min, 0.0, 1.0)
    check_range("--t-max", t_max, 0.0, 1.0)  # a one-point grid never reaches t_max
    grid = tuple(np.linspace(t_min, t_max, t_points))
    try:
        config = ScanConfig(
            t_grid=grid,
            statistics=statistics,
            detector=detector,
            p=p,
            nu_cap=nu_cap,
            tol=tol,
            criteria=criteria,
            probe_points=probe_points,
        )
    except DomainError as exc:
        raise ConfigurationError(
            f"--t-min/--t-max/--t-points/--nu-cap/--tol/--probe-points: {exc}"
        ) from exc
    resolved = time.perf_counter()
    curve = sweep(config)
    swept = time.perf_counter()
    out = Path(args.out)
    if args.format == "csv":
        out.write_text(_csv_text(curve))
    else:
        out.write_text(json.dumps(_curve_doc(curve), indent=2) + "\n")
    # the manifest's own write comes after, so it cannot time itself
    phase_s = {"resolve": resolved - started, "sweep": swept - resolved,
               "write": time.perf_counter() - swept}
    manifest = _manifest("scan", {
        "noise": statistics.value,
        "detector": detector.kind.value,
        "eta": detector.eta,
        "dark": detector.dark,
        "p": p,
        "t_min": t_min,
        "t_max": t_max,
        "t_points": t_points,
        "nu_cap": nu_cap,
        "tol": tol,
        "criteria": [c.value for c in criteria],
        "probe_points": probe_points,
        "effective_detector_mapping": EFFECTIVE_DETECTOR_MAPPING,
        "format": args.format,
        "out": str(out),
    })
    manifest["diagnostics"] = diagnostics = _diagnostics(curve, phase_s)
    manifest_path = out.with_name(out.name + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    if diagnostics["monotone_warning"]:
        print(
            f"warning: {diagnostics['monotone_warning']} of {diagnostics['boundaries']} "
            "boundaries break the single-crossing assumption (monotone_warning); "
            "their nu_star may be wrong",
            file=sys.stderr,
        )
    print(f"wrote {out} and {manifest_path}")
    return 0


def _cmd_pmf(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    l = res.get("l", int)
    nbar = res.get("nbar", float)
    t = res.get("T", float)
    try:
        pmf = photocount_pmf(l, nbar, t)
        probs = pmf.probs
    except DomainError as exc:
        raise ConfigurationError(f"--l/--nbar/--T: {exc}") from exc
    print("s p")
    for s, prob in enumerate(probs):
        print(f"{s} {_fmt(prob)}")
    print(f"truncation_tail {_fmt(pmf.truncation_tail)}")
    manifest = _manifest("pmf", {
        "l": l,
        "nbar": nbar,
        "T": t,
    })
    print(f"manifest {json.dumps(manifest, separators=(',', ':'))}")
    return 0


def _add_common_channel_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--noise", choices=["thermal", "poisson"], default=None,
                     help="noise statistics of the channel")
    sub.add_argument("--detector", choices=["pnrd", "spad"], default=None,
                     help="detector type (thermal pairs with pnrd, poisson with spad)")
    sub.add_argument("--eta", type=float, default=None,
                     help="detector efficiency in [0, 1] (default 1)")
    sub.add_argument("--dark", type=float, default=None,
                     help="dark-count rate per gate (default 0)")
    sub.add_argument("--p", type=float, default=None,
                     help="Werner weight of the source state (default 1)")
    sub.add_argument("--preset", choices=sorted(PRESETS), default=None,
                     help="named channel recipe supplying defaults")
    sub.add_argument("--config", default=None,
                     help="flat key=value file mirroring the flag names")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdng",
        description="Non-Gaussianity witness and key-rate assessment of noisy "
                    "entanglement-based QKD links",
    )
    parser.add_argument("--version", action="version", version=f"qkdng {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="assess a single (T, nu) channel point")
    _add_common_channel_flags(ev)
    ev.add_argument("--T", type=float, default=None, help="coupling transmittance in [0, 1]")
    ev.add_argument("--nu", type=float, default=None, help="mean photon number of the noise")
    ev.set_defaults(handler=_cmd_eval)

    sc = sub.add_parser("scan", help="sweep T and find per-criterion noise boundaries")
    _add_common_channel_flags(sc)
    sc.add_argument("--t-min", type=float, default=None, help="first grid transmittance (default 0.02)")
    sc.add_argument("--t-max", type=float, default=None, help="last grid transmittance (default 1.0)")
    sc.add_argument("--t-points", type=int, default=None, help="grid size (default 96)")
    sc.add_argument("--nu-cap", type=float, default=None, help="largest noise mean searched (default 10)")
    sc.add_argument("--tol", type=float, default=None, help="bisection tolerance on nu (default 1e-4)")
    sc.add_argument("--probe-points", type=int, default=None,
                    help="size of the optional single-crossing pre-probe: 0 (off, "
                         f"the default) or 3 to {MAX_PROBE_POINTS}")
    sc.add_argument("--criteria", type=str, default=None,
                    help="comma list from nongauss,bb84,di (default all)")
    sc.add_argument("--out", required=True, help="output file path")
    sc.add_argument("--format", choices=["csv", "json"], default="csv",
                    help="output format (default csv)")
    sc.set_defaults(handler=_cmd_scan)

    pm = sub.add_parser("pmf", help="dump a transmitted-port photocount distribution")
    pm.add_argument("--l", type=int, default=None, help="incident Fock photon number")
    pm.add_argument("--nbar", type=float, default=None, help="thermal mean of the noise port")
    pm.add_argument("--T", type=float, default=None, help="beam-splitter transmittance")
    pm.add_argument("--config", default=None, help="flat key=value file mirroring the flag names")
    pm.set_defaults(handler=_cmd_pmf)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DomainError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
