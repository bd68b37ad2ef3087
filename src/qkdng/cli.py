"""Command line front end: point evaluation, pmf dumps and boundary sweeps.

Every run resolves its full configuration (flags over an optional key=value
config file over a preset over each flag's built-in default) and records it
in a manifest, so results are reproducible without implicit state.  The
preset and file layers become argparse defaults of the command's flags, so
argparse does the layering and the type conversion.
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
    DETECTOR_INPUT,
    ChannelConfig,
    NoiseModel,
    NoiseStatistics,
    assess,
)
from .errors import ConfigurationError, DomainError, check_range
from .photodetection import DetectorKind, DetectorModel, photocount_pmf
from .scan import ALL_CRITERIA, Criterion, ScanConfig, classify_assessment, sweep

CSV_HEADER = "T,nu_nongauss,nu_bb84,nu_di,capped_nongauss,capped_bb84,capped_di"

# presets bundle the channel recipes used for the headline boundary figures;
# the poissonian recipe does not fix detector imperfections, so fig5 leaves
# --eta and --dark unset and thus required
PRESETS = {
    "fig3": {"noise": "thermal", "detector": "pnrd", "eta": 1.0, "dark": 0.0, "p": 1.0},
    "fig4": {"noise": "thermal", "detector": "pnrd", "eta": 0.7, "dark": 0.001, "p": 1.0},
    "fig5": {"noise": "poisson", "detector": "spad", "eta": None, "dark": None, "p": 1.0},
}

# namespace entries that steer the run rather than describe it
_DISPATCH = ("command", "handler", "preset", "config")
_FORMATS = ("csv", "json")

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


def _criteria(text: str) -> tuple[Criterion, ...]:
    try:
        return tuple(Criterion(name.strip()) for name in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a comma list drawn from nongauss,bb84,di; got {text}"
        ) from None


def _detector(args: argparse.Namespace) -> DetectorModel:
    """The detector the channel flags describe, after checking --p."""
    check_range("--p", args.p, 0.0, 1.0)
    try:
        return DetectorModel(kind=args.detector, eta=args.eta, dark=args.dark)
    except DomainError as exc:
        raise ConfigurationError(f"--eta/--dark: {exc}") from exc


def _manifest(args: argparse.Namespace, **extra) -> dict:
    """The run's record: every resolved flag of the command, plus ``extra``."""
    parameters = {k: v for k, v in vars(args).items() if k not in _DISPATCH}
    return {
        "tool": "qkdng",
        "version": __version__,
        "command": args.command,
        "generated_utc": datetime.now(timezone.utc).isoformat(),
        "parameters": {**parameters, **extra},
    }


def _json_num(x: float):
    return None if x != x else x  # NaN marks undefined quantities; JSON gets null


def _cmd_eval(args: argparse.Namespace) -> int:
    detector = _detector(args)
    try:
        cfg = ChannelConfig(t=args.T, p=args.p)
        noise = NoiseModel(statistics=args.noise, nbar=args.nu)
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
        "manifest": _manifest(args,
                              effective_detector_mapping=DETECTOR_INPUT[noise.statistics]),
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
    detector = _detector(args)
    if args.format not in _FORMATS:  # a --config value skips argparse's choices
        raise ConfigurationError(f"--format must be csv or json, got {args.format}")
    if args.t_points < 1:
        raise ConfigurationError(f"--t-points must be at least 1, got {args.t_points}")
    check_range("--t-min", args.t_min, 0.0, 1.0)
    check_range("--t-max", args.t_max, 0.0, 1.0)  # a one-point grid never reaches t_max
    grid = tuple(np.linspace(args.t_min, args.t_max, args.t_points))
    try:
        config = ScanConfig(
            t_grid=grid,
            statistics=args.noise,
            detector=detector,
            p=args.p,
            nu_cap=args.nu_cap,
            tol=args.tol,
            criteria=args.criteria,
        )
    except DomainError as exc:
        raise ConfigurationError(
            f"--t-min/--t-max/--t-points/--nu-cap/--tol/--criteria: {exc}"
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
    manifest = _manifest(args, effective_detector_mapping=DETECTOR_INPUT[config.statistics],
                         out=str(out))
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
    try:
        pmf = photocount_pmf(args.l, args.nbar, args.T)
        probs = pmf.probs
    except DomainError as exc:
        raise ConfigurationError(f"--l/--nbar/--T: {exc}") from exc
    print("s p")
    for s, prob in enumerate(probs):
        print(f"{s} {_fmt(prob)}")
    print(f"truncation_tail {_fmt(pmf.truncation_tail)}")
    manifest = _manifest(args)
    print(f"manifest {json.dumps(manifest, separators=(',', ':'))}")
    return 0


def _add_common_channel_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--noise", type=NoiseStatistics,
                     help="noise statistics of the channel: thermal or poisson")
    sub.add_argument("--detector", type=DetectorKind,
                     help="detector type: pnrd or spad (either noise statistics)")
    sub.add_argument("--eta", type=float, default=DetectorModel.eta,
                     help="detector efficiency in [0, 1] (default %(default)s)")
    sub.add_argument("--dark", type=float, default=DetectorModel.dark,
                     help="dark-count rate per gate (default %(default)s)")
    sub.add_argument("--p", type=float, default=ChannelConfig.p,
                     help="Werner weight of the source state (default %(default)s)")
    sub.add_argument("--preset", choices=sorted(PRESETS),
                     help="named channel recipe supplying defaults")
    sub.add_argument("--config", help="flat key=value file mirroring the flag names")


def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="qkdng",
        description="Non-Gaussianity witness and key-rate assessment of noisy "
                    "entanglement-based QKD links",
    )
    parser.add_argument("--version", action="version", version=f"qkdng {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="assess a single (T, nu) channel point")
    _add_common_channel_flags(ev)
    ev.add_argument("--T", type=float, help="coupling transmittance in [0, 1]")
    ev.add_argument("--nu", type=float, help="mean photon number of the noise")
    ev.set_defaults(handler=_cmd_eval)

    sc = sub.add_parser("scan", help="sweep T and find per-criterion noise boundaries")
    _add_common_channel_flags(sc)
    sc.add_argument("--t-min", type=float, default=0.02,
                    help="first grid transmittance (default %(default)s)")
    sc.add_argument("--t-max", type=float, default=1.0,
                    help="last grid transmittance (default %(default)s)")
    sc.add_argument("--t-points", type=int, default=96, help="grid size (default %(default)s)")
    sc.add_argument("--nu-cap", type=float, default=ScanConfig.nu_cap,
                    help="largest noise mean searched (default %(default)s)")
    sc.add_argument("--tol", type=float, default=ScanConfig.tol,
                    help="bisection tolerance on nu (default %(default)s)")
    sc.add_argument("--criteria", type=_criteria, default="nongauss,bb84,di",
                    help="comma list from nongauss,bb84,di (default %(default)s)")
    sc.add_argument("--format", choices=_FORMATS, default="csv",
                    help="output format (default %(default)s)")
    sc.add_argument("--out", required=True, help="output file path")
    sc.set_defaults(handler=_cmd_scan)

    pm = sub.add_parser("pmf", help="dump a transmitted-port photocount distribution")
    pm.add_argument("--l", type=int, help="incident Fock photon number")
    pm.add_argument("--nbar", type=float, help="thermal mean of the noise port")
    pm.add_argument("--T", type=float, help="beam-splitter transmittance")
    pm.add_argument("--config", help="flat key=value file mirroring the flag names")
    pm.set_defaults(handler=_cmd_pmf)
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    parser, commands = _parsers()
    args = parser.parse_args(argv)
    try:
        flags = [k for k in vars(args) if k not in _DISPATCH]
        layers = {**PRESETS.get(getattr(args, "preset", None), {}), **_read_config(args.config)}
        if layers:
            # preset and file values become the command's flag defaults: explicit
            # flags still win, strings go through each flag's type, other keys drop
            commands[args.command].set_defaults(**{k: layers[k] for k in flags if k in layers})
            args = parser.parse_args(argv)
        missing = [f"--{k.replace('_', '-')}" for k in flags if getattr(args, k) is None]
        if missing:
            raise ConfigurationError(f"missing required flag {', '.join(missing)}")
        return args.handler(args)
    except (DomainError, ConfigurationError, MemoryError) as exc:
        # MemoryError: a grid too large to allocate; a bare one has no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
