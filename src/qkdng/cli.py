"""Command line front end: point evaluation, pmf dumps and boundary sweeps.

Every run resolves its full configuration (flags over an optional key=value
config file over a preset over each flag's built-in default) and records it
in a manifest, so results are reproducible without implicit state.  Each
command's flags are declared once, in ``_COMMANDS``.  ``_read`` resolves a
well-formed command line from that table alone; argparse, built from the same
table, judges every other line and writes --help and --version.
"""

from __future__ import annotations

import atexit
import gc
import json
import math
import sys
import time
from collections.abc import Iterable, Iterator
from datetime import datetime, timezone
from itertools import chain, repeat
from pathlib import Path
from types import SimpleNamespace

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
from .scan import (
    ALL_CRITERIA, BoundaryCurve, Criterion, ScanConfig, classify_assessment, sweep,
)

CSV_HEADER = "T,nu_nongauss,nu_bb84,nu_di,capped_nongauss,capped_bb84,capped_di"
CHUNK_T = 4096  # grid values made, swept and written at a time: scan memory stays bounded

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
    """Parse a flat key=value UTF-8 config file mirroring the flag names; a BOM is dropped."""
    if path is None:
        return {}
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
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
        import argparse  # only to report the error; a well-formed line never loads it

        raise argparse.ArgumentTypeError(
            f"must be a comma list drawn from nongauss,bb84,di; got {text}"
        ) from None


def _detector(args: SimpleNamespace) -> DetectorModel:
    """The detector the channel flags describe, after checking --p."""
    check_range("--p", args.p, 0.0, 1.0)
    try:
        return DetectorModel(kind=args.detector, eta=args.eta, dark=args.dark)
    except DomainError as exc:
        raise ConfigurationError(f"--eta/--dark: {exc}") from exc


def _manifest(args: SimpleNamespace, **extra) -> dict:
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


def _cmd_eval(args: SimpleNamespace) -> int:
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


def _chunk(t_min: float, step: float, t_max: float, n: int, start: int) -> list[float]:
    """``np.linspace(t_min, t_max, n).tolist()[start:start + CHUNK_T]`` bit for bit, at ``step``."""
    return [t_max if 0 < k == n - 1 else k * step + t_min
            for k in range(start, min(start + CHUNK_T, n))]


def _sweeps(configs: Iterable[ScanConfig], diagnostics: dict) -> Iterator[BoundaryCurve]:
    """``sweep`` over the chunks' configs in turn, each curve tallied from its columns.

    Every T is independent, so the chunks give the whole grid's boundaries;
    ``diagnostics`` sums their search cost, outcome counts and sweep time.
    """
    for config in configs:
        started = time.perf_counter()
        curve = sweep(config)
        diagnostics["phase_s"]["sweep"] += time.perf_counter() - started
        diagnostics["sweeps"] += 1
        diagnostics["bisection_steps"] = max(diagnostics["bisection_steps"], curve.bisection_steps)
        diagnostics["evaluations"] += curve.evaluations
        diagnostics["boundaries"] += len(curve.criteria) * len(curve.t_grid)
        for outcome in ("capped", "undefined", "monotone_warning"):
            diagnostics[outcome] += sum(sum(getattr(column, outcome)) for column in curve.columns)
        yield curve


def _csv_lines(curves: Iterable[BoundaryCurve]) -> Iterator[str]:
    """The CSV, one row at a time.

    Empty cells where a boundary is undefined or its criterion not scanned:
    plotting tools show a gap, not a false zero.
    """
    yield CSV_HEADER + "\n"
    for curve in curves:
        # (nu_star, capped, undefined) of each CSV criterion; an unscanned one prints as undefined
        columns = [curve.column(c)[:3] if c in curve.criteria
                   else (repeat(0.0), repeat(False), repeat(True)) for c in ALL_CRITERIA]
        for t, nu0, cap0, und0, nu1, cap1, und1, nu2, cap2, und2 in zip(
            curve.t_grid, *columns[0], *columns[1], *columns[2]
        ):
            yield (f"{t!r},{'' if und0 else repr(nu0)},{'' if und1 else repr(nu1)},"
                   f"{'' if und2 else repr(nu2)},{'' if und0 else 'true' if cap0 else 'false'},"
                   f"{'' if und1 else 'true' if cap1 else 'false'},"
                   f"{'' if und2 else 'true' if cap2 else 'false'}\n")


def _json_lines(
    criteria: tuple[Criterion, ...], curves: Iterable[BoundaryCurve]
) -> Iterator[str]:
    """``json.dumps(doc, indent=2) + "\\n"`` of the scan document, one point at a time."""
    names = [c.value for c in criteria]
    # the document around its points, laid out by json itself
    head, tail = json.dumps({"criteria": names, "points": [None]}, indent=2).split("null")
    separator = head
    for curve in curves:
        for t, *bounds in zip(curve.t_grid, *(zip(*column) for column in curve.columns)):
            point = {"T": t, "bounds": {
                name: {"nu_star": None if undefined else nu_star, "capped": capped,
                       "undefined": undefined, "monotone_warning": warning}
                for name, (nu_star, capped, undefined, warning) in zip(names, bounds)
            }}
            yield separator + json.dumps(point, indent=2).replace("\n", "\n    ")
            separator = ",\n    "
    yield tail + "\n"


def _cmd_scan(args: SimpleNamespace) -> int:
    started = time.perf_counter()
    detector = _detector(args)
    n = args.t_points
    if n < 1:
        raise ConfigurationError(f"--t-points must be at least 1, got {n}")
    t_min = check_range("--t-min", args.t_min, 0.0, 1.0)
    t_max = check_range("--t-max", args.t_max, 0.0, 1.0)  # a one-point grid never reaches t_max
    try:  # chunk 0 checks every flag before the output file opens
        step = (t_max - t_min) / max(n - 1, 1)  # as np.linspace forms it
        configs = (ScanConfig(t_grid=_chunk(t_min, step, t_max, n, i), statistics=args.noise,
                              detector=detector, p=args.p, nu_cap=args.nu_cap, tol=args.tol,
                              criteria=args.criteria)
                   for i in range(0, n, CHUNK_T))  # each made when it is swept
        first = next(configs)
        # Later chunks rise if step > 2u, u = ulp(t_max), and value n - 2 < t_max: by monotone
        # rounding, each exact k*step formed, and its rounding plus t_min, is then at most t_max,
        # where rounding moves a number at most u/2: neighbours differ by at least step - 2u > 0.
        if n > CHUNK_T and not (step > 2.0 * math.ulp(t_max) and (n - 2) * step + t_min < t_max):
            raise DomainError("t_grid must be strictly increasing")
    except (DomainError, OverflowError) as exc:  # OverflowError: n - 1 beyond the floats
        flags = "--t-min/--t-max/--t-points/--nu-cap/--tol/--criteria"
        raise ConfigurationError(f"{flags}: {exc}") from exc
    phase_s = {"resolve": time.perf_counter() - started, "sweep": 0.0, "write": 0.0}
    diagnostics = {"sweeps": 0, "bisection_steps": 0, "evaluations": 0, "boundaries": 0,
                   "capped": 0, "undefined": 0, "monotone_warning": 0, "phase_s": phase_s,
                   "python": "{}.{}.{}".format(*sys.version_info[:3]), "numpy": np.__version__}
    curves = _sweeps(chain([first], configs), diagnostics)  # lazy: swept as rows are written
    lines = _csv_lines(curves) if args.format == "csv" else _json_lines(first.criteria, curves)
    out = Path(args.out)
    writing = time.perf_counter()
    fh = out.open("w")
    try:
        with fh:
            fh.writelines(lines)
    except BaseException:
        out.unlink(missing_ok=True)  # a partial file must not pass for a finished scan
        raise
    # the manifest's own write comes after, so it cannot time itself
    phase_s["write"] = time.perf_counter() - writing - phase_s["sweep"]
    manifest = _manifest(args, effective_detector_mapping=DETECTOR_INPUT[first.statistics],
                         out=str(out))
    manifest["diagnostics"] = diagnostics
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


def _cmd_pmf(args: SimpleNamespace) -> int:
    try:
        pmf = photocount_pmf(args.l, args.nbar, args.T)
        probs = pmf.probs
    except DomainError as exc:
        raise ConfigurationError(f"--l/--nbar/--T: {exc}") from exc
    print("s p")
    for s, prob in enumerate(probs):
        print(f"{s} {float(prob)!r}")
    print(f"truncation_tail {float(pmf.truncation_tail)!r}")
    manifest = _manifest(args)
    print(f"manifest {json.dumps(manifest, separators=(',', ':'))}")
    return 0


# every flag, declared once: (option string, add_argument keywords) rows in
# --help order.  _parsers builds argparse from them and _read reads them directly.
_CHANNEL_FLAGS = (
    ("--noise", dict(choices=[s.value for s in NoiseStatistics],
                     help="noise statistics of the channel: thermal or poisson")),
    ("--detector", dict(choices=[k.value for k in DetectorKind],
                        help="detector type: pnrd or spad (either noise statistics)")),
    ("--eta", dict(type=float, default=DetectorModel.eta,
                   help="detector efficiency in [0, 1] (default %(default)s)")),
    ("--dark", dict(type=float, default=DetectorModel.dark,
                    help="dark-count rate per gate (default %(default)s)")),
    ("--p", dict(type=float, default=ChannelConfig.p,
                 help="Werner weight of the source state (default %(default)s)")),
    ("--preset", dict(choices=sorted(PRESETS), help="named channel recipe supplying defaults")),
    ("--config", dict(help="flat key=value file mirroring the flag names")),
)

# command: (help, handler, flag rows)
_COMMANDS = {
    "eval": ("assess a single (T, nu) channel point", _cmd_eval, (
        *_CHANNEL_FLAGS,
        ("--T", dict(type=float, help="coupling transmittance in [0, 1]")),
        ("--nu", dict(type=float, help="mean photon number of the noise")),
    )),
    "scan": ("sweep T and find per-criterion noise boundaries", _cmd_scan, (
        *_CHANNEL_FLAGS,
        ("--t-min", dict(type=float, default=0.02,
                         help="first grid transmittance (default %(default)s)")),
        ("--t-max", dict(type=float, default=1.0,
                         help="last grid transmittance (default %(default)s)")),
        ("--t-points", dict(type=int, default=96, help="grid size (default %(default)s)")),
        ("--nu-cap", dict(type=float, default=ScanConfig.nu_cap,
                          help="largest noise mean searched (default %(default)s)")),
        ("--tol", dict(type=float, default=ScanConfig.tol,
                       help="bisection tolerance on nu (default %(default)s)")),
        ("--criteria", dict(type=_criteria, default="nongauss,bb84,di",
                            help="comma list from nongauss,bb84,di (default %(default)s)")),
        ("--format", dict(choices=_FORMATS, default="csv",
                          help="output format (default %(default)s)")),
        ("--out", dict(required=True, help="output file path")),
    )),
    "pmf": ("dump a transmitted-port photocount distribution", _cmd_pmf, (
        ("--l", dict(type=int, help="incident Fock photon number")),
        ("--nbar", dict(type=float, help="thermal mean of the noise port")),
        ("--T", dict(type=float, help="beam-splitter transmittance")),
        _CHANNEL_FLAGS[-1],  # --config
    )),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _layers(command: str, preset: str | None, config: str | None) -> dict:
    """The preset's values under the --config file's, for ``command``'s own flags.

    Only flags name the preset and the file; dispatch keys and keys naming no
    flag of the command are dropped, so one file can serve every command.
    """
    layers = {**PRESETS.get(preset, {}), **_read_config(config)}
    dests = (_dest(flag) for flag, _ in _COMMANDS[command][2])
    return {k: layers[k] for k in dests if k in layers and k not in _DISPATCH}


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a well-formed command line, built without argparse.

    Reads ``COMMAND --flag value ...``: exact option strings, each once, no
    value starting with "-", explicit values within their choices, every
    required flag given.  Values resolve as flag, then file, then preset, then
    default, and every string goes through its flag's type.  Returns None for
    any other line and wherever a step fails, so argparse judges it.
    """
    if len(argv) % 2 == 0 or argv[0] not in _COMMANDS:
        return None
    _, handler, flags = _COMMANDS[argv[0]]
    options = dict(flags)
    explicit = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        kwargs = options.get(flag)
        if (kwargs is None or flag in explicit or text.startswith("-")
                or text not in kwargs.get("choices", (text,))):
            return None
        explicit[flag] = text
    if any(kwargs.get("required") and flag not in explicit for flag, kwargs in flags):
        return None
    values = {"command": argv[0]}
    try:
        layers = _layers(argv[0], explicit.get("--preset"), explicit.get("--config"))
        for flag, kwargs in flags:
            dest = _dest(flag)
            value = explicit.get(flag, layers.get(dest, kwargs.get("default")))
            if isinstance(value, str):
                value = kwargs.get("type", str)(value)
            values[dest] = value
    except Exception:  # argparse repeats the step that failed and reports it
        return None
    return SimpleNamespace(**values, handler=handler)


def _parsers():
    """The top-level argparse parser and its command parsers by name."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="qkdng",
        description="Non-Gaussianity witness and key-rate assessment of noisy "
                    "entanglement-based QKD links",
    )
    parser.add_argument("--version", action="version", version=f"qkdng {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, kwargs in flags:
            command.add_argument(flag, **kwargs)
        command.set_defaults(handler=handler)
    return parser, sub.choices


def _number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _joined(argv: list[str]) -> list[str]:
    """``argv`` with each table flag and a following negative number made one ``--flag=value``.

    argparse takes ``-0.5`` for a value but ``-1e-3``, ``-1E5`` and ``-inf`` for
    option strings, and would report those values as missing, not out of range.
    """
    flags = {flag for _, _, rows in _COMMANDS.values() for flag, _ in rows}
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in flags and token.startswith("-") and _number(token):
            joined[-1] = f"{joined[-1]}={token}"
        else:
            joined.append(token)
    return joined


def _parse(argv: list[str]) -> SimpleNamespace:
    """argparse's reading of any line: the layers become flag defaults, then it parses again."""
    argv = _joined(argv)
    parser, commands = _parsers()
    args = parser.parse_args(argv)
    layers = _layers(args.command, getattr(args, "preset", None), args.config)
    if layers:
        # explicit flags still win, and strings go through each flag's type
        commands[args.command].set_defaults(**layers)
        args = parser.parse_args(argv)
    return SimpleNamespace(**vars(args))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read(argv) or _parse(argv)
        missing = [f"--{k.replace('_', '-')}" for k, v in vars(args).items()
                   if v is None and k not in _DISPATCH]
        if missing:
            raise ConfigurationError(f"missing required flag {', '.join(missing)}")
        for flag, kwargs in _COMMANDS[args.command][2]:  # file values skip argparse's choices
            choices, value = kwargs.get("choices"), getattr(args, _dest(flag))
            if choices and value is not None and value not in choices:
                raise ConfigurationError(
                    f"{flag} must be one of {', '.join(choices)}, got {value!r}")
        return args.handler(args)
    except (DomainError, ConfigurationError, MemoryError) as exc:
        # MemoryError: a sweep's arrays on a host out of memory; a bare one has no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
