"""One child process of the benchmark, started fresh for every sample.

    python bench/child.py SPANS scan ARGS...     run ``qkdng scan ARGS``
    python bench/child.py SPANS points IN OUT    assess the (T, nu) points in IN

SPANS is ``-`` for an untraced run, or the file that receives the spans of
a traced run.  As soon as ``qkdng`` and ``qkdng.cli`` are imported the child
writes ``bench-setup <time.monotonic()>`` to stderr; the parent subtracts
its own spawn time from it to get the set-up time.

A point run reads a JSON document ``{"eta", "dark", "points": [[t, nu], ...]}``
and writes one JSON row per point: the assessment fields, the region labels
of ``classify_assessment``, or the error a point raised.
"""

import sys
import time


def _points(in_path: str, out_path: str) -> int:
    import json

    from qkdng.channels import ChannelConfig, NoiseModel, assess
    from qkdng.photodetection import DetectorModel
    from qkdng.scan import classify_assessment

    with open(in_path) as fh:
        doc = json.load(fh)
    detector = DetectorModel(kind="pnrd", eta=doc["eta"], dark=doc["dark"])
    rows = []
    for t, nu in doc["points"]:
        try:
            a = assess(ChannelConfig(t=t), NoiseModel(statistics="thermal", nbar=nu), detector)
            labels = classify_assessment(a)
        except Exception as exc:  # a point that raises fails alone; the stream goes on
            rows.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        rows.append({
            "q": a.q, "s": a.s, "p_s": a.stats.p_s, "p_e": a.stats.p_e,
            "passed": a.witness.passed,
            "bb84": a.rates.bb84, "di": a.rates.di, "di_defined": a.rates.di_defined,
            "defined": a.coincidence_defined,
            "region": {protocol.value: label.value for protocol, label in labels.items()},
        })
    with open(out_path, "w") as fh:
        json.dump(rows, fh)
    return 0


def main(argv: list[str]) -> int:
    import qkdng.cli

    print(f"bench-setup {time.monotonic()!r}", file=sys.stderr, flush=True)
    spans, mode, *rest = argv
    tracer = None
    if spans != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if mode == "scan":
            return qkdng.cli.main(["scan", *rest])
        if mode == "points":
            return _points(*rest)
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if tracer is not None:
            tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
