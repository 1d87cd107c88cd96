"""Child processes of a traced run (``run.py --trace 1``).

    worker.py job --out F [--spans P --op I] -- <tgk argv>
        one exhaustive job with the tracer installed before cli.main runs;
        prints what the job prints and exits with its code
    worker.py stream --workload W --seed S (--seconds T | --count K) [--trace] --out F [--spans P]
        a big-trees or small-queries stream in a fresh process, so the
        untraced and traced passes both start with cold caches

Each writes a JSON summary to F; spans are appended to P.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import harness
import spans


def _write(path, payload) -> None:
    with open(path, "w") as f:
        json.dump(payload, f)


def job(args) -> int:
    harness.import_treegamekit()
    from treegamekit import cli

    tracer = spans.Tracer()
    tracer.install()
    tracer.op = args.op
    main = tracer.wrap(cli.main)
    code = 1
    try:
        code = main(args.argv)
    finally:
        _write(args.out, {"code": code, "summary": tracer.summary()})
        if args.spans:
            tracer.write_spans(args.spans)
    return code


def stream(args) -> int:
    harness.import_treegamekit()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    api = harness.make_api(tracer)
    deadline = None if args.seconds is None else time.perf_counter() + args.seconds
    results = harness.run_stream(args.workload, args.seed, api, deadline=deadline,
                                 count=args.count, tracer=tracer)
    payload = {
        "results": results.to_json(),
        "rss_mb": harness.peak_rss_mb(children=False),
        "caches": spans.cache_snapshot(),
        "summary": tracer.summary() if tracer else None,
    }
    _write(args.out, payload)
    if tracer and args.spans:
        tracer.write_spans(args.spans)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("job")
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    p.add_argument("--op", type=int, default=0)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("stream")
    p.add_argument("--workload", required=True, choices=("big-trees", "small-queries"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--count", type=int)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.mode == "job":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return job(args)
    return stream(args)


if __name__ == "__main__":
    sys.exit(main())
