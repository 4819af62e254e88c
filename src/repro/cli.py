"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``predict FILE``      symbolic cost of a mini-Fortran program
``compare A B``       symbolic comparison of two programs
``restructure FILE``  performance-guided A* restructuring
``kernels``           the Figure 7 table (predicted vs reference)
``machines``          registered machine descriptions
``serve``             run one HTTP/JSON prediction backend
``route``             run the consistent-hash shard router over N backends
``top``               live per-shard request/latency/SLO table
``trace fetch``       pull one request's stitched Chrome trace

``predict``, ``compare``, and ``kernels`` take ``--json`` to emit the
service wire format (see :mod:`repro.service.protocol`) instead of
human-readable text, so scripted callers get a stable schema.

``restructure`` can also run against a live service:
``--server URL`` sends the search to a backend (or router), and adding
``--async`` submits it as a background *job* -- the command prints the
job id immediately, ``--follow`` streams best-so-far candidates per
beam round, and ``--job-id`` re-attaches to a job submitted earlier.
``serve --job-store DIR`` enables the job subsystem on a backend;
shards sharing one store directory resume each other's jobs after a
crash.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import (
    AGGRESSIVE_BACKEND,
    NAIVE_BACKEND,
    compare,
    get_machine,
    machine_names,
    parse_program,
    predict,
    print_program,
    region_report,
)
from .symbolic import Interval

__all__ = ["main"]


def _parse_bindings(text: str | None) -> dict[str, Fraction]:
    """``n=100,m=50`` -> {"n": 100, "m": 50}."""
    if not text:
        return {}
    out: dict[str, Fraction] = {}
    for item in text.split(","):
        name, _, value = item.partition("=")
        if not value:
            raise SystemExit(f"bad binding {item!r}; expected name=value")
        try:
            out[name.strip()] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise SystemExit(f"bad binding {item!r}; {value.strip()!r} "
                             "is not a number")
    return out


def _parse_domain(text: str | None) -> dict[str, Interval]:
    """``n=1:1000,m=0:50`` -> interval bounds per variable."""
    if not text:
        return {}
    out: dict[str, Interval] = {}
    for item in text.split(","):
        name, _, span = item.partition("=")
        lo, _, hi = span.partition(":")
        if not hi:
            raise SystemExit(f"bad domain {item!r}; expected name=lo:hi")
        out[name.strip()] = Interval(Fraction(lo), Fraction(hi))
    return out


def _load(path: str):
    try:
        with open(path) as handle:
            return parse_program(handle.read())
    except OSError as error:
        raise SystemExit(f"cannot read {path}: {error}")


def _flags(name: str):
    if name == "aggressive":
        return AGGRESSIVE_BACKEND
    if name == "naive":
        return NAIVE_BACKEND
    raise SystemExit(f"unknown backend flags {name!r}")


def _read_source(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as error:
        raise SystemExit(f"cannot read {path}: {error}")


def _emit_json(kind: str, payload: dict) -> int:
    """Run one request inline through the service engine and print it."""
    from .service import PredictionEngine

    result = PredictionEngine(workers=0, cache_size=1).handle(kind, payload)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 1 if "error" in result else 0


def _emit_predict_tiered(payload: dict, store: str | None) -> int:
    """Run one fast/auto predict through an engine with a surrogate.

    A persisted model artifact (``--surrogate-store``) makes the fast
    tier answer immediately; without one the request falls through to
    exact (the response then has no ``fidelity`` field).
    """
    from .learn import Surrogate, SurrogateConfig, extract_static
    from .service import PredictionEngine

    surrogate = Surrogate(SurrogateConfig(store=store, background=False))
    engine = PredictionEngine(workers=0, cache_size=1, surrogate=surrogate)
    try:
        # a one-shot process starts with a cold feature memo; warm it
        # so the fast tier can answer (invalid sources fall through and
        # get the engine's proper error envelope)
        try:
            extract_static(payload["source"], payload.get("machine", "power"),
                           payload.get("backend", "aggressive"),
                           bool(payload.get("include_memory", False)))
        except Exception:  # noqa: BLE001
            pass
        result = engine.handle("predict", payload)
    finally:
        engine.close()
    print(json.dumps(result, indent=2, sort_keys=True))
    return 1 if "error" in result else 0


def _cmd_surrogate_train(args: argparse.Namespace) -> int:
    """Offline bootstrap: fit models from a persisted result-cache file."""
    from .learn import train_from_cache

    try:
        summary = train_from_cache(
            args.cache,
            store=args.store,
            coverage=args.coverage,
            min_samples=args.min_samples,
        )
    except OSError as error:
        raise SystemExit(f"surrogate train failed: {error}")
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if summary["models"] else 1


def _apply_kernel(args: argparse.Namespace) -> None:
    """Honor ``--kernel`` by switching this process's placement kernel."""
    kernel = getattr(args, "kernel", None)
    if kernel:
        from .cost import set_placement_kernel

        set_placement_kernel(kernel)


def _domain_json(text: str | None) -> dict[str, list[str]] | None:
    domain = _parse_domain(text)
    if not domain:
        return None
    return {k: [str(v.lo), str(v.hi)] for k, v in domain.items()}


def _cmd_predict(args: argparse.Namespace) -> int:
    _apply_kernel(args)
    fidelity = getattr(args, "fidelity", "exact")
    if args.json or fidelity != "exact":
        bindings = _parse_bindings(args.at)
        payload = {
            "source": _read_source(args.file),
            "machine": args.machine,
            "backend": args.backend,
            "include_memory": bool(args.memory),
            **({"bindings": {k: str(v) for k, v in bindings.items()}}
               if bindings else {}),
        }
        if fidelity != "exact":
            payload["fidelity"] = fidelity
            if args.tolerance is not None:
                payload["tolerance"] = args.tolerance
            return _emit_predict_tiered(payload, args.surrogate_store)
        return _emit_json("predict", payload)
    program = _load(args.file)
    cost = predict(
        program,
        machine=args.machine,
        flags=_flags(args.backend),
        include_memory=args.memory,
    )
    print(f"cost[{args.machine}] = {cost}")
    bindings = _parse_bindings(args.at)
    if bindings:
        value = cost.evaluate(bindings)
        point = ", ".join(f"{k}={v}" for k, v in bindings.items())
        print(f"  at {point}: {value} cycles")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    _apply_kernel(args)
    if args.json:
        domain = _domain_json(args.domain)
        return _emit_json("compare", {
            "first": _read_source(args.first),
            "second": _read_source(args.second),
            "machine": args.machine,
            **({"domain": domain} if domain else {}),
        })
    cost_a = predict(_load(args.first), machine=args.machine)
    cost_b = predict(_load(args.second), machine=args.machine)
    print(f"A = {cost_a}")
    print(f"B = {cost_b}")
    result = compare(cost_a, cost_b, domain=_parse_domain(args.domain) or None)
    print(region_report(result))
    return 0


def _cmd_restructure(args: argparse.Namespace) -> int:
    if args.server or args.job_id:
        return _remote_restructure(args)
    if args.async_ or args.follow:
        raise SystemExit("--async/--follow need --server URL "
                         "(jobs run on a service, not inline)")
    from .aggregate import CostAggregator
    from .ir import SymbolTable
    from .transform import (
        Distribute,
        Fuse,
        IncrementalPredictor,
        Interchange,
        ReorderStatements,
        StripMine,
        Unroll,
        UnrollAndJam,
        astar_search,
    )

    program = _load(args.file)
    machine = get_machine(args.machine)
    predictor = IncrementalPredictor(
        CostAggregator(machine, SymbolTable.from_program(program))
    )
    workload = {
        k: int(v) for k, v in _parse_bindings(args.workload).items()
    } or None
    result = astar_search(
        program,
        [Unroll(factors=(2, 4)), UnrollAndJam(factors=(2, 4)),
         Interchange(), StripMine(tiles=(16,)),
         Fuse(), Distribute(), ReorderStatements()],
        predictor,
        workload=workload,
        max_depth=args.depth,
        max_nodes=args.max_nodes,
        domain=_parse_domain(args.domain) or None,
        beam_width=args.beam_width,
        search_workers=args.search_workers,
    )
    print(f"sequence: {result.sequence}")
    print(f"cost: {result.cost}")
    print(print_program(result.program))
    return 0


def _remote_restructure(args: argparse.Namespace) -> int:
    """``restructure --server URL [--async [--follow]] [--job-id ID]``."""
    from .service import ReproClient, ReproClientError

    if not args.server:
        raise SystemExit("--job-id needs --server URL")
    client = ReproClient(args.server)
    try:
        if not args.async_ and not args.job_id:
            # Plain synchronous remote search.
            response = client.restructure(
                _read_source(args.file), machine=args.machine,
                workload={k: str(v) for k, v in
                          _parse_bindings(args.workload).items()} or None,
                domain=_domain_json(args.domain),
                depth=args.depth, max_nodes=args.max_nodes,
                beam_width=args.beam_width)
            print(f"sequence: {response.sequence}")
            print(f"cost: {response.cost}")
            print(response.program)
            return 0
        if args.job_id:
            job_id = args.job_id
        else:
            submitted = client.submit_restructure(
                _read_source(args.file), machine=args.machine,
                workload={k: str(v) for k, v in
                          _parse_bindings(args.workload).items()} or None,
                domain=_domain_json(args.domain),
                depth=args.depth, max_nodes=args.max_nodes,
                beam_width=args.beam_width, priority=args.priority)
            job_id = submitted.job_id
            print(f"job: {job_id} ({submitted.status})")
        if not args.follow:
            if not args.job_id:
                return 0
            status = client.job_status(job_id)
            print(f"job: {job_id} ({status.status}, "
                  f"round {status.rounds})")
            if status.result:
                print(f"sequence: {status.result.get('sequence')}")
                print(f"cost: {status.result.get('cost')}")
            return 0
        for event in client.follow(job_id):
            if event.get("final"):
                print(f"final: {event.get('status')} "
                      f"after {event.get('round')} round(s)")
            else:
                print(f"round {event.get('round')}: "
                      f"{event.get('best_sequence') or '(original)'} "
                      f"-> {event.get('best_cost')}")
        status = client.wait(job_id, timeout=30)
        if status.result:
            print(f"sequence: {status.result.get('sequence')}")
            print(f"cost: {status.result.get('cost')}")
            print(status.result.get("program", ""))
        return 0
    except ReproClientError as error:
        raise SystemExit(f"restructure job failed: {error}")
    finally:
        client.close()


def _cmd_kernels(args: argparse.Namespace) -> int:
    if args.json:
        return _emit_json("kernels", {"machine": args.machine})
    from .backend import simulate
    from .bench import kernel, kernel_names, kernel_stream
    from .cost import StraightLineEstimator

    machine = get_machine(args.machine)
    estimator = StraightLineEstimator(machine)
    print(f"{'kernel':8s} {'predicted':>9s} {'reference':>9s} {'error':>8s}")
    for name in kernel_names():
        info = kernel_stream(kernel(name), machine)
        predicted = estimator.estimate(info.stream).cycles
        iterative = [i for i in info.stream if not i.one_time]
        reference = simulate(machine, iterative).cycles
        error = 100 * (predicted - reference) / reference
        print(f"{name:8s} {predicted:9d} {reference:9d} {error:+7.1f}%")
    return 0


def _cmd_machines(args: argparse.Namespace) -> int:
    for name in machine_names():
        print(get_machine(name))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .calib import (
        RecordedOracle,
        SimulatorOracle,
        calibrate_machine,
        make_probe_family,
        record_fixture,
        register_calibrated,
        result_to_payload,
        save_cost_table,
    )

    machine = get_machine(args.machine)
    if args.oracle == "simulator":
        oracle = SimulatorOracle(get_machine(args.truth or args.machine))
    else:
        try:
            oracle = RecordedOracle.from_file(args.oracle)
        except ValueError as error:
            raise SystemExit(str(error))
    try:
        result = calibrate_machine(machine, oracle, name=args.name)
    except ValueError as error:
        raise SystemExit(f"calibration failed: {error}")
    if args.record_fixture:
        _, probes = make_probe_family(machine)
        record_fixture(oracle, probes, args.record_fixture)
    if args.out:
        payload = save_cost_table(result, args.out)
        register_calibrated(payload)
    if args.json:
        print(json.dumps(result_to_payload(result), indent=2,
                         sort_keys=True))
        return 0
    print(f"calibrated {result.machine.name} against {result.oracle_id}")
    print(f"  probes: {result.probes}  "
          f"mean abs residual: {result.mean_abs_residual:.3f} cycles  "
          f"mean rel error: {100 * result.mean_relative_error:.2f}%")
    print(f"  fingerprint: {result.machine.fingerprint()}")
    if args.out:
        print(f"  artifact: {args.out} (registered as "
              f"{result.machine.name!r})")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    widths = None
    if args.widths:
        try:
            widths = tuple(int(w) for w in args.widths.split(","))
        except ValueError:
            raise SystemExit(f"bad --widths {args.widths!r}; "
                             "expected e.g. 1,2,4,8")
    machine = args.machine
    if args.table:
        from .calib import ArtifactError, register_calibrated

        try:
            machine = register_calibrated(args.table)
        except ArtifactError as error:
            raise SystemExit(str(error))
    if args.json:
        bindings = _parse_bindings(args.at)
        return _emit_json("sweep", {
            "source": _read_source(args.file),
            "machine": machine,
            **({"widths": list(widths)} if widths else {}),
            **({"bindings": {k: str(v) for k, v in bindings.items()}}
               if bindings else {}),
            **({"branch_miss_rate": args.branch_miss_rate}
               if args.branch_miss_rate else {}),
            **({"cache_miss_rate": args.cache_miss_rate}
               if args.cache_miss_rate else {}),
        })
    from .sweep import sweep_program

    try:
        outcome = sweep_program(
            _load(args.file),
            machine=machine,
            widths=widths,
            bindings=_parse_bindings(args.at),
            branch_miss_rate=args.branch_miss_rate,
            cache_miss_rate=args.cache_miss_rate,
        )
    except (KeyError, ValueError) as error:
        raise SystemExit(f"sweep failed: {error}")
    print(f"sweep[{outcome.machine}] N = {outcome.instructions:g} "
          "instructions")
    print(f"{'width':>5s} {'cycles':>12s} {'ipc':>7s} "
          f"{'placement':>10s} {'penalty':>8s}")
    for point in outcome.points:
        print(f"{point.width:5d} {point.cycles:12.1f} {point.ipc:7.2f} "
              f"{point.placement_cycles:10.1f} {point.penalty_cycles:8.1f}")
    print(f"saturates at width {outcome.saturation_width}")
    return 0


def _load_slo(path: str | None):
    if not path:
        return None
    from .obs.slo import load_slo_config

    try:
        return load_slo_config(path)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        raise SystemExit(f"bad --slo-config {path}: {error}")


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import PredictionEngine, run_server

    surrogate = None
    if args.surrogate:
        from .learn import Surrogate, SurrogateConfig

        store = args.surrogate_store
        if store is None and args.cache_file:
            store = args.cache_file + ".surrogate.json"
        surrogate = Surrogate(SurrogateConfig(
            coverage=args.surrogate_coverage,
            min_samples=args.surrogate_min_samples,
            retrain_every=args.surrogate_retrain_every,
            drift_threshold=args.surrogate_drift_threshold,
            default_tolerance=args.surrogate_tolerance,
            store=store,
        ))
    engine = PredictionEngine(
        workers=args.workers,
        cache_size=args.cache_size,
        cache_path=args.cache_file,
        executor=args.executor,
        scheduling=args.scheduling,
        surrogate=surrogate,
    )
    if args.job_store:
        # Fork the worker pool *before* the job runner threads exist --
        # forking a threaded process is how deadlocks are made.
        engine.start_workers()
        engine.attach_jobs(
            args.job_store,
            slots=args.job_slots or None,
            stale_after=args.job_stale_seconds,
        )
    run_server(
        engine,
        host=args.host,
        port=args.port,
        tracing=not args.no_tracing,
        slow_request_seconds=args.slow_request_seconds,
        shard_of=args.shard_of,
        slo=_load_slo(args.slo_config),
    )
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    from .service.router import run_router

    backends = [url.strip() for url in (args.backends or "").split(",")
                if url.strip()]
    spawned = []
    if args.spawn:
        from .service.cluster import spawn_backends

        spawned = spawn_backends(args.spawn, workers=args.spawn_workers)
        backends.extend(backend.url for backend in spawned)
        for backend in spawned:
            print(f"spawned backend {backend.url} (pid {backend.process.pid})",
                  flush=True)
    if not backends:
        raise SystemExit("route needs --backends URL[,URL...] and/or "
                         "--spawn N")
    try:
        run_router(
            backends,
            host=args.host,
            port=args.port,
            vnodes=args.vnodes,
            retries=args.retries,
            probe_interval=args.probe_interval,
            forward_timeout=args.forward_timeout,
            local_fallback=not args.no_local_fallback,
            digest_memo_size=args.digest_memo_size,
            tracing=not args.no_tracing,
            slo=_load_slo(args.slo_config),
        )
    finally:
        for backend in spawned:
            backend.terminate()
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Poll ``/metrics/cluster`` (or ``/metrics`` against a plain
    server) and render the per-shard request/latency/SLO table."""
    from .obs.aggregate import (
        format_top,
        slo_rows_from_exposition,
        summarize_cluster,
        surrogate_rows_from_exposition,
    )
    from .service import BadRequestError, ReproClient, ReproClientError

    client = ReproClient(args.server)
    shown = 0
    try:
        while True:
            try:
                try:
                    text = client.cluster_metrics()
                except BadRequestError:
                    # Plain backend, no cluster endpoint: single-shard view.
                    text = client.metrics()
            except ReproClientError as error:
                raise SystemExit(f"top failed: {error}")
            slo_rows = slo_rows_from_exposition(text)
            surrogate_rows = surrogate_rows_from_exposition(text)
            print(format_top(summarize_cluster(text),
                             slo_rows=slo_rows or None,
                             surrogate_rows=surrogate_rows or None),
                  flush=True)
            shown += 1
            if args.iterations and shown >= args.iterations:
                return 0
            time.sleep(args.interval)
            print()
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()


def _cmd_trace_fetch(args: argparse.Namespace) -> int:
    from .service import ReproClient, ReproClientError

    client = ReproClient(args.server)
    try:
        data = client.debug_trace(
            args.request_id, fmt="spans" if args.spans else "chrome")
    except ReproClientError as error:
        raise SystemExit(f"trace fetch failed: {error}")
    finally:
        client.close()
    rendered = json.dumps(data, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"trace written to {args.output}", file=sys.stderr)
    else:
        print(rendered)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compile-time performance prediction (Wang, PLDI 1994)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="symbolic cost of a program")
    p.add_argument("file")
    p.add_argument("--machine", default="power", choices=machine_names())
    p.add_argument("--backend", default="aggressive",
                   choices=("aggressive", "naive"))
    p.add_argument("--memory", action="store_true",
                   help="include cache/TLB cost terms")
    p.add_argument("--at", help="evaluate at a point, e.g. n=100,m=50")
    p.add_argument("--fidelity", default="exact",
                   choices=("exact", "fast", "auto"),
                   help="serving tier: exact pipeline, learned fast "
                        "path, or auto (fast only within tolerance)")
    p.add_argument("--tolerance", type=float, default=None,
                   help="auto tier's relative interval-width ceiling")
    p.add_argument("--surrogate-store", metavar="FILE", default=None,
                   help="surrogate model artifact for --fidelity fast/auto")
    p.add_argument("--kernel", default=None,
                   choices=("fused", "legacy"),
                   help="placement kernel (default: fused; legacy is "
                        "the bit-identical reference)")
    p.add_argument("--json", action="store_true",
                   help="emit the service wire format")
    p.add_argument("--trace", metavar="FILE",
                   help="write a Chrome trace_event JSON of the run")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("compare", help="compare two programs symbolically")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--machine", default="power", choices=machine_names())
    p.add_argument("--domain", help="bounds, e.g. n=1:1000")
    p.add_argument("--kernel", default=None,
                   choices=("fused", "legacy"),
                   help="placement kernel (default: fused; legacy is "
                        "the bit-identical reference)")
    p.add_argument("--json", action="store_true",
                   help="emit the service wire format")
    p.add_argument("--trace", metavar="FILE",
                   help="write a Chrome trace_event JSON of the run")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("restructure", help="performance-guided A* search")
    p.add_argument("file")
    p.add_argument("--machine", default="power", choices=machine_names())
    p.add_argument("--workload", help="evaluation point, e.g. n=256")
    p.add_argument("--domain", help="bounds for symbolic mode")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--max-nodes", type=int, default=200)
    p.add_argument("--beam-width", type=int, default=1,
                   help="nodes expanded per search round (batched together)")
    p.add_argument("--search-workers", type=int, default=0,
                   help="worker processes for candidate evaluation "
                        "(0/1 = inline)")
    p.add_argument("--server", metavar="URL",
                   help="run the search on a live service (backend or "
                        "router) instead of inline")
    p.add_argument("--async", dest="async_", action="store_true",
                   help="submit as a background job (needs --server); "
                        "prints the job id immediately")
    p.add_argument("--follow", action="store_true",
                   help="stream best-so-far candidates per beam round "
                        "until the job finishes")
    p.add_argument("--priority", type=int, default=0,
                   help="job priority, -10..10 (higher runs first)")
    p.add_argument("--job-id", metavar="ID",
                   help="attach to an existing job instead of submitting")
    p.add_argument("--trace", metavar="FILE",
                   help="write a Chrome trace_event JSON of the run")
    p.set_defaults(func=_cmd_restructure)

    p = sub.add_parser("kernels", help="the Figure 7 table")
    p.add_argument("--machine", default="power", choices=machine_names())
    p.add_argument("--json", action="store_true",
                   help="emit the service wire format")
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser("machines", help="list machine descriptions")
    p.set_defaults(func=_cmd_machines)

    p = sub.add_parser(
        "calibrate",
        help="fit a machine's cost table against a cycle oracle")
    p.add_argument("--machine", default="power", choices=machine_names(),
                   help="structural machine: ops, units, pipe counts")
    p.add_argument("--truth", default=None, choices=machine_names(),
                   help="simulator-oracle truth machine "
                        "(default: --machine itself)")
    p.add_argument("--oracle", default="simulator", metavar="SOURCE",
                   help="'simulator' or a recorded fixture JSON path")
    p.add_argument("--name", default=None,
                   help="name for the calibrated machine "
                        "(default: <machine>-calib)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the cost-table artifact JSON here "
                        "(and register the machine)")
    p.add_argument("--record-fixture", metavar="FILE", default=None,
                   help="also write the probe measurements as a "
                        "replayable fixture")
    p.add_argument("--json", action="store_true",
                   help="emit the artifact payload as JSON")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser(
        "sweep", help="evaluate a program across a width ladder")
    p.add_argument("file")
    p.add_argument("--machine", default="power",
                   help="base machine for the width family "
                        "(any registered name)")
    p.add_argument("--table", metavar="FILE", default=None,
                   help="calibrated cost-table artifact to sweep instead "
                        "of --machine")
    p.add_argument("--widths", default=None,
                   help="comma-separated ladder, e.g. 1,2,4,8 "
                        "(default: 1,2,4,6,8)")
    p.add_argument("--at", help="evaluate at a point, e.g. n=100,m=50")
    p.add_argument("--branch-miss-rate", type=float, default=0.0,
                   help="per-instruction branch mispredict rate in [0,1]")
    p.add_argument("--cache-miss-rate", type=float, default=0.0,
                   help="per-instruction cache miss rate in [0,1]")
    p.add_argument("--json", action="store_true",
                   help="emit the service wire format")
    p.add_argument("--trace", metavar="FILE",
                   help="write a Chrome trace_event JSON of the run")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("serve", help="run the HTTP/JSON prediction service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes (0/1 = inline execution)")
    p.add_argument("--cache-size", type=int, default=1024,
                   help="max resident result-cache entries")
    p.add_argument("--cache-file",
                   help="JSON-lines persistence file for warm restarts")
    p.add_argument("--executor", default="auto",
                   choices=("auto", "process", "thread", "sync"))
    p.add_argument("--scheduling", default="weighted",
                   choices=("weighted", "naive"),
                   help="batch scheduling: group light requests and split "
                        "heavy restructures (weighted) or one task per "
                        "request (naive)")
    p.add_argument("--slow-request-seconds", type=float, default=1.0,
                   help="log requests slower than this, with their span tree")
    p.add_argument("--no-tracing", action="store_true",
                   help="disable per-request tracing spans")
    p.add_argument("--shard-of", metavar="INDEX/COUNT",
                   help="shard identity when running behind the router, "
                        "e.g. 0/3 (shown in /healthz and metrics)")
    p.add_argument("--job-store", metavar="DIR",
                   help="enable async restructure jobs, persisting "
                        "records/events/checkpoints in DIR (shards "
                        "sharing a DIR resume each other's jobs)")
    p.add_argument("--job-slots", type=int, default=0,
                   help="concurrent job runners (default: workers-1, "
                        "min 1)")
    p.add_argument("--job-stale-seconds", type=float, default=5.0,
                   help="heartbeat age after which another shard may "
                        "adopt a job")
    p.add_argument("--surrogate", action="store_true",
                   help="enable the learned fast tier "
                        "(serves fidelity=fast/auto predicts)")
    p.add_argument("--surrogate-store", metavar="FILE", default=None,
                   help="surrogate model artifact path (defaults to "
                        "<cache-file>.surrogate.json when --cache-file "
                        "is set)")
    p.add_argument("--surrogate-coverage", type=float, default=0.9,
                   help="nominal conformal interval coverage")
    p.add_argument("--surrogate-min-samples", type=int, default=40,
                   help="harvested samples before the first fit")
    p.add_argument("--surrogate-retrain-every", type=int, default=64,
                   help="fresh samples between periodic refits")
    p.add_argument("--surrogate-drift-threshold", type=float, default=1.0,
                   help="rolling |error|/half-width that forces a refit")
    p.add_argument("--surrogate-tolerance", type=float, default=0.1,
                   help="auto tier's default relative-width ceiling")
    p.add_argument("--slo-config", metavar="FILE",
                   help="JSON latency/error objectives; exports "
                        "repro_slo_* burn-rate gauges on /metrics")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "surrogate", help="learned fast-tier model management")
    surrogate_sub = p.add_subparsers(dest="surrogate_command", required=True)
    p = surrogate_sub.add_parser(
        "train",
        help="bootstrap surrogate models offline from a cache file")
    p.add_argument("--cache", required=True, metavar="FILE",
                   help="JSONL result-cache file written by "
                        "'repro serve --cache-file'")
    p.add_argument("--store", metavar="FILE", default=None,
                   help="write the fitted model artifact here")
    p.add_argument("--coverage", type=float, default=0.9,
                   help="nominal conformal interval coverage")
    p.add_argument("--min-samples", type=int, default=24,
                   help="skip machines with fewer harvested samples")
    p.set_defaults(func=_cmd_surrogate_train)

    p = sub.add_parser(
        "route", help="run the consistent-hash shard router")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--backends", metavar="URL[,URL...]",
                   help="backend base URLs, e.g. "
                        "http://10.0.0.1:8081,http://10.0.0.2:8081")
    p.add_argument("--spawn", type=int, default=0, metavar="N",
                   help="also spawn N local backend processes on "
                        "ephemeral ports and route over them")
    p.add_argument("--spawn-workers", type=int, default=0,
                   help="worker processes per spawned backend")
    p.add_argument("--vnodes", type=int, default=64,
                   help="virtual nodes per backend on the hash ring")
    p.add_argument("--retries", type=int, default=2,
                   help="max additional ring replicas tried per request")
    p.add_argument("--probe-interval", type=float, default=2.0,
                   help="seconds between backend /healthz probes")
    p.add_argument("--forward-timeout", type=float, default=30.0,
                   help="per-forward timeout in seconds")
    p.add_argument("--no-local-fallback", action="store_true",
                   help="return 503 instead of serving inline when every "
                        "backend is down")
    p.add_argument("--digest-memo-size", type=int, default=4096,
                   help="max resident source->digest memo entries "
                        "(LRU; evictions show up in /metrics)")
    p.add_argument("--no-tracing", action="store_true",
                   help="disable per-request tracing spans and "
                        "traceparent propagation to shards")
    p.add_argument("--slo-config", metavar="FILE",
                   help="JSON latency/error objectives; exports "
                        "repro_slo_* burn-rate gauges on /metrics")
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("top", help="live per-shard request/latency table")
    p.add_argument("server", metavar="URL",
                   help="router (or single server) base URL")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between refreshes")
    p.add_argument("--iterations", type=int, default=0, metavar="N",
                   help="stop after N refreshes (0 = run until Ctrl-C)")
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser("trace", help="stitched traces from a live service")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    p = trace_sub.add_parser(
        "fetch", help="fetch one request's stitched Chrome trace")
    p.add_argument("request_id")
    p.add_argument("--server", metavar="URL", required=True,
                   help="router (or single server) base URL")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the JSON here instead of stdout")
    p.add_argument("--spans", action="store_true",
                   help="raw span dicts instead of a Chrome trace object")
    p.set_defaults(func=_cmd_trace_fetch)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return args.func(args)

    from .obs import Tracer, trace_span, write_chrome_trace

    tracer = Tracer()
    with tracer.activate():
        with trace_span(f"cli.{args.command}", file=getattr(args, "file", "")):
            status = args.func(args)
    write_chrome_trace(tracer.export(), trace_path)
    print(f"trace written to {trace_path}", file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
