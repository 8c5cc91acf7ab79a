"""Command-line interface: ``python -m repro <command>``.

Every planning command speaks the same strategy flags — ``--ra``
(``ucc``/``ucc-ilp``/``gcc``/``linear``, default ``ucc``), ``--da``
(``ucc``/``gcc``, default ``ucc``), ``--cp`` (``auto``/``ucc``/``gcc``,
default: strategy-dependent), ``--checked`` — which map one-to-one onto
:class:`repro.UpdateConfig` (see ``docs/API.md``).  ``compile`` and
``run`` build no update, so they take only ``--ra`` (``gcc``/``linear``,
default ``gcc``) and ``--checked``, which map onto
:class:`repro.CompileConfig`.

Commands
--------

``compile FILE``
    Compile a ucc-C source file; print size stats or a disassembly.

``run FILE``
    Compile and simulate; print cycles and device activity.

``update OLD NEW``
    Plan an OTA update from OLD to NEW under a chosen strategy; print
    the paper's metrics (Diff_inst, script bytes, packets) and
    optionally the edit script.

``case ID``
    Replay one of the paper's update cases (1-13, D1, D2): the gcc/gcc
    baseline against the selected strategy, side by side.

``batch JOBS.json``
    Plan a whole fleet of updates through
    :class:`repro.service.FleetUpdateService` — content-addressed
    caching, process-parallel execution, deterministic job order.

``verify OLD NEW`` / ``verify --case ID``
    Plan an update and run every static verification pass
    (:mod:`repro.analysis`) over the products; print the per-pass
    report and exit non-zero when any pass fails.

``fuzz --seed N --iters K``
    Run a deterministic end-to-end update fuzzing campaign
    (:mod:`repro.fuzz`): random programs, semantic edits, differential
    oracles; shrunk failing reproducers land in the corpus directory
    and the exit status is non-zero when any oracle failed.  With
    ``--faults`` the sweep fuzzes *deployments* instead: random fault
    plans (crashes, partitions, corruption) against the campaign
    controller's convergence-or-quarantine oracle.  ``--versioned``
    fuzzes version-heterogeneous fleets: random release histories and
    per-node version assignments through the version-graph planner,
    with the replay-identity oracle on every cohort.

``campaign OLD NEW`` / ``campaign --case ID``
    Drive one fault-tolerant OTA campaign
    (:func:`repro.net.campaign.run_campaign`): scripted node crashes
    (``--crash 4@2:8``), partition windows (``--partition 3-9:7,8``),
    payload corruption and duplicate delivery, or a randomly generated
    plan (``--random-faults``).  Prints the structured
    ``CampaignReport``; exit 0 when the fleet converged, 1 when nodes
    were quarantined (partial outcome).

``profile OLD NEW`` / ``profile --case ID``
    Run one traced end-to-end update (compile, plan, disseminate,
    simulate) and print a per-phase wall-time/energy breakdown plus the
    run's metric deltas (:mod:`repro.obs`); ``--trace FILE`` dumps a
    chrome://tracing-loadable JSON, ``--jsonl FILE`` the raw span
    events.  The span and metric vocabulary is documented in
    ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from .config import (
    CP_STRATEGIES,
    DA_STRATEGIES,
    RA_BASELINE_NAMES,
    RA_STRATEGIES,
    CompileConfig,
    FleetJob,
    TopologySpec,
    UpdateConfig,
)
from .core import compile_source, measure_cycles, plan_update
from .core.errors import EmptyFleetError
from .lang.errors import CompileError
from .net.errors import DisseminationIncomplete, NetConfigError
from .net.profiles import PROFILE_NAMES
from .sim import DeviceBoard, Simulator, Timer
from .workloads import CASES


class _InputError(Exception):
    """An input file that cannot be read or compiled.  The message names
    the file; :func:`main` prints it without a traceback and exits 2."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as error:
        raise _InputError(str(error)) from None
    except UnicodeDecodeError as error:
        raise _InputError(f"{path}: {error}") from None


def _compile_error(path: str, error: CompileError) -> _InputError:
    """``path:line:col: message``, or ``path: message`` for a back-end
    error, which carries no location."""
    where = path
    if error.location is not None:
        where = f"{path}:{error.location.line}:{error.location.column}"
    return _InputError(f"{where}: {error.message}")


@contextmanager
def _blame(path: str):
    """Report a :class:`CompileError` raised in the block against ``path``."""
    try:
        yield
    except CompileError as error:
        raise _compile_error(path, error) from None


def _update_inputs(args):
    """``(old source, new source, label, old name, new name)`` of a
    command that takes ``OLD NEW`` files or ``--case ID``; the names are
    what a compile error is reported against.  ``None`` after printing
    a usage error."""
    if args.case:
        case = CASES.get(args.case)
        if case is None:
            print(f"unknown case {args.case!r}; available: {', '.join(CASES)}",
                  file=sys.stderr)
            return None
        name = f"case {case.case_id}"
        return case.old_source, case.new_source, name, name, name
    if args.old and args.new:
        label = f"{args.old} -> {args.new}"
        return _read(args.old), _read(args.new), label, args.old, args.new
    print(f"{args.command} needs OLD NEW files or --case ID", file=sys.stderr)
    return None


def _add_strategy_flags(parser, baseline: bool = True) -> None:
    """The unified ``--ra/--da/--cp/--checked`` strategy flags.

    Shared by every planning command so spellings, choices, and
    defaults cannot drift between subcommands.
    """
    parser.add_argument(
        "--ra", default="ucc", choices=list(RA_STRATEGIES),
        help="register allocation strategy (default: ucc)",
    )
    parser.add_argument(
        "--da", default="ucc", choices=list(DA_STRATEGIES),
        help="data layout strategy (default: ucc)",
    )
    parser.add_argument(
        "--cp", default=None, choices=list(CP_STRATEGIES),
        help="code placement (default: auto for ucc strategies, gcc otherwise)",
    )
    parser.add_argument(
        "--checked", action="store_true",
        help="run the checked pipeline (verify after every phase)",
    )
    if baseline:
        parser.add_argument(
            "--baseline-ra", default="gcc", choices=list(RA_BASELINE_NAMES),
            help="allocator of the deployed old binary (default: gcc)",
        )


def _add_compile_flags(parser) -> None:
    """The ``--ra/--checked`` flags of a from-scratch compile, which map
    one-to-one onto :class:`repro.CompileConfig`."""
    parser.add_argument(
        "--ra", default="gcc", choices=list(RA_BASELINE_NAMES),
        help="register allocator (default: gcc)",
    )
    parser.add_argument(
        "--checked", action="store_true",
        help="run the checked pipeline (verify after every phase)",
    )


def _update_config(args) -> UpdateConfig:
    return UpdateConfig(
        ra=args.ra,
        da=args.da,
        cp=args.cp,
        checked=True if args.checked else None,
    )


def _compile_config(args) -> CompileConfig:
    """The deployed old binary's compile (``--baseline-ra``)."""
    return CompileConfig(ra=args.baseline_ra, checked=args.checked)


def cmd_compile(args) -> int:
    config = CompileConfig(
        ra=args.ra, optimize=not args.no_opt, checked=args.checked
    )
    source = _read(args.file)
    with _blame(args.file):
        program = compile_source(source, config, filename=args.file)
    print(f"{args.file}: {program.instruction_count} instructions, "
          f"{program.size_words} words code, "
          f"{len(program.image.data)} bytes data")
    if args.disasm:
        print(program.disassemble())
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(program.image.to_bytes())
        print(f"wrote {args.output}")
    return 0


def cmd_run(args) -> int:
    config = CompileConfig(ra=args.ra, checked=args.checked)
    source = _read(args.file)
    with _blame(args.file):
        program = compile_source(source, config, filename=args.file)
    board = DeviceBoard(timer=Timer(period_cycles=args.timer))
    sim = Simulator(program.image, devices=board, collect_profile=args.profile)
    result = sim.run(max_cycles=args.max_cycles)
    status = "halted" if result.halted else "cycle budget exhausted"
    print(f"{status} after {result.cycles} cycles "
          f"({result.instructions} instructions)")
    print(f"LED writes   : {board.led.writes[:16]}"
          f"{' ...' if len(board.led.writes) > 16 else ''}")
    print(f"radio packets: {board.radio.sent[:16]}"
          f"{' ...' if len(board.radio.sent) > 16 else ''}")
    print(f"timer fires  : {board.timer.fires}")
    if args.profile:
        hot = sorted(result.profile.items(), key=lambda kv: -kv[1])[:8]
        print("hottest sites (function, IR index, executions):")
        for (fn, ir_index), count in hot:
            print(f"  {fn}:{ir_index}  x{count}")
    return 0


def cmd_update(args) -> int:
    old_source, new_source = _read(args.old), _read(args.new)
    with _blame(args.old):
        old = compile_source(old_source, _compile_config(args), filename=args.old)
    with _blame(args.new):
        result = plan_update(old, new_source, config=_update_config(args))
    print(f"strategy      : ra={result.ra_strategy} da={result.da_strategy} "
          f"cp={result.new.placement.algorithm}")
    print(f"old binary    : {result.diff.old_instructions} instructions")
    print(f"new binary    : {result.diff.new_instructions} instructions")
    print(f"Diff_inst     : {result.diff_inst}")
    print(f"reused        : {result.reused_instructions}")
    print(f"script        : {result.script_bytes} bytes "
          f"(code {result.code_script_bytes} + data {result.data_script_bytes})")
    print(f"packets       : {result.packets.packet_count} "
          f"({result.packets.bytes_on_air} bytes on air)")
    if args.cycles:
        measure_cycles(result)
        print(f"Diff_cycle    : {result.diff_cycle}")
    if args.script:
        print("edit script:")
        for line in result.diff.script.render().splitlines():
            print("  " + line)
    return 0


def cmd_case(args) -> int:
    case = CASES.get(args.id)
    if case is None:
        print(f"unknown case {args.id!r}; available: {', '.join(CASES)}",
              file=sys.stderr)
        return 2
    print(f"case {case.case_id} ({case.level}, {case.program}): "
          f"{case.description}")
    old = compile_source(case.old_source, _compile_config(args))
    chosen = _update_config(args)
    for config in (UpdateConfig(ra="gcc", da="gcc"), chosen):
        result = plan_update(old, case.new_source, config=config)
        print(f"  {config.ra}/{config.da}: Diff_inst={result.diff_inst:3d}  "
              f"script={result.script_bytes:4d} B  "
              f"packets={result.packets.packet_count}")
    return 0


def _job_from_spec(spec: dict, index: int) -> FleetJob:
    """One batch-file entry → a :class:`repro.FleetJob`.

    Entries name either a paper case (``{"case": "6"}``) or a pair of
    source files (``{"old": ..., "new": ...}``); strategy keys mirror
    the CLI flags (``ra``/``da``/``cp``/``checked``/``baseline_ra``),
    ``grid``/``loss``/``cycles`` add dissemination and simulation.
    """
    if "case" in spec:
        case = CASES.get(str(spec["case"]))
        if case is None:
            raise ValueError(
                f"job {index}: unknown case {spec['case']!r}; "
                f"available: {', '.join(CASES)}"
            )
        old_source, new_source = case.old_source, case.new_source
        default_id = f"case{case.case_id}"
    elif "old" in spec and "new" in spec:
        old_source, new_source = _read(spec["old"]), _read(spec["new"])
        default_id = f"job{index}"
    else:
        raise ValueError(
            f"job {index}: needs either a \"case\" id or \"old\"/\"new\" files"
        )
    checked = spec.get("checked")
    update = UpdateConfig(
        ra=spec.get("ra", "ucc"),
        da=spec.get("da", "ucc"),
        cp=spec.get("cp"),
        checked=checked,
    )
    compile_config = CompileConfig(
        ra=spec.get("baseline_ra", "gcc"), checked=bool(checked)
    )
    topology = None
    if "grid" in spec:
        width, height = spec["grid"]
        topology = TopologySpec.grid(int(width), int(height))
    return FleetJob(
        old_source=old_source,
        new_source=new_source,
        compile=compile_config,
        update=update,
        topology=topology,
        loss=float(spec.get("loss", 0.0)),
        loss_seed=int(spec.get("loss_seed", 1)),
        measure_cycles=bool(spec.get("cycles", False)),
        job_id=str(spec.get("id", default_id)),
    )


def cmd_batch(args) -> int:
    import json

    from .service import FleetUpdateService

    try:
        document = json.loads(_read(args.jobs))
    except json.JSONDecodeError as error:
        raise _InputError(f"{args.jobs}: {error}") from None
    if isinstance(document, list):
        specs, defaults = document, {}
    elif isinstance(document, dict):
        specs, defaults = document.get("jobs", []), document
    else:
        raise _InputError(
            f"{args.jobs}: expected a list of jobs or an object with \"jobs\", "
            f"found {type(document).__name__}"
        )
    if not specs:
        raise _InputError(f"{args.jobs}: no jobs found")
    try:
        jobs = [_job_from_spec(spec, index) for index, spec in enumerate(specs)]
    except (KeyError, TypeError, ValueError) as error:
        raise _InputError(f"{args.jobs}: {error}") from None

    workers = args.workers or defaults.get("workers")
    service = FleetUpdateService(
        workers=1 if args.serial else workers,
        timeout_s=args.timeout,
        retries=args.retries,
    )
    result = service.run(jobs)
    if args.repeat > 1:
        for _ in range(args.repeat - 1):
            result = service.run(jobs)
    print(result.render())
    return 0 if result.ok else 1


def cmd_verify(args) -> int:
    from .analysis import verify_update

    inputs = _update_inputs(args)
    if inputs is None:
        return 2
    old_source, new_source, label, old_name, new_name = inputs

    with _blame(old_name):
        old = compile_source(old_source, _compile_config(args), filename=old_name)
    with _blame(new_name):
        result = plan_update(old, new_source, config=_update_config(args))
    report = verify_update(result)
    print(f"verify {label} (ra={args.ra} da={args.da})")
    print(report.render())
    return 0 if report.ok else 1


def _parse_crash(text: str):
    """``node@round`` or ``node@round:reboot`` → :class:`NodeCrash`."""
    from .net.faults import NodeCrash

    try:
        node_part, when = text.split("@", 1)
        if ":" in when:
            round_part, reboot_part = when.split(":", 1)
            reboot = int(reboot_part)
        else:
            round_part, reboot = when, None
        return NodeCrash(
            node=int(node_part), round=int(round_part), reboot_round=reboot
        )
    except (ValueError, TypeError) as error:
        raise ValueError(
            f"bad --crash {text!r} (want node@round or node@round:reboot): "
            f"{error}"
        ) from None


def _parse_partition(text: str):
    """``start-end:n1,n2,...`` → :class:`PartitionWindow`."""
    from .net.faults import PartitionWindow

    try:
        window, nodes_part = text.split(":", 1)
        start_part, end_part = window.split("-", 1)
        nodes = tuple(int(n) for n in nodes_part.split(",") if n)
        return PartitionWindow(
            start=int(start_part), end=int(end_part), nodes=nodes
        )
    except (ValueError, TypeError) as error:
        raise ValueError(
            f"bad --partition {text!r} (want start-end:n1,n2,...): {error}"
        ) from None


def cmd_campaign(args) -> int:
    import random

    from .core.session import UpdateSession
    from .net.faults import FaultPlan, generate_fault_plan
    from .net.profiles import get_profile
    from .net.topology import grid

    inputs = _update_inputs(args)
    if inputs is None:
        return 2
    old_source, new_source, label, old_name, new_name = inputs

    topology = grid(args.grid, args.grid)
    try:
        if args.random_faults:
            rng = random.Random(f"repro-campaign-cli:{args.fault_seed}")
            plan = generate_fault_plan(
                rng,
                topology.node_count,
                max_rounds=args.rounds,
                intensity=args.intensity,
            )
        else:
            plan = FaultPlan(
                crashes=tuple(_parse_crash(text) for text in args.crash),
                partitions=tuple(
                    _parse_partition(text) for text in args.partition
                ),
                corrupt_prob=args.corrupt,
                duplicate_prob=args.duplicate,
                seed=args.fault_seed,
            )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    from_version = args.from_version
    to_version = (
        args.to_version if args.to_version is not None else from_version + 1
    )
    if to_version <= from_version:
        print(f"--to-version {to_version} must exceed --from-version "
              f"{from_version}", file=sys.stderr)
        return 2
    coding = _coding_params(args.coding)
    if coding is not None and not _coding_fits_protocol(
        coding, args.protocol
    ):
        print(f"--coding {args.coding} does not fit --protocol "
              f"{args.protocol} (lt rides flood, xor rides "
              f"trickle/gossip)", file=sys.stderr)
        return 2

    with _blame(old_name):
        old = compile_source(old_source, _compile_config(args), filename=old_name)
    try:
        session = UpdateSession(
            old, topology=topology, loss=args.loss, loss_seed=args.seed,
            config=_update_config(args), version=from_version,
        )
    except EmptyFleetError as error:
        print(f"campaign: {error}", file=sys.stderr)
        return 2
    profile = get_profile(args.profile) if args.profile else None
    try:
        with _blame(new_name):
            result = session.push_campaign(
                {to_version: new_source}, plan=plan, max_rounds=args.rounds,
                protocol=args.protocol, coding=coding, profile=profile,
            )
    except NetConfigError as error:
        print(f"campaign: {error}", file=sys.stderr)
        return 2
    print(f"campaign {label} (ra={args.ra} da={args.da}, "
          f"{topology.node_count} nodes, loss={args.loss:g}, "
          f"protocol={args.protocol}, v{from_version} -> v{to_version}"
          + (f", coding={args.coding}" if coding is not None else "")
          + (f", profile={args.profile}" if profile is not None else "")
          + ")")
    print(f"faults   : {plan.describe()}")
    print(result.report.render())
    return 0 if result.converged else 1


def _coding_params(name: str):
    """Map the --coding flag to CodedTransferParams (None for 'none')."""
    if name == "none":
        return None
    from .net.coding import CodedTransferParams

    return CodedTransferParams(scheme=name)


def _coding_fits_protocol(coding, protocol: str) -> bool:
    return (coding.scheme == "lt") == (protocol == "flood")


def cmd_plan_versions(args) -> int:
    from .net.topology import grid
    from .versioning import build_version_graph, plan_cohorts
    from .versioning.planner import predicted_wave_energy_j

    if len(args.sources) < 2:
        print("plan-versions needs at least two release sources",
              file=sys.stderr)
        return 2
    if args.versions:
        try:
            labels = [int(v) for v in args.versions.split(",")]
        except ValueError:
            print(f"bad --versions {args.versions!r} (want e.g. 3,5,7)",
                  file=sys.stderr)
            return 2
        if len(labels) != len(args.sources) or labels != sorted(set(labels)):
            print("--versions must list one strictly-increasing label per "
                  "source", file=sys.stderr)
            return 2
    else:
        labels = list(range(1, len(args.sources) + 1))
    releases = {
        label: _read(path) for label, path in zip(labels, args.sources)
    }

    topology = grid(args.grid, args.grid)
    target = labels[-1]
    fleet = {node: target for node in range(topology.node_count)}
    if args.cohorts:
        try:
            cursor = 1  # node 0 is the sink
            for part in args.cohorts.split(","):
                version_text, count_text = part.split(":")
                version, count = int(version_text), int(count_text)
                for node in range(cursor, cursor + count):
                    fleet[node] = version
                cursor += count
        except (ValueError, KeyError):
            print(f"bad --cohorts {args.cohorts!r} (want v:count,...)",
                  file=sys.stderr)
            return 2
        if cursor > topology.node_count:
            print(f"--cohorts places {cursor - 1} nodes but the grid holds "
                  f"{topology.node_count - 1} sensors", file=sys.stderr)
            return 2
    else:
        for node in range(1, topology.node_count):
            fleet[node] = labels[0]

    try:
        graph = build_version_graph(releases)
    except CompileError as error:
        # The graph compiles every release; blame the first one that
        # fails on its own, else name them all.
        for label, path in zip(labels, args.sources):
            with _blame(path):
                compile_source(releases[label], filename=path)
        raise _compile_error(", ".join(args.sources), error) from None
    plans = plan_cohorts(graph, fleet, target, loss=args.loss)
    print(f"version graph {'-'.join(f'v{v}' for v in labels)} "
          f"-> v{target} over {topology.node_count} nodes "
          f"(loss={args.loss:g})")
    if not plans:
        print("fleet already at the target; nothing to plan")
        return 0
    total = 0.0
    total_full = 0.0
    for plan in plans:
        arrow = "->".join(f"v{v}" for v in plan.path)
        full = graph.full_edge(plan.from_version, plan.to_version)
        full_energy = predicted_wave_energy_j(
            full.script_bytes, node_count=topology.node_count,
            mean_degree=4.0, loss=args.loss,
        )
        total += plan.predicted_energy_j
        total_full += full_energy
        print(f"  cohort v{plan.from_version} ({len(plan.nodes)} nodes): "
              f"{plan.strategy} {arrow}, {plan.script_bytes} B, "
              f"predicted {plan.predicted_energy_j:.4f} J "
              f"(full image would cost {full_energy:.4f} J)")
    if total > 0.0:
        print(f"total predicted energy: {total:.4f} J vs "
              f"{total_full:.4f} J full-image "
              f"({total_full / total:.2f}x saving)")
    return 0


def cmd_fuzz(args) -> int:
    from .fuzz import GenConfig, run_fuzz

    if args.faults or args.versioned:
        from .fuzz import run_fault_fuzz, run_versioned_fuzz

        def on_fault_progress(iteration, outcome):
            if args.quiet:
                return
            if (iteration + 1) % 25 == 0:
                print(f"... {iteration + 1}/{args.iters} campaigns")

        if args.versioned:
            if args.profile is not None:
                print("--profile applies to the --faults sweep, not "
                      "--versioned", file=sys.stderr)
                return 2
            fault_report = run_versioned_fuzz(
                seed=args.seed,
                iters=args.iters,
                intensity=args.intensity,
                update_config=_update_config(args),
                on_progress=on_fault_progress,
            )
        else:
            fault_report = run_fault_fuzz(
                seed=args.seed,
                iters=args.iters,
                intensity=args.intensity,
                update_config=_update_config(args),
                on_progress=on_fault_progress,
                profile=args.profile,
            )
        print(fault_report.render())
        return 0 if fault_report.ok else 1

    if args.profile is not None:
        print("--profile needs --faults (the deployment sweep)",
              file=sys.stderr)
        return 2

    config = GenConfig(
        max_funcs=args.max_funcs,
        scheduler_iters=args.scheduler_iters,
    )

    def on_progress(iteration, verdict):
        if args.quiet:
            return
        if not verdict.ok:
            print(f"iteration {iteration}: {verdict.summary()}")
        elif (iteration + 1) % 25 == 0:
            print(f"... {iteration + 1}/{args.iters} iterations")

    report = run_fuzz(
        seed=args.seed,
        iters=args.iters,
        max_edits=args.max_edits,
        corpus_dir=args.corpus,
        config=config,
        on_progress=on_progress,
        shrink_findings=not args.no_shrink,
        update_config=_update_config(args),
    )
    print(report.render())
    return 0 if report.ok else 1


def cmd_profile(args) -> int:
    # Lazy: repro.obs.profile imports the whole pipeline.
    from .obs.profile import profile_update

    inputs = _update_inputs(args)
    if inputs is None:
        return 2
    old_source, new_source, label, old_name, new_name = inputs

    try:
        report = profile_update(
            old_source,
            new_source,
            grid_side=args.grid,
            loss=args.loss,
            simulate=not args.no_sim,
            label=label,
            config=_update_config(args),
        )
    except EmptyFleetError as error:
        print(f"profile: {error}", file=sys.stderr)
        return 2
    except DisseminationIncomplete as error:
        print(f"profile: {error}", file=sys.stderr)
        return 1
    except CompileError as error:
        # profile_update compiles both sources; the old one alone tells
        # which of them failed.
        with _blame(old_name):
            compile_source(old_source, filename=old_name)
        raise _compile_error(new_name, error) from None
    print(report.render())
    if args.trace:
        report.write_chrome_trace(args.trace)
        print(f"\nwrote Chrome trace to {args.trace} "
              "(load via chrome://tracing or https://ui.perfetto.dev)")
    if args.jsonl:
        report.write_jsonl(args.jsonl)
        print(f"wrote span events to {args.jsonl}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UCC (PLDI 2007) reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a ucc-C file")
    p_compile.add_argument("file")
    _add_compile_flags(p_compile)
    p_compile.add_argument("--no-opt", action="store_true")
    p_compile.add_argument("--disasm", action="store_true")
    p_compile.add_argument("-o", "--output")
    p_compile.set_defaults(func=cmd_compile)

    p_run = sub.add_parser("run", help="compile and simulate")
    p_run.add_argument("file")
    _add_compile_flags(p_run)
    p_run.add_argument("--timer", type=int, default=500)
    p_run.add_argument("--max-cycles", type=int, default=5_000_000)
    p_run.add_argument("--profile", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_update = sub.add_parser("update", help="plan an OTA update")
    p_update.add_argument("old")
    p_update.add_argument("new")
    _add_strategy_flags(p_update)
    p_update.add_argument("--cycles", action="store_true",
                          help="simulate both versions for Diff_cycle")
    p_update.add_argument("--script", action="store_true",
                          help="print the edit script")
    p_update.set_defaults(func=cmd_update)

    p_case = sub.add_parser("case", help="replay a paper update case")
    p_case.add_argument("id")
    _add_strategy_flags(p_case)
    p_case.set_defaults(func=cmd_case)

    p_batch = sub.add_parser(
        "batch", help="plan a fleet of updates through the batched, "
                      "cached, process-parallel update service"
    )
    p_batch.add_argument("jobs", help="JSON job file (see docs/API.md)")
    p_batch.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: file or cpu count)")
    p_batch.add_argument("--serial", action="store_true",
                         help="run in-process, no worker pool")
    p_batch.add_argument("--timeout", type=float, default=None,
                         help="per-job timeout in seconds")
    p_batch.add_argument("--retries", type=int, default=1,
                         help="retries per job on worker failure")
    p_batch.add_argument("--repeat", type=int, default=1,
                         help="run the batch N times (cache warm-up demo)")
    p_batch.set_defaults(func=cmd_batch)

    p_verify = sub.add_parser(
        "verify", help="statically verify a planned update"
    )
    p_verify.add_argument("old", nargs="?")
    p_verify.add_argument("new", nargs="?")
    p_verify.add_argument("--case", help="verify a paper case instead of files")
    _add_strategy_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_fuzz = sub.add_parser(
        "fuzz", help="run the end-to-end update fuzzing campaign"
    )
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--iters", type=int, default=100)
    p_fuzz.add_argument("--max-edits", type=int, default=3,
                        help="max semantic edits per generated pair")
    p_fuzz.add_argument("--corpus", default=None,
                        help="directory for shrunk failing reproducers")
    _add_strategy_flags(p_fuzz, baseline=False)
    p_fuzz.add_argument("--max-funcs", type=int, default=3,
                        help="max helper functions per generated program")
    p_fuzz.add_argument("--scheduler-iters", type=int, default=24,
                        help="iterations of main's scheduler loop")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="skip delta-debugging of failing cases")
    p_fuzz.add_argument("--quiet", action="store_true")
    p_fuzz.add_argument("--faults", action="store_true",
                        help="fuzz fault plans against the campaign "
                             "controller instead of update pairs")
    p_fuzz.add_argument("--versioned", action="store_true",
                        help="fuzz version-heterogeneous fleets through "
                             "the version-graph planner and versioned "
                             "campaign (docs/VERSIONING.md)")
    p_fuzz.add_argument("--profile", default=None,
                        choices=list(PROFILE_NAMES),
                        help="device profile for the --faults sweep "
                             "(mica2, lorawan-dr3, batteryless); an "
                             "energy-limited profile adds seeded "
                             "intermittent-power traces and the "
                             "golden-image oracle")
    p_fuzz.add_argument("--intensity", type=float, default=1.0,
                        help="fault-plan intensity for --faults/"
                             "--versioned (default 1.0)")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_campaign = sub.add_parser(
        "campaign", help="drive one fault-tolerant OTA campaign to "
                         "fleet convergence"
    )
    p_campaign.add_argument("old", nargs="?")
    p_campaign.add_argument("new", nargs="?")
    p_campaign.add_argument("--case",
                            help="run a paper case instead of files")
    _add_strategy_flags(p_campaign)
    p_campaign.add_argument("--grid", type=int, default=3,
                            help="dissemination grid side (NxN nodes)")
    p_campaign.add_argument("--loss", type=float, default=0.0,
                            help="per-link loss probability")
    p_campaign.add_argument("--seed", type=int, default=1,
                            help="link-loss RNG seed")
    p_campaign.add_argument("--rounds", type=int, default=200,
                            help="campaign round budget")
    p_campaign.add_argument("--protocol", default="flood",
                            choices=("flood", "trickle", "gossip"),
                            help="dissemination protocol: synchronous "
                                 "NACK-repair flood (default) or the "
                                 "event-kernel trickle/gossip protocols")
    p_campaign.add_argument("--crash", action="append", default=[],
                            metavar="NODE@ROUND[:REBOOT]",
                            help="schedule a node crash (repeatable)")
    p_campaign.add_argument("--partition", action="append", default=[],
                            metavar="START-END:N1,N2",
                            help="partition an island of nodes (repeatable)")
    p_campaign.add_argument("--corrupt", type=float, default=0.0,
                            help="per-delivery payload corruption probability")
    p_campaign.add_argument("--duplicate", type=float, default=0.0,
                            help="per-delivery duplicate probability")
    p_campaign.add_argument("--fault-seed", type=int, default=0,
                            help="fault-plan RNG seed")
    p_campaign.add_argument("--from-version", type=int, default=0,
                            help="version label of the deployed image")
    p_campaign.add_argument("--to-version", type=int, default=None,
                            help="version label of the release "
                                 "(default: from-version + 1)")
    p_campaign.add_argument("--coding", default="none",
                            choices=("none", "lt", "xor"),
                            help="coded transfer: 'lt' fountain (flood) "
                                 "or 'xor' burst parity (trickle/gossip)")
    p_campaign.add_argument("--profile", default=None,
                            choices=list(PROFILE_NAMES),
                            help="device profile: radio draws, MTU "
                                 "fragmentation, kernel-enforced airtime "
                                 "budget, capacitor brownout model "
                                 "(docs/SIMULATOR.md)")
    p_campaign.add_argument("--random-faults", action="store_true",
                            help="generate the fault plan from --fault-seed")
    p_campaign.add_argument("--intensity", type=float, default=1.0,
                            help="generated fault-plan intensity")
    p_campaign.set_defaults(func=cmd_campaign)

    p_plan = sub.add_parser(
        "plan-versions", help="build a version graph over releases and "
                              "print the cheapest per-cohort update plans"
    )
    p_plan.add_argument("sources", nargs="+",
                        help="ucc-C release files, oldest first")
    p_plan.add_argument("--versions",
                        help="comma-separated version labels, one per "
                             "source (default: 0,1,2,...)")
    p_plan.add_argument("--cohorts",
                        metavar="V:COUNT[,V:COUNT...]",
                        help="fleet composition by deployed version "
                             "(default: every sensor at the oldest)")
    p_plan.add_argument("--grid", type=int, default=6,
                        help="dissemination grid side (NxN nodes)")
    p_plan.add_argument("--loss", type=float, default=0.0,
                        help="per-link loss probability in the cost model")
    p_plan.set_defaults(func=cmd_plan_versions)

    p_profile = sub.add_parser(
        "profile", help="trace one end-to-end update and print a "
                        "per-phase time/energy breakdown"
    )
    p_profile.add_argument("old", nargs="?")
    p_profile.add_argument("new", nargs="?")
    p_profile.add_argument("--case", help="profile a paper case instead of files")
    _add_strategy_flags(p_profile, baseline=False)
    p_profile.add_argument("--grid", type=int, default=4,
                           help="dissemination grid side (NxN nodes)")
    p_profile.add_argument("--loss", type=float, default=0.0,
                           help="per-link loss probability (lossy flood)")
    p_profile.add_argument("--no-sim", action="store_true",
                           help="skip the Diff_cycle simulation runs")
    p_profile.add_argument("--trace", metavar="FILE",
                           help="write chrome://tracing JSON here")
    p_profile.add_argument("--jsonl", metavar="FILE",
                           help="write raw span events (JSONL) here")
    p_profile.set_defaults(func=cmd_profile)

    from repro.lint import cli as lint_cli

    p_lint = sub.add_parser(
        "lint", help="run the determinism/safety static analysis suite "
                     "(see docs/LINT.md)"
    )
    lint_cli.add_arguments(p_lint)
    p_lint.set_defaults(func=lint_cli.run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
