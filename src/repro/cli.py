"""Command-line interface for the path-based watermarking toolchain.

Usage (also via ``python -m repro``)::

    # Compile a wee program to WVM assembly
    python -m repro compile app.wee -o app.wasm

    # Embed a fingerprint (traces the program on the key inputs)
    python -m repro embed app.wasm -o marked.wasm \\
        --watermark 0x1337 --bits 16 --secret vendor --inputs 25,10

    # Recognize (dynamic + blind: only the program and the key)
    python -m repro recognize marked.wasm \\
        --bits 16 --secret vendor --inputs 25,10

    # Run a module / apply an attack / plan redundancy
    python -m repro run app.wasm --inputs 25,10
    python -m repro attack marked.wasm -o attacked.wasm \\
        --transform sense-inversion
    python -m repro plan --bits 128 --loss 0.4 --target 0.99

    # Fingerprint many copies in parallel from one shared preparation,
    # with spans (each VM run's steps on its span) + metrics
    python -m repro batch-embed manifest.json -o dist/ --workers 4 \\
        --obs-out obs.jsonl

    # Persist the preparation as a store artifact, then serve
    # embed/recognize over HTTP from it
    python -m repro artifact prepare manifest.json --store store/
    python -m repro serve --store store/ --port 8765 --workers 4

Modules travel as WVM assembly text (the `.wasm` extension here means
"watermarking asm", not WebAssembly).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import random
import sys
from typing import List, Optional, Sequence

from . import obs
from .obs.journal import newest, read_events, read_journal, read_spans
from .obs.slo import SLOEngine, default_objectives, load_objectives
from .attacks.bytecode import (
    insert_branches,
    insert_noops,
    invert_branch_senses,
    renumber_locals,
    reorder_blocks,
    split_blocks,
)
from .bytecode_wm import (
    WatermarkKey,
    diversify,
    embed,
    recognition_report,
    recognize,
)
from .campaign import CampaignConfig, DEFAULT_ATTACKS, run_campaign
from .campaign.generator import GeneratorError
from .codec import CodecError
from .core import WatermarkError
from .core.planner import plan_redundancy
from .lang import LexError, ParseError, SemanticError, compile_source
from .lang.codegen_native import compile_source_native
from .native import MachineFault, format_listing, run_image
from .native.imagefile import ImageFormatError, dump_image, load_image
from .native_wm import embed_native, extract_native_auto, native_recognition_report
from .pipeline import ManifestError, load_manifest, prepare, run_batch
from .serve import (
    ServerConfig,
    ServiceClient,
    ServiceError,
    StoreError,
    open_store,
    serve,
)
from .vm import (
    AssemblyError,
    VerificationError,
    VMError,
    VMFormatError,
    assemble,
    disassemble,
    run_module,
    verify_module,
)

ATTACKS = {
    "noop-insertion": lambda m, r: insert_noops(m, 200, r),
    "branch-insertion": lambda m, r: insert_branches(m, 50, r),
    "sense-inversion": lambda m, r: invert_branch_senses(m, 1.0, r),
    "block-reordering": lambda m, r: reorder_blocks(m, r),
    "block-splitting": lambda m, r: split_blocks(m, 40, r),
    "locals-renumbering": lambda m, r: renumber_locals(m, r),
}


def _integer(text: str) -> int:
    """``--watermark`` or one ``--inputs`` value: an integer, ``0x..``
    accepted."""
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer: {text!r}"
        ) from None


def _integers(text: str) -> List[int]:
    """``--inputs``: comma-separated integers, ``0x..`` accepted."""
    return [_integer(tok) for tok in text.split(",") if tok.strip()]


def _key(args) -> WatermarkKey:
    return WatermarkKey(secret=args.secret.encode(),
                        inputs=args.inputs)


def _read_module(path: str):
    with open(path) as fp:
        return assemble(fp.read())


def _read_image(path: str):
    with open(path) as fp:
        return load_image(fp)


def _write_module(module, path: Optional[str]) -> None:
    text = disassemble(module)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fp:
            fp.write(text)


def _write_obs_out(path: str, tracer: obs.Tracer) -> None:
    """``--obs-out``: one JSON object per line, discriminated by
    "kind" — every span of the run's tree, then every metric sample —
    plus the registry as Prometheus text in ``path``'s ``.prom``
    sibling."""
    with open(path, "w") as fp:
        tracer.write_jsonl(fp)
        obs.get_registry().write_jsonl(fp)
    with open(os.path.splitext(path)[0] + ".prom", "w") as fp:
        fp.write(obs.get_registry().to_prometheus())


@contextlib.contextmanager
def _telemetry(obs_out: Optional[str], journal: Optional[str] = None):
    """One command's telemetry session.

    ``--obs-out`` and ``--journal`` arm tracing: the hub's span sink
    only sees spans while a tracer records, and an empty span stream
    would leave 'repro obs trace' nothing to render. ``--journal``
    installs a hub appending to ``DIR/journal.jsonl`` (a daemon reuses
    it). On every exit the hub journals a metrics snapshot and is
    closed, ``--obs-out`` is written and tracing is off.
    """
    with contextlib.ExitStack() as stack:
        if obs_out or journal:
            tracer = obs.enable_tracing()
            stack.callback(obs.disable_tracing)
        if obs_out:
            stack.callback(_write_obs_out, obs_out, tracer)
        if journal:
            hub = obs.TelemetryHub(obs.HubConfig(
                journal_path=os.path.join(journal, "journal.jsonl")
            ))
            obs.set_hub(hub)
            stack.callback(hub.close)
            stack.callback(obs.set_hub, None)
            stack.callback(lambda: hub.snapshot_metrics(obs.get_registry()))
        yield


def _release(manifest, store, label: str = ""):
    """``(prepared, hit)``: the manifest's release, from (and into)
    ``store`` when one is given, else prepared for this run only."""
    args = (_read_module(manifest.module_path), manifest.key(),
            manifest.watermark_bits)
    kwargs = dict(
        pieces=manifest.pieces,
        piece_loss=manifest.piece_loss,
        target_success=manifest.target_success,
        codec=manifest.codec,
    )
    if store is None:
        return prepare(*args, **kwargs), False
    return store.get_or_prepare(*args, label=label, **kwargs)


def cmd_compile(args) -> int:
    with open(args.source) as fp:
        module = compile_source(fp.read())
    verify_module(module)
    _write_module(module, args.output)
    return 0


def cmd_run(args) -> int:
    result = run_module(_read_module(args.module), args.inputs)
    for value in result.output:
        print(value)
    print(f"[{result.steps} instructions executed]", file=sys.stderr)
    return 0


def cmd_embed(args) -> int:
    module = _read_module(args.module)
    if args.diversify is not None:
        module = diversify(module, args.diversify)
    result = embed(
        module,
        watermark=args.watermark,
        key=_key(args),
        pieces=args.pieces,
        watermark_bits=args.bits,
        codec=args.codec,
    )
    _write_module(result.module, args.output)
    print(
        f"embedded {result.piece_count} pieces "
        f"({result.codec} codec, +{result.byte_size_increase} bytes)",
        file=sys.stderr,
    )
    return 0


def cmd_recognize(args) -> int:
    found = recognize(_read_module(args.module), _key(args),
                      watermark_bits=args.bits, codec=args.codec)
    if args.diagnose:
        report = recognition_report(found, watermark_bits=args.bits)
        print(report.summary(), file=sys.stderr)
    if found.complete:
        print(f"{found.value:#x}")
        return 0
    print("no watermark recovered", file=sys.stderr)
    return 1


def cmd_attack(args) -> int:
    module = _read_module(args.module)
    transform = ATTACKS[args.transform]
    attacked = transform(module, random.Random(args.seed))
    verify_module(attacked)
    _write_module(attacked, args.output)
    return 0


def cmd_batch_embed(args) -> int:
    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint", file=sys.stderr)
        return 2
    manifest = load_manifest(args.manifest)
    with _telemetry(args.obs_out, args.journal):
        store = (open_store(args.store, create=True, shards=args.store_shards)
                 if args.store else None)
        prepared, hit = _release(manifest, store)
        report = run_batch(
            prepared,
            manifest.copies,
            workers=args.workers,
            outdir=args.output,
            chunksize=args.chunksize,
            cache_hits=int(hit),
            cache_misses=int(not hit),
            checkpoint=args.checkpoint,
            resume=args.resume,
        )
        report.write(os.path.join(args.output, "report.json"))
    print(report.summary(), file=sys.stderr)
    return 0 if report.all_ok else 1


def cmd_obs_tail(args) -> int:
    events = read_events(args.journal)
    matched = [
        e for e in events if e.matches(args.kind, args.name, args.route)
    ]
    for event in newest(matched, args.limit):
        print(json.dumps(event.to_dict(), sort_keys=True))
    return 0


def cmd_obs_summary(args) -> int:
    events = 0
    spans = 0
    snapshots = 0
    kinds: dict = {}
    by_name: dict = {}
    traces: set = set()
    first = None
    last = None
    for doc in read_journal(args.journal):
        rec = doc.get("rec")
        if rec == "event":
            events += 1
            kinds[doc.get("kind", "?")] = kinds.get(doc.get("kind", "?"), 0) + 1
            unix = doc.get("unix")
            if isinstance(unix, (int, float)):
                first = unix if first is None else min(first, unix)
                last = unix if last is None else max(last, unix)
        elif rec == "span":
            spans += 1
            if doc.get("trace_id"):
                traces.add(doc["trace_id"])
            duration = doc.get("duration")
            if isinstance(duration, (int, float)):
                name = doc.get("name", "?")
                count, total = by_name.get(name, (0, 0.0))
                by_name[name] = (count + 1, total + duration)
        elif rec == "metrics":
            snapshots += 1
    print(f"events    {events}")
    for kind in sorted(kinds):
        print(f"  {kind:<18} {kinds[kind]}")
    print(f"spans     {spans}  ({len(traces)} trace(s))")
    if by_name:
        print(f"  {'name':<18} {'count':>6} {'total s':>10} {'mean ms':>10}")
    for name in sorted(by_name):
        count, total = by_name[name]
        print(f"  {name:<18} {count:>6} {total:>10.3f} "
              f"{total / count * 1000:>10.1f}")
    print(f"snapshots {snapshots}")
    if first is not None and last is not None:
        print(f"window    {last - first:.1f}s of activity")
    return 0


def cmd_obs_slo(args) -> int:
    try:
        objectives = (
            load_objectives(args.spec) if args.spec else default_objectives()
        )
    except (OSError, ValueError) as exc:
        print(f"bad SLO spec: {exc}", file=sys.stderr)
        return 2
    if args.window is not None:
        objectives = [
            dataclasses.replace(o, window_seconds=args.window)
            for o in objectives
        ]
    engine = SLOEngine(objectives)
    statuses = engine.evaluate(read_events(args.journal))
    print(SLOEngine.summary(statuses))
    return 0 if all(s.met for s in statuses) else 1


def cmd_obs_trace(args) -> int:
    spans = read_spans(args.journal)
    grouped: dict = {}
    for span in spans:
        grouped.setdefault(span.trace_id, []).append(span)
    hits = [t for t in grouped if t and t.startswith(args.trace_id)]
    if not hits:
        print(f"no trace matches {args.trace_id!r} "
              f"({len(grouped)} trace(s) in the journal)", file=sys.stderr)
        return 2
    if len(hits) > 1:
        print(f"{args.trace_id!r} is ambiguous: " + ", ".join(sorted(hits)),
              file=sys.stderr)
        return 2
    print(obs.render_span_tree(grouped[hits[0]]), end="")
    return 0


def cmd_fleet_status(args) -> int:
    body = ServiceClient(args.url, timeout=args.timeout).healthz()
    fleet = body.get("fleet")
    if not isinstance(fleet, dict):
        print(f"{args.url} is not a fleet front-end "
              "(no 'fleet' stats in /healthz)", file=sys.stderr)
        return 2
    workers = fleet.get("workers") or {}
    if args.json:
        print(json.dumps(fleet, indent=2, sort_keys=True))
    else:
        in_flight = fleet.get("in_flight") or {}
        print(f"front-end {args.url}: {body.get('status', '?')}")
        for name in sorted(set(workers) | set(in_flight)):
            print(f"  {name:<16} {workers.get(name, 'unknown'):<8} "
                  f"in-flight {in_flight.get(name, 0)}")
        print(f"pending {fleet.get('pending', 0)}  "
              f"completed {fleet.get('completed', 0)}  "
              f"errors {fleet.get('errors', 0)}  "
              f"requeues {fleet.get('requeues', 0)}  "
              f"shed {fleet.get('shed', 0)}  "
              f"brownouts {fleet.get('brownouts', 0)}  "
              f"ejections {fleet.get('ejections', 0)}  "
              f"readmissions {fleet.get('readmissions', 0)}")
    return 1 if any(s == "ejected" for s in workers.values()) else 0


def cmd_fleet_rebalance(args) -> int:
    if args.action == "remove-shard" and not args.shard:
        print("remove-shard requires --shard", file=sys.stderr)
        return 2
    client = ServiceClient(args.url, timeout=args.timeout)
    payload = {"action": args.action}
    if args.shard:
        payload["shard"] = args.shard
    status, doc, _ = client.request_ex("POST", "/v1/store/rebalance", payload)
    if status != 200:
        print(f"rebalance failed ({status}): "
              f"{doc.get('error', doc)}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    report = doc.get("report") or {}
    moved = report.get("moved") or {}
    print(f"{args.action}: moved {len(moved)} record(s), "
          f"kept {report.get('kept', 0)}")
    print("shards: " + ", ".join(doc.get("shards") or []))
    return 0


def cmd_campaign(args) -> int:
    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint", file=sys.stderr)
        return 2
    try:
        config = CampaignConfig(
            seed=args.seed,
            workloads=args.workloads,
            copies=args.copies,
            bits=tuple(args.bits or [16]),
            attacks=tuple(args.attacks.split(","))
            if args.attacks else DEFAULT_ATTACKS,
            codecs=tuple(args.codecs.split(","))
            if args.codecs else ("gcrt",),
            secret=args.secret.encode(),
            workers=args.workers,
            cell_workers=args.cell_workers,
            checkpoint_dir=args.checkpoint,
            resume=args.resume,
        )
    except (KeyError, ValueError, CodecError) as exc:
        print(f"bad campaign configuration: {exc}", file=sys.stderr)
        return 2
    os.makedirs(args.output, exist_ok=True)
    with _telemetry(args.obs_out):
        report = run_campaign(
            config,
            progress=lambda msg: print(msg, file=sys.stderr),
        )
        report.write(os.path.join(args.output, "report.json"))
        # The outcome view is deterministic in the seed: byte-identical
        # across reruns, so CI can diff it and cells can be replayed.
        with open(os.path.join(args.output, "outcomes.json"), "w") as fp:
            fp.write(report.outcomes_json())
    print(report.summary(), file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    try:
        config = ServerConfig(
            store_root=args.store,
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_depth=args.queue_depth,
            request_timeout=args.timeout,
            executor=args.executor,
            self_check=not args.no_self_check,
            drain_timeout=args.drain_timeout,
            slo_spec=args.slo,
            fleet=args.fleet,
            fleet_max_pending=args.fleet_max_pending,
        )
        with _telemetry(args.obs_out, args.journal):
            serve(config)
    except ValueError as exc:
        print(f"cannot serve: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_artifact_prepare(args) -> int:
    manifest = load_manifest(args.manifest)
    store = open_store(args.store, create=True, shards=args.shards)
    prepared, hit = _release(manifest, store, args.label)
    record = store.record(prepared.fingerprint())
    state = "already stored" if hit else "prepared and stored"
    print(
        f"{state}: {record.size_bytes} bytes, "
        f"{record.watermark_bits}-bit marks, {record.pieces} pieces, "
        f"{record.codec} codec",
        file=sys.stderr,
    )
    print(record.digest)
    return 0


def cmd_artifact_list(args) -> int:
    store = open_store(args.store)
    records = store.records()
    if args.json:
        print(json.dumps([r.to_dict() for r in records], indent=2))
        return 0
    for r in records:
        label = f"  {r.label}" if r.label else ""
        print(
            f"{r.digest[:16]}  bits={r.watermark_bits} pieces={r.pieces} "
            f"codec={r.codec} {r.size_bytes}B{label}"
        )
    print(f"{len(records)} artifact(s) in {args.store}", file=sys.stderr)
    return 0


def cmd_artifact_evict(args) -> int:
    store = open_store(args.store)
    digest = store.resolve(args.digest)
    store.evict(digest)
    print(f"evicted {digest}", file=sys.stderr)
    return 0


def cmd_artifact_quarantine_list(args) -> int:
    store = open_store(args.store)
    records = store.quarantined()
    if args.json:
        print(json.dumps([r.to_dict() for r in records], indent=2))
        return 0
    for r in records:
        print(f"{r.digest[:16]}  {r.quarantined_at}  {r.reason}")
    print(f"{len(records)} quarantined blob(s) in {args.store}",
          file=sys.stderr)
    return 0


def cmd_artifact_verify(args) -> int:
    store = open_store(args.store)
    problems = store.verify()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"{len(store)} artifact(s) intact", file=sys.stderr)
    return 0


def cmd_ncompile(args) -> int:
    with open(args.source) as fp:
        image = compile_source_native(fp.read())
    with open(args.output, "w") as fp:
        dump_image(image, fp)
    print(f"{image.file_size()} bytes (text+data), "
          f"entry {image.entry:#x}", file=sys.stderr)
    return 0


def cmd_nrun(args) -> int:
    image = _read_image(args.image)
    result = run_image(image, args.inputs)
    for value in result.output:
        print(value)
    print(f"[{result.steps} instructions executed]", file=sys.stderr)
    return 0


def cmd_nembed(args) -> int:
    image = _read_image(args.image)
    emb = embed_native(
        image,
        watermark=args.watermark,
        width=args.bits,
        inputs=args.inputs,
        obfuscate_extra=args.obfuscate_extra,
    )
    with open(args.output, "w") as fp:
        dump_image(emb.image, fp)
    print(
        f"chain of {len(emb.call_addresses)} calls, begin={emb.begin:#x} "
        f"end={emb.end:#x}, {len(emb.tamper_jumps)} lockdown cells, "
        f"+{emb.image.file_size() - image.file_size()} bytes",
        file=sys.stderr,
    )
    return 0


def cmd_nextract(args) -> int:
    image = _read_image(args.image)
    result = extract_native_auto(
        image, args.inputs,
        width=args.bits, tracer=args.tracer,
    )
    if args.diagnose:
        report = native_recognition_report(result)
        print(report.summary(), file=sys.stderr)
    if result.watermark is not None:
        print(f"{result.watermark:#x}")
        return 0
    print("no watermark extracted", file=sys.stderr)
    return 1


def cmd_ndis(args) -> int:
    image = _read_image(args.image)
    print(format_listing(image, max_instructions=args.max))
    return 0


def cmd_plan(args) -> int:
    plan = plan_redundancy(args.bits, args.loss, args.target,
                           codec=args.codec)
    print(f"watermark bits:      {plan.watermark_bits}")
    print(f"codec:               {plan.codec}")
    print(f"moduli:              {plan.moduli_count} "
          f"({plan.pair_count} possible pieces)")
    print(f"piece loss assumed:  {plan.piece_loss_probability:.0%}")
    print(f"pieces to embed:     {plan.pieces}")
    print(f"expected success:    {plan.expected_success:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamic path-based software watermarking (PLDI 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Options several commands share, each declared once in a parent.
    key = argparse.ArgumentParser(add_help=False)
    key.add_argument("--bits", type=int, required=True,
                     help="fingerprint width in bits")
    key.add_argument("--secret", required=True, help="cipher secret")
    key.add_argument("--inputs", type=_integers, default="",
                     help="secret input sequence, comma-separated")
    key.add_argument("--codec", default=None, metavar="SPEC",
                     help="redundancy codec: gcrt (default), rs[-N], "
                          "hybrid[-N]; recognize with the embed's")
    store = argparse.ArgumentParser(add_help=False)
    store.add_argument("--store", required=True, metavar="DIR",
                       help="artifact store directory, plain or sharded "
                            "(see 'repro artifact')")
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true",
                         help="print a JSON document instead of text")
    journal = argparse.ArgumentParser(add_help=False)
    journal.add_argument("--journal", required=True, metavar="PATH",
                         help="journal file or the directory holding "
                              "journal.jsonl")
    obs_out = argparse.ArgumentParser(add_help=False)
    obs_out.add_argument("--obs-out", default=None, metavar="FILE",
                         help="when the command ends, write spans + metrics "
                              "as JSON lines to FILE (plus Prometheus text "
                              "to FILE's .prom sibling)")
    telemetry = argparse.ArgumentParser(add_help=False, parents=[obs_out])
    telemetry.add_argument("--journal", default=None, metavar="DIR",
                           help="append telemetry events and spans to "
                                "DIR/journal.jsonl for 'repro obs'")

    p = sub.add_parser("compile", help="compile wee source to WVM assembly")
    p.add_argument("source")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("run", help="execute a WVM module")
    p.add_argument("module")
    p.add_argument("--inputs", type=_integers, default="",
                   help="comma-separated integers")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("embed", help="embed a watermark", parents=[key])
    p.add_argument("module")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--watermark", type=_integer, required=True,
                   help="integer (0x.. accepted)")
    p.add_argument("--pieces", type=int, default=None)
    p.add_argument("--diversify", type=int, default=None, metavar="SEED",
                   help="pre-watermark diversification seed "
                        "(collusion defense)")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("recognize", help="recover a watermark",
                       parents=[key])
    p.add_argument("module")
    p.add_argument("--diagnose", action="store_true",
                   help="print the window/voting/CRT funnel to stderr")
    p.set_defaults(fn=cmd_recognize)

    p = sub.add_parser(
        "batch-embed",
        help="fingerprint many copies in parallel from a manifest",
        parents=[telemetry],
    )
    p.add_argument("manifest", help="JSON batch manifest (see docs/)")
    p.add_argument("-o", "--output", required=True,
                   help="output directory for copies and report.json")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel embed processes (default 1)")
    p.add_argument("--chunksize", type=int, default=None,
                   help="work-queue chunk size (default: auto)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="content-addressed artifact store persisting "
                        "preparations across runs and releases (see "
                        "'repro artifact')")
    p.add_argument("--store-shards", type=int, default=None, metavar="N",
                   help="when creating --store, lay it out as a sharded "
                        "fabric of N shard stores (see docs/scaling.md)")
    p.add_argument("--checkpoint", default=None, metavar="FILE",
                   help="journal each completed copy to FILE (JSON lines) "
                        "as it lands")
    p.add_argument("--resume", action="store_true",
                   help="skip copies the --checkpoint journal already "
                        "shows as verified (crash recovery)")
    p.set_defaults(fn=cmd_batch_embed)

    p = sub.add_parser(
        "campaign",
        help="sweep generated workloads x attacks x widths and report "
             "per-cell recovery",
        parents=[obs_out],
    )
    p.add_argument("-o", "--output", required=True,
                   help="output directory for report.json + outcomes.json")
    p.add_argument("--seed", type=int, default=2004,
                   help="campaign seed; every workload, watermark and "
                        "attack stream derives from it (default 2004)")
    p.add_argument("--workloads", type=int, default=3,
                   help="generated programs to sweep (default 3)")
    p.add_argument("--copies", type=int, default=4,
                   help="fingerprinted copies per (workload, bits) "
                        "(default 4)")
    p.add_argument("--bits", type=int, action="append", default=None,
                   help="watermark width; repeat for a multi-width sweep "
                        "(default 16)")
    p.add_argument("--codecs", default=None, metavar="C1,C2,...",
                   help="comma-separated codec specs to sweep "
                        "(default: gcrt)")
    p.add_argument("--attacks", default=None, metavar="A,B,...",
                   help="comma-separated attack names (default: "
                        f"{','.join(DEFAULT_ATTACKS)})")
    p.add_argument("--secret", default="campaign",
                   help="watermark key secret (default 'campaign')")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel embed processes per batch (default 1)")
    p.add_argument("--cell-workers", type=int, default=1,
                   help="campaign cells evaluated concurrently in "
                        "separate processes (default 1)")
    p.add_argument("--checkpoint", default=None, metavar="DIR",
                   help="journal batches and finished cells under DIR")
    p.add_argument("--resume", action="store_true",
                   help="replay cells already in the --checkpoint journal")
    p.set_defaults(fn=cmd_campaign)

    p = sub.add_parser("attack", help="apply a distortive transformation")
    p.add_argument("module")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--transform", choices=sorted(ATTACKS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("ncompile", help="compile wee source to an N32 image")
    p.add_argument("source")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_ncompile)

    p = sub.add_parser("nrun", help="execute an N32 image")
    p.add_argument("image")
    p.add_argument("--inputs", type=_integers, default="")
    p.set_defaults(fn=cmd_nrun)

    p = sub.add_parser("nembed",
                       help="embed a branch-function watermark (native)")
    p.add_argument("image")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--watermark", type=_integer, required=True)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--inputs", type=_integers, default="",
                   help="secret input sequence (profiling + tracing)")
    p.add_argument("--obfuscate-extra", type=int, default=0)
    p.set_defaults(fn=cmd_nembed)

    p = sub.add_parser("nextract",
                       help="extract a native watermark (auto-framed)")
    p.add_argument("image")
    p.add_argument("--bits", type=int, default=None)
    p.add_argument("--inputs", type=_integers, default="")
    p.add_argument("--tracer", choices=("simple", "smart"), default="smart")
    p.add_argument("--diagnose", action="store_true",
                   help="print branch-function/chain diagnostics to stderr")
    p.set_defaults(fn=cmd_nextract)

    p = sub.add_parser("ndis", help="disassemble an N32 image")
    p.add_argument("image")
    p.add_argument("--max", type=int, default=200)
    p.set_defaults(fn=cmd_ndis)

    p = sub.add_parser("plan", help="plan piece redundancy via Eq. (1)")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--codec", default="gcrt", metavar="SPEC",
                   help="codec whose survival model sizes the plan")
    p.add_argument("--loss", type=float, required=True,
                   help="probability an individual piece is destroyed")
    p.add_argument("--target", type=float, default=0.99)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser(
        "serve",
        help="run the fingerprinting HTTP daemon over an artifact store",
        parents=[store, telemetry],
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765,
                   help="listening port; 0 picks an ephemeral port")
    p.add_argument("--workers", type=int, default=2,
                   help="worker pool size (default 2)")
    p.add_argument("--queue-depth", type=int, default=8,
                   help="requests queued beyond the pool before "
                        "429 backpressure kicks in (default 8)")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="per-request timeout in seconds (default 60)")
    p.add_argument("--executor", choices=("process", "thread"),
                   default="process",
                   help="worker pool flavour (default process)")
    p.add_argument("--no-self-check", action="store_true",
                   help="skip the in-worker recognize pass after embeds")
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   metavar="SECONDS",
                   help="graceful-shutdown budget for in-flight jobs "
                        "(default 10; also the Retry-After a draining "
                        "daemon advertises)")
    p.add_argument("--slo", default=None, metavar="FILE",
                   help="JSON SLO spec evaluated at /v1/obs/slo and "
                        "/healthz (default: built-in objectives)")
    p.add_argument("--fleet", default=None, metavar="FILE",
                   help="JSON worker-fleet spec; forward embed/recognize "
                        "jobs to those daemons instead of the local pool "
                        "(see docs/scaling.md)")
    p.add_argument("--fleet-max-pending", type=int, default=256,
                   help="queued fleet jobs before load-shed by route "
                        "priority (default 256)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "artifact",
        help="manage the persistent store of prepared programs",
    )
    asub = p.add_subparsers(dest="artifact_command", required=True)

    a = asub.add_parser(
        "prepare",
        help="prepare a release from a batch manifest and store it",
        parents=[store],
    )
    a.add_argument("manifest", help="JSON batch manifest (copies ignored)")
    a.add_argument("--shards", type=int, default=None, metavar="N",
                   help="when creating --store, lay it out as a sharded "
                        "fabric of N shard stores")
    a.add_argument("--label", default="",
                   help="free-form release label kept in the manifest")
    a.set_defaults(fn=cmd_artifact_prepare)

    a = asub.add_parser("list", help="list stored artifacts",
                        parents=[store, as_json])
    a.set_defaults(fn=cmd_artifact_list)

    a = asub.add_parser("evict", help="remove an artifact from the store",
                        parents=[store])
    a.add_argument("digest", help="artifact digest (unique prefix ok)")
    a.set_defaults(fn=cmd_artifact_evict)

    a = asub.add_parser(
        "verify",
        help="integrity-check every blob against the manifest",
        parents=[store],
    )
    a.set_defaults(fn=cmd_artifact_verify)

    a = asub.add_parser(
        "quarantine-list",
        help="list blobs moved aside after failing integrity checks",
        parents=[store, as_json],
    )
    a.set_defaults(fn=cmd_artifact_quarantine_list)

    p = sub.add_parser(
        "obs",
        help="inspect a telemetry journal (events, SLOs, trace trees)",
    )
    osub = p.add_subparsers(dest="obs_command", required=True)

    o = osub.add_parser("tail", help="print the newest journal events",
                        parents=[journal])
    o.add_argument("--limit", type=int, default=20,
                   help="events to print (default 20)")
    o.add_argument("--kind", default=None,
                   help="only this event kind (e.g. http.request, fault)")
    o.add_argument("--name", default=None, metavar="GLOB",
                   help="only events whose name matches this glob")
    o.add_argument("--route", default=None,
                   help="only events for this HTTP route")
    o.set_defaults(fn=cmd_obs_tail)

    o = osub.add_parser(
        "summary",
        help="count journal records by kind; time spent per span name",
        parents=[journal],
    )
    o.set_defaults(fn=cmd_obs_summary)

    o = osub.add_parser(
        "slo",
        help="judge SLO objectives over the journal (exit 1 on breach)",
        parents=[journal],
    )
    o.add_argument("--spec", default=None, metavar="FILE",
                   help="JSON SLO spec (default: built-in objectives)")
    o.add_argument("--window", type=float, default=None, metavar="SECONDS",
                   help="override every objective's evaluation window")
    o.set_defaults(fn=cmd_obs_slo)

    o = osub.add_parser("trace",
                        help="render one trace's span tree from the journal",
                        parents=[journal])
    o.add_argument("trace_id",
                   help="trace id (a unique prefix is enough)")
    o.set_defaults(fn=cmd_obs_trace)

    p = sub.add_parser(
        "fleet",
        help="inspect and operate a fleet front-end over HTTP",
    )
    fsub = p.add_subparsers(dest="fleet_command", required=True)

    f = fsub.add_parser(
        "status",
        help="worker health states + dispatcher counters from /healthz "
             "(exit 1 if any worker is ejected, 2 if not a fleet)",
        parents=[as_json],
    )
    f.add_argument("--url", required=True, metavar="URL",
                   help="front-end base URL, e.g. http://127.0.0.1:8765")
    f.add_argument("--timeout", type=float, default=10.0, metavar="SECONDS")
    f.set_defaults(fn=cmd_fleet_status)

    f = fsub.add_parser(
        "rebalance",
        help="add or remove a fabric shard behind a live front-end "
             "(admission pauses for the duration of the move)",
        parents=[as_json],
    )
    f.add_argument("action", choices=["add-shard", "remove-shard"])
    f.add_argument("--url", required=True, metavar="URL")
    f.add_argument("--shard", default=None, metavar="NAME",
                   help="shard name (required for remove-shard; "
                        "add-shard auto-names when omitted)")
    f.add_argument("--timeout", type=float, default=60.0, metavar="SECONDS")
    f.set_defaults(fn=cmd_fleet_rebalance)

    return parser


#: The library's refusals of bad input or an unusable environment.
#: :func:`main` turns each into one stderr line and exit 2, so a
#: refusal never reads as exit 1 ("no watermark recovered").
_REFUSALS = (
    VMError, MachineFault, WatermarkError, StoreError, GeneratorError,
    ServiceError, OSError, ManifestError, AssemblyError, VMFormatError,
    VerificationError, ImageFormatError, LexError, ParseError,
    SemanticError,
)

#: What a refusal's line starts with, by type; the rest print as raised.
_REFUSAL_PREFIXES = (
    (VMError, "program trapped: "),
    (MachineFault, "program faulted: "),
    (GeneratorError, "workload generation failed the oracle: "),
    ((ServiceError, ConnectionError), "front-end unreachable: "),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _REFUSALS as exc:
        prefix = next(
            (p for kind, p in _REFUSAL_PREFIXES if isinstance(exc, kind)), ""
        )
        print(f"{prefix}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
