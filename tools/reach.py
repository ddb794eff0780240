"""Reachability probe: which functions in ``src/repro`` never run outside tests.

Runs the examples, every CLI verb, the benchmark suite and the
end-to-end smoke run (``benchmarks/e2e/run.py --smoke``), outside the
unit tests, under a ``sys.setprofile`` hook, then prints every function
defined in ``src/repro`` that no run entered, marked ``public`` (its
name, or its class's, is exported by ``repro`` or a subpackage
``__init__``) or ``internal``.  The output is a candidate list for
deletion or deprecation, not a delete list::

    python tools/reach.py    # 10-15 minutes on 2 cores

The hook reaches each child process through a temporary
``sitecustomize`` module put first on ``PYTHONPATH``; every process
writes the code objects it entered when it exits.  Blind spot: pool
workers leave through ``os._exit`` and skip ``atexit``, so paths that
only run inside a process pool (``__getstate__`` unpickling, a pool
shard's run) are reported unreached.  The benchmark suite and the
end-to-end run each run on a copy (the latter with a ``src`` link back
to the tree) so their result and stream files stay out of the tree; the
end-to-end repeats keep the hook, which their parent passes on through
``PYTHONPATH``.
Stdlib only.  CI runs it weekly and on demand in the non-gating
``reach`` workflow (``.github/workflows/reach.yml``), which uploads the
list as an artifact.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Installed in each child process as ``sitecustomize``.
_SITECUSTOMIZE = '''
import atexit, os, sys, threading

_out = os.environ.get("REACH_OUT")
if _out:
    _seen = set()
    _add = _seen.add

    def _hook(frame, event, arg):
        if event == "call":
            _add(frame.f_code)

    def _dump():
        sys.setprofile(None)
        lines = {f"{c.co_filename}:{c.co_firstlineno}" for c in _seen}
        path = os.path.join(_out, f"{os.getpid()}.txt")
        with open(path, "a") as fh:
            fh.write("\\n".join(sorted(lines)) + "\\n")

    atexit.register(_dump)
    threading.setprofile(_hook)
    sys.setprofile(_hook)
'''

#: Example scripts with tiny-run arguments; ``{tmp}`` is a scratch dir.
EXAMPLES: Tuple[Tuple[str, ...], ...] = (
    ("quickstart.py", "--scale", "0.05"),
    ("cost_model_timeline.py",),
    ("custom_scheduler.py", "--scale", "0.05"),
    ("render_gallery.py", "--size", "14", "--image", "16", "--ranks", "2",
     "--out", "{tmp}/gallery"),
    ("batch_animation.py", "--frames", "2", "--size", "12", "--image", "16",
     "--ranks", "2", "--out", "{tmp}/animation"),
    ("service_dynamics.py", "--scale", "0.05"),
    ("multi_user_service.py", "--duration", "4", "--nodes", "4"),
    ("fault_tolerance.py", "--scale", "0.1"),
    ("slo_report.py", "--scale", "0.05"),
    ("overload_management.py", "--scale", "0.05"),
    ("trace_inspection.py", "--scale", "0.05", "--trace-dir", "{tmp}"),
    ("federation.py", "--scale", "0.02", "--shards", "2"),
    ("live_watch.py", "--scale", "0.05", "--out", "{tmp}/watch.ndjson"),
    ("run_report.py", "--scale", "0.05", "--out", "{tmp}/example-report.html"),
)

#: ``python -m repro.cli`` invocations: every verb, and every documented
#: option in at least one of them.  ``--stall-timeout`` arms the
#: watchdog, but a run that never stalls leaves its dump unreached.
CLI: Tuple[Tuple[str, ...], ...] = (
    ("simulate", "--scenario", "2", "--schedulers", "OURS,FCFSL",
     "--scale", "0.05", "--seed", "3", "--metrics", "{tmp}/metrics.jsonl",
     "--slo", "fps=33.33", "--slo", "latency:p95=0.25", "--slo-window", "0.5",
     "--trace", "{tmp}/trace.json", "--audit", "{tmp}/audit.jsonl",
     "--per-action", "--profile"),
    ("simulate", "--scenario", "2", "--scale", "0.05", "--load", "2.5",
     "--admission", "sessions=8,rate=50", "--queue-limit", "64:shed-oldest",
     "--degrade", "--metrics", "{tmp}/overload.jsonl", "--drain"),
    ("simulate", "--scenario", "1", "--scale", "0.05",
     "--stream", "{tmp}/stream.ndjson", "--stall-timeout", "60"),
    ("watch", "{tmp}/stream.ndjson", "--once"),
    # Tails the finished stream and stops at its summary record.
    ("watch", "{tmp}/stream.ndjson", "--poll", "0.05", "--idle-timeout", "5"),
    ("faults", "--scenario", "1", "--scale", "0.05", "--storm", "11",
     "--audit", "{tmp}/fault-audit.jsonl", "--report", "{tmp}/rca.json"),
    ("faults", "--scenario", "1", "--scale", "0.05", "--plan",
     "crash@0.5:node=3,revive=2;straggler@0.5:node=1,render=3,io=2,until=2;"
     "wipe@1:node=2,dataset=engine;storage@0.8:latency=5,bw=0.5,until=1.6",
     "--slo", "fps=30", "--slo-window", "0.5", "--rca-tolerance", "1",
     "--seed", "5", "--scheduler", "FCFSL",
     "--stream", "{tmp}/faults.ndjson", "--stall-timeout", "60"),
    ("faults", "--scenario", "1", "--scale", "0.05", "--load", "1",
     "--storm", "11", "--no-heal"),
    ("explain", "--scenario", "2", "--scale", "0.05", "--seed", "5",
     "--load", "1.5", "--schedulers", "OURS,FCFSL", "--drain",
     "--stream", "{tmp}/explain.ndjson", "--stall-timeout", "60"),
    ("federate", "--scenario", "4", "--shards", "4", "--router", "locality",
     "--scale", "0.05", "--out", "{tmp}/federation.html"),
    ("federate", "--scenario", "2", "--shards", "2", "--router", "hash",
     "--replication", "partition", "--users", "3", "--workers", "1",
     "--scale", "0.05", "--seed", "5", "--load", "2.5", "--scheduler",
     "OURS", "--drain", "--admission", "sessions=8", "--queue-limit", "64",
     "--degrade", "--frontend-scope", "global",
     "--metrics", "{tmp}/federation.jsonl", "--slo", "fps=30",
     "--slo-window", "0.5", "--stream", "{tmp}/federation.ndjson",
     "--stall-timeout", "60"),
    ("report", "--scenario", "2", "--schedulers", "OURS,FCFS",
     "--scale", "0.05", "--load", "1.5", "--out", "{tmp}/report.html"),
    ("report", "--scenario", "1", "--scale", "0.05", "--seed", "5",
     "--drain", "--slo", "fps=30",
     "--plan", "crash@0.5:node=3,revive=2", "--bins", "20",
     "--svg", "{tmp}/report.svg", "--out", "{tmp}/faults-report.html",
     "--stream", "{tmp}/report.ndjson", "--stall-timeout", "60"),
    ("render", "--size", "14", "--image", "16", "--ranks", "2",
     "--out", "{tmp}/render.ppm"),
    ("render", "--dataset", "plume", "--size", "12", "--image", "16",
     "--ranks", "3", "--algorithm", "2-3-swap", "--tf", "fire",
     "--step", "0.8", "--shaded", "--out", "{tmp}/shaded.ppm"),
    ("animate", "--dataset", "combustion", "--frames", "2", "--size", "12",
     "--image", "16", "--ranks", "2", "--out", "{tmp}/animate"),
    ("schedulers",),
    ("scenarios",),
)


def _run(argv: List[str], env: Dict[str, str], cwd: Path, label: str) -> bool:
    """Run one child; report and tolerate a non-zero exit."""
    proc = subprocess.run(
        argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        tail = "".join(proc.stderr.strip().splitlines()[-1:])
        print(f"  [exit {proc.returncode}] {label} {tail}", file=sys.stderr)
    return proc.returncode == 0


def collect(tmp: Path) -> Set[Tuple[str, int]]:
    """Run every workload under the hook; the entered (file, line) set."""
    out = tmp / "reach"
    hook = tmp / "hook"
    out.mkdir()
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(_SITECUSTOMIZE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hook), str(SRC)])
    env["REACH_OUT"] = str(out)
    env["REPRO_BENCH_SCALE"] = "0.05"
    py = sys.executable
    for args in EXAMPLES:
        argv = [py, str(ROOT / "examples" / args[0])]
        argv += [a.format(tmp=tmp) for a in args[1:]]
        _run(argv, env, tmp, args[0])
    for args in CLI:
        argv = [py, "-m", "repro.cli"] + [a.format(tmp=tmp) for a in args]
        _run(argv, env, tmp, "repro " + args[0])
    # A copy, so the benches' result files land in the scratch dir.
    bench = tmp / "bench"
    shutil.copytree(
        ROOT / "benchmarks", bench / "benchmarks",
        ignore=shutil.ignore_patterns("e2e", "__pycache__"),
    )
    shutil.copy(ROOT / "pyproject.toml", bench)
    _run(
        [py, "-m", "pytest", "benchmarks", "--benchmark-disable", "-q",
         "-p", "no:cacheprovider"],
        env, bench, "pytest benchmarks",
    )
    e2e = tmp / "e2e"
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", e2e / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    (e2e / "src").symlink_to(SRC, target_is_directory=True)
    _run(
        [py, str(e2e / "benchmarks" / "e2e" / "run.py"), "--smoke",
         "--json", str(tmp / "e2e-smoke.json")],
        env, tmp, "e2e smoke",
    )
    entered: Set[Tuple[str, int]] = set()
    for path in out.glob("*.txt"):
        for line in path.read_text().splitlines():
            filename, _, lineno = line.rpartition(":")
            if filename:
                entered.add((os.path.realpath(filename), int(lineno)))
    return entered


def exported_names() -> Set[str]:
    """Every name in the ``__all__`` of ``repro`` and its subpackages."""
    names: Set[str] = set()
    for init in PACKAGE.rglob("__init__.py"):
        for node in ast.parse(init.read_text()).body:
            if (
                isinstance(node, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets
                )
            ):
                names.update(ast.literal_eval(node.value))
    return names


def functions() -> List[Tuple[Path, int, int, str, bool]]:
    """``(file, first line, line count, qualname, public)`` per def."""
    exported = exported_names()
    found = []

    def visit(body, path: Path, prefix: str, owner_public: bool, top: bool):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(
                    node.body, path, prefix + node.name + ".",
                    top and node.name in exported, False,
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A decorated function's code starts at its first decorator.
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                name = node.name
                if top:
                    public = name in exported
                else:
                    dunder = name.startswith("__") and name.endswith("__")
                    public = owner_public and (dunder or not name.startswith("_"))
                found.append(
                    (path, first, node.end_lineno - first + 1,
                     prefix + name, public)
                )
                visit(node.body, path, prefix + name + ".", False, False)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text()).body, path, "", False, True)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        entered = collect(Path(tmp))
    defs = functions()
    unreached = [
        d for d in defs if (os.path.realpath(d[0]), d[1]) not in entered
    ]
    for path, line, count, qualname, public in unreached:
        kind = "public" if public else "internal"
        print(f"{path.relative_to(ROOT)}:{line}  {qualname}  {kind}  {count}")
    internal = [d for d in unreached if not d[4]]
    print(
        f"unreached: {len(unreached)} of {len(defs)} functions, "
        f"{sum(d[2] for d in unreached)} of {sum(d[2] for d in defs)} lines; "
        f"internal: {len(internal)} functions, "
        f"{sum(d[2] for d in internal)} lines"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
