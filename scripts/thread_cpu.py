#!/usr/bin/env python3
"""Per-thread CPU use of one command: where each of its threads may run,
where it ran last, and what it spent there.

    python3 scripts/thread_cpu.py [--delay S] <seconds> -- <command...>

Starts the command, waits `--delay` seconds (default 0; a benchmark's
table build is worth skipping), reads every `/proc/<pid>/task/<tid>`
entry of it, waits `<seconds>`, reads them again, and prints one line per
thread alive at both reads:

    name  user%  sys%  vol/s  invol/s  last_cpu  allowed

`user%` and `sys%` are shares of one CPU over the interval; `vol/s` and
`invol/s` are voluntary and involuntary context switches per second;
`last_cpu` is the CPU the thread last ran on and `allowed` its
`Cpus_allowed_list`. Threads are named by their OS name (`comm`), so an
engine's `cc0`, `p1.exec0`, `partseq` are told apart. The table goes to
stderr, so the command's stdout stays its own; the script then waits for
the command and exits with its status.

It reads only its own child's `/proc` entries and changes nothing on the
host.
"""

import argparse
import os
import subprocess
import sys
import time

TICKS = os.sysconf("SC_CLK_TCK")


def read_task(path):
    """(name, utime, stime, last_cpu, voluntary, involuntary, allowed) of
    one `/proc/<pid>/task/<tid>` directory, or None once it has gone."""
    try:
        with open(os.path.join(path, "stat")) as f:
            stat = f.read()
        with open(os.path.join(path, "status")) as f:
            status = f.read()
    except OSError:
        return None
    name = stat[stat.index("(") + 1 : stat.rindex(")")]
    # Fields after the command name, numbered from field 3 (state).
    rest = stat[stat.rindex(")") + 2 :].split()
    utime, stime, last_cpu = int(rest[11]), int(rest[12]), int(rest[36])
    fields = dict(
        line.split(":", 1) for line in status.splitlines() if ":" in line
    )
    return (
        name,
        utime,
        stime,
        last_cpu,
        int(fields["voluntary_ctxt_switches"]),
        int(fields["nonvoluntary_ctxt_switches"]),
        fields["Cpus_allowed_list"].strip(),
    )


def sample(pid):
    """Every live thread of `pid`, by thread id."""
    base = f"/proc/{pid}/task"
    try:
        tids = os.listdir(base)
    except OSError:
        return {}
    out = {}
    for tid in tids:
        task = read_task(os.path.join(base, tid))
        if task is not None:
            out[tid] = task
    return out


def table(before, after, seconds):
    """The per-thread lines for the threads alive at both samples."""
    rows = []
    for tid, (name, ut, st, cpu, vol, inv, allowed) in after.items():
        if tid not in before:
            continue
        _, ut0, st0, _, vol0, inv0, _ = before[tid]
        rows.append(
            (
                name,
                100.0 * (ut - ut0) / TICKS / seconds,
                100.0 * (st - st0) / TICKS / seconds,
                (vol - vol0) / seconds,
                (inv - inv0) / seconds,
                cpu,
                allowed,
            )
        )
    rows.sort(key=lambda r: r[0])
    lines = [
        f"{'name':<16} {'user%':>6} {'sys%':>6} {'vol/s':>9} {'invol/s':>9} "
        f"{'last_cpu':>8}  allowed"
    ]
    for name, usr, sys_, vol, inv, cpu, allowed in rows:
        lines.append(
            f"{name:<16} {usr:>6.1f} {sys_:>6.1f} {vol:>9.0f} {inv:>9.0f} "
            f"{cpu:>8}  {allowed}"
        )
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("seconds", type=float, help="interval between the samples")
    ap.add_argument("--delay", type=float, default=0.0, help="wait before the first sample")
    ap.add_argument("command", nargs=argparse.REMAINDER, help="-- command...")
    args = ap.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command or args.seconds <= 0:
        ap.error("need a positive interval and a command after --")

    child = subprocess.Popen(command)
    try:
        time.sleep(args.delay)
        before = sample(child.pid)
        t0 = time.monotonic()
        time.sleep(args.seconds)
        after = sample(child.pid)
        elapsed = time.monotonic() - t0
        if not after:
            print("thread_cpu: the command exited before the second sample", file=sys.stderr)
        else:
            print(table(before, after, elapsed), file=sys.stderr, flush=True)
        return child.wait()
    except KeyboardInterrupt:
        child.terminate()
        return child.wait()


if __name__ == "__main__":
    sys.exit(main())
