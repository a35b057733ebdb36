"""Measure the host's slow phases with a fixed pure-Python loop.

    python3 perfbench/host_phases.py [SECONDS]

Times a constant chunk of pure-Python work (about 0.1 s) back to back
for SECONDS (default 30) and prints, as JSON, the chunk time's quartiles
relative to the fastest decile, the share of chunks at least 15% slower,
and the lengths of the slow stretches.  CPU time is reported next to wall time,
so a slowdown that CPU time tracks is the processor's, not a wait.
"""

import json
import statistics
import sys
import time


def chunk(n: int = 1_400_000) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def main() -> None:
    seconds = float(sys.argv[1]) if len(sys.argv) > 1 else 30.0
    samples = []
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        w0, c0 = time.perf_counter(), time.process_time()
        chunk()
        samples.append((time.perf_counter() - w0, time.process_time() - c0))
    walls = [w for w, _ in samples]
    fast = statistics.median(sorted(walls)[: max(1, len(walls) // 10)])
    slow = [w >= 1.15 * fast for w in walls]
    stretches, run = [], 0
    for flag in slow + [False]:
        if flag:
            run += 1
        elif run:
            stretches.append(round(run * fast, 2))
            run = 0
    q = statistics.quantiles(walls, n=4)
    print(json.dumps({
        "chunks": len(walls),
        "chunk_s_fastest_decile": fast,
        "ratio_q1_median_q3": [round(x / fast, 3) for x in (q[0], q[1], q[2])],
        "ratio_max": round(max(walls) / fast, 3),
        "slow_share": round(sum(slow) / len(slow), 3),
        "slow_stretch_s": {"count": len(stretches), "max": max(stretches, default=0.0),
                           "median": statistics.median(stretches) if stretches else 0.0},
        "cpu_over_wall": round(sum(c for _, c in samples) / sum(walls), 4),
    }))


if __name__ == "__main__":
    main()
