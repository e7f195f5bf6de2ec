"""Benchmark: compiled F_p elimination kernel vs the pure-Python fallback.

Times raw RREF calls and the brute-force radical oracle on the partial
smash carrier of the C_4 triple action over F_3, which is dominated by the
kernel's radical-candidate prefilter and small row reductions.
(`jacobson_radical` itself uses the Cohen-Ivanyos-Wales algorithm and
spends milliseconds there.)

Run:  python benchmarks/bench_fp_kernel.py
"""

import random
import time

from psl import _fpkernel_py

try:
    from psl import _fpkernel
except ImportError:
    _fpkernel = None


def bench_rref(kernel, rows_batch, p):
    t0 = time.perf_counter()
    for rows in rows_batch:
        kernel.rref_fp(rows, p)
    return time.perf_counter() - t0


def bench_radical_workload(pure: bool):
    import importlib
    import os
    import subprocess
    import sys

    code = (
        "import time; t0 = time.perf_counter()\n"
        "from psl.paction import c4_triple\n"
        "from psl.exactla import GF\n"
        "from psl.smash import build_partial_smash\n"
        "from psl.radicals import brute_nilpotent_radical\n"
        "from psl import _kernel\n"
        "pa = c4_triple(GF(3))\n"
        "sp = build_partial_smash(pa)\n"
        "brute_nilpotent_radical(sp.carrier)\n"
        "print(_kernel.IMPLEMENTATION, time.perf_counter() - t0)\n"
    )
    env = dict(os.environ)
    if pure:
        env["PSL_PURE"] = "1"
    else:
        env.pop("PSL_PURE", None)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout.split()
    return out[0], float(out[1])


def main():
    rng = random.Random(0)
    print(f"{'workload':<42}{'python':>12}{'cython':>12}{'speedup':>10}")
    for p, size, count in ((2, 12, 400), (3, 9, 400), (5, 20, 200), (13, 30, 100)):
        batch = [
            [[rng.randrange(p) for _ in range(size)] for _ in range(size)]
            for _ in range(count)
        ]
        t_py = bench_rref(_fpkernel_py, batch, p)
        label = f"rref {count} x {size}x{size} over F_{p}"
        if _fpkernel is None:
            print(f"{label:<42}{t_py:>11.4f}s{'n/a':>12}")
            continue
        t_cy = bench_rref(_fpkernel, batch, p)
        print(f"{label:<42}{t_py:>11.4f}s{t_cy:>11.4f}s{t_py / t_cy:>9.1f}x")

    impl_py, t_py = bench_radical_workload(pure=True)
    impl_sel, t_sel = bench_radical_workload(pure=False)
    label = "brute J(carrier), C4-triple over F_3"
    if impl_sel == "python":
        print(f"{label:<42}{t_py:>11.4f}s{'n/a':>12}   (extension not built)")
    else:
        print(f"{label:<42}{t_py:>11.4f}s{t_sel:>11.4f}s{t_py / t_sel:>9.1f}x")


if __name__ == "__main__":
    main()
