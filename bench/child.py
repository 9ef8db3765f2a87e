"""One benchmark sample in a fresh interpreter.

Imports ``jcdrive.cli`` first and notes the monotonic clock when that is
done, so the parent (bench/run.py) can time set-up from the moment it started this process.
Then, unless ``--import-only`` is given, it runs ``sim run`` through
``jcdrive.cli.main`` (optionally traced) and writes a JSON report: the
import-done clock, the run's wall time and exit code, and the peak resident
memory of this process.  Environment facts (library versions, BLAS threads)
are gathered after the clock is read, so they do not count as set-up.
"""

import time

import jcdrive.cli

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402


def peak_rss_kb() -> int:
    """High-water resident set of this process's own address space, in kB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded into this process."""
    symbols = ("openblas_get_num_threads", "openblas_get_num_threads64_",
               "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return {}
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                found[path.rsplit("/", 1)[-1]] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy
    import platform

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", required=True, help="where to write the JSON report")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--spans", help="trace the run and write its spans here (JSON lines)")
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args()

    report = {"imported_at": IMPORTED_AT}
    if not args.import_only:
        recorder = None
        if args.spans:
            import spans

            recorder = spans.Recorder(args.run_id)
            spans.install(recorder)
        start = time.perf_counter()
        try:
            report["exit_code"] = jcdrive.cli.main(["run", "--config", args.config, "--out", args.out])
        except Exception:  # a crash is a failed sample, not a failed benchmark
            traceback.print_exc()
            report["exit_code"] = -1
        report["wall_s"] = time.perf_counter() - start
        if recorder is not None:
            recorder.write(args.spans)
    report["peak_rss_kb"] = peak_rss_kb()
    report["environment"] = environment()
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
