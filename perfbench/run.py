"""Entry point of the acbm benchmark.

    python3 perfbench/run.py --workload pair512 --seed 1 --seconds 40 --trace 0

Run it from anywhere inside a checkout: the program is imported from the
checkout's src/ directory, so no install or build step is needed.  Exits 1
without a result when the checkout has no acbm sources.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "acbm" / "__init__.py").is_file():
        print(f"run.py: no acbm sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    import bench_harness
    return bench_harness.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
