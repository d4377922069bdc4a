"""Compare a byte oracle's output with its committed golden file.

``tools/golden/<name>.txt`` holds what ``served_bytes.py`` or
``trained_bytes.py`` printed when the golden was last blessed, under a
header that fingerprints the float arithmetic behind it: the numpy
version, the machine, the BLAS numpy was built against and, when ctypes
can read it, the OpenBLAS core its ``DYNAMIC_ARCH`` build dispatched to.
Another fingerprint can round the same formula differently, so on a
header mismatch ``compare`` prints a notice and skips; on a matching
header it prints a unified diff of any changed line and fails.

Usage:
    python tools/golden.py compare NAME OUTPUT   # exit 1 on a moved line
    python tools/golden.py bless NAME OUTPUT     # rewrite the golden
"""

from __future__ import annotations

import argparse
import ctypes
import difflib
import platform
import sys
from pathlib import Path
from typing import List

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
#: Getter names of the OpenBLAS builds numpy ships or links.
CORENAME_SYMBOLS = (
    "scipy_openblas_get_corename64_",
    "scipy_openblas_get_corename",
    "openblas_get_corename64_",
    "openblas_get_corename",
)


def openblas_core() -> str:
    """The kernel family OpenBLAS picked for this CPU, or ``unknown``."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError as error:  # the core stays part of the fingerprint
            return f"unloadable ({type(error).__name__})"
        for symbol in CORENAME_SYMBOLS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return "unknown"


def fingerprint() -> List[str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"# numpy {np.__version__}",
        f"# machine {platform.machine()}",
        f"# blas {blas.get('name', 'unknown')}",
        f"# openblas-core {openblas_core()}",
    ]


def split(text: str):
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    return header, [line for line in lines if not line.startswith("#")]


def compare(name: str, output: Path) -> int:
    golden = GOLDEN_DIR / f"{name}.txt"
    header, want = split(golden.read_text())
    have = split(output.read_text())[1]
    if header != fingerprint():
        print(f"golden {name}: blessed under another fingerprint, not compared")
        print("\n".join(["  blessed:"] + header + ["  here:"] + fingerprint()))
        return 0
    if want == have:
        print(f"golden {name}: unchanged")
        return 0
    sys.stdout.writelines(
        line + "\n"
        for line in difflib.unified_diff(
            want, have, f"tools/golden/{name}.txt", str(output), lineterm=""
        )
    )
    print(f"golden {name}: moved (tools/check.sh --rebless records it on purpose)")
    return 1


def bless(name: str, output: Path) -> int:
    body = split(output.read_text())[1]
    GOLDEN_DIR.mkdir(exist_ok=True)
    (GOLDEN_DIR / f"{name}.txt").write_text("\n".join(fingerprint() + body) + "\n")
    print(f"golden {name}: blessed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("compare", "bless"))
    parser.add_argument("name", help="golden file stem under tools/golden/")
    parser.add_argument("output", type=Path, help="the oracle's output")
    args = parser.parse_args(argv)
    return (compare if args.command == "compare" else bless)(args.name, args.output)


if __name__ == "__main__":
    sys.exit(main())
