"""Compiled exact-cover kernel.

Same algorithm, column heuristic, row order, and node accounting as the
pure-Python twin; the search runs in ``dlx_kernel.c``.  On first import
the system ``cc`` compiles that file into a shared library cached under
``$XDG_CACHE_HOME/gf2designs/`` (default ``~/.cache/gf2designs/``), keyed
by a sha256 of the source, the compile command, the operating system and
the machine architecture, and ``ctypes`` loads it.  A failed compile
raises ImportError carrying the compiler's stderr.
"""

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
from pathlib import Path

BACKEND = "c"

EXHAUSTED = 0
LIMIT = 1
TIMED_OUT = 2

_SOURCE = Path(__file__).with_name("dlx_kernel.c")
_COMPILE = ("cc", "-O3", "-shared", "-fPIC")


def _library() -> Path:
    """Path of the compiled kernel, compiling it unless already cached."""
    # a cache shared between hosts must not hand one host a library built
    # for another operating system or architecture
    host = f"{platform.system()} {platform.machine()}"
    key = hashlib.sha256(
        _SOURCE.read_bytes() + f"{' '.join(_COMPILE)}\n{host}".encode()
    ).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    lib = cache / "gf2designs" / f"dlx_kernel-{key[:16]}.so"
    if lib.exists():
        return lib
    lib.parent.mkdir(parents=True, exist_ok=True)
    # compile under a private name, then rename: a concurrent import never
    # loads a half-written library
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=lib.parent)
    os.close(fd)
    try:
        proc = subprocess.run(
            [*_COMPILE, "-o", tmp, str(_SOURCE)], capture_output=True, text=True
        )
        if proc.returncode:
            raise ImportError(
                f"compiling {_SOURCE.name} failed:\n{proc.stderr.strip()}"
            )
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


_INTS = ctypes.POINTER(ctypes.c_int)
_ON_SOLUTION = ctypes.CFUNCTYPE(None, _INTS, ctypes.c_int)

try:
    _dlx_solve = ctypes.CDLL(str(_library())).dlx_solve
except OSError as exc:  # no compiler, unwritable cache, unloadable library
    raise ImportError(f"cannot build or load {_SOURCE.name}: {exc}") from exc
_dlx_solve.argtypes = [
    ctypes.c_int, ctypes.c_int, _INTS, _INTS,  # columns, rows
    ctypes.c_int, _INTS, _INTS, _INTS,  # constraints
    ctypes.c_longlong, ctypes.c_double, _ON_SOLUTION,
    ctypes.POINTER(ctypes.c_longlong),
]
_dlx_solve.restype = ctypes.c_int


def _csr(groups):
    """Concatenate int sequences; returns (start offsets, flat values)."""
    start, flat = [0], []
    for g in groups:
        flat.extend(g)
        start.append(len(flat))
    return (ctypes.c_int * len(start))(*start), (ctypes.c_int * len(flat))(*flat)


def solve(n_cols, rows, constraints, max_solutions, deadline):
    """Run exhaustive Algorithm X; returns (status, solutions, nodes).

    rows: sequence of nonempty, strictly ascending column-index tuples.
    constraints: sequence of (row-id tuple, exact target) pairs.
    deadline: time.monotonic() deadline, negative for none.
    """
    row_start, cols = _csr(rows)
    con_start, members = _csr(m for m, _ in constraints)
    targets = (ctypes.c_int * len(constraints))(*(t for _, t in constraints))
    solutions = []

    @_ON_SOLUTION
    def found(sel, depth):
        solutions.append(sorted(sel[:depth]))

    nodes = ctypes.c_longlong()
    status = _dlx_solve(
        n_cols, len(rows), row_start, cols,
        len(constraints), con_start, members, targets,
        min(max_solutions, (1 << 63) - 1), deadline, found,
        ctypes.byref(nodes),
    )
    if status == -1:
        raise MemoryError("dlx_kernel: out of memory")
    if status < 0:
        raise ValueError("dlx_kernel: column or row index out of range")
    return status, solutions, nodes.value
