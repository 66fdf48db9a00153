"""Compiled exact-cover kernel.

Same algorithm, column heuristic, row order, and node accounting as the
pure-Python twin; the search runs in ``dlx_kernel.c``.  On first import
the system ``cc`` compiles that file into a shared library cached under
``$XDG_CACHE_HOME/gf2designs/`` (default ``~/.cache/gf2designs/``), keyed
by a sha256 of the source, the compile command, the operating system and
the machine architecture, and ``ctypes`` loads it.  A failed compile
raises ImportError carrying the compiler's stderr.

The kernel writes solutions into two buffers owned by ``solve``, their
rows and their end offsets, and hands them over in batches through one
flush callback, which appends each batch to a ``Solutions``, narrowing
each C int and int64 to its item types, and makes no Python object per
solution.  The kernel also calls it every 65,536 nodes, so an exception
raised meanwhile, such as KeyboardInterrupt on Ctrl-C, stops the search
there and is raised once the kernel returns.
"""

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
from array import array
from pathlib import Path

from .packed import Solutions, narrowed

BACKEND = "c"

EXHAUSTED = 0
LIMIT = 1
TIMED_OUT = 2

# row ids per batch, with room for a quarter as many end offsets (int64):
# 192 KB in all.  solve makes room for one solution of n_cols rows
# whatever this is.
_BUFFER = 1 << 15

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
_LONGS = ctypes.POINTER(ctypes.c_longlong)
_FLUSH = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_int)

try:
    _dlx_solve = ctypes.CDLL(str(_library())).dlx_solve
except OSError as exc:  # no compiler, unwritable cache, unloadable library
    raise ImportError(f"cannot build or load {_SOURCE.name}: {exc}") from exc
_dlx_solve.argtypes = [
    ctypes.c_int, ctypes.c_int, _INTS, _INTS,  # columns, rows
    ctypes.c_int, _INTS, _INTS, _INTS,  # constraints
    ctypes.c_longlong, ctypes.c_double,
    _INTS, ctypes.c_int, _LONGS, ctypes.c_int,  # rows, end offsets
    _FLUSH, _LONGS,
]
_dlx_solve.restype = ctypes.c_int


def _check(status, func, args):
    """Raise for the kernel's negative return codes."""
    if status == -1:
        raise MemoryError("dlx_kernel: out of memory")
    if status < 0:
        raise ValueError(
            "dlx_kernel: column or row index out of range, or a solution "
            "buffer too short: rows below n_cols or no end offset"
        )
    return status


_dlx_solve.errcheck = _check


def _csr(groups):
    """Concatenate int sequences; returns (start offsets, flat values)."""
    start, flat = [0], []
    for g in groups:
        flat.extend(g)
        start.append(len(flat))
    return (ctypes.c_int * len(start))(*start), (ctypes.c_int * len(flat))(*flat)


def _buffer(code, size):
    """A zeroed array for the kernel to write, and the ctypes view it gets."""
    buf = array(code, [0]) * size
    ctype = ctypes.c_int if code == "i" else ctypes.c_longlong
    return buf, (ctype * size).from_buffer(buf)


def _receive(rows, ends, solutions, failed):
    """Generator behind the flush callback; each ``send(n)`` returns 0 or 1.

    It appends the first n end offsets in ``ends`` and the rows they
    close in ``rows`` to ``solutions``, in its narrower item types.  On
    an exception it keeps it in ``failed`` and returns 1, which stops the
    search.  The callback is a generator's send, not a function: Python
    runs pending signal handlers on entering a function, before any try
    block, and ctypes would print and drop what they raise; a generator
    resumes inside its try block.
    """
    ids = narrowed(rows, solutions.rows.typecode)
    n = yield
    while True:
        try:
            if n:
                starts = solutions.starts_for(ends[n - 1])
                done = starts[-1]
                starts.frombytes(narrowed(ends, starts.typecode)[:n].tobytes())
                solutions.rows.frombytes(ids[: starts[-1] - done].tobytes())
            n = yield 0
        except GeneratorExit:
            raise
        except BaseException as exc:  # raised again once the kernel returns
            failed.append(exc)
            n = yield 1


def solve(n_cols, rows, constraints, max_solutions, deadline):
    """Run exhaustive Algorithm X; returns (status, solutions, nodes).

    rows: sequence of nonempty, strictly ascending column-index tuples.
    constraints: sequence of (row-id tuple, exact target) pairs.
    deadline: time.monotonic() deadline, negative for none.
    ``solutions`` is a ``Solutions``, whose rows read as ascending tuples
    of row ids.
    """
    row_start, cols = _csr(rows)
    con_start, members = _csr(m for m, _ in constraints)
    targets = (ctypes.c_int * len(constraints))(*(t for _, t in constraints))
    rows_buf, rows_c = _buffer("i", max(_BUFFER, n_cols))
    ends_buf, ends_c = _buffer("q", max(_BUFFER // 4, 1))
    solutions, failed = Solutions.over(len(rows)), []
    receiver = _receive(rows_buf, ends_buf, solutions, failed)
    next(receiver)
    flush = _FLUSH(receiver.send)
    nodes = ctypes.c_longlong()
    status = _dlx_solve(
        n_cols, len(rows), row_start, cols,
        len(constraints), con_start, members, targets,
        min(max_solutions, (1 << 63) - 1), deadline,
        rows_c, len(rows_c), ends_c, len(ends_c), flush,
        ctypes.byref(nodes),
    )
    if failed:
        raise failed[0]
    return status, solutions, nodes.value
