"""Run artifacts: report.json, data.csv, plot.dat, and field.csv with its
field.json sidecar for runs that sample a field.

Every report embeds the fully-resolved configuration (defaults included) so
a run can be reproduced from its own artifact.  CSV cells are written with
repr() of the values as Python floats, making identical runs byte-identical
and every cell a plain number.  The GEMM-based commands reproduce data.csv
byte for byte only at one BLAS thread count, so report.json also records
the BLAS library, its thread count and the usable cores (`environment`).
"""

from __future__ import annotations

import csv
import ctypes
import json
import os
from dataclasses import asdict, dataclass, field, is_dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np


def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in asdict(obj).items()}
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    if hasattr(obj, "item"):
        return obj.item()
    return str(obj)


@dataclass
class RunReport:
    command: str
    config: dict
    verdict: str                    # PASS | FAIL | INFO
    results: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)     # CSV rows (list of dicts)
    plot: Optional[list] = None                  # [(x, y), ...]
    field: Optional[tuple] = None                # (SpaceTimeField, sidecar meta)

    def emit(self, outdir) -> Path:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "report.json", "w") as f:
            json.dump(
                {
                    "command": self.command,
                    "config": _jsonable(self.config),
                    "verdict": self.verdict,
                    "results": _jsonable(self.results),
                    "environment": environment(),
                },
                f,
                indent=2,
                sort_keys=True,
            )
        if self.rows:
            keys = list(self.rows[0].keys())
            with open(outdir / "data.csv", "w", newline="") as f:
                writer = csv.DictWriter(f, fieldnames=keys)
                writer.writeheader()
                for row in self.rows:
                    writer.writerow({k: _fmt(v) for k, v in row.items()})
        if self.plot:
            with open(outdir / "plot.dat", "w") as f:
                for x, y in self.plot:
                    f.write(f"{_fmt(x)} {_fmt(y)}\n")
        if self.field:
            field_to_csv(*self.field, outdir)
        return outdir / "report.json"


# the thread-count getter of OpenBLAS under its plain and its
# scipy-openblas (64-bit integer, prefixed) builds
_OPENBLAS_THREAD_GETTERS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                            "scipy_openblas_get_num_threads64_",
                            "scipy_openblas_get_num_threads")


def environment() -> dict:
    """The BLAS numpy was built with (name and version), the thread count of
    the OpenBLAS loaded in this process (None when none is, or it cannot be
    asked) and the number of cores this process may use."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _openblas_threads(), "cores": cores}


def _openblas_threads() -> Optional[int]:
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:       # a mapping whose file is gone
            continue
        for name in _OPENBLAS_THREAD_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                return int(getter())
    return None


def field_to_csv(field, meta: dict, outdir: Path) -> None:
    """field.csv rows (t, r, Re F, Im F) and the field.json sidecar."""
    with open(outdir / "field.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["t", "r", "re_f", "im_f"])
        for i, t in enumerate(field.grid.t_nodes):
            for j, r in enumerate(field.grid.r_nodes):
                v = field.values[i, j]
                writer.writerow([repr(float(t)), repr(float(r)),
                                 repr(float(v.real)), repr(float(v.imag))])
    payload = {"n": field.n, "source": field.source,
               "n_t": int(field.grid.t_nodes.size), "n_r": int(field.grid.r_nodes.size)}
    payload.update(meta)
    with open(outdir / "field.json", "w") as f:
        json.dump(payload, f, indent=2)


def _fmt(v):
    # float() first: numpy 2 reprs an np.float64 as "np.float64(...)"
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v


def resolve_outdir(explicit: Optional[str], run_id: str) -> Path:
    base = explicit or os.environ.get("RSL_OUTPUT_DIR") or "runs"
    return Path(base) / run_id
