"""On-disk formats: CSV dumps, the binary state checkpoint, run manifests."""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .lattice import GaugeField, LatticeSpec, curvature_slice
from .walker import WalkState, row_probabilities

_CHECKPOINT_HEADER = struct.Struct("<iiid")  # N, p_max, j, epsilon


def write_state_csv(path, positions: np.ndarray, values: np.ndarray, origin: str) -> None:
    """Shared walk/continuum state schema: p, x_p, re/im of each component,
    per-site probability, plus an origin flag ('walk' or 'dirac')."""
    if origin not in ("walk", "dirac"):
        raise ValueError(f"origin must be 'walk' or 'dirac', got {origin!r}")
    values = np.ascontiguousarray(values, dtype=complex)
    positions = np.asarray(positions, dtype=float)
    n, ncomp = values.shape
    if positions.shape != (n,):
        raise ValueError(f"positions have shape {positions.shape}, expected {(n,)} for {n} rows")
    p_max = (n - 1) // 2
    header = ["p", "x_p"]
    for c in range(ncomp):
        header += [f"re_{c}", f"im_{c}"]
    header += ["prob", "origin"]
    # a complex row viewed as floats is re/im interleaved per component
    rows = zip(range(-p_max, n - p_max), positions.tolist(),
               values.view(float).tolist(), row_probabilities(values).tolist())
    # each row as csv.writer writes it: the repr of every float, none of
    # which needs quoting, then csv's "\r\n"
    template = "%d" + ",%r" * (2 * ncomp + 2) + f",{origin}\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(template % (p, x, *comps, pr) for p, x, comps, pr in rows)


def write_checkpoint(path, state: WalkState) -> None:
    """Header (N, p_max, j, eps) then raw little-endian float64 (re, im) pairs."""
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_HEADER.pack(state.dim, state.spec.p_max, state.j, state.spec.epsilon))
        fh.write(np.ascontiguousarray(state.amplitudes, dtype="<c16").tobytes())


def read_checkpoint(path) -> WalkState:
    """The state written by write_checkpoint.  Its lattice spans time slices
    0..max(j, 2); walker.step accepts it on any field with the same sites."""
    with open(path, "rb") as fh:
        header = fh.read(_CHECKPOINT_HEADER.size)
        raw = fh.read()
    if len(header) < _CHECKPOINT_HEADER.size:
        raise ValueError(f"truncated checkpoint {path}: {len(header)}-byte header")
    dim, p_max, j, eps = _CHECKPOINT_HEADER.unpack(header)
    shape = (2 * p_max + 1, 2 * dim)
    size = 16 * shape[0] * shape[1]
    if dim < 1 or p_max < 0 or len(raw) != size:
        raise ValueError(f"truncated or corrupt checkpoint {path}: {len(raw)} payload bytes, "
                         f"expected {size} for N={dim}, p_max={p_max}")
    if p_max < 2 or j < 0 or not 0 < eps < np.inf:
        raise ValueError(f"corrupt checkpoint {path}: header p_max={p_max}, j={j}, epsilon={eps!r}")
    amps = np.frombuffer(raw, dtype="<c16").reshape(shape)
    if not np.isfinite(amps.view(float)).all():
        raise ValueError(f"corrupt checkpoint {path}: non-finite amplitudes")
    spec = LatticeSpec(eps, p_max, max(j, 2))
    return WalkState(spec, dim, j, amps.copy())


def _matrix_columns(prefix: str, dim: int) -> list[str]:
    cols = []
    for r in range(dim):
        for c in range(dim):
            cols += [f"re_{prefix}{r}{c}", f"im_{prefix}{r}{c}"]
    return cols


def write_gauge_field_csv(path, field: GaugeField, j_range=None) -> None:
    """Rows (j, p, entries of P then Q, re/im interleaved)."""
    spec = field.spec
    j_range = range(spec.j_max + 1) if j_range is None else j_range
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "p"] + _matrix_columns("P", field.dim) + _matrix_columns("Q", field.dim))
        for j in j_range:
            pj, qj = field.P(j), field.Q(j)
            for i in range(spec.n_sites):
                row = [j, i - spec.p_max]
                for m in (pj[i], qj[i]):
                    for v in m.ravel():
                        row += [repr(float(v.real)), repr(float(v.imag))]
                w.writerow(row)


def write_curvature_csv(path, field: GaugeField, j_range=None) -> None:
    spec = field.spec
    j_range = range(1, spec.j_max) if j_range is None else j_range
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "p"] + _matrix_columns("F", field.dim))
        for j in j_range:
            fj = curvature_slice(field, j)
            for i in range(spec.n_sites):
                row = [j, i - spec.p_max]
                for v in fj[i].ravel():
                    row += [repr(float(v.real)), repr(float(v.imag))]
                w.writerow(row)


def write_convergence_csv(path, epsilons, delta_re, delta_im, running_slopes) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["epsilon", "delta_re_minus", "delta_im_minus", "slope_running"])
        for row in zip(epsilons, delta_re, delta_im, running_slopes):
            w.writerow([repr(float(v)) if v == v else "" for v in row])


def write_trajectory_csv(path, times, xbar_walk, x_classical, e_ym) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "xbar_walk", "x_classical", "E_ym"])
        for t, xw, xc in zip(times, xbar_walk, x_classical):
            w.writerow([repr(float(t)), repr(float(xw)), repr(float(xc)), repr(float(e_ym))])


def write_classical_csv(path, times, states) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x", "p", "I1", "I2", "I3"])
        for t, s in zip(times, states):
            w.writerow([repr(float(t)), repr(float(s.x)), repr(float(s.p))]
                       + [repr(float(v)) for v in s.isospin])


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, config: dict, artifacts: list) -> Path:
    """Config echo plus sha256 checksums of every artifact file."""
    out_dir = Path(out_dir)
    manifest = {
        "config": config,
        "artifacts": {Path(a).name: sha256_file(a) for a in artifacts},
    }
    return write_json(out_dir / "manifest.json", manifest, sort_keys=True)


def write_json(path, data: dict, sort_keys: bool = False) -> Path:
    """data as JSON indented by two spaces, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")
    return Path(path)
