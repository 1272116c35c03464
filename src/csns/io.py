"""Config files, the streaming series writer, snapshots, and checkpoints."""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import tokenize
import zipfile
from pathlib import Path

import numpy as np

from .domain import (BoxSpec, ConfigError, InitSpec, KernelSpec, OutputSpec,
                     SimConfig, validate_config)
from .fluid import to_block

SNAPSHOT_MAGIC = b"CSNS"
SNAPSHOT_VERSION = 1
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<4sIIIddQI")
_FIELD_ENTRY = struct.Struct("<16sQQ")


class BadSnapshot(ValueError):
    pass


class BadSeries(ValueError):
    """A series file that cannot be read as a whole table of rows; the
    message names the file."""


class BadCheckpoint(ValueError):
    """A checkpoint that cannot be decoded, or a series that holds fewer
    rows than its checkpoint; the message names the file."""


def _build_section(cls, data, path, errors):
    known = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in known:
            errors.append((path + key, "unknown key"))
    use = {k: v for k, v in data.items() if k in known}
    try:
        return cls(**use)
    except TypeError as exc:
        errors.append((path.rstrip(".") or "config", str(exc)))
        return None


def config_from_data(data):
    """Build and validate a SimConfig from plain dicts (parsed JSON)."""
    if not isinstance(data, dict):
        raise ConfigError([("config", "top level must be a table")])
    errors = []
    top = dict(data)
    # determinism_mode was a flag that changed nothing; old configs and
    # checkpoints still carry it
    top.pop("determinism_mode", None)
    # and kernel.cap, which could only be the number 1
    kernel = top.get("kernel")
    if (isinstance(kernel, dict) and not isinstance(kernel.get("cap"), bool)
            and kernel.get("cap") == 1):
        top["kernel"] = {k: v for k, v in kernel.items() if k != "cap"}
    built = {}
    for key, cls in (("box", BoxSpec), ("kernel", KernelSpec),
                     ("init_profile", InitSpec), ("output", OutputSpec)):
        if key in top:
            value = top.pop(key)
            if isinstance(value, dict):
                section = _build_section(cls, value, key + ".", errors)
                if section is not None:
                    built[key] = section
            else:
                errors.append((key, "expected a table"))
    cfg = _build_section(SimConfig, {**top, **built}, "", errors)
    if errors or cfg is None:
        raise ConfigError(errors)
    return validate_config(cfg)


def parse_config(path):
    """Read a JSON run configuration; collects every violation before failing."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([("config", f"invalid JSON: {exc}")]) from exc
    return config_from_data(data)


def serialize_config(cfg):
    """JSON text round-trippable through parse_config."""
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True)


class TimeseriesWriter:
    """Appends diagnostics rows to a CSV, one flushed line per row."""

    def __init__(self, path, columns, _append=False):
        self.path = Path(path)
        self.columns = list(columns)
        self.n_written = 0
        self._fh = open(self.path, "a" if _append else "w", newline="")
        if not _append:
            self._fh.write(",".join(self.columns) + "\n")
            self._fh.flush()

    def add_row(self, row):
        self._fh.write(",".join(repr(float(row[c])) for c in self.columns)
                       + "\n")
        self._fh.flush()
        self.n_written += 1

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    @classmethod
    def restore(cls, path, columns, n_written):
        # drop any rows written after the checkpoint, so resuming from a
        # mid-run checkpoint reproduces the series of a run that never
        # stopped, byte for byte
        with open(path, "r+", newline="") as fh:
            for _ in range(1 + n_written):
                if not fh.readline().endswith("\n"):
                    raise BadCheckpoint(
                        f"{path} holds fewer rows than its checkpoint")
            fh.truncate(fh.tell())
        w = cls(path, columns, _append=True)
        w.n_written = n_written
        return w


def read_timeseries(path, columns=()):
    """Load a diagnostics CSV as a structured array keyed by column name.

    A file that is not UTF-8 text, has no rows, has a row of the wrong
    length or lacks one of columns raises BadSeries.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise BadSeries(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    if not text.strip():
        raise BadSeries(f"{path}: empty file")
    try:
        data = np.genfromtxt(text.splitlines(), delimiter=",", names=True)
    except ValueError as exc:
        raise BadSeries(f"{path}: {' '.join(str(exc).split())}") from exc
    if data.size == 0:
        raise BadSeries(f"{path}: no rows")
    missing = [c for c in columns if c not in (data.dtype.names or ())]
    if missing:
        raise BadSeries(f"{path}: no column {', '.join(missing)}")
    return data


def _write_atomically(path, write):
    """Call write(fh) on a temporary file beside path, then move it to path.

    A write that fails part-way leaves no file under path (nor a changed
    one) and removes the temporary, which is named .<name>.tmp.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_snapshot(path, box, t, u_phys, X, V, w):
    """Binary state dump: velocity grids plus the particle arrays.

    Fixed little-endian layout: magic, version, (d, N, L, t, n), a field
    table of (name, offset, count) entries, then contiguous f64 payloads.
    """
    fields = [(f"u{a}", np.ascontiguousarray(u_phys[a], dtype="<f8").ravel())
              for a in range(box.d)]
    fields += [("X", np.ascontiguousarray(X, dtype="<f8").ravel()),
               ("V", np.ascontiguousarray(V, dtype="<f8").ravel()),
               ("w", np.ascontiguousarray(w, dtype="<f8").ravel())]

    def write(fh):
        fh.write(_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, box.d, box.N,
                              box.L, t, X.shape[0], len(fields)))
        offset = 0
        for name, arr in fields:
            fh.write(_FIELD_ENTRY.pack(name.encode(), offset, arr.size))
            offset += arr.size
        for _, arr in fields:
            fh.write(arr.tobytes())

    _write_atomically(path, write)


def read_snapshot(path):
    """Parse a snapshot; returns a dict with box, t, u, X, V, w."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise BadSnapshot("truncated header")
    magic, version, d, n_grid, length, t, n_particles, n_fields = \
        _HEADER.unpack_from(raw)
    if magic != SNAPSHOT_MAGIC:
        raise BadSnapshot(f"bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise BadSnapshot(f"unsupported version {version}")
    if d not in (2, 3):
        raise BadSnapshot(f"dimension {d} is not 2 or 3")
    box = BoxSpec(d=int(d), L=float(length), N=int(n_grid))
    table = []
    pos = _HEADER.size
    for _ in range(n_fields):
        if pos + _FIELD_ENTRY.size > len(raw):
            raise BadSnapshot("truncated field table")
        name, offset, count = _FIELD_ENTRY.unpack_from(raw, pos)
        try:
            name = name.rstrip(b"\x00").decode()
        except UnicodeDecodeError as exc:
            raise BadSnapshot(f"field name is not UTF-8: {name!r}") from exc
        table.append((name, int(offset), int(count)))
        pos += _FIELD_ENTRY.size
    if (len(raw) - pos) % 8:
        raise BadSnapshot(f"payload of {len(raw) - pos} bytes is not a "
                          "whole number of 8-byte values")
    payload = np.frombuffer(raw, dtype="<f8", offset=pos)
    blobs = {}
    for name, offset, count in table:
        if offset + count > payload.size:
            raise BadSnapshot(f"field {name} overruns payload")
        blobs[name] = np.array(payload[offset:offset + count])
    try:
        u = np.stack([blobs[f"u{a}"].reshape(box.shape) for a in range(box.d)])
        X = blobs["X"].reshape(n_particles, box.d)
        V = blobs["V"].reshape(n_particles, box.d)
        w = blobs["w"]
    except (KeyError, ValueError) as exc:
        raise BadSnapshot(f"inconsistent field table: {exc}") from exc
    if w.size != n_particles:
        raise BadSnapshot("weight count disagrees with particle count")
    return {"box": box, "t": float(t), "u": u, "X": X, "V": V, "w": w}


def write_checkpoint(path, cfg, state, recorder_state, n_written):
    """Everything needed to continue a run bit-identically; n_written is the
    number of series rows on disk."""
    # np.savez is given the open file: it appends .npz to a bare name
    _write_atomically(path, lambda fh: np.savez(
        fh,
        version=np.int64(CHECKPOINT_VERSION),
        config_json=serialize_config(cfg),
        t=np.float64(state.t),
        step_index=np.int64(state.step_index),
        c=state.u.c,
        X=state.ens.X, V=state.ens.V, w=state.ens.w,
        recorder_json=json.dumps(recorder_state),
        writer_json=json.dumps({"n_written": n_written})))


def read_checkpoint(path):
    """Load a checkpoint whole; a file that cannot be decoded, or whose state
    does not fit its stored configuration, raises BadCheckpoint naming the
    file and the field.

    Returns cfg, t, step_index, the state arrays c, X, V and w, the number
    of series rows on disk (n_written) and the series recorder's state_dict
    (recorder_state).  c is stored as the whole half spectrum and returned
    cut to the retained block, which drops the round-off a checkpoint of an
    earlier version kept off it.  A stored configuration that fails
    validation raises ConfigError, each of its paths prefixed with the
    file.
    """
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":  # else np.load tries a pickle
            raise BadCheckpoint(f"{path}: not a checkpoint archive")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as npz:
                version = int(npz["version"])
                saved = {
                    "t": float(npz["t"]),
                    "step_index": int(npz["step_index"]),
                    "c": npz["c"],
                    "X": npz["X"],
                    "V": npz["V"],
                    "w": npz["w"],
                }
                recorder = json.loads(str(npz["recorder_json"]))
                writer = json.loads(str(npz["writer_json"]))
                cfg_data = json.loads(str(npz["config_json"]))
        # zipfile raises RuntimeError for an entry flagged as encrypted,
        # NotImplementedError for an unknown compression method and OSError
        # for a directory offset before the start of the file; numpy's
        # array-header parser lets SyntaxError and TokenError through
        except (EOFError, KeyError, NotImplementedError, OSError, RuntimeError,
                SyntaxError, TypeError, ValueError, tokenize.TokenError,
                zipfile.BadZipFile) as exc:
            raise BadCheckpoint(f"{path}: unreadable checkpoint ({exc})") \
                from exc
    if version != CHECKPOINT_VERSION:
        raise BadCheckpoint(f"{path}: unsupported checkpoint version "
                            f"{version}")
    try:
        cfg = saved["cfg"] = config_from_data(cfg_data)
    except ConfigError as exc:
        raise ConfigError([(f"{path}: {where}", message)
                           for where, message in exc.errors]) from exc
    box, n = cfg.box, cfg.particle_count
    for key, kind, shape in (("c", "c", (box.d,) + box.spectral_shape),
                             ("X", "f", (n, box.d)), ("V", "f", (n, box.d)),
                             ("w", "f", (n,))):
        arr = saved[key]
        if arr.dtype.kind != kind or arr.shape != shape:
            raise BadCheckpoint(
                f"{path}: {key} is {arr.dtype} of shape {arr.shape}, not "
                f"{'complex' if kind == 'c' else 'float'} of shape {shape}")
        if not np.all(np.isfinite(arr)):
            raise BadCheckpoint(f"{path}: {key} holds nonfinite values")
    saved["c"] = to_block(saved["c"], box)
    if not 0.0 <= saved["t"] < np.inf:
        raise BadCheckpoint(f"{path}: t is {saved['t']}, not a finite time "
                            ">= 0")
    if saved["step_index"] < 0:
        raise BadCheckpoint(f"{path}: step_index is {saved['step_index']}, "
                            "below 0")
    n_written = writer.get("n_written") if isinstance(writer, dict) else None
    if type(n_written) is not int or n_written < 0:
        raise BadCheckpoint(f"{path}: n_written is {n_written!r}, not a row "
                            "count")
    saved["n_written"] = n_written
    if isinstance(recorder, dict):
        # checkpoints written before the recorder held the series rows keep
        # the held rows and the (t, E) window in writer_json
        recorder = {**{k: writer[k] for k in ("pending", "window")
                       if k in writer}, **recorder}
    saved["recorder_state"] = recorder
    return saved
