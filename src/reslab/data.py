"""Synthetic margin-separable data from a random kitchen-sinks teacher.

The teacher is a finite random-features sum f(x) = (1/M) sum_j c_j relu(u_jᵀx)
with u_j standard Gaussian directions and c_j in {±1}.  Inputs are drawn
uniformly on the unit sphere, labeled y = sign(f(x)), and rejection-sampled
to |f(x)| >= gamma, so every kept sample carries a hard margin certificate
y·f(x) >= gamma.  Here too are the lab's one JSON and one CSV writer, both
binary files' framing, whose reader checks every header value it reads, and
the checks on outside values that file headers and config keys share.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .numkit import RngState

PILOT_DRAWS = 100_000
MIN_ACCEPT_RATE = 0.01
MIN_CLASS_FRACTION = 0.05
_CHUNK = 10_000
NORM_TOL = 1e-9  # allowed deviation of a sample's or an input's norm from 1


class InfeasibleMarginError(ValueError):
    """Margin too large for the teacher: acceptance rate below the floor."""


class DegenerateTeacherError(ValueError):
    """Teacher produces labels that are too one-sided."""


class DataFormatError(ValueError):
    """Malformed dataset file."""


class DataInvariantError(ValueError):
    """Well-formed file whose contents violate dataset invariants."""


@dataclass(frozen=True)
class Teacher:
    """Finite kitchen-sinks scorer with |c_j| <= 1 and a target margin."""

    directions: np.ndarray  # (M, d)
    coeffs: np.ndarray      # (M,), entries in [-1, 1]
    gamma: float

    def __post_init__(self):
        if np.max(np.abs(self.coeffs)) > 1.0 + 1e-12:
            raise ValueError("coefficients must satisfy |c_j| <= 1")

    @property
    def n_features(self) -> int:
        return self.directions.shape[0]

    @property
    def d(self) -> int:
        return self.directions.shape[1]


def teacher_eval(teacher: Teacher, xs: np.ndarray) -> np.ndarray:
    """f(x) = (1/M) sum_j c_j relu(u_jᵀ x), vectorized over rows of xs, the
    ReLU applied in the pre-activations' own buffer."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    pre = xs @ teacher.directions.T
    np.maximum(pre, 0.0, out=pre)
    return pre @ teacher.coeffs / teacher.n_features


def make_teacher(rng: RngState, d: int, M: int, gamma: float) -> Teacher:
    """Random teacher: u_j ~ N(0, I_d), c_j a balanced random assignment of ±1.

    Balanced signs (exactly half each, randomly permuted) keep the scorer's
    mean over the sphere near zero; independent signs leave a DC offset of
    order 1/sqrt(M) that routinely swamps the per-input spread and yields
    one-sided labels after margin rejection.
    """
    if M < 1:
        raise ValueError(f"need at least one feature, got M={M}")
    if not gamma >= 0:
        raise ValueError(f"margin must be nonnegative, got {gamma}")
    directions = rng.standard_normal((M, d))
    coeffs = np.ones(M)
    coeffs[M // 2:] = -1.0
    coeffs = coeffs[rng.permutation(M)]
    return Teacher(directions, coeffs, float(gamma))


@dataclass(frozen=True)
class MarginDataset:
    """Sphere-normalized samples with ±1 labels certified by the teacher."""

    xs: np.ndarray           # (n, d), unit rows
    ys: np.ndarray           # (n,), ±1.0
    realized_margin: float   # min_i y_i f(x_i), >= teacher.gamma
    teacher: Teacher
    seed: tuple              # (seed, stream) of the generating rng, or None
    acceptance_rate: float

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def d(self) -> int:
        return self.xs.shape[1]


def unit_sphere_rows(rng: RngState, count: int, d: int) -> np.ndarray:
    """``count`` rows drawn uniformly on the unit sphere in R^d."""
    raw = rng.standard_normal((count, d))
    norms = np.linalg.norm(raw, axis=1)
    norms[norms == 0.0] = 1.0  # probability-zero guard
    return raw / norms[:, None]


def sample_dataset(teacher: Teacher, rng: RngState, n: int,
                   pilot_draws: int = PILOT_DRAWS) -> MarginDataset:
    """Rejection-sample n points with |f(x)| >= gamma from the sphere.

    A fixed pilot of ``pilot_draws`` draws estimates the acceptance rate;
    below 1% the margin is declared infeasible for this teacher.  Classes
    more imbalanced than 95/5 are rejected as a degenerate teacher.  Draws
    come in chunks of at most ``_CHUNK`` rows, and no chunk crosses the
    pilot's end, so the pilot's acceptances are the samples kept by then.
    """
    if n < 1 or pilot_draws < 1:
        raise ValueError(f"need n and pilot_draws >= 1, got {n} and {pilot_draws}")
    gamma = teacher.gamma
    seed_key = (rng.seed, rng.stream)

    kept_x, kept_f = [], []
    drawn = kept = 0
    rate = None
    # hard cap well past what the rate floor would allow, to bound the loop
    max_draws = max(pilot_draws, int(np.ceil(n / MIN_ACCEPT_RATE)) * 10)
    while rate is None or kept < n:
        chunk = min(_CHUNK, (pilot_draws if rate is None else max_draws) - drawn)
        if chunk <= 0:
            raise InfeasibleMarginError(
                f"could not collect {n} samples within {max_draws} draws "
                f"(acceptance rate {rate:.4%})")
        xs = unit_sphere_rows(rng, chunk, teacher.d)
        fs = teacher_eval(teacher, xs)
        keep = (np.abs(fs) >= gamma) & (fs != 0.0)
        kept_x.append(xs[keep])
        kept_f.append(fs[keep])
        kept += kept_x[-1].shape[0]
        drawn += chunk
        if rate is None and drawn == pilot_draws:
            rate = kept / pilot_draws
            if rate < MIN_ACCEPT_RATE:
                raise InfeasibleMarginError(
                    f"acceptance rate {rate:.4%} below {MIN_ACCEPT_RATE:.0%} pilot floor: "
                    f"gamma={gamma} is infeasible for this teacher")

    xs = np.concatenate(kept_x)[:n].copy()  # a view would pin every kept row
    fs = np.concatenate(kept_f)[:n]
    ys = np.where(fs > 0.0, 1.0, -1.0)
    pos_frac = float(np.mean(ys > 0))
    if min(pos_frac, 1.0 - pos_frac) < MIN_CLASS_FRACTION:
        raise DegenerateTeacherError(
            f"class balance {pos_frac:.1%} / {1 - pos_frac:.1%} beyond 95/5")
    return MarginDataset(xs, ys, float(np.min(ys * fs)), teacher, seed_key, rate)


def make_dataset(rng: RngState, d: int, M: int, gamma: float, n: int) -> MarginDataset:
    """The lab's one dataset recipe: a teacher from ``rng``'s substream
    ``"teacher"``, then ``n`` samples from its substream ``"data"``."""
    teacher = make_teacher(rng.substream("teacher"), d, M, gamma)
    return sample_dataset(teacher, rng.substream("data"), n)


# --- binary file framing -----------------------------------------------------
#
# Datasets and checkpoints are one JSON header line (UTF-8, sorted keys) with
# the file's ``kind`` and ``version`` 1, then the payload arrays' raw bytes in
# the order the kind fixes, with nothing after the last.

FRAME_VERSION = 1

# Checks on outside values, file headers and config keys alike: (what the
# value must be, its test); a bool passes none.  Sizes and counts stay below
# 2**28, as numpy refuses a record of that many float64 (2 GiB).
SIZE = ("a positive integer below 2**28", lambda v: type(v) is int and 0 < v < 2**28)
COUNT = ("an integer >= 0 below 2**28", lambda v: type(v) is int and 0 <= v < 2**28)
INTEGER = ("an integer", lambda v: type(v) is int)
NUMBER = ("a finite number",
          lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max)
AMOUNT = ("a finite number >= 0", lambda v: NUMBER[1](v) and v >= 0)
TEXT = ("a string", lambda v: type(v) is str)
SIZES = ("a nonempty list of positive integers below 2**28",
         lambda v: type(v) is list and v != [] and all(map(SIZE[1], v)))
POSITIVES = ("a nonempty list of finite numbers above 0", lambda v: type(v) is list
             and v != [] and all(NUMBER[1](x) and x > 0 for x in v))
SEED = ("null or two integers >= 0", lambda v: v is None or (
    type(v) is list and len(v) == 2 and all(type(s) is int and s >= 0 for s in v)))


def write_framed(path, kind: str, header: dict, arrays) -> None:
    """``header``, ``kind`` and the version as one sorted JSON line, then the
    bytes of each of ``arrays``, every one already in its file dtype."""
    with open(path, "wb") as fh:
        fh.write(json.dumps({**header, "kind": kind, "version": FRAME_VERSION},
                            sort_keys=True).encode("utf-8") + b"\n")
        for a in arrays:
            fh.write(a.tobytes())


def read_framed(path, kind: str, fields: dict, layout, error):
    """The header and payload arrays of the framed file at ``path``, or
    ``error`` (the caller's format error) unless the header is a JSON object
    of ``kind`` and the version whose ``fields`` pass their checks, and the
    payload is exactly the (name, record dtype, count) blocks of
    ``layout(header)``; a short block names its first incomplete record."""
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:  # or an empty file
            raise error(f"{path}: bad header line: {exc}") from exc
        if not isinstance(header, dict) or header.get("kind") != kind:
            raise error(f"{path}: header is not a JSON object of kind {kind!r}")
        version = ("1", lambda v: type(v) is int and v == FRAME_VERSION)
        for key, (what, ok) in {"version": version, **fields}.items():
            if key not in header or not ok(header[key]):
                got = repr(header[key]) if key in header else "nothing"
                raise error(f"{path}: header {key} must be {what}, got {got}")
        payload = fh.read()
    arrays, at = [], 0
    for name, record, count in layout(header):
        size = record.itemsize
        i, got = divmod(len(payload) - at, size)
        if i < count:
            raise error(f"{path}: truncated {name} {i} at byte "
                        f"{len(line) + at + i * size}: wanted {size} bytes, got {got}")
        arrays.append(np.frombuffer(payload, record, count, at).copy())
        at += count * size
    if at < len(payload):
        raise error(f"{path}: trailing bytes after byte {len(line) + at}")
    return header, arrays


# --- dataset file ------------------------------------------------------------

DATASET_KIND = "reslab-margin-dataset"


def _sample_dtype(d: int) -> np.dtype:
    """One packed sample record: x_i as d little-endian float64, then the label byte."""
    return np.dtype([("x", "<f8", (d,)), ("y", "i1")])


def save_dataset(ds: MarginDataset, path) -> None:
    samples = np.empty(ds.n, dtype=_sample_dtype(ds.d))
    samples["x"] = ds.xs
    samples["y"] = ds.ys
    write_framed(path, DATASET_KIND, {
        "d": ds.d, "n": ds.n, "M": ds.teacher.n_features, "gamma": ds.teacher.gamma,
        "realized_margin": ds.realized_margin, "acceptance_rate": ds.acceptance_rate,
        "seed": list(ds.seed) if ds.seed is not None else None,
    }, [np.asarray(ds.teacher.directions, dtype="<f8"),
        np.asarray(ds.teacher.coeffs, dtype="<f8"), samples])


def load_dataset(path) -> MarginDataset:
    """Load and re-validate a dataset file; contents are checked, not trusted."""
    header, (directions, coeffs, samples) = read_framed(
        path, DATASET_KIND, {"d": SIZE, "n": SIZE, "M": SIZE, "gamma": AMOUNT,
                             "acceptance_rate": AMOUNT, "seed": SEED},
        lambda h: [("teacher direction", np.dtype(("<f8", (h["d"],))), h["M"]),
                   ("teacher coefficient", np.dtype("<f8"), h["M"]),
                   ("sample", _sample_dtype(h["d"]), h["n"])], DataFormatError)
    xs = np.ascontiguousarray(samples["x"], dtype=np.float64)
    ys = samples["y"].astype(np.float64)
    gamma = float(header["gamma"])
    try:
        teacher = Teacher(directions, coeffs, gamma)
    except ValueError as exc:  # a coefficient beyond ±1
        raise DataInvariantError(f"{path}: {exc}") from exc
    if np.any(np.abs(ys) != 1.0):
        raise DataInvariantError(f"{path}: labels must be ±1")
    norms = np.linalg.norm(xs, axis=1)
    if not np.all(np.abs(norms - 1.0) <= NORM_TOL):  # a non-finite sample fails too
        bad = int(np.argmax(np.abs(norms - 1.0)))  # the first NaN, if any
        raise DataInvariantError(
            f"{path}: sample {bad} is off the unit sphere (norm {norms[bad]:.6f})")
    margins = ys * teacher_eval(teacher, xs)
    if not np.all(margins >= gamma - 1e-12):  # a NaN margin fails too
        bad = int(np.argmin(margins))
        raise DataInvariantError(
            f"{path}: sample {bad} violates the margin certificate "
            f"({margins[bad]:.6g} < {gamma})")
    seed = tuple(header["seed"]) if header["seed"] is not None else None
    return MarginDataset(xs, ys, float(np.min(margins)), teacher, seed,
                         float(header["acceptance_rate"]))


def write_json(path, obj) -> None:
    """``obj`` as sorted, indented JSON plus a final newline, written whole or
    not at all: to a temporary file beside ``path``, then renamed over it."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def write_csv(path, columns, rows) -> None:
    """The lab's one CSV layout: a header of ``columns``, then one line per
    row, floats as ``repr`` (round-trip exact) and all else as ``str``,
    UTF-8 with ``\\n`` line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")
