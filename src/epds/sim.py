"""Time-stepping integration of the closed loop with trace recording.

Explicit Euler on the projected field is the reference scheme: the field is
discontinuous at the sector boundary, so classical high-order error theory
does not apply, and first-order stepping with drift correction is honest
and testable.  Steps land exactly on input breakpoints, so integration
restarts cleanly segment by segment.

Each trace row stores the raw state produced by the step together with its
sector residual; when that state drifts out of the sector by more than the
membership tolerance, the controller output is clamped back onto the
admissible interval (a correction along the controller directions only,
never along plant states) before the next step, and the row is flagged.
Recording the pre-correction residual keeps the first-order drift visible:
halving the step should roughly halve the worst residual.

Memory grows with what the trace holds, so long horizons stay cheap.
``integrate`` appends each row to one flat float buffer (with the branch
labels and drift flags beside it) and builds the trace's columns from it at
the end; ``Trace.to_csv`` formats and writes CSV_BLOCK_ROWS rows at a time.
On the three-state HIGS loop that is about 120 bytes of Python heap per row
at the peak of ``integrate``, and one block's text in the writer.

The simulator produces one Caratheodory-consistent approximation; it makes
no uniqueness claim.
"""

from __future__ import annotations

import bisect
import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InitialStateOutsideSet, StateExploded
from .geometry import _as_vector, _readonly
from .pbc import ClosedLoopSystem, closed_loop_rhs

DEFAULT_STEP = 1e-3
BLOWUP_BOUND = 1e12  # |xi| beyond which integrate raises StateExploded
CSV_BLOCK_ROWS = 512  # rows formatted per write by Trace.to_csv


# ---------------------------------------------------------------------------
# piecewise-continuous input signals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantSegment:
    value: float

    def __call__(self, tau: float) -> float:
        return self.value

    def to_json(self) -> dict:
        return {"kind": "constant", "value": self.value}


@dataclass(frozen=True)
class RampSegment:
    offset: float
    slope: float

    def __call__(self, tau: float) -> float:
        return self.offset + self.slope * tau

    def to_json(self) -> dict:
        return {"kind": "ramp", "offset": self.offset, "slope": self.slope}


@dataclass(frozen=True)
class SinusoidSegment:
    amplitude: float
    omega: float
    phase: float = 0.0
    offset: float = 0.0

    def __call__(self, tau: float) -> float:
        return self.offset + self.amplitude * math.sin(self.omega * tau + self.phase)

    def to_json(self) -> dict:
        return {
            "kind": "sinusoid",
            "amplitude": self.amplitude,
            "omega": self.omega,
            "phase": self.phase,
            "offset": self.offset,
        }


@dataclass(frozen=True)
class PolynomialSegment:
    coeffs: tuple[float, ...]  # c0 + c1 tau + c2 tau^2 + ...

    def __call__(self, tau: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * tau + c
        return acc

    def to_json(self) -> dict:
        return {"kind": "polynomial", "coeffs": list(self.coeffs)}


def segment_from_json(doc: dict):
    kind = doc.get("kind")
    if kind == "constant":
        return ConstantSegment(float(doc["value"]))
    if kind == "ramp":
        return RampSegment(float(doc["offset"]), float(doc["slope"]))
    if kind == "sinusoid":
        return SinusoidSegment(
            float(doc["amplitude"]),
            float(doc["omega"]),
            float(doc.get("phase", 0.0)),
            float(doc.get("offset", 0.0)),
        )
    if kind == "polynomial":
        return PolynomialSegment(tuple(float(c) for c in doc["coeffs"]))
    raise ValueError(f"unknown segment kind {kind!r}")


@dataclass(frozen=True)
class InputSignal:
    """Right-continuous piecewise signal on [0, end] (end=None: unbounded).

    Segment k applies on [breakpoints[k], breakpoints[k+1]); each analytic
    form is continuous within its interval and evaluated in local time, so
    the value at a breakpoint is the right limit.
    """

    breakpoints: tuple[float, ...]
    segments: tuple
    end: float | None = None

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        if not bps or bps[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(bps) != len(self.segments):
            raise ValueError("one segment per breakpoint is required")
        if self.end is not None and self.end <= bps[-1]:
            raise ValueError("end must exceed the last breakpoint")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "segments", tuple(self.segments))

    @classmethod
    def constant(cls, value: float) -> "InputSignal":
        return cls(breakpoints=(0.0,), segments=(ConstantSegment(float(value)),))

    @classmethod
    def steps(cls, times, values) -> "InputSignal":
        return cls(
            breakpoints=tuple(times),
            segments=tuple(ConstantSegment(float(v)) for v in values),
        )

    def to_json(self) -> dict:
        return {
            "breakpoints": list(self.breakpoints),
            "segments": [s.to_json() for s in self.segments],
            "end": self.end,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "InputSignal":
        return cls(
            breakpoints=tuple(float(b) for b in doc["breakpoints"]),
            segments=tuple(segment_from_json(s) for s in doc["segments"]),
            end=None if doc.get("end") is None else float(doc["end"]),
        )


def eval_input(sig: InputSignal, t: float) -> float:
    """Right-continuous evaluation, exact at breakpoints."""
    if t < 0.0:
        raise ValueError("input signals are defined for t >= 0")
    if sig.end is not None and t > sig.end:
        raise ValueError(f"t={t} is beyond the last defined segment (end={sig.end})")
    k = bisect.bisect_right(sig.breakpoints, t) - 1
    return float(sig.segments[k](t - sig.breakpoints[k]))


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

TRACE_BRANCHES = ("interior", "K", "minusK", "corner")


@dataclass(frozen=True)
class Trace:
    """Time-indexed record of a run; one row per step plus the initial row."""

    t: np.ndarray
    xi: np.ndarray
    e: np.ndarray
    u: np.ndarray
    edot: np.ndarray
    vstar: np.ndarray
    branch: tuple[str, ...]
    correction_norm: np.ndarray
    sector_residual: np.ndarray
    drift_corrected: np.ndarray
    h: float

    def __post_init__(self):
        for name in ("t", "e", "u", "edot", "vstar", "correction_norm", "sector_residual"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        object.__setattr__(self, "xi", _readonly(self.xi))
        dc = np.array(self.drift_corrected, dtype=bool)
        dc.flags.writeable = False
        object.__setattr__(self, "drift_corrected", dc)
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("trace times must be strictly increasing")

    @property
    def n_rows(self) -> int:
        return self.t.shape[0]

    @property
    def max_violation(self) -> float:
        """Largest positive sector residual over all rows (0 if none)."""
        return float(max(0.0, float(np.max(self.sector_residual))))

    def time_in_branch(self) -> dict[str, float]:
        out = {b: 0.0 for b in TRACE_BRANCHES}
        dts = np.diff(self.t)
        for k, dt in enumerate(dts):
            out[self.branch[k]] += float(dt)
        return out

    def summary(self) -> dict:
        return {
            "max_sector_residual": float(np.max(self.sector_residual)),
            "steps": int(self.n_rows - 1),
            "drift_corrections": int(np.sum(self.drift_corrected)),
            "time_in_branch": self.time_in_branch(),
            "terminal_state": [float(v) for v in self.xi[-1]],
        }

    def to_csv(self, path) -> None:
        """Write one row per step; floats in %.17g, so they round-trip exactly.

        The header goes first, then blocks of CSV_BLOCK_ROWS rows, one write
        each, so the text in memory is one block's, not the whole file's.
        """
        dim = self.xi.shape[1]
        header = (
            ["t"]
            + [f"xi_{i}" for i in range(dim)]
            + [
                "e",
                "u",
                "edot",
                "vstar",
                "branch",
                "correction_norm",
                "sector_residual",
                "drift_corrected",
            ]
        )
        lead = dim + 5  # t, xi, e, u, edot, vstar: the columns before branch
        row = ",".join(["%.17g"] * lead) + ",%s,%.17g,%.17g,%s\n"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, self.n_rows, CSV_BLOCK_ROWS):
                block = slice(start, start + CSV_BLOCK_ROWS)
                numeric = np.column_stack(
                    [self.t[block], self.xi[block], self.e[block], self.u[block],
                     self.edot[block], self.vstar[block], self.correction_norm[block],
                     self.sector_residual[block]]
                ).tolist()
                fh.write("".join(
                    row % (*r[:lead], b, r[lead], r[lead + 1], "1" if d else "0")
                    for r, b, d in zip(numeric, self.branch[block],
                                       self.drift_corrected[block].tolist())
                ))


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def drift_correct(sys: ClosedLoopSystem, xi) -> tuple[np.ndarray, bool]:
    """Clamp the controller output back into the sector, along E only.

    When H xi violates the sector beyond the membership tolerance, z1 is
    replaced by its clamp into the interval between k1*e and k2*e; plant
    states are never touched.
    """
    xi = _as_vector(xi, sys.dim)
    e, u = sys.H.dot(xi).tolist()
    sec = sys.sector
    if sec.classify(e, u).label != "outside":
        return xi, False
    lo = min(sec.k1 * e, sec.k2 * e)
    hi = max(sec.k1 * e, sec.k2 * e)
    out = xi.copy()
    out[sys.n] = min(max(u, lo), hi)
    return out, True


# The seven scalar columns of a trace row, packed as native float64.
_ROW_SCALARS = struct.Struct("=7d")


def _step_schedule(signal: InputSignal, T: float, h: float):
    """(t, dt, t_next) triples; steps land exactly on breakpoints and T.

    A segment of length L takes n = ceil(L / h - 1e-6) steps: n - 1 of h,
    t advancing by repeated addition, and a last one onto the segment's end
    that absorbs the drift of that sum.  So a segment of n h takes n steps,
    none longer than about h (1 + 1e-6), and any other segment ends with its
    short remainder.
    """
    knots = [b for b in signal.breakpoints if 0.0 < b < T] + [T]
    t = 0.0
    for target in knots:
        for _ in range(max(1, math.ceil((target - t) / h - 1e-6)) - 1):
            t_next = t + h
            yield t, h, t_next
            t = t_next
        yield t, target - t, target
        t = target


def integrate(
    sys: ClosedLoopSystem,
    xi0,
    signal: InputSignal,
    T: float,
    h: float = DEFAULT_STEP,
) -> Trace:
    """Explicit Euler on the projected field, with drift correction.

    Each row, the last one at T included, takes one ``drift_correct`` and
    one ``closed_loop_rhs``.  Rows record the raw post-step states (see the
    module docstring for the correction bookkeeping).  Raises
    InitialStateOutsideSet when xi0 violates the lifted set and
    StateExploded once |xi| exceeds BLOWUP_BOUND.  Under linear growth
    that is exponential growth, not finite escape: ``scenarios/blowup.json``
    is x' = 40x at h = 0.01, so each step multiplies |xi| by 1.4.
    """
    xi0 = _as_vector(xi0, sys.dim)
    if not (h > 0.0 and T > 0.0):
        raise ValueError("need h > 0 and T > 0")
    if signal.end is not None and T > signal.end:
        raise ValueError("horizon exceeds the input signal's domain")
    if not sys.in_set(xi0):
        raise InitialStateOutsideSet(
            f"output pair {sys.output_pair(xi0).tolist()} is outside the sector"
        )

    H = sys.H
    k1, k2 = sys.sector.k1, sys.sector.k2
    # One flat buffer of float64 rows (t, e, u, edot, vstar, correction_norm,
    # residual, then the raw state), filled as the rows are produced.
    rows = bytearray()
    branches: list[str] = []
    drift = bytearray()
    raw = xi0.copy()
    # The schedule's steps, then the row at T, which takes no step.
    for t, dt, t_next in itertools.chain(_step_schedule(signal, T, h), [(T, None, None)]):
        stepped, corrected = drift_correct(sys, raw)
        r = closed_loop_rhs(sys, stepped, eval_input(signal, t))
        e, u = H.dot(raw).tolist()
        # The residual is Sector.residual's expression on the floats in hand.
        rows += _ROW_SCALARS.pack(t, e, u, r.edot, r.vstar, r.correction_norm,
                                  (u - k1 * e) * (u - k2 * e))
        rows += raw.tobytes()
        branches.append(r.branch)
        drift.append(corrected)
        if dt is None:
            break
        raw = stepped + dt * r.field
        norm = math.sqrt(raw.dot(raw))  # np.linalg.norm(raw), as numpy computes it
        if norm > BLOWUP_BOUND:
            raise StateExploded(t_next, norm, BLOWUP_BOUND)
    # Read-only views of the buffer, which Trace keeps without a copy.
    table = np.frombuffer(memoryview(rows).toreadonly()).reshape(-1, 7 + sys.dim)
    t, e, u, edot, vstar, corr, residual = table[:, :7].T
    return Trace(
        t=t, xi=table[:, 7:], e=e, u=u, edot=edot, vstar=vstar, branch=tuple(branches),
        correction_norm=corr, sector_residual=residual,
        drift_corrected=np.frombuffer(drift, dtype=bool), h=h,
    )


@dataclass(frozen=True)
class TimeEmbedded:
    """Autonomous embedding chi = (xi, t) of a run with an external input.

    The constraint set becomes (lifted set) x R>=0, corrections act on
    (controller states) x {0}, and the field is (f(xi, w(t)), 1): the clock
    is a state whose rate is one and is never projected.  ``integrate`` is
    explicit Euler on this system with the clock read off the step schedule;
    the tests step ``rhs`` directly and require the same trace bit for bit.
    """

    system: ClosedLoopSystem
    signal: InputSignal

    @property
    def dim(self) -> int:
        return self.system.dim + 1

    def contains(self, chi) -> bool:
        chi = _as_vector(chi, self.dim)
        return chi[-1] >= 0.0 and self.system.in_set(chi[:-1])

    def rhs(self, chi) -> np.ndarray:
        """Projected embedded field; the last component is always 1."""
        chi = _as_vector(chi, self.dim)
        w = eval_input(self.signal, float(chi[-1]))
        r = closed_loop_rhs(self.system, chi[:-1], w)
        return np.concatenate([r.field, [1.0]])


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-step-size residual maxima, observed orders and terminal deltas."""

    entries: tuple[dict, ...]
    observed_orders: tuple[float, ...]
    terminal_deltas: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "entries": [dict(e) for e in self.entries],
            "observed_orders": list(self.observed_orders),
            "terminal_deltas": list(self.terminal_deltas),
        }


def convergence_study(
    sys: ClosedLoopSystem,
    xi0,
    signal: InputSignal,
    T: float,
    h_list,
) -> ConvergenceReport:
    """Rerun the integration per step size and fit the residual decay order.

    ``h_list`` must be strictly decreasing.  Blow-ups are surfaced per step
    size in the corresponding entry rather than aborting the study.
    """
    hs = [float(h) for h in h_list]
    if any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
        raise ValueError("h_list must be strictly decreasing")
    entries: list[dict] = []
    # Per h, the two things the study reads of a run: (max_violation,
    # terminal state), or None for a blow-up.  No trace is kept.
    ends: list[tuple[float, np.ndarray] | None] = []
    for h in hs:
        try:
            tr = integrate(sys, xi0, signal, T, h)
        except StateExploded as exc:
            entries.append({"h": h, "status": "StateExploded", "t": exc.t, "norm": exc.norm})
            ends.append(None)
            continue
        violation, terminal = tr.max_violation, tr.xi[-1].copy()
        del tr  # freed before the next, finer run
        ends.append((violation, terminal))
        entries.append(
            {
                "h": h,
                "status": "ok",
                "max_violation": violation,
                "terminal_state": [float(v) for v in terminal],
            }
        )
    orders: list[float] = []
    deltas: list[float] = []
    for (h1, end1), (h2, end2) in zip(zip(hs, ends), zip(hs[1:], ends[1:])):
        if end1 is None or end2 is None:
            continue
        (v1, x1), (v2, x2) = end1, end2
        if v1 > 0.0 and v2 > 0.0:
            orders.append(float(math.log(v1 / v2) / math.log(h1 / h2)))
        deltas.append(float(np.linalg.norm(x1 - x2)))
    return ConvergenceReport(
        entries=tuple(entries),
        observed_orders=tuple(orders),
        terminal_deltas=tuple(deltas),
    )
